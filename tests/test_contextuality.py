"""Presheaves over the algebra poset, global sections, and the verdict."""

import functools
import itertools
from operator import ne

import pytest
from hypothesis import given, settings, strategies as st

import qspec.contextuality as contextuality
from oracles import subset_idempotent, support
from qspec import csp
from qspec.quantale import builtin_quantale, is_zdf, parse_quantale_tag
from qspec.relations import QRel, carrier, diag_rel, zero_rel, _e_compose
from qspec.contextuality import (
    Presheaf, build_presheaf, canonical_section, global_sections, ks_verdict,
    section_element, transport_gelfand_section, transport_prime_section,
    unnatural_edge,
)
from qspec.spectra import (
    TWO, SpectrumSet, characters_to_two, prime_ideal_scan, restrict_character,
    restriction_table,
)
from qspec.subalgebra import (
    AlgebraPoset, InvariantViolation, close, diagonal_algebra, enumerate_vn,
)

BOOL2 = builtin_quantale("boolean2")
GODEL3 = builtin_quantale("godel_chain", 3)
LUK3 = builtin_quantale("lukasiewicz_chain", 3)

# (quantale tag, |X|) of the configs the section search is checked on
ORACLE_CONFIGS = [("boolean2", 2), ("godel3", 2), ("godel4", 2), ("lukasiewicz3", 2),
                  ("lukasiewicz4", 2), ("powerset2", 2), ("boolean2", 3)]


@functools.lru_cache(maxsize=None)
def oracle_poset(tag, size):
    return enumerate_vn(carrier("X", size), parse_quantale_tag(tag))


def all_inclusion_tables(poset, kind):
    """The restriction table of every proper inclusion, not only of the
    Hasse edges the poset stores."""
    values = poset.spectra(kind)
    return {(i, j): restriction_table(values[i], values[j], (i, j))
            for i, j in sorted(poset.leq_pairs) if i != j}


def functor_law_violation(tables):
    """The first chain i < j < k, in inclusion order, along which the
    restriction tables (i, j) -> row break r_ij . r_jk = r_ik, or None."""
    above = {}  # i -> every j with a table (i, j), ascending
    for i, j in sorted(tables):
        above.setdefault(i, []).append(j)
    for i, js in above.items():
        for j in js:
            r_ij = tables[i, j]
            for k in above.get(j, ()):
                r_ik = tables.get((i, k))
                if r_ik is not None and any(map(ne, map(r_ij.__getitem__, tables[j, k]),
                                                r_ik)):
                    return i, j, k
    return None


def oracle_sections(sheaf):
    """Every global section by the generic route: AC-3 plus lexicographic
    backtracking over the naturality constraint of every table."""
    domains = [list(range(v.size)) for v in sheaf.values]
    constraints = {(i, j): {(table[pj], pj) for pj in range(len(table))}
                   for (i, j), table in sheaf.restrictions.items()}
    return csp.solve_all(len(sheaf.values), domains, constraints)


# -- the solver itself ---------------------------------------------------------


def test_csp_enumerates_all_solutions_in_order():
    # x0 in {0,1,2}, x1 in {0,1}, constraint x0 = x1 + 1
    sols = csp.solve_all(2, [[0, 1, 2], [0, 1]],
                         {(0, 1): {(1, 0), (2, 1)}})
    assert sols == [(1, 0), (2, 1)]


def test_csp_arc_consistency_prunes():
    domains = [[0, 1, 2], [2]]
    ok = csp.ac3(domains, {(0, 1): {(0, 2)}})
    assert ok and domains[0] == [0]
    domains = [[0], [0]]
    assert not csp.ac3(domains, {(0, 1): {(1, 0)}})


def test_csp_unsatisfiable():
    assert csp.solve_all(2, [[0, 1], [0, 1]], {(0, 1): set()}) == []


# -- presheaf construction -------------------------------------------------------


def test_single_object_poset_sections_are_the_points():
    x1 = carrier("X", 1)
    for q, expected in ((BOOL2, 1), (GODEL3, 3)):
        poset = enumerate_vn(x1, q)
        assert len(poset.algebras) == 1
        sheaf = build_presheaf(poset, "gelfand")
        secs = global_sections(sheaf)
        assert len(secs) == expected
        assert secs == [(i,) for i in range(expected)]


def test_presheaf_tables_match_pointwise_restriction():
    x2 = carrier("X", 2)
    for q, kind in ((BOOL2, "prime"), (GODEL3, "gelfand")):
        poset = enumerate_vn(x2, q)
        sheaf = build_presheaf(poset, kind)
        for (i, j), table in sheaf.restrictions.items():
            sub = poset.algebras[i]
            for pj, point in enumerate(sheaf.values[j].points):
                assert sheaf.values[i].points[table[pj]] == \
                    restrict_character(point, poset.algebras[j], sub)


@pytest.mark.parametrize("tag,size", ORACLE_CONFIGS)
def test_every_table_cell_is_the_index_of_the_restricted_point(tag, size):
    poset = oracle_poset(tag, size)
    for kind in ("gelfand", "prime"):
        sheaf = build_presheaf(poset, kind)
        assert sorted(sheaf.restrictions) == sorted(poset.hasse)
        for (i, j), table in sheaf.restrictions.items():
            sub = poset.algebras[i]
            assert len(table) == sheaf.values[j].size
            for pj, point in enumerate(sheaf.values[j].points):
                assert table[pj] == sheaf.values[i].index_of(
                    restrict_character(point, poset.algebras[j], sub))


@pytest.mark.parametrize("tag,size", ORACLE_CONFIGS)
def test_the_prime_ideal_scan_finds_every_prime_spectrum(tag, size):
    # the kernel-bijection check, here over zero divisors too
    poset = oracle_poset(tag, size)
    for a, spectrum in zip(poset.algebras, poset.spectra("prime")):
        assert prime_ideal_scan(a) == list(spectrum.points)


@pytest.mark.parametrize("tag,size", ORACLE_CONFIGS)
def test_the_prime_spectra_read_off_the_gelfand_spectra_are_the_search_into_two(
        tag, size):
    # each prime spectrum is filtered out of its Gelfand spectrum; the
    # search straight into TWO is the oracle, in values and in order
    poset = oracle_poset(tag, size)
    for a, spectrum in zip(poset.algebras, poset.spectra("prime")):
        assert list(spectrum.points) == characters_to_two(a)[::-1]


@pytest.mark.parametrize("tag,size", ORACLE_CONFIGS)
def test_hasse_tables_compose_to_every_inclusion_table(tag, size):
    # By induction on path length: if every composite of the oracle table
    # (i, c) with a Hasse edge table (c, k) is the oracle table (i, k), then
    # so is every composite along every Hasse path from k down to i.
    poset = oracle_poset(tag, size)
    for kind in ("gelfand", "prime"):
        oracle = all_inclusion_tables(poset, kind)
        assert functor_law_violation(oracle) is None
        hasse = poset.restrictions(kind)
        for (i, k), table in oracle.items():
            identity = range(poset.spectra(kind)[i].size)
            for (c, k2), edge in hasse.items():
                if k2 == k and (i, c) in poset.leq_pairs:
                    r_ic = oracle.get((i, c), identity)
                    assert [r_ic[w] for w in edge] == list(table), (i, c, k)


@pytest.mark.parametrize("tag,size", ORACLE_CONFIGS)
def test_sections_equal_the_csp_oracle_in_order(tag, size):
    poset = oracle_poset(tag, size)
    for kind in ("gelfand", "prime"):
        sheaf = build_presheaf(poset, kind)
        every = Presheaf(poset, kind, sheaf.values, all_inclusion_tables(poset, kind))
        assert global_sections(sheaf) == oracle_sections(sheaf) == oracle_sections(every)


# A hand-built poset: algebra a is the coordinate set COORDS[a], ordered by
# inclusion; algebra 5 is below and above nothing.  A point is a value tuple
# on the coordinates and restricts by projection, which is functorial.
COORDS = ((0,), (0, 1), (0, 2), (0, 1, 2), (0, 2, 3), (4,))
LEQ = [(i, j) for i, j in itertools.permutations(range(len(COORDS)), 2)
       if set(COORDS[i]) <= set(COORDS[j])]
HASSE = [(i, j) for i, j in LEQ if not any((i, k) in LEQ and (k, j) in LEQ
                                           for k in range(len(COORDS)))]


@st.composite
def projection_presheaves(draw):
    """Random point sets, closed downward under projection, and the
    restriction tables of their Hasse edges; some draws then overwrite
    cells, so that the tables no longer compose to the projections."""
    points = [draw(st.sets(st.tuples(*[st.integers(0, 2)] * len(c)),
                           min_size=1, max_size=4))
              for c in COORDS]
    for i, j in sorted(LEQ, key=lambda e: -len(COORDS[e[1]])):
        keep = [COORDS[j].index(c) for c in COORDS[i]]
        points[i] |= {tuple(p[k] for k in keep) for p in points[j]}
    points = [sorted(p) for p in points]
    tables = {}
    for i, j in HASSE:
        keep = [COORDS[j].index(c) for c in COORDS[i]]
        tables[i, j] = [points[i].index(tuple(p[k] for k in keep)) for p in points[j]]
    for (i, j), row in tables.items():
        for pj in range(len(row)):
            if draw(st.integers(0, 9)) == 0:
                row[pj] = draw(st.integers(0, len(points[i]) - 1))
    values = tuple(SpectrumSet(None, "gelfand", tuple(p)) for p in points)
    return Presheaf(None, "gelfand", values, {k: tuple(v) for k, v in tables.items()})


@settings(max_examples=200, deadline=None)
@given(projection_presheaves())
def test_sections_of_random_tables_equal_the_csp_oracle(sheaf):
    assert global_sections(sheaf) == oracle_sections(sheaf)


def test_hand_built_contradiction_has_no_sections():
    x2 = carrier("X", 2)
    poset = enumerate_vn(x2, GODEL3)
    sheaf = build_presheaf(poset, "gelfand")
    i = poset.trivial_index
    bad = dict(sheaf.restrictions)
    # force two parents of the trivial algebra to demand different values
    parents = [j for (s, j) in poset.hasse if s == i][:2]
    assert len(parents) == 2
    bad[(i, parents[0])] = tuple(0 for _ in bad[(i, parents[0])])
    bad[(i, parents[1])] = tuple(1 for _ in bad[(i, parents[1])])
    broken = Presheaf(poset, "gelfand", sheaf.values, bad)
    assert global_sections(broken) == []


# -- canonical sections ------------------------------------------------------------


def oracle_canonical_choice(point, sheaf):
    """The canonical section of a point by the entry kernels: in every
    algebra, the prime point that is 0 at the members the idempotent
    supporting the point composes to zero."""
    choice = []
    for idx, dec in enumerate(sheaf.poset.decompositions):
        a = dec.algebra
        q = a.quantale
        (e,) = [e for e in dec.idempotents
                if point in support(QRel(q, a.carrier, a.carrier, e)).supp]
        zero = zero_rel(q, a.carrier, a.carrier).entries
        values = tuple(TWO.bottom if _e_compose(q, e, m) == zero else TWO.unit
                       for m in a.members)
        choice.append(sheaf.values[idx].index_of(values))
    return tuple(choice)


@pytest.mark.parametrize("tag,size,mode", [
    (tag, size, "exhaustive") for tag, size in ORACLE_CONFIGS
    if is_zdf(parse_quantale_tag(tag))] + [("boolean2", 3, "generated")])
def test_canonical_sections_equal_the_entry_kernels(tag, size, mode):
    x = carrier("X", size)
    poset = (oracle_poset(tag, size) if mode == "exhaustive"
             else enumerate_vn(x, parse_quantale_tag(tag), mode))
    sheaf = build_presheaf(poset, "prime")
    for p in x.elements:
        section = canonical_section(p, sheaf)
        assert section == oracle_canonical_choice(p, sheaf)
        assert section_element(section, sheaf) == p


def test_canonical_section_single_point():
    x1 = carrier("X", 1)
    poset = enumerate_vn(x1, GODEL3)
    sheaf = build_presheaf(poset, "prime")
    s = canonical_section("1", sheaf)
    assert section_element(s, sheaf) == "1"


def test_canonical_section_boolean_picks_the_complement_ideal():
    x2 = carrier("X", 2)
    poset = enumerate_vn(x2, BOOL2)
    sheaf = build_presheaf(poset, "prime")
    s = canonical_section("1", sheaf)
    d_idx = poset.diagonal_index
    diagonal = sheaf.values[d_idx]
    chosen = diagonal.points[s[d_idx]]
    # the ideal must kill everything supported at "1": zero and the idempotent at "2"
    labels = {"".join(str(v) for row in m for v in row)
              for m in diagonal.kernel_members(chosen)}
    assert labels == {"0000", "0001"}
    t_idx = poset.trivial_index
    trivial = sheaf.values[t_idx]
    chosen_t = trivial.points[s[t_idx]]
    assert set(trivial.kernel_members(chosen_t)) == {((0, 0), (0, 0))}
    assert unnatural_edge(s, sheaf) is None


def test_distinct_points_give_distinct_sections():
    x2 = carrier("X", 2)
    for q in (BOOL2, GODEL3):
        poset = enumerate_vn(x2, q)
        sheaf = build_presheaf(poset, "prime")
        s1 = canonical_section("1", sheaf)
        s2 = canonical_section("2", sheaf)
        assert s1 != s2
        assert section_element(s1, sheaf) == "1"
        assert section_element(s2, sheaf) == "2"


def test_every_enumerated_section_determines_one_point():
    x2 = carrier("X", 2)
    for q in (BOOL2, GODEL3):
        poset = enumerate_vn(x2, q)
        sheaf = build_presheaf(poset, "prime")
        secs = global_sections(sheaf)
        assert secs
        for s in secs:
            assert section_element(s, sheaf) in x2.elements


def test_section_element_requires_the_diagonal():
    x2 = carrier("X", 2)
    poset = enumerate_vn(x2, BOOL2)
    sheaf = build_presheaf(poset, "prime")
    pruned_algebras = tuple(a for i, a in enumerate(poset.algebras)
                            if i != poset.diagonal_index)
    smaller = poset._replace(algebras=pruned_algebras, hasse=())
    small_sheaf = build_presheaf(smaller, "prime")
    with pytest.raises(InvariantViolation, match="diagonal"):
        section_element(tuple(0 for _ in pruned_algebras), small_sheaf)


def test_section_element_rejects_components_without_a_common_point():
    # Two points are only told apart by the diagonal algebra at |X| = 2, so a
    # disagreement needs a second splitting algebra: {1} + {2,3} below the
    # diagonal on three points.
    x3 = carrier("X", 3)
    split = close(x3, [subset_idempotent(BOOL2, x3, pts) for pts in (["1"], ["2", "3"])])
    poset = AlgebraPoset(BOOL2, x3, (split, diagonal_algebra(x3, BOOL2)), "exhaustive",
                         None, ((0, 1),))
    sheaf = build_presheaf(poset, "prime")
    at_1, at_2 = (canonical_section(p, sheaf) for p in ("1", "2"))
    assert section_element(at_2, sheaf) == "2"
    # The diagonal now picks {1} while the split algebra still picks {2,3}.
    spliced = (at_2[0], at_1[1])
    with pytest.raises(InvariantViolation,
                       match=r"^selected components do not share the point '1': "
                             r"A0 selects \('2', '3'\)$"):
        section_element(spliced, sheaf)


def test_a_section_that_keeps_two_components_names_its_algebra():
    poset = enumerate_vn(carrier("X", 2), BOOL2)
    sheaf = build_presheaf(poset, "prime")
    d = poset.diagonal_index
    section = list(canonical_section("1", sheaf))
    # the character that is 1 on every member keeps both diagonal components
    values = list(sheaf.values)
    values[d] = values[d]._replace(points=((TWO.unit,) * poset.algebras[d].size,))
    section[d] = 0
    with pytest.raises(InvariantViolation,
                       match=rf"^A{d}: section does not isolate one component$"):
        section_element(tuple(section), sheaf._replace(values=tuple(values)))


def test_a_diagonal_component_of_two_points_names_its_algebra():
    poset = enumerate_vn(carrier("X", 2), BOOL2)
    sheaf = build_presheaf(poset, "prime")
    d = poset.diagonal_index
    section = canonical_section("1", sheaf)
    decompositions = list(poset.decompositions)
    decompositions[d] = decompositions[d]._replace(supports=(("1", "2"), ("1", "2")))
    poset.__dict__["decompositions"] = tuple(decompositions)
    with pytest.raises(InvariantViolation,
                       match=rf"^diagonal component is not a single carrier point: "
                             rf"A{d} selects \('1', '2'\)$"):
        section_element(section, sheaf)


def test_a_foreign_idempotent_is_an_invariant_violation():
    # diag(1, 0) is no member of the trivial algebra {0, id}
    x2 = carrier("X", 2)
    poset = enumerate_vn(x2, BOOL2)
    t = poset.trivial_index
    decompositions = list(poset.decompositions)
    decompositions[t] = decompositions[t]._replace(
        idempotents=(diag_rel(BOOL2, x2, (BOOL2.unit, BOOL2.bottom)).entries,))
    poset.__dict__["decompositions"] = tuple(decompositions)
    sheaf = build_presheaf(poset, "prime")
    match = rf"A{t}: primitive idempotent \(\(1, 0\), \(0, 0\)\) is not a member"
    with pytest.raises(InvariantViolation, match=match):
        canonical_section("1", sheaf)
    with pytest.raises(InvariantViolation, match=match):
        section_element(global_sections(sheaf)[0], sheaf)


def test_a_prime_spectrum_without_the_canonical_point_is_an_invariant_violation():
    poset = enumerate_vn(carrier("X", 2), BOOL2)
    sheaf = build_presheaf(poset, "prime")
    d = poset.diagonal_index
    spectrum = sheaf.values[d]
    missing = spectrum.points[canonical_section("1", sheaf)[d]]
    values = list(sheaf.values)
    values[d] = spectrum._replace(
        points=tuple(p for p in spectrum.points if p != missing))
    with pytest.raises(InvariantViolation, match=rf"^A{d}: canonical section of '1'"):
        canonical_section("1", sheaf._replace(values=tuple(values)))


def breaking(sheaf, section, edge):
    """The sheaf with the table of one Hasse edge (i, j) no longer sending
    the section's value at j to its value at i."""
    i, j = edge
    row = list(sheaf.restrictions[edge])
    row[section[j]] = section[i] + 1
    return sheaf._replace(restrictions={**sheaf.restrictions, edge: row})


def test_an_unnatural_canonical_section_names_the_edge_and_point():
    sheaf = build_presheaf(enumerate_vn(carrier("X", 2), BOOL2), "prime")
    edge = list(sheaf.restrictions)[-1]
    broken = breaking(sheaf, canonical_section("2", sheaf), edge)
    assert unnatural_edge(canonical_section("2", sheaf), broken) == edge
    with pytest.raises(InvariantViolation,
                       match=rf"^canonical section failed the naturality check for carrier "
                             rf"point '2' at Hasse edge \({edge[0]}, {edge[1]}\)$"):
        canonical_section("2", broken)


# -- transports ----------------------------------------------------------------------


def test_transports_carry_sections_both_ways():
    x2 = carrier("X", 2)
    for q in (BOOL2, GODEL3):
        poset = enumerate_vn(x2, q)
        gelfand = build_presheaf(poset, "gelfand")
        prime = build_presheaf(poset, "prime")
        g_secs = global_sections(gelfand)
        p_secs = global_sections(prime)
        for s in p_secs:
            out = transport_prime_section(s, prime, gelfand)
            assert out in g_secs
        for s in g_secs:
            out = transport_gelfand_section(s, gelfand, prime)
            assert out in p_secs


def test_an_unnatural_transport_names_the_edge():
    poset = enumerate_vn(carrier("X", 2), BOOL2)
    gelfand, prime = build_presheaf(poset, "gelfand"), build_presheaf(poset, "prime")
    edge = list(poset.hasse)[-1]
    s = global_sections(prime)[0]
    out = transport_prime_section(s, prime, gelfand)
    with pytest.raises(InvariantViolation,
                       match=rf"^transported prime section is not natural at Hasse edge "
                             rf"\({edge[0]}, {edge[1]}\)$"):
        transport_prime_section(s, prime, breaking(gelfand, out, edge))
    with pytest.raises(InvariantViolation,
                       match=rf"^transported scalar section is not natural at Hasse edge "
                             rf"\({edge[0]}, {edge[1]}\)$"):
        transport_gelfand_section(out, gelfand, breaking(prime, s, edge))


# -- verdicts ---------------------------------------------------------------------------


def test_colliding_canonical_sections_name_both_points(monkeypatch):
    induced = contextuality.canonical_section
    monkeypatch.setattr(contextuality, "canonical_section",
                        lambda point, sheaf: induced("1", sheaf))
    with pytest.raises(InvariantViolation,
                       match=r"^carrier points induced colliding sections: '1' and '2'$"):
        ks_verdict(carrier("X", 2), BOOL2)


def test_verdicts_zdf_quantales():
    for q, sizes in ((BOOL2, (1, 2, 3)), (GODEL3, (1, 2))):
        for n in sizes:
            x = carrier("X", n)
            mode = "generated" if (q is BOOL2 and n == 3) else "exhaustive"
            v = ks_verdict(x, q, mode=mode)
            assert not v.contextual
            assert v.prime_sections, "prime route found no sections"
            assert len(v.canonical_by_point) == n
            assert len(set(v.canonical_by_point.values())) == n
            for p, s in v.canonical_by_point.items():
                assert v.element_map[s] == p
            for s in v.prime_sections:
                assert v.element_map[s] in x.elements


def test_canonical_section_requires_zdf_scalars():
    from qspec.quantale import ZdfRequiredError
    x1 = carrier("X", 1)
    poset = enumerate_vn(x1, LUK3)
    sheaf = build_presheaf(poset, "prime")
    with pytest.raises(ZdfRequiredError):
        canonical_section("1", sheaf)


def test_verdict_non_zdf_flagged():
    v = ks_verdict(carrier("X", 1), LUK3)
    assert v.prime_sections is None
    assert v.notes
    assert not v.contextual
    assert len(v.gelfand_sections) == 2


def test_verdict_json_shape():
    v = ks_verdict(carrier("X", 2), BOOL2)
    js = v.to_json()
    assert js["contextual"] is False
    assert js["section_count"] == len(js["sections"])
    assert js["hypotheses_met"] is True
    assert set(js["canonical_sections"]) == {"1", "2"}


def test_verdict_rejects_broken_quantale():
    import qspec.quantale as qu
    doc = qu.quantale_to_doc(GODEL3)
    doc["join"][1][1] = "1"
    broken = qu.load_quantale(doc)
    with pytest.raises(ValueError, match="not a quantale"):
        ks_verdict(carrier("X", 1), broken)
