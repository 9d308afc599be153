"""Presheaves over the algebra poset, global sections, and the verdict."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qspec import csp
from qspec.quantale import builtin_quantale, parse_quantale_tag
from qspec.relations import carrier, subset_idempotent
from qspec.contextuality import (
    Presheaf, Section, build_presheaf, canonical_section, global_sections,
    is_natural, ks_verdict, section_element, transport_gelfand_section,
    transport_prime_section,
)
from qspec.spectra import SpectrumSet, restrict_point
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


def oracle_sections(sheaf):
    """Every global section by the generic route: AC-3 plus lexicographic
    backtracking over the naturality constraint of every table."""
    domains = [list(range(v.size)) for v in sheaf.values]
    constraints = {(i, j): {(table[pj], pj) for pj in range(len(table))}
                   for (i, j), table in sheaf.restrictions.items()}
    return [Section(choice)
            for choice in csp.solve_all(len(sheaf.values), domains, constraints)]


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
        assert [s.choice for s in secs] == [(i,) for i in range(expected)]


def test_presheaf_tables_match_pointwise_restriction():
    x2 = carrier("X", 2)
    for q, kind in ((BOOL2, "prime"), (GODEL3, "gelfand")):
        poset = enumerate_vn(x2, q)
        sheaf = build_presheaf(poset, kind)
        for (i, j), table in sheaf.restrictions.items():
            sub = poset.algebras[i]
            for pj, point in enumerate(sheaf.values[j].points):
                assert sheaf.values[i].points[table[pj]] == restrict_point(point, sub)


@pytest.mark.parametrize("tag,size", ORACLE_CONFIGS)
def test_every_table_cell_is_the_index_of_the_restricted_point(tag, size):
    poset = oracle_poset(tag, size)
    for kind in ("gelfand", "prime"):
        sheaf = build_presheaf(poset, kind)
        assert sorted(sheaf.restrictions) == poset.inclusions()
        for (i, j), table in sheaf.restrictions.items():
            sub = poset.algebras[i]
            assert len(table) == sheaf.values[j].size
            for pj, point in enumerate(sheaf.values[j].points):
                assert table[pj] == sheaf.values[i].index_of(restrict_point(point, sub))


@pytest.mark.parametrize("tag,size", ORACLE_CONFIGS)
def test_sections_equal_the_csp_oracle_in_order(tag, size):
    poset = oracle_poset(tag, size)
    for kind in ("gelfand", "prime"):
        sheaf = build_presheaf(poset, kind)
        assert global_sections(sheaf) == oracle_sections(sheaf)


# A hand-built poset: algebra a is the coordinate set COORDS[a], ordered by
# inclusion; algebra 5 is below and above nothing.  A point is a value tuple
# on the coordinates and restricts by projection, which is functorial.
COORDS = ((0,), (0, 1), (0, 2), (0, 1, 2), (0, 2, 3), (4,))
LEQ = [(i, j) for i, j in itertools.permutations(range(len(COORDS)), 2)
       if set(COORDS[i]) <= set(COORDS[j])]


@st.composite
def projection_presheaves(draw):
    """Random point sets, closed downward under projection, and their
    restriction tables; some draws then overwrite cells, which breaks the
    functor laws."""
    points = [draw(st.sets(st.tuples(*[st.integers(0, 2)] * len(c)),
                           min_size=1, max_size=4))
              for c in COORDS]
    for i, j in sorted(LEQ, key=lambda e: -len(COORDS[e[1]])):
        keep = [COORDS[j].index(c) for c in COORDS[i]]
        points[i] |= {tuple(p[k] for k in keep) for p in points[j]}
    points = [sorted(p) for p in points]
    tables = {}
    for i, j in LEQ:
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
    parents = [j for (s, j) in poset.inclusions() if s == i][:2]
    assert len(parents) == 2
    bad[(i, parents[0])] = tuple(0 for _ in bad[(i, parents[0])])
    bad[(i, parents[1])] = tuple(1 for _ in bad[(i, parents[1])])
    broken = Presheaf(poset, "gelfand", sheaf.values, bad)
    assert global_sections(broken) == []


# -- canonical sections ------------------------------------------------------------


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
    chosen = sheaf.values[d_idx].points[s.choice[d_idx]]
    q = BOOL2
    # the ideal must kill everything supported at "1": zero and the idempotent at "2"
    labels = {"".join(str(v) for row in m for v in row) for m in chosen.members}
    assert labels == {"0000", "0001"}
    t_idx = poset.trivial_index
    chosen_t = sheaf.values[t_idx].points[s.choice[t_idx]]
    assert {m for m in chosen_t.members} == {((0, 0), (0, 0))}
    assert is_natural(s, sheaf)


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
    import dataclasses
    smaller = dataclasses.replace(
        poset, algebras=pruned_algebras,
        leq_pairs=frozenset((i, j) for (i, j) in [] ), hasse=())
    small_sheaf = build_presheaf(smaller, "prime")
    with pytest.raises(ValueError, match="diagonal"):
        section_element(Section(tuple(0 for _ in pruned_algebras)), small_sheaf)


def test_section_element_rejects_components_without_a_common_point():
    # Two points are only told apart by the diagonal algebra at |X| = 2, so a
    # disagreement needs a second splitting algebra: {1} + {2,3} below the
    # diagonal on three points.
    x3 = carrier("X", 3)
    split = close(x3, [subset_idempotent(BOOL2, x3, pts) for pts in (["1"], ["2", "3"])])
    poset = AlgebraPoset(BOOL2, x3, (split, diagonal_algebra(x3, BOOL2)), "exhaustive",
                         None, True, frozenset({(0, 0), (1, 1), (0, 1)}), ((0, 1),))
    sheaf = build_presheaf(poset, "prime")
    at_1, at_2 = (canonical_section(p, sheaf) for p in ("1", "2"))
    assert section_element(at_2, sheaf) == "2"
    # The diagonal now picks {1} while the split algebra still picks {2,3}.
    spliced = Section((at_2.choice[0], at_1.choice[1]))
    with pytest.raises(InvariantViolation, match="do not share the point"):
        section_element(spliced, sheaf)


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
            assert out.choice in {g.choice for g in g_secs}
        for s in g_secs:
            out = transport_gelfand_section(s, gelfand, prime)
            assert out.choice in {p.choice for p in p_secs}


# -- verdicts ---------------------------------------------------------------------------


def test_verdicts_zdf_quantales():
    for q, sizes in ((BOOL2, (1, 2, 3)), (GODEL3, (1, 2))):
        for n in sizes:
            x = carrier("X", n)
            mode = "generated" if (q is BOOL2 and n == 3) else "exhaustive"
            v = ks_verdict(x, q, mode=mode)
            assert not v.contextual
            assert v.prime_sections, "prime route found no sections"
            assert len(v.canonical_by_point) == n
            assert len({s.choice for s in v.canonical_by_point.values()}) == n
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
    with pytest.raises(ValueError, match="axioms"):
        ks_verdict(carrier("X", 1), broken)
