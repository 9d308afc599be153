"""Spectral topologies: closed-set families, separation, quotients, continuity."""

import itertools
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from qspec import cli
from qspec.quantale import ZdfRequiredError, builtin_quantale, parse_quantale_tag
from qspec.relations import _e_compose, _e_join, carrier, zero_rel
from qspec.spectra import (
    character_kernel, gelfand_spectrum, kernel_table, prime_spectrum, restriction_table,
)
from qspec.subalgebra import diagonal_algebra, enumerate_vn, trivial_algebra
from qspec.zariski import (
    MAX_IDEAL_SCAN_MEMBERS, FiniteTopology, all_ideals, check_continuity, closed_family_from_basis,
    is_homeomorphism, kolmogorov_quotient, separation_report,
    vanishing_set, vanishing_set_of_ideal,
    verify_quotient_xi, zariski_quotient, zariski_topology,
)

BOOL2 = builtin_quantale("boolean2")
GODEL3 = builtin_quantale("godel_chain", 3)
LUK3 = builtin_quantale("lukasiewicz_chain", 3)
X2 = carrier("X", 2)


# -- oracles: the closed-set family by fixpoint and the definitions on it -------


def oracle_closed_family(points, basis):
    """Close a basis of closed sets under pairwise unions and intersections
    until nothing changes."""
    family = {frozenset(b) for b in basis}
    family.add(frozenset())
    family.add(frozenset(points))
    while True:
        fresh = set()
        for a, b in itertools.combinations(family, 2):
            for c in (a | b, a & b):
                if c not in family:
                    fresh.add(c)
        if not fresh:
            return frozenset(family)
        family |= fresh


def oracle_signature(points, family):
    closed = sorted(family, key=lambda c: (len(c), sorted(c)))
    return {p: tuple(p in c for c in closed) for p in points}


def oracle_kolmogorov(points, family):
    """Classes of equal closed-set signature in order of first appearance, and
    every subset of classes whose preimage is closed."""
    signature = oracle_signature(points, family)
    reps = []
    mapping = []
    for p in points:
        cls = next((i for i, r in enumerate(reps) if signature[r] == signature[p]), None)
        if cls is None:
            cls = len(reps)
            reps.append(p)
        mapping.append(cls)
    closed = set()
    for bits in range(1 << len(reps)):
        subset = frozenset(i for i in range(len(reps)) if bits >> i & 1)
        if frozenset(p for p in points if mapping[p] in subset) in family:
            closed.add(subset)
    return frozenset(closed), tuple(mapping)


def oracle_all_ideals(algebra):
    """Every subset containing zero that is join-closed and absorbs
    multiplication, by scanning all subsets."""
    q = algebra.quantale
    zero = zero_rel(q, algebra.carrier, algebra.carrier).entries
    rest = [m for m in algebra.members if m != zero]
    out = []
    for bits in range(1 << len(rest)):
        sub = {zero} | {rest[i] for i in range(len(rest)) if bits >> i & 1}
        if all(_e_join(q, a, b) in sub for a in sub for b in sub) and \
                all(_e_compose(q, a, b) in sub for a in sub for b in algebra.members):
            out.append(tuple(sorted(sub)))
    return sorted(out)


ORACLE_SPACES = [  # every algebra's two spectra: 1524 spaces
    (builtin_quantale("godel_chain", 3), 2),
    (LUK3, 2),
    (builtin_quantale("powerset", 2), 2),
    (builtin_quantale("godel_chain", 4), 2),
    (BOOL2, 3),
]


def test_closed_sets_equal_the_fixpoint_closure_on_every_spectrum():
    spaces = 0
    for q, size in ORACLE_SPACES:
        poset = enumerate_vn(carrier("X", size), q)
        for kind in ("gelfand", "prime"):
            for a, spec in zip(poset.algebras, poset.spectra(kind)):
                basis = [vanishing_set(spec, k) for k in range(a.size)]
                assert zariski_topology(spec).closed_sets == \
                    oracle_closed_family(range(spec.size), basis), (q.name, kind, a)
                spaces += 1
    assert spaces == 1524


bases = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sets(st.integers(0, n - 1)), max_size=5)))


@settings(max_examples=200, deadline=None)
@given(bases)
def test_preorder_operations_match_the_closed_set_definitions(case):
    n, basis = case
    points = tuple(range(n))
    t = closed_family_from_basis(n, basis)
    family = oracle_closed_family(points, basis)
    assert t.closed_sets == family
    signature = oracle_signature(points, family)
    rep = separation_report(t)
    indist = tuple((a, b) for a, b in itertools.combinations(points, 2)
                   if signature[a] == signature[b])
    assert rep.indistinguishable_pairs == indist and rep.t0 == (not indist)
    assert rep.t1 == all(frozenset((p,)) in family for p in points)
    quotient, mapping = kolmogorov_quotient(t)
    assert (quotient.closed_sets, mapping) == oracle_kolmogorov(points, family)
    for perm in itertools.islice(itertools.permutations(points), 6):
        image = frozenset(frozenset(perm[p] for p in c) for c in family)
        assert is_homeomorphism(t, t, perm) == (image == family)
    assert is_homeomorphism(t, t, (0,) * n) == (n == 1)


def test_all_ideals_equal_the_subset_scan():
    checked = 0
    for q, size in ORACLE_SPACES:
        if size > 2:  # the scan takes seconds on the 8-member algebras
            continue
        for a in enumerate_vn(carrier("X", size), q).algebras:
            if a.size <= 9:  # as in the principal-basis-oracle check
                assert as_members(a, all_ideals(a)) == oracle_all_ideals(a), (q.name, a)
                checked += 1
    assert checked == 79


def as_members(algebra, ideals):
    """Ideals of member positions as tuples of the members' entry matrices."""
    return [tuple(map(algebra.members.__getitem__, ideal)) for ideal in ideals]


def oracle_ideal_closure(algebra):
    """The ideal closure of all_ideals on entry matrices: {0} joined with one
    principal ideal m.A at a time."""
    q = algebra.quantale
    members = algebra.members
    family = {frozenset({zero_rel(q, algebra.carrier, algebra.carrier).entries})}
    for m in members:
        principal = {_e_compose(q, m, a) for a in members}
        family |= {frozenset(_e_join(q, i, j) for i in ideal for j in principal)
                   for ideal in family}
    return sorted(tuple(sorted(ideal)) for ideal in family)


# (quantale tag, |X|, mode): the section-search oracle configs of
# test_contextuality plus boolean2 |X|=3 in generated mode
ORACLE_POSETS = [("boolean2", 2, "exhaustive"), ("godel3", 2, "exhaustive"),
                 ("godel4", 2, "exhaustive"), ("lukasiewicz3", 2, "exhaustive"),
                 ("lukasiewicz4", 2, "exhaustive"), ("powerset2", 2, "exhaustive"),
                 ("boolean2", 3, "exhaustive"), ("boolean2", 3, "generated")]


@pytest.mark.parametrize("tag, size, mode", ORACLE_POSETS)
def test_all_ideals_equal_the_entry_matrix_closure(tag, size, mode):
    algebras = enumerate_vn(carrier("X", size), parse_quantale_tag(tag), mode).algebras
    small = [a for a in algebras if a.size <= MAX_IDEAL_SCAN_MEMBERS]
    assert small
    for a in small:
        assert as_members(a, all_ideals(a)) == oracle_ideal_closure(a), (tag, a)
    for a in algebras:
        if a.size > MAX_IDEAL_SCAN_MEMBERS:
            with pytest.raises(ValueError, match="too large"):
                all_ideals(a)


def test_topology_is_built_once_per_spectrum():
    d = diagonal_algebra(X2, GODEL3)
    pri = prime_spectrum(gelfand_spectrum(d))
    assert zariski_topology(pri) is zariski_topology(pri)


def test_quotient_is_built_once_per_spectrum():
    gel = gelfand_spectrum(diagonal_algebra(X2, GODEL3))
    assert zariski_quotient(gel) is zariski_quotient(gel)
    assert zariski_quotient(gel) == kolmogorov_quotient(zariski_topology(gel))


def diag(q, p, r):
    return ((q.index(p), q.bottom), (q.bottom, q.index(r)))


def godel_diag_labels():
    d = diagonal_algebra(X2, GODEL3)
    pri = prime_spectrum(gelfand_spectrum(d))
    ideals = [pri.kernel_members(p) for p in pri.points]
    j1 = next(i for i, m in enumerate(ideals)
              if set(m) == {diag(GODEL3, x, "0") for x in "0a1"})
    j2 = next(i for i, m in enumerate(ideals)
              if len(m) == 6 and diag(GODEL3, "1", "a") in m)
    k1 = next(i for i, m in enumerate(ideals)
              if set(m) == {diag(GODEL3, "0", x) for x in "0a1"})
    k2 = next(i for i, m in enumerate(ideals)
              if len(m) == 6 and diag(GODEL3, "a", "1") in m)
    return d, pri, j1, j2, k1, k2


def test_trivial_algebra_prime_topology_is_the_point():
    t = zariski_topology(prime_spectrum(gelfand_spectrum(trivial_algebra(X2, BOOL2))))
    assert t.size == 1
    assert t.closed_sets == frozenset({frozenset(), frozenset({0})})


def test_godel_diagonal_prime_closed_sets():
    d, pri, j1, j2, k1, k2 = godel_diag_labels()
    t = zariski_topology(pri)
    closed = t.closed_sets
    # the vanishing sets of the two maximal ideals are singletons; the smaller
    # ideals capture their whole side of the spectrum
    assert frozenset({j1, j2}) in closed
    assert frozenset({k1, k2}) in closed
    assert frozenset({j2}) in closed
    assert frozenset({k2}) in closed
    # the down-closed side ideals cannot be cut out alone
    assert frozenset({j1}) not in closed
    assert frozenset({k1}) not in closed
    rep = separation_report(t)
    assert rep.t0 and not rep.t1


def test_godel_diagonal_gelfand_closed_sets_and_indistinguishability():
    d = diagonal_algebra(X2, GODEL3)
    gel = gelfand_spectrum(d)
    by_values = {c: i for i, c in enumerate(gel.points)}
    drop1 = by_values[(0, 0, 0, 0, 0, 0, 2, 2, 2)]
    keep1 = by_values[(0, 0, 0, 1, 1, 1, 2, 2, 2)]
    lift1 = by_values[(0, 0, 0, 2, 2, 2, 2, 2, 2)]
    drop2 = by_values[(0, 0, 2, 0, 0, 2, 0, 0, 2)]
    keep2 = by_values[(0, 1, 2, 0, 1, 2, 0, 1, 2)]
    lift2 = by_values[(0, 2, 2, 0, 2, 2, 0, 2, 2)]
    t = zariski_topology(gel)
    closed = t.closed_sets
    assert frozenset({drop1, keep1, lift1}) in closed
    assert frozenset({drop1}) in closed
    assert frozenset({drop2, keep2, lift2}) in closed
    assert frozenset({drop2}) in closed
    rep = separation_report(t)
    assert not rep.t0
    assert set(map(frozenset, rep.indistinguishable_pairs)) == {
        frozenset({keep1, lift1}), frozenset({keep2, lift2})}


def test_prime_side_t0_everywhere():
    # and compact, as every finite space is: no flag records that
    for q in (BOOL2, GODEL3):
        for a in enumerate_vn(X2, q).algebras:
            assert separation_report(zariski_topology(prime_spectrum(gelfand_spectrum(a)))).t0


def test_continuity_along_every_hasse_edge():
    for q in (BOOL2, GODEL3):
        poset = enumerate_vn(X2, q)
        for (i, j) in poset.hasse:
            for kind in ("prime", "gelfand"):
                spectra = poset.spectra(kind)
                assert check_continuity(spectra[i], spectra[j],
                                        poset.restrictions(kind)[i, j])


def test_identity_restriction_is_continuous():
    d = diagonal_algebra(X2, GODEL3)
    for spectrum in (prime_spectrum(gelfand_spectrum(d)), gelfand_spectrum(d)):
        assert check_continuity(spectrum, spectrum, restriction_table(spectrum, spectrum))


def test_kolmogorov_quotient_on_t0_space_is_isomorphic():
    d = diagonal_algebra(X2, GODEL3)
    t = zariski_topology(prime_spectrum(gelfand_spectrum(d)))
    quotient, mapping = kolmogorov_quotient(t)
    assert quotient.size == t.size
    assert sorted(mapping) == list(range(t.size))
    assert is_homeomorphism(t, quotient, mapping)


def test_kolmogorov_quotient_collapses_indiscrete_space():
    indiscrete = closed_family_from_basis(3, [])
    assert indiscrete == FiniteTopology((0b111, 0b111, 0b111))
    assert indiscrete.closed_sets == frozenset({frozenset(), frozenset({0, 1, 2})})
    quotient, mapping = kolmogorov_quotient(indiscrete)
    assert quotient.size == 1
    assert mapping == (0, 0, 0)


def test_kolmogorov_quotient_of_gelfand_diagonal():
    d = diagonal_algebra(X2, GODEL3)
    gel = gelfand_spectrum(d)
    pri = prime_spectrum(gelfand_spectrum(d))
    t = zariski_topology(gel)
    quotient, mapping = kolmogorov_quotient(t)
    assert quotient.size == 4
    assert separation_report(quotient).t0
    # the induced class -> kernel map is a well-defined homeomorphism onto the
    # prime space
    kernel_idx = [pri.index_of(character_kernel(rho, d, GODEL3)) for rho in gel.points]
    cls_to_prime = {}
    for g_idx, cls in enumerate(mapping):
        assert cls_to_prime.setdefault(cls, kernel_idx[g_idx]) == kernel_idx[g_idx]
    point_map = tuple(cls_to_prime[i] for i in range(quotient.size))
    assert is_homeomorphism(quotient, zariski_topology(pri), point_map)


def test_quotient_comparison_everywhere():
    for q in (BOOL2, GODEL3):
        for a in enumerate_vn(X2, q).algebras:
            gel = gelfand_spectrum(a)
            pri = prime_spectrum(gel)
            assert verify_quotient_xi(gel, pri, kernel_table(gel, pri))


def test_quotient_comparison_checks_fibers_and_closures():
    d = diagonal_algebra(X2, GODEL3)
    gel = gelfand_spectrum(d)
    pri = prime_spectrum(gel)
    kernel = kernel_table(gel, pri)
    assert verify_quotient_xi(gel, pri, kernel)

    def discrete(spectrum):
        spectrum.__dict__["_zariski"] = closed_family_from_basis(
            spectrum.size, [{p} for p in range(spectrum.size)])

    discrete(pri)  # the fibers are still the classes, the closures are not
    assert not verify_quotient_xi(gel, pri, kernel)
    discrete(gel)  # closures match now, but six classes map onto four points
    assert not verify_quotient_xi(gel, pri, kernel)


def test_a_kernel_table_that_splits_a_class_fails_the_quotient_comparison():
    d = diagonal_algebra(X2, GODEL3)
    gel = gelfand_spectrum(d)
    pri = prime_spectrum(gel)
    kernel = kernel_table(gel, pri)
    down = zariski_topology(gel).down
    a, b = next((a, b) for a, b in itertools.combinations(range(gel.size), 2)
                if down[a] == down[b])  # two indistinguishable characters
    split = array(kernel.typecode, kernel)
    split[b] = (kernel[a] + 1) % pri.size
    assert verify_quotient_xi(gel, pri, kernel)
    assert not verify_quotient_xi(gel, pri, split)


def test_a_restriction_cell_moved_out_of_its_closure_fails_continuity():
    # at godel3|2 every such move is still monotone: each space is one closed
    # point below points whose closure is everything
    poset = enumerate_vn(X2, parse_quantale_tag("godel4"))
    spectra, tables = poset.spectra("gelfand"), poset.restrictions("gelfand")

    def moves():  # each cell moved outside the closure of its image
        for (i, j), table in tables.items():
            sub_down = zariski_topology(spectra[i]).down
            for p, image in enumerate(table):
                for m in range(spectra[i].size):
                    if not sub_down[image] >> m & 1:
                        moved = array(table.typecode, table)
                        moved[p] = m
                        yield i, j, moved

    def monotone(i, j, table):  # the definition, point pair by point pair
        sub_down, sup_down = (zariski_topology(spectra[k]).down for k in (i, j))
        return all(sub_down[table[y]] >> table[x] & 1
                   for y, d in enumerate(sup_down) for x in range(len(table)) if d >> x & 1)

    i, j, moved = next(m for m in moves() if not monotone(*m))
    assert check_continuity(spectra[i], spectra[j], tables[i, j])
    assert not check_continuity(spectra[i], spectra[j], moved)


def test_quotient_comparison_requires_zdf():
    with pytest.raises(ZdfRequiredError):
        t = trivial_algebra(X2, LUK3)
        gel = gelfand_spectrum(t)
        pri = prime_spectrum(gel)
        verify_quotient_xi(gel, pri, kernel_table(gel, pri))


def test_principal_basis_equals_all_ideals_basis_on_small_algebras():
    for q in (BOOL2, GODEL3):
        for a in enumerate_vn(X2, q).algebras:
            if a.size > 9:
                continue
            gel = gelfand_spectrum(a)
            pri = prime_spectrum(gel)
            ideals = all_ideals(a)
            for kind, spec in (("prime", pri), ("gelfand", gel)):
                principal = zariski_topology(spec)
                oracle = closed_family_from_basis(
                    spec.size, [vanishing_set_of_ideal(spec, j) for j in ideals])
                assert principal.closed_sets == oracle.closed_sets


def test_topology_json():
    t = zariski_topology(prime_spectrum(gelfand_spectrum(trivial_algebra(X2, BOOL2))))
    js = cli._topology_json(t)
    assert js == {"points": ["0"], "closed_sets": [[], ["0"]]}
