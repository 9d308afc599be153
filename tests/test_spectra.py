"""Characters, prime ideals, restriction, and the kernel/indicator maps.

A point is its tuple of values over the algebra's members.  A prime point is
the character into the two-element quantale TWO that is 0 exactly on its
ideal, so its ideal is read as ``SpectrumSet.kernel_members``."""

import itertools

import pytest

from oracles import is_hom
from qspec._homsearch import enumerate_homs
from qspec.quantale import builtin_quantale, load_quantale
from qspec.relations import (
    QRel, add, carrier, compose, dagger, identity_rel, scalar_mul, zero_rel,
    _e_compose, _e_dagger, _e_join, _e_scalar,
)
from qspec.spectra import (
    TWO, SpectrumSet, character_from_prime, character_kernel,
    characters_to_two, gelfand_spectrum, prime_ideal_scan, prime_spectrum,
    restrict_character, restrict_prime,
)
from qspec.subalgebra import diagonal_algebra, enumerate_vn, trivial_algebra

BOOL2 = builtin_quantale("boolean2")
GODEL3 = builtin_quantale("godel_chain", 3)
LUK3 = builtin_quantale("lukasiewicz_chain", 3)
X2 = carrier("X", 2)
# boolean2 listed top first, so its bottom is index 1, not 0
BOOL2_TOP_FIRST = load_quantale({
    "name": "boolean2-top-first",
    "elements": ["1", "0"],
    "join": [["1", "1"], ["1", "0"]],
    "mul": [["1", "0"], ["0", "0"]],
    "unit": "1",
})


def ideal(algebra, point):
    """The members a prime point of algebra, or any character into TWO,
    sends to 0."""
    return SpectrumSet(algebra, "prime", ()).kernel_members(point)


# -- independent oracles ---------------------------------------------------------


def is_character(algebra, target, values):
    """Full homomorphism validation for one value table, including the derived
    scalar compatibility value(s * m) = value(s * id) . value(m)."""
    sr = algebra.semiring()
    if not is_hom(sr, target.semiring(), values):
        return False
    q = algebra.quantale
    pos = algebra.member_pos
    for s in range(q.size):
        scaled_unit = values[pos[_e_scalar(q, s, algebra.members[sr.one])]]
        for i, m in enumerate(algebra.members):
            if values[pos[_e_scalar(q, s, m)]] != target.mul(scaled_unit, values[i]):
                return False
    return True


def is_prime_kstar_ideal(algebra, members):
    """Direct validation of one subset against the prime k*-ideal conditions."""
    q, x = algebra.quantale, algebra.carrier
    s = frozenset(members)
    if not s <= algebra.member_set or zero_rel(q, x, x).entries not in s:
        return False
    if identity_rel(q, x).entries in s:
        return False
    for a in s:
        if _e_dagger(q, a) not in s:
            return False
        for b in s:
            if _e_join(q, a, b) not in s:
                return False
        for b in algebra.members:
            if _e_compose(q, a, b) not in s:
                return False
            joined = _e_join(q, a, b)
            if joined in s and b not in s:
                return False
    for a, b in itertools.combinations_with_replacement(algebra.members, 2):
        if _e_compose(q, a, b) in s and a not in s and b not in s:
            return False
    return True


def oracle_characters(a, target):
    """Filter every value table directly against the homomorphism conditions."""
    q = a.quantale
    rels = {m: QRel(q, a.carrier, a.carrier, m) for m in a.members}
    zero = zero_rel(q, a.carrier, a.carrier).entries
    ident = identity_rel(q, a.carrier).entries
    out = []
    for values in itertools.product(range(target.size), repeat=a.size):
        val = dict(zip(a.members, values))
        if val[zero] != target.bottom or val[ident] != target.unit:
            continue
        ok = True
        for m in a.members:
            if val[dagger(rels[m]).entries] != target.inv(val[m]):
                ok = False
                break
            for n in a.members:
                if val[add(rels[m], rels[n]).entries] != target.join(val[m], val[n]):
                    ok = False
                    break
                if val[compose(rels[m], rels[n]).entries] != target.mul(val[m], val[n]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(values)
    return sorted(out)


def oracle_prime_ideals(a):
    """Subset scan with the prime k*-ideal conditions written out directly."""
    q = a.quantale
    rels = {m: QRel(q, a.carrier, a.carrier, m) for m in a.members}
    zero = zero_rel(q, a.carrier, a.carrier).entries
    ident = identity_rel(q, a.carrier).entries
    rest = [m for m in a.members if m != zero]
    out = []
    for bits in range(1 << len(rest)):
        sub = {zero} | {rest[i] for i in range(len(rest)) if bits >> i & 1}
        if ident in sub:
            continue
        ok = True
        for m in sub:
            if dagger(rels[m]).entries not in sub:
                ok = False
                break
            for n in sub:
                if add(rels[m], rels[n]).entries not in sub:
                    ok = False
                    break
            if not ok:
                break
            for n in a.members:
                if compose(rels[m], rels[n]).entries not in sub:
                    ok = False
                    break
                if add(rels[m], rels[n]).entries in sub and n not in sub:
                    ok = False  # the cancellation property
                    break
            if not ok:
                break
        if ok:
            for m, n in itertools.combinations_with_replacement(a.members, 2):
                if compose(rels[m], rels[n]).entries in sub and m not in sub and n not in sub:
                    ok = False
                    break
        if ok:
            out.append(tuple(sorted(sub)))
    return sorted(out)


def diag(q, p, r):
    return ((q.index(p), q.bottom), (q.bottom, q.index(r)))


# -- character enumeration -------------------------------------------------------


def test_gelfand_trivial_boolean():
    spec = gelfand_spectrum(trivial_algebra(X2, BOOL2))
    assert spec.size == 1
    assert spec.points[0] == (0, 1)


def test_gelfand_diagonal_boolean():
    spec = gelfand_spectrum(diagonal_algebra(X2, BOOL2))
    assert spec.size == 2


def test_gelfand_diagonal_godel_has_six_characters():
    d = diagonal_algebra(X2, GODEL3)
    spec = gelfand_spectrum(d)
    assert list(spec.points) == oracle_characters(d, GODEL3)
    assert spec.size == 6
    # the six tables: the three chain endomorphisms applied to either slot
    a_of = {m: (m[0][0], m[1][1]) for m in d.members}
    drop = {0: 0, 1: 0, 2: 2}
    keep = {0: 0, 1: 1, 2: 2}
    lift = {0: 0, 1: 2, 2: 2}
    expected = set()
    for endo in (drop, keep, lift):
        expected.add(tuple(endo[a_of[m][0]] for m in d.members))
        expected.add(tuple(endo[a_of[m][1]] for m in d.members))
    assert set(spec.points) == expected


def test_character_enumeration_matches_oracle_on_small_algebras():
    # the product filter is exponential in the member count, so the oracle
    # comparison runs where it is exhaustive yet affordable
    for q, cap in ((BOOL2, 16), (GODEL3, 9)):
        for a in enumerate_vn(X2, q).algebras:
            if a.size > cap:
                continue
            spec = gelfand_spectrum(a)
            assert list(spec.points) == oracle_characters(a, q)


def test_characters_respect_scalar_action():
    d = diagonal_algebra(X2, GODEL3)
    pos = d.member_pos
    for rho in gelfand_spectrum(d).points:
        for s in range(GODEL3.size):
            scaled_unit = rho[pos[scalar_mul(s, identity_rel(GODEL3, X2)).entries]]
            for m in d.members:
                scaled = scalar_mul(s, QRel(GODEL3, X2, X2, m)).entries
                assert rho[pos[scaled]] == GODEL3.mul(scaled_unit, rho[pos[m]])


def test_is_character_validation():
    d = diagonal_algebra(X2, BOOL2)
    good = gelfand_spectrum(d).points[0]
    assert is_character(d, BOOL2, good)
    assert not is_character(d, BOOL2, tuple(1 - v for v in good))


# -- prime ideals ------------------------------------------------------------------


def test_prime_spectrum_trivial_boolean():
    spec = prime_spectrum(gelfand_spectrum(trivial_algebra(X2, BOOL2)))
    assert spec.size == 1
    assert spec.kernel_members(spec.points[0]) == (zero_rel(BOOL2, X2, X2).entries,)


def test_prime_spectrum_diagonal_godel_has_four_ideals():
    d = diagonal_algebra(X2, GODEL3)
    spec = prime_spectrum(gelfand_spectrum(d))
    assert sorted(map(spec.kernel_members, spec.points)) == oracle_prime_ideals(d)
    assert spec.size == 4
    expected = [
        {diag(GODEL3, p, "0") for p in ("0", "a", "1")},
        {diag(GODEL3, p, r) for p in ("0", "a", "1") for r in ("0", "a")},
        {diag(GODEL3, "0", r) for r in ("0", "a", "1")},
        {diag(GODEL3, p, r) for p in ("0", "a") for r in ("0", "a", "1")},
    ]
    got = [set(spec.kernel_members(p)) for p in spec.points]
    for want in expected:
        assert want in got


def test_prime_spectrum_matches_oracle_on_small_algebras():
    for q, cap in ((BOOL2, 16), (GODEL3, 11)):
        for a in enumerate_vn(X2, q).algebras:
            if a.size > cap:
                continue
            spec = prime_spectrum(gelfand_spectrum(a))
            assert sorted(map(spec.kernel_members, spec.points)) == oracle_prime_ideals(a)


def down_sets(sr):
    """Every down-set of a semiring's order, as a frozenset of positions,
    built along a linear extension: a position joins each set already
    holding everything strictly below it."""
    below = [frozenset(i for i in range(sr.size) if sr.add[i][j] == j)
             for j in range(sr.size)]
    out = [frozenset()]
    for j in sorted(range(sr.size), key=lambda j: len(below[j])):
        out += [s | {j} for s in out if below[j] - {j} <= s]
    return out


@pytest.mark.parametrize("q", [GODEL3, LUK3, builtin_quantale("powerset", 2)],
                         ids=lambda q: q.name)
def test_the_one_prime_closed_down_set_holding_the_unit_is_the_whole_algebra(q):
    # the spectrum report's improper_prime_closed key lists the whole algebra
    # on this fact; every down-set is tried, not only the principal ones, and
    # those without the unit are the prime spectrum
    for a in enumerate_vn(X2, q).algebras:
        sr = a.semiring()
        n, add, mul = sr.size, sr.add, sr.mul
        closed = [
            s for s in down_sets(sr)
            if sr.zero in s
            and all(add[x][y] in s for x in s for y in s)
            and all(mul[x][m] in s for x in s for m in range(n))
            and all(sr.star[x] in s for x in s)
            and all(x in s or y in s for x in range(n) for y in range(n)
                    if mul[x][y] in s)]
        assert [s for s in closed if sr.one in s] == [frozenset(range(n))]
        assert sorted(sorted(s) for s in closed if sr.one not in s) == sorted(
            [k for k, v in enumerate(p) if v == TWO.bottom]
            for p in prime_spectrum(gelfand_spectrum(a)).points)


@pytest.mark.parametrize("q", [LUK3, builtin_quantale("powerset", 2),
                               builtin_quantale("godel_chain", 4), BOOL2_TOP_FIRST],
                         ids=lambda q: q.name)
def test_prime_points_are_the_homomorphisms_into_two(q):
    # lukasiewicz3 and powerset2 have zero divisors; the search into TWO runs
    # here directly on the semiring tables.  boolean2-top-first has its
    # bottom at index 1 and its unit at index 0, so the prime points read
    # the Gelfand values by what they are, not by their indices
    for a in enumerate_vn(X2, q).algebras:
        spec = prime_spectrum(gelfand_spectrum(a))
        assert list(spec.points) == \
            sorted(enumerate_homs(a.semiring(), TWO.semiring()), reverse=True)
        assert spec.target == TWO
        assert all(is_prime_kstar_ideal(a, spec.kernel_members(p)) for p in spec.points)


def test_is_prime_kstar_ideal_validation():
    d = diagonal_algebra(X2, GODEL3)
    for p in prime_spectrum(gelfand_spectrum(d)).points:
        assert is_prime_kstar_ideal(d, ideal(d, p))
    assert not is_prime_kstar_ideal(d, d.members)
    assert not is_prime_kstar_ideal(d, (zero_rel(GODEL3, X2, X2).entries,))


# -- two-valued characters and the kernel bijection ------------------------------------


def scan_kernels(a):
    """The prime k*-ideals of the down-set scan, which shares no code with
    the character search, each as its sorted members."""
    return sorted(tuple(m for m, v in zip(a.members, values) if v == TWO.bottom)
                  for values in prime_ideal_scan(a))


def test_characters_to_two_diagonal_godel():
    d = diagonal_algebra(X2, GODEL3)
    gammas = characters_to_two(d)
    assert len(gammas) == 4
    kernels = sorted(ideal(d, character_kernel(g, d, TWO)) for g in gammas)
    assert kernels == scan_kernels(d)
    assert sorted(gammas) == sorted(prime_ideal_scan(d))


@pytest.mark.parametrize("q", [LUK3, builtin_quantale("powerset", 2)], ids=lambda q: q.name)
def test_characters_to_two_equal_the_scan_over_zero_divisors(q):
    for a in enumerate_vn(X2, q).algebras:
        assert characters_to_two(a) == sorted(prime_ideal_scan(a))


def test_kernel_bijection_everywhere():
    godel4 = builtin_quantale("godel_chain", 4)
    for q in (BOOL2, GODEL3, godel4, BOOL2_TOP_FIRST):
        for a in enumerate_vn(X2, q).algebras:
            gammas = characters_to_two(a)
            kernels = [ideal(a, character_kernel(g, a, TWO)) for g in gammas]
            assert len(set(kernels)) == len(gammas)
            assert sorted(kernels) == scan_kernels(a)
            assert sorted(gammas) == sorted(prime_ideal_scan(a))
            gel = gelfand_spectrum(a)
            for rho in gel.points:
                assert ideal(a, character_kernel(rho, a, q)) == gel.kernel_members(rho)


def test_exactly_one_primitive_idempotent_maps_to_one():
    from qspec.subalgebra import primitive_idempotents
    for q in (BOOL2, GODEL3):
        for a in enumerate_vn(X2, q).algebras:
            dec = primitive_idempotents(a)
            for gamma in characters_to_two(a):
                hits = [e for e in dec.idempotents if gamma[a.member_pos[e]] == 1]
                assert len(hits) == 1


def test_component_complements_are_prime_ideals():
    from qspec.subalgebra import primitive_idempotents
    for q in (BOOL2, GODEL3):
        for a in enumerate_vn(X2, q).algebras:
            dec = primitive_idempotents(a)
            spec = prime_spectrum(gelfand_spectrum(a))
            prime_members = set(map(spec.kernel_members, spec.points))
            for e in dec.idempotents:
                complement = tuple(sorted(
                    m for m in a.members
                    if compose(QRel(q, a.carrier, a.carrier, e),
                               QRel(q, a.carrier, a.carrier, m))
                    == zero_rel(q, a.carrier, a.carrier)))
                assert complement in prime_members


# -- restriction --------------------------------------------------------------------


def test_restriction_along_identity():
    d = diagonal_algebra(X2, GODEL3)
    for rho in gelfand_spectrum(d).points:
        assert restrict_character(rho, d, d) == rho
    for p in prime_spectrum(gelfand_spectrum(d)).points:
        assert restrict_prime(p, d, d) == p


def test_restrict_diagonal_character_to_trivial():
    d = diagonal_algebra(X2, GODEL3)
    t = trivial_algebra(X2, GODEL3)
    down = {restrict_character(rho, d, t) for rho in gelfand_spectrum(d).points}
    # restrictions of the slot characters are exactly the three chain endomorphisms
    assert down == {(0, 0, 2), (0, 1, 2), (0, 2, 2)}
    for rho in gelfand_spectrum(d).points:
        assert is_character(t, GODEL3, restrict_character(rho, d, t))
    for p in prime_spectrum(gelfand_spectrum(d)).points:
        assert is_prime_kstar_ideal(t, ideal(t, restrict_prime(p, d, t)))


def test_restriction_functor_law_on_a_chain():
    poset = enumerate_vn(X2, BOOL2)
    algebras = poset.algebras
    proper = [(i, j) for i, j in poset.leq_pairs if i != j]
    chains = [(i, j, k) for (i, j) in proper for (j2, k) in proper
              if j == j2 and (i, k) in poset.leq_pairs]
    assert chains, "expected at least one three-object chain"
    for (i, j, k) in chains:
        a_i, a_j, a_k = algebras[i], algebras[j], algebras[k]
        for rho in gelfand_spectrum(a_k).points:
            two_step = restrict_character(restrict_character(rho, a_k, a_j), a_j, a_i)
            assert two_step == restrict_character(rho, a_k, a_i)
        for p in prime_spectrum(gelfand_spectrum(a_k)).points:
            two_step = restrict_prime(restrict_prime(p, a_k, a_j), a_j, a_i)
            assert two_step == restrict_prime(p, a_k, a_i)


# -- the comparison maps ----------------------------------------------------------------


def test_kernel_of_indicator_recovers_the_ideal():
    for q in (BOOL2, GODEL3):
        for a in enumerate_vn(X2, q).algebras:
            for p in prime_spectrum(gelfand_spectrum(a)).points:
                rho = character_from_prime(p, a)
                assert is_character(a, q, rho)
                assert character_kernel(rho, a, q) == p


def test_the_indicator_of_a_prime_point_needs_no_zdf_scalars():
    # two_embedding is a quantale map into any scalars, zero divisors or not
    for a in enumerate_vn(X2, LUK3).algebras:
        for p in prime_spectrum(gelfand_spectrum(a)).points:
            rho = character_from_prime(p, a)
            assert is_character(a, LUK3, rho)
            assert SpectrumSet(a, "gelfand", ()).kernel_members(rho) == ideal(a, p)


def test_embedding_two_valued_characters_preserves_kernels():
    for q in (BOOL2, GODEL3):
        for a in enumerate_vn(X2, q).algebras:
            for gamma in characters_to_two(a):
                rho = character_from_prime(gamma, a)
                assert is_character(a, q, rho)
                assert character_kernel(rho, a, q) == gamma


def test_kernel_values_on_the_six_diagonal_characters():
    d = diagonal_algebra(X2, GODEL3)
    spec = gelfand_spectrum(d)
    k1 = tuple(sorted(diag(GODEL3, "0", r) for r in ("0", "a", "1")))
    k2 = tuple(sorted(diag(GODEL3, p, r) for p in ("0", "a") for r in ("0", "a", "1")))
    # characters reading the first slot through "keep" and "lift" share a kernel
    lift_first, keep_first, drop_first = (
        (0, 0, 0, 2, 2, 2, 2, 2, 2), (0, 0, 0, 1, 1, 1, 2, 2, 2), (0, 0, 0, 0, 0, 0, 2, 2, 2))
    assert {lift_first, keep_first, drop_first} <= set(spec.points)
    assert ideal(d, character_kernel(lift_first, d, GODEL3)) == k1
    assert ideal(d, character_kernel(keep_first, d, GODEL3)) == k1
    assert ideal(d, character_kernel(drop_first, d, GODEL3)) == k2


def test_comparison_naturality_over_the_boolean_poset():
    poset = enumerate_vn(X2, BOOL2)
    algebras = poset.algebras
    for (i, j) in poset.leq_pairs:
        sub, sup = algebras[i], algebras[j]
        for rho in gelfand_spectrum(sup).points:
            assert character_kernel(restrict_character(rho, sup, sub), sub, BOOL2) == \
                restrict_prime(character_kernel(rho, sup, BOOL2), sup, sub)
        for p in prime_spectrum(gelfand_spectrum(sup)).points:
            assert restrict_character(character_from_prime(p, sup), sup, sub) == \
                character_from_prime(restrict_prime(p, sup, sub), sub)


def test_two_element_scalars_make_the_spectra_coincide():
    for a in enumerate_vn(X2, BOOL2).algebras:
        gel = gelfand_spectrum(a)
        pri = prime_spectrum(gel)
        kernels = {character_kernel(rho, a, BOOL2) for rho in gel.points}
        assert len(kernels) == gel.size == pri.size
