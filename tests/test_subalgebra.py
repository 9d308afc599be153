"""Closure, commutants, von Neumann enumeration, and the idempotent split."""

import functools
import hashlib
import itertools
import random
import re
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    SWAP_DOC, all_relations, from_rels, generated_walk_unions, inclusion_order,
    maximal_cliques, subset_idempotent, support,
)
from qspec import cli, subalgebra
from qspec.checks import subset_joins
from qspec.quantale import (
    Quantale, ZdfRequiredError, builtin_quantale, is_zdf, load_quantale,
    parse_quantale_tag,
)
from qspec.relations import (
    QRel, add, carrier, compose, dagger, diag_rel, identity_rel, rel, scalar_mul,
    zero_rel, _e_compose, _e_dagger, _e_join, _e_scalar,
)
from qspec.subalgebra import (
    EndoSpace, EnumerationBoundExceeded, InvariantViolation, Subsemialgebra, close,
    commutant, diagonal_algebra, enumerate_vn, get_endospace, is_von_neumann,
    primitive_idempotents, subunital_idempotents, support_projections,
    trivial_algebra, tuple_getter, validate_decomposition, _bits, _mask, _poset_from_masks,
)

BOOL2 = builtin_quantale("boolean2")
GODEL3 = builtin_quantale("godel_chain", 3)
LUK3 = builtin_quantale("lukasiewicz_chain", 3)
X2 = carrier("X", 2)


# -- independent oracles -----------------------------------------------------------


def oracle_closure(x, gens, q):
    """Fixed-point closure written directly against the relation operations."""
    members = {zero_rel(q, x, x).entries, identity_rel(q, x).entries}
    members |= {g.entries for g in gens}

    def as_rel(e):
        return QRel(q, x, x, e)

    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for a in snapshot:
            new = [dagger(as_rel(a)).entries]
            new += [scalar_mul(s, as_rel(a)).entries for s in range(q.size)]
            for b in snapshot:
                new.append(add(as_rel(a), as_rel(b)).entries)
                new.append(compose(as_rel(a), as_rel(b)).entries)
                new.append(compose(as_rel(b), as_rel(a)).entries)
            for e in new:
                if e not in members:
                    members.add(e)
                    changed = True
    return members


def oracle_commutant(x, rels, q):
    out = set()
    for cand in all_relations(q, x, x):
        if all(compose(cand, g) == compose(g, cand) for g in rels):
            out.add(cand.entries)
    return out


def oracle_is_vn(a):
    first = oracle_commutant(a.carrier, a.relations(), a.quantale)
    rels = [QRel(a.quantale, a.carrier, a.carrier, e) for e in first]
    second = oracle_commutant(a.carrier, rels, a.quantale)
    return second == a.member_set


def oracle_is_star_closed(a):
    return all(_e_dagger(a.quantale, m) in a.member_set for m in a.members)


def oracle_is_commutative(a):
    q = a.quantale
    return all(_e_compose(q, x, y) == _e_compose(q, y, x)
               for x, y in itertools.combinations(a.members, 2))


def oracle_is_closed(a):
    """One step of every operation stays inside, and 0 and id are members."""
    q, s = a.quantale, a.member_set
    return (zero_rel(q, a.carrier, a.carrier).entries in s
            and identity_rel(q, a.carrier).entries in s
            and oracle_is_star_closed(a)
            and all(_e_scalar(q, c, m) in s for c in range(q.size) for m in s)
            and all(_e_join(q, x, y) in s and _e_compose(q, x, y) in s
                    for x in s for y in s))


def join_star_closure(x, gens, q):
    """0, id and the generators closed under join, dagger and scalar
    multiples but not composition: sets that only a product can escape."""
    members = {zero_rel(q, x, x).entries, identity_rel(q, x).entries}
    members |= {g.entries for g in gens}
    while True:
        new = {_e_dagger(q, a) for a in members}
        new |= {_e_scalar(q, c, a) for c in range(q.size) for a in members}
        new |= {_e_join(q, a, b) for a in members for b in members}
        if new <= members:
            return Subsemialgebra.from_entries(q, x, members)
        members |= new


def oracle_semiring_tables(a):
    """add, mul and star from the entry kernels, read through member_pos."""
    q, ms, pos = a.quantale, a.members, a.member_pos
    return (tuple(tuple(pos[_e_join(q, x, y)] for y in ms) for x in ms),
            tuple(tuple(pos[_e_compose(q, x, y)] for y in ms) for x in ms),
            tuple(pos[_e_dagger(q, m)] for m in ms))


def oracle_subset_joins(a):
    """The join of every subset of the members, listed subset by subset."""
    q = a.quantale
    out = set()
    for r in range(a.size + 1):
        for sub in itertools.combinations(a.members, r):
            acc = zero_rel(q, a.carrier, a.carrier).entries
            for m in sub:
                acc = _e_join(q, acc, m)
            out.add(acc)
    return out


def oracle_enumerate_boolean2_x2():
    """Literal subset scan over all 2^16 subsets of Hom(X, X)."""
    q = BOOL2
    els = [r.entries for r in all_relations(q, X2, X2)]
    zero = zero_rel(q, X2, X2).entries
    ident = identity_rel(q, X2).entries
    found = []
    for bits in range(1 << 16):
        sub = [els[i] for i in range(16) if bits >> i & 1]
        s = set(sub)
        if zero not in s or ident not in s:
            continue
        algebra = Subsemialgebra.from_entries(q, X2, s)
        if not (oracle_is_closed(algebra) and oracle_is_commutative(algebra)):
            continue
        if oracle_is_vn(algebra):
            found.append(algebra.members)
    return sorted(found)


def oracle_walk(space):
    """The Moore-family walk: every intersection of single-element commutants,
    starting from the whole space, filtered to the commutative star-closed
    masks."""
    singles = sorted(set(space.comm[i] for i in range(space.size)))
    family = {space.full_mask}
    frontier = [space.full_mask]
    while frontier:
        m = frontier.pop()
        for s in singles:
            nm = m & s
            if nm not in family:
                family.add(nm)
                frontier.append(nm)
    return [m for m in family
            if space.is_commutative_mask(m) and space.is_star_mask(m)]


def oracle_clique_walk(space):
    """The commutation-clique walk: from every maximal clique C of the
    commutation graph on all of Hom(X, X), every intersection with the
    distinct cuts C ∩ comm(s), filtered to the star-closed masks."""
    comm = [space.comm[i] for i in range(space.size)]
    singles = set(comm)
    family = set()
    for c in maximal_cliques([m & ~(1 << i) for i, m in enumerate(comm)],
                             space.full_mask):
        cuts = {c & s for s in singles} - {c}
        family.add(c)
        frontier = [c]
        while frontier:
            m = frontier.pop()
            for s in cuts:
                if m & s not in family:
                    family.add(m & s)
                    frontier.append(m & s)
    return [m for m in family if space.is_star_mask(m)]


def star_commutation_seeds(space):
    """The maximal cliques of the star-commutation graph on the normal
    elements, where i ~ j when j commutes with i and with i†."""
    pair = [space.comm[i] & space.comm[space.dag_t[i]] for i in range(space.size)]
    normal = sum(1 << i for i in range(space.size)
                 if space.comp_rows[i][space.dag_t[i]] == space.comp_rows[space.dag_t[i]][i])
    return maximal_cliques([m & ~(1 << i) for i, m in enumerate(pair)], normal)


def oracle_maximal_cliques(adj):
    """Scan every vertex subset for cliques that no outside vertex extends."""
    n = len(adj)
    closed = [adj[v] | 1 << v for v in range(n)]
    cliques = {s for s in range(1 << n)
               if all(s & ~closed[v] == 0 for v in range(n) if s >> v & 1)}
    return sorted(s for s in cliques
                  if not any(s | 1 << v in cliques for v in range(n) if not s >> v & 1))


def oracle_generated_walk(space, x, q, k):
    """Generated mode by brute force: close every set of at most k normal
    elements whose members and daggers commute pairwise, each from scratch,
    and keep the commutative, star-closed, von Neumann closures plus the
    diagonal."""
    found = {space.mask_of(diagonal_algebra(x, q).members)}
    normals = [i for i in range(space.size) if space.comm[i] >> space.dag_t[i] & 1]

    def compatible(combo):
        for a, b in itertools.combinations(combo, 2):
            ca = space.comm[a]
            if not (ca >> b & 1 and ca >> space.dag_t[b] & 1
                    and space.comm[space.dag_t[a]] >> b & 1):
                return False
        return True

    for size in range(k + 1):
        for combo in itertools.combinations(normals, size):
            if compatible(combo):
                cl = space.close_mask(0, combo)
                comm = space.commutant_mask(cl)
                if (cl & ~comm == 0 and space.is_star_mask(cl)
                        and space.commutant_mask(comm) == cl):
                    found.add(cl)
    return found


# Document-loaded quantales: boolean2 listed top first, so bottom is index 1,
# and the two-point powerset with its points swapped by the involution.
BOOL2_TOP_FIRST = load_quantale({
    "name": "boolean2-top-first",
    "elements": ["1", "0"],
    "join": [["1", "1"], ["1", "0"]],
    "mul": [["1", "0"], ["0", "0"]],
    "unit": "1",
})
SWAP = load_quantale(SWAP_DOC)
ORACLE_QUANTALES = [
    BOOL2, GODEL3, builtin_quantale("godel_chain", 4), LUK3,
    builtin_quantale("powerset", 2), BOOL2_TOP_FIRST, SWAP,
]


def e1_rel():
    return rel(BOOL2, X2, X2, {("1", "1"): "1"})


# -- closure -------------------------------------------------------------------------


def test_close_empty_is_scalar_multiples():
    for q in (BOOL2, GODEL3):
        a = close(X2, [], q)
        expected = {scalar_mul(s, identity_rel(q, X2)).entries for s in range(q.size)}
        assert a.member_set == expected
        assert close(X2, [identity_rel(q, X2)]).member_set == expected


def test_close_single_idempotent_boolean():
    a = close(X2, [e1_rel()])
    assert a.member_set == oracle_closure(X2, [e1_rel()], BOOL2)
    assert a.size == 3  # zero, the one-point idempotent, and the identity


def test_close_matches_oracle_on_random_generators():
    rng = random.Random(17)
    rels = list(all_relations(GODEL3, X2, X2))
    for _ in range(10):
        gens = rng.sample(rels, 2)
        assert close(X2, gens).member_set == oracle_closure(X2, gens, GODEL3)


def test_closed_algebra_flags():
    a = close(X2, [e1_rel()])
    assert a.is_closed()


# -- commutants ------------------------------------------------------------------------


def test_commutant_of_empty_set_is_everything():
    c = commutant(X2, [], BOOL2)
    assert c.size == 16


def test_commutant_of_everything_is_the_scalars():
    full = list(all_relations(BOOL2, X2, X2))
    center = commutant(X2, full)
    assert center.member_set == {zero_rel(BOOL2, X2, X2).entries,
                                 identity_rel(BOOL2, X2).entries}


def test_commutant_laws_on_random_sets():
    rng = random.Random(29)
    rels = list(all_relations(GODEL3, X2, X2))
    for _ in range(6):
        sample = rng.sample(rels, rng.randint(1, 3))
        c1 = commutant(X2, sample)
        c2 = commutant(X2, c1.relations())
        c3 = commutant(X2, c2.relations())
        assert {r.entries for r in sample} <= c2.member_set
        assert c3.member_set == c1.member_set
        bigger = sample + [rng.choice(rels)]
        assert commutant(X2, bigger).member_set <= c1.member_set


def test_is_von_neumann():
    assert is_von_neumann(trivial_algebra(X2, BOOL2))
    assert is_von_neumann(diagonal_algebra(X2, BOOL2))
    assert not is_von_neumann(close(X2, [e1_rel()]))


def test_commutant_and_von_neumann_match_the_oracles():
    rng = random.Random(53)
    verdicts = set()
    for q in (BOOL2, GODEL3):
        rels = list(all_relations(q, X2, X2))
        for _ in range(5):
            sample = rng.sample(rels, rng.randint(1, 3))
            assert commutant(X2, sample).member_set == oracle_commutant(X2, sample, q)
            for a in (from_rels(sample), close(X2, sample)):
                verdicts.add(is_von_neumann(a))
                assert is_von_neumann(a) == oracle_is_vn(a)
    assert verdicts == {True, False}


def test_godel3_three_point_space_matches_the_oracles(monkeypatch):
    import qspec.subalgebra as sub
    monkeypatch.setattr(sub, "_space_cache", {})
    x3 = carrier("X", 3)
    space = sub.get_endospace(GODEL3, x3)  # 3^9 = 19683 elements
    gens = [
        subset_idempotent(GODEL3, x3, ["1"]),
        rel(GODEL3, x3, x3, {("1", "2"): "a"}),
        rel(GODEL3, x3, x3, {("1", "3"): "a", ("3", "3"): "a"}),
    ]
    for g in gens:
        expected = oracle_closure(x3, [g], GODEL3)
        assert close(x3, [g]).member_set == expected
        mask = space.close_mask(0, [space.index[g.entries]])
        assert space.algebra_from_mask(mask).member_set == expected
        assert commutant(x3, [g]).member_set == oracle_commutant(x3, [g], GODEL3)
    rng = random.Random(67)
    assert_table_cells(space, [(rng.randrange(space.size), rng.randrange(space.size))
                               for _ in range(2000)])
    assert_comm_masks(space, [rng.randrange(space.size) for _ in range(3)]
                      + [space.index[g.entries] for g in gens])


# -- operation tables ------------------------------------------------------------------


def assert_table_cells(space, pairs):
    q, els, idx = space.quantale, space.elements, space.index
    for i, j in pairs:
        assert space.comp_rows[i][j] == idx[_e_compose(q, els[i], els[j])]
        assert space.join_rows[i][j] == idx[_e_join(q, els[i], els[j])]


def assert_comm_masks(space, indices):
    """Each commutation mask against its definition on the entry kernels."""
    q, els = space.quantale, space.elements
    for i in indices:
        expected = sum(1 << j for j in range(space.size)
                       if _e_compose(q, els[i], els[j]) == _e_compose(q, els[j], els[i]))
        assert space.comm[i] == expected


def assert_scalar_line(space):
    """scalar_line is the mask of the s·id, and composing with s·id is the
    scalar multiple s·a on the entry kernels."""
    q, els = space.quantale, space.elements
    line = {s: space.index[_e_scalar(q, s, els[space.id_idx])] for s in range(q.size)}
    assert space.scalar_line == sum(1 << i for i in set(line.values()))
    for i, a in enumerate(els):
        for s, si in line.items():
            assert space.comp_rows[si][i] == space.index[_e_scalar(q, s, a)]


@pytest.mark.parametrize("q", ORACLE_QUANTALES, ids=lambda q: q.name)
def test_tables_match_the_entry_kernels(q):
    space = get_endospace(q, X2)
    assert_table_cells(space, itertools.product(range(space.size), repeat=2))
    assert_comm_masks(space, range(space.size))
    for i, a in enumerate(space.elements):
        assert space.dag_t[i] == space.index[_e_dagger(q, a)]
    assert_scalar_line(space)


def test_three_point_tables_match_on_random_pairs():
    space = get_endospace(BOOL2, carrier("X", 3))
    rng = random.Random(61)
    assert_table_cells(space, [(rng.randrange(space.size), rng.randrange(space.size))
                               for _ in range(2000)])
    assert_comm_masks(space, rng.sample(range(space.size), 20))


def test_endospace_tables_are_read_without_wrappers():
    space = get_endospace(builtin_quantale("boolean2"), carrier("X", 1))
    assert not hasattr(space, "join") and not hasattr(space, "comm_mask")
    assert {"join_rows", "comp_rows", "comm"} <= set(vars(space))


@pytest.mark.parametrize("q", ORACLE_QUANTALES, ids=lambda q: q.name)
def test_empty_carrier_space_has_one_element(q):
    space = get_endospace(q, carrier("E", 0))
    assert space.elements == [()] and space.zero_idx == space.id_idx == 0
    assert (space.comp_rows[0][0], space.join_rows[0][0], space.dag_t[0]) == (0, 0, 0)
    assert space.comm[0] == space.full_mask == 1
    assert_scalar_line(space)


def long_chain(n, mul):
    """An n-element chain with max as join and the given multiplication,
    built directly, since the built-in chains stop at 28 elements."""
    join = [[max(i, j) for j in range(n)] for i in range(n)]
    return Quantale(f"chain{n}", [str(i) for i in range(n)], join,
                    [[mul(i, j) for j in range(n)] for i in range(n)], n - 1)


def test_wide_rows_past_256_row_vectors():
    """With more than 256 row vectors a row index needs two bytes, so the
    commutation masks are gathered without bytes.translate."""
    x1 = carrier("X", 1)
    chain = long_chain(300, min)
    space = EndoSpace(chain, x1)
    assert space.rowmul[0].itemsize == 2
    assert all(space.comm[i] == space.full_mask for i in range(space.size))
    rng = random.Random(79)
    pairs = [(rng.randrange(300), rng.randrange(300)) for _ in range(500)]
    assert_table_cells(space, pairs + [(299, 299), (0, 299)])
    # the only algebra is every scalar multiple of the identity
    assert [a.size for a in enumerate_vn(x1, chain).algebras] == [300]
    # a table that is no quantale keeps the kernel honest where commutation
    # is rare: under left projection a∘b = a, so a commutes with itself only
    left = EndoSpace(long_chain(300, lambda i, j: i), x1)
    assert_comm_masks(left, rng.sample(range(300), 40))
    assert all(left.comm[i] == 1 << i for i in range(300))


ROWMUL_CASES = [(BOOL2, 0), (BOOL2, 1), (BOOL2, 2), (BOOL2, 3), (GODEL3, 2), (LUK3, 2),
                (builtin_quantale("powerset", 2), 2), (BOOL2_TOP_FIRST, 2), (SWAP, 2)]


@pytest.mark.parametrize("q, n", ROWMUL_CASES,
                         ids=[f"{q.name}-{n}" for q, n in ROWMUL_CASES])
def test_rowmul_and_dagger_tables_match_the_entry_kernels(q, n):
    """Every rowmul cell is the row of a one-row matrix product, and every
    dagger cell the index of the entrywise dagger, though neither table is
    built from those kernels."""
    space = EndoSpace(q, carrier("X", n))
    rows = list(itertools.product(range(q.size), repeat=n))
    rowpos = {r: i for i, r in enumerate(rows)}
    assert len(space.rowmul) == len(rows)
    for r, prods in zip(rows, space.rowmul):
        assert list(prods) == [rowpos[_e_compose(q, (r,), b)[0]] for b in space.elements]
    assert list(space.dag_t) == [space.index[_e_dagger(q, a)] for a in space.elements]


# -- member flags, semiring tables and subset joins --------------------------------------


def test_tuple_getter_always_yields_a_tuple():
    assert tuple_getter([])("abc") == ()
    assert tuple_getter([1])("abc") == ("b",)
    assert tuple_getter(iter([2, 0, 2]))("abc") == ("c", "a", "c")
    assert tuple_getter(["k"])({"k": 5}) == (5,)
    with pytest.raises(KeyError):
        tuple_getter(["k"])({})


@pytest.mark.parametrize("q", ORACLE_QUANTALES, ids=lambda q: q.name)
def test_semiring_tables_match_the_entry_kernels(q):
    for a in enumerate_vn(X2, q).algebras:
        sr = a.semiring()
        rows = tuple(tuple(map(tuple, t)) for t in (sr.add, sr.mul))
        assert rows + (sr.star,) == oracle_semiring_tables(a)
        assert sr.zero == a.member_pos[zero_rel(q, X2, X2).entries]
        assert sr.one == a.member_pos[identity_rel(q, X2).entries]


@pytest.mark.parametrize("tag, n", [("godel4", 2), ("boolean2", 3)])
def test_every_algebras_semiring_matches_the_entry_kernels(tag, n):
    for a in enumerate_vn(carrier("X", n), parse_quantale_tag(tag)).algebras:
        sr = a.semiring()
        assert all(row.typecode == "B" for row in sr.add + sr.mul)
        rows = tuple(tuple(map(tuple, t)) for t in (sr.add, sr.mul))
        assert rows + (sr.star,) == oracle_semiring_tables(a)


@pytest.mark.parametrize("q", [BOOL2, GODEL3], ids=lambda q: q.name)
def test_a_one_member_algebra_gets_its_tables(q):
    """On the empty carrier Hom(X, X) is {()}, the zero and the identity at
    once, so the one-member set holding it is closed."""
    empty = carrier("E", 0)
    a = trivial_algebra(empty, q)
    assert a.members == ((),) and a.is_closed()
    sr = a.semiring()
    assert (tuple(map(tuple, sr.add)), tuple(map(tuple, sr.mul)), sr.star) == \
        oracle_semiring_tables(a) == (((0,),), ((0,),), (0,))
    assert (sr.zero, sr.one) == (0, 0)


def test_a_non_closed_set_raises_invariant_violation():
    """Sets of one or more members that miss zero or the identity, or that a
    product escapes, have no tables: InvariantViolation, never a TypeError,
    so is_closed() is False."""
    q = BOOL2
    e12 = rel(q, X2, X2, {("1", "2"): "1"})
    escaping = join_star_closure(X2, [e12], q)  # e12∘e12† = e11 is missing
    assert _e_compose(q, e12.entries, _e_dagger(q, e12.entries)) not in escaping.member_set
    sets = [from_rels([identity_rel(q, X2)]),
            from_rels([zero_rel(q, X2, X2)]),
            from_rels([e12]), escaping]
    for a in sets:
        with pytest.raises(InvariantViolation):
            a.semiring()
        assert a.is_closed() is False
        assert not oracle_is_closed(a)


@pytest.mark.parametrize("q", ORACLE_QUANTALES, ids=lambda q: q.name)
def test_flags_match_their_entry_definitions(q):
    rng = random.Random(71)
    rels = list(all_relations(q, X2, X2))
    algebras = enumerate_vn(X2, q).algebras
    # zero and the identity: a unital *-semiring, but over more than two
    # scalars not closed under their multiples
    constants = from_rels([zero_rel(q, X2, X2), identity_rel(q, X2)])
    seen = set()
    for _ in range(12):
        sample = rng.sample(rels, rng.randint(1, 6))
        for a in (from_rels(sample), commutant(X2, sample[:2]),
                  join_star_closure(X2, sample[:1], q), rng.choice(algebras), constants):
            flags = (a.is_closed(), a.is_commutative)
            assert flags == (oracle_is_closed(a), oracle_is_commutative(a))
            seen.add(flags)
    # random sets, commutants, join closures and enumerated algebras give
    # each flag both values
    assert all({f[k] for f in seen} == {True, False} for k in range(2))


@pytest.mark.parametrize("q, n", [(BOOL2, 2), (GODEL3, 2), (BOOL2, 3)],
                         ids=["boolean2-2", "godel3-2", "boolean2-3"])
def test_subset_joins_equal_the_all_subsets_enumeration(q, n):
    small = [a for a in enumerate_vn(carrier("X", n), q).algebras if a.size <= 10]
    assert small
    for a in small:
        assert subset_joins(a) == oracle_subset_joins(a)


def test_flags_and_semiring_respect_the_hom_bound(monkeypatch):
    import qspec.subalgebra as sub
    a = close(X2, [e1_rel()])  # close works on entries and builds no space
    monkeypatch.setenv("QSPEC_MAX_HOM_SIZE", "10")
    monkeypatch.setattr(sub, "_space_cache", {})
    for op in (Subsemialgebra.semiring, Subsemialgebra.is_closed,
               lambda a: a.is_commutative):
        with pytest.raises(EnumerationBoundExceeded):
            op(a)


# -- maximal cliques ---------------------------------------------------------------------


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 10))
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_maximal_cliques_match_a_subset_scan(adj, data):
    full = (1 << len(adj)) - 1
    assert sorted(maximal_cliques(adj, full)) == oracle_maximal_cliques(adj)
    # on a vertex subset: the cliques of the induced subgraph, relabelled back
    vertices = data.draw(st.integers(0, full))
    kept = [v for v in range(len(adj)) if vertices >> v & 1]
    induced = [sum(1 << k for k, w in enumerate(kept) if adj[v] >> w & 1) for v in kept]
    expected = sorted(sum(1 << kept[k] for k in range(len(kept)) if c >> k & 1)
                      for c in oracle_maximal_cliques(induced))
    assert sorted(maximal_cliques(adj, vertices)) == expected


def test_maximal_cliques_of_empty_and_complete_graphs():
    assert maximal_cliques([], 0) == [0]
    assert sorted(maximal_cliques([0] * 6, 0b111111)) == [1 << v for v in range(6)]
    complete = [0b111111 & ~(1 << v) for v in range(6)]
    assert maximal_cliques(complete, 0b111111) == [0b111111]


# -- enumeration -------------------------------------------------------------------------


def test_enumerate_single_point_carrier():
    x1 = carrier("X", 1)
    poset = enumerate_vn(x1, BOOL2)
    assert len(poset.algebras) == 1
    assert poset.algebras[0].member_set == {((0,),), ((1,),)}


def test_enumerate_empty_carrier():
    # Hom(∅, ∅) has one element, the empty matrix, and no rows to look up
    x0 = carrier("X", 0)
    space = get_endospace(BOOL2, x0)
    assert (space.comp_rows[0][0], space.join_rows[0][0], space.comm[0]) == (0, 0, 1)
    poset = enumerate_vn(x0, BOOL2)
    assert [a.members for a in poset.algebras] == [((),)]


def test_enumerate_boolean2_x2_matches_subset_scan_oracle():
    poset = enumerate_vn(X2, BOOL2)
    assert sorted(a.members for a in poset.algebras) == oracle_enumerate_boolean2_x2()


@pytest.mark.parametrize("q", ORACLE_QUANTALES, ids=lambda q: q.name)
def test_enumerate_matches_the_moore_walk_oracle(q):
    space = get_endospace(q, X2)
    expected = _poset_from_masks(space, oracle_walk(space), "exhaustive", None)
    poset = enumerate_vn(X2, q)
    assert poset.algebras == expected.algebras
    assert poset.leq_pairs == expected.leq_pairs
    assert poset.hasse == expected.hasse


# godel4 |X|=2 is among the ORACLE_QUANTALES
@pytest.mark.parametrize("q, n", [(q, 2) for q in ORACLE_QUANTALES] + [
    (BOOL2, 3), (builtin_quantale("godel_chain", 5), 2),
    (builtin_quantale("lukasiewicz_chain", 4), 2), (builtin_quantale("godel_chain", 6), 2)],
    ids=lambda v: getattr(v, "name", str(v)))
def test_enumerate_matches_the_clique_walk_oracle(q, n):
    x = carrier("X", n)
    space = get_endospace(q, x)
    expected = _poset_from_masks(space, oracle_clique_walk(space), "exhaustive", None)
    poset = enumerate_vn(x, q)
    assert poset.algebras == expected.algebras
    assert poset.leq_pairs == expected.leq_pairs
    assert poset.hasse == expected.hasse


@pytest.mark.parametrize("q, n", [(q, 2) for q in ORACLE_QUANTALES] + [(BOOL2, 3)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_the_walk_seeds_are_the_maximal_algebras(q, n, monkeypatch):
    x = carrier("X", n)
    space = get_endospace(q, x)
    seeds = star_commutation_seeds(space)
    for m in seeds:
        assert space.is_star_mask(m) and space.is_commutative_mask(m)
        assert space.double_commutant_mask(m) == m
    answers = []
    star = space.is_star_mask
    monkeypatch.setattr(space, "is_star_mask", lambda m: answers.append(star(m)) or answers[-1])
    poset = enumerate_vn(x, q)
    # the walk visits only algebras it keeps, so its star filter drops nothing
    assert answers == [True] * len(poset.algebras)
    below = {i for i, _ in poset.hasse}
    maximal = {space.mask_of(a.members) for k, a in enumerate(poset.algebras) if k not in below}
    assert len(seeds) == len(set(seeds)) and set(seeds) == maximal


def test_enumerate_godel3_x2_self_checks():
    poset = enumerate_vn(X2, GODEL3)
    members_seen = set()
    for a in poset.algebras:
        assert a.members not in members_seen
        members_seen.add(a.members)
        assert a.is_commutative
        assert a.is_closed()
        assert oracle_is_vn(a)
    assert poset.trivial_index is not None
    assert poset.diagonal_index is not None
    triv = poset.algebras[poset.trivial_index]
    assert all(triv.member_set <= a.member_set for a in poset.algebras)


def test_poset_order_and_hasse():
    # the old construction as the oracle: a pairwise subset test for every
    # inclusion, and the inclusions with nothing strictly between as covers,
    # on the ladder configs and generated mode
    for tag, size, mode in [
            ("boolean2", 2, "exhaustive"), ("boolean2", 3, "exhaustive"),
            ("godel3", 2, "exhaustive"), ("godel4", 2, "exhaustive"),
            ("lukasiewicz3", 2, "exhaustive"), ("boolean2", 3, "generated")]:
        poset = enumerate_vn(carrier("X", size), parse_quantale_tag(tag), mode=mode)
        n = len(poset.algebras)
        sets = [a.member_set for a in poset.algebras]
        leq = {(i, j) for i in range(n) for j in range(n) if sets[i] <= sets[j]}
        assert poset.leq_pairs == tuple(sorted(leq))
        proper = {(i, j) for (i, j) in leq if i != j}
        reduction = sorted((i, j) for (i, j) in proper
                           if not any((i, k) in proper and (k, j) in proper for k in range(n)))
        assert list(poset.hasse) == reduction


@pytest.mark.parametrize("tag, n, mode, k", [
    ("godel5", 2, "exhaustive", None), ("lukasiewicz4", 2, "exhaustive", None),
    ("boolean2", 3, "generated", 3)], ids=str)
def test_poset_order_matches_the_member_set_oracle(tag, n, mode, k):
    # past the pairwise oracle's reach: the order and its covers as the
    # member-set bitsets give them, against the peeled covers and the
    # inclusions derived from them
    poset = enumerate_vn(carrier("X", n), parse_quantale_tag(tag), mode, k)
    leq, hasse = inclusion_order(poset.algebras)
    assert poset.hasse == hasse
    assert poset.leq_pairs == tuple(sorted(leq))


def test_generated_mode_is_a_sound_subset():
    exhaustive = {a.members for a in enumerate_vn(X2, GODEL3).algebras}
    generated = enumerate_vn(X2, GODEL3, "generated", 2)
    got = {a.members for a in generated.algebras}
    assert got <= exhaustive
    assert not generated.complete
    assert generated.algebras[generated.trivial_index].members in got
    assert generated.algebras[generated.diagonal_index].members in got
    for a in generated.algebras:
        assert a.is_commutative and a.is_closed() and is_von_neumann(a)


@pytest.mark.parametrize("q, n, k", [(q, 2, k) for q in ORACLE_QUANTALES for k in range(4)]
                         + [(BOOL2, 3, k) for k in (1, 2, 3)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_generated_mode_matches_the_combination_oracle(q, n, k):
    x = carrier("X", n)
    space = get_endospace(q, x)
    expected = _poset_from_masks(space, oracle_generated_walk(space, x, q, k),
                                 "generated", k)
    poset = enumerate_vn(x, q, "generated", k)
    assert poset.algebras == expected.algebras
    assert poset.leq_pairs == expected.leq_pairs
    assert poset.hasse == expected.hasse


@pytest.mark.parametrize("q, n", [(GODEL3, 2), (SWAP, 2), (BOOL2, 3)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_generated_mode_closes_only_star_commuting_sets(q, n, monkeypatch):
    # each union is grown by a normal element of the closure's commutant, so
    # every closure the walk makes is commutative; an incompatible union
    # would close to a larger algebra that consider() then throws away.  The
    # recorder sits on the one closure routine, and it must see as many
    # closures as the walk makes: one per cl(b), one per union whose two
    # closed parts do not nest (nested parts are their own union's closure)
    space = get_endospace(q, carrier("X", n))
    single, unions = generated_walk_unions(space, 2)
    made = []
    real = subalgebra._closure

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(subalgebra, "_closure", recording)
    enumerate_vn(carrier("X", n), q, "generated", 2)
    apart = [(c, d) for c, d in unions if c & ~d and d & ~c]
    assert len(made) == len(single) + len(apart) > len(single)
    assert all(space.is_commutative_mask(_mask(m)) for m in made)


def test_generated_mode_with_no_generators_and_a_negative_count():
    poset = enumerate_vn(X2, GODEL3, "generated", 0)
    assert [a.members for a in poset.algebras] == sorted(
        (trivial_algebra(X2, GODEL3).members, diagonal_algebra(X2, GODEL3).members),
        key=len)
    with pytest.raises(ValueError, match="max_generators"):
        enumerate_vn(X2, GODEL3, "generated", -1)


@pytest.mark.parametrize("q, n", [(GODEL3, 2), (SWAP, 2), (BOOL2, 3)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_a_closure_of_star_commuting_normals_has_the_pairs_as_commutant(q, n):
    # cl(S)' = ⋂_{s∈S} pair(s), which lets generated mode expand a closure by
    # the normal elements of its commutant
    space = get_endospace(q, carrier("X", n))
    pair = [space.comm[i] & space.comm[space.dag_t[i]] for i in range(space.size)]
    normals = [i for i in range(space.size) if pair[i] >> i & 1]
    checked = 0
    for size in range(3):
        for combo in itertools.combinations(normals, size):
            if all(pair[a] >> b & 1 for a, b in itertools.combinations(combo, 2)):
                meet = space.full_mask
                for s in combo:
                    meet &= pair[s]
                assert space.commutant_mask(space.close_mask(0, combo)) == meet, combo
                checked += 1
    assert checked > len(normals)


@pytest.mark.parametrize("q", [GODEL3, SWAP, LUK3], ids=lambda q: q.name)
def test_closing_a_seed_onto_a_closed_part_is_the_full_closure(q):
    space = get_endospace(q, X2)
    rng = random.Random(83)
    for _ in range(6):
        gens = rng.sample(range(space.size), rng.randrange(3))
        closed = space.close_mask(0, gens)
        seed = rng.sample(range(space.size), rng.randrange(1, 3))
        got = space.algebra_from_mask(space.close_mask(closed, seed)).member_set
        rels = [QRel(q, X2, X2, space.elements[i]) for i in gens + seed]
        assert got == oracle_closure(X2, rels, q), (gens, seed)


@pytest.mark.parametrize("q, n", [(GODEL3, 2), (SWAP, 2), (LUK3, 2), (BOOL2, 3)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_a_union_of_two_closed_parts_closes_to_the_closure_of_the_union(q, n):
    # only d∖c against c∖d can leave the union in the first round; the pairs
    # are a sample of the unions generated mode closes, each both ways, and
    # the scalar line with a closure, which nest
    x = carrier("X", n)
    space = get_endospace(q, x)
    rng = random.Random(29)
    _, unions = generated_walk_unions(space, 2)
    apart = [(c, d) for c, d in unions if c & ~d and d & ~c]
    line = space.close_mask(0, ())
    pairs = rng.sample(apart, min(16, len(apart))) + [(line, unions[-1][1])]
    assert len(pairs) > 4
    for c, d in pairs:
        rels = [QRel(q, x, x, space.elements[i]) for i in _bits(c | d)]
        expected = space.mask_of(oracle_closure(x, rels, q))
        assert space.close_union(c, d) == space.close_union(d, c) == expected


@pytest.mark.parametrize("q, n", [(q, 2) for q in ORACLE_QUANTALES] + [(BOOL2, 3)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_normality_by_rows_is_the_commutation_mask_test(q, n):
    space = get_endospace(q, carrier("X", n))
    normal = [space.is_normal(i) for i in range(space.size)]
    assert normal == [bool(space.comm[i] >> space.dag_t[i] & 1)
                      for i in range(space.size)]
    assert True in normal and False in normal


@pytest.mark.parametrize("q", ORACLE_QUANTALES, ids=lambda q: q.name)
def test_the_early_exit_double_commutant_is_the_full_and(q):
    space = get_endospace(q, X2)

    def full(m):
        return space.commutant_mask(space.commutant_mask(m))

    algebras = [space.mask_of(a.members) for a in enumerate_vn(X2, q).algebras]
    closures = [space.close_mask(0, (i,)) for i in range(space.size)]
    not_vn = [m for m in closures if full(m) != m]
    assert not_vn
    for m in algebras + not_vn:
        comm = space.commutant_mask(m)
        assert space.double_commutant_mask(m) == space.double_commutant_mask(m, comm) == full(m)


def test_enumeration_bound(monkeypatch):
    monkeypatch.setenv("QSPEC_MAX_HOM_SIZE", "10")
    import qspec.subalgebra as sub
    sub._space_cache.clear()
    with pytest.raises(EnumerationBoundExceeded):
        enumerate_vn(X2, BOOL2)
    monkeypatch.delenv("QSPEC_MAX_HOM_SIZE")
    sub._space_cache.clear()


@pytest.mark.parametrize("bound,refusal", [
    ("16", None),
    ("15", "|Hom(X,X)| = 16 exceeds the bound 15"),
    # 4 cells past the 3 bits of 7: refused without the exact power
    ("7", "|Hom(X,X)| = 2^4 exceeds the bound 7"),
])
def test_the_hom_bound_at_its_edge(monkeypatch, bound, refusal):
    import qspec.subalgebra as sub
    monkeypatch.setenv("QSPEC_MAX_HOM_SIZE", bound)
    monkeypatch.setattr(sub, "_space_cache", {})
    if refusal is None:
        assert sub.get_endospace(BOOL2, X2).size == 16
    else:
        with pytest.raises(EnumerationBoundExceeded, match=re.escape(refusal)):
            sub.get_endospace(BOOL2, X2)


def test_poset_exports():
    poset = enumerate_vn(X2, BOOL2)
    js = cli._poset_json(poset)
    assert js["complete"] is True
    assert len(js["algebras"]) == len(poset.algebras)
    dot = cli._poset_dot(poset)
    assert dot.startswith("digraph") and "->" in dot


@pytest.mark.parametrize("q", ORACLE_QUANTALES, ids=lambda q: q.name)
def test_algebra_ids_are_the_sha256_of_the_members_repr(q):
    zero, one = zero_rel(q, X2, X2).entries, identity_rel(q, X2).entries
    hand_built = [Subsemialgebra.from_entries(q, X2, [zero]),  # repr ((...),)
                  Subsemialgebra.from_entries(q, X2, [zero, one]),
                  trivial_algebra(carrier("E", 0), q)]  # its one member is ()
    assert [a.size for a in hand_built] == [1, 2, 1]
    for a in [*enumerate_vn(X2, q).algebras, *hand_built]:
        assert a.algebra_id == hashlib.sha256(repr(a.members).encode()).hexdigest()[:12]


# -- decomposition ----------------------------------------------------------------------


def oracle_check_decomposition(a, dec):
    q = a.quantale
    zero = zero_rel(q, a.carrier, a.carrier)
    ident = identity_rel(q, a.carrier)
    assert all(0 <= p < a.size for p in dec.idempotents)
    es = [QRel(q, a.carrier, a.carrier, a.members[p]) for p in dec.idempotents]
    for e in es:
        assert compose(e, e) == e
    for e, f in itertools.combinations(es, 2):
        assert compose(e, f) == zero
    total = zero
    for e in es:
        total = add(total, e)
    assert total == ident
    # primitivity against the subunital idempotents of the algebra itself
    subs = [s for s in oracle_subunital_idempotents(a) if s != zero.entries]
    for e in es:
        for s, t in itertools.combinations(subs, 2):
            if s != e.entries and t != e.entries:
                joined = add(QRel(q, a.carrier, a.carrier, s),
                             QRel(q, a.carrier, a.carrier, t))
                assert joined.entries != e.entries
    # the member -> component-tuple map is a bijection onto the product
    images = {tuple(compose(e, QRel(q, a.carrier, a.carrier, m)).entries for e in es)
              for m in a.members}
    assert len(images) == len(a.members)
    components = oracle_components(a, [e.entries for e in es])
    count = 1
    for comp in components:
        count *= len(comp)
    assert count == len(a.members)
    for combo in itertools.product(*components):
        rebuilt = zero
        for part in combo:
            rebuilt = add(rebuilt, QRel(q, a.carrier, a.carrier, part))
        assert rebuilt.entries in a.member_set
        for e, part in zip(es, combo):
            assert compose(e, rebuilt).entries == part


# Oracles: the decomposition layer written on entry matrices.


def oracle_subunital_idempotents(a):
    q = a.quantale
    zero = zero_rel(q, a.carrier, a.carrier).entries
    ident = identity_rel(q, a.carrier).entries
    idem = [m for m in a.members if _e_compose(q, m, m) == m]
    return [p for p in idem
            if any(_e_compose(q, p, r) == zero and _e_join(q, p, r) == ident for r in idem)]


def oracle_components(a, idempotents):
    q = a.quantale
    return tuple(tuple(sorted({_e_compose(q, e, m) for m in a.members}))
                 for e in idempotents)


def oracle_validate_decomposition(dec):
    a = dec.algebra
    q = a.quantale
    zero = zero_rel(q, a.carrier, a.carrier).entries
    failures = []
    es = [a.members[p] for p in dec.idempotents]
    for i, e in enumerate(es):
        if _e_compose(q, e, e) != e:
            failures.append(f"idempotent {i} is not idempotent")
        for j in range(i + 1, len(es)):
            if _e_compose(q, e, es[j]) != zero:
                failures.append(f"idempotents {i},{j} not orthogonal")
    acc = zero
    for e in es:
        acc = _e_join(q, acc, e)
    if acc != identity_rel(q, a.carrier).entries:
        failures.append("idempotents do not join to the unit")
    subunital = set(oracle_subunital_idempotents(a))
    nontrivial = [p for p in subunital if p != zero]
    for i, e in enumerate(es):
        if e not in subunital:
            failures.append(f"idempotent {i} is not subunital in the algebra")
        for s, t in itertools.combinations(nontrivial, 2):
            if s != e and t != e and _e_join(q, s, t) == e:
                failures.append(f"idempotent {i} splits as a join of {s} and {t}")
    seen = {}
    for m in a.members:
        key = tuple(_e_compose(q, e, m) for e in es)
        if key in seen:
            failures.append(f"members {seen[key]} and {m} agree on all components")
        seen[key] = m
    expected = 1
    for comp in oracle_components(a, es):
        expected *= len(comp)
    if len(seen) != expected or len(a.members) != expected:
        failures.append("component map is not onto the product")
    return failures


# (quantale tag, |X|, mode): the section-search oracle configs of
# test_contextuality plus boolean2 |X|=3 in generated mode
ORACLE_POSETS = [("boolean2", 2, "exhaustive"), ("godel3", 2, "exhaustive"),
                 ("godel4", 2, "exhaustive"), ("lukasiewicz3", 2, "exhaustive"),
                 ("lukasiewicz4", 2, "exhaustive"), ("powerset2", 2, "exhaustive"),
                 ("boolean2", 3, "exhaustive"), ("boolean2", 3, "generated")]


@functools.lru_cache(maxsize=None)
def oracle_poset(tag, size, mode):
    return enumerate_vn(carrier("X", size), parse_quantale_tag(tag), mode)


@pytest.mark.parametrize("tag, size, mode", ORACLE_POSETS)
def test_decomposition_layer_equals_the_entry_kernels(tag, size, mode):
    poset = oracle_poset(tag, size, mode)
    zdf = is_zdf(poset.quantale)
    for a in poset.algebras:
        members = a.members.__getitem__
        assert list(map(members, subunital_idempotents(a))) == oracle_subunital_idempotents(a)
        if not zdf:
            continue
        dec = primitive_idempotents(a)
        es = list(map(members, dec.idempotents))
        # the component eA is the set of values in e's row of the multiplication table
        mul = a.semiring().mul
        assert tuple(tuple(map(members, sorted(set(mul[p])))) for p in dec.idempotents) \
            == oracle_components(a, es)
        assert dec.supports == tuple(support(QRel(poset.quantale, a.carrier, a.carrier, e)).supp
                                     for e in es)
        assert validate_decomposition(dec) == oracle_validate_decomposition(dec) == []


def _diagonal_decomposition(q, n=2):
    return primitive_idempotents(diagonal_algebra(carrier("X", n), q))


def _with_idempotents(dec, *pointsets):
    a = dec.algebra
    return dec._replace(idempotents=tuple(
        a.member_pos[subset_idempotent(a.quantale, a.carrier, pts).entries]
        for pts in pointsets))


def corrupted_decompositions():
    """One corrupted decomposition per failure string of validate_decomposition,
    keyed by the start of that string."""
    diag = _diagonal_decomposition(BOOL2)
    # boolean2 |X|=2: {0, swap, id, all-ones} decomposes along id alone
    swapping = next(a for a in enumerate_vn(X2, BOOL2).algebras
                    if ((0, 1), (1, 0)) in a.member_set)
    swap = ((0, 1), (1, 0))
    godel = _diagonal_decomposition(GODEL3)
    # diag(1/2, 1): idempotent, no partner
    half_one = godel.algebra.member_pos[diag_rel(GODEL3, X2, (1, 2)).entries]
    return {
        "idempotent 0 is not idempotent": primitive_idempotents(swapping)._replace(
            idempotents=(swapping.member_pos[swap],)),
        "idempotents 0,1 not orthogonal": _with_idempotents(diag, ["1"], ["1", "2"]),
        "idempotents do not join to the unit": _with_idempotents(diag, ["1"]),
        "idempotent 1 is not subunital in the algebra": godel._replace(
            idempotents=(godel.idempotents[0], half_one)),
        "idempotent 0 is not subunital in the algebra": godel._replace(
            idempotents=(half_one,)),
        "idempotent 0 splits as a join of": _with_idempotents(diag, ["1", "2"]),
        "members ": _with_idempotents(diag, ["1"]),  # ... agree on all components
        # a repeated idempotent: each member keeps its image, but the
        # product counts the repeated component twice
        "component map is not onto the product": diag._replace(
            idempotents=diag.idempotents + diag.idempotents[1:]),
    }


@pytest.mark.parametrize("failure", list(corrupted_decompositions()))
def test_each_decomposition_failure_has_a_corrupted_input(failure):
    dec = corrupted_decompositions()[failure]
    assert any(f.startswith(failure) for f in validate_decomposition(dec))
    assert any(f.startswith(failure) for f in oracle_validate_decomposition(dec))


def test_decomposition_trivial_algebra():
    dec = primitive_idempotents(trivial_algebra(X2, BOOL2))
    assert len(dec.idempotents) == 1
    assert dec.algebra.members[dec.idempotents[0]] == identity_rel(BOOL2, X2).entries


def test_decomposition_diagonal_boolean():
    dec = primitive_idempotents(diagonal_algebra(X2, BOOL2))
    assert len(dec.idempotents) == 2
    assert {support(QRel(BOOL2, X2, X2, dec.algebra.members[e])).supp
            for e in dec.idempotents} == {("1",), ("2",)}
    oracle_check_decomposition(dec.algebra, dec)


def test_decomposition_every_enumerated_algebra():
    for q in (BOOL2, GODEL3):
        for a in enumerate_vn(X2, q).algebras:
            oracle_check_decomposition(a, primitive_idempotents(a))


def test_decomposition_on_a_longer_chain():
    godel4 = builtin_quantale("godel_chain", 4)
    poset = enumerate_vn(X2, godel4)
    assert poset.diagonal_index is not None
    for a in poset.algebras:
        oracle_check_decomposition(a, primitive_idempotents(a))


def test_space_closure_agrees_with_direct_closure():
    from qspec.subalgebra import get_endospace
    space = get_endospace(GODEL3, X2)
    rng = random.Random(41)
    for _ in range(8):
        idxs = rng.sample(range(space.size), 2)
        via_space = {space.elements[i] for i in _bits(space.close_mask(0, idxs))}
        gens = [QRel(GODEL3, X2, X2, space.elements[i]) for i in idxs]
        assert via_space == close(X2, gens).member_set


def test_decomposition_requires_zdf_and_von_neumann():
    with pytest.raises(ZdfRequiredError):
        primitive_idempotents(trivial_algebra(X2, LUK3))
    with pytest.raises(ValueError, match="von Neumann"):
        primitive_idempotents(close(X2, [e1_rel()]))


def test_von_neumann_answer_is_computed_once(monkeypatch):
    vn = diagonal_algebra(X2, BOOL2)
    not_vn = close(X2, [e1_rel()])
    assert is_von_neumann(vn) and not is_von_neumann(not_vn)

    def again(*args, **kwargs):
        raise AssertionError("the double commutant was computed again")

    # the decomposition reads the semiring tables, which need the space
    monkeypatch.setattr(EndoSpace, "double_commutant_mask", again)
    assert is_von_neumann(vn) and not is_von_neumann(not_vn)
    assert len(primitive_idempotents(vn).idempotents) == 2
    with pytest.raises(ValueError, match="von Neumann"):
        primitive_idempotents(not_vn)


def test_support_projections_stay_inside():
    for q in (BOOL2, GODEL3):
        for a in enumerate_vn(X2, q).algebras:
            for m in a.members:
                f = QRel(q, a.carrier, a.carrier, m)
                proj = subset_idempotent(q, a.carrier, support(f).supp)
                assert proj.entries in a.member_set


def oracle_support(space, i):
    """Element i's support as carrier indices and that support's projection,
    from the relation-level oracles."""
    q, x = space.quantale, space.carrier
    points = support(QRel(q, x, x, space.elements[i])).supp
    return frozenset(map(x.index, points)), subset_idempotent(q, x, points).entries


def table_support(space, i):
    return space.support(i), space.projection(space.support(i))


@pytest.mark.parametrize("tag,n", [("boolean2", 3), ("godel4", 2), ("lukasiewicz3", 2),
                                   ("powerset2", 2), ("godel3", 1)])
def test_the_support_table_matches_the_oracle_on_every_member(tag, n):
    q, x = parse_quantale_tag(tag), carrier("X", n)
    space = get_endospace(q, x)
    for a in enumerate_vn(x, q).algebras:
        idx = [space.index[m] for m in a.members]
        expected = [oracle_support(space, i) for i in idx]
        assert [table_support(space, i) for i in idx] == expected
        assert support_projections(a) == dict(expected)


def test_the_support_table_reads_wide_row_indices():
    # Up to 256 row vectors the row indices are bytes; more take array("H")
    # rows, which only spaces past the default bound have, so the rows of a
    # small fresh space are widened to that type here.
    space = EndoSpace(GODEL3, X2)
    assert isinstance(space._rowk[0], bytes)
    space._rowk = [array("H", list(ids)) for ids in space._rowk]
    for i in range(space.size):
        assert table_support(space, i) == oracle_support(space, i)


def test_trivial_algebra_godel():
    t = trivial_algebra(X2, GODEL3)
    assert t.size == 3
    assert is_von_neumann(t)


@pytest.mark.parametrize("q", ORACLE_QUANTALES, ids=lambda q: q.name)
@pytest.mark.parametrize("n", [1, 2])
def test_the_scalar_line_is_the_closure_of_nothing(q, n):
    x = carrier("X", n)
    assert trivial_algebra(x, q).member_set == oracle_closure(x, [], q)


def test_mixed_ambients_are_rejected():
    from qspec.subalgebra import MixedAmbientError
    with pytest.raises(MixedAmbientError):
        close(X2, [])  # no generators and no quantale to infer from
    with pytest.raises(MixedAmbientError):
        close(X2, [identity_rel(BOOL2, X2), identity_rel(GODEL3, X2)])
    with pytest.raises(MixedAmbientError):
        close(X2, [identity_rel(BOOL2, carrier("Y", 2))])


def test_generated_mode_stops_at_the_first_empty_level():
    # godel3 |X|=2 saturates at three generators, so a count of 10**12 ends
    # its walk there instead of stepping over empty levels
    saturated = enumerate_vn(X2, GODEL3, "generated", 3)
    assert len(enumerate_vn(X2, GODEL3, "generated", 2).algebras) < len(saturated.algebras)
    huge = enumerate_vn(X2, GODEL3, "generated", 10**12)
    assert huge._replace(max_generators=3) == saturated


def test_generated_mode_with_one_generator():
    poset = enumerate_vn(X2, BOOL2, "generated", 1)
    exhaustive = {a.members for a in enumerate_vn(X2, BOOL2).algebras}
    assert {a.members for a in poset.algebras} <= exhaustive
    assert poset.diagonal_index is not None
    assert poset.trivial_index is not None


def test_three_point_carrier_exhaustive_contains_generated():
    from qspec.spectra import (
        TWO, character_kernel, characters_to_two, gelfand_spectrum, prime_spectrum)
    from qspec.subalgebra import validate_decomposition
    x3 = carrier("X", 3)
    exhaustive = enumerate_vn(x3, BOOL2)
    generated = enumerate_vn(x3, BOOL2, "generated", 2)
    exh = {a.members for a in exhaustive.algebras}
    assert {a.members for a in generated.algebras} < exh
    assert exhaustive.complete and not generated.complete
    for a in exhaustive.algebras:
        assert not validate_decomposition(primitive_idempotents(a))
        spec = prime_spectrum(gelfand_spectrum(a))
        kers = sorted(spec.kernel_members(character_kernel(g, a, TWO))
                      for g in characters_to_two(a))
        assert kers == sorted(map(spec.kernel_members, spec.points))
