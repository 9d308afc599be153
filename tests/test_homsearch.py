"""The homomorphism search, from scratch and extending a sub-*-semiring's
homomorphisms, against the from-scratch search it replaced."""

import random

import pytest

from oracles import is_hom
from qspec._homsearch import enumerate_homs
from qspec.quantale import builtin_quantale, parse_quantale_tag
from qspec.relations import carrier
from qspec.spectra import TWO
from qspec.subalgebra import enumerate_vn

X2 = carrier("X", 2)


def oracle_homs(src, dst):
    """The search as it stood before it could extend homomorphisms: every
    position assigned in index order, every constraint checked at the first
    position where all of its participants are assigned.  Lexicographic."""
    n = src.size
    add_by_max = [[] for _ in range(n)]
    mul_by_max = [[] for _ in range(n)]
    star_by_max = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            k = src.add[i][j]
            add_by_max[max(i, j, k)].append((i, j, k))
            k = src.mul[i][j]
            mul_by_max[max(i, j, k)].append((i, j, k))
        s = src.star[i]
        star_by_max[max(i, s)].append((i, s))

    image = [None] * n
    dadd, dmul, dstar = dst.add, dst.mul, dst.star

    def consistent(pos):
        v = image[pos]
        if pos == src.zero and v != dst.zero:
            return False
        if pos == src.one and v != dst.one:
            return False
        for (i, j, k) in add_by_max[pos]:
            if dadd[image[i]][image[j]] != image[k]:
                return False
        for (i, j, k) in mul_by_max[pos]:
            if dmul[image[i]][image[j]] != image[k]:
                return False
        for (i, s) in star_by_max[pos]:
            if dstar[image[i]] != image[s]:
                return False
        return True

    def search(pos):
        if pos == n:
            yield tuple(image)
            return
        for v in range(dst.size):
            image[pos] = v
            if consistent(pos):
                yield from search(pos + 1)
        image[pos] = None

    yield from search(0)


QUANTALES = ("boolean2", "godel3", "godel4", "lukasiewicz3", "lukasiewicz4", "powerset2")


@pytest.mark.parametrize("tag", QUANTALES)
def test_nothing_fixed_is_the_full_search(tag):
    q = parse_quantale_tag(tag)
    sr = q.semiring()
    assert sorted(enumerate_homs(sr, sr)) == list(oracle_homs(sr, sr))
    for a in enumerate_vn(X2, q).algebras[::7]:
        for target in (q, TWO):
            src, dst = a.semiring(), target.semiring()
            assert sorted(enumerate_homs(src, dst)) == list(oracle_homs(src, dst))


def test_extensions_of_one_base_are_the_homs_restricting_to_it():
    q = builtin_quantale("godel_chain", 3)
    poset = enumerate_vn(X2, q)
    rng = random.Random(3)
    proper = sorted((i, j) for i, j in poset.leq_pairs if i != j)
    for i, j in rng.sample(proper, 25):
        sub, sup = poset.algebras[i], poset.algebras[j]
        fixed = [sup.member_pos[m] for m in sub.members]
        src, dst = sup.semiring(), q.semiring()
        every = list(oracle_homs(src, dst))
        for base in oracle_homs(sub.semiring(), dst):
            expected = [h for h in every if tuple(h[p] for p in fixed) == base]
            assert sorted(enumerate_homs(src, dst, fixed, [base])) == expected


def test_a_fixed_carrier_with_no_bases_yields_nothing():
    q = builtin_quantale("godel_chain", 3)
    poset = enumerate_vn(X2, q)
    i, j = poset.hasse[0]
    sup = poset.algebras[j]
    fixed = [sup.member_pos[m] for m in poset.algebras[i].members]
    assert list(enumerate_homs(sup.semiring(), q.semiring(), fixed, [])) == []


def test_everything_fixed_yields_each_base_once():
    q = builtin_quantale("godel_chain", 3)
    sr = q.semiring()
    homs = list(oracle_homs(sr, sr))
    assert list(enumerate_homs(sr, sr, range(sr.size), homs)) == homs


# The poset extends each algebra's characters, into the scalars and into TWO
# (the prime points, in descending order), from its largest Hasse
# predecessor; algebra by algebra they must be the from-scratch search's,
# over every scalar quantale, zero divisors or not.
POSETS = [
    ("boolean2", 2, "exhaustive"), ("boolean2", 3, "exhaustive"),
    ("godel3", 2, "exhaustive"), ("godel4", 2, "exhaustive"),
    ("lukasiewicz3", 2, "exhaustive"), ("lukasiewicz4", 2, "exhaustive"),
    ("powerset2", 2, "exhaustive"), ("boolean2", 3, "generated"),
]


@pytest.mark.parametrize("tag,size,mode", POSETS)
def test_poset_characters_match_the_from_scratch_search(tag, size, mode):
    q = parse_quantale_tag(tag)
    poset = enumerate_vn(carrier("X", size), q, mode=mode)
    targets = [
        (q, [s.points for s in poset.spectra("gelfand")]),
        (TWO, [tuple(reversed(s.points)) for s in poset.spectra("prime")]),
    ]
    for target, found in targets:
        dst = target.semiring()
        for a, values in zip(poset.algebras, found):
            src = a.semiring()
            assert values == tuple(oracle_homs(src, dst))
            assert all(is_hom(src, dst, v) for v in values)


def test_predecessors_are_the_largest_hasse_predecessors():
    poset = enumerate_vn(X2, builtin_quantale("godel_chain", 4))
    sizes = [a.size for a in poset.algebras]
    for j, p in enumerate(poset.predecessors):
        below = [i for i, k in poset.hasse if k == j]
        if not below:
            assert p is None
            continue
        assert p == min(below, key=lambda i: (-sizes[i], i))
        assert p < j
