"""The relation calculus: composition, dagger, convolution, scalars."""

import itertools
import random

import pytest

from oracles import all_relations, is_normal, support
from qspec.quantale import QuantaleError, builtin_quantale, load_quantale
from qspec.relations import (
    FiniteSet, QRel, add, add_via_biproduct, carrier, compose, dagger,
    identity_rel, rel, scalar_mul, scalar_mul_via_tensor, scalar_rel, tensor,
    zero_rel,
)

BOOL2 = builtin_quantale("boolean2")
GODEL3 = builtin_quantale("godel_chain", 3)

SWAP_DOC = {
    "name": "swap",
    "elements": ["{}", "{1}", "{2}", "{1,2}"],
    "join": [["{}", "{1}", "{2}", "{1,2}"],
             ["{1}", "{1}", "{1,2}", "{1,2}"],
             ["{2}", "{1,2}", "{2}", "{1,2}"],
             ["{1,2}", "{1,2}", "{1,2}", "{1,2}"]],
    "mul": [["{}", "{}", "{}", "{}"],
            ["{}", "{1}", "{}", "{1}"],
            ["{}", "{}", "{2}", "{2}"],
            ["{}", "{1}", "{2}", "{1,2}"]],
    "unit": "{1,2}",
    "involution": ["{}", "{2}", "{1}", "{1,2}"],
}
SWAP = load_quantale(SWAP_DOC)


def rand_rel(rng, q, dom, cod):
    return QRel(q, dom, cod, tuple(
        tuple(rng.randrange(q.size) for _ in range(cod.size))
        for _ in range(dom.size)))


def test_boolean_composition_is_relational():
    x, y, z = (FiniteSet(n, (p,)) for n, p in (("X", "1"), ("Y", "2"), ("Z", "3")))
    f = rel(BOOL2, x, y, {("1", "2"): "1"})
    g = rel(BOOL2, y, z, {("2", "3"): "1"})
    fg = compose(f, g)
    assert fg.entries == ((1,),)
    assert compose(f, identity_rel(BOOL2, y)) == f
    assert compose(identity_rel(BOOL2, x), f) == f


def test_godel_composition_matches_minmax_arithmetic():
    # independent oracle: indices 0 < 1 < 2 composed with min for the product
    # and max for the join
    x = carrier("X", 2)
    f = QRel(GODEL3, x, x, ((1, 2), (0, 1)))
    g = QRel(GODEL3, x, x, ((2, 0), (1, 1)))
    expected = tuple(
        tuple(max(min(f.entries[i][k], g.entries[k][j]) for k in range(2))
              for j in range(2))
        for i in range(2))
    assert compose(f, g).entries == expected == ((1, 1), (1, 1))


def test_compose_rejects_mismatches():
    x, y = carrier("X", 2), carrier("Y", 3)
    f = zero_rel(BOOL2, x, y)
    with pytest.raises(ValueError, match="middle object"):
        compose(f, f)
    with pytest.raises(QuantaleError):
        compose(f, zero_rel(GODEL3, y, x))


def test_dagger():
    x, y = carrier("X", 1), carrier("Y", 1)
    f = rel(BOOL2, x, y, {("1", "1"): "1"})
    assert dagger(f).dom == y and dagger(f).cod == x
    assert dagger(dagger(f)) == f
    assert dagger(identity_rel(BOOL2, carrier("X", 3))) == identity_rel(BOOL2, carrier("X", 3))
    g = QRel(GODEL3, carrier("X", 2), carrier("X", 2), ((1, 2), (0, 1)))
    assert dagger(g).entries == ((1, 0), (2, 1))  # plain transpose: trivial involution
    h = rel(SWAP, x, y, {("1", "1"): "{1}"})
    assert dagger(h).entries == ((SWAP.index("{2}"),),)


def test_empty_carrier_is_the_zero_object():
    x, e = carrier("X", 2), FiniteSet("E", ())
    f, g = rel(BOOL2, x, e), rel(BOOL2, e, x)
    assert compose(f, g) == zero_rel(BOOL2, x, x)
    assert dagger(g) == f and dagger(f) == g


def test_add_unit_and_boolean_union():
    x, y = carrier("X", 1), carrier("Y", 2)
    f = rel(BOOL2, x, y, {("1", "1"): "1"})
    g = rel(BOOL2, x, y, {("1", "2"): "1"})
    assert add(f, zero_rel(BOOL2, x, y)) == f
    assert add(f, g).entries == ((1, 1),)


def test_add_matches_block_composite_frozen_case():
    x, y = carrier("X", 1), carrier("Y", 2)
    f = QRel(GODEL3, x, y, ((0, 1),))
    g = QRel(GODEL3, x, y, ((1, 1),))
    total = add(f, g)
    assert total.entries == ((1, 1),)
    assert add_via_biproduct(f, g).entries == total.entries


def test_scalar_mul_laws_and_frozen_case():
    x, y = carrier("X", 1), carrier("Y", 2)
    f = QRel(GODEL3, x, y, ((2, 1),))
    assert scalar_mul(GODEL3.unit, f) == f
    assert scalar_mul(GODEL3.bottom, f) == zero_rel(GODEL3, x, y)
    assert scalar_mul("a", f).entries == ((1, 1),)
    assert scalar_mul_via_tensor("a", f).entries == ((1, 1),)


def test_oracle_equivalences_exhaustive_boolean_small():
    for nx, ny in itertools.product((1, 2), repeat=2):
        x, y = carrier("X", nx), carrier("Y", ny)
        rels = list(all_relations(BOOL2, x, y))
        for f in rels:
            for g in rels:
                assert add(f, g) == add_via_biproduct(f, g)
            for s in range(BOOL2.size):
                assert scalar_mul(s, f) == scalar_mul_via_tensor(s, f)


def test_oracle_equivalences_random_godel():
    rng = random.Random(11)
    for _ in range(300):
        x = carrier("X", rng.randint(1, 3))
        y = carrier("Y", rng.randint(1, 3))
        f, g = rand_rel(rng, GODEL3, x, y), rand_rel(rng, GODEL3, x, y)
        assert add(f, g) == add_via_biproduct(f, g)
        s = rng.randrange(3)
        assert scalar_mul(s, f) == scalar_mul_via_tensor(s, f)


def test_scalar_oracle_exhaustive_boolean_up_to_three():
    for nx, ny in itertools.product((1, 2, 3), repeat=2):
        x, y = carrier("X", nx), carrier("Y", ny)
        for f in all_relations(BOOL2, x, y):
            for s in range(BOOL2.size):
                assert scalar_mul(s, f) == scalar_mul_via_tensor(s, f)


def test_tensor():
    x, y = carrier("X", 2), carrier("Y", 3)
    t = tensor(identity_rel(BOOL2, x), identity_rel(BOOL2, y))
    assert t == identity_rel(BOOL2, t.dom)
    a, b = FiniteSet("A", ("1",)), FiniteSet("B", ("p",))
    f = rel(BOOL2, a, FiniteSet("A2", ("2",)), {("1", "2"): "1"})
    g = rel(BOOL2, b, FiniteSet("B2", ("q",)), {("p", "q"): "1"})
    fg = tensor(f, g)
    assert fg.entries == ((1,),)
    assert fg.dom.elements == (("1", "p"),)
    # tensoring with the 1x1 unit scalar leaves the entries untouched
    h = rand_rel(random.Random(3), GODEL3, x, y)
    assert tensor(h, scalar_rel(GODEL3, GODEL3.unit)).entries == h.entries


def test_category_and_dagger_laws_sampled():
    rng = random.Random(5)
    for q in (BOOL2, GODEL3, SWAP):
        for _ in range(120):
            x = carrier("X", rng.randint(1, 3))
            y = carrier("Y", rng.randint(1, 3))
            z = carrier("Z", rng.randint(1, 3))
            f = rand_rel(rng, q, x, y)
            g = rand_rel(rng, q, y, z)
            h = rand_rel(rng, q, z, x)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))
            assert compose(identity_rel(q, x), f) == f
            assert dagger(compose(f, g)) == compose(dagger(g), dagger(f))
            assert dagger(dagger(f)) == f


def test_semimodule_axioms_sampled():
    rng = random.Random(13)
    for q in (BOOL2, GODEL3, SWAP):
        for _ in range(150):
            x = carrier("X", rng.randint(1, 3))
            y = carrier("Y", rng.randint(1, 3))
            f = rand_rel(rng, q, x, y)
            g = rand_rel(rng, q, x, y)
            s, t = rng.randrange(q.size), rng.randrange(q.size)
            assert scalar_mul(s, add(f, g)) == add(scalar_mul(s, f), scalar_mul(s, g))
            assert scalar_mul(q.mul(s, t), f) == scalar_mul(s, scalar_mul(t, f))
            assert scalar_mul(q.join(s, t), f) == add(scalar_mul(s, f), scalar_mul(t, f))
            assert scalar_mul(q.bottom, f) == zero_rel(q, x, y)
            assert scalar_mul(s, zero_rel(q, x, y)) == zero_rel(q, x, y)
            assert scalar_mul(q.unit, f) == f


def test_scalars_are_the_quantale():
    # 1x1 relations: composition is multiplication and addition is join
    for q in (BOOL2, GODEL3, SWAP, builtin_quantale("powerset", 2)):
        for s in range(q.size):
            for t in range(q.size):
                assert compose(scalar_rel(q, s), scalar_rel(q, t)).entries[0][0] == q.mul(s, t)
                assert add(scalar_rel(q, s), scalar_rel(q, t)).entries[0][0] == q.join(s, t)
                assert dagger(scalar_rel(q, s)).entries[0][0] == q.inv(s)


def test_support():
    x, y = carrier("X", 2), carrier("Y", 2)
    assert support(zero_rel(BOOL2, x, y)) == support(zero_rel(BOOL2, x, y))
    assert support(zero_rel(BOOL2, x, y)).supp == ()
    f = rel(BOOL2, x, y, {("1", "2"): "1"})
    assert support(f).supp == ("1",)
    assert support(f).cosupp == ("2",)


def test_normal_relations_have_matching_supports_over_zdf():
    rng = random.Random(31)
    checked = 0
    for q in (BOOL2, GODEL3):
        x = carrier("X", 3)
        while checked < 60:
            f = rand_rel(rng, q, x, x)
            if not is_normal(f):
                continue
            pair = support(f)
            assert set(pair.supp) == set(pair.cosupp)
            checked += 1
        checked = 0


def test_foreign_scalars_are_rejected():
    x = carrier("X", 2)
    f = identity_rel(GODEL3, x)
    with pytest.raises(QuantaleError):
        scalar_mul("1/2", f)
    with pytest.raises(QuantaleError):
        scalar_mul(7, f)
    with pytest.raises(QuantaleError):
        add(f, identity_rel(BOOL2, x))

