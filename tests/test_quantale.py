"""Quantale loading, axiom checking, built-ins and endomorphisms."""

import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import SWAP_DOC, compose_homs, is_hom
from qspec.quantale import (
    Quantale, QuantaleError, builtin_quantale, endomorphisms, is_zdf, load_quantale,
    parse_quantale_tag, quantale_to_doc, verify_quantale, zdf_witness,
)

BOOL2 = builtin_quantale("boolean2")
GODEL3 = builtin_quantale("godel_chain", 3)
LUK3 = builtin_quantale("lukasiewicz_chain", 3)


def godel3_doc():
    return {
        "name": "g3",
        "elements": ["0", "a", "1"],
        "join": [["0", "a", "1"], ["a", "a", "1"], ["1", "1", "1"]],
        "mul": [["0", "0", "0"], ["0", "a", "a"], ["0", "a", "1"]],
        "unit": "1",
    }


# -- independent oracle: filter all maps directly against the preservation laws


def brute_force_endos(q):
    n = q.size
    out = []
    for image in itertools.product(range(n), repeat=n):
        if image[q.bottom] != q.bottom or image[q.unit] != q.unit:
            continue
        if any(image[q.involution[x]] != q.involution[image[x]] for x in range(n)):
            continue
        if all(image[q.join_table[x][y]] == q.join_table[image[x]][image[y]]
               and image[q.mul_table[x][y]] == q.mul_table[image[x]][image[y]]
               for x in range(n) for y in range(n)):
            out.append(image)
    return sorted(out)


def test_builtins_pass_axioms():
    quantales = [BOOL2, LUK3, GODEL3,
                 builtin_quantale("godel_chain", 4),
                 builtin_quantale("godel_chain", 5),
                 builtin_quantale("lukasiewicz_chain", 4),
                 builtin_quantale("lukasiewicz_chain", 5),
                 builtin_quantale("powerset", 1),
                 builtin_quantale("powerset", 2),
                 builtin_quantale("powerset", 3)]
    for q in quantales:
        report = verify_quantale(q)
        assert report.passed, (q.name, report.violations)


def test_load_then_verify_splits_concerns():
    doc = godel3_doc()
    doc["join"][1][1] = "1"  # join(a, a) = 1 breaks idempotence but still loads
    q = load_quantale(doc)
    report = verify_quantale(q)
    assert not report.passed
    assert ("join-idempotent", ("a",)) in report.violations


def test_load_errors():
    with pytest.raises(QuantaleError):
        load_quantale({"name": "x", "elements": ["0"]})
    bad_arity = godel3_doc()
    bad_arity["mul"] = bad_arity["mul"][:2]
    with pytest.raises(QuantaleError, match="arity"):
        load_quantale(bad_arity)
    bad_id = godel3_doc()
    bad_id["join"][0][0] = "zz"
    with pytest.raises(QuantaleError, match="unknown element"):
        load_quantale(bad_id)
    dup = godel3_doc()
    dup["elements"] = ["0", "0", "1"]
    with pytest.raises(QuantaleError):
        load_quantale(dup)


def test_non_string_ids_are_load_errors():
    corruptions = [
        lambda d: d.update(unit=["1"]),
        lambda d: d["join"][0].__setitem__(1, ["a"]),
        lambda d: d["mul"][2].__setitem__(2, {"1": "1"}),
        lambda d: d.update(involution=["0", ["a"], "1"]),
        lambda d: d.update(unit=1),
    ]
    for corrupt in corruptions:
        doc = godel3_doc()
        corrupt(doc)
        with pytest.raises(QuantaleError, match="unknown element id"):
            load_quantale(doc)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@st.composite
def near_quantale_documents(draw):
    """Documents in the quantale format where each field, table, row and id is
    dropped or replaced by arbitrary JSON one time in twenty."""
    ids = draw(st.lists(st.sampled_from(["0", "a", "b", "1"]),
                        min_size=1, max_size=3, unique=True))

    def corrupt(value):
        return draw(JSON) if draw(st.integers(0, 19)) == 0 else value

    def elem():
        return corrupt(draw(st.sampled_from(ids)))

    def table():
        return corrupt([corrupt([elem() for _ in ids]) for _ in ids])

    fields = {"name": corrupt("q"), "elements": corrupt(ids), "join": table(),
              "mul": table(), "unit": elem(),
              "involution": corrupt([elem() for _ in ids])}
    return {k: v for k, v in fields.items() if draw(st.integers(0, 19))}


@settings(max_examples=200, deadline=None)
@given(st.one_of(near_quantale_documents(), JSON))
def test_every_document_loads_or_raises_a_quantale_error(doc):
    try:
        q = load_quantale(doc)
    except QuantaleError:
        return
    assert q.size == len(doc["elements"])
    assert quantale_to_doc(q)["unit"] == doc["unit"]


def test_derived_fields():
    q = load_quantale(godel3_doc())
    assert q.elements[q.bottom] == "0"
    assert q.elements[q.top] == "1"
    assert q.leq(q.index("0"), q.index("a"))
    assert q.leq(q.index("a"), q.index("1"))
    assert not q.leq(q.index("1"), q.index("a"))


def test_document_round_trip_is_exact():
    doc = godel3_doc()
    assert quantale_to_doc(load_quantale(doc)) == doc
    doc["involution"] = ["0", "a", "1"]
    assert quantale_to_doc(load_quantale(doc)) == doc


@pytest.mark.parametrize("tag", ["boolean2", "godel4", "lukasiewicz3", "powerset2"])
def test_a_quantale_loaded_from_its_document_hashes_and_compares_as_the_builtin(tag):
    builtin = parse_quantale_tag(tag)
    loaded = load_quantale(quantale_to_doc(builtin))
    assert loaded is not builtin
    # the first hash computes and stores it, the second reads it
    assert hash(loaded) == hash(builtin) == hash(loaded) == hash(builtin.fingerprint)
    assert loaded == builtin and {builtin: tag}[loaded] == tag


def test_nontrivial_involution_round_trip_and_axioms():
    doc = copy.deepcopy(SWAP_DOC)
    q = load_quantale(doc)
    assert verify_quantale(q).passed
    assert quantale_to_doc(q) == doc


def test_distributivity_violation_found_by_table_search():
    # Search all commutative unital multiplications on the 3-chain that keep
    # bottom absorbing, and pick one that is not monotone; the checker must
    # flag exactly distributivity.
    join = [[max(i, j) for j in range(3)] for i in range(3)]
    found = None
    for m11 in range(3):
        mul = [[0, 0, 0], [0, m11, 1], [0, 1, 2]]
        assoc = all(mul[x][mul[y][z]] == mul[mul[x][y]][z]
                    for x in range(3) for y in range(3) for z in range(3))
        distributes = all(mul[x][join[y][z]] == join[mul[x][y]][mul[x][z]]
                          for x in range(3) for y in range(3) for z in range(3))
        if assoc and not distributes:
            found = mul
            break
    assert found is not None
    ids = ["0", "a", "1"]
    doc = {
        "name": "bad",
        "elements": ids,
        "join": [[ids[v] for v in row] for row in join],
        "mul": [[ids[v] for v in row] for row in found],
        "unit": "1",
    }
    report = verify_quantale(load_quantale(doc))
    assert not report.passed
    assert {name for name, _ in report.violations} == {"distributivity"}


def test_multiple_violations_each_get_a_witness():
    doc = godel3_doc()
    doc["join"][1][1] = "1"       # breaks idempotence at a
    doc["mul"][1][1] = "1"        # breaks monotonicity, hence distributivity
    report = verify_quantale(load_quantale(doc))
    names = {name for name, _ in report.violations}
    assert "join-idempotent" in names
    assert len(report.violations) >= 2
    assert all(len(w) >= 0 for _, w in report.violations)


def doctored_godel3(join=(), mul=(), unit=2, involution=None):
    """The 3-chain 0 < a < 1 (join max, multiplication min) with some cells
    of its tables overwritten."""
    tables = ([[max(i, j) for j in range(3)] for i in range(3)],
              [[min(i, j) for j in range(3)] for i in range(3)])
    for table, cells in zip(tables, (join, mul)):
        for (i, j), v in cells:
            table[i][j] = v
    return Quantale("doctored", ("0", "a", "1"), *tables, unit, involution)


# One doctored table per axiom, with every violation it reports, in report
# order, each with its first witness in itertools.product order.
DOCTORED = {
    "join-commutative": (doctored_godel3(join=[((0, 1), 2)]), (
        ("join-commutative", ("0", "a")), ("join-associative", ("a", "0", "a")),
        ("join-identity", ()), ("distributivity", ("a", "0", "a")))),
    "join-idempotent": (doctored_godel3(join=[((1, 1), 2)]), (
        ("join-idempotent", ("a",)), ("distributivity", ("a", "a", "a")))),
    "join-associative": (doctored_godel3(join=[((1, 2), 0), ((2, 1), 0)]), (
        ("join-associative", ("a", "a", "1")), ("distributivity", ("a", "a", "1")),
        ("non-trivial", ()))),
    "join-identity": (doctored_godel3(join=[((0, 1), 2), ((1, 0), 2)]), (
        ("join-identity", ()), ("distributivity", ("a", "0", "a")))),
    "mul-commutative": (doctored_godel3(mul=[((1, 2), 0)]), (
        ("mul-commutative", ("a", "1")), ("mul-associative", ("a", "1", "a")),
        ("distributivity", ("a", "a", "1")))),
    "mul-associative": (doctored_godel3(mul=[((0, 1), 2), ((1, 0), 2)]), (
        ("mul-associative", ("0", "0", "a")), ("distributivity", ("0", "a", "1")),
        ("bottom-absorbing", ("a",)))),
    "mul-unit": (doctored_godel3(unit=1), (("mul-unit", ("1",)),)),
    "distributivity": (doctored_godel3(mul=[((1, 1), 2)]), (
        ("distributivity", ("a", "a", "1")),)),
    "bottom-absorbing": (doctored_godel3(mul=[((1, 0), 1), ((0, 1), 1)]), (
        ("distributivity", ("0", "a", "1")), ("bottom-absorbing", ("a",)))),
    "involution-involutive": (doctored_godel3(involution=(0, 2, 2)), (
        ("involution-involutive", ("a",)),)),
    "involution-join": (doctored_godel3(involution=(0, 2, 1)), (
        ("involution-join", ("a", "1")), ("involution-mul", ("a", "1")),
        ("involution-unit", ()))),
    "involution-mul": (doctored_godel3(involution=(1, 0, 2)), (
        ("involution-join", ("0", "a")), ("involution-mul", ("0", "a")))),
    "involution-unit": (doctored_godel3(involution=(2, 1, 0)), (
        ("involution-join", ("0", "a")), ("involution-mul", ("0", "a")),
        ("involution-unit", ()))),
    "non-trivial": (Quantale("one", ("0",), ((0,),), ((0,),), 0), (
        ("non-trivial", ()),)),
}


@pytest.mark.parametrize("axiom", DOCTORED)
def test_each_axiom_is_reported_with_its_first_witness(axiom):
    q, expected = DOCTORED[axiom]
    report = verify_quantale(q)
    assert report.violations == expected
    assert axiom in dict(expected)
    assert not report.passed


def oracle_ternary_witnesses(q):
    """The first triple in product order at which each ternary law fails,
    checked one triple at a time; None where the law holds."""
    join, mul = q.join_table, q.mul_table
    laws = {
        "join-associative": lambda x, y, z: join[x][join[y][z]] == join[join[x][y]][z],
        "mul-associative": lambda x, y, z: mul[x][mul[y][z]] == mul[mul[x][y]][z],
        "distributivity":
            lambda x, y, z: mul[x][join[y][z]] == join[mul[x][y]][mul[x][z]],
    }
    return {name: next((tuple(q.elements[w] for w in t)
                        for t in itertools.product(range(q.size), repeat=3) if not law(*t)),
                       None)
            for name, law in laws.items()}


def square_tables(n):
    table = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                     min_size=n, max_size=n)
    return st.tuples(st.just(n), table, table, st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(square_tables), st.sampled_from(["max", "table"]))
def test_ternary_laws_checked_a_row_at_a_time_keep_their_first_witness(tables, join_kind):
    n, join, mul, unit = tables
    if join_kind == "max":  # a lattice join, so that mul alone breaks the laws
        join = [[max(i, j) for j in range(n)] for i in range(n)]
    q = Quantale("random", [str(i) for i in range(n)], join, mul, unit)
    found = dict(verify_quantale(q).violations)
    expected = oracle_ternary_witnesses(q)
    assert {name: found.get(name) for name in expected} == expected


def test_zdf():
    assert is_zdf(BOOL2)
    for n in (3, 4, 5):
        assert is_zdf(builtin_quantale("godel_chain", n))
        assert not is_zdf(builtin_quantale("lukasiewicz_chain", n))
    assert is_zdf(builtin_quantale("powerset", 1))
    assert not is_zdf(builtin_quantale("powerset", 2))
    assert not is_zdf(builtin_quantale("powerset", 3))
    assert zdf_witness(LUK3) == ("1/2", "1/2")
    assert zdf_witness(builtin_quantale("powerset", 2)) == ("{1}", "{2}")


def oracle_zdf_witness(q):
    b = q.bottom
    for x in range(q.size):
        for y in range(q.size):
            if b not in (x, y) and q.mul_table[x][y] == b:
                return (q.elements[x], q.elements[y])
    return None


BUILTIN_TAGS = ("boolean2", "godel2", "godel3", "godel4", "godel5", "lukasiewicz2",
                "lukasiewicz3", "lukasiewicz4", "lukasiewicz5", "powerset1",
                "powerset2", "powerset3")


@pytest.mark.parametrize("tag", BUILTIN_TAGS)
def test_zdf_witness_is_scanned_once_per_quantale(tag):
    q = parse_quantale_tag(tag)
    expected = oracle_zdf_witness(q)
    assert zdf_witness(q) == expected
    q.mul_table = None  # a second scan would fail on the missing table
    assert zdf_witness(q) == expected
    assert is_zdf(q) == (expected is None)


def test_powerset_shape():
    p2 = builtin_quantale("powerset", 2)
    assert p2.size == 4
    assert p2.elements[p2.unit] == "{1,2}"
    assert p2.elements[p2.bottom] == "{}"


def test_endomorphisms_against_brute_force():
    for q in (BOOL2, GODEL3, LUK3, builtin_quantale("powerset", 2)):
        assert [h.mapping for h in endomorphisms(q)] == brute_force_endos(q)


def test_endomorphism_structure():
    # boolean2 admits only the identity; the 3-chain admits exactly the three
    # maps sending the middle element down, nowhere, or up.
    assert [h.mapping for h in endomorphisms(BOOL2)] == [(0, 1)]
    a = GODEL3.index("a")
    images = sorted(h.mapping[a] for h in endomorphisms(GODEL3))
    assert images == [GODEL3.index("0"), GODEL3.index("a"), GODEL3.index("1")]
    assert len(endomorphisms(LUK3)) == 2


def test_endomorphism_monoid_closure():
    for q in (BOOL2, GODEL3, LUK3):
        homs = endomorphisms(q)
        maps = {h.mapping for h in homs}
        assert tuple(range(q.size)) in maps
        for g in homs:
            for h in homs:
                assert compose_homs(h, g).mapping in maps
        for h in homs:
            assert is_hom(h.source.semiring(), h.target.semiring(), h.mapping)


def test_order_is_partial_order_with_bounds():
    for q in (BOOL2, GODEL3, LUK3, builtin_quantale("powerset", 3)):
        n = q.size
        for x in range(n):
            assert q.leq(x, x)
            assert q.leq(q.bottom, x) and q.leq(x, q.top)
            for y in range(n):
                if q.leq(x, y) and q.leq(y, x):
                    assert x == y
                for z in range(n):
                    if q.leq(x, y) and q.leq(y, z):
                        assert q.leq(x, z)


def test_verify_is_deterministic():
    assert verify_quantale(GODEL3) == verify_quantale(GODEL3)


def test_two_embedding_is_the_only_map_out_of_two():
    from qspec.quantale import rig_homs, two_embedding
    two = builtin_quantale("boolean2")
    for q in (BOOL2, GODEL3, LUK3, builtin_quantale("powerset", 2)):
        emb = two_embedding(q)
        assert is_hom(emb.source.semiring(), emb.target.semiring(), emb.mapping)
        assert [h.mapping for h in rig_homs(two, q)] == [emb.mapping]


def test_zdf_collapse_exists_exactly_for_zdf_quantales():
    from qspec.quantale import ZdfRequiredError, rig_homs, zdf_collapse, two_embedding
    two = builtin_quantale("boolean2")
    for q in (BOOL2, GODEL3, builtin_quantale("godel_chain", 4)):
        w = zdf_collapse(q)
        assert is_hom(w.source.semiring(), w.target.semiring(), w.mapping)
        assert w.mapping in {h.mapping for h in rig_homs(q, two)}
        # collapsing after embedding is the identity on the two elements
        assert compose_homs(w, two_embedding(q)).mapping == (0, 1)
    with pytest.raises(ZdfRequiredError):
        zdf_collapse(LUK3)
    # and indeed no valid map can send all non-bottom elements to the unit
    bad = tuple(0 if i == LUK3.bottom else 1 for i in range(LUK3.size))
    assert not is_hom(LUK3.semiring(), two.semiring(), bad)


def test_parse_quantale_tag():
    for tag in ("boolean2", " boolean2 ", "boolean(2)"):
        assert parse_quantale_tag(tag).name == "boolean2"
    assert parse_quantale_tag("godel3").size == 3
    assert parse_quantale_tag("godel_chain(4)").size == 4
    assert parse_quantale_tag("lukasiewicz3").name == "lukasiewicz3"
    assert parse_quantale_tag("powerset2").size == 4
    for tag in ("frobenius9", "boolean", "boolean3"):
        with pytest.raises(QuantaleError):
            parse_quantale_tag(tag)
    with pytest.raises(QuantaleError):
        builtin_quantale("godel_chain", 1)


def test_lukasiewicz_labels_are_the_grid_fractions():
    for n in range(2, 65):
        assert builtin_quantale("lukasiewicz_chain", n).elements == tuple(
            str(Fraction(i, n - 1)) for i in range(n))
