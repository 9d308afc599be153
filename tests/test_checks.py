"""Fault injection: a corrupted input turns its named checks to FAIL."""


import hashlib
import re

import pytest

from qspec import checks as checks_module, cli, spectra as spectra_module
from qspec.checks import (
    algebras_suite, quantale_suite, relations_suite, spectra_suite, topology_suite,
)
from qspec.quantale import (
    AxiomReport, ZdfRequiredError, builtin_quantale, endomorphisms, verify_quantale,
)
from qspec.relations import QRel, carrier, diag_rel, zero_rel
from qspec.contextuality import build_presheaf, canonical_section
from qspec.spectra import restriction_mismatch, restriction_table
from qspec.subalgebra import InvariantViolation, Subsemialgebra, enumerate_vn
from qspec.zariski import closed_family_from_basis

# lukasiewicz3 has zero divisors, so algebras_suite skips the decomposition,
# which would refuse the corrupted (no longer von Neumann) algebra outright.
LUK3 = builtin_quantale("lukasiewicz_chain", 3)
GODEL3 = builtin_quantale("godel_chain", 3)
X2 = carrier("X", 2)
ZERO, HALF, ONE = 0, 1, 2  # indices of "0", "1/2", "1"


def verdicts(results):
    return {r.name: r.passed for r in results}


def poset_missing_a_join():
    """The lukasiewicz3 |X|=2 poset whose diagonal algebra lacks
    diag(1/2, 1), the join of its members diag(1/2, 0) and diag(0, 1)."""
    poset = enumerate_vn(X2, LUK3)
    d = poset.diagonal_index
    diag = poset.algebras[d]
    gone = diag_rel(LUK3, X2, (HALF, ONE)).entries
    assert {diag_rel(LUK3, X2, (HALF, ZERO)).entries, gone,
            diag_rel(LUK3, X2, (ZERO, ONE)).entries} <= diag.member_set
    broken = Subsemialgebra.from_entries(LUK3, X2, diag.member_set - {gone})
    algebras = poset.algebras[:d] + (broken,) + poset.algebras[d + 1:]
    return poset._replace(algebras=algebras), broken


def test_a_missing_join_fails_the_closure_checks():
    checks = ("closure-flags", "join-closure-subsets")
    intact = verdicts(algebras_suite(enumerate_vn(X2, LUK3), seed=0))
    assert all(intact[c] for c in checks)
    poset, _ = poset_missing_a_join()
    broken = verdicts(algebras_suite(poset, seed=0))
    assert not any(broken[c] for c in checks)


def test_semiring_of_an_unclosed_algebra_is_an_invariant_violation():
    poset, broken = poset_missing_a_join()
    with pytest.raises(InvariantViolation, match="not closed"):
        broken.semiring()
    # reached through the spectra, the error names the algebra
    d = poset.algebras.index(broken)
    with pytest.raises(InvariantViolation, match=rf"^A{d}: algebra is not closed"):
        spectra_suite(poset)


# -- algebra checks on ZDF posets whose diagonal algebra lost diag(1, 0) --------


def poset_missing_a_diagonal_projection(q):
    """The |X|=2 poset of q whose diagonal algebra lacks diag(1, 0), and the
    diagonal's index.  What is left is still closed, commutative and
    star-closed, but no longer its own double commutant."""
    poset = enumerate_vn(X2, q)
    d = poset.diagonal_index
    gone = diag_rel(q, X2, (q.unit, q.bottom)).entries
    broken = Subsemialgebra.from_entries(q, X2, poset.algebras[d].member_set - {gone})
    algebras = poset.algebras[:d] + (broken,) + poset.algebras[d + 1:]
    return poset._replace(algebras=algebras), d


def test_a_lost_projection_fails_von_neumann_and_names_the_undecomposed_algebra():
    bool2 = builtin_quantale("boolean2")
    checks = ("von-neumann", "decomposition")
    intact = verdicts(algebras_suite(enumerate_vn(X2, bool2), seed=0))
    assert all(intact[c] for c in checks)
    poset, d = poset_missing_a_diagonal_projection(bool2)
    results = {r.name: r for r in algebras_suite(poset, seed=0)}
    assert not any(results[c].passed for c in checks)
    # {0, diag(0,1), id} keeps the projection of every member's support
    assert results["closure-flags"].passed and results["support-projections"].passed
    assert results["decomposition"].details == (
        f"A{d}: decomposition needs a von Neumann algebra")
    spectra = {r.name: r for r in spectra_suite(poset)}
    assert not spectra["one-idempotent-per-character"].passed
    assert spectra["one-idempotent-per-character"].details.startswith(f"A{d}: ")
    assert spectra["kernel-bijection"].passed


def test_a_poset_without_the_trivial_algebra_fails_trivial_included():
    poset = enumerate_vn(X2, GODEL3)
    assert verdicts(algebras_suite(poset, seed=0))["trivial-included"]
    t = poset.trivial_index
    # the edges at the trivial algebra go with it, and the rest are renumbered
    hasse = tuple((i - (i > t), j - (j > t)) for i, j in poset.hasse if t not in (i, j))
    pruned = poset._replace(algebras=poset.algebras[:t] + poset.algebras[t + 1:],
                            hasse=hasse)
    broken = verdicts(algebras_suite(pruned, seed=0))
    assert not broken["trivial-included"]
    assert broken["closure-flags"] and broken["von-neumann"]


def test_a_lost_support_projection_fails_support_projections():
    # diag(1/2, 0) is left, but its support projection diag(1, 0) is gone
    assert verdicts(algebras_suite(enumerate_vn(X2, GODEL3), seed=0))["support-projections"]
    poset, _ = poset_missing_a_diagonal_projection(GODEL3)
    broken = verdicts(algebras_suite(poset, seed=0))
    assert not broken["support-projections"]
    assert broken["closure-flags"]


def test_an_escaped_support_projection_is_a_failed_decomposition():
    # Told that the broken diagonal is von Neumann, the decomposition finds a
    # support projection outside it and raises InvariantViolation.
    poset, d = poset_missing_a_diagonal_projection(GODEL3)
    poset.algebras[d].__dict__["_von_neumann"] = True
    results = {r.name: r for r in algebras_suite(poset, seed=0)}
    assert not results["decomposition"].passed
    assert results["decomposition"].details.startswith(
        f"A{d}: support projection escaped the algebra")


def test_an_undecomposed_algebra_fails_its_checks_and_still_writes_the_report(
        monkeypatch, capsys):
    bool2 = builtin_quantale("boolean2")
    poset, d = poset_missing_a_diagonal_projection(bool2)
    monkeypatch.setattr(cli, "enumerate_vn", lambda *args, **kwargs: poset)
    for command, check in (("algebras", "decomposition"),
                           ("spectrum", "one-idempotent-per-character")):
        code = cli.main([command, "--quantale", "boolean2", "--size", "2"])
        out = capsys.readouterr().out
        assert code == 1, command
        assert f"[FAIL] {check}  A{d}: decomposition needs a von Neumann algebra" in out
        assert out.endswith("result: FAILED\n")


def test_a_commutant_that_ignores_a_relation_fails_triple_commutant(monkeypatch):
    # Ignoring the last relation keeps the commutant antitone (the larger
    # sample still covers the smaller), so only B''' = B' can see it.
    poset = enumerate_vn(X2, builtin_quantale("boolean2"))
    intact = verdicts(algebras_suite(poset, seed=0))
    assert all(intact.values())
    real = checks_module.commutant
    monkeypatch.setattr(checks_module, "commutant",
                        lambda x, rels, q=None: real(x, list(rels)[:-1], q))
    broken = verdicts(algebras_suite(poset, seed=0))
    assert [c for c, ok in broken.items() if not ok] == ["triple-commutant"]


# -- quantale checks on godel3, whose endomorphism monoid is checked ------------


def failed_quantale_checks(q=GODEL3, homs=None):
    """The checks quantale_suite fails when handed q's axiom report and its
    endomorphism list, or homs in place of that list."""
    homs = endomorphisms(q) if homs is None else homs
    return [r.name for r in quantale_suite(q, verify_quantale(q), homs) if not r.passed]


def test_an_endomorphism_list_without_the_identity_fails_endomorphism_monoid():
    assert failed_quantale_checks() == []
    homs = [h for h in endomorphisms(GODEL3) if h.mapping != tuple(range(GODEL3.size))]
    assert failed_quantale_checks(homs=homs) == ["endomorphism-monoid"]


def test_a_verifier_that_changes_its_answer_fails_verify_deterministic(monkeypatch):
    assert failed_quantale_checks() == []
    # the suite's own run disagrees with the report it was handed
    monkeypatch.setattr(checks_module, "verify_quantale",
                        lambda q: AxiomReport((("distributivity", ()),)))
    assert failed_quantale_checks() == ["verify-deterministic"]


@pytest.mark.parametrize("check,leq", [
    # every pair related both ways: reflexive and transitive, not antisymmetric
    ("order-partial-order", lambda q: lambda i, j: True),
    # the join order turned upside down: a partial order with bottom on top
    ("order-bounds", lambda q: lambda i, j: q.join_table[i][j] == i),
])
def test_a_wrong_order_fails_its_order_check(check, leq):
    # verify_quantale reads the tables, never leq, so the axioms still pass
    q = builtin_quantale("godel_chain", 3)
    assert failed_quantale_checks(q) == []
    q.leq = leq(q)
    assert failed_quantale_checks(q) == [check]


@pytest.mark.parametrize("name,check,fake", [
    # each operation as qspec.checks binds it, replaced by a wrong one of
    # the same type that no other check of the suite calls
    ("add_via_biproduct", "convolution-oracle", lambda f, g: f),
    ("scalar_mul_via_tensor", "scalar-oracle", lambda s, f: f),
    ("dagger", "dagger-laws", lambda f: zero_rel(f.quantale, f.cod, f.dom)),
    ("identity_rel", "category-laws", lambda q, x: zero_rel(q, x, x)),
    ("zero_rel", "semimodule-axioms",
     lambda q, x, y: QRel(q, x, y, ((q.unit,) * y.size,) * x.size)),
])
def test_a_wrong_relation_operation_fails_its_calculus_check(monkeypatch, name, check, fake):
    assert [r.name for r in relations_suite(GODEL3, 0) if not r.passed] == []
    monkeypatch.setattr(checks_module, name, fake)
    assert [r.name for r in relations_suite(GODEL3, 0) if not r.passed] == [check]


def test_the_relation_self_test_draws_the_recorded_cases(monkeypatch):
    # the sha256 of every case that reaches the two oracles at seed 0, as the
    # suite drew them when it built every structure map once per case
    seen = []
    for name in ("add_via_biproduct", "scalar_mul_via_tensor"):

        def recording(a, b, _original=getattr(checks_module, name)):
            seen.append(repr((a, b)))
            return _original(a, b)

        monkeypatch.setattr(checks_module, name, recording)
    assert all(r.passed for r in relations_suite(GODEL3, 0))
    assert len(seen) == 2 * checks_module.RELATION_CASES
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == (
        "da50a9599e8c07d1958f36c1fec0358a95cd6b55353dd902908f8e59a0d7dcf5")


# -- topology checks on godel3 |X|=2, which is ZDF ------------------------------


def godel3_diagonal_prime():
    """A fresh godel3 |X|=2 poset and its diagonal algebra's memoized prime
    spectrum."""
    poset = enumerate_vn(X2, GODEL3)
    return poset, poset.spectra("prime")[poset.diagonal_index]


def test_a_duplicated_prime_point_fails_t0_and_the_quotient_comparison():
    checks = ("prime-t0", "quotient-comparison")
    assert all(verdicts(topology_suite(enumerate_vn(X2, GODEL3)))[c] for c in checks)
    poset, spectrum = godel3_diagonal_prime()
    primes = list(poset.spectra("prime"))
    primes[poset.diagonal_index] = spectrum._replace(
        points=spectrum.points + spectrum.points[:1])
    poset.__dict__["_spectra"]["prime"] = tuple(primes)
    broken = verdicts(topology_suite(poset))
    assert not any(broken[c] for c in checks)


def test_a_topology_foreign_to_its_spectrum_fails_restriction_continuity():
    # Vanishing sets pull back along restrictions, so only a stored topology
    # that does not come from its spectrum can fail this check: here the
    # diagonal's four prime points are made indistinguishable.
    assert verdicts(topology_suite(enumerate_vn(X2, GODEL3)))["restriction-continuity"]
    poset, spectrum = godel3_diagonal_prime()
    spectrum.__dict__["_zariski"] = closed_family_from_basis(spectrum.size, [])
    assert not verdicts(topology_suite(poset))["restriction-continuity"]


def test_a_topology_foreign_to_its_spectrum_fails_the_principal_basis_oracle():
    # The discrete space on the diagonal's prime points stays T0, and every
    # restriction out of it stays continuous (the diagonal is maximal, so it
    # is never the smaller algebra), yet it is not the space the ideals
    # generate.
    intact = verdicts(topology_suite(enumerate_vn(X2, GODEL3)))
    assert intact["principal-basis-oracle"]
    poset, spectrum = godel3_diagonal_prime()
    spectrum.__dict__["_zariski"] = closed_family_from_basis(
        spectrum.size, [{p} for p in range(spectrum.size)])
    broken = verdicts(topology_suite(poset))
    assert not broken["principal-basis-oracle"]
    assert broken["prime-t0"] and broken["restriction-continuity"]


# -- spectra checks on godel3 |X|=2: one corrupted cell of a stored table --------


def test_a_corrupted_restriction_cell_fails_restriction_functorial(monkeypatch, capsys):
    assert verdicts(spectra_suite(enumerate_vn(X2, GODEL3)))["restriction-functorial"]
    poset = enumerate_vn(X2, GODEL3)
    # a cell moved to another valid index, in any Hasse table, is found
    for kind in ("gelfand", "prime"):
        size = [s.size for s in poset.spectra(kind)]
        for (i, j), row in poset.restrictions(kind).items():
            if size[i] > 1:
                row[0] = (row[0] + 1) % size[i]
                assert restriction_mismatch(poset, kind) == (i, j)
                row[0] = (row[0] - 1) % size[i]
    (i, j), row = next(iter(poset.restrictions("gelfand").items()))
    row[0] = (row[0] + 1) % poset.spectra("gelfand")[i].size
    assert not verdicts(spectra_suite(poset))["restriction-functorial"]
    monkeypatch.setattr(cli, "enumerate_vn", lambda *args, **kwargs: poset)
    assert cli.main(["spectrum", "--quantale", "godel3", "--size", "2"]) == 1
    assert "[FAIL] restriction-functorial" in capsys.readouterr().out


def test_a_corrupted_restriction_cell_fails_comparison_naturality():
    assert verdicts(spectra_suite(enumerate_vn(X2, GODEL3)))["comparison-naturality"]
    poset = enumerate_vn(X2, GODEL3)
    kernel = poset.comparisons("kernel")
    tables = poset.restrictions("gelfand")  # one per Hasse edge
    # send a character to one with another kernel: kernel_i . r_ij moves,
    # r^p_ij . kernel_j does not
    (i, j), p, other = next(
        ((i, j), p, c) for (i, j), row in tables.items()
        for p in range(len(row)) for c in range(len(kernel[i]))
        if kernel[i][c] != kernel[i][row[p]])
    tables[i, j][p] = other
    assert not verdicts(spectra_suite(poset))["comparison-naturality"]


# -- spectra checks against one corrupted poset memo -------------------------------


def poset_with_tables(q):
    """A fresh |X|=2 poset with every restriction and comparison table
    memoized, and the index of its largest algebra, which is maximal.  A
    spectrum corrupted afterwards is read by the checks as it is, and no
    table built from it refuses first."""
    poset = enumerate_vn(X2, q)
    for kind in ("gelfand", "prime"):
        poset.restrictions(kind)
    for name in ("kernel", "indicator"):
        poset.comparisons(name)
    return poset, len(poset.algebras) - 1


def drop_first_point(poset, kind, i):
    spectra = list(poset.spectra(kind))
    spectra[i] = spectra[i]._replace(points=spectra[i].points[1:])
    poset.__dict__["_spectra"][kind] = tuple(spectra)


def test_a_dropped_prime_point_fails_kernel_bijection():
    intact = verdicts(spectra_suite(enumerate_vn(X2, GODEL3)))
    assert intact["kernel-bijection"]
    poset, top = poset_with_tables(GODEL3)
    drop_first_point(poset, "prime", top)
    broken = verdicts(spectra_suite(poset))
    assert not broken["kernel-bijection"]
    assert broken["one-idempotent-per-character"] and broken["kernel-section-identity"]


def test_a_dropped_prime_point_fails_kernel_bijection_over_zero_divisors():
    # lukasiewicz3 has zero divisors, so no comparison map checks its primes
    assert verdicts(spectra_suite(enumerate_vn(X2, LUK3)))["kernel-bijection"]
    poset = enumerate_vn(X2, LUK3)
    for kind in ("gelfand", "prime"):
        poset.restrictions(kind)
    drop_first_point(poset, "prime", len(poset.algebras) - 1)
    assert not verdicts(spectra_suite(poset))["kernel-bijection"]


def test_a_misdirected_indicator_cell_fails_kernel_section_identity(monkeypatch, capsys):
    assert verdicts(spectra_suite(enumerate_vn(X2, GODEL3)))["kernel-section-identity"]
    poset, top = poset_with_tables(GODEL3)
    kernel, indicator = poset.comparisons("kernel")[top], poset.comparisons("indicator")[top]
    # point prime point 0 at a character whose kernel is another prime point
    indicator[0] = next(r for r in range(len(kernel)) if kernel[r] != 0)
    broken = verdicts(spectra_suite(poset))
    assert not broken["kernel-section-identity"]
    assert broken["kernel-bijection"] and broken["one-idempotent-per-character"]
    monkeypatch.setattr(cli, "enumerate_vn", lambda *args, **kwargs: poset)
    assert cli.main(["spectrum", "--quantale", "godel3", "--size", "2"]) == 1
    assert ("[FAIL] kernel-section-identity  kernel of an indicator character is not "
            "the ideal") in capsys.readouterr().out


def test_a_duplicated_idempotent_fails_one_idempotent_per_character():
    intact = verdicts(spectra_suite(enumerate_vn(X2, GODEL3)))
    assert intact["one-idempotent-per-character"]
    poset, top = poset_with_tables(GODEL3)
    decompositions = list(poset.decompositions)
    dec = decompositions[top]
    decompositions[top] = dec._replace(
        idempotents=dec.idempotents + dec.idempotents[:1])
    poset.__dict__["decompositions"] = tuple(decompositions)
    broken = verdicts(spectra_suite(poset))
    assert not broken["one-idempotent-per-character"]
    assert broken["kernel-bijection"]


def test_a_zero_idempotent_fails_one_idempotent_per_character():
    # the trivial algebra {0, id} said to split along its zero member: every
    # two-valued character sends zero to 0, so none hits one idempotent
    bool2 = builtin_quantale("boolean2")
    assert verdicts(spectra_suite(enumerate_vn(X2, bool2)))["one-idempotent-per-character"]
    poset = enumerate_vn(X2, bool2)
    t = poset.trivial_index
    decompositions = list(poset.decompositions)
    decompositions[t] = decompositions[t]._replace(
        idempotents=(poset.algebras[t].semiring().zero,))
    poset.__dict__["decompositions"] = tuple(decompositions)
    results = {r.name: r for r in spectra_suite(poset)}
    assert not results["one-idempotent-per-character"].passed
    assert results["one-idempotent-per-character"].details == (
        f"A{t}: a two-valued character hits != 1 primitive idempotent")
    assert results["kernel-bijection"].passed


def test_a_dropped_character_fails_two_spectra_coincide():
    bool2 = builtin_quantale("boolean2")
    assert verdicts(spectra_suite(enumerate_vn(X2, bool2)))["two-spectra-coincide"]
    poset, top = poset_with_tables(bool2)
    drop_first_point(poset, "gelfand", top)
    broken = verdicts(spectra_suite(poset))
    assert not broken["two-spectra-coincide"]
    assert broken["kernel-bijection"]


# -- a Gelfand search that loses a two-valued character ----------------------------


def lose_the_first_two_valued_character(monkeypatch):
    """Make every algebra's Gelfand search drop its first character valued
    in {bottom, unit}."""
    real = spectra_module._characters

    def losing(algebra, target, below):
        out = real(algebra, target, below)
        if target is algebra.quantale:
            two_valued = {target.bottom, target.unit}.issuperset
            lost = next((p for p in out if two_valued(p)), None)
            if lost is not None:
                out.remove(lost)
        return out

    monkeypatch.setattr(spectra_module, "_characters", losing)


@pytest.mark.parametrize("tag", ["lukasiewicz3", "lukasiewicz4"])
def test_a_lost_two_valued_character_fails_kernel_bijection_over_zero_divisors(
        tag, monkeypatch, capsys):
    # no comparison map is built over zero divisors, so only the prime
    # spectrum, read off the Gelfand spectrum, shows the loss
    argv = ["spectrum", "--quantale", tag, "--size", "2"]
    assert cli.main(argv) == 0
    lose_the_first_two_valued_character(monkeypatch)
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "[FAIL] kernel-bijection" in out
    assert out.count("[FAIL]") == 1


def test_a_lost_two_valued_character_fails_spectrum_over_zdf_scalars(monkeypatch, capsys):
    argv = ["spectrum", "--quantale", "godel4", "--size", "2"]
    assert cli.main(argv) == 0
    lose_the_first_two_valued_character(monkeypatch)
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    # the error names the algebra by its poset index and, by its values, a
    # character of it whose kernel is no prime point's ideal
    named = re.fullmatch(r"qspec: error: A(\d+): the kernel of character \((.*)\) "
                         r"is not a prime point\n", err)
    assert named, err
    poset = enumerate_vn(X2, builtin_quantale("godel_chain", 4))
    i = int(named[1])
    gelfand, prime = poset.spectra("gelfand")[i], poset.spectra("prime")[i]
    labels = poset.quantale.elements
    rho = next(p for p in gelfand.points if ",".join(labels[v] for v in p) == named[2])
    assert gelfand.kernel_members(rho) not in set(map(prime.kernel_members, prime.points))


# -- invariant violations name the algebra A{i} and the escaped point -------------


def test_a_restriction_that_escapes_its_spectrum_names_both_algebras_and_the_point():
    poset = enumerate_vn(X2, GODEL3)
    i, j = poset.hasse[0]
    values = poset.spectra("gelfand")
    small = values[i]._replace(points=values[i].points[1:])  # loses its first point
    # the table builder names the point; the poset, which owns the indices,
    # names the edge
    with pytest.raises(InvariantViolation, match=r"^the restriction of gelfand point \("):
        restriction_table(small, values[j])
    poset.__dict__["_spectra"]["gelfand"] = values[:i] + (small,) + values[i + 1:]
    with pytest.raises(InvariantViolation) as raised:
        poset.restrictions("gelfand")
    named = re.fullmatch(rf"A{j}: Hasse edge \({i}, {j}\): the restriction of gelfand "
                         r"point \((.*)\) is not a point of the smaller algebra's spectrum",
                         str(raised.value))
    assert named, raised.value
    labels = GODEL3.elements
    point = next(p for p in values[j].points if ",".join(labels[v] for v in p) == named[1])
    assert restriction_table(values[i], values[j])[
        values[j].point_index[point]] == 0  # the lost point's index


@pytest.mark.parametrize("name,source_kind,target_kind,failure", [
    ("kernel", "gelfand", "prime", "the kernel of character ({}) is not a prime point"),
    ("indicator", "prime", "gelfand", "the indicator of prime point ({}) is not a character"),
])
def test_a_comparison_that_escapes_its_spectrum_names_the_algebra_and_the_point(
        name, source_kind, target_kind, failure):
    poset = enumerate_vn(X2, GODEL3)
    d = poset.diagonal_index
    sources, targets = poset.spectra(source_kind), poset.spectra(target_kind)
    build = getattr(spectra_module, f"{name}_table")
    first = build(sources[d], targets[d])[0]  # where the first source point goes
    lost = targets[d]._replace(points=targets[d].points[:first] + targets[d].points[first + 1:])
    with pytest.raises(InvariantViolation) as bare:
        build(sources[d], lost)
    poset.__dict__["_spectra"][target_kind] = targets[:d] + (lost,) + targets[d + 1:]
    with pytest.raises(InvariantViolation) as raised:
        poset.comparisons(name)
    labels = sources[d].target.elements
    point = ",".join(labels[v] for v in sources[d].points[0])
    assert str(bare.value) == failure.format(point)
    assert str(raised.value) == f"A{d}: " + failure.format(point)


def test_kernel_maps_over_zero_divisors_are_refused_before_any_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("a kernel table was built")

    monkeypatch.setattr(spectra_module, "kernel_table", no_table)
    poset = enumerate_vn(X2, LUK3)
    with pytest.raises(ZdfRequiredError):
        poset.comparisons("kernel")
    assert "_spectra" not in poset.__dict__
    assert len(poset.comparisons("indicator")) == len(poset.algebras)


def test_a_carrier_point_in_two_components_names_the_algebra():
    poset = enumerate_vn(X2, GODEL3)
    sheaf = build_presheaf(poset, "prime")
    assert canonical_section("1", sheaf)
    d = poset.diagonal_index
    dec = poset.decompositions[d]
    assert dec.supports == (("1",), ("2",))
    decompositions = list(poset.decompositions)
    decompositions[d] = dec._replace(supports=(("1",), ("1", "2")))
    poset.__dict__["decompositions"] = tuple(decompositions)
    with pytest.raises(InvariantViolation, match=re.escape(
            f"A{d}: carrier point '1' lies in 2 components, not exactly one")):
        canonical_section("1", sheaf)
