"""Fault injection: a corrupted input turns its named checks to FAIL."""


import pytest

from qspec import checks as checks_module, cli
from qspec.checks import algebras_suite, quantale_suite, spectra_suite, topology_suite
from qspec.contextuality import build_presheaf
from qspec.quantale import AxiomReport, builtin_quantale
from qspec.relations import carrier, diag_rel
from qspec.spectra import restriction_mismatch
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
    with pytest.raises(InvariantViolation, match="not closed"):
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
    pruned = poset._replace(algebras=poset.algebras[:t] + poset.algebras[t + 1:])
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


def failed_quantale_checks():
    return [r.name for r in quantale_suite(GODEL3) if not r.passed]


def test_an_endomorphism_list_without_the_identity_fails_endomorphism_monoid(monkeypatch):
    assert failed_quantale_checks() == []
    real = checks_module.endomorphisms
    monkeypatch.setattr(checks_module, "endomorphisms", lambda q: [
        h for h in real(q) if h.mapping != tuple(range(q.size))])
    assert failed_quantale_checks() == ["endomorphism-monoid"]


def test_a_verifier_that_changes_its_answer_fails_verify_deterministic(monkeypatch):
    assert failed_quantale_checks() == []
    real, calls = checks_module.verify_quantale, []

    def flaky(q):  # the first answer is right, every later one a made-up failure
        calls.append(q)
        return real(q) if len(calls) == 1 else AxiomReport(False, (("distributivity", ()),))

    monkeypatch.setattr(checks_module, "verify_quantale", flaky)
    assert failed_quantale_checks() == ["verify-deterministic"]


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
    spectrum.__dict__["_zariski"] = closed_family_from_basis(range(spectrum.size), [])
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
        range(spectrum.size), [{p} for p in range(spectrum.size)])
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
    with pytest.raises(InvariantViolation, match=rf"table \({i}, {j}\) is not the projection"):
        build_presheaf(poset, "gelfand")
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


def test_a_foreign_idempotent_fails_one_idempotent_per_character():
    # diag(1, 0) is no member of the trivial algebra {0, id}, so no
    # two-valued character has a value there: a failure, not a KeyError
    bool2 = builtin_quantale("boolean2")
    assert verdicts(spectra_suite(enumerate_vn(X2, bool2)))["one-idempotent-per-character"]
    poset = enumerate_vn(X2, bool2)
    t = poset.trivial_index
    decompositions = list(poset.decompositions)
    decompositions[t] = decompositions[t]._replace(
        idempotents=(diag_rel(bool2, X2, (bool2.unit, bool2.bottom)),))
    poset.__dict__["decompositions"] = tuple(decompositions)
    results = {r.name: r for r in spectra_suite(poset)}
    assert not results["one-idempotent-per-character"].passed
    assert results["one-idempotent-per-character"].details == (
        f"A{t}: a primitive idempotent is not a member of the algebra")
    assert results["kernel-bijection"].passed


def test_a_dropped_character_fails_two_spectra_coincide():
    bool2 = builtin_quantale("boolean2")
    assert verdicts(spectra_suite(enumerate_vn(X2, bool2)))["two-spectra-coincide"]
    poset, top = poset_with_tables(bool2)
    drop_first_point(poset, "gelfand", top)
    broken = verdicts(spectra_suite(poset))
    assert not broken["two-spectra-coincide"]
    assert broken["kernel-bijection"]
