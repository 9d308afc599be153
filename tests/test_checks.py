"""Fault injection: a corrupted input turns its named checks to FAIL."""

import dataclasses

import pytest

from qspec.checks import algebras_suite, spectra_suite, topology_suite
from qspec.quantale import builtin_quantale
from qspec.relations import carrier, diag_rel
from qspec.subalgebra import InvariantViolation, Subsemialgebra, enumerate_vn
from qspec.zariski import closed_family_from_basis

# lukasiewicz3 has zero divisors, so algebras_suite skips the decomposition,
# which would refuse the corrupted (no longer von Neumann) algebra outright.
LUK3 = builtin_quantale("lukasiewicz_chain", 3)
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
    return dataclasses.replace(poset, algebras=algebras), broken


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


# -- topology checks on godel3 |X|=2, which is ZDF ------------------------------

GODEL3 = builtin_quantale("godel_chain", 3)


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
    primes[poset.diagonal_index] = dataclasses.replace(
        spectrum, points=spectrum.points + spectrum.points[:1])
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


def test_a_corrupted_restriction_cell_fails_restriction_functorial():
    assert verdicts(spectra_suite(enumerate_vn(X2, GODEL3)))["restriction-functorial"]
    poset = enumerate_vn(X2, GODEL3)
    tables = poset.restrictions("gelfand")
    i, _, k = next((i, j, k) for (i, j) in tables for (j2, k) in tables
                   if j2 == j and (i, k) in tables)
    row = tables[i, k]  # r_ik, which must equal r_ij . r_jk
    row[0] = (row[0] + 1) % poset.spectra("gelfand")[i].size
    assert not verdicts(spectra_suite(poset))["restriction-functorial"]


def test_a_corrupted_restriction_cell_fails_comparison_naturality():
    assert verdicts(spectra_suite(enumerate_vn(X2, GODEL3)))["comparison-naturality"]
    poset = enumerate_vn(X2, GODEL3)
    kernel = poset.comparisons("kernel")
    tables = poset.restrictions("gelfand")
    # send a character to one with another kernel: kernel_i . r_ij moves,
    # r^p_ij . kernel_j does not
    (i, j), p, other = next(
        ((i, j), p, c) for (i, j), row in tables.items()
        for p in range(len(row)) for c in range(len(kernel[i]))
        if kernel[i][c] != kernel[i][row[p]])
    tables[i, j][p] = other
    assert not verdicts(spectra_suite(poset))["comparison-naturality"]
