"""Fault injection: a corrupted algebra turns its named checks to FAIL."""

import dataclasses

import pytest

from qspec.checks import algebras_suite, spectra_suite
from qspec.quantale import builtin_quantale
from qspec.relations import carrier, diag_rel
from qspec.subalgebra import InvariantViolation, Subsemialgebra, enumerate_vn

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
