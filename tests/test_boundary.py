"""Module boundaries.  Past enumeration, algebra members are combined only
through their semiring tables (Subsemialgebra.semiring), never through the
entry-matrix kernels of qspec.relations.  The Zariski layer reads the spectra
and index tables it is handed and computes none, and a prime point is a
Character into the two-element quantale, with no type of its own.  The
down-set scan of prime ideals and the standalone search into that quantale
(characters_to_two) are oracles of a check, not pipeline stages; the entry-matrix validators of
one character or one prime ideal live in the tests.  A global section is a
plain tuple of point indices, and the support checks read their projections
from qspec.subalgebra, not from the relation-level support."""

import importlib
import pkgutil

import pytest

import qspec

QSPEC_MODULES = sorted(f"qspec.{m.name}" for m in pkgutil.iter_modules(qspec.__path__))


@pytest.mark.parametrize("module", ["qspec.contextuality", "qspec.zariski", "qspec.checks",
                                    "qspec.spectra"])
def test_module_binds_no_entry_kernel(module):
    names = vars(importlib.import_module(module))
    assert [n for n in names if n.startswith("_e_") or n == "_zero_entries"] == []


def test_sections_read_supports_from_the_decomposition():
    assert "support" not in vars(importlib.import_module("qspec.contextuality"))


@pytest.mark.parametrize("module,names", [
    ("qspec.zariski", {"gelfand_spectrum", "prime_spectrum"}),
    *((module, {"PrimeIdeal"}) for module in ["qspec", *QSPEC_MODULES]),
    ("qspec.zariski", {"restriction_table", "kernel_table"}),
    ("qspec.checks", {"functor_law_violation", "support", "subset_idempotent"}),
    *((module, {"characters_to_two", "prime_ideal_scan"})
      for module in ["qspec.contextuality", "qspec.zariski", "qspec.cli"]),
    *((module, {"Section"}) for module in ["qspec", "qspec.contextuality"]),
])
def test_module_binds_none_of(module, names):
    assert names.isdisjoint(vars(importlib.import_module(module)))
