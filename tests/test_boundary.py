"""Module boundaries.  Past enumeration, algebra members are combined only
through their semiring tables (Subsemialgebra.semiring), never through the
entry-matrix kernels of qspec.relations.  The Zariski layer reads the spectra
and index tables it is handed and computes none, and a prime point is a
Character into the two-element quantale, with no type of its own.  The
down-set scan of prime ideals and the standalone search into that quantale
(characters_to_two) are oracles of a check, not pipeline stages; the entry-matrix validators of
one character or one prime ideal live in the tests.  A global section is a
plain tuple of point indices, and the support checks read their projections
from qspec.subalgebra, not from the relation-level support.  The records are
namedtuples, so starting the CLI loads neither dataclasses nor the modules
only a few commands need."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qspec
from qspec.quantale import builtin_quantale
from qspec.relations import FiniteSet, carrier, identity_rel
from qspec.spectra import gelfand_spectrum
from qspec.subalgebra import diagonal_algebra

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


def test_the_cli_starts_without_the_heavy_modules():
    # -S keeps the host's site hooks (.pth files) out of sys.modules
    src = str(Path(qspec.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qspec.cli; "
            "print(' '.join(sorted(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-S", "-c", code, src], check=True,
                            capture_output=True, text=True).stdout.split()
    assert "qspec.cli" in loaded
    heavy = {"dataclasses", "inspect", "hashlib", "fractions", "decimal"}
    assert heavy.isdisjoint(loaded)


def test_points_and_relations_carry_no_instance_dict():
    x = carrier("X", 2)
    q = builtin_quantale("godel_chain", 3)
    rho = gelfand_spectrum(diagonal_algebra(x, q)).points[0]
    for record in (rho, identity_rel(q, x)):
        assert not hasattr(record, "__dict__")


def test_records_hash_as_their_field_tuples():
    x = carrier("X", 2)
    q = builtin_quantale("boolean2")
    for record in (identity_rel(q, x), diagonal_algebra(x, q)):
        assert hash(record) == hash(tuple(record))


def test_a_carrier_with_a_repeated_point_is_refused():
    with pytest.raises(ValueError, match="duplicate point ids in 'X'"):
        FiniteSet("X", ("1", "1"))
    with pytest.raises(ValueError, match="duplicate point ids in 'X'"):
        carrier("X", 2)._replace(elements=("1", "1"))
