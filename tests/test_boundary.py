"""The arithmetic boundary: past enumeration, algebra members are combined
only through their semiring tables (Subsemialgebra.semiring), never through
the entry-matrix kernels of qspec.relations."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["qspec.contextuality", "qspec.zariski", "qspec.checks"])
def test_module_binds_no_entry_kernel(module):
    names = vars(importlib.import_module(module))
    assert [n for n in names if n.startswith("_e_") or n == "_zero_entries"] == []


def test_sections_read_supports_from_the_decomposition():
    assert "support" not in vars(importlib.import_module("qspec.contextuality"))
