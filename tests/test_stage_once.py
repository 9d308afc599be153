"""Each pipeline stage runs once per CLI run.  The quantale axioms are
verified once, by the enumeration, and each Hasse edge table is built once
per spectrum kind the run reads; only the restriction-functorial check of
``spectrum`` builds them a second time, by design, to hold the stored
tables to their spectra."""

import importlib
import pkgutil

import pytest

import qspec
from qspec import cli
from qspec.quantale import is_zdf, parse_quantale_tag
from qspec.relations import carrier
from qspec.subalgebra import enumerate_vn

COUNTED = {"quantale": "verify_quantale", "spectra": "restriction_table"}


def count_calls(monkeypatch):
    """Wrap each counted function wherever a qspec module bound it; the
    returned dict counts the calls by function name."""
    modules = [qspec, *(importlib.import_module(f"qspec.{m.name}")
                        for m in pkgutil.iter_modules(qspec.__path__))]
    calls = dict.fromkeys(COUNTED.values(), 0)
    for home, name in COUNTED.items():
        original = getattr(importlib.import_module(f"qspec.{home}"), name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("tag", ["godel3", "lukasiewicz3"])
@pytest.mark.parametrize("command", ["algebras", "spectrum", "sections", "verdict",
                                     "topology"])
def test_each_stage_runs_once_per_run(command, tag, monkeypatch, capsys):
    q = parse_quantale_tag(tag)
    hasse = len(enumerate_vn(carrier("X", 2), q).hasse)
    kinds = 2 if is_zdf(q) else 1  # the prime presheaf only over ZDF scalars
    tables = {"algebras": 0, "spectrum": 4, "sections": kinds, "verdict": kinds,
              "topology": 2}[command]
    calls = count_calls(monkeypatch)
    assert cli.main([command, "--quantale", tag, "--size", "2", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == {"verify_quantale": 1, "restriction_table": tables * hasse}
