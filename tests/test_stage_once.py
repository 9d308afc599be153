"""Each pipeline stage runs once per CLI run.  The quantale axioms are
verified once, by the enumeration, and each Hasse edge table is built once
per spectrum kind the run reads; only the restriction-functorial check of
``spectrum`` builds them a second time, by design, to hold the stored
tables to their spectra.  Each algebra's characters are searched once: the
prime spectrum is read off the Gelfand spectrum.  ``check-quantale``
verifies the axioms twice, the second run being its verify-deterministic
check, and lists the endomorphisms once.  The supports of each algebra are
scanned once, and each algebra looks its members up in Hom(X, X) once.  The
relation self-test builds each structure map once per carrier, not once per
case.  Generated mode builds only the commutation masks and table rows it
reads, and evaluates no pair for a union whose two closed parts nest.  Only
the ``algebras`` report derives the inclusion order from the Hasse edges,
once."""

import functools
import importlib
import pkgutil

import pytest

import qspec
from oracles import generated_walk_unions
from qspec import cli, relations, subalgebra
from qspec.checks import relations_suite
from qspec.quantale import is_zdf, parse_quantale_tag
from qspec.relations import carrier
from qspec.subalgebra import enumerate_vn, get_endospace

COUNTED = (("quantale", "verify_quantale"), ("quantale", "endomorphisms"),
           ("spectra", "restriction_table"), ("_homsearch", "enumerate_homs"))


def wrap_everywhere(monkeypatch, home, name, wrap):
    """Replace the function qspec.<home>.<name> by wrap(function) wherever a
    qspec module bound it."""
    modules = [qspec, *(importlib.import_module(f"qspec.{m.name}")
                        for m in pkgutil.iter_modules(qspec.__path__))]
    original = getattr(importlib.import_module(f"qspec.{home}"), name)
    wrapped = wrap(original)
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapped)


def count_calls(monkeypatch):
    """Wrap each counted function; the returned dict counts the calls by
    function name."""
    calls = dict.fromkeys((name for _, name in COUNTED), 0)
    for home, name in COUNTED:

        def counting(original, _name=name):
            def counted(*args, **kwargs):
                calls[_name] += 1
                return original(*args, **kwargs)
            return counted

        wrap_everywhere(monkeypatch, home, name, counting)
    return calls


def run(command, tag, capsys, *size):
    assert cli.main([command, "--quantale", tag, *size, "--format", "json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("tag", ["godel3", "lukasiewicz3"])
@pytest.mark.parametrize("command", ["algebras", "spectrum", "sections", "verdict",
                                     "topology"])
def test_each_stage_runs_once_per_run(command, tag, monkeypatch, capsys):
    q = parse_quantale_tag(tag)
    poset = enumerate_vn(carrier("X", 2), q)
    kinds = 2 if is_zdf(q) else 1  # the prime presheaf only over ZDF scalars
    tables = {"algebras": 0, "spectrum": 4, "sections": kinds, "verdict": kinds,
              "topology": 2}[command]
    searches = 0 if command == "algebras" else len(poset.algebras)
    calls = count_calls(monkeypatch)
    run(command, tag, capsys, "--size", "2")
    assert calls == {"verify_quantale": 1, "endomorphisms": 0,
                     "restriction_table": tables * len(poset.hasse),
                     "enumerate_homs": searches}


@pytest.mark.parametrize("tag, size", [("boolean2", "3"), ("godel4", "2")])
@pytest.mark.parametrize("command", ["algebras", "spectrum", "sections", "verdict",
                                     "topology"])
def test_only_the_algebras_report_derives_the_inclusions(command, tag, size, monkeypatch,
                                                         capsys):
    posets, derived = [], []

    def recording(original):
        def recorded(*args, **kwargs):
            posets.append(original(*args, **kwargs))
            return posets[-1]
        return recorded

    wrap_everywhere(monkeypatch, "subalgebra", "enumerate_vn", recording)
    closure = subalgebra.AlgebraPoset.leq_pairs.func
    counted = functools.cached_property(lambda poset: derived.append(1) or closure(poset))
    counted.__set_name__(subalgebra.AlgebraPoset, "leq_pairs")
    monkeypatch.setattr(subalgebra.AlgebraPoset, "leq_pairs", counted)
    run(command, tag, capsys, "--size", size)
    [poset] = posets
    assert ("leq_pairs" in poset.__dict__) == (command == "algebras")
    assert len(derived) == (command == "algebras")


@pytest.mark.parametrize("tag", ["godel3", "lukasiewicz3"])
def test_check_quantale_verifies_twice_and_lists_endomorphisms_once(
        tag, monkeypatch, capsys):
    calls = count_calls(monkeypatch)
    run("check-quantale", tag, capsys)
    assert calls == {"verify_quantale": 2, "endomorphisms": 1, "restriction_table": 0,
                     "enumerate_homs": 1}


@pytest.mark.parametrize("tag", ["godel3", "lukasiewicz3"])
@pytest.mark.parametrize("command", ["algebras", "sections", "verdict"])
def test_each_algebra_has_its_supports_scanned_once(command, tag, monkeypatch, capsys):
    # every scan makes a new dict, so the distinct dicts returned count the scans
    made = []

    def recording(original):
        def recorded(a):
            made.append(original(a))
            return made[-1]
        return recorded

    wrap_everywhere(monkeypatch, "subalgebra", "support_projections", recording)
    q = parse_quantale_tag(tag)
    algebras = len(enumerate_vn(carrier("X", 2), q).algebras)
    run(command, tag, capsys, "--size", "2")
    # over non-ZDF scalars nothing decomposes, so no support is read
    assert len(set(map(id, made))) == (algebras if is_zdf(q) else 0)


@pytest.mark.parametrize("tag", ["godel3", "lukasiewicz3"])
@pytest.mark.parametrize("command", ["algebras", "spectrum", "sections", "verdict",
                                     "topology"])
def test_each_algebra_finds_its_place_in_hom_once(command, tag, monkeypatch, capsys):
    calls = []

    def counting(original):
        def counted(*args):
            calls.append(args)
            return original(*args)
        return counted

    algebras = len(enumerate_vn(carrier("X", 2), parse_quantale_tag(tag)).algebras)
    wrap_everywhere(monkeypatch, "subalgebra", "get_endospace", counting)
    run(command, tag, capsys, "--size", "2")
    # one for the enumeration, one per algebra, and for algebras the four
    # commutants of each of its five seeded samples
    commutants = 20 if command == "algebras" else 0
    assert len(calls) == 1 + algebras + commutants


def test_generated_mode_builds_only_what_it_reads(monkeypatch):
    q, x = parse_quantale_tag("boolean2"), carrier("X", 3)
    monkeypatch.setattr(subalgebra, "_space_cache", {})
    firsts = []  # each closure's first round: (fresh elements, partners)
    real = subalgebra._closure

    def recording(members, fresh, partners, *ops):
        fresh, partners = list(fresh), list(partners)
        firsts.append((fresh, partners))
        return real(members, fresh, partners, *ops)

    monkeypatch.setattr(subalgebra, "_closure", recording)
    enumerate_vn(x, q, "generated", 2)
    monkeypatch.setattr(subalgebra, "_closure", real)
    space = get_endospace(q, x)
    # the masks of 284 of the 512 elements; the rows the parent cached, or fewer
    assert len(space._comm) < space.size
    assert len(space._join_rows) <= 156 and len(space._comp_rows) <= 158
    # every closure pairs something in its first round, and there is one
    # per cl(b) and per union whose parts do not nest: a union whose parts
    # nest is its own closure, with no pair evaluated
    single, unions = generated_walk_unions(space, 2)
    nested = [(c, d) for c, d in unions if not (c & ~d and d & ~c)]
    assert nested and len(firsts) == len(single) + len(unions) - len(nested)
    assert all(fresh and partners for fresh, partners in firsts)


def test_the_relation_self_test_builds_each_structure_map_once_per_carrier():
    q = parse_quantale_tag("godel3")
    maps = ("direct_sum_set", "product_set", "diagonal_map", "codiagonal_map",
            "right_unitor")
    for name in maps:
        getattr(relations, name).cache_clear()
    relations_suite(q, 0)
    built = {name: getattr(relations, name).cache_info().misses for name in maps}
    # the pairing is built on the three X carriers and, inside the copairing,
    # on the three Y carriers: at most one build per carrier
    assert built["diagonal_map"] <= 6 and built["codiagonal_map"] <= 3
    relations_suite(q, 0)
    assert {name: getattr(relations, name).cache_info().misses for name in maps} == built
