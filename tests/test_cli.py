"""The qspec command line driver: reports, exit codes, determinism."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qspec.cli as cli
import qspec.contextuality as ctx
import qspec.subalgebra as sub
from qspec.cli import main
from qspec.quantale import builtin_quantale
from qspec.relations import carrier, diag_rel
from qspec.subalgebra import InvariantViolation


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_quantale_text(capsys):
    code, out, _ = run_cli(capsys, "check-quantale", "--quantale", "godel3")
    assert code == 0
    assert "[PASS] axioms" in out
    assert "result: ok" in out


def test_check_quantale_json_includes_zdf_witness(capsys):
    code, out, _ = run_cli(capsys, "check-quantale", "--quantale", "lukasiewicz3",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["zdf"] is False
    assert report["zdf_witness"] == ["1/2", "1/2"]
    assert report["passed"] is True


def test_check_quantale_from_file(tmp_path, capsys):
    doc = {
        "name": "b2", "elements": ["0", "1"],
        "join": [["0", "1"], ["1", "1"]],
        "mul": [["0", "0"], ["0", "1"]],
        "unit": "1",
    }
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check-quantale", "--file", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["document"] == doc


def test_non_string_id_in_a_document_exits_two(tmp_path, capsys):
    doc = {
        "name": "b2", "elements": ["0", "1"],
        "join": [["0", "1"], ["1", "1"]],
        "mul": [["0", "0"], ["0", "1"]],
        "unit": ["1"],
    }
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check-quantale", "--file", str(path))
    assert code == 2
    assert "unknown element id ['1'] for unit" in err


@pytest.mark.parametrize("text", ["{name: 'b2'}", "", "\xff"],
                         ids=["not-json", "empty", "not-utf8"])
def test_a_file_that_is_not_json_exits_two_naming_it(text, tmp_path, capsys):
    path = tmp_path / "b2.json"
    path.write_bytes(text.encode("latin-1"))
    code, out, err = run_cli(capsys, "check-quantale", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"qspec: error: parse error: {str(path)!r} is not a JSON document: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_a_missing_file_exits_two_naming_it(tmp_path, capsys):
    path = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, "verdict", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("qspec: error: ") and repr(str(path)) in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_broken_quantale_fails_with_exit_one(tmp_path, capsys):
    doc = {
        "name": "broken", "elements": ["0", "1"],
        "join": [["0", "1"], ["1", "0"]],  # not commutative-idempotent at (1,1)
        "mul": [["0", "0"], ["0", "1"]],
        "unit": "1",
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check-quantale", "--file", str(path))
    assert code == 1
    assert "[FAIL] axioms" in out


NOT_A_QUANTALE = {  # the chain 0 < a < 1 with a·a = 1 and a·1 = a
    "name": "chain", "elements": ["0", "a", "1"],
    "join": [["0", "a", "1"], ["a", "a", "1"], ["1", "1", "1"]],
    "mul": [["0", "0", "0"], ["0", "1", "a"], ["0", "a", "1"]],
    "unit": "1",
}


@pytest.mark.parametrize("command", ["algebras", "spectrum", "sections", "verdict", "topology"])
def test_enumerating_commands_refuse_a_table_that_is_not_a_quantale(
        command, tmp_path, monkeypatch, capsys):
    built = []
    monkeypatch.setattr(sub, "get_endospace", lambda *args: built.append(args))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(NOT_A_QUANTALE))
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert built == []  # refused before any Hom(X,X) space was built
    assert code == 2
    assert out == ""
    assert err == "qspec: error: not a quantale: distributivity fails at (a, a, 1)\n"


@pytest.mark.parametrize("tag", ["nonsense7", ""])
def test_invalid_config_exits_two(tag, capsys):
    code, _, err = run_cli(capsys, "check-quantale", "--quantale", tag)
    assert code == 2
    assert err == f"qspec: error: unknown builtin quantale tag {tag!r}\n"


@pytest.mark.parametrize("command", ["check-quantale", "verdict"])
def test_a_deeply_nested_file_exits_two_naming_it(command, tmp_path, capsys):
    # the JSON decoder recurses once per nesting level and stops at the limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"qspec: error: parse error: {str(path)!r} is not a JSON document: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_algebras_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "algebras", "--quantale", "boolean2",
                           "--size", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert len(report["poset"]["algebras"]) == 7
    assert report["poset"]["complete"] is True
    code, out, _ = run_cli(capsys, "algebras", "--quantale", "boolean2",
                           "--size", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph algebras")


def test_spectrum_selector(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--quantale", "godel3",
                           "--size", "2", "--algebra", "diagonal",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    (entry,) = report["spectra"].values()
    assert len(entry["characters"]) == 6
    assert len(entry["prime_ideals"]) == 4
    assert sorted(entry["kernel_map"]) == [0, 0, 1, 2, 2, 3]


def test_sections_command(capsys):
    code, out, _ = run_cli(capsys, "sections", "--quantale", "boolean2",
                           "--size", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert len(report["gelfand_sections"]) == 2
    assert len(report["prime_sections"]) == 2


def test_verdict_exit_status_and_content(capsys):
    code, out, _ = run_cli(capsys, "verdict", "--quantale", "boolean2",
                           "--size", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["contextual"] is False
    assert report["passed"] is True


def test_topology_example_shape(capsys):
    code, out, _ = run_cli(capsys, "topology", "--quantale", "godel3",
                           "--size", "2", "--algebra", "diagonal",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    (entry,) = report["topologies"].values()
    assert entry["prime"]["t0"] is True
    assert entry["prime"]["t1"] is False
    assert entry["gelfand"]["t0"] is False
    assert len(entry["gelfand"]["indistinguishable_pairs"]) == 2
    assert entry["gelfand"]["quotient_points"] == 4


def test_verdict_json_is_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["verdict", "--quantale", "godel3", "--size", "2",
                     "--seed", "7", "--format", "json", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _no_work(*args):
    raise AssertionError("the command started before its output options were checked")


@pytest.mark.parametrize("command",
                         ["check-quantale", "spectrum", "sections", "verdict", "topology"])
def test_dot_output_outside_algebras_is_refused_before_any_work(monkeypatch, capsys,
                                                                command):
    monkeypatch.setattr(cli, "_load_quantale", _no_work)
    code, out, err = run_cli(capsys, command, "--quantale", "godel5", "--format", "dot")
    assert (code, out) == (2, "")
    assert err == "qspec: error: dot output is only available for the algebras command\n"


def test_an_unwritable_out_path_is_refused_before_any_work(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "_load_quantale", _no_work)
    plain = tmp_path / "plain.txt"
    plain.write_text("kept\n")
    for path in (tmp_path / "missing" / "x.json", tmp_path, plain / "x.json"):
        code, out, err = run_cli(capsys, "topology", "--quantale", "godel5", "--size", "2",
                                 "--out", str(path))
        assert (code, out) == (2, "")
        with pytest.raises(OSError) as opened:  # the message open() itself gives
            open(path, "w")
        assert err == f"qspec: error: {opened.value}\n"
    assert not (tmp_path / "missing").exists()
    assert plain.read_text() == "kept\n"


def test_a_run_that_fails_later_leaves_the_out_file_untouched(monkeypatch, capsys,
                                                             tmp_path):
    def exhausted(*args, **kwargs):
        raise MemoryError

    old, fresh = tmp_path / "old.json", tmp_path / "fresh.json"
    old.write_text("previous report\n")
    with monkeypatch.context() as m:
        m.setattr(cli, "enumerate_vn", exhausted)
        for path in (old, fresh):
            code, out, _ = run_cli(capsys, "algebras", "--quantale", "boolean2",
                                   "--size", "2", "--format", "json", "--out", str(path))
            assert (code, out) == (2, "")
    assert old.read_text() == "previous report\n"
    assert not fresh.exists()
    code, _, _ = run_cli(capsys, "algebras", "--quantale", "boolean2", "--size", "2",
                         "--format", "json", "--out", str(old))
    assert code == 0
    assert json.loads(old.read_text())["command"] == "algebras"


def test_entry_point_runs_in_a_subprocess(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path
    out = tmp_path / "r.json"
    # the child imports the same qspec as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qspec.cli", "sections", "--quantale", "boolean2",
         "--size", "2", "--format", "json", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["passed"] is True


def test_generated_mode_flag(capsys):
    code, out, _ = run_cli(capsys, "algebras", "--quantale", "godel3",
                           "--size", "2", "--mode", "generated",
                           "--max-generators", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["poset"]["complete"] is False
    assert report["poset"]["mode"] == "generated"


def test_a_negative_generator_count_exits_two(capsys):
    for command in ("algebras", "verdict"):
        code, out, err = run_cli(capsys, command, "--quantale", "boolean2", "--size", "3",
                                 "--mode", "generated", "--max-generators", "-1")
        assert code == 2, command
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("qspec: error:")
        assert "--max-generators" in err


def test_no_generators_gives_the_trivial_and_diagonal_algebras(capsys):
    code, out, _ = run_cli(capsys, "algebras", "--quantale", "boolean2", "--size", "3",
                           "--mode", "generated", "--max-generators", "0", "--format", "json")
    assert code == 0
    poset = json.loads(out)["poset"]
    # the scalar multiples of the identity, and the 2^3 diagonal relations
    assert [a["size"] for a in poset["algebras"]] == [2, 8]


def test_unknown_algebra_selector(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--quantale", "boolean2",
                           "--size", "2", "--algebra", "zorp")
    assert code == 2
    assert "selector" in err


def test_bound_overflow_exits_two_for_every_enumerating_command(monkeypatch, capsys):
    monkeypatch.setenv("QSPEC_MAX_HOM_SIZE", "10")
    monkeypatch.setattr(sub, "_space_cache", {})
    for command in ("algebras", "sections", "verdict"):
        code, out, err = run_cli(capsys, command, "--quantale", "boolean2", "--size", "2")
        assert code == 2, command
        assert "exceeds the bound" in err
        assert out == ""


@pytest.mark.parametrize("value", ["abc", "", "1e5"])
def test_an_invalid_hom_bound_names_the_variable(monkeypatch, capsys, value):
    monkeypatch.setenv("QSPEC_MAX_HOM_SIZE", value)
    monkeypatch.setattr(sub, "_space_cache", {})
    code, out, err = run_cli(capsys, "algebras", "--quantale", "boolean2", "--size", "2")
    assert (code, out) == (2, "")
    assert err == f"qspec: error: QSPEC_MAX_HOM_SIZE must be an integer, not {value!r}\n"


def test_a_carrier_past_the_bound_names_the_knob(monkeypatch, capsys):
    # |Hom(X,X)| = 3^90000 has more digits than int-to-str conversion allows
    monkeypatch.delenv("QSPEC_MAX_HOM_SIZE", raising=False)
    code, out, err = run_cli(capsys, "algebras", "--quantale", "godel3", "--size", "300")
    assert (code, out) == (2, "")
    assert err == ("qspec: error: |Hom(X,X)| = 3^90000 exceeds the bound 65536; use "
                   "a smaller carrier or raise QSPEC_MAX_HOM_SIZE\n")


def test_the_bound_refusal_in_generated_mode_gives_no_generated_mode_advice(
        monkeypatch, capsys):
    # generated mode builds the same Hom(X,X) space, so it cannot help
    monkeypatch.setenv("QSPEC_MAX_HOM_SIZE", "10")
    monkeypatch.setattr(sub, "_space_cache", {})
    code, out, err = run_cli(capsys, "algebras", "--quantale", "boolean2", "--size", "2",
                             "--mode", "generated")
    assert (code, out) == (2, "")
    assert err == ("qspec: error: |Hom(X,X)| = 16 exceeds the bound 10; use "
                   "a smaller carrier or raise QSPEC_MAX_HOM_SIZE\n")


def test_a_carrier_far_past_the_bound_is_refused_at_once():
    # the exact power 3^(10^8) would take minutes to compute
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "QSPEC_MAX_HOM_SIZE"}
    done = subprocess.run(
        [sys.executable, "-m", "qspec.cli", "algebras", "--quantale", "godel3",
         "--size", "10000"],
        env={**env, "PYTHONPATH": src}, capture_output=True, text=True, timeout=5)
    assert done.returncode == 2
    assert "|Hom(X,X)| = 3^100000000 exceeds the bound 65536" in done.stderr


@pytest.mark.parametrize("command", ["algebras", "spectrum", "sections", "verdict",
                                     "topology"])
@pytest.mark.parametrize("size", [1_000_000, 99999999999999999999])
def test_a_size_past_the_bound_is_refused_before_its_carrier_is_built(
        command, size, monkeypatch, capsys):
    monkeypatch.delenv("QSPEC_MAX_HOM_SIZE", raising=False)

    def small_carriers_only(name, n):
        assert n < 1000, "a carrier of a refused size was built"
        return carrier(name, n)

    monkeypatch.setattr(cli, "carrier", small_carriers_only)
    code, out, err = run_cli(capsys, command, "--quantale", "boolean2", "--size", str(size))
    assert (code, out) == (2, "")
    assert err == (f"qspec: error: |Hom(X,X)| = 2^{size * size} exceeds the bound 65536; "
                   "use a smaller carrier or raise QSPEC_MAX_HOM_SIZE\n")


ONE_ELEMENT = {"elements": ["0"], "join": [["0"]], "mul": [["0"]], "name": "one",
               "unit": "0"}


@pytest.mark.parametrize("command", ["algebras", "spectrum", "sections", "verdict",
                                     "topology"])
def test_a_one_element_table_is_refused_before_its_carrier_is_built(
        command, monkeypatch, capsys, tmp_path):
    # 1^(n·n) passes every bound, so only the axioms can refuse such a size
    def small_carriers_only(name, n):
        assert n < 1000, "a carrier for a one-element table was built"
        return carrier(name, n)

    monkeypatch.setattr(cli, "carrier", small_carriers_only)
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ONE_ELEMENT))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--file", str(path), "--size", str(10**20))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "qspec: error: not a quantale: non-trivial fails at ()\n"


def test_memory_exhaustion_exits_two_and_names_the_knobs(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    import qspec.contextuality as contextuality
    monkeypatch.setattr(cli, "enumerate_vn", exhausted)
    monkeypatch.setattr(contextuality, "enumerate_vn", exhausted)
    for command in ("algebras", "spectrum", "verdict"):
        code, out, err = run_cli(capsys, command, "--quantale", "boolean2", "--size", "2")
        assert code == 2, command
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("qspec: error:")
        assert "--size" in err and "QSPEC_MAX_HOM_SIZE" in err


def test_failed_verdict_is_a_failed_check(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantViolation("functor law broken along 0 <= 1 <= 2")

    monkeypatch.setattr(cli, "ks_verdict", broken)
    code, out, _ = run_cli(capsys, "verdict", "--quantale", "boolean2", "--size", "2")
    assert code == 1
    assert "[FAIL] verdict-computed  functor law broken" in out
    code, out, _ = run_cli(capsys, "sections", "--quantale", "boolean2", "--size", "2",
                           "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["gelfand_sections"] is None and report["prime_sections"] is None
    assert report["checks"] == [{"name": "verdict-computed", "passed": False,
                                 "details": "functor law broken along 0 <= 1 <= 2"}]


def test_bad_input_from_the_verdict_exits_two(monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise ValueError("unknown enumeration mode 'sideways'")

    monkeypatch.setattr(cli, "ks_verdict", refused)
    for command in ("verdict", "sections"):
        code, out, err = run_cli(capsys, command, "--quantale", "boolean2", "--size", "2")
        assert code == 2, command
        assert out == ""
        assert err == "qspec: error: unknown enumeration mode 'sideways'\n"


def test_programming_errors_in_the_verdict_propagate(monkeypatch):
    def buggy(*args, **kwargs):
        raise TypeError("unhashable type")

    monkeypatch.setattr(cli, "ks_verdict", buggy)
    with pytest.raises(TypeError):
        main(["verdict", "--quantale", "boolean2", "--size", "2"])


def test_route_agreement_is_read_from_the_verdict(monkeypatch, capsys):
    real = cli.ks_verdict

    def doctored(*args, **kwargs):  # scalar sections without prime ones
        return real(*args, **kwargs)._replace(prime_sections=())

    argv = ("verdict", "--quantale", "boolean2", "--size", "2", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(cli, "ks_verdict", doctored)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    route = next(c for c in json.loads(out)["checks"] if c["name"] == "route-agreement")
    assert route == {"name": "route-agreement", "passed": False,
                     "details": "scalar and prime searches agree (cross-transports verified)"}


def test_a_verdict_missing_a_canonical_section_fails_its_count(monkeypatch, capsys):
    real = cli.ks_verdict

    def doctored(*args, **kwargs):  # the search "lost" the section of point 1
        v = real(*args, **kwargs)
        lost = v.canonical_by_point["1"]
        return v._replace(
            prime_sections=tuple(s for s in v.prime_sections if s != lost),
            element_map={s: p for s, p in v.element_map.items() if s != lost})

    monkeypatch.setattr(cli, "ks_verdict", doctored)
    code, out, _ = run_cli(capsys, "verdict", "--quantale", "godel3", "--size", "2",
                           "--format", "json")
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == [{"name": "canonical-sections-count", "passed": False,
                       "details": "one distinct canonical section per carrier point"}]


def test_a_zero_idempotent_fails_the_verdict_computed_check(monkeypatch, capsys):
    # the trivial algebra {0, id} said to split along its zero member: every
    # prime section is 0 there, so none keeps that one component
    real = sub.enumerate_vn

    def zeroed(*args, **kwargs):
        poset = real(*args, **kwargs)
        t = poset.trivial_index
        decompositions = list(poset.decompositions)
        decompositions[t] = decompositions[t]._replace(
            idempotents=(poset.algebras[t].semiring().zero,))
        poset.__dict__["decompositions"] = tuple(decompositions)
        return poset

    monkeypatch.setattr(ctx, "enumerate_vn", zeroed)
    t = real(carrier("X", 2), builtin_quantale("boolean2")).trivial_index
    for command in ("verdict", "sections"):
        code, out, _ = run_cli(capsys, command, "--quantale", "boolean2", "--size", "2")
        assert code == 1, command
        assert (f"[FAIL] verdict-computed  A{t}: section does not isolate one component"
                in out), command


@pytest.mark.parametrize("element,wrong,check,detail", [
    # diag(1, 0) said to hold both points: its projection is id, a member,
    # but no support is {0} any more, so the diagonal's atoms miss point 0
    ("diagonal", (0, 1), "decomposition", "support atoms do not cover the carrier"),
    # zero said to hold point 0: diag(1, 0) escapes the trivial algebra
    ("trivial", (0,), "support-projections", "support projection escaped the algebra"),
])
def test_a_wrong_support_table_entry_fails_algebras(element, wrong, check, detail,
                                                    monkeypatch, capsys):
    q, x = builtin_quantale("boolean2"), carrier("X", 2)
    space = sub.get_endospace(q, x)
    i = space.index[diag_rel(q, x, (q.unit, q.bottom) if element == "diagonal"
                             else (q.bottom, q.bottom)).entries]
    monkeypatch.setitem(space._supports, i, frozenset(wrong))
    code, out, _ = run_cli(capsys, "algebras", "--quantale", "boolean2", "--size", "2")
    assert code == 1
    assert f"[FAIL] {check}" in out
    a = getattr(sub.enumerate_vn(x, q), f"{element}_index")
    assert f"[FAIL] decomposition  A{a}: {detail}" in out


def test_a_poset_without_the_diagonal_fails_the_verdict(monkeypatch, capsys):
    real = sub.enumerate_vn

    def without_diagonal(*args, **kwargs):
        poset = real(*args, **kwargs)
        poset.__dict__["diagonal_index"] = None
        return poset

    monkeypatch.setattr(ctx, "enumerate_vn", without_diagonal)
    for command in ("verdict", "sections"):
        code, out, err = run_cli(capsys, command, "--quantale", "boolean2", "--size", "2")
        assert code == 1, command
        assert err == ""
        assert ("[FAIL] verdict-computed  the diagonal algebra is not part of the poset"
                in out)


def test_a_hasse_edge_that_is_no_inclusion_fails_the_verdict(monkeypatch, capsys):
    real = sub.enumerate_vn

    def reversed_edge(*args, **kwargs):  # the top of the first edge placed below its bottom
        poset = real(*args, **kwargs)
        i, j = poset.hasse[0]
        return poset._replace(hasse=poset.hasse + ((j, i),))

    monkeypatch.setattr(ctx, "enumerate_vn", reversed_edge)
    poset = real(carrier("X", 2), builtin_quantale("boolean2"))
    i, j = poset.hasse[0]
    code, out, err = run_cli(capsys, "verdict", "--quantale", "boolean2", "--size", "2")
    assert code == 1
    assert err == ""
    assert (f"[FAIL] verdict-computed  A{i}: Hasse edge ({j}, {i}): "
            "not an inclusion of algebras") in out


def test_a_restriction_that_escapes_its_spectrum_fails_the_verdict(monkeypatch, capsys):
    real = sub.enumerate_vn

    def losing_a_point(*args, **kwargs):  # the bottom of the first edge loses a character
        poset = real(*args, **kwargs)
        i = poset.hasse[0][0]
        values = poset.spectra("gelfand")
        small = values[i]._replace(points=values[i].points[1:])
        poset.__dict__["_spectra"]["gelfand"] = values[:i] + (small,) + values[i + 1:]
        return poset

    monkeypatch.setattr(ctx, "enumerate_vn", losing_a_point)
    i, j = real(carrier("X", 2), builtin_quantale("godel_chain", 3)).hasse[0]
    code, out, err = run_cli(capsys, "verdict", "--quantale", "godel3", "--size", "2")
    assert (code, err) == (1, "")
    line = next(t for t in out.splitlines() if t.startswith("[FAIL] verdict-computed"))
    assert re.fullmatch(rf"\[FAIL\] verdict-computed  A{j}: Hasse edge \({i}, {j}\): "
                        r"the restriction of gelfand point \([^()]*\) is not a point "
                        r"of the smaller algebra's spectrum", line), line


@pytest.mark.parametrize("command", ["algebras", "spectrum", "topology"])
def test_a_broken_invariant_outside_the_verdict_exits_one(command, monkeypatch, capsys,
                                                           tmp_path):
    real = sub.enumerate_vn

    def foreign_edge(*args, **kwargs):  # the largest algebra placed below the trivial one
        poset = real(*args, **kwargs)
        return poset._replace(hasse=poset.hasse + ((len(poset.algebras) - 1, 0),))

    monkeypatch.setattr(cli, "enumerate_vn", foreign_edge)
    top = len(real(carrier("X", 2), builtin_quantale("godel_chain", 3)).algebras) - 1
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")
    code, out, err = run_cli(capsys, command, "--quantale", "godel3", "--size", "2",
                             "--out", str(path))
    assert (code, out) == (1, "")
    assert err == (f"qspec: error: A0: Hasse edge ({top}, 0): "
                   "not an inclusion of algebras\n")
    assert path.read_text() == "earlier report\n"


# -- memory management: the collector is paused during main -----------------------


ENUMERATING = ("algebras", "spectrum", "sections", "verdict", "topology")


def cyclic_garbage_of(argv, capsys):
    """The objects a collection frees after main(argv) ran with the collector
    paused: the reference cycles the run left behind."""
    gc.collect()
    gc.disable()
    try:
        main(argv)
        capsys.readouterr()
        return gc.collect()
    finally:
        gc.enable()


def test_no_run_leaves_cycles_that_grow_with_its_input(capsys):
    # main pauses the collector because nothing it would free grows with the
    # input: each command's parser is the same at every size and quantale
    runs = {command: [(command, "--quantale", "boolean2", "--size", size)
                      for size in ("2", "3")] for command in ENUMERATING}
    runs["verdict"].append(("verdict", "--quantale", "godel3", "--size", "2"))
    runs["check-quantale"] = [("check-quantale", "--quantale", tag)
                              for tag in ("boolean2", "godel3")]
    for argvs in runs.values():  # warm up, so that no first-run import is counted
        main([*argvs[0], "--format", "json"])
    freed = {argv: cyclic_garbage_of([*argv, "--format", "json"], capsys)
             for argvs in runs.values() for argv in argvs}
    for command, argvs in runs.items():
        assert len({freed[argv] for argv in argvs}) == 1, (command, freed)


def _exit_one(monkeypatch):  # a Hasse edge that is no inclusion: a failed check
    real = sub.enumerate_vn

    def reversed_edge(*args, **kwargs):
        poset = real(*args, **kwargs)
        i, j = poset.hasse[0]
        return poset._replace(hasse=poset.hasse + ((j, i),))

    monkeypatch.setattr(ctx, "enumerate_vn", reversed_edge)
    return ["verdict", "--quantale", "boolean2", "--size", "2"], 1


def _out_of_memory(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "enumerate_vn", exhausted)
    return ["algebras", "--quantale", "boolean2", "--size", "2"], 2


EXIT_PATHS = {
    "ok": lambda mp: (["check-quantale", "--quantale", "boolean2"], 0),
    "failed check": _exit_one,
    "bad input": lambda mp: (["check-quantale", "--quantale", "nonsense7"], 2),
    "refused size": lambda mp: (["algebras", "--quantale", "boolean2",
                                 "--size", str(10**20)], 2),
    "out of memory": _out_of_memory,
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", EXIT_PATHS)
def test_main_leaves_the_collector_as_the_caller_had_it(path, enabled, monkeypatch,
                                                        capsys):
    argv, status = EXIT_PATHS[path](monkeypatch)
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == status
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_an_argparse_exit_leaves_the_collector_as_the_caller_had_it(enabled, capsys):
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(SystemExit) as exited:
            main(["verdict", "--size", "2"])  # no quantale source
        assert exited.value.code == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable()
    capsys.readouterr()


# a value for each option but the sources, unlike its default
VALUES = {"--size": "3", "--mode": "generated", "--max-generators": "1", "--format": "json",
          "--out": "r.txt", "--seed": "4", "--algebra": "diagonal"}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_the_canonical_parser_reads_argv_as_argparse(command):
    # every subset of the command's options, in two orders, from either source
    parse = cli._parser().parse_args
    options = [o for o, (*_, commands) in cli._OPTIONS.items()
               if command in commands and o in VALUES]
    for mask in range(1 << len(options)):
        pairs = [[o, VALUES[o]] for i, o in enumerate(options) if mask >> i & 1]
        for source in (["--quantale", "boolean2"], ["--file", "q.json"]):
            for order in (pairs + [source], [source] + pairs[::-1]):
                argv = [command, *(word for pair in order for word in pair)]
                assert vars(cli._canonical(argv)) == vars(parse(argv)), argv


@pytest.mark.parametrize("argv", [
    ["bogus"], ["verdict", "--quantale", "boolean2", "--bogus"], ["--help"], [],
    ["verdict", "-h"],
    ["verdict", "--size", "2"],  # no source
    ["verdict", "--quantale", "boolean2", "--file", "q.json"],
    ["verdict", "--quantale", "boolean2", "--size", "two"],
    ["verdict", "--quantale", "boolean2", "--out", "-x"],  # an option, not a value
    ["verdict", "--quantale", "boolean2", "--mode", "lazy"],
    ["check-quantale", "--quantale", "boolean2", "--size", "2"],  # another command's option
    ["verdict", "--quantale", "boolean2", "--algebra", "all"],
    # more digits than int() converts: argparse's invalid-int error, not int()'s
    *(["verdict", "--quantale", "boolean2", option, "9" * (sys.get_int_max_str_digits() + 1)]
      for option in ("--size", "--seed", "--max-generators")),
])
def test_argument_errors_and_help_are_the_full_parsers(argv, capsys):
    assert cli._canonical(argv) is None
    written = []
    for parse in (main, cli._parser().parse_args):
        with pytest.raises(SystemExit) as exited:
            parse(argv)
        written.append((exited.value.code, capsys.readouterr()))
    assert written[0] == written[1]
    assert written[0][1].err or written[0][1].out.startswith("usage: qspec")


@pytest.mark.parametrize("argv,seed", [
    (["--quant", "boolean2"], 0),
    (["--quantale", "boolean2", "--seed=3"], 3),
    (["--quantale", "boolean2", "--seed", "-1"], -1),
    (["--quantale", "godel3", "--seed", "5", "--quantale", "boolean2"], 5),  # the last wins
])
def test_argparse_reads_the_argv_the_canonical_parser_refuses(argv, seed, capsys):
    argv = ["verdict", "--size", "1", "--format", "json", *argv]
    assert cli._canonical(argv) is None
    expected = vars(cli._canonical(["verdict", "--size", "1", "--format", "json",
                                    "--quantale", "boolean2"]))
    assert vars(cli._parser().parse_args(argv)) == {**expected, "seed": seed}
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["config"] == {"quantale": "boolean2", "seed": seed, "size": 1,
                                         "mode": "exhaustive", "max_generators": 2}


def run_entry(*args, code=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Run `python -m qspec.cli ARGS`, or `python -c CODE ARGS` where CODE
    enters the CLI as `-m` does, in a child that imports this qspec and
    buffers stdout as Python does by default."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    head = ["-m", "qspec.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], stdout=stdout, stderr=stderr,
                          text=True, env={**env, "PYTHONPATH": path}, timeout=60)


# the largest algebra placed below the trivial one, then the CLI's __main__ block
FOREIGN_EDGE = """
import runpy
import qspec.subalgebra as sub
real = sub.enumerate_vn
def foreign_edge(*args, **kwargs):
    poset = real(*args, **kwargs)
    return poset._replace(hasse=poset.hasse + ((len(poset.algebras) - 1, 0),))
sub.enumerate_vn = foreign_edge
runpy.run_module("qspec.cli", run_name="__main__", alter_sys=True)
"""


def test_the_process_entry_writes_the_golden_report_and_one_error_line(tmp_path):
    from test_golden import GOLDEN

    out = tmp_path / "r.json"
    done = run_entry("verdict", "--quantale", "godel3", "--size", "2", "--format", "json",
                     "--out", str(out))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[("verdict", "godel3")]
    failed = run_entry("topology", "--quantale", "godel3", "--size", "2", code=FOREIGN_EDGE)
    refused = run_entry("algebras", "--quantale", "nonsense7")
    for done, status in ((failed, 1), (refused, 2)):
        assert (done.returncode, done.stdout) == (status, "")
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("qspec: error:")


# main replaced by one that leaves its report in the buffer, or that exits
# as argparse does, then the process entry
ENTRY = """
import atexit, sys
import qspec.cli as cli
atexit.register(print, "teardown")
def main():
    if sys.argv[1:] == ["exit"]:
        sys.exit(2)
    sys.stdout.write("report")
    return 3
cli.main = main
cli.entry()
"""


def test_the_process_entry_flushes_and_skips_teardown_once_main_returns():
    returned, exited = run_entry(code=ENTRY), run_entry("exit", code=ENTRY)
    assert (returned.returncode, returned.stdout, returned.stderr) == (3, "report", "")
    assert (exited.returncode, exited.stdout, exited.stderr) == (2, "teardown\n", "")


def test_a_process_started_without_stdout_and_stderr_writes_its_out_file(tmp_path):
    out = tmp_path / "r.json"
    code = ("import runpy, sys\nsys.stdout = sys.stderr = None\n"
            "runpy.run_module('qspec.cli', run_name='__main__', alter_sys=True)")
    done = run_entry("verdict", "--quantale", "boolean2", "--size", "1", "--format", "json",
                     "--out", str(out), code=code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert json.loads(out.read_text())["passed"] is True


# a tag parser that reports a broken invariant
BROKEN_TAG = ("import qspec.quantale as qu\n"
              "def broken(tag):\n    raise qu.InvariantViolation('broken')\n"
              "qu.parse_quantale_tag = broken\n")


@pytest.mark.parametrize("patch,status", [
    ("", 2),  # the unknown tag
    (BROKEN_TAG, 1),
], ids=["bad-tag", "broken-invariant"])
def test_a_process_started_without_stderr_keeps_its_error_status(patch, status):
    code = (f"import runpy, sys\n{patch}sys.stdout = sys.stderr = None\n"
            "runpy.run_module('qspec.cli', run_name='__main__', alter_sys=True)")
    done = run_entry("verdict", "--quantale", "nope", code=code)
    assert (done.returncode, done.stdout, done.stderr) == (status, "", "")


@pytest.mark.parametrize("patch,stdout,status", [
    ("", None, 2),  # the unknown tag
    (BROKEN_TAG, None, 1),
    ("", "/dev/full", 2),  # a stdout that is full
], ids=["bad-tag", "broken-invariant", "full-stdout"])
def test_a_process_whose_stderr_refuses_its_error_line_keeps_its_status(patch, stdout, status):
    if stdout is not None and not os.path.exists(stdout):
        pytest.skip(f"no {stdout} on this system")
    code = (f"import runpy\n{patch}"
            "runpy.run_module('qspec.cli', run_name='__main__', alter_sys=True)")
    argv = ["verdict", "--quantale", "boolean2" if stdout else "nope", "--format", "json"]
    # fd 2 is open for reading only, so each write to it fails
    with open(os.devnull) as err, open(stdout or os.devnull, "w") as out:
        done = run_entry(*argv, code=code, stdout=out, stderr=err)
    assert done.returncode == status


@pytest.mark.parametrize("argv", [
    ["verdict", "--quantale", "boolean2", "--size", "1"],  # fits the buffer: the flush fails
    ["algebras", "--quantale", "boolean2", "--size", "3", "--format", "json"],  # _emit fails
], ids=["flush", "emit"])
def test_a_closed_stdout_exits_two_with_one_error_line(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_entry(*argv, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("qspec: error:")
