"""The qspec command line driver: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
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


def test_invalid_config_exits_two(capsys):
    code, _, err = run_cli(capsys, "check-quantale", "--quantale", "nonsense7")
    assert code == 2
    assert "error" in err


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


def test_a_foreign_idempotent_fails_the_verdict_instead_of_a_traceback(monkeypatch, capsys):
    # diag(1, 0) is no member of the trivial algebra {0, id}, so no section
    # has a value there: a failed check, not a KeyError
    real = sub.enumerate_vn

    def foreign(*args, **kwargs):
        poset = real(*args, **kwargs)
        q, t = poset.quantale, poset.trivial_index
        decompositions = list(poset.decompositions)
        decompositions[t] = decompositions[t]._replace(
            idempotents=(diag_rel(q, poset.carrier, (q.unit, q.bottom)).entries,))
        poset.__dict__["decompositions"] = tuple(decompositions)
        return poset

    monkeypatch.setattr(ctx, "enumerate_vn", foreign)
    t = real(carrier("X", 2), builtin_quantale("boolean2")).trivial_index
    for command in ("verdict", "sections"):
        code, out, _ = run_cli(capsys, command, "--quantale", "boolean2", "--size", "2")
        assert code == 1, command
        assert (f"[FAIL] verdict-computed  A{t}: primitive idempotent ((1, 0), (0, 0)) "
                "is not a member of the algebra") in out


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
