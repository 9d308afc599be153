"""The benchmark's own tests, on the smoke workload (boolean2 |X|=2, godel3 |X|=2).

    python3 -m pytest -q perfbench/check_smoke.py

Run from the root of the checkout.  The file name keeps the repository's own
test collection from picking these up.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layer_trace  # noqa: E402
import run  # noqa: E402


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_timed_run_reports_every_end_to_end_metric():
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(run.WORKLOADS["smoke"])
    names = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "env commit" in proc.stdout and "env loadavg_end" in proc.stdout
    assert "metric failed_ops 0.000000 share" in proc.stdout


def test_traced_runs_report_every_layer_and_repeat_counts_exactly():
    results = [last_json(bench("--workload", "smoke", "--seed", str(seed),
                               "--seconds", "1", "--trace", "1")) for seed in (0, 5)]
    names = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    counts = [{k: v["value"] for k, v in r["metrics"].items() if not k.endswith("_s")}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(run.WORKLOADS["smoke"])
    assert counts[0]["subalgebra.hom_size"] == 81  # godel3 at |X|=2


def test_per_layer_names_fit_the_benchmark_limits():
    units = layer_trace.metric_units()
    assert len(units) <= 128
    assert all(len(name) <= 64 for name in units)


def smoke_report(command, args, seed=0):
    cli_args = [command, *args, "--format", "json", "--seed", str(seed)]
    proc = subprocess.run([sys.executable, "-m", "qspec.cli", *cli_args], cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
                          capture_output=True, timeout=60)
    assert proc.returncode == 0
    return proc.stdout


@pytest.fixture(scope="module")
def golden():
    return json.loads(run.GOLDEN_PATH.read_text())["digests"]


def test_gate_accepts_golden_reports_for_any_seed(golden):
    command, args = "verdict", run.G3
    for seed in (0, 11):
        stdout = smoke_report(command, args, seed)
        assert run.gate(command, args, seed, 0, stdout, golden) == []


@pytest.mark.parametrize("edit, condition", [
    (lambda r: r.update(passed=False), "passed is not true"),
    (lambda r: r["verdict"].update(contextual=True), "judged contextual"),
    (lambda r: r["verdict"]["canonical_sections"].popitem(), "one per carrier point"),
    (lambda r: r["verdict"]["element_map"].update({"9": "x9"}), "outside the carrier"),
    (lambda r: r["verdict"].update(notes=["changed"]), "differs from the golden digest"),
])
def test_gate_names_the_failed_condition(golden, edit, condition):
    command, args = "verdict", run.G3
    report = json.loads(smoke_report(command, args))
    edit(report)
    stdout = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    problems = run.gate(command, args, 0, 0, stdout, golden)
    assert any(condition in p for p in problems), problems


def test_gate_checks_the_non_zdf_known_answers(golden):
    report = {"command": "verdict", "config": {"seed": 0}, "passed": True, "checks": [],
              "verdict": {"zdf": False, "prime_sections": [], "prime_section_count": 0}}
    stdout = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    problems = run.gate("verdict", run.L3, 0, 0, stdout, golden)
    assert any("prime fields are not null" in p for p in problems)


def test_gate_rejects_a_failed_exit_code(golden):
    assert run.gate("verdict", run.G3, 0, 1, b"", golden) == ["exit code 1"]


def test_hanging_child_is_killed_and_named(tmp_path):
    child = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                      None, tmp_path, tmp_path, timeout=0.5)
    assert child.timed_out and child.wall_s < 10


def test_golden_digest_is_the_report_sha256(golden):
    stdout = smoke_report("algebras", run.B2)
    key = run.invocation_key("algebras", run.B2)
    assert hashlib.sha256(stdout).hexdigest() == golden[key]["0"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "smoke",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
