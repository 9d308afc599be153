"""qspec benchmark: time to verdict for real CLI invocations, one fresh process each.

    python3 perfbench/run.py --workload frontier --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from ./src.

Each workload is a closed loop with one client: one pass runs every
invocation of the workload in order, each `python3 -m qspec.cli ... --format
json --seed SEED` in its own fresh interpreter, never two at once.  Fresh
processes matter: the endomorphism table cache in qspec.subalgebra is
process-global, so an in-process repeat would time a warm table no CLI user
ever gets.  A pass starts while one as long as the last still ends within
--seconds (at least one pass); every metric is the median over the passes of
the run.  The run and its children stay on one core, and every time is scaled
to a nominal host speed measured on that core while the child runs (see
speed_probe), because the host's own speed swings by up to 2x.

With --trace 0 the last stdout line carries the end-to-end metrics:
  setup_s      time from spawning an interpreter until `import qspec.cli`
               has finished, at the nominal host speed; SETUP_PROBES probes
               precede every invocation, so a run's median rests on at least
               24 of them
  pass_s       summed wall time of the invocations of one pass, each at the
               nominal host speed
  peak_rss_mb  highest peak RSS of any child of a pass, from its own rusage
Printed above it, not gated: <cmd>_s, the scaled wall time of one command
summed over its invocations in a pass; pass_wall_s and setup_wall_s, the same
times unscaled; and failed_ops, the share of invocations failed.
With --trace 1 every invocation runs twice in a row, untraced and under
perfbench/layer_trace.py (the order alternating between invocations), and the
last line carries the per-layer metrics of the traced pass (unscaled) plus
trace.overhead_s, traced pass_s minus untraced pass_s, both scaled.  It is
one sample per invocation, so it stays noisier than pass_s and can read
negative.

Every report goes through a correctness gate (exit code, "passed", the
paper's known answers, golden sha256); an invocation that fails it, or runs
past its timeout, is named on stdout and counted in `failed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import select
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layer_trace

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
INVOCATION_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0  # the whole run, so a hang can never stall the caller
SETUP_PROBES = 4  # set-up probes before each invocation of a timed pass

B2 = ("--quantale", "boolean2", "--size", "2")
B3 = ("--quantale", "boolean2", "--size", "3")
B3_GEN = B3 + ("--mode", "generated", "--max-generators", "2")
G3 = ("--quantale", "godel3", "--size", "2")
G4 = ("--quantale", "godel4", "--size", "2")
L3 = ("--quantale", "lukasiewicz3", "--size", "2")

# Every workload runs all six commands, so every layer is traced on each of
# them.  The commands outside a workload's focus run once per pass on the
# smallest rung, boolean2 |X|=2.
SMALL = [("check-quantale", ("--quantale", "boolean2")), ("sections", B2),
         ("spectrum", B2), ("topology", B2)]
WORKLOADS = {
    # boolean2 |X|=3, |Hom|=512: table build, von Neumann walk, algebras_suite
    # commutant scans and section_element.
    "frontier": [("algebras", B3), ("verdict", B3)] + SMALL,
    # godel4 |X|=2: spectra, Zariski topologies, section CSP and check suites;
    # the walk is cheap here.  lukasiewicz3 takes the non-ZDF path.
    "spectra": [
        ("check-quantale", ("--quantale", "godel4")),
        ("check-quantale", ("--quantale", "lukasiewicz3")),
        ("algebras", G4), ("spectrum", G4), ("topology", G4), ("sections", G4),
        ("verdict", G4), ("verdict", L3),
    ],
    # boolean2 |X|=3 by closure of generator sets: full table build, no walk.
    "generated": [("algebras", B3_GEN), ("verdict", B3_GEN)] + SMALL,
    # The two smallest rungs, for the benchmark's own tests.
    "smoke": [
        ("algebras", B2), ("sections", B2), ("verdict", G3),
        ("check-quantale", ("--quantale", "godel3")),
        ("spectrum", G3), ("topology", G3),
    ],
}
COMMANDS = ("algebras", "verdict", "sections", "spectrum", "topology", "check-quantale")
# The gated end-to-end metrics.  Per-command times are printed too, but not
# gated: a command's one or two samples per run spread by up to a quarter on
# a shared host, while pass_s, their sum, spreads by under a tenth.
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
ZDF = {"boolean2": True, "godel3": True, "godel4": True, "lukasiewicz3": False}


def invocation_key(command, args):
    return " ".join((command,) + tuple(args))


# -- the correctness gate ---------------------------------------------------------


def report_digest(report, seed=None):
    """sha256 of the report as the CLI prints it, optionally with the echoed
    seed replaced (the reports depend on the seed only through that echo)."""
    if seed is not None:
        report = dict(report, config=dict(report["config"], seed=seed))
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def _known_answers(command, args, report):
    """Conditions the paper fixes, independently of the golden digests."""
    tag = args[args.index("--quantale") + 1]
    zdf = ZDF[tag]
    if command == "check-quantale":
        if report.get("axioms_passed") is not True:
            yield "axioms_passed is not true"
        if report.get("zdf") is not zdf:
            yield f"zdf is {report.get('zdf')!r}, expected {zdf}"
    elif command == "sections" and zdf:
        if not report.get("gelfand_sections"):
            yield "no scalar global section over a ZDF quantale"
    elif command == "verdict":
        v = report.get("verdict") or {}
        if v.get("zdf") is not zdf:
            yield f"verdict zdf is {v.get('zdf')!r}, expected {zdf}"
        if not zdf:
            if v.get("prime_sections") is not None or v.get("prime_section_count") is not None:
                yield "prime fields are not null over a quantale with zero divisors"
            return
        points = v.get("carrier", [])
        canonical = v.get("canonical_sections", {})
        if v.get("contextual") is not False:
            yield "ZDF quantale judged contextual"
        if sorted(canonical) != sorted(points):
            yield "canonical sections are not one per carrier point"
        elif len({tuple(c) for c in canonical.values()}) != len(points):
            yield "canonical sections are not distinct"
        stray = sorted(set(v.get("element_map", {}).values()) - set(points))
        if stray:
            yield f"element_map values outside the carrier: {stray}"


def report_problems(command, args, returncode, stdout):
    """Conditions of the gate that need no golden digest."""
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems or ["report is not JSON"]
    if report.get("passed") is not True:
        bad = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        problems.append(f"passed is not true (failing checks: {', '.join(bad)})")
    problems.extend(_known_answers(command, args, report))
    if hashlib.sha256(stdout).hexdigest() != report_digest(report):
        problems.append("report bytes are not the CLI's canonical JSON")
    return problems


def gate(command, args, seed, returncode, stdout, golden):
    """Every condition the invocation failed, as readable strings."""
    problems = report_problems(command, args, returncode, stdout)
    if problems:
        return problems
    digests = golden.get(invocation_key(command, args))
    if digests is None:
        return ["no golden digest recorded"]
    if str(seed) in digests:
        if hashlib.sha256(stdout).hexdigest() != digests[str(seed)]:
            return [f"sha256 differs from the golden digest for seed {seed}"]
    elif report_digest(json.loads(stdout), seed=0) != digests["0"]:
        return ["sha256 with the echoed seed set to 0 differs from the seed-0 golden digest"]
    return []


# -- child processes --------------------------------------------------------------


# The host's speed: on a shared host the same pure-Python work takes up to
# twice as long in one minute as in the next, in phases that last from a
# second to many minutes, and each core has its own phases.  So a run pins
# itself and its children to one core, and while a child runs this process
# times a fixed pure-Python loop every PROBE_INTERVAL_S on that same core, in
# its own CPU time so that waiting for the child does not count.  A child's
# time is scaled by PROBE_NOMINAL_S over the mean of those probe times, giving
# seconds at the host speed where one probe takes PROBE_NOMINAL_S.  The probe
# takes about 4% of the core, so it adds about that much to every wall time.
PROBE_ROUNDS = 10_000
PROBE_INTERVAL_S = 0.05
PROBE_NOMINAL_S = 0.0015  # about the probe's time on a quiet 2.1 GHz Xeon vCPU
_PROBE_TABLE = tuple(range(512))


def speed_probe():
    """CPU seconds one fixed loop of tuple indexing, integer and dict work takes now."""
    start = time.thread_time()
    acc, seen = 0, {}
    for i in range(PROBE_ROUNDS):
        j = _PROBE_TABLE[(i * 7) & 511]
        acc ^= j * i
        if i & 7 == 0:
            seen[(i, j)] = acc
    return time.thread_time() - start


@dataclass
class Child:
    """One finished child: start, wall time, host speed, peak RSS and output."""

    started: float  # time.perf_counter() (CLOCK_MONOTONIC) just before the spawn
    wall_s: float
    probe_s: float  # mean speed_probe() time over the child's life
    returncode: int
    timed_out: bool
    rss_mb: float
    stdout: bytes
    stderr: bytes

    def scaled(self, seconds):
        """seconds measured during this child, at the nominal host speed."""
        return seconds * PROBE_NOMINAL_S / self.probe_s

    @property
    def norm_s(self):
        return self.scaled(self.wall_s)


def spawn(argv, env, cwd, scratch, timeout):
    """Run argv to completion, killing it after timeout seconds, and probe the
    host's speed while it runs.  Its exit is seen through a pidfd, so the probe
    delays the wall time by at most one probe.  Peak RSS comes from this
    child's own rusage via wait4, not the cumulative RUSAGE_CHILDREN."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        probes = [speed_probe()]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=cwd)
        timed_out = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    left = start + max(timeout, 0.0) - time.perf_counter()
                    if left <= 0:
                        proc.kill()
                        timed_out = True
                        break
                    if select.select([pidfd], [], [], min(PROBE_INTERVAL_S, left))[0]:
                        break
                    probes.append(speed_probe())
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(start, wall, statistics.fmean(probes), proc.returncode, timed_out,
                     usage.ru_maxrss / 1024.0, out.read(), err.read())


class Runner:
    """Runs the invocations of one benchmark run against the checkout at root."""

    def __init__(self, root, seed, scratch, deadline):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.golden = json.loads(GOLDEN_PATH.read_text())["digests"]
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        # Every child reads bytecode compiled here before timing, as an
        # installed package's would be, whether or not the environment lets
        # Python write bytecode itself (src/**/__pycache__ is git-ignored).
        subprocess.run([sys.executable, "-m", "compileall", "-q", src], env=self.env,
                       cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=INVOCATION_TIMEOUT_S, check=False)
        self.attempted = 0
        self.failures = []
        self.setup_s = []
        self.setup_wall_s = []

    def probe_setup(self):
        """One spawn-to-imported time of a fresh interpreter.  The child reads
        CLOCK_MONOTONIC right after the import, the clock perf_counter reads
        here at spawn."""
        code = ("import time, qspec.cli; "
                "print(time.clock_gettime(time.CLOCK_MONOTONIC), qspec.cli.__file__)")
        child = spawn([sys.executable, "-c", code], self.env, self.root,
                      self.scratch, INVOCATION_TIMEOUT_S)
        if child.returncode != 0:
            raise SystemExit("cannot import qspec.cli from ./src:\n"
                             + child.stderr.decode(errors="replace"))
        stamp, where = child.stdout.decode().split(maxsplit=1)
        if not Path(where.strip()).resolve().is_relative_to(self.root / "src"):
            raise SystemExit(f"qspec.cli was imported from {where.strip()}, not ./src")
        self.setup_wall_s.append(float(stamp) - child.started)
        self.setup_s.append(child.scaled(self.setup_wall_s[-1]))

    def invoke(self, workload, command, args, traced):
        """One gated invocation; returns its Child and, if traced, its stats
        (None when it was not started or wrote none)."""
        self.attempted += 1
        cli_args = [command, *args, "--format", "json", "--seed", str(self.seed)]
        name = f"{workload}: qspec {' '.join(cli_args)}"
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            self.failures.append(f"{name}: not started, run deadline reached")
            return None, None
        stats_path = None
        if traced:
            fd, stats_path = tempfile.mkstemp(dir=self.scratch, suffix=".json")
            os.close(fd)
            argv = [sys.executable, str(HERE / "layer_trace.py"), stats_path, "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "qspec.cli", *cli_args]
        timeout = min(INVOCATION_TIMEOUT_S, remaining)
        child = spawn(argv, self.env, self.root, self.scratch, timeout)
        if child.timed_out:
            problems = [f"killed after the {timeout:.1f} s timeout"]
        else:
            problems = gate(command, args, self.seed, child.returncode, child.stdout,
                            self.golden)
        if problems:
            err = child.stderr.decode(errors="replace").strip()
            if err:
                problems.append("stderr: " + err.splitlines()[-1])
            self.failures.append(f"{name}: {'; '.join(problems)}")
        stats = None
        if stats_path is not None:
            with open(stats_path, encoding="utf-8") as fh:
                text = fh.read()
            os.unlink(stats_path)
            stats = json.loads(text) if text else None
        return child, stats

    def run_pass(self, workload):
        """One timed pass, SETUP_PROBES set-up probes before each invocation
        so the set-up samples spread over the whole run; returns per-invocation
        (command, Child)."""
        results = []
        for command, args in WORKLOADS[workload]:
            for _ in range(SETUP_PROBES):
                self.probe_setup()
            child, _ = self.invoke(workload, command, args, traced=False)
            if child is not None:
                results.append((command, child))
        return results

    def run_paired(self, workload):
        """Each invocation untraced and traced, back to back, the order
        alternating; returns the untraced and the traced (command, Child)
        lists, and the trace stats."""
        plain, traced, stats = [], [], []
        for i, (command, args) in enumerate(WORKLOADS[workload]):
            for trace in (False, True) if i % 2 == 0 else (True, False):
                child, stat = self.invoke(workload, command, args, trace)
                if child is not None:
                    (traced if trace else plain).append((command, child))
                if stat is not None:
                    stats.append(stat)
        return plain, traced, stats


def pass_metrics(results):
    metrics = {"pass_s": sum(child.norm_s for _, child in results),
               "peak_rss_mb": max((child.rss_mb for _, child in results), default=0.0),
               "pass_wall_s": sum(child.wall_s for _, child in results)}
    for command in COMMANDS:
        times = [child.norm_s for c, child in results if c == command]
        if times:
            metrics[f"{command.replace('-', '_')}_s"] = sum(times)
    return metrics


def layer_metrics(results, stats):
    """Per-layer metrics of one traced pass: spans summed over invocations,
    sizes the largest any invocation produced, report bytes summed."""
    out = {}
    for key in layer_trace.span_keys():
        out[f"{key}.calls"] = sum(s["calls"][key] for s in stats)
        if key not in layer_trace.LEAVES:
            out[f"{key}.total_s"] = sum(s["total_s"][key] for s in stats)
        out[f"{key}.self_s"] = sum(s["self_s"][key] for s in stats)
    for name in layer_trace.SIZES:
        out[name] = max((s["sizes"][name] for s in stats), default=0)
    out["cli.report_bytes"] = sum(len(child.stdout) for _, child in results)
    return out


# -- environment ------------------------------------------------------------------


def git_commit(root):
    # The ceiling keeps git from reporting the commit of an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "qspec").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(root):
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": round(os.getloadavg()[0], 2),
    }


# -- entry point ------------------------------------------------------------------


def _fmt(value, unit):
    return f"{value:.6f} {unit}" if unit in ("s", "MB") else f"{value} {unit}"


def run(workload, seed, seconds, trace, root):
    started = time.perf_counter()
    env = environment(root)
    env["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})  # this process and its children; see speed_probe
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
        runner = Runner(root, seed, scratch, started + RUN_DEADLINE_S)
        if trace:
            runner.probe_setup()  # fails early unless ./src provides qspec
            plain, traced, stats = runner.run_paired(workload)
            metrics = layer_metrics(traced, stats)
            metrics["trace.overhead_s"] = (pass_metrics(traced)["pass_s"]
                                           - pass_metrics(plain)["pass_s"])
            units = layer_trace.metric_units()
            passes, printed_only = 1, {}
        else:
            per_pass = []
            loop_start = last_pass = time.perf_counter()
            # A pass starts only if one as long as the last still ends in time.
            while (not per_pass or 2 * time.perf_counter() - last_pass - loop_start
                   <= seconds):
                last_pass = time.perf_counter()
                results = runner.run_pass(workload)
                if per_pass and len(results) < len(WORKLOADS[workload]):
                    break  # cut short by the run deadline, so not a whole pass
                per_pass.append(pass_metrics(results))
                if time.perf_counter() > runner.deadline:
                    break
            medians = {name: statistics.median(p[name] for p in per_pass)
                       for name in per_pass[0]}
            medians["setup_s"] = statistics.median(runner.setup_s)
            medians["setup_wall_s"] = statistics.median(runner.setup_wall_s)
            metrics = {name: medians[name] for name in END_TO_END}
            printed_only = {name: v for name, v in medians.items() if name not in metrics}
            units = END_TO_END
            passes = len(per_pass)
    env["loadavg_end"] = round(os.getloadavg()[0], 2)
    for key, value in env.items():
        print(f"env {key} {value}")
    if max(env["loadavg_start"], env["loadavg_end"]) > env["nproc"]:
        print(f"warning: load average above the {env['nproc']} cores; timings are suspect",
              file=sys.stderr)
    failed = len(runner.failures)
    print(f"workload {workload} seed {seed} trace {trace} passes {passes} "
          f"invocations {runner.attempted} failed {failed}")
    for line in runner.failures:
        print(f"FAILED {line}")
    print(f"metric failed_ops {failed / runner.attempted:.6f} share")
    for name, value in metrics.items():
        print(f"metric {name} {_fmt(value, units[name])}")
    for name, value in printed_only.items():
        print(f"metric {name} {_fmt(value, 's')} (printed, not gated)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "qspec" / "cli.py").is_file():
        print("perfbench: run from the root of a qspec checkout (./src/qspec is missing)",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, args.trace, root)


if __name__ == "__main__":
    sys.exit(main())
