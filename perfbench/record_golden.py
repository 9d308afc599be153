"""Record the golden report digests the benchmark's correctness gate checks.

    python3 perfbench/record_golden.py

Run from the root of the checkout whose reports are the reference (the seed
commit of the benchmark).  Every invocation of every workload runs once for
the default seed 0 and once for HELD_OUT_SEED, a seed kept out of tuning so a
later gain claim can be checked on it.  An invocation is recorded only after
it passes every other condition of the gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import run

HELD_OUT_SEED = 7919


def main():
    root = Path.cwd().resolve()
    invocations = sorted({(c, a) for inv in run.WORKLOADS.values() for c, a in inv})
    digests = {}
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
        for seed in (0, HELD_OUT_SEED):
            for command, args in invocations:
                cli_args = [command, *args, "--format", "json", "--seed", str(seed)]
                child = run.spawn([sys.executable, "-m", "qspec.cli", *cli_args],
                                  env, root, scratch, run.INVOCATION_TIMEOUT_S)
                key = run.invocation_key(command, args)
                problems = run.report_problems(command, args, child.returncode, child.stdout)
                if child.timed_out or problems:
                    raise SystemExit(f"{key} --seed {seed}: {problems or 'timed out'}")
                digests.setdefault(key, {})[str(seed)] = hashlib.sha256(child.stdout).hexdigest()
                print(f"{child.wall_s:7.2f} s  seed {seed}  {key}", flush=True)
    doc = {
        "recorded_from": {"commit": run.git_commit(root),
                          "source_sha256": run.source_digest(root),
                          "date": time.strftime("%Y-%m-%d")},
        "held_out_seed": HELD_OUT_SEED,
        "digests": digests,
    }
    run.GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
