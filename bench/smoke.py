"""Smoke test of the benchmark: every workload at tiny sizes, through all of
its gates, untraced and traced, twice with one seed.

    python3 bench/smoke.py

Run it from the root of a source checkout.  It exits 0 when no op
failed, every workload attempted ops, the reruns gave identical `cli.main`
digests and identical per-layer counts, and every per-layer metric the
benchmark declares was reported.  It takes a few seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    run.check_checkout(root)
    declared = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    problems = []
    for workload in run.WORKLOADS:
        result = run.end_to_end(root, workload, seed=7, seconds=0, size="tiny")
        ops = result["attempted"]
        print(f"{workload}: {ops} ops, {result['failed']} failed, "
              f"digests {len(result['digests'])}")
        if not result["correct"] or ops == 0:
            problems.append(f"{workload} end-to-end run not correct")
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        result = run.traced(root, "rules", seed=7, seconds=0, out_dir=Path(tmp), size="tiny")
    missing = {m["name"] for m in declared["per_layer"]} - set(result["metrics"])
    print(f"traced: {result['rounds']} rounds, {result['attempted']} ops, "
          f"{result['failed']} failed, missing metrics {sorted(missing)}")
    if not result["correct"]:
        problems.append("traced rounds not correct or counts not repeated")
    if missing:
        problems.append(f"per-layer metrics not reported: {sorted(missing)}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
