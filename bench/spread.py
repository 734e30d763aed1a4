"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 bench/spread.py --seeds 1-10 [--workloads rules,exact-basis] [--out NAME]
    python3 bench/spread.py --compare .bench_out/spread-a.json .bench_out/spread-b.json

Run it from the root of a source checkout.  It runs `bench/run.py` once
per seed and workload, with the workloads interleaved round-robin so a
slow phase of the machine hits every workload alike, then prints for
each metric the median of the runs and the spread: the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a
share of the median, next to the metric's bound from BENCHMARK.json.
`--compare` checks a second set of runs against a first: each median may
be worse than the first by no more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workloads, seeds, seconds) -> dict:
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"] or last["failed"]:
                sys.exit(f"{w} seed {seed} not correct: {last}")
            runs[w].append({"seed": seed, **{k: m["value"] for k, m in last["metrics"].items()}})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in last["metrics"].items()), flush=True)
    return runs


def summarize(runs) -> dict:
    out = {}
    for w, rows in runs.items():
        for name in BOUNDS:
            values = [r[name] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            out[f"{w}/{name}"] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / statistics.median(values)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in DECLARED["workloads"]))
    parser.add_argument("--seconds", type=int, default=DECLARED["run_seconds"])
    parser.add_argument("--out", default=None, help="name of the record under .bench_out/")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()

    if args.compare:
        first, second = (json.loads(Path(p).read_text())["summary"] for p in args.compare)
        worst = True
        for key, a in first.items():
            bound = BOUNDS[key.split("/")[1]]
            change = second[key]["median"] / a["median"] - 1.0
            ok = change <= bound
            worst = worst and ok
            print(f"{key:30s} {a['median']:.5g} -> {second[key]['median']:.5g} "
                  f"({change:+.2%}, bound {bound:.0%}) {'ok' if ok else 'WORSE'}")
        return 0 if worst else 1

    runs = collect(args.workloads.split(","), args.seeds, args.seconds)
    summary = summarize(runs)
    for key, s in summary.items():
        bound = BOUNDS[key.split("/")[1]]
        print(f"{key:30s} median {s['median']:.5g}  quartiles {s['q1']:.5g}..{s['q3']:.5g}"
              f"  spread {s['spread']:.2%}  bound {bound:.0%}"
              f"  {'ok' if s['spread'] <= bound / 3 else 'WIDE'}")
    if args.out:
        path = Path.cwd() / ".bench_out" / f"spread-{args.out}.json"
        path.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
