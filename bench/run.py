"""Benchmark runner for g2cub.

    python3 bench/run.py --workload rules --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout.  With `--trace 0` it runs the
workload again and again for `--seconds`, each pass in a fresh
single-threaded worker interpreter with cold caches, and reports the
median end-to-end metrics.  With `--trace 1` it runs every workload
untraced and traced, alternately, and reports the per-layer metrics and
the tracing overhead.  Every output is gated; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Details of each run, with machine metadata, go to `.bench_out/`.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402  stdlib only; g2cub is imported by the workers alone

WORKLOADS = ("rules", "exact-basis", "general-params")
RULE_KINDS = ("gauss", "lobatto", "radau1", "radau2")
HALF_FAMILIES = (("1/2", "1/2"), ("-1/2", "-1/2"), ("1/2", "-1/2"), ("-1/2", "1/2"))
# fixed pairs: (0.3, 1.2) converges at quadrature order 128, the others at
# 256, so drawing pairs from the seed would change the amount of work
GENERAL_PAIRS = (((0.3, 1.2), "ascending"), ((-0.4, 0.7), "top-first"),
                 ((0.17, -0.23), "ascending"))
SIZES = {
    "full": {
        "rules": {"n": 160, "integrands": 24, "reference_every": 6, "exact_n": 8,
                  "monomials": 3, "suite_n": 18},
        "exact-basis": {"degree": 36, "eigen_degree": 20, "trig_degrees": (36, 30, 24, 18),
                        "points": 6, "cli_indices": 2},
        "general-params": {"degree": 12, "inner": 4},
    },
    "tiny": {
        "rules": {"n": 24, "integrands": 4, "reference_every": 2, "exact_n": 4,
                  "monomials": 2, "suite_n": 3},
        "exact-basis": {"degree": 10, "eigen_degree": 6, "trig_degrees": (10, 7),
                        "points": 2, "cli_indices": 1},
        "general-params": {"degree": 4, "inner": 1},
    },
}
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
WARMUP_PASSES = 1          # compiles the .pyc files and warms the file cache
MIN_PASSES = 5
TRACE_ROUNDS = 2           # traced counts must repeat between rounds
DEADLINE_S = 150.0         # no new pass starts after this
WORKER_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# inputs -------------------------------------------------------------------------


def star_class(n):
    """Index pairs (k1, k2) with 2*k1 + 3*k2 == n."""
    return [[(n - 3 * j) // 2, j] for j in range(n % 2, n // 3 + 1, 2)]


def indices_upto(n):
    return [k for d in range(n + 1) for k in star_class(d)]


def interior_points(rng, count, margin=0.02):
    """Drawn the way verify._interior_points draws them."""
    pts = []
    while len(pts) < count:
        t2 = rng.uniform(margin, 0.5 - margin)
        t1 = rng.uniform(t2 + margin, 1.0 - t2 - margin)
        pts.append([t1, t2])
    return pts


def make_spec(workload: str, seed: int, size: str = "full") -> dict:
    """The inputs of one workload, drawn from the seed alone.  Only these
    reach the worker."""
    rng = random.Random(f"{workload}/{seed}")
    s = SIZES[size][workload]
    if workload == "rules":
        kinds = list(RULE_KINDS)
        rng.shuffle(kinds)
        low = indices_upto(2 * s["exact_n"] - 1)
        return {
            "n": s["n"],
            "kinds": kinds,
            "integrands": [[rng.uniform(-1, 1), rng.uniform(-1, 1),
                            rng.uniform(-2, 2), rng.uniform(-2, 2)]
                           for _ in range(s["integrands"])],
            "reference_every": s["reference_every"],
            "exact_n": s["exact_n"],
            "monomials": {k: rng.sample(low, s["monomials"]) for k in RULE_KINDS},
            "suite_n": s["suite_n"],
        }
    if workload == "exact-basis":
        families = list(HALF_FAMILIES)
        rng.shuffle(families)
        return {
            "degree": s["degree"],
            "eigen_degree": s["eigen_degree"],
            "points": interior_points(rng, s["points"]),
            "families": [
                {"family": list(fam),
                 "trig_indices": [rng.choice(star_class(d)) for d in s["trig_degrees"]],
                 "cli_indices": rng.sample(star_class(s["degree"]), s["cli_indices"])}
                for fam in families
            ],
        }
    pairs = list(GENERAL_PAIRS)
    rng.shuffle(pairs)
    low = indices_upto(s["degree"])
    return {
        "degree": s["degree"],
        "pairs": [{"params": list(params), "order": order,
                   "inner": [[rng.choice(low), rng.choice(low)] for _ in range(s["inner"])]}
                  for params, order in pairs],
    }


# workers ------------------------------------------------------------------------


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("G2CUB_")}
    env.update(WORKER_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(root, workload, spec, trace=False, spans=None) -> dict:
    """One pass in a fresh interpreter; returns its result record."""
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd.append(str(BENCH / "worker.py"))
    request = {"workload": workload, "spec": spec, "trace": trace, "spans": spans}
    try:
        proc = subprocess.run(cmd, input=json.dumps(request), capture_output=True,
                              text=True, cwd=root, env=worker_env(root),
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker timed out after {WORKER_TIMEOUT_S} s") from None
    ops_log = "\n".join(ln for ln in proc.stderr.splitlines() if not ln.startswith("import time:"))
    if ops_log:
        print(ops_log, file=sys.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        result["imports"] = tracer.import_times(proc.stderr)
    return result


def check_checkout(root: Path) -> None:
    if not (root / "src" / "g2cub" / "__init__.py").is_file():
        raise BenchError(f"no g2cub sources under {root / 'src'}; run from a checkout root")


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def metadata(root: Path, first: dict, loadavg) -> dict:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "blas": first["blas"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "worker_env": WORKER_ENV,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# the two kinds of run -----------------------------------------------------------


def end_to_end(root, workload, seed, seconds, size="full") -> dict:
    """Untraced passes of one workload for `seconds`; median metrics."""
    spec = make_spec(workload, seed, size)
    loadavg = os.getloadavg()
    started = time.perf_counter()
    passes = [run_worker(root, workload, spec) for _ in range(WARMUP_PASSES)]
    warm = time.perf_counter()
    timed = []
    while len(timed) < MIN_PASSES or time.perf_counter() - warm < seconds:
        if time.perf_counter() - started > DEADLINE_S:
            break
        timed.append(run_worker(root, workload, spec))
    passes += timed
    digests = {p["digest"] for p in passes}
    metrics = {}
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        values = [p[name] for p in timed]
        q1, q3 = quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": unit,
                         "q1": q1, "q3": q3, "passes": len(values)}
    return {
        "correct": len(digests) == 1 and all(p["failed"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
        "digests": sorted(digests),
        "calibration_s": [p["calibration_s"] for p in passes],
        "passes": [{k: p[k] for k in ("wall_s", "setup_s", "peak_rss_mb")} for p in passes],
        "meta": metadata(root, passes[0], loadavg),
    }


def merge_totals(records) -> dict:
    out = {}
    for rec in records:
        for key, value in rec.items():
            if key == "count:quad.max_order":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def traced(root, first, seed, seconds, out_dir, size="full") -> dict:
    """Rounds over every workload, each untraced then traced, for at least
    TRACE_ROUNDS rounds and `seconds`; per-layer metrics summed over one
    pass of each workload, times as medians over rounds."""
    order = [first] + [w for w in WORKLOADS if w != first]
    specs = {w: make_spec(w, seed, size) for w in order}
    loadavg = os.getloadavg()
    started = time.perf_counter()
    rounds = []
    while len(rounds) < TRACE_ROUNDS or time.perf_counter() - started < seconds:
        if rounds and time.perf_counter() - started > DEADLINE_S / 2:
            break
        rnd = {}
        for w in order:
            plain = run_worker(root, w, specs[w])
            spans = str(out_dir / f"spans-{w}.jsonl")
            rnd[w] = (plain, run_worker(root, w, specs[w], trace=True, spans=spans))
        rounds.append(rnd)

    def counts(rec):
        return {k: v for k, v in rec["layers"].items() if not k.startswith("self_s:")}

    workers = [p for rnd in rounds for pair in rnd.values() for p in pair]
    repeatable = all(
        counts(rnd[w][1]) == counts(rounds[0][w][1])
        and {rnd[w][0]["digest"], rnd[w][1]["digest"]} == {rounds[0][w][0]["digest"]}
        for rnd in rounds for w in order
    )
    per_round = [tracer.layer_metrics(merge_totals(p[1]["layers"] for p in rnd.values()))
                 for rnd in rounds]
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "s":
            value = statistics.median(r[name][0] for r in per_round)
        metrics[name] = {"value": value, "unit": unit}
    imports = [p[1]["imports"] for rnd in rounds for p in rnd.values()]
    for name in ("import.numpy_s", "import.g2cub_s"):
        metrics[name] = {"value": statistics.median(i[name] for i in imports), "unit": "s"}
    overhead = [sum(t["wall_s"] - p["wall_s"] for p, t in rnd.values()) for rnd in rounds]
    metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
    return {
        "correct": repeatable and all(p["failed"] == 0 for p in workers),
        "attempted": sum(p["attempted"] for p in workers),
        "failed": sum(p["failed"] for p in workers),
        "metrics": metrics,
        "rounds": len(rounds),
        "calibration_s": [p["calibration_s"] for p in workers],
        "meta": metadata(root, workers[0], loadavg),
    }


def report(result: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    for name, m in result["metrics"].items():
        extra = ""
        if "q1" in m:
            extra = f"  (median of {m['passes']}, quartiles {m['q1']:.6g}..{m['q3']:.6g})"
        print(f"{name:28s} {m['value']:.6g} {m['unit']}{extra}")
    cal = result["calibration_s"]
    print(f"{'calibration_s (diagnostic)':28s} {statistics.median(cal):.6g} s"
          f"  (range {min(cal):.6g}..{max(cal):.6g}; never used to rescale)")
    print(f"ops attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        check_checkout(root)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        if args.trace:
            result = traced(root, args.workload, args.seed, args.seconds, out_dir)
        else:
            result = end_to_end(root, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
