"""One benchmark pass in a fresh interpreter.

Reads {"workload", "spec", "trace", "spans"} as JSON on stdin, imports
g2cub (timed as set-up), runs the workload once and prints one JSON
object on stdout.  `run.py` starts it; it is not meant to be run by hand.
"""

import json
import resource
import sys
import time
from fractions import Fraction


def calibration_s() -> float:
    """Time of a fixed 3000-term Fraction sum: a machine-speed diagnostic
    recorded next to each pass and never used to rescale a metric."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 3001):
        total += Fraction(1, k * k + 1)
    return time.perf_counter() - start


def main() -> int:
    request = json.load(sys.stdin)

    start = time.perf_counter()
    import g2cub.cli  # noqa: F401  loads every g2cub module, numpy included
    setup_s = time.perf_counter() - start

    tracer = None
    if request["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    import numpy
    import workloads

    run = workloads.Pass()
    start = time.perf_counter()
    workloads.WORKLOADS[request["workload"]](run, request["spec"])
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "digest": run.digest.hexdigest(),
        "calibration_s": calibration_s(),
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        tracer.write_spans(request["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
