"""Per-layer tracing of g2cub from outside the package.

`install()` wraps the public functions of every g2cub module (and the
arithmetic methods of `BivarPoly`) and rebinds every module attribute
that held the original, so names other modules imported by value, such
as `cubature.trig_eval` and `chebyshev.trig_eval` for `gentrig.eval`,
go through the wrapper too.  Nothing under `src/` is edited.

A layer's self time is the time inside its wrapped calls minus the time
of the wrapped calls they made.  Functions called once per point (all of
`coords`, the sort keys in `poly`) are only counted; their time stays in
the caller.  Spans of the coarser calls are kept in memory and written
out at the end of the worker; the per-point ones only add to their
layer's totals, because one span per trig evaluation would hold hundreds
of thousands of records.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "coords", "gentrig", "lattice", "poly", "chebyshev", "sturm",
    "quad", "cubature", "jsonio", "cli", "verify",
)
COUNT_ONLY = {"coords.*", "poly.star_key", "poly.star_cmp", "poly.mdegree_of"}
# timed but kept out of the span list: called once per point or per term
NO_SPAN = {"gentrig.*", "poly.*", "chebyshev.xy_map", "chebyshev.resolve_index",
           "quad.x_of_t", "quad.y_of_t", "quad.sc_of_t", "quad.cs_of_t", "quad.ss_of_t",
           "jsonio.format_float"}
POLY_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                "__rmul__", "__truediv__", "__eq__", "__call__", "diff_x", "diff_y",
                "to_float", "mdegree", "max_abs_coeff", "star_sorted_terms")
BUILD = ("cubature.make_rule", "cubature.gauss_rule", "cubature.lobatto_rule",
         "cubature.radau_rules")
INTEGRATE = ("cubature.integrate", "cubature.integrate_poly")


def _matches(name, patterns):
    return name in patterns or name.split(".")[0] + ".*" in patterns


class Tracer:
    """Counters, self times and spans of one traced worker."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()       # work counts measured at the boundaries
        self.spans = []               # (id, parent id, name, start, end)
        self._stack = []              # [name, child seconds, span id] per open call

    # wrappers ---------------------------------------------------------------

    def counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name, fn, hook=None):
        """hook(args, kwargs) -> (args, kwargs, done); done(result) runs after
        a call that returned."""
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        keep_span = not _matches(name, NO_SPAN)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = None
            if hook is not None:
                args, kwargs, done = hook(args, kwargs)
            parent = stack[-1][2] if stack else None
            frame = [name, 0.0, len(spans) if keep_span else parent]
            if keep_span:
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if keep_span:
                    spans[frame[2]] = (frame[2], parent, name, start, end)
            if done is not None:
                done(result)
            return result

        return wrapper

    def caller(self):
        return self._stack[-1][0] if self._stack else None

    # hooks that measure work at a boundary ----------------------------------

    def _count_result(self, key, size):
        def hook(args, kwargs):
            return args, kwargs, lambda result: self.counts.update({key: size(result)})
        return hook

    def _integrate_hook(self, args, kwargs):
        rule = args[0] if args else kwargs["rule"]
        self.counts["cubature.integrand_evals"] += len(rule.nodes)
        return args, kwargs, None

    def _jsonio_hook(self, args, kwargs):
        if self.caller() == "jsonio.dumps":
            return args, kwargs, None
        return args, kwargs, lambda text: self.counts.update({"jsonio.bytes": len(text)})

    def _moment_hook(self, args, kwargs):
        before = self.calls["quad.triangle_quadrature"]

        def done(result):
            if self.calls["quad.triangle_quadrature"] == before:
                self.counts["quad.moment_hits"] += 1

        return args, kwargs, done

    def _quadrature_hook(self, args, kwargs):
        values_fn, rest = args[0], args[1:]
        sizes = []

        def counted_values(t1, t2):
            sizes.append(t1.size)
            self.counts["quad.points"] += t1.size
            return values_fn(t1, t2)

        def done(result):
            self.counts["quad.useful_points"] += sizes[-1]
            order = math.isqrt(sizes[-1])
            self.counts["quad.max_order"] = max(self.counts["quad.max_order"], order)

        return (counted_values, *rest), kwargs, done

    def hook_for(self, name):
        nodes = lambda rule: len(rule.nodes)
        return {
            "lattice.enum_upsilon": self._count_result("lattice.nodes", len),
            "lattice.enum_H": self._count_result("lattice.nodes", lambda r: len(r[0])),
            "cubature.gauss_rule": self._count_result("cubature.nodes", nodes),
            "cubature.lobatto_rule": self._count_result("cubature.nodes", nodes),
            "cubature.radau_rules": self._count_result(
                "cubature.nodes", lambda rules: sum(map(nodes, rules))),
            "cubature.integrate": self._integrate_hook,
            "verify.run_suite": self._count_result("verify.checks", len),
            "jsonio.dumps": self._jsonio_hook,
            "jsonio.format_float": self._jsonio_hook,
            "quad.moment_table": self._moment_hook,
            "quad.triangle_quadrature": self._quadrature_hook,
        }.get(name)

    # output -----------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Raw counters of this worker; `layer_metrics` turns summed totals
        into the reported per-layer metrics."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({f"self_s:{k}": v for k, v in self.self_s.items()})
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")


def install() -> Tracer:
    """Wrap g2cub in place and return the tracer that collects for it."""
    import g2cub

    tracer = Tracer()
    modules = {name: sys.modules[f"g2cub.{name}"] for name in LAYERS}
    replace = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if _matches(name, COUNT_ONLY):
                replace[obj] = tracer.counted(name, obj)
            else:
                replace[obj] = tracer.timed(name, obj, tracer.hook_for(name))
    for module in [g2cub, *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in replace:
                setattr(module, attr, replace[obj])

    cls = modules["poly"].BivarPoly
    for method in POLY_METHODS:
        kind = "mul" if "mul" in method else "add" if "add" in method else method.strip("_")
        setattr(cls, method, tracer.timed(f"poly.{kind}", vars(cls)[method]))
    return tracer


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics from raw totals summed over traced workers."""
    def calls(*names):
        return sum(totals.get(f"calls:{n}", 0) for n in names)

    def self_s(*names):
        return sum(totals.get(f"self_s:{n}", 0.0) for n in names)

    def layer(prefix, kind):
        return sum(v for k, v in totals.items() if k.startswith(f"{kind}:{prefix}."))

    def count(name):
        return totals.get(f"count:{name}", 0)

    moment_calls = calls("quad.moment_table")
    points = count("quad.points")
    return {
        "coords.calls": (layer("coords", "calls"), "count"),
        "gentrig.calls": (layer("gentrig", "calls"), "count"),
        "gentrig.self_s": (layer("gentrig", "self_s"), "s"),
        "lattice.nodes": (count("lattice.nodes"), "count"),
        "lattice.self_s": (layer("lattice", "self_s"), "s"),
        "cubature.build_s": (self_s(*BUILD), "s"),
        "cubature.integrate_s": (self_s(*INTEGRATE), "s"),
        "cubature.nodes": (count("cubature.nodes"), "count"),
        "cubature.integrand_evals": (count("cubature.integrand_evals"), "count"),
        "poly.mul_calls": (calls("poly.mul"), "count"),
        "poly.add_calls": (calls("poly.add"), "count"),
        "poly.self_s": (layer("poly", "self_s"), "s"),
        "chebyshev.cheb_poly_calls": (calls("chebyshev.cheb_poly"), "count"),
        "chebyshev.xy_map_calls": (calls("chebyshev.xy_map"), "count"),
        "chebyshev.self_s": (layer("chebyshev", "self_s"), "s"),
        "sturm.apply_L_s": (self_s("sturm.apply_L"), "s"),
        "sturm.jacobi_calls": (calls("sturm.jacobi_poly"), "count"),
        "sturm.jacobi_s": (self_s("sturm.jacobi_poly"), "s"),
        "quad.moment_calls": (moment_calls, "count"),
        "quad.moment_hit_ratio": (count("quad.moment_hits") / max(1, moment_calls), "ratio"),
        "quad.quadrature_calls": (calls("quad.triangle_quadrature"), "count"),
        "quad.points": (points, "count"),
        "quad.useful_point_ratio": (count("quad.useful_points") / max(1, points), "ratio"),
        "quad.max_order": (count("quad.max_order"), "count"),
        "quad.self_s": (layer("quad", "self_s"), "s"),
        "verify.checks": (count("verify.checks"), "count"),
        "verify.self_s": (layer("verify", "self_s"), "s"),
        "jsonio.bytes": (count("jsonio.bytes"), "count"),
        "jsonio.self_s": (layer("jsonio", "self_s"), "s"),
        "cli.calls": (calls("cli.main"), "count"),
        "cli.self_s": (layer("cli", "self_s"), "s"),
    }


def import_times(stderr: str) -> dict:
    """Cumulative seconds of numpy and of g2cub without numpy, read from the
    `-X importtime` lines a worker wrote to stderr."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    numpy_s = cumulative.get("numpy", 0.0)
    g2cub_s = cumulative.get("g2cub", 0.0) + cumulative.get("g2cub.cli", 0.0) - numpy_s
    return {"import.numpy_s": numpy_s, "import.g2cub_s": g2cub_s}
