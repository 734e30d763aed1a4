"""The benchmark's three workloads, run inside a fresh worker interpreter.

Each workload is a list of ops.  An op calls into g2cub and then gates
what came back; a failed gate raises, the op counts as failed and the
workload goes on with the next op.  Every `cli.main` call runs
in-process with stdout captured, and its bytes feed one digest per pass
so that reruns with the same inputs can be compared.

The inputs arrive as plain JSON built by `run.py` from the seed; nothing
here draws random numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from g2cub import cli
from g2cub.chebyshev import (
    WeightParams,
    cheb_eval_trig,
    cheb_poly,
    continuous_inner,
    poly_to_json_dict,
    star_indices_upto,
    xy_map,
)
from g2cub.coords import make_point
from g2cub.cubature import (
    integrate,
    integrate_poly,
    make_rule,
    reference_integral,
    rule_to_csv,
    rule_to_json,
)
from g2cub.jsonio import dumps as json_dumps
from g2cub.lattice import dim_pi_star
from g2cub.poly import BivarPoly
from g2cub.quad import DEFAULT_TOL
from g2cub.sturm import apply_L, eigen_residual, eigenvalue, jacobi_poly
from g2cub.verify import run_suite

# rules whose node count is dim_pi_star(n - 1); the other two give dim_pi_star(n)
INTERIOR_KINDS = ("gauss", "radau1")
WEIGHT_SUM_TOL = 1e-12
EXACTNESS_TOL = 1e-9       # the tolerance of `verify --suite cubature`
TRIG_REL_TOL = 1e-9
RESIDUAL_TOL = 1e-8


class GateError(AssertionError):
    """A benchmark gate found a wrong output."""


def gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


class Pass:
    """Runs the ops of one workload pass and keeps the accounting."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def op(self, name, fn, *args):
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # a failed op is counted and the pass goes on
            self.failed += 1
            print(f"op {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def cli(self, argv) -> str:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            raise GateError(f"cli {argv} exited via argparse ({exc.code})") from None
        gate(code == 0, f"cli {argv} returned {code}")
        text = buf.getvalue()
        self.digest.update(text.encode())
        return text


# shared helpers ---------------------------------------------------------------


def smooth_scalar(a, b, c, d):
    return lambda x, y: math.exp(a * x + b * y) * math.cos(c * x + d * y)


def smooth_vector(a, b, c, d):
    return lambda x, y: np.exp(a * x + b * y) * np.cos(c * x + d * y)


def exact_value(poly: BivarPoly, x: float, y: float) -> float:
    """The polynomial evaluated in exact arithmetic at a float point; the
    float monomial sum loses all digits to cancellation past degree 30."""
    X, Y = Fraction(x), Fraction(y)
    return float(sum(c * X ** i * Y ** j for (i, j), c in poly.coeffs.items()))


# rules ------------------------------------------------------------------------


def _rule_build(kind, n, built):
    rule = make_rule(kind, n)
    built[kind] = rule
    expect = dim_pi_star(n - 1) if kind in INTERIOR_KINDS else dim_pi_star(n)
    gate(len(rule.nodes) == expect, f"{kind} n={n}: {len(rule.nodes)} nodes, want {expect}")
    gate(len(rule.weights) == expect, f"{kind}: weight count")
    gate(all(w > 0 for w in rule.weights), f"{kind}: nonpositive weight")
    total = math.fsum(rule.weights)
    gate(abs(total - 1.0) <= WEIGHT_SUM_TOL, f"{kind}: weights sum to {total!r}")


def _rule_export(run, kind, n, built):
    rule = built[kind]
    base = ["nodes", "--rule", kind, "--n", str(n)]
    text = run.cli(base + ["--format", "json"])
    gate(text == rule_to_json(rule) + "\n", f"{kind}: json bytes differ")
    doc = json.loads(text)
    gate(doc["nodes"] == [[x, y] for x, y in rule.nodes], f"{kind}: json nodes round-trip")
    gate(doc["weights"] == list(rule.weights), f"{kind}: json weights round-trip")
    gate(run.cli(base + ["--format", "csv"]) == rule_to_csv(rule), f"{kind}: csv bytes differ")


def _rule_integrate(kind, built, integrands, reference_every):
    rule = built[kind]
    for pos, coeffs in enumerate(integrands):
        got = integrate(rule, smooth_scalar(*coeffs))
        gate(math.isfinite(got), f"{kind}: integral {coeffs} not finite")
        if pos % reference_every == 0:
            ref = reference_integral(rule.weight_params, smooth_vector(*coeffs))
            err = abs(got - ref) / (1.0 + abs(ref))
            gate(err <= EXACTNESS_TOL, f"{kind}: integral {coeffs} off by {err:.2e}")


def _rule_exactness(kind, n, monomials):
    rule = make_rule(kind, n)
    for i, j in monomials:
        gate(2 * i + 3 * j <= rule.exact_mdegree, f"monomial {(i, j)} above degree")
        mono = BivarPoly.monomial(i, j, Fraction(1))
        got = integrate_poly(rule, mono)
        ref = reference_integral(rule.weight_params, mono)
        err = abs(got - ref) / (1.0 + abs(ref))
        gate(err <= EXACTNESS_TOL, f"{kind} n={n}: x^{i} y^{j} off by {err:.2e}")


def _suite(name, n):
    checks = run_suite(name, n=n)
    gate(len(checks) > 0, f"suite {name} ran no check")
    bad = [c.name for c in checks if not c.passed]
    gate(not bad, f"suite {name} failed {bad}")


def run_rules(run: Pass, spec: dict) -> None:
    n = spec["n"]
    built = {}
    for kind in spec["kinds"]:
        run.op(f"build-{kind}", _rule_build, kind, n, built)
        run.op(f"export-{kind}", _rule_export, run, kind, n, built)
        run.op(f"integrate-{kind}", _rule_integrate, kind, built,
               spec["integrands"], spec["reference_every"])
        run.op(f"exactness-{kind}", _rule_exactness, kind, spec["exact_n"],
               spec["monomials"][kind])
    run.op("suite-orthogonality", _suite, "orthogonality", spec["suite_n"])


# exact-basis ------------------------------------------------------------------


def _params(family):
    return WeightParams(Fraction(family[0]), Fraction(family[1]))


def _basis(family, degree, eigen_degree):
    p = _params(family)
    for k in star_indices_upto(degree):
        cheb_poly(p, k)
    for k in star_indices_upto(eigen_degree):
        q = cheb_poly(p, k)
        gate(apply_L(p, q) == eigenvalue(p, k) * q, f"{family} {tuple(k)}: L q != lambda q")


def _trig(family, indices, points):
    p = _params(family)
    for t1, t2 in points:
        t = make_point(t1, t2)
        x, y = xy_map(t)
        for k in indices:
            want = exact_value(cheb_poly(p, k), x, y)
            got = cheb_eval_trig(p, k, t)
            err = abs(got - want) / max(1.0, abs(want))
            gate(err <= TRIG_REL_TOL, f"{family} {k} at {(t1, t2)}: trig off by {err:.2e}")


def _poly_cli(run, family, k):
    p = _params(family)
    argv = ["poly", "--alpha", str(float(p.alpha)), "--beta", str(float(p.beta)),
            "--k1", str(k[0]), "--k2", str(k[1])]
    want = json_dumps(poly_to_json_dict(p, k, cheb_poly(p, k))) + "\n"
    gate(run.cli(argv) == want, f"{family} {k}: poly json differs")


def run_exact_basis(run: Pass, spec: dict) -> None:
    for fam in spec["families"]:
        family = tuple(fam["family"])
        run.op(f"basis-{family}", _basis, family, spec["degree"], spec["eigen_degree"])
        run.op(f"trig-{family}", _trig, family, fam["trig_indices"], spec["points"])
        for k in fam["cli_indices"]:
            run.op(f"cli-poly-{family}-{k}", _poly_cli, run, family, k)


# general-params ---------------------------------------------------------------


def _chain(p, order, degree, polys):
    indices = star_indices_upto(degree)
    if order == "top-first":
        polys[indices[-1]] = jacobi_poly(p, indices[-1])
    for k in indices:
        q = polys[k] = jacobi_poly(p, k)
        res = eigen_residual(p, k, q)
        gate(res <= RESIDUAL_TOL, f"({p.alpha}, {p.beta}) {tuple(k)}: residual {res:.2e}")


def _inner(p, ki, kj, polys):
    P, Q = polys[tuple(ki)], polys[tuple(kj)]
    by_moments = continuous_inner(p, P, Q)
    by_quadrature = continuous_inner(p, lambda x, y: P(x, y), lambda x, y: Q(x, y))
    scale = 1.0 + sum(abs(c) for c in (P * Q).coeffs.values())
    diff = abs(by_moments - by_quadrature)
    gate(diff <= DEFAULT_TOL * scale, f"({p.alpha}, {p.beta}) {ki}.{kj}: paths differ by {diff:.2e}")


def run_general_params(run: Pass, spec: dict) -> None:
    for pair in spec["pairs"]:
        p = WeightParams(*pair["params"])
        polys = {}
        run.op(f"chain-{pair['params']}", _chain, p, pair["order"], spec["degree"], polys)
        for ki, kj in pair["inner"]:
            run.op(f"inner-{pair['params']}-{ki}.{kj}", _inner, p, ki, kj, polys)


WORKLOADS = {
    "rules": run_rules,
    "exact-basis": run_exact_basis,
    "general-params": run_general_params,
}
