"""Named verification suites behind the command-line `verify` subcommand.

Each suite returns a list of Check records; a suite passes when every
check's max error is at or below its tolerance.  Random points use a
fixed seed so runs are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import gentrig, lattice
from .chebyshev import (
    WeightParams,
    cheb_poly,
    continuous_inner,
    orthogonality_constant,
    star_indices_upto,
    xy_map,
)
from .coords import make_index, make_point
from .cubature import integrate_poly, make_rule, reference_integral, variety_check
from .poly import BivarPoly
from .sturm import apply_L, eigen_residual, eigenvalue, jacobi_poly, operator_coeffs

HALF = Fraction(1, 2)
HALF_PARAMS = tuple(
    WeightParams(sa * HALF, sb * HALF) for sa in (-1, 1) for sb in (-1, 1)
)


@dataclass(frozen=True)
class Check:
    name: str
    max_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol


def _interior_points(count, seed=20120904, margin=0.02):
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        t2 = rng.uniform(margin, 0.5 - margin)
        t1 = rng.uniform(t2 + margin, 1.0 - t2 - margin)
        pts.append(make_point(t1, t2))
    return pts


def suite_orthogonality(n: int = 12, tol: float = None):
    """Within-family orthogonality: discrete on the triangle lattice for
    every size up to n, continuous by quadrature at low degree."""
    cont_tol = 1e-9 if tol is None else tol
    tol = 1e-12 if tol is None else tol
    checks = []
    for family in gentrig.TrigFamily:
        worst = 0.0
        for m in range(1, n + 1):
            gamma = lattice.enum_gamma(family, m)
            nodes = lattice.enum_upsilon(m)
            values = [
                [gentrig.eval(family, k, lattice.point_from_index(nd.j, m)) for nd in nodes]
                for k in gamma
            ]
            for a, ka in enumerate(gamma):
                for b in range(a, len(gamma)):
                    acc = 0.0
                    for nd, va, vb in zip(nodes, values[a], values[b]):
                        acc += nd.weight * va * vb
                    acc /= m * m
                    expect = (
                        lattice.discrete_ortho_constant(family, ka, m) if a == b else 0.0
                    )
                    worst = max(worst, abs(acc - expect))
        checks.append(Check(f"discrete-ortho-{family.value}", worst, tol))
    for p in HALF_PARAMS:
        worst = 0.0
        indices = star_indices_upto(min(n, 6))
        polys = [cheb_poly(p, k) for k in indices]
        for a, ka in enumerate(indices):
            for b in range(a, len(indices)):
                value = continuous_inner(p, polys[a], polys[b])
                expect = orthogonality_constant(p, ka) if a == b else 0.0
                worst = max(worst, abs(value - expect))
        tag = f"{p.alpha},{p.beta}"
        checks.append(Check(f"continuous-ortho-({tag})", worst, cont_tol))
    return checks


def suite_cubature(n: int = 8, tol: float = 1e-9):
    """Exactness of the four rules against the adaptive oracle, for every
    size from 2 to n."""
    if n < 2:
        raise ValueError("the cubature suite needs n >= 2")
    checks = []
    for kind in ("gauss", "lobatto", "radau1", "radau2"):
        worst = 0.0
        for m in range(2, n + 1):
            rule = make_rule(kind, m)
            for k in star_indices_upto(2 * m - 1):
                mono = BivarPoly.monomial(k.k1, k.k2, Fraction(1))
                got = integrate_poly(rule, mono)
                ref = reference_integral(rule.weight_params, mono)
                worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
        checks.append(Check(f"cubature-exactness-{kind}", worst, tol))
    return checks


def suite_eigen(n: int = 12, tol: float = 1e-8):
    """Exact eigen identities for half-integer parameters plus numeric
    residuals for three general parameter pairs."""
    checks = []
    worst = 0.0
    for p in HALF_PARAMS:
        for k in star_indices_upto(n):
            poly = cheb_poly(p, k)
            if apply_L(p, poly) != eigenvalue(p, k) * poly:
                worst = 1.0
    checks.append(Check("eigen-exact-half-integer", worst, 0.0))
    for a, b in ((0.0, 0.0), (0.3, 1.2), (-0.4, 0.7)):
        p = WeightParams(a, b)
        worst = max(
            eigen_residual(p, k, jacobi_poly(p, k))
            for k in star_indices_upto(min(n, 8))
        )
        checks.append(Check(f"eigen-residual-({a},{b})", worst, tol))
    return checks


def suite_identities(n: int = 100, tol: float = None):
    """Pointwise product identities and exact polynomial identities.

    n counts the random interior sample points.  Without an explicit
    tolerance the pointwise checks run at 1e-12 and the Jacobian check,
    which divides by a derivative scale, at 1e-9.
    """
    jac_tol = 1e-9 if tol is None else tol
    tol = 1e-12 if tol is None else tol
    pts = _interior_points(n)
    sc = lambda t: gentrig.eval("sc", make_index(1, 0), t)
    cs = lambda t: gentrig.eval("cs", make_index(1, 1), t)
    ss = lambda t: gentrig.eval("ss", make_index(2, 1), t)
    cc10 = lambda t: gentrig.eval("cc", make_index(1, 0), t)
    cc11 = lambda t: gentrig.eval("cc", make_index(1, 1), t)
    cc30 = lambda t: gentrig.eval("cc", make_index(3, 0), t)

    checks = []
    worst = max(abs(3 * sc(t) * cs(t) - ss(t)) for t in pts)
    checks.append(Check("product-sc-cs-ss", worst, tol))
    worst = max(
        abs(sc(t) ** 2 - (1 + 2 * cc11(t)) / 3 + cc10(t) ** 2) for t in pts
    )
    checks.append(Check("square-sc", worst, tol))
    worst = max(
        abs(cs(t) ** 2 + cc11(t) ** 2 - (1 + 2 * cc30(t)) / 3) for t in pts
    )
    checks.append(Check("square-cs", worst, tol))
    worst = max(
        abs(
            cc10(t) ** 3
            - (
                cc30(t) / 36
                + cc10(t) / 4
                + cc11(t) / 6
                + Fraction(1, 18)
                + cc11(t) * cc10(t) / 2
            )
        )
        for t in pts
    )
    checks.append(Check("cube-cc", worst, tol))

    def sq_errs(t):
        x, y = xy_map(t)
        e1 = sc(t) ** 2 - (1 + 2 * y - 3 * x * x) / 3
        e2 = cs(t) ** 2 - (24 * x ** 3 - y * y - 12 * x * y - 6 * x - 4 * y - 1)
        return max(abs(e1), abs(e2))

    checks.append(Check("change-of-variables-squares", max(sq_errs(t) for t in pts), tol))

    def jac_err(t):
        h = [
            [gentrig.partial_t("cc", make_index(1, 0), t, i) for i in range(3)],
            [gentrig.partial_t("cc", make_index(1, 1), t, i) for i in range(3)],
        ]
        jx1, jx2 = h[0][0] - h[0][2], h[0][1] - h[0][2]
        jy1, jy2 = h[1][0] - h[1][2], h[1][1] - h[1][2]
        jac = jx1 * jy2 - jx2 * jy1
        expect = 4 * math.pi ** 2 / 3 * sc(t) * cs(t)
        return abs(jac - expect) / max(1.0, abs(expect))

    checks.append(Check("jacobian", max(jac_err(t) for t in pts), jac_tol))

    # exact polynomial identities
    coeffs = operator_coeffs(WeightParams(HALF, HALF))
    F = BivarPoly(
        {(0, 0): Fraction(1), (0, 1): Fraction(2), (2, 0): Fraction(-3)}
    ) * BivarPoly(
        {
            (3, 0): Fraction(24),
            (0, 2): Fraction(-1),
            (1, 1): Fraction(-12),
            (1, 0): Fraction(-6),
            (0, 1): Fraction(-4),
            (0, 0): Fraction(-1),
        }
    )
    det = coeffs.A11 * coeffs.A22 - coeffs.A12 * coeffs.A12
    checks.append(Check("det-matches-9F", 0.0 if det == 9 * F else 1.0, 0.0))
    f1, f2 = F.diff_x(), F.diff_y()
    lhs1 = f1 * coeffs.A11 + f2 * coeffs.A12 + 6 * BivarPoly({(1, 0): Fraction(5), (0, 0): Fraction(1)}) * F
    lhs2 = f1 * coeffs.A12 + f2 * coeffs.A22 + 18 * BivarPoly({(1, 0): Fraction(2), (0, 1): Fraction(3), (0, 0): Fraction(1)}) * F
    checks.append(Check("boundary-flux-x", 0.0 if not lhs1 else 1.0, 0.0))
    checks.append(Check("boundary-flux-y", 0.0 if not lhs2 else 1.0, 0.0))
    return checks


def suite_variety(n: int = 6, tol: float = 1e-10):
    checks = []
    for kind in ("gauss", "lobatto", "radau1", "radau2"):
        rep = variety_check(kind, n, tol)
        worst = max(c["max_residual"] for c in rep["checks"])
        checks.append(Check(f"variety-{kind}", worst, tol))
    return checks


SUITES = {
    "orthogonality": suite_orthogonality,
    "cubature": suite_cubature,
    "eigen": suite_eigen,
    "identities": suite_identities,
    "variety": suite_variety,
}


def run_suite(name: str, n=None, tol=None):
    fn = SUITES[name]
    kwargs = {}
    if n is not None:
        kwargs["n"] = n
    if tol is not None:
        kwargs["tol"] = tol
    return fn(**kwargs)
