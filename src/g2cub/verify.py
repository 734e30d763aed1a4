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

import numpy as np

from . import gentrig, lattice
from .chebyshev import (
    WeightParams,
    cheb_poly,
    continuous_inner,
    deltoid_F,
    deltoid_factors,
    orthogonality_constant,
    star_indices_upto,
    xy_map,
)
from .coords import make_index, make_point
from .cubature import RULE_KINDS, integrate_poly, make_rule, variety_check
from .poly import BivarPoly
from .sturm import apply_L, eigen_residual, eigenvalue, jacobi_poly, moments, operator_coeffs

HALF_PARAMS = tuple(
    WeightParams(*params) for params in sorted(f.params for f in gentrig.TrigFamily)
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
    every size up to n, continuous through the exact moments at low degree."""
    cont_tol = 1e-9 if tol is None else tol
    tol = 1e-12 if tol is None else tol
    errors = {family: [] for family in gentrig.TrigFamily}
    for m in range(1, n + 1):
        j = lattice.enum_upsilon(m).T
        t = lattice.point_from_index(j, m)
        weights = lattice.upsilon_weight(j, m)
        for family, family_errors in errors.items():
            k = lattice.enum_gamma(family, m).T
            if k.size:
                values = gentrig.eval(family, k[:, :, None], t)
                gram = (values * weights) @ values.T / (m * m)
                expect = np.diag(lattice.discrete_ortho_constant(k, m))
                family_errors.append(float(np.max(np.abs(gram - expect))))
    # no line for a family with no member at any size up to n
    checks = [
        Check(f"discrete-ortho-{family.value}", max(family_errors), tol)
        for family, family_errors in errors.items() if family_errors
    ]
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
    """Exactness of the four rules against the exact moments of every
    monomial through weighted degree 2m - 1, for every size m from 2 to n."""
    if n < 2:
        raise ValueError("the cubature suite needs n >= 2")
    checks = []
    for kind in RULE_KINDS:
        worst = 0.0
        for m in range(2, n + 1):
            rule = make_rule(kind, m)
            mu = moments(rule.weight_params, 2 * m - 1)
            for k in star_indices_upto(2 * m - 1):
                got = integrate_poly(rule, BivarPoly.monomial(k.k1, k.k2, Fraction(1)))
                ref = float(mu[k])
                worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
        checks.append(Check(f"cubature-exactness-{kind}", worst, tol))
    return checks


def suite_eigen(n: int = 12, tol: float = 1e-8):
    """Exact eigen identities for half-integer parameters plus numeric
    residuals for three general parameter pairs, through weighted degree
    n; n = 1 would check only the constant polynomial."""
    if n < 2:
        raise ValueError("the eigen suite needs n >= 2")
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
    t = np.array(_interior_points(n)).T
    sc = gentrig.eval("sc", make_index(1, 0), t)
    cs = gentrig.eval("cs", make_index(1, 1), t)
    ss = gentrig.eval("ss", make_index(2, 1), t)
    cc10 = gentrig.eval("cc", make_index(1, 0), t)
    cc11 = gentrig.eval("cc", make_index(1, 1), t)
    cc30 = gentrig.eval("cc", make_index(3, 0), t)
    x, y = xy_map(t)
    f1, f2 = deltoid_factors(x, y)
    h10 = [gentrig.partial_t("cc", make_index(1, 0), t, i) for i in range(3)]
    h11 = [gentrig.partial_t("cc", make_index(1, 1), t, i) for i in range(3)]
    jac = (h10[0] - h10[2]) * (h11[1] - h11[2]) - (h10[1] - h10[2]) * (h11[0] - h11[2])
    expect = 4 * math.pi ** 2 / 3 * sc * cs
    errors = {
        "product-sc-cs-ss": 3 * sc * cs - ss,
        "square-sc": sc ** 2 - (1 + 2 * cc11) / 3 + cc10 ** 2,
        "square-cs": cs ** 2 + cc11 ** 2 - (1 + 2 * cc30) / 3,
        "cube-cc": cc10 ** 3
        - (cc30 / 36 + cc10 / 4 + cc11 / 6 + 1 / 18 + cc11 * cc10 / 2),
        "change-of-variables-squares": np.maximum(
            np.abs(sc ** 2 - f1 / 3), np.abs(cs ** 2 - f2)
        ),
    }
    checks = [Check(name, float(np.max(np.abs(e))), tol) for name, e in errors.items()]
    worst = np.max(np.abs(jac - expect) / np.maximum(1.0, np.abs(expect)))
    checks.append(Check("jacobian", float(worst), jac_tol))

    # exact polynomial identities
    coeffs = operator_coeffs(WeightParams(*gentrig.TrigFamily.SS.params))
    F = deltoid_F(BivarPoly.x(), BivarPoly.y())
    det = coeffs.A11 * coeffs.A22 - coeffs.A12 * coeffs.A12
    checks.append(Check("det-matches-9F", 0.0 if det == 9 * F else 1.0, 0.0))
    Fx, Fy = F.diff_x(), F.diff_y()
    lhs1 = Fx * coeffs.A11 + Fy * coeffs.A12 + 6 * BivarPoly({(1, 0): Fraction(5), (0, 0): Fraction(1)}) * F
    lhs2 = Fx * coeffs.A12 + Fy * coeffs.A22 + 18 * BivarPoly({(1, 0): Fraction(2), (0, 1): Fraction(3), (0, 0): Fraction(1)}) * F
    checks.append(Check("boundary-flux-x", 0.0 if not lhs1 else 1.0, 0.0))
    checks.append(Check("boundary-flux-y", 0.0 if not lhs2 else 1.0, 0.0))
    return checks


def suite_variety(n: int = 6, tol: float = 1e-10):
    """Common zeros of each rule's ideal generators, at rule size n; the
    gauss and radau1 rules have no generators of weighted degree 1."""
    if n < 2:
        raise ValueError("the variety suite needs n >= 2")
    return [Check(f"variety-{kind}", max(variety_check(kind, n).values()), tol)
            for kind in RULE_KINDS]


SUITES = {
    "orthogonality": suite_orthogonality,
    "cubature": suite_cubature,
    "eigen": suite_eigen,
    "identities": suite_identities,
    "variety": suite_variety,
}


def run_suite(name: str, n=None, tol=None):
    kwargs = {"n": n, "tol": tol}
    return SUITES[name](**{key: v for key, v in kwargs.items() if v is not None})
