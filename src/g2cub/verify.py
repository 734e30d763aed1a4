"""Named verification suites behind the command-line `verify` subcommand,
run through `run_suite`, and the rules' variety residuals (`variety_check`).

Each suite returns a list of Check records, each stating its tolerance;
0 marks an exact check.  A suite passes when every check's max error is
at or below its tolerance.  Random points use a fixed seed."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import gentrig, lattice
from .chebyshev import cheb_eval_trig, cheb_poly, deltoid_F, deltoid_factors, orthogonality_constant
from .coords import make_index, make_point, point_from_index
from .cubature import RULE_KINDS, integrate_poly, make_rule, reference_integral
from .poly import BivarPoly
from .sturm import (
    MIndex,
    WeightParams,
    apply_L,
    continuous_inner,
    eigen_residual,
    eigenvalue,
    jacobi_poly,
    operator_coeffs,
    star_class,
    star_indices_upto,
)

HALF_PARAMS = tuple(
    WeightParams(*params) for params in sorted(f.params for f in gentrig.TrigFamily)
)


class Check(NamedTuple):
    name: str
    max_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol


_SEED, _MARGIN = 20120904, 0.02  # the interior sample's seed and its margin off each edge


def _interior_points(count):
    rng = random.Random(_SEED)
    pts = []
    while len(pts) < count:
        t2 = rng.uniform(_MARGIN, 0.5 - _MARGIN)
        t1 = rng.uniform(t2 + _MARGIN, 1.0 - t2 - _MARGIN)
        pts.append(make_point(t1, t2))
    return pts


def _orthogonality(n: int = 12):
    """Within-family orthogonality: discrete on the triangle lattice for
    every size up to n, continuous through the exact moments at low degree.
    The continuous check is exact: `continuous_inner` is an exact sum and
    `orthogonality_constant` a ratio of ints, each rounded once, so the two
    are equal floats where the identity holds."""
    errors = {family: [] for family in gentrig.TrigFamily}
    for m in range(1, n + 1):
        j = lattice.enum_upsilon(m).T
        t = point_from_index(j, m)
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
        Check(f"discrete-ortho-{family.value}", max(family_errors), 1e-12)
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
        checks.append(Check(f"continuous-ortho-({tag})", worst, 0.0))
    return checks


def _cubature(n: int = 8):
    """Exactness of the four rules against `reference_integral` of every
    monomial through weighted degree 2m - 1, for every size m from 2 to n."""
    checks = []
    for kind in RULE_KINDS:
        worst = 0.0
        for m in range(2, n + 1):
            rule = make_rule(kind, m)
            for k in star_indices_upto(2 * m - 1):
                mono = BivarPoly.monomial(k.k1, k.k2, Fraction(1))
                got = integrate_poly(rule, mono)
                ref = reference_integral(rule.weight_params, mono)
                worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
        checks.append(Check(f"cubature-exactness-{kind}", worst, 1e-9))
    return checks


def _eigen(n: int = 12):
    """Exact eigen identities for half-integer parameters plus numeric
    residuals for three general parameter pairs, through weighted degree
    n; n = 1 would check only the constant polynomial."""
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
            for k in star_indices_upto(n)
        )
        checks.append(Check(f"eigen-residual-({a},{b})", worst, 1e-8))
    return checks


def _identities(n: int = 100):
    """Pointwise product identities and exact polynomial identities.

    n counts the random interior sample points.  The Jacobian check divides
    by a derivative scale, so it runs at 1e-9 where the other pointwise
    checks run at 1e-12.
    """
    t = np.array(_interior_points(n)).T
    sc = gentrig.eval("sc", make_index(1, 0), t)
    cs = gentrig.eval("cs", make_index(1, 1), t)
    ss = gentrig.eval("ss", make_index(2, 1), t)
    cc10 = gentrig.eval("cc", make_index(1, 0), t)
    cc11 = gentrig.eval("cc", make_index(1, 1), t)
    cc30 = gentrig.eval("cc", make_index(3, 0), t)
    x, y = gentrig.xy_map(t)
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
    checks = [Check(name, float(np.max(np.abs(e))), 1e-12) for name, e in errors.items()]
    worst = np.max(np.abs(jac - expect) / np.maximum(1.0, np.abs(expect)))
    checks.append(Check("jacobian", float(worst), 1e-9))

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


def variety_check(kind: str, n: int) -> dict:
    """Residuals of the ideal generators attached to a rule on its node
    set, {generator label: normalized residual}.

    gauss:   members of the (1/2, 1/2) family of weighted degree n
    lobatto: differences of first-kind members of weighted degree n+1
    radau1:  members of the (1/2, -1/2) family of weighted degree n
    radau2:  differences of (-1/2, 1/2) members of weighted degree n+1

    Each generator is evaluated through the closed forms
    (`cheb_eval_trig`) at the nodes' lattice points j/m, where the
    quotient's denominator is the rule's own factor and does not vanish.
    Residuals are normalized by the generator's max over the interior
    nodes of a fixed gauss rule.  ValueError where the rule has no
    generator, as gauss and radau1 at n = 1.
    """
    rule, sample = make_rule(kind, n), make_rule("gauss", max(24, 2 * n))
    t_rule, t_sample = (point_from_index(r.indices.T, r.m) for r in (rule, sample))
    p = rule.weight_params
    if p.family.sines[0]:
        gens = [(str(tuple(k)), k, None) for k in star_class(n)]
    else:
        # k pairs with (k1-1, k2) when k1 > 0, else with (1, k2-1)
        pairs = [(k, MIndex(k.k1 - 1, k.k2) if k.k1 else MIndex(1, k.k2 - 1))
                 for k in star_class(n + 1)]
        gens = [(f"{tuple(k)}-{tuple(j)}", k, j) for k, j in pairs]
    if not gens:
        raise ValueError(f"the {kind} rule at n = {n} has no ideal generator")

    def sup(k, partner, t):
        value = cheb_eval_trig(p, k, t)
        if partner is not None:
            value = value - cheb_eval_trig(p, partner, t)
        return float(np.max(np.abs(value)))

    return {label: sup(k, j, t_rule) / (sup(k, j, t_sample) or 1.0) for label, k, j in gens}


def _variety(n: int = 6):
    """Common zeros of each rule's ideal generators at rule size n (`variety_check`)."""
    return [Check(f"variety-{kind}", max(variety_check(kind, n).values()), 1e-10)
            for kind in RULE_KINDS]


# name -> (suite, the least n it takes)
SUITES = {
    "orthogonality": (_orthogonality, 1),
    "cubature": (_cubature, 2),
    "eigen": (_eigen, 2),
    "identities": (_identities, 1),
    "variety": (_variety, 2),
}


def run_suite(name: str, n=None, tol=None):
    """The named suite's checks at size n (its default when None); tol
    replaces every nonzero tolerance.  n goes through `operator.index`, so
    a non-integer raises TypeError; ValueError for an unknown name, an n
    below the suite's least and a tol that is not positive and finite."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {', '.join(SUITES)}")
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    suite, least = SUITES[name]
    n = None if n is None else operator.index(n)
    if n is not None and n < least:
        raise ValueError(f"the {name} suite needs n >= {least}")
    checks = suite() if n is None else suite(n)
    if tol is not None:
        checks = [c._replace(tol=tol) if c.tol else c for c in checks]
    return checks
