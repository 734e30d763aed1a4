"""Change of variables onto the deltoid-bounded domain, the weight
functions, and the four Chebyshev-type polynomial families with exact
rational coefficients.

The map (x, y) = (cc_{1,0,-1}, cc_{1,1,-2}) sends the fundamental
triangle onto the region between two hypocycloid arcs, cut out by
F(x, y) >= 0.  Polynomials are graded by the weighted degree
2*k1 + 3*k2.  Each family member is the eigenpolynomial of the operator
in `sturm` for its half-integer parameters, scaled by an exact leading
coefficient so that it equals a quotient of trigonometric functions;
`resolve_index` folds out-of-range indices back by the reflection
identities of those functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import quad
from .coords import make_index
from .gentrig import TrigFamily, eval as trig_eval
from .lattice import orbit_constant
from .poly import BivarPoly, star_cmp, star_key  # star_cmp re-exported

HALF = Fraction(1, 2)

DENOM_FALLBACK = 1e-8


class MIndex(NamedTuple):
    k1: int
    k2: int

    @property
    def mdegree(self) -> int:
        return 2 * self.k1 + 3 * self.k2


@dataclass(frozen=True)
class WeightParams:
    alpha: object
    beta: object

    def __post_init__(self):
        if not (float(self.alpha) > -1 and float(self.beta) > -1):
            raise ValueError("weight parameters must both exceed -1")

    @property
    def is_half_integer(self) -> bool:
        return abs(self.alpha) == HALF and abs(self.beta) == HALF

    def key(self):
        return (Fraction(self.alpha), Fraction(self.beta))


def _require_half_integer(p: WeightParams):
    if not p.is_half_integer:
        raise ValueError(
            f"parameters ({p.alpha}, {p.beta}) are outside the four "
            "half-integer cases"
        )


def xy_map(t) -> tuple:
    """Images of a point under the two lowest invariant trig functions;
    point components may be arrays."""
    x = trig_eval(TrigFamily.CC, make_index(1, 0), t)
    y = trig_eval(TrigFamily.CC, make_index(1, 1), t)
    return x, y


def deltoid_F(x, y):
    """Defining polynomial of the domain; nonnegative exactly on it."""
    return (1 + 2 * y - 3 * x * x) * (
        24 * x ** 3 - y * y - 12 * x * y - 6 * x - 4 * y - 1
    )


def weight_w(p: WeightParams, x: float, y: float) -> float:
    """The two-parameter weight, including its constant prefactor."""
    f1 = 1.0 + 2.0 * y - 3.0 * x * x
    f2 = 24.0 * x ** 3 - y * y - 12.0 * x * y - 6.0 * x - 4.0 * y - 1.0
    if f1 < 0 or f2 < 0:
        raise ValueError(f"point ({x}, {y}) lies outside the weight domain")
    a, b = float(p.alpha), float(p.beta)
    if (a < 0 and f1 == 0) or (b < 0 and f2 == 0):
        raise ValueError("negative exponent on the domain boundary")
    pref = (4.0 * math.pi ** 2) ** (a + b) / 3.0 ** (2 * a + b)
    return pref * f1 ** a * f2 ** b


# star order ---------------------------------------------------------------

def star_indices_upto(max_mdeg: int):
    """All index pairs with weighted degree <= max_mdeg, in order."""
    out = [
        MIndex(i, j)
        for i in range(max_mdeg // 2 + 1)
        for j in range((max_mdeg - 2 * i) // 3 + 1)
    ]
    return sorted(out, key=star_key)


def star_class(n: int):
    """Index pairs of weighted degree exactly n, in order."""
    return [MIndex((n - 3 * j) // 2, j) for j in range(n % 2, n // 3 + 1, 2)]


# exact polynomials ----------------------------------------------------------

_QUOTIENTS = {
    # (2a, 2b) -> (family, numerator index builder, denominator index)
    (-1, -1): (TrigFamily.CC, lambda k1, k2: (k1 + k2, k2), None),
    (1, -1): (TrigFamily.SC, lambda k1, k2: (k1 + k2 + 1, k2), (1, 0)),
    (-1, 1): (TrigFamily.CS, lambda k1, k2: (k1 + k2 + 1, k2 + 1), (1, 1)),
    (1, 1): (TrigFamily.SS, lambda k1, k2: (k1 + k2 + 2, k2 + 1), (2, 1)),
}


def _quotient(p: WeightParams, k: MIndex):
    """Trig family, numerator index and denominator index (None for the
    first kind) of the quotient form of one family member."""
    _require_half_integer(p)
    fam, num, den = _QUOTIENTS[(int(2 * Fraction(p.alpha)), int(2 * Fraction(p.beta)))]
    return fam, make_index(*num(k.k1, k.k2)), make_index(*den) if den else None


def _orbit_size(k) -> int:
    """|orbit(k)| in closed form: 1 for the zero index, 6 when a component
    is 0 or two components are equal, 12 otherwise."""
    k1, k2, k3 = k
    if not (k1 or k2):
        return 1
    if not (k1 and k2 and k3) or k1 == k2 or k2 == k3 or k1 == k3:
        return 6
    return 12


def cheb_poly(p: WeightParams, k) -> BivarPoly:
    """Exact rational polynomial of one family member.

    It is the operator's eigenpolynomial whose leading coefficient
    6^(k1+k2) |orbit(den)| / |orbit(num)|, that is 6^(k1+k2) times the
    orthogonality constant, makes it equal to its trigonometric quotient.
    """
    from .sturm import eigen_poly  # sturm imports this module

    k = MIndex(*k)
    if k.k1 < 0 or k.k2 < 0:
        raise ValueError("index components must be nonnegative")
    _, num, den = _quotient(p, k)
    lead = 6 ** (k.k1 + k.k2) * (_orbit_size(den) if den is not None else 1)
    return eigen_poly(WeightParams(*p.key()), k, Fraction(lead, _orbit_size(num)))


def resolve_index(alpha: Fraction, beta: Fraction, k1: int, k2: int):
    """Fold an arbitrary integer index pair back into the quadrant using
    the reflection identities.  Returns (sign, MIndex) or (0, None) when
    the member is identically zero."""
    sign = 1
    for _ in range(64):
        if k1 >= 0 and k2 >= 0:
            return sign, MIndex(k1, k2)
        if k2 < 0:
            if beta == -HALF:
                k1, k2 = k1 + 3 * k2, -k2
            else:
                if k2 == -1:
                    return 0, None
                k1, k2 = k1 + 3 * k2 + 3, -k2 - 2
                sign = -sign
        elif k1 < 0:
            if alpha == -HALF:
                k1, k2 = -k1, k2 + k1
            else:
                if k1 == -1:
                    return 0, None
                k1, k2 = -k1 - 2, k2 + k1 + 1
                sign = -sign
    raise RuntimeError("index reflection did not terminate")


# trigonometric evaluation ---------------------------------------------------

def cheb_eval_trig(p: WeightParams, k, t) -> float:
    """Evaluate a family member through its trigonometric quotient form,
    falling back to the exact polynomial when the denominator is tiny."""
    k = MIndex(*k)
    fam, num, den = _quotient(p, k)
    numerator = trig_eval(fam, num, t)
    if den is None:
        return numerator
    denominator = trig_eval(fam, den, t)
    if abs(denominator) < DENOM_FALLBACK:
        x, y = xy_map(t)
        return float(cheb_poly(p, k)(x, y))
    return numerator / denominator


def orthogonality_constant(p: WeightParams, k) -> float:
    """Squared norm of a family polynomial under the unit-normalized
    weighted inner product.

    Equal to the orbit constant of the numerator index divided by the
    orbit constant of the denominator index of the quotient form.
    """
    _, num, den = _quotient(p, MIndex(*k))
    value = orbit_constant(num)
    if den is not None:
        value /= orbit_constant(den)
    return value


# weighted integrals ---------------------------------------------------------

def _require_integrable(p: WeightParams):
    """The weight is integrable only for beta > -5/6 and alpha + beta > -4/3
    besides alpha, beta > -1: sc and cs both vanish to order 3 at the
    vertex t = (0, 0), and cs alone at (1, 0)."""
    a, b = float(p.alpha), float(p.beta)
    if not (b > -5 / 6 and a + b > -4 / 3):
        raise ValueError(
            f"the weight at parameters ({p.alpha}, {p.beta}) is not integrable: "
            "it needs beta > -5/6 and alpha + beta > -4/3"
        )


def continuous_inner(p: WeightParams, f, g, tol=quad.DEFAULT_TOL, cap=None):
    """Weighted inner product normalized so that <1, 1> = 1.

    Polynomial arguments are integrated exactly through the operator's
    moments (`sturm.moments`); general callables (x, y) -> value are pulled
    back to the parameter triangle and integrated by adaptive quadrature,
    to which tol and cap apply.  Raises ValueError where the weight is not
    integrable.
    """
    if isinstance(f, BivarPoly) and isinstance(g, BivarPoly):
        from .sturm import moments  # sturm imports this module

        prod = f * g
        mu = moments(p, prod.mdegree())
        return float(sum(float(c) * float(mu[ij]) for ij, c in prod.coeffs.items()))

    _require_integrable(p)
    a, b = float(p.alpha), float(p.beta)
    smooth = quad._needs_smoothing(a, b)

    def batch(t1, t2):
        x, y, w = quad.pullback(a, b, t1, t2)
        rows = np.empty((2, t1.size))
        rows[0] = w
        rows[1] = w * f(x, y) * g(x, y)
        return rows

    est = quad.triangle_quadrature(batch, tol=tol, cap=cap, smooth=smooth)
    return float(est[1] / est[0])


def weight_mass(p: WeightParams) -> float:
    """Integral of the pulled-back weight over the parameter triangle:
    Macdonald's constant-term product for G2 (Habsieger 1986, Zeilberger
    1988), 36^-(a+b)/144 prod_r G(c_r+k_r+1) G(c_r-k_r+1) / G(c_r+1)^2 over
    the positive roots r, with multiplicities k_s = a+1/2 and k_l = b+1/2."""
    _require_integrable(p)  # which makes every Gamma argument positive
    a, b = float(p.alpha), float(p.beta)
    ks, kl = a + 0.5, b + 0.5
    roots = ((ks, ks), (ks + 3 * kl, ks), (2 * ks + 3 * kl, ks),
             (kl, kl), (ks + kl, kl), (ks + 2 * kl, kl))
    log_prod = sum(
        math.lgamma(c + k + 1) + math.lgamma(c - k + 1) - 2 * math.lgamma(c + 1)
        for c, k in roots
    )
    return 36.0 ** -(a + b) / 144.0 * math.exp(log_prod)


def normalization_c(p: WeightParams) -> float:
    """Reciprocal of the weight's integral over its domain, in closed form."""
    a, b = float(p.alpha), float(p.beta)
    return (3.0 / (4.0 * math.pi ** 2)) ** (a + b + 1.0) / weight_mass(p)


# serialization ---------------------------------------------------------------

def poly_to_json_dict(p: WeightParams, k, polynomial: BivarPoly) -> dict:
    k = MIndex(*k)
    terms = []
    for (i, j), c in polynomial.star_sorted_terms():
        frac = c if isinstance(c, Fraction) else Fraction(c)
        terms.append({"i": i, "j": j, "num": frac.numerator, "den": frac.denominator})
    return {
        "alpha": float(p.alpha),
        "beta": float(p.beta),
        "k": [k.k1, k.k2],
        "terms": terms,
    }
