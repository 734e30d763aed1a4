"""The deltoid-bounded domain, its weight functions and their masses,
and the four Chebyshev-type polynomial families with exact rational
coefficients.

The map (x, y) = (cc_{1,0,-1}, cc_{1,1,-2}) (`gentrig.xy_map`) sends the
fundamental triangle onto the region between two hypocycloid arcs, cut
out by F(x, y) >= 0.  Polynomials are graded by the weighted degree
2*k1 + 3*k2.  Each family member is the eigenpolynomial of the operator
in `sturm` for its half-integer parameters, scaled by an exact leading
coefficient so that it equals a quotient of trigonometric functions;
`resolve_index` folds out-of-range indices back by the group and its
character.  `WeightParams`, `star_indices_upto`, `continuous_inner` and
`xy_map` can still be imported from here.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction

import numpy as np

from .coords import G2, make_index, orbit_size
from .gentrig import TrigFamily, eval as trig_eval, xy_map
from .poly import BivarPoly, integer_ratio
from .quad import _require_integrable
from .sturm import MIndex, WeightParams, eigen_poly
from .sturm import continuous_inner, star_indices_upto  # re-exported only

DENOM_FALLBACK = 1e-8


def _family(p: WeightParams) -> TrigFamily:
    if p.family is None:
        raise ValueError(
            f"parameters ({p.alpha}, {p.beta}) are outside the four "
            "half-integer cases"
        )
    return p.family


def deltoid_factors(x, y):
    """The two factors (f1, f2) of the defining polynomial, each
    nonnegative on the domain; x and y may be floats, arrays or
    polynomials."""
    return (
        1 + 2 * y - 3 * x * x,
        24 * x ** 3 - y * y - 12 * x * y - 6 * x - 4 * y - 1,
    )


def deltoid_F(x, y):
    """Defining polynomial of the domain; nonnegative exactly on it."""
    f1, f2 = deltoid_factors(x, y)
    return f1 * f2


def weight_w(p: WeightParams, x: float, y: float) -> float:
    """The two-parameter weight (4 pi^2)^(a+b) 3^-(2a+b) f1^a f2^b, taken
    as one exp of the summed logs, so no factor over- or underflows on
    its own; its relative error is a few ulps of the largest log term
    (3e-13 at (300, 300)).  0.0 where a factor is 0 under a positive
    exponent; ValueError where the weight is outside the normal float
    range, as at (1e300, 0)."""
    f1, f2 = deltoid_factors(float(x), float(y))
    if f1 < 0 or f2 < 0:
        raise ValueError(f"point ({x}, {y}) lies outside the weight domain")
    a, b = float(p.alpha), float(p.beta)
    if (a < 0 and f1 == 0) or (b < 0 and f2 == 0):
        raise ValueError("negative exponent on the domain boundary")
    if (a and not f1) or (b and not f2):
        return 0.0
    log_w = (a + b) * math.log(4.0 * math.pi ** 2) - (2 * a + b) * math.log(3.0)
    for e, f in ((a, f1), (b, f2)):
        if e:  # f^0 is 1, also at f = 0
            log_w += e * math.log(f)
    return _exp_in_range(log_w, f"the weight at ({x}, {y})", p)


# exact polynomials ----------------------------------------------------------

def _quotient(p: WeightParams, k: MIndex):
    """Trig family, numerator index and denominator index of the quotient
    form F_num / F_den of one family member: the family's sine bits are the
    signs of alpha and beta, its denominator is the family's shift (for the
    first kind the zero index, whose member is 1.0 at every finite point)
    and the numerator (k1+k2, k2) plus that shift."""
    fam = _family(p)
    num = make_index(k.k1 + k.k2 + fam.shift[0], k.k2 + fam.shift[1])
    return fam, num, fam.shift


def cheb_poly(p: WeightParams, k) -> BivarPoly:
    """Exact polynomial of one family member; its coefficients are ints.

    It is the operator's eigenpolynomial whose leading coefficient
    6^(k1+k2) |orbit(den)| / |orbit(num)|, that is 6^(k1+k2) times the
    orthogonality constant, makes it equal to its trigonometric quotient.
    """
    k = MIndex.of(k)
    fam, num, den = _quotient(p, k)
    if type(p.alpha) is float:
        p = WeightParams(*fam.params)  # float half-integers name the exact families
    return eigen_poly(p, k, Fraction(6 ** (k.k1 + k.k2) * orbit_size(den), orbit_size(num)))


def resolve_index(alpha: Fraction, beta: Fraction, k1: int, k2: int):
    """Fold an arbitrary integer index pair back into the quadrant by the
    group: the member is F_num / F_shift, and with the first g in G2 that
    takes num to v in the chamber v0 >= v1 >= 0 it is chi(g)
    (`TrigFamily.character`) times the member (v0-v1-d, v1-p), or zero on
    a wall where the family vanishes (v0 == v1 if d = 1, v1 == 0 if p = 1).
    Returns (sign, MIndex) or (0, None).  Raises ValueError off the four
    half-integer cases, where the quotient form does not hold; k1 and k2 go
    through `operator.index`, so a non-integer raises TypeError."""
    fam, num, _ = _quotient(WeightParams(alpha, beta), MIndex(operator.index(k1), operator.index(k2)))
    d, p = fam.sines
    for g in G2:  # the chamber holds a point of every orbit
        v0, v1, _ = g.apply(num)
        if v0 >= v1 >= 0:
            break
    if (d and v0 == v1) or (p and v1 == 0):
        return 0, None
    return fam.character(g), MIndex(v0 - v1 - d, v1 - p)


# trigonometric evaluation ---------------------------------------------------

def cheb_eval_trig(p: WeightParams, k, t):
    """Evaluate a family member through its trigonometric quotient form
    F_num / F_den, whose F_den is 1.0 at every finite point for the first kind.

    The components of t may be scalars or numpy arrays that broadcast
    against each other, as in `gentrig.eval`; scalar input gives a float.
    Where the denominator is below DENOM_FALLBACK the exact polynomial is
    summed instead, exactly at the rounded image xy_map(t) and rounded
    once (`BivarPoly.exact_value`).
    """
    k = MIndex.of(k)
    fam, num, den = _quotient(p, k)
    numerator = trig_eval(fam, num, t)
    denominator = trig_eval(fam, den, t)
    small = np.abs(denominator) < DENOM_FALLBACK
    if not small.any():
        return numerator / denominator
    value = np.array(numerator / np.where(small, 1.0, denominator))
    x, y = (np.broadcast_to(c, value.shape)[small].tolist() for c in xy_map(t))
    value[small] = [cheb_poly(p, k).exact_value(a, b) for a, b in zip(x, y)]
    return float(value) if value.ndim == 0 else value


def orthogonality_constant(p: WeightParams, k) -> float:
    """Squared norm of a family polynomial under the unit-normalized
    weighted inner product.

    Equal to |orbit(shift)| / |orbit(num)|, with the numerator index and
    the family's shift, the denominator index, of the quotient form; the
    first kind's shift is the zero index, whose orbit has size 1.
    """
    _, num, den = _quotient(p, MIndex.of(k))
    return orbit_size(den) / orbit_size(num)


# weighted integrals ---------------------------------------------------------

def _log_mass(p: WeightParams) -> float:
    """The log of `weight_mass`, +inf where a log-Gamma overflows."""
    _require_integrable(p.alpha, p.beta)  # which makes every Gamma argument positive
    a, b = float(p.alpha), float(p.beta)
    ks, kl = a + 0.5, b + 0.5
    roots = ((ks, ks), (ks + 3 * kl, ks), (2 * ks + 3 * kl, ks),
             (kl, kl), (ks + kl, kl), (ks + 2 * kl, kl))
    try:
        log_prod = sum(
            math.lgamma(c + k + 1) + math.lgamma(c - k + 1) - 2 * math.lgamma(c + 1)
            for c, k in roots
        )
    except OverflowError:
        return math.inf
    return log_prod - (a + b) * math.log(36.0) - math.log(144.0)


def _exp_in_range(log_value: float, name: str, p: WeightParams) -> float:
    """exp(log_value); ValueError naming p where it is outside the normal
    float range."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:  # a nan fails too
        raise ValueError(f"{name} at parameters ({p.alpha}, {p.beta}) "
                         "is outside the float range")
    return value


def weight_mass(p: WeightParams) -> float:
    """Integral of the pulled-back weight over the parameter triangle:
    Macdonald's constant-term product for G2 (Habsieger 1986, Zeilberger
    1988), 36^-(a+b)/144 prod_r G(c_r+k_r+1) G(c_r-k_r+1) / G(c_r+1)^2 over
    the positive roots r, with multiplicities k_s = a+1/2 and k_l = b+1/2.
    It is one exp of the summed logs, so neither factor under- or overflows
    on its own; ValueError where the mass is outside the normal float range."""
    return _exp_in_range(_log_mass(p), "the weight's mass", p)


def normalization_c(p: WeightParams) -> float:
    """Reciprocal of the weight's integral over its domain, in closed form:
    (3 / (4 pi^2))^(a+b+1) / `weight_mass`, taken as one exp of the summed
    logs; ValueError where it is outside the normal float range."""
    a, b = float(p.alpha), float(p.beta)
    log_c = (a + b + 1.0) * math.log(3.0 / (4.0 * math.pi ** 2)) - _log_mass(p)
    return _exp_in_range(log_c, "the normalization constant", p)


# serialization ---------------------------------------------------------------

def poly_to_json_dict(p: WeightParams, k, polynomial: BivarPoly) -> dict:
    k = MIndex.of(k)
    terms = []
    for (i, j), c in polynomial.star_sorted_terms():
        num, den = integer_ratio(c)
        terms.append({"i": i, "j": j, "num": num, "den": den})
    return {
        "alpha": float(p.alpha),
        "beta": float(p.beta),
        "k": [k.k1, k.k2],
        "terms": terms,
    }
