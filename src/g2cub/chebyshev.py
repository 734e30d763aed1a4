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

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import quad
from .coords import make_index, orbit_size
from .gentrig import TrigFamily, eval as trig_eval
from .poly import BivarPoly, _times, integer_form, integer_ratio, mdegree_of, rounded_quotient

DENOM_FALLBACK = 1e-8


class MIndex(NamedTuple):
    k1: int
    k2: int

    @property
    def mdegree(self) -> int:
        return 2 * self.k1 + 3 * self.k2

    @classmethod
    def of(cls, k) -> "MIndex":
        """k as an index of Python ints: numpy integers are converted, and a
        component that is not an integer raises TypeError."""
        return cls(*map(operator.index, k))


def _parameter(v):
    """v as an int (numpy integers too), a Fraction, or another real as a
    float; TypeError for anything else."""
    if not isinstance(v, numbers.Real):
        raise TypeError(f"weight parameters must be real numbers, got {v!r}")
    if isinstance(v, numbers.Integral):
        return operator.index(v)
    return v if isinstance(v, Fraction) else float(v)


@dataclass(frozen=True)
class WeightParams:
    alpha: object
    beta: object

    def __post_init__(self):
        object.__setattr__(self, "alpha", _parameter(self.alpha))
        object.__setattr__(self, "beta", _parameter(self.beta))
        a, b = float(self.alpha), float(self.beta)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("weight parameters must be finite")
        if not (a > -1 and b > -1):
            raise ValueError("weight parameters must both exceed -1")

    @functools.cached_property
    def family(self):
        """The trig family whose polynomials have these parameters
        (`TrigFamily.params`), or None off the four half-integer cases;
        0.5 and Fraction(1, 2) both match."""
        return _FAMILY_OF_PARAMS.get((self.alpha, self.beta))

    def key(self):
        return (Fraction(self.alpha), Fraction(self.beta))


_FAMILY_OF_PARAMS = {fam.params: fam for fam in TrigFamily}


def _family(p: WeightParams) -> TrigFamily:
    if p.family is None:
        raise ValueError(
            f"parameters ({p.alpha}, {p.beta}) are outside the four "
            "half-integer cases"
        )
    return p.family


def xy_map(t) -> tuple:
    """Images of a point under the two lowest invariant trig functions;
    point components may be arrays."""
    x = trig_eval(TrigFamily.CC, make_index(1, 0), t)
    y = trig_eval(TrigFamily.CC, make_index(1, 1), t)
    return x, y


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
    """The two-parameter weight, including its constant prefactor."""
    f1, f2 = deltoid_factors(float(x), float(y))
    if f1 < 0 or f2 < 0:
        raise ValueError(f"point ({x}, {y}) lies outside the weight domain")
    a, b = float(p.alpha), float(p.beta)
    if (a < 0 and f1 == 0) or (b < 0 and f2 == 0):
        raise ValueError("negative exponent on the domain boundary")
    pref = (4.0 * math.pi ** 2) ** (a + b) / 3.0 ** (2 * a + b)
    return pref * f1 ** a * f2 ** b


# star order ---------------------------------------------------------------

def star_class(n: int):
    """Index pairs of weighted degree exactly n, in order."""
    return [MIndex((n - 3 * j) // 2, j) for j in range(n % 2, n // 3 + 1, 2)]


def star_indices_upto(max_mdeg: int):
    """All index pairs with weighted degree <= max_mdeg, in order."""
    return [k for d in range(max_mdeg + 1) for k in star_class(d)]


# exact polynomials ----------------------------------------------------------

def _quotient(p: WeightParams, k: MIndex):
    """Trig family, numerator index and denominator index (None for the
    first kind) of the quotient form of one family member: the family's
    sine bits are the signs of alpha and beta, its denominator is the
    family's shift and the numerator (k1+k2, k2) plus that shift."""
    fam = _family(p)
    num = make_index(k.k1 + k.k2 + fam.shift[0], k.k2 + fam.shift[1])
    return fam, num, fam.shift if any(fam.sines) else None


def cheb_poly(p: WeightParams, k) -> BivarPoly:
    """Exact polynomial of one family member; its coefficients are ints.

    It is the operator's eigenpolynomial whose leading coefficient
    6^(k1+k2) |orbit(den)| / |orbit(num)|, that is 6^(k1+k2) times the
    orthogonality constant, makes it equal to its trigonometric quotient.
    """
    from .sturm import eigen_poly  # sturm imports this module

    k = MIndex.of(k)
    if k.k1 < 0 or k.k2 < 0:
        raise ValueError("index components must be nonnegative")
    fam, num, _ = _quotient(p, k)
    lead = 6 ** (k.k1 + k.k2) * orbit_size(fam.shift)
    if type(p.alpha) is not Fraction or type(p.beta) is not Fraction:
        p = WeightParams(*fam.params)  # float half-integers name the exact families
    return eigen_poly(p, k, Fraction(lead, orbit_size(num)))


def resolve_index(alpha: Fraction, beta: Fraction, k1: int, k2: int):
    """Fold an arbitrary integer index pair back into the quadrant using
    the reflection identities: with the family's sine bits (d, p), a
    negative k2 reflects about -p and a negative k1 about -d, each
    reflection with the sign (-1)^bit, and a component equal to -bit
    makes the member vanish.  Returns (sign, MIndex) or (0, None) when
    the member is identically zero.  Raises ValueError off the four
    half-integer cases, where these identities do not hold."""
    d, p = _family(WeightParams(alpha, beta)).sines
    sign = 1
    for _ in range(64):
        if k1 >= 0 and k2 >= 0:
            return sign, MIndex(k1, k2)
        if k2 < 0:
            if k2 == -p:
                return 0, None
            k1, k2, sign = k1 + 3 * (k2 + p), -k2 - 2 * p, sign * (-1) ** p
        else:
            if k1 == -d:
                return 0, None
            k1, k2, sign = -k1 - 2 * d, k2 + k1 + d, sign * (-1) ** d
    raise RuntimeError("index reflection did not terminate")


# trigonometric evaluation ---------------------------------------------------

def cheb_eval_trig(p: WeightParams, k, t):
    """Evaluate a family member through its trigonometric quotient form.

    The components of t may be scalars or numpy arrays that broadcast
    against each other, as in `gentrig.eval`; scalar input gives a float.
    Where the denominator is below DENOM_FALLBACK the exact polynomial is
    summed instead, exactly at the rounded image xy_map(t) and rounded
    once (`BivarPoly.exact_value`).
    """
    k = MIndex.of(k)
    fam, num, den = _quotient(p, k)
    numerator = trig_eval(fam, num, t)
    if den is None:
        return numerator
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

    Equal to the orbit constant of the numerator index divided by the
    orbit constant of the denominator index of the quotient form.
    """
    _, num, den = _quotient(p, MIndex.of(k))
    value = 1.0 / orbit_size(num)
    if den is not None:
        value /= 1.0 / orbit_size(den)
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


def continuous_inner(p: WeightParams, f, g, tol=quad.DEFAULT_TOL):
    """Weighted inner product normalized so that <1, 1> = 1.

    Two polynomials, whatever their coefficients, are paired exactly: f
    and g each become ints over one common denominator
    (`poly.integer_form`), f * g is formed on those ints, c * mu is summed
    over its terms against the moments the parameter table keeps as ints
    over one denominator (`sturm._integer_moments`, brought to that form
    once as the moments grow, not on each call), and the sum is rounded
    once.  tol applies only
    to general callables (x, y) -> value, pulled back to the parameter
    triangle and integrated by product Gauss-Jacobi quadrature
    (`quad.triangle_quadrature`): tol bounds its error estimate relative
    to max(1, |result|), and QuadratureError is raised when the estimate
    stays above tol at the order cap `quad.ORDER_CAP`.  Raises ValueError
    where the weight is not integrable.
    """
    if isinstance(f, BivarPoly) and isinstance(g, BivarPoly):
        from .sturm import _integer_moments  # sturm imports this module
        (fn, fd), (gn, gd) = integer_form(f.coeffs), integer_form(g.coeffs)
        prod = _times(fn, gn)
        mus, den = _integer_moments(p, max(map(mdegree_of, prod), default=0))
        return rounded_quotient(sum([c * mus[e] for e, c in prod.items()]), fd * gd * den)

    _require_integrable(p)

    def values(x, y):
        return np.broadcast_to(f(x, y) * g(x, y), x.shape)

    return quad.triangle_quadrature(
        values, tol=tol, alpha=float(p.alpha), beta=float(p.beta))


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
