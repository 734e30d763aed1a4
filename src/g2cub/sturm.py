"""The two-parameter second-order operator behind the polynomial families:
exact coefficients, application to polynomials, monomial images,
eigenvalues, the eigenpolynomials themselves, and the weight's moments.

The operator is triangular with respect to the weighted monomial order,
so each index pair carries exactly one eigenpolynomial with a given
leading coefficient; it is orthogonal to all earlier monomials under the
weighted inner product.  `eigen_poly` builds it by back-substitution down
the order, exactly for rational parameters and in floating point
otherwise; both the Chebyshev-type families and the general-parameter
polynomials come from it.  `moments` runs the same triangular structure
up the order to get every polynomial integral exactly.

The exact paths run on Python ints: for rational parameters every
eigenvalue and monomial-image coefficient is scaled by the one common
denominator D = 2 lcm(den alpha, den beta), and `apply_L` scales q by the
common denominator of its coefficients as well; a Fraction appears only
where a value really is non-integral.  Float parameters take the same
code with D = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chebyshev import MIndex, WeightParams, _require_integrable, star_class, star_indices_upto
from .lattice import dim_pi_star
from .poly import BivarPoly

_A11 = BivarPoly({(2, 0): Fraction(-6), (0, 1): Fraction(1), (1, 0): Fraction(3), (0, 0): Fraction(2)})
_A12 = BivarPoly({(1, 1): Fraction(-9), (2, 0): Fraction(18), (0, 1): Fraction(-6), (0, 0): Fraction(-3)})
_A22 = BivarPoly({(0, 2): Fraction(-18), (3, 0): Fraction(108), (1, 1): Fraction(-54), (1, 0): Fraction(-27), (0, 1): Fraction(-9)})


@dataclass(frozen=True)
class OperatorCoeffs:
    A11: BivarPoly
    A12: BivarPoly
    A22: BivarPoly
    B1: BivarPoly
    B2: BivarPoly


def operator_coeffs(p: WeightParams) -> OperatorCoeffs:
    """Coefficient polynomials; exact when the parameters are rational."""
    a, b = p.alpha, p.beta
    one = a * 0 + 1  # unit of the parameter's numeric type
    B1 = BivarPoly({(1, 0): 21 * one + 12 * a + 18 * b, (0, 0): 6 * a + 3 * one})
    B2 = BivarPoly({
        (1, 0): 18 * one + 36 * a,
        (0, 1): 45 * one + 36 * b + 18 * a,
        (0, 0): 18 * b + 9 * one,
    })
    return OperatorCoeffs(_A11, _A12, _A22, B1, B2)


def apply_L(p: WeightParams, q: BivarPoly) -> BivarPoly:
    """Apply the operator by direct differentiation of q.

    With Fraction alpha, rational beta and rational coefficients, q is
    scaled by the common denominator s of its coefficients and the
    operator coefficients by D (see `_scale`), so the products run on ints;
    the result is divided by D * s at the end, which gives the same
    Fractions as the unscaled arithmetic.
    """
    c = operator_coeffs(p)
    ops = (c.A11, c.A12, c.A22, c.B1, c.B2)
    n = 1
    D = _scale(p)
    rational = all(type(v) in (int, Fraction) for v in q.coeffs.values())
    # a Fraction alpha makes every unscaled result a Fraction, the type returned here
    if D > 1 and type(p.alpha) is Fraction and rational:
        s = math.lcm(*(v.denominator for v in q.coeffs.values()))
        q = BivarPoly({e: v.numerator * (s // v.denominator) for e, v in q.coeffs.items()})
        ops = tuple(BivarPoly({e: _int(D * v) for e, v in op.coeffs.items()}) for op in ops)
        n = D * s
    A11, A12, A22, B1, B2 = ops
    qx = q.diff_x()
    qy = q.diff_y()
    out = (
        -(A11 * qx.diff_x())
        - 2 * (A12 * qx.diff_y())
        - (A22 * qy.diff_y())
        + B1 * qx
        + B2 * qy
    )
    if n == 1:
        return out
    return BivarPoly({e: Fraction(v, n) for e, v in out.coeffs.items()})


# shift table of the monomial image: (mu, nu) -> exponent (j-2mu+3nu, k+mu-2nu)
_SHIFTS = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (3, 2), (4, 2), (4, 3), (5, 3))


def monomial_image(p: WeightParams, j: int, k: int):
    """Nine-term expansion of the operator applied to x^j y^k, as a list
    of ((i1, i2), coefficient) with zero terms dropped."""
    if j < 0 or k < 0:
        raise ValueError("exponents must be nonnegative")
    a = p.alpha
    return _image_terms(j, k, a * 0 + 1, a, p.beta)


def _image_terms(j, k, one, a, b):
    """`monomial_image` with the unit `one`: every coefficient is linear in
    (one, alpha, beta), so scaling all three by D scales the image by D."""
    coeff = {
        (0, 0): 6 * (j * j + 3 * k * k + 3 * j * k) * one
        + 3 * j * (5 * one + 4 * a + 6 * b)
        + 3 * k * (9 * one + 6 * a + 12 * b),
        (0, 1): -108 * k * (k - 1) * one,
        (1, 0): -j * (j - 1) * one,
        (1, 1): 18 * k * ((3 * k - 2 - 2 * j) * one + 2 * a),
        (2, 1): 3 * j * ((-j + 2 + 4 * k) * one + 2 * a),
        (3, 2): 9 * k * (k * one + 2 * b),
        (4, 2): -2 * j * (j - 1) * one,
        (4, 3): 27 * k * (k - 1) * one,
        (5, 3): 6 * j * k * one,
    }
    out = []
    for mu, nu in _SHIFTS:
        c = coeff[(mu, nu)]
        if not c:
            continue
        expo = (j - 2 * mu + 3 * nu, k + mu - 2 * nu)
        if expo[0] < 0 or expo[1] < 0:
            raise AssertionError("nonzero image term with negative exponent")
        out.append((expo, c))
    return out


def eigenvalue(p: WeightParams, k):
    """Closed-form eigenvalue attached to one index pair."""
    k = MIndex(*k)
    a, b = p.alpha, p.beta
    one = a * 0 + 1
    m = k.mdegree
    return (
        Fraction(3, 2) * m * (m * one + 5 + 4 * a + 6 * b)
        + Fraction(9, 2) * k.k2 * ((k.k2 + 1) * one + 2 * b)
    )


def eigen_residual(p: WeightParams, k, polynomial: BivarPoly) -> float:
    """Coefficient-space relative residual of L q = lambda q."""
    lam = eigenvalue(p, k)
    resid = apply_L(p, polynomial) - float(lam) * polynomial.to_float()
    scale = max(1.0, abs(float(lam)) * polynomial.max_abs_coeff())
    return resid.max_abs_coeff() / scale


def _int(v):
    """A Fraction with denominator 1 as a plain int, whose arithmetic is
    several times cheaper; anything else unchanged."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


# (alpha, beta, their types) -> (eigenvalue and lowered monomial image per
# index, both scaled by D; finished polynomials; normalized moments; D); the
# types keep exact and float results apart, since Fraction(1, 2) == 0.5
_EIGEN_CACHE = {}

TIE_RTOL = 1e-12


def _scale(p: WeightParams) -> int:
    """D = 2 lcm(den alpha, den beta) for rational parameters, else 1.

    Eigenvalues are integer-linear in 1, alpha and beta apart from the
    factors 3/2 and 9/2, and monomial images are integer-linear in them, so
    D times either is an integer.
    """
    a, b = p.alpha, p.beta
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return 2 * math.lcm(a.denominator, b.denominator)
    return 1


def _entry(p: WeightParams):
    key = (p.alpha, p.beta, type(p.alpha), type(p.beta))
    got = _EIGEN_CACHE.get(key)
    if got is None:
        got = _EIGEN_CACHE[key] = ({}, {}, {(0, 0): Fraction(1)}, _scale(p))
    return got


def _image(p: WeightParams, entry, m):
    """D lambda_m and D times the lowered monomial image of index m, cached
    in the parameters' entry.  With D = 2 lcm(den alpha, den beta) for
    rational parameters all of these are ints; float parameters have D = 1
    and keep their float values."""
    images, D = entry[0], entry[3]
    got = images.get(m)
    if got is None:
        a, b = p.alpha, p.beta
        one = a * 0 + 1
        if D > 1:
            one, a, b = D, _int(D * a), _int(D * b)
        lowered = [(e, _int(c)) for e, c in _image_terms(*m, one, a, b) if e != m]
        got = images[m] = (_int(D * eigenvalue(p, m)), lowered)
    return got


def eigen_poly(p: WeightParams, k, lead=1) -> BivarPoly:
    """The eigenpolynomial of L with leading term lead * x^k1 y^k2.

    L maps each monomial to lambda times itself plus terms strictly
    earlier in the weighted order, so the coefficients follow by
    back-substitution down that order: c_m = acc_m / (lambda_k - lambda_m),
    where acc_m collects the images of the coefficients already fixed.
    Both acc_m and the gap carry the factor D of `_image`, so for rational
    parameters the quotient is one integer division, and a Fraction only
    where it leaves a remainder; floating point otherwise.  Raises
    ValueError when an eigenvalue tie leaves a coefficient undetermined.
    """
    k = MIndex(*k)
    if k.k1 < 0 or k.k2 < 0:
        raise ValueError("index components must be nonnegative")
    a, b = p.alpha, p.beta
    entry = _entry(p)
    polys, D = entry[1], entry[3]
    done = polys.get((k, lead))
    if done is not None:
        return done

    lam = _image(p, entry, k)[0]
    tie = TIE_RTOL * max(D, abs(float(lam)))
    coeffs = {k: _int(lead)}
    acc = {}
    # indices after k in its own class are visited too, but nothing reaches them
    for d in range(k.mdegree, -1, -1):
        for m in reversed(star_class(d)):
            if m != k:
                r = acc.pop(m, 0)
                if not r:
                    continue
                gap = lam - _image(p, entry, m)[0]
                if abs(float(gap)) <= tie:
                    raise ValueError(
                        f"eigenvalue tie between {tuple(k)} and {tuple(m)} at "
                        f"parameters ({a}, {b}) leaves the polynomial undetermined"
                    )
                if type(r) is int and type(gap) is int:
                    quo, rem = divmod(r, gap)
                    coeffs[m] = Fraction(r, gap) if rem else quo
                else:
                    coeffs[m] = _int(r / gap)
            c = coeffs[m]
            for e, v in _image(p, entry, m)[1]:
                acc[e] = acc.get(e, 0) + c * v
    one = a * 0 + 1  # each coefficient takes the type of c * one
    if type(one) is Fraction:
        coeffs = {m: Fraction(c) if type(c) is int else c for m, c in coeffs.items()}
    else:
        coeffs = {m: c * one for m, c in coeffs.items()}
    q = polys[(k, lead)] = BivarPoly(coeffs)
    return q


def moments(p: WeightParams, max_mdeg: int) -> dict:
    """Exact normalized moments <x^i y^j, 1>, as Fractions, for every
    monomial up to weighted degree max_mdeg.

    L is symmetric under the weight and L 1 = 0, so <L x^m, 1> = 0; with
    L x^m = lambda_m x^m + sum_e c_e x^e over earlier monomials, this gives
    mu_m = -sum_e c_e mu_e / lambda_m from mu_(0,0) = 1, up the weighted
    order, with c_e and lambda_m both scaled by the D of `_image`.  Float
    parameters enter by their exact binary value.  Returns the cached
    table itself, a prefix of that order grown in place; do not modify it.
    Raises ValueError where the weight is not integrable; elsewhere every
    lambda_m with m != 0 is positive.
    """
    _require_integrable(p)
    q = WeightParams(*p.key())
    entry = _entry(q)
    mu = entry[2]
    if len(mu) >= dim_pi_star(max(max_mdeg, 0)):  # the prefix already reaches max_mdeg
        return mu
    for m in star_indices_upto(max_mdeg):
        if m not in mu:
            lam, lowered = _image(q, entry, m)
            mu[m] = Fraction(-sum(c * mu[e] for e, c in lowered), lam)
    return mu


def jacobi_poly(p: WeightParams, k) -> BivarPoly:
    """Eigenpolynomial in floating point with unit leading coefficient in
    the weighted monomial order; it is orthogonal to every earlier monomial."""
    return eigen_poly(WeightParams(float(p.alpha), float(p.beta)), k)


def selfadjointness_check(p: WeightParams, f: BivarPoly, g: BivarPoly):
    """Both orderings of the weighted pairing with the operator."""
    from .chebyshev import continuous_inner

    lhs = continuous_inner(p, apply_L(p, f).to_float(), g.to_float())
    rhs = continuous_inner(p, f.to_float(), apply_L(p, g).to_float())
    return lhs, rhs
