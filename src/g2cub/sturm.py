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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chebyshev import MIndex, WeightParams, _require_integrable, star_indices_upto
from .lattice import dim_pi_star
from .poly import BivarPoly, star_key

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
    """Apply the operator by direct differentiation of q."""
    c = operator_coeffs(p)
    qx = q.diff_x()
    qy = q.diff_y()
    return (
        -(c.A11 * qx.diff_x())
        - 2 * (c.A12 * qx.diff_y())
        - (c.A22 * qy.diff_y())
        + c.B1 * qx
        + c.B2 * qy
    )


# shift table of the monomial image: (mu, nu) -> exponent (j-2mu+3nu, k+mu-2nu)
_SHIFTS = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (3, 2), (4, 2), (4, 3), (5, 3))


def monomial_image(p: WeightParams, j: int, k: int):
    """Nine-term expansion of the operator applied to x^j y^k, as a list
    of ((i1, i2), coefficient) with zero terms dropped."""
    if j < 0 or k < 0:
        raise ValueError("exponents must be nonnegative")
    a, b = p.alpha, p.beta
    one = a * 0 + 1
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
# index, finished polynomials, normalized moments); the types keep exact
# and float results apart, since Fraction(1, 2) == 0.5
_EIGEN_CACHE = {}

TIE_RTOL = 1e-12


def _entry(p: WeightParams):
    return _EIGEN_CACHE.setdefault(
        (p.alpha, p.beta, type(p.alpha), type(p.beta)), ({}, {}, {(0, 0): Fraction(1)})
    )


def _image(p: WeightParams, images, m):
    """Eigenvalue and lowered monomial image of one index, cached in images."""
    got = images.get(m)
    if got is None:
        lowered = [(e, _int(c)) for e, c in monomial_image(p, *m) if e != m]
        got = images[m] = (eigenvalue(p, m), lowered)
    return got


def eigen_poly(p: WeightParams, k, lead=1) -> BivarPoly:
    """The eigenpolynomial of L with leading term lead * x^k1 y^k2.

    L maps each monomial to lambda times itself plus terms strictly
    earlier in the weighted order, so the coefficients follow by
    back-substitution down that order: c_m = acc_m / (lambda_k - lambda_m),
    where acc_m collects the images of the coefficients already fixed.
    Exact for rational parameters, floating point otherwise.  Raises
    ValueError when an eigenvalue tie leaves a coefficient undetermined.
    """
    k = MIndex(*k)
    if k.k1 < 0 or k.k2 < 0:
        raise ValueError("index components must be nonnegative")
    a, b = p.alpha, p.beta
    images, polys, _ = _entry(p)
    done = polys.get((k, lead))
    if done is not None:
        return done

    lam = _image(p, images, k)[0]
    tie = TIE_RTOL * max(1.0, abs(float(lam)))
    coeffs = {k: _int(lead)}
    acc = {}
    key = star_key(k)
    for m in reversed(star_indices_upto(k.mdegree)):
        if star_key(m) > key:
            continue
        if m != k:
            r = acc.pop(m, 0)
            if not r:
                continue
            gap = lam - _image(p, images, m)[0]
            if abs(float(gap)) <= tie:
                raise ValueError(
                    f"eigenvalue tie between {tuple(k)} and {tuple(m)} at "
                    f"parameters ({a}, {b}) leaves the polynomial undetermined"
                )
            coeffs[m] = _int(r / gap)
        c = coeffs[m]
        for e, v in _image(p, images, m)[1]:
            acc[e] = acc.get(e, 0) + c * v
    one = a * 0 + 1
    q = polys[(k, lead)] = BivarPoly({m: c * one for m, c in coeffs.items()})
    return q


def moments(p: WeightParams, max_mdeg: int) -> dict:
    """Exact normalized moments <x^i y^j, 1>, as Fractions, for every
    monomial up to weighted degree max_mdeg.

    L is symmetric under the weight and L 1 = 0, so <L x^m, 1> = 0; with
    L x^m = lambda_m x^m + sum_e c_e x^e over earlier monomials, this gives
    mu_m = -sum_e c_e mu_e / lambda_m from mu_(0,0) = 1, up the weighted
    order.  Float parameters enter by their exact binary value.  Returns
    the cached table itself, a prefix of that order grown in place; do
    not modify it.  Raises ValueError where the weight is not integrable;
    elsewhere every lambda_m with m != 0 is positive.
    """
    _require_integrable(p)
    q = WeightParams(*p.key())
    images, _, mu = _entry(q)
    if len(mu) >= dim_pi_star(max(max_mdeg, 0)):  # the prefix already reaches max_mdeg
        return mu
    for m in star_indices_upto(max_mdeg):
        if m not in mu:
            lam, lowered = _image(q, images, m)
            mu[m] = -sum(c * mu[e] for e, c in lowered) / lam
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
