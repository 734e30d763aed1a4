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
up the order to get every polynomial integral exactly, on Python ints:
each moment is a reduced numerator and denominator, and one step takes
the lcm of its at most eight earlier denominators and one gcd.

One table per parameter pair serves both exact sweeps, down the order
(`eigen_poly`) and up it (`moments`), and the eigen-check (`apply_L`).
It holds the operator's coefficient polynomials, built once with every
integral coefficient an int, and the weighted order as a list of
positions grown one degree class at a time, with each eigenvalue and
lowered monomial image at its position, scaled by the one common
denominator D = 2 lcm(den alpha, den beta) so that for rational
parameters they are Python ints.  `apply_L` multiplies q's derivatives
by the coefficient polynomials in q's own arithmetic and never reads the
lowered images.  The moments stay in the table, so a deeper call goes on
where the last one stopped; besides their reduced pairs it keeps them as
ints over one common denominator, grown with the prefix, which
`continuous_inner` pairs two polynomials against without rebuilding that
denominator on each call.  The exact results keep one form: an
eigenpolynomial's coefficient, an eigenvalue or a coefficient of
`apply_L` is an int where it is integral and a Fraction only where it is
not.  Float parameters take the same code with D = 1.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .chebyshev import MIndex, WeightParams, _require_integrable, continuous_inner, star_class
from .lattice import dim_pi_star
from .poly import BivarPoly, _times

HALF = Fraction(1, 2)


class OperatorCoeffs(NamedTuple):
    """The operator's five coefficient polynomials at one parameter pair;
    the record is cached and shared (see `operator_coeffs`), do not modify it."""

    A11: BivarPoly
    A12: BivarPoly
    A22: BivarPoly
    B1: BivarPoly
    B2: BivarPoly


def _operator(one, a, b) -> OperatorCoeffs:
    """The coefficient polynomials in the unit `one`; linear in
    (one, alpha, beta) with integer factors, as `_image_terms` is."""
    return OperatorCoeffs(
        BivarPoly({(2, 0): -6 * one, (0, 1): one, (1, 0): 3 * one, (0, 0): 2 * one}),
        BivarPoly({(1, 1): -9 * one, (2, 0): 18 * one, (0, 1): -6 * one, (0, 0): -3 * one}),
        BivarPoly({(0, 2): -18 * one, (3, 0): 108 * one, (1, 1): -54 * one,
                   (1, 0): -27 * one, (0, 1): -9 * one}),
        BivarPoly({(1, 0): 21 * one + 12 * a + 18 * b, (0, 0): 6 * a + 3 * one}),
        BivarPoly({(1, 0): 18 * one + 36 * a, (0, 1): 45 * one + 36 * b + 18 * a,
                   (0, 0): 18 * b + 9 * one}),
    )


def operator_coeffs(p: WeightParams) -> OperatorCoeffs:
    """The coefficient polynomials at p, from its table: A11, A12 and A22
    have int coefficients; those of B1 and B2 are ints where integral,
    Fractions elsewhere at rational parameters and floats at float ones.
    Returns the cached record itself; do not modify it."""
    return _table(p.alpha, p.beta).op


def apply_L(p: WeightParams, q: BivarPoly) -> BivarPoly:
    """Apply the operator by direct differentiation of q, multiplying by
    the parameters' cached coefficient polynomials in q's own arithmetic.
    An exact coefficient is an int where it is integral and a Fraction
    only where it is not.

    The five products are formed and summed on plain dicts, in the order
    and with the arithmetic of -(A11 q_xx) - 2 (A12 q_xy) - (A22 q_yy)
    + B1 q_x + B2 q_y in `BivarPoly`, so every bit and key order is theirs.
    """
    A11, A12, A22, B1, B2 = operator_coeffs(p)
    qx = {(i - 1, j): c * i for (i, j), c in q.coeffs.items() if i}
    qy = {(i, j - 1): c * j for (i, j), c in q.coeffs.items() if j}
    qxx = {(i - 1, j): c * i for (i, j), c in qx.items() if i}
    qxy = {(i, j - 1): c * j for (i, j), c in qx.items() if j}
    qyy = {(i, j - 1): c * j for (i, j), c in qy.items() if j}
    out = {}
    for negate, prod in ((True, _times(A11.coeffs, qxx)),
                         (True, {e: c * 2 for e, c in _times(A12.coeffs, qxy).items()}),
                         (True, _times(A22.coeffs, qyy)),
                         (False, _times(B1.coeffs, qx)),
                         (False, _times(B2.coeffs, qy))):
        for e, c in prod.items():
            s = out.get(e, 0) - c if negate else out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    result = BivarPoly()
    result.coeffs = {e: _int(v) for e, v in out.items()}
    return result


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
    """Closed-form eigenvalue attached to one index pair; at rational
    parameters an int where it is integral, else a Fraction."""
    a = p.alpha
    return _int(HALF * _twice_eigenvalue(*MIndex.of(k), a * 0 + 1, a, p.beta))


def _twice_eigenvalue(k1, k2, one, a, b):
    """Twice the eigenvalue of index (k1, k2) in the unit `one`; linear in
    (one, alpha, beta) as `_image_terms` is, with integer factors."""
    m = 2 * k1 + 3 * k2
    return 3 * m * ((m + 5) * one + 4 * a + 6 * b) + 9 * k2 * ((k2 + 1) * one + 2 * b)


def eigen_residual(p: WeightParams, k, polynomial: BivarPoly) -> float:
    """Coefficient-space relative residual of L q = lambda q: the largest
    |(L q)_e - lambda q_e| over both supports, in one pass, relative to
    max(1, |lambda| max |q_e|)."""
    lam = float(eigenvalue(p, k))
    image = apply_L(p, polynomial).coeffs
    q = polynomial.coeffs if lam else {}
    diffs = [v - lam * float(q[e]) if e in q else v for e, v in image.items()]
    diffs += [lam * float(c) for e, c in q.items() if e not in image]
    resid = max((abs(float(d)) for d in diffs if d), default=0.0)
    return resid / max(1.0, abs(lam) * polynomial.max_abs_coeff())


def _int(v):
    """A Fraction with denominator 1 as a plain int, whose arithmetic is
    several times cheaper; anything else unchanged."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


TIE_RTOL = 1e-12


class _Table:
    """The operator at one parameter pair, laid out for the exact sweeps.

    `op` is the operator's coefficient record (`operator_coeffs`).
    `order` is the weighted monomial order through weighted degree `degree`,
    grown in place one class at a time, so a position, once given, never
    changes; `pos` inverts it.  At each position, `lam` holds D lambda and
    `lowered` the image of that monomial without its diagonal term, as
    (position, D coefficient) pairs, all at earlier positions.  `polys`
    keeps the finished eigenpolynomials by (index, lead).  The normalized
    moments, a prefix of the order, are kept three ways: `num` and `den`
    hold each one as a reduced int pair by position; `mu` holds them as
    Fractions by index, as far as `moments` was asked; and `ints` holds them
    by index as ints over the one denominator `ints_den`, as far as
    `_integer_moments` was asked.
    """

    __slots__ = ("D", "op", "degree", "order", "pos", "lam", "lowered", "polys",
                 "num", "den", "mu", "ints", "ints_den")

    def __init__(self, D: int, op: OperatorCoeffs):
        self.D, self.op, self.degree = D, op, -1
        self.order, self.pos, self.lam, self.lowered = [], {}, [], []
        self.polys = {}
        self.num, self.den, self.mu = [1], [1], {(0, 0): Fraction(1)}
        self.ints, self.ints_den = {(0, 0): 1}, 1


# typed: Fraction(1, 2) == 0.5, and the exact and float tables stay apart
@functools.lru_cache(maxsize=None, typed=True)
def _table(alpha, beta) -> _Table:
    """The table at parameters (alpha, beta), built on first use with its
    operator record, every integral coefficient an int, and an empty order.

    D = 2 lcm(den alpha, den beta) for rational parameters, else 1.
    Eigenvalues are integer-linear in 1, alpha and beta apart from the
    factors 3/2 and 9/2, and monomial images are integer-linear in them, so
    D times either is an integer.
    """
    exact = isinstance(alpha, (int, Fraction)) and isinstance(beta, (int, Fraction))
    D = 2 * math.lcm(alpha.denominator, beta.denominator) if exact else 1
    op = OperatorCoeffs(*(
        BivarPoly({e: _int(v) for e, v in c.coeffs.items()}) for c in _operator(1, alpha, beta)
    ))
    return _Table(D, op)


def _grow(p: WeightParams, table: _Table, max_mdeg: int) -> None:
    """Extend the table's order, eigenvalues and lowered images through
    weighted degree max_mdeg.  With D = 2 lcm(den alpha, den beta) for
    rational parameters all of these are ints; float parameters have
    D = 1 and keep their float values."""
    if max_mdeg <= table.degree:
        return
    D, order, pos = table.D, table.order, table.pos
    a, b = p.alpha, p.beta
    one = a * 0 + 1
    if D > 1:
        one, a, b = D, _int(D * a), _int(D * b)
    for d in range(table.degree + 1, max_mdeg + 1):
        for k1, k2 in star_class(d):
            m = (k1, k2)
            pos[m] = len(order)
            order.append(m)
            lam2 = _twice_eigenvalue(*m, one, a, b)
            table.lam.append(lam2 // 2 if D > 1 else lam2 / 2)
            image = _image_terms(*m, one, a, b)
            table.lowered.append([(pos[e], _int(c)) for e, c in image if e != m])
    table.degree = max_mdeg


def eigen_poly(p: WeightParams, k, lead=1) -> BivarPoly:
    """The eigenpolynomial of L with leading term lead * x^k1 y^k2.

    L maps each monomial to lambda times itself plus terms strictly
    earlier in the weighted order, so the coefficients follow by
    back-substitution down that order: c_m = acc_m / (lambda_k - lambda_m),
    where acc_m collects the images of the coefficients already fixed.
    Both acc_m and the gap carry the table's factor D, so for rational
    parameters the quotient is one integer division: each coefficient is
    an int where it is integral and a Fraction only where it is not;
    floating point otherwise.  Raises
    ValueError when an eigenvalue tie leaves a coefficient undetermined,
    and TypeError for a lead other than an int or Fraction at rational
    parameters, where it would spoil the exact result.
    """
    k = MIndex.of(k)
    if k.k1 < 0 or k.k2 < 0:
        raise ValueError("index components must be nonnegative")
    a, b = p.alpha, p.beta
    table = _table(p.alpha, p.beta)
    D = table.D
    if D > 1 and not isinstance(lead, (int, Fraction)):
        raise TypeError(f"lead {lead!r} at rational parameters must be an int or Fraction")
    lead = _int(lead)  # an int key hashes several times faster than a Fraction
    done = table.polys.get((k, lead))
    if done is not None:
        return done
    if not lead:
        return BivarPoly()

    _grow(p, table, k.mdegree)
    order, lams, lowered = table.order, table.lam, table.lowered
    top = table.pos[k]
    lam = lams[top]
    tie = TIE_RTOL * max(D, abs(float(lam)))
    if D > 1:
        tie = math.floor(tie)  # every gap is an int: |gap| <= floor(tie) iff |gap| <= tie
    c = lead
    coeffs = {order[top]: c}
    acc = [0] * top
    for e, v in lowered[top]:
        acc[e] += c * v
    for i in range(top - 1, -1, -1):
        r = acc[i]
        if not r:
            continue
        gap = lam - lams[i]
        if abs(gap) <= tie:
            raise ValueError(
                f"eigenvalue tie between {tuple(k)} and {order[i]} at "
                f"parameters ({a}, {b}) leaves the polynomial undetermined"
            )
        if type(r) is int and type(gap) is int:
            quo, rem = divmod(r, gap)
            c = Fraction(r, gap) if rem else quo
        else:
            c = _int(r / gap)
        coeffs[order[i]] = c
        for e, v in lowered[i]:
            acc[e] += c * v
    if D == 1:
        one = a * 0 + 1  # each coefficient takes the type of c * one
        coeffs = {m: c * one for m, c in coeffs.items()}
    q = table.polys[(k, lead)] = BivarPoly()
    q.coeffs = coeffs  # every coefficient is nonzero: the lead, or r / gap with r != 0
    return q


def _moment_table(p: WeightParams, max_mdeg: int):
    """The exact table at p with its moments through weighted degree
    max_mdeg as reduced int pairs, and the number of them.

    L is symmetric under the weight and L 1 = 0, so <L x^m, 1> = 0; with
    L x^m = lambda_m x^m + sum_e c_e x^e over earlier monomials, this gives
    mu_m = -sum_e c_e mu_e / lambda_m from mu_(0,0) = 1, up the weighted
    order, with c_e and lambda_m both scaled by the table's D.  On ints, a
    step brings its at most eight mu_e to the lcm of their denominators and
    reduces the quotient by one gcd.  Float parameters enter by their exact
    binary value.  Raises ValueError where the weight is not integrable;
    elsewhere every lambda_m with m != 0 is positive.
    """
    _require_integrable(p)
    q = WeightParams(*p.key())
    table = _table(q.alpha, q.beta)
    size = dim_pi_star(max(max_mdeg, 0))
    num, den = table.num, table.den
    if len(num) < size:
        _grow(q, table, max_mdeg)
        lams, lowered = table.lam, table.lowered
        for i in range(len(num), size):
            terms = lowered[i]
            lcm = math.lcm(*[den[e] for e, _ in terms])
            s = sum([c * num[e] * (lcm // den[e]) for e, c in terms])
            d = lcm * lams[i]
            g = math.gcd(s, d)
            num.append(-s // g)
            den.append(d // g)
    return table, size


def moments(p: WeightParams, max_mdeg: int) -> dict:
    """Exact normalized moments <x^i y^j, 1>, as Fractions, for every
    monomial up to weighted degree max_mdeg, from the recursion of
    `_moment_table`.  Returns the cached table itself, a prefix of the
    weighted order grown in place; do not modify it.  Raises ValueError
    where the weight is not integrable.
    """
    table, size = _moment_table(p, max_mdeg)
    mu, order, num, den = table.mu, table.order, table.num, table.den
    for i in range(len(mu), size):
        mu[order[i]] = Fraction(num[i], den[i])
    return mu


def _integer_moments(p: WeightParams, max_mdeg: int):
    """The moments of `moments` in integer form: ({index: n}, den) with
    every moment through weighted degree max_mdeg equal to n / den, over
    the least den for the prefix kept.  The prefix grows in place, each
    growth rescaling the ints already kept; returns the cached dict
    itself, do not modify it."""
    table, size = _moment_table(p, max_mdeg)
    ints = table.ints
    if len(ints) < size:
        order, num, den = table.order, table.num, table.den
        new = range(len(ints), size)
        lcm = math.lcm(table.ints_den, *[den[i] for i in new])
        scale = lcm // table.ints_den
        if scale > 1:
            for e in ints:
                ints[e] *= scale
        for i in new:
            ints[order[i]] = num[i] * (lcm // den[i])
        table.ints_den = lcm
    return ints, table.ints_den


def jacobi_poly(p: WeightParams, k) -> BivarPoly:
    """Eigenpolynomial in floating point with unit leading coefficient in
    the weighted monomial order; it is orthogonal to every earlier monomial."""
    return eigen_poly(WeightParams(float(p.alpha), float(p.beta)), k)


def selfadjointness_check(p: WeightParams, f: BivarPoly, g: BivarPoly):
    """(<L f, g>, <f, L g>), each exact and rounded once (`continuous_inner`),
    so equal wherever `apply_L` is exact: on exact polys at rational parameters."""
    return continuous_inner(p, apply_L(p, f), g), continuous_inner(p, f, apply_L(p, g))
