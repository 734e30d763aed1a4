"""The parameter domain and the two-parameter second-order operator
behind the polynomial families: the weight parameters, the weighted
monomial order, exact operator coefficients, application to polynomials,
monomial images, eigenvalues, the eigenpolynomials themselves, and the
weight's moments and the inner product built on them.

The operator is triangular with respect to the weighted monomial order,
so each index pair carries exactly one eigenpolynomial with a given
leading coefficient; it is orthogonal to all earlier monomials under the
weighted inner product.  `eigen_poly` builds it by back-substitution down
the order, exactly for rational parameters and in floating point
otherwise; both the Chebyshev-type families and the general-parameter
polynomials come from it.  `moments` runs the same triangular structure
up the order to get every polynomial integral exactly.  Both exact
sweeps run on Python ints over one least common denominator, which grows
only where a division leaves a remainder (`_reduced`).

One table per parameter pair serves both exact sweeps, down the order
(`eigen_poly`) and up it (`moments`), and the eigen-check (`apply_L`).
It holds the operator's coefficient polynomials, built once with every
integral coefficient an int, and the weighted order as a list of
positions grown one degree class at a time, with each eigenvalue and
lowered monomial image at its position, scaled by the one common
denominator D = 2 lcm(den alpha, den beta) so that for rational
parameters they are Python ints.  `apply_L` forms the operator from q's
derivatives and the coefficient polynomials in one `poly.signed_sum`
and never reads the lowered images.  The moments stay in the table as
ints over their least common denominator, so a deeper call goes on
where the last one stopped, `moments` builds its Fractions from them on
each call, and `continuous_inner` pairs two polynomials against them
directly.
The exact results keep one form: an eigenpolynomial's coefficient, an
eigenvalue or a coefficient of `apply_L` is an int where it is integral
and a Fraction only where it is not.  A pair that holds a float is a
float pair (`WeightParams`), which takes the same code with D = 1.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from fractions import Fraction
from typing import NamedTuple

from . import quad
from .gentrig import TrigFamily
from .lattice import dim_pi_star
from .poly import (BivarPoly, _times, integer_form, integer_ratio, mdegree_of, rounded_quotient,
                   signed_sum)
from .quad import _require_integrable


class MIndex(NamedTuple):
    k1: int
    k2: int

    @property
    def mdegree(self) -> int:
        return 2 * self.k1 + 3 * self.k2

    @classmethod
    def of(cls, k) -> "MIndex":
        """k as an index of Python ints, the one index check: numpy integers
        are converted, a component that is not an integer raises TypeError
        and a negative one ValueError (see `chebyshev.resolve_index`)."""
        m = cls(*map(operator.index, k))
        if m.k1 < 0 or m.k2 < 0:
            raise ValueError(f"index components must be nonnegative, got {tuple(m)}")
        return m


def _parameter(v):
    """v as an int where it is integral (numpy integers and Fractions too),
    a Fraction, or another real as a float; TypeError for anything else."""
    if not isinstance(v, numbers.Real):
        raise TypeError(f"weight parameters must be real numbers, got {v!r}")
    if isinstance(v, numbers.Integral):
        return operator.index(v)
    return _int(v) if isinstance(v, Fraction) else float(v)


_FAMILY_OF_PARAMS = {fam.params: fam for fam in TrigFamily}


class WeightParams(quad.Record):
    """(alpha, beta), both exact or both float, immutable.  WeightParams(0.5, 0.5) equals and
    hashes as WeightParams(Fraction(1, 2), Fraction(1, 2)) yet has a float table: key no cache
    on one.  `family`, set with the fields, is the trig family whose polynomials have these
    parameters (`TrigFamily.params`), or None off the four half-integer cases; 0.5 and
    Fraction(1, 2) both match."""

    __slots__ = ("alpha", "beta", "family")
    _fields = ("alpha", "beta")

    def __init__(self, alpha, beta):
        alpha, beta = _parameter(alpha), _parameter(beta)
        for name, v in (("alpha", alpha), ("beta", beta)):
            try:
                finite = math.isfinite(v)
            except OverflowError:  # an int or Fraction beyond the float range
                finite = False
            if not finite:
                raise ValueError(f"weight parameter {name} must be finite as a float")
        a, b = float(alpha), float(beta)
        if not (a > -1 and b > -1):
            raise ValueError("weight parameters must both exceed -1")
        if (type(alpha) is float) != (type(beta) is float):  # exact or float
            alpha, beta = a, b
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "family", _FAMILY_OF_PARAMS.get((alpha, beta)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.alpha, self.beta) == (other.alpha, other.beta)
        return NotImplemented

    def __hash__(self):
        return hash((self.alpha, self.beta))

    def key(self):
        """The exact pair in the fields' form; (alpha, beta) at exact ones."""
        return (_int(Fraction(self.alpha)), _int(Fraction(self.beta)))


# star order ---------------------------------------------------------------

def star_class(n: int):
    """Index pairs of weighted degree exactly n, in order; n goes through `operator.index`."""
    n = operator.index(n)
    return [MIndex((n - 3 * j) // 2, j) for j in range(n % 2, n // 3 + 1, 2)]


def star_indices_upto(max_mdeg: int):
    """All index pairs with weighted degree <= max_mdeg, in order."""
    return [k for d in range(max_mdeg + 1) for k in star_class(d)]


# the operator ---------------------------------------------------------------


class OperatorCoeffs(NamedTuple):
    """The operator's five coefficient polynomials at one parameter pair;
    the record is cached and shared (see `operator_coeffs`), do not modify it."""

    A11: BivarPoly
    A12: BivarPoly
    A22: BivarPoly
    B1: BivarPoly
    B2: BivarPoly


def _operator(a, b) -> OperatorCoeffs:
    """The coefficient polynomials at (a, b), every integral coefficient an int."""
    return OperatorCoeffs(
        BivarPoly({(2, 0): -6, (0, 1): 1, (1, 0): 3, (0, 0): 2}),
        BivarPoly({(1, 1): -9, (2, 0): 18, (0, 1): -6, (0, 0): -3}),
        BivarPoly({(0, 2): -18, (3, 0): 108, (1, 1): -54, (1, 0): -27, (0, 1): -9}),
        BivarPoly({(1, 0): _int(21 + 12 * a + 18 * b), (0, 0): _int(6 * a + 3)}),
        BivarPoly({(1, 0): _int(18 + 36 * a), (0, 1): _int(45 + 36 * b + 18 * a),
                   (0, 0): _int(18 * b + 9)}),
    )


def operator_coeffs(p: WeightParams) -> OperatorCoeffs:
    """The coefficient polynomials at p, from its table: A11, A12 and A22
    have int coefficients; those of B1 and B2 are ints where integral,
    Fractions elsewhere at rational parameters and floats at float ones.
    Returns the cached record itself; do not modify it."""
    return _table(p.alpha, p.beta).op


def apply_L(p: WeightParams, q: BivarPoly) -> BivarPoly:
    """Apply the operator by differentiating q (`BivarPoly.diff_x` and
    `diff_y`) and forming -(A11 q_xx) - 2 (A12 q_xy) - (A22 q_yy)
    + B1 q_x + B2 q_y on the parameters' cached coefficient polynomials,
    the five products merged by `poly.signed_sum` with the key order and
    bits of that `BivarPoly` expression.  An exact coefficient is an int
    where it is integral and a Fraction only where it is not.
    """
    return BivarPoly._of({e: _int(v) for e, v in signed_sum(_L_terms(p, q)).items()})


def _L_terms(p: WeightParams, q: BivarPoly) -> list:
    """The five signed products of `apply_L`, as `poly.signed_sum` terms."""
    A11, A12, A22, B1, B2 = operator_coeffs(p)
    qx, qy = q.diff_x(), q.diff_y()
    return [(-1, _times(A11.coeffs, qx.diff_x().coeffs)),
            (-2, _times(A12.coeffs, qx.diff_y().coeffs)),
            (-1, _times(A22.coeffs, qy.diff_y().coeffs)),
            (1, _times(B1.coeffs, qx.coeffs)),
            (1, _times(B2.coeffs, qy.coeffs))]


def monomial_image(p: WeightParams, j: int, k: int):
    """Nine-term expansion of the operator applied to x^j y^k, as a list
    of ((i1, i2), coefficient) with zero terms dropped: the diagonal term
    ((j, k), `eigenvalue`) first, then the terms earlier in the weighted
    order.  The exponents go through `MIndex.of`; at rational parameters a
    coefficient is an int where it is integral and a Fraction elsewhere."""
    m = MIndex.of((j, k))
    table = _table(p.alpha, p.beta)
    lam = eigenvalue(p, m)
    return ([(tuple(m), lam)] if lam else []) + [
        (e, _over(c, table.D)) for e, c in _image_terms(table, *m)]


def _image_terms(table: _Table, j, k):
    """The terms of the image of x^j y^k earlier in the weighted order, in
    the table's scale: each coefficient is linear in (one, alpha, beta)
    with integer factors, so it is D times the operator's coefficient."""
    one, a, b = table.one, table.a, table.b
    # a term whose integer factor is 0 is left out, so inf * 0 makes no nan
    coeff = {  # shift (mu, nu) -> coefficient of x^(j-2mu+3nu) y^(k+mu-2nu)
        (0, 1): -108 * k * (k - 1) * one,
        (1, 0): -j * (j - 1) * one,
        (1, 1): 18 * k * ((3 * k - 2 - 2 * j) * one + 2 * a) if k else 0,
        (2, 1): 3 * j * ((-j + 2 + 4 * k) * one + 2 * a) if j else 0,
        (3, 2): 9 * k * (k * one + 2 * b) if k else 0,
        (4, 2): -2 * j * (j - 1) * one,
        (4, 3): 27 * k * (k - 1) * one,
        (5, 3): 6 * j * k * one,
    }
    out = []
    for (mu, nu), c in coeff.items():
        if not c:
            continue
        expo = (j - 2 * mu + 3 * nu, k + mu - 2 * nu)
        if expo[0] < 0 or expo[1] < 0:
            raise AssertionError("nonzero image term with negative exponent")
        out.append((expo, c))
    return out


def eigenvalue(p: WeightParams, k):
    """Closed-form eigenvalue attached to one index pair; at rational
    parameters an int where it is integral, else a Fraction.  Raises
    ValueError where float parameters overflow it."""
    table = _table(p.alpha, p.beta)
    return _over(_twice_eigenvalue(table, *MIndex.of(k)), 2 * table.D)


def _twice_eigenvalue(table: _Table, k1, k2):
    """Twice the eigenvalue of index (k1, k2) in the table's scale, linear
    in (one, alpha, beta) as `_image_terms` is: 2 D lambda.  Raises
    ValueError where float parameters make it inf or nan."""
    one, a, b = table.one, table.a, table.b
    m = 2 * k1 + 3 * k2
    lam2 = 3 * m * ((m + 5) * one + 4 * a + 6 * b) + 9 * k2 * ((k2 + 1) * one + 2 * b)
    if type(lam2) is float and not math.isfinite(lam2):
        if not m:  # 0 * inf: the constant member's eigenvalue is 0 all the same
            return 0 * one
        raise ValueError(f"weight parameters ({a}, {b}) overflow the eigenvalue of {(k1, k2)}")
    return lam2


def eigen_residual(p: WeightParams, k, polynomial: BivarPoly) -> float:
    """Coefficient-space relative residual of L q = lambda q: the largest
    |(L q - lambda q)_e|, with lambda as a float, relative to
    max(1, |lambda| max |q_e|); - lambda q is the sixth term of
    `apply_L`'s `poly.signed_sum`."""
    lam = float(eigenvalue(p, k))
    resid = BivarPoly._of(signed_sum(_L_terms(p, polynomial) + [(-lam, polynomial.coeffs)]))
    return resid.max_abs_coeff() / max(1.0, abs(lam) * polynomial.max_abs_coeff())


def _reduced(r: int, d: int):
    """(n, g) with n / g == r / d over the least g, for a d that does not
    divide r: g > 1 is prime to n.  So ints kept over their least common
    denominator den stay so when r / (d den) joins them as n over den g
    and every kept int is scaled by g."""
    g = math.gcd(r, d) if d > 0 else -math.gcd(r, d)
    return r // g, d // g


def _int(v):
    """A Fraction with denominator 1 as a plain int, whose arithmetic is
    several times cheaper; anything else unchanged."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _over(v, d: int):
    """v / d for d > 0: an int where an int v is a multiple of d, else a
    Fraction; a float v gives v / d (a Fraction v, an int where integral)."""
    if type(v) is int:
        n, rem = divmod(v, d)
        return Fraction(v, d) if rem else n
    return _int(v / d)


TIE_RTOL = 1e-12
_TIE_NUM, _TIE_DEN = TIE_RTOL.as_integer_ratio()


class _Table:
    """The operator at one parameter pair, laid out for the exact sweeps.

    `op` is the operator's coefficient record (`operator_coeffs`).  `one`,
    `a` and `b` are the unit and the parameters in the table's scale: D, D
    alpha and D beta at rational parameters, where all three are ints, and
    at float parameters 1.0, alpha and beta, with D = 1.
    `order` is the weighted monomial order through weighted degree `degree`,
    grown in place one class at a time, so a position, once given, never
    changes; `pos` inverts it.  At each position, `lam` holds D lambda and
    `lowered` the image of that monomial without its diagonal term, as
    (position, D coefficient) pairs, all at earlier positions.  `polys`
    keeps the finished eigenpolynomials by (index, lead).  `ints` holds
    the normalized moments, a prefix of the order, by index as ints over
    their least common denominator `ints_den` (`_integer_moments`).
    """

    __slots__ = ("D", "one", "a", "b", "op", "degree", "order", "pos", "lam", "lowered",
                 "polys", "ints", "ints_den")

    def __init__(self, D: int, one, a, b, op: OperatorCoeffs):
        self.D, self.one, self.a, self.b = D, one, a, b
        self.op, self.degree = op, -1
        self.order, self.pos, self.lam, self.lowered = [], {}, [], []
        self.polys = {}
        self.ints, self.ints_den = {(0, 0): 1}, 1


@functools.lru_cache(maxsize=32, typed=True)  # typed: Fraction(1, 2) == 0.5, yet its table is exact
def _table(alpha, beta) -> _Table:
    """The table at a `WeightParams`' fields, built on first use with its
    operator record, every integral coefficient an int, and an empty order.

    D = 2 lcm(den alpha, den beta) for rational parameters, else 1.
    Eigenvalues are integer-linear in 1, alpha and beta apart from the
    factors 3/2 and 9/2, and monomial images are integer-linear in them, so
    D times either is an integer.
    """
    op = _operator(alpha, beta)
    if type(alpha) is float:
        return _Table(1, 1.0, alpha, beta, op)
    D = 2 * math.lcm(alpha.denominator, beta.denominator)
    return _Table(D, D, _int(D * alpha), _int(D * beta), op)


def _grow(table: _Table, max_mdeg: int) -> None:
    """Extend the table's order, eigenvalues and lowered images through
    weighted degree max_mdeg, in the table's scale: ints at rational
    parameters, floats at float ones."""
    order, pos = table.order, table.pos
    for d in range(table.degree + 1, max_mdeg + 1):
        # every eigenvalue of the class first, so an overflow leaves the table whole
        lams = [(tuple(m), _twice_eigenvalue(table, *m)) for m in star_class(d)]
        for m, lam2 in lams:
            pos[m] = len(order)
            order.append(m)
            table.lam.append(_over(lam2, 2))
            table.lowered.append([(pos[e], c) for e, c in _image_terms(table, *m)])
        table.degree = d


def eigen_poly(p: WeightParams, k, lead=1) -> BivarPoly:
    """The eigenpolynomial of L with leading term lead * x^k1 y^k2.

    L maps each monomial to lambda times itself plus terms strictly
    earlier in the weighted order, so the coefficients follow by
    back-substitution down that order: c_m = acc_m / (lambda_k - lambda_m),
    where acc_m collects the images of the coefficients already fixed.
    Both acc_m and the gap carry the table's factor D.  For rational
    parameters the coefficients and acc are ints over one least common
    denominator, starting at the lead's: each quotient is one divmod, and
    only where it leaves a remainder does the denominator grow, with the
    kept ints rescaled (`_reduced`).  Each coefficient is an int where it
    is integral and a Fraction only where it is not; floating point
    otherwise.  Raises
    ValueError when an eigenvalue tie leaves a coefficient undetermined,
    and TypeError for a lead other than an int or Fraction at rational
    parameters, where it would spoil the exact result.
    """
    k = MIndex.of(k)
    table = _table(p.alpha, p.beta)
    exact = table.D > 1
    if exact and not isinstance(lead, (int, Fraction)):
        raise TypeError(f"lead {lead!r} at rational parameters must be an int or Fraction")
    lead = _int(lead)  # an int key hashes several times faster than a Fraction
    done = table.polys.get((k, lead))
    if done is not None:
        return done
    if not lead:
        return BivarPoly()

    _grow(table, k.mdegree)
    order, lams, lowered = table.order, table.lam, table.lowered
    top = table.pos[k]
    lam = lams[top]
    scale = max(table.D, abs(lam))
    # exact gaps are ints, so the bound's floor, taken on ints, makes the same test
    tie = scale * _TIE_NUM // _TIE_DEN if exact else TIE_RTOL * scale
    c, den = integer_ratio(lead) if exact else (lead * table.one, 1)
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
                f"parameters ({float(p.alpha)}, {float(p.beta)}) leaves the polynomial undetermined"
            )
        if exact:
            c, rem = divmod(r, gap)
            if rem:
                c, grow = _reduced(r, gap)
                den *= grow
                for m in coeffs:
                    coeffs[m] *= grow
                acc[:i] = [v * grow for v in acc[:i]]
        else:
            c = r / gap
        coeffs[order[i]] = c
        for e, v in lowered[i]:
            acc[e] += c * v
    if den > 1:
        coeffs = {m: _over(n, den) for m, n in coeffs.items()}
    # every coefficient is nonzero: the lead, or r / gap with r != 0
    table.polys[(k, lead)] = q = BivarPoly._of(coeffs)
    return q


def _integer_moments(p: WeightParams, max_mdeg: int):
    """The normalized moments <x^i y^j, 1> in integer form: ({index: n},
    den) with every moment through weighted degree max_mdeg, and every
    later one the table already keeps, equal to n / den over the least den.

    L is symmetric under the weight and L 1 = 0, so <L x^m, 1> = 0; with
    L x^m = lambda_m x^m + sum_e c_e x^e over earlier monomials, this gives
    mu_m = -sum_e c_e mu_e / lambda_m from mu_(0,0) = 1, up the weighted
    order, with c_e and lambda_m both scaled by the table's D.  A step sums
    its at most eight c_e n_e and divides by lambda_m; where that leaves a
    remainder, den grows and the kept ints are rescaled (`_reduced`).
    Float parameters enter by their exact binary value (`WeightParams.key`).
    Returns the table's dict itself, do not modify it.  Raises ValueError
    where the weight is not integrable; elsewhere every lambda_m with
    m != 0 is positive.
    """
    _require_integrable(p.alpha, p.beta)
    table = _table(*p.key())
    max_mdeg = max(max_mdeg, 0)
    _grow(table, max_mdeg)  # also on a cold table at degree 0: the keys read its order
    ints, order = table.ints, table.order
    lams, lowered = table.lam, table.lowered
    for i in range(len(ints), dim_pi_star(max_mdeg)):
        s = -sum([c * ints[order[e]] for e, c in lowered[i]])
        n, rem = divmod(s, lams[i])
        if rem:
            n, grow = _reduced(s, lams[i])
            table.ints_den *= grow
            for e in ints:
                ints[e] *= grow
        ints[order[i]] = n
    return ints, table.ints_den


def moments(p: WeightParams, max_mdeg: int) -> dict:
    """Exact normalized moments <x^i y^j, 1>, as Fractions, keyed in the
    weighted order, for every monomial up to weighted degree max_mdeg and
    every later one the table already keeps (`_integer_moments`).  A new
    dict on each call.  Raises ValueError where the weight is not integrable.
    """
    ints, den = _integer_moments(p, max_mdeg)
    return {e: Fraction(n, den) for e, n in ints.items()}


def continuous_inner(p: WeightParams, f, g):
    """Weighted inner product normalized so that <1, 1> = 1.

    Two polynomials, whatever their coefficients, are paired exactly: f
    and g each become ints over one common denominator
    (`poly.integer_form`), f * g is formed on those ints, c * mu is summed
    over its terms against the moments the parameter table keeps as ints
    over one denominator (`_integer_moments`, brought to that form once as
    the moments grow, not on each call), and the sum is rounded once.
    General callables (x, y) -> value are pulled back to the parameter
    triangle and integrated by product Gauss-Jacobi quadrature
    (`quad.triangle_quadrature`) to `quad.DEFAULT_TOL` relative to
    max(1, |result|); QuadratureError is raised when the error estimate
    stays above it at the order cap `quad.ORDER_CAP`.  Raises ValueError
    where the weight is not integrable.
    """
    if isinstance(f, BivarPoly) and isinstance(g, BivarPoly):
        (fn, fd), (gn, gd) = integer_form(f.coeffs), integer_form(g.coeffs)
        prod = _times(fn, gn)
        mus, den = _integer_moments(p, max(map(mdegree_of, prod), default=0))
        return rounded_quotient(sum([c * mus[e] for e, c in prod.items()]), fd * gd * den)

    return quad.triangle_quadrature(lambda x, y: f(x, y) * g(x, y),
                                    alpha=float(p.alpha), beta=float(p.beta))


def jacobi_poly(p: WeightParams, k) -> BivarPoly:
    """Eigenpolynomial in floating point with unit leading coefficient in
    the weighted monomial order; it is orthogonal to every earlier monomial."""
    return eigen_poly(WeightParams(float(p.alpha), float(p.beta)), k)


def selfadjointness_check(p: WeightParams, f: BivarPoly, g: BivarPoly):
    """(<L f, g>, <f, L g>), each exact and rounded once (`continuous_inner`),
    so equal wherever `apply_L` is exact: on exact polys at rational parameters."""
    return continuous_inner(p, apply_L(p, f), g), continuous_inner(p, f, apply_L(p, g))
