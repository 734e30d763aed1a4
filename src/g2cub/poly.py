"""Sparse bivariate polynomials with exact rational or float coefficients.

Coefficients are stored in a dict keyed by exponent pairs (i, j); zero
coefficients are never stored.  Arithmetic with Fraction coefficients is
exact and closed.  Polynomials are graded by the weighted degree
2*i + 3*j and ordered, within one weighted-degree class, by descending
first exponent; star_key realizes that order as an ascending sort key.

Every value the package reports is an exact sum rounded once
(`BivarPoly.exact_sum`); `BivarPoly.__call__` is the float evaluator.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def integer_ratio(c) -> tuple:
    """(num, den) with c == num / den over the least den > 0; numpy integers too."""
    try:
        return c.as_integer_ratio()
    except AttributeError:
        return operator.index(c), 1


def integer_form(coeffs: dict):
    """({e: n}, den) with every coeffs[e] == n / den, over the least den > 0."""
    ratios = {e: integer_ratio(c) for e, c in coeffs.items()}
    den = math.lcm(*(d for _, d in ratios.values()))
    return {e: n * (den // d) for e, (n, d) in ratios.items()}, den


def _binary_form(values) -> tuple:
    """([n], e) with float(values[k]) == n_k / 2^e over the least e >= 0."""
    ratios = [float(v).as_integer_ratio() for v in values]
    e = max(d for _, d in ratios).bit_length() - 1
    return [n << (e - d.bit_length() + 1) for n, d in ratios], e


def rounded_quotient(num: int, den: int) -> float:
    """num / den for den > 0, correctly rounded, or +-inf beyond the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _power_rows(row: list, values: list, exponents) -> dict:
    """{e: row * values^e elementwise} for each e in exponents, and no other rows."""
    rows, at = {}, 0
    for e in sorted(set(exponents)):
        for _ in range(e - at):
            row = list(map(operator.mul, row, values))
        rows[e], at = row, e
    return rows


def _times(f: dict, g: dict) -> dict:
    """The coefficients of the product of two coefficient dicts: each term
    pair added in turn, f-major, and a key dropped where its sum cancels.
    `BivarPoly.__mul__` and `sturm.apply_L` share it, so one key order."""
    out = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            key = (i1 + i2, j1 + j2)
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def star_key(k):
    """Ascending sort key for the weighted monomial order."""
    return (2 * k[0] + 3 * k[1], k[1])


def star_cmp(a, b) -> int:
    """-1, 0 or 1 as a comes before, equals, or comes after b."""
    ka, kb = star_key(a), star_key(b)
    return (ka > kb) - (ka < kb)


def mdegree_of(k) -> int:
    return 2 * k[0] + 3 * k[1]


class BivarPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                if c:
                    self.coeffs[(int(key[0]), int(key[1]))] = c

    # constructors -------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    @classmethod
    def x(cls):
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def y(cls):
        return cls({(0, 1): Fraction(1)})

    # arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, BivarPoly):
            other = BivarPoly.constant(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        result = BivarPoly()
        result.coeffs = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = BivarPoly()
        result.coeffs = {k: -c for k, c in self.coeffs.items()}
        return result

    def __sub__(self, other):
        if not isinstance(other, BivarPoly):
            other = BivarPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, BivarPoly):
            result = BivarPoly()
            result.coeffs = _times(self.coeffs, other.coeffs)
            return result
        if not other:
            return BivarPoly.zero()
        result = BivarPoly()
        result.coeffs = {k: c * other for k, c in self.coeffs.items()}
        return result

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take nonnegative int exponents")
        result = BivarPoly.constant(1)
        for _ in range(e):
            result = result * self
        return result

    def __truediv__(self, scalar):
        if isinstance(scalar, BivarPoly):
            raise TypeError("polynomial division is not supported")
        if isinstance(scalar, (int, Fraction)):
            return self * (Fraction(1) / scalar)
        return self * (1.0 / scalar)

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            other = BivarPoly.constant(other)
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    # calculus and queries -------------------------------------------------
    def diff_x(self):
        return BivarPoly({(i - 1, j): c * i for (i, j), c in self.coeffs.items() if i})

    def diff_y(self):
        return BivarPoly({(i, j - 1): c * j for (i, j), c in self.coeffs.items() if j})

    def mdegree(self) -> int:
        if not self.coeffs:
            return 0
        return max(mdegree_of(k) for k in self.coeffs)

    def leading_star_term(self):
        """(exponent pair, coefficient) of the term latest in the order."""
        if not self.coeffs:
            return (0, 0), 0
        key = max(self.coeffs, key=star_key)
        return key, self.coeffs[key]

    def star_sorted_terms(self):
        return [(k, self.coeffs[k]) for k in sorted(self.coeffs, key=star_key)]

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(float(c)) for c in self.coeffs.values())

    def to_float(self):
        return BivarPoly({k: float(c) for k, c in self.coeffs.items()})

    def __call__(self, x, y):
        """Float value at (x, y), scalars or arrays that broadcast, with no
        error bound (`exact_sum` is exact).  Powers of x and y are built by
        repeated multiplication, then float(c) x^i y^j is added term by term
        in storage order, in place into one array for array input, with no
        BLAS call: scalar and array calls give the same bits."""
        xp, yp = [x ** 0], [y ** 0]  # ones of the shapes of x and y
        total = 0.0 * xp[0] * yp[0]
        for _ in range(max((i for i, _ in self.coeffs), default=0)):
            xp.append(xp[-1] * x)
        for _ in range(max((j for _, j in self.coeffs), default=0)):
            yp.append(yp[-1] * y)
        for (i, j), c in self.coeffs.items():
            total += float(c) * xp[i] * yp[j]
        return total

    def exact_sum(self, triples) -> float:
        """Sum of w * p(x, y) over (x, y, w) triples of floats, exact at their
        binary values and rounded once (`rounded_quotient`): the coefficients
        (`integer_form`), xs, ys and ws each become ints over one denominator."""
        nums, den = integer_form(self.coeffs)
        imax, jmax = (max((e[axis] for e in nums), default=0) for axis in (0, 1))
        (xs, xe), (ys, ye), (ws, we) = map(_binary_form, zip(*triples))
        wx = _power_rows(ws, xs, (i for i, _ in nums))  # W X^i at every node
        yp = _power_rows([1] * len(ys), ys, (j for _, j in nums))
        # n x^i y^j = n 2^(xe (imax-i) + ye (jmax-j)) X^i Y^j / 2^(xe imax + ye jmax)
        total = sum(n * sum(map(operator.mul, wx[i], yp[j])) << (xe * (imax - i) + ye * (jmax - j))
                    for (i, j), n in nums.items())
        return rounded_quotient(total, den << (we + xe * imax + ye * jmax))

    def exact_value(self, x: float, y: float) -> float:
        """The exact value at (x, y) rounded once: `exact_sum` at one node of weight 1."""
        return self.exact_sum(((x, y, 1.0),))

    def __repr__(self):
        if not self.coeffs:
            return "BivarPoly(0)"
        parts = []
        for (i, j), c in reversed(self.star_sorted_terms()):
            mono = "".join(
                (f"*x^{i}" if i > 1 else "*x" if i == 1 else "",
                 f"*y^{j}" if j > 1 else "*y" if j == 1 else "")
            )
            parts.append(f"{c}{mono}")
        return "BivarPoly(" + " + ".join(parts) + ")"
