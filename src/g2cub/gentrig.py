"""The four generalized trigonometric families on the 30-60-90 triangle.

Each family is a three-term sum of products of one "difference" factor in
pi*(k1-k3)*(ti-tj)/3 and one "plain" factor in pi*k2*tm, with cosine or
sine chosen per family:

    cc: cos * cos     sc: sin * cos     cs: cos * sin     ss: sin * sin

The two choices are the family's sine bits (d, p), `TrigFamily.sines`:
d = 1 when the difference factor is a sine, p = 1 when the plain factor
is; every per-family rule in the package is read off these bits.  Under
a group element g a member changes by the character
chi(g) = sign(g)^(d+p) parity(g)^d, so cc is invariant under the full
12-element group, ss is anti-invariant under reflections, and sc and cs
are the two mixed types.  Hence every product of two members, all 16
ordered family pairs, linearizes into one signed 1/12 sum over the group
(`product_expand`).  The lowest member that is not identically zero sits
at the index `TrigFamily.shift` = (d+p, p, -d-2p).

`eval` is the one evaluator of these closed forms: index and point
components may be scalars or numpy arrays that broadcast against each
other, and the same numpy expression serves both; `phi` and `partial_t`
work the same way.  Structural zeros are returned as exact 0.0: the
families with p = 1 vanish identically when the index (or the point)
contains a zero component, those with d = 1 when it contains two equal
components.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

import numpy as np

from .coords import G2, HexIndex


class TrigFamily(enum.Enum):
    CC = "cc"
    SC = "sc"
    CS = "cs"
    SS = "ss"

    def __init__(self, value):
        # the sine bits (d, p) of the difference and the plain factor
        self.sines = (int(value[0] == "s"), int(value[1] == "s"))
        d, p = self.sines
        self.shift = HexIndex(d + p, p, -d - 2 * p)
        # the weight parameters (d - 1/2, p - 1/2) of the family's polynomials
        self.params = (Fraction(2 * d - 1, 2), Fraction(2 * p - 1, 2))

    @classmethod
    def of(cls, value) -> "TrigFamily":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())

    @classmethod
    def from_sines(cls, d: int, p: int) -> "TrigFamily":
        return cls("cs"[d] + "cs"[p])


# (u, v) index pairs for the three terms: first factor argument uses
# t[u0]-t[u1], second factor uses t[v].
_TERMS = (((0, 2), 1), ((1, 0), 2), ((2, 1), 0))

# sine bit of the factor -> (factor, its derivative)
_FACTOR = ((np.cos, lambda x: -np.sin(x)), (np.sin, np.cos))


def phi(k, t):
    """Plane-wave exponential exp(2*pi*i/3 * k.t) on the sum-zero plane;
    k and t broadcast as in `eval`, and scalar input gives a complex."""
    dot = k[0] * t[0] + k[1] * t[1] + k[2] * t[2]
    value = np.exp(2j * np.pi / 3.0 * dot)
    return complex(value) if value.ndim == 0 else value


def _structural_zero(family: TrigFamily, v):
    """Where the family vanishes identically at an integer index or a
    lattice-exact point v: with p = 1 at a zero component, with d = 1 at two
    equal components.  Components may be arrays; the result broadcasts."""
    d, p = family.sines
    zero = False
    if p:
        zero = (v[0] == 0) | (v[1] == 0) | (v[2] == 0)
    if d:
        zero = zero | (v[0] == v[1]) | (v[1] == v[2]) | (v[0] == v[2])
    return zero


def eval(family, k, t):
    """Evaluate one family member through its three-term closed form.

    The components of k and t may be scalars or numpy arrays and broadcast
    against each other.  Scalar input gives a float, array input an array.
    """
    family = TrigFamily.of(family)
    a = np.pi * (k[0] - k[2]) / 3.0
    b = np.pi * k[1]
    d, p = family.sines
    f1 = _FACTOR[d][0]
    f2 = _FACTOR[p][0]
    total = 0.0
    for (u0, u1), v in _TERMS:
        total = total + f1(a * (t[u0] - t[u1])) * f2(b * t[v])
    zero = _structural_zero(family, k) | _structural_zero(family, t)
    value = np.where(zero, 0.0, total / 3.0)
    return float(value) if value.ndim == 0 else value


def partial_t(family, k, t, i: int):
    """Partial derivative of the closed form with respect to coordinate i,
    treating t1, t2, t3 as independent.  k and t broadcast as in `eval`;
    an index where the family vanishes identically gives exact 0.0."""
    family = TrigFamily.of(family)
    a = np.pi * (k[0] - k[2]) / 3.0
    b = np.pi * k[1]
    d, p = family.sines
    f1, d1 = _FACTOR[d]
    f2, d2 = _FACTOR[p]
    total = 0.0
    for (u0, u1), v in _TERMS:
        du = (1.0 if u0 == i else 0.0) - (1.0 if u1 == i else 0.0)
        arg1 = a * (t[u0] - t[u1])
        arg2 = b * t[v]
        if du:
            total = total + a * du * d1(arg1) * f2(arg2)
        if v == i:
            total = total + b * f1(arg1) * d2(arg2)
    value = np.where(_structural_zero(family, k), 0.0, total / 3.0)
    return float(value) if value.ndim == 0 else value


def laplace_eigenvalue(k) -> float:
    """Eigenvalue of -Laplace for the plane wave and all four families."""
    d1 = k[0] - k[1]
    d2 = k[1] - k[2]
    d3 = k[2] - k[0]
    return 2.0 * math.pi ** 2 / 9.0 * (d1 * d1 + d2 * d2 + d3 * d3)


def on_edge(t, edge: str, tol: float = 1e-12) -> bool:
    if edge == "B1":
        return abs(t[2] + 1.0) <= tol
    if edge == "B2":
        return abs(t[1]) <= tol
    if edge == "B3":
        return abs(t[0] - t[1]) <= tol
    raise ValueError(f"unknown edge {edge!r}")


def boundary_normal_derivative(family, k, t, edge: str) -> float:
    """Exterior normal derivative of the closed form on one triangle edge.

    B1 is t3 = -1 (normal -d/dt3), B2 is t2 = 0 (normal -d/dt2), B3 is
    t1 = t2 (normal d/dt2 - d/dt1).  Rejects points off the named edge.
    """
    if not on_edge(t, edge):
        raise ValueError(f"point {tuple(t)} is not on edge {edge}")
    if edge == "B1":
        return -partial_t(family, k, t, 2)
    if edge == "B2":
        return -partial_t(family, k, t, 1)
    return partial_t(family, k, t, 1) - partial_t(family, k, t, 0)


def product_expand(family_a, j, family_b, k):
    """Expand a product of two family members into a signed sum of single
    family members with coefficients +-1/12, for all 16 family pairs.

    With sine bits (da, pa) and (db, pb), the product is the member of
    family (da ^ db, pa ^ pb) summed over the group as
    (-1)^(da db + pa pb) / 12 * sum_g chi_a(g) f_(k + j*g), where the sign
    counts the sines the two factors share and chi_a is the character of
    the first family (see the module docstring).  Returns a list of
    (family, index, Fraction) terms whose pointwise sum equals the product
    everywhere.
    """
    da, pa = TrigFamily.of(family_a).sines
    db, pb = TrigFamily.of(family_b).sines
    family = TrigFamily.from_sines(da ^ db, pa ^ pb)
    c = Fraction((-1) ** (da * db + pa * pb), 12)
    j = HexIndex(*j)
    return [
        (family, HexIndex(*(a + b for a, b in zip(k, g.apply(j)))),
         g.sign ** (da + pa) * g.parity ** da * c)
        for g in G2
    ]


def eval_expansion(terms, t) -> float:
    """Evaluate a product_expand result at a point."""
    return float(sum(float(c) * eval(fam, idx, t) for fam, idx, c in terms))
