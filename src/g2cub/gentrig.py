"""The four generalized trigonometric families on the 30-60-90 triangle.

Each family is a three-term sum of products of one "difference" factor in
pi*(k1-k3)*(ti-tj)/3 and one "plain" factor in pi*k2*tm, with cosine or
sine chosen per family:

    cc: cos * cos     sc: sin * cos     cs: cos * sin     ss: sin * sin

cc is invariant under the full 12-element group, ss is anti-invariant,
sc and cs are the two mixed types.  `eval` is the one evaluator of these
closed forms: index and point components may be scalars or numpy arrays
that broadcast against each other, and the same numpy expression serves
both; `phi` and `partial_t` work the same way.  Structural zeros are
returned as exact 0.0: cs and ss vanish identically when the index (or
the point) contains a zero component, sc and ss vanish when the index
(or the point) contains two equal components.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

import numpy as np

from .coords import A2_STAR, G2, HexIndex


class TrigFamily(enum.Enum):
    CC = "cc"
    SC = "sc"
    CS = "cs"
    SS = "ss"

    @classmethod
    def of(cls, value) -> "TrigFamily":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


# (u, v) index pairs for the three terms: first factor argument uses
# t[u0]-t[u1], second factor uses t[v].
_TERMS = (((0, 2), 1), ((1, 0), 2), ((2, 1), 0))

# is the factor a sine -> (factor, its derivative)
_FACTOR = {False: (np.cos, lambda x: -np.sin(x)), True: (np.sin, np.cos)}


def phi(k, t):
    """Plane-wave exponential exp(2*pi*i/3 * k.t) on the sum-zero plane;
    k and t broadcast as in `eval`, and scalar input gives a complex."""
    dot = k[0] * t[0] + k[1] * t[1] + k[2] * t[2]
    value = np.exp(2j * np.pi / 3.0 * dot)
    return complex(value) if value.ndim == 0 else value


def _structural_zero(family: TrigFamily, v):
    """Where the family vanishes identically at an integer index or a
    lattice-exact point v: cs and ss at a zero component, sc and ss at two
    equal components.  Components may be arrays; the result broadcasts."""
    zero = False
    if family in (TrigFamily.CS, TrigFamily.SS):
        zero = (v[0] == 0) | (v[1] == 0) | (v[2] == 0)
    if family in (TrigFamily.SC, TrigFamily.SS):
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
    f1 = _FACTOR[family in (TrigFamily.SC, TrigFamily.SS)][0]
    f2 = _FACTOR[family in (TrigFamily.CS, TrigFamily.SS)][0]
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
    f1, d1 = _FACTOR[family in (TrigFamily.SC, TrigFamily.SS)]
    f2, d2 = _FACTOR[family in (TrigFamily.CS, TrigFamily.SS)]
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


_EDGES = ("B1", "B2", "B3")


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
    if edge not in _EDGES:
        raise ValueError(f"unknown edge {edge!r}")
    if not on_edge(t, edge):
        raise ValueError(f"point {tuple(t)} is not on edge {edge}")
    if edge == "B1":
        return -partial_t(family, k, t, 2)
    if edge == "B2":
        return -partial_t(family, k, t, 1)
    return partial_t(family, k, t, 1) - partial_t(family, k, t, 0)


def _add(j, k):
    return HexIndex(j[0] + k[0], j[1] + k[1], j[2] + k[2])


def _sub(j, k):
    return HexIndex(j[0] - k[0], j[1] - k[1], j[2] - k[2])


def product_expand(family_a, j, family_b, k):
    """Expand a product of two family members into a signed sum of single
    family members with coefficients +-1/12.

    Returns a list of (family, index, Fraction) terms whose pointwise sum
    equals the product everywhere.  The two products sc*ss and cs*ss have
    no such single-family expansion here and raise ValueError.
    """
    fa = TrigFamily.of(family_a)
    fb = TrigFamily.of(family_b)
    j = HexIndex(*j)
    k = HexIndex(*k)
    if (fa, fb) not in _PRODUCT_RULES:
        fa, fb, j, k = fb, fa, k, j
    rule = _PRODUCT_RULES.get((fa, fb))
    if rule is None:
        raise ValueError(f"no product expansion for {fa.value}*{fb.value}")
    return rule(j, k)


def _cc_times(other: TrigFamily):
    # cc_j * f_k = (1/12) sum over the whole group of f_{k + j*sigma}
    def rule(j, k):
        c = Fraction(1, 12)
        return [(other, _add(k, g.apply(j)), c) for g in G2]

    return rule


def _ss_ss(j, k):
    c = Fraction(1, 12)
    return [(TrigFamily.CC, _add(k, g.apply(j)), g.parity * c) for g in G2]


def _sc_sc(j, k):
    out = []
    c = Fraction(1, 12)
    for g in A2_STAR:
        jg = g.apply(j)
        out.append((TrigFamily.CC, _add(k, jg), -g.parity * c))
        out.append((TrigFamily.CC, _sub(k, jg), g.parity * c))
    return out


def _cs_cs(j, k):
    out = []
    c = Fraction(1, 12)
    for g in A2_STAR:
        jg = g.apply(j)
        out.append((TrigFamily.CC, _add(k, jg), -c))
        out.append((TrigFamily.CC, _sub(k, jg), c))
    return out


def _sc_cs(j, k):
    # j indexes the sc factor, k the cs factor
    out = []
    c = Fraction(1, 12)
    for g in A2_STAR:
        jg = g.apply(j)
        out.append((TrigFamily.SS, _add(k, jg), g.parity * c))
        out.append((TrigFamily.SS, _sub(k, jg), -g.parity * c))
    return out


_PRODUCT_RULES = {
    (TrigFamily.CC, TrigFamily.CC): _cc_times(TrigFamily.CC),
    (TrigFamily.CC, TrigFamily.SC): _cc_times(TrigFamily.SC),
    (TrigFamily.CC, TrigFamily.CS): _cc_times(TrigFamily.CS),
    (TrigFamily.CC, TrigFamily.SS): _cc_times(TrigFamily.SS),
    (TrigFamily.SC, TrigFamily.SC): _sc_sc,
    (TrigFamily.SC, TrigFamily.CS): _sc_cs,
    (TrigFamily.CS, TrigFamily.CS): _cs_cs,
    (TrigFamily.SS, TrigFamily.SS): _ss_ss,
}


def eval_expansion(terms, t) -> float:
    """Evaluate a product_expand result at a point."""
    return float(sum(float(c) * eval(fam, idx, t) for fam, idx, c in terms))
