"""Helpers shared by several test modules, and the oracles on the hexagon,
the coordinates and the triangle's boundary that only the tests use."""

import math
import random
from fractions import Fraction

import numpy as np

from g2cub.coords import G2, GroupElem, HexIndex, TriplePoint, make_point, point_from_index
from g2cub.gentrig import partial_t
from g2cub.lattice import _rows, enum_upsilon, upsilon_weight
from g2cub.poly import star_key
from g2cub.sturm import moments

TRIANGLE_TOL = 1e-12

SQRT3 = math.sqrt(3.0)


def leading_star_term(q):
    """(exponent pair, coefficient) of q's term latest in the weighted order."""
    key = max(q.coeffs, key=star_key)
    return key, q.coeffs[key]


def star_cmp(a, b) -> int:
    """-1, 0 or 1 as a comes before, equals, or comes after b."""
    ka, kb = star_key(a), star_key(b)
    return (ka > kb) - (ka < kb)


def interior_points(count, seed):
    """count points drawn from random.Random(seed), each at least 0.02 inside
    every edge of the fundamental triangle."""
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        t2 = rng.uniform(0.02, 0.47)
        t1 = rng.uniform(t2 + 0.02, 1 - t2 - 0.02)
        pts.append(make_point(t1, t2))
    return pts


def fraction_inner(p, f, g):
    """The exact pairing in Fractions: f * g term pair by term pair, then
    each of its coefficients against its moment."""
    prod = {}
    for e, a in f.coeffs.items():
        for h, b in g.coeffs.items():
            key = (e[0] + h[0], e[1] + h[1])
            prod[key] = prod.get(key, 0) + Fraction(a) * Fraction(b)
    mu = moments(p, f.mdegree() + g.mdegree())
    return sum(c * mu[e] for e, c in prod.items())


# coordinates and the group ---------------------------------------------------


def compose(g: GroupElem, h: GroupElem) -> GroupElem:
    """Element acting as g followed by h: t*(g h) = (t*g)*h."""
    sign = g.sign * h.sign
    perm = tuple(g.perm[h.perm[i]] for i in range(3))
    for elem in G2:
        if elem.sign == sign and elem.perm == perm:
            return elem
    raise AssertionError("composition left the 12-element table")


def orbit(k: HexIndex) -> frozenset:
    """All distinct images of k under the 12-element group."""
    return frozenset(g.apply(HexIndex(*k)) for g in G2)


def cart_to_homog(x1: float, x2: float) -> TriplePoint:
    """Cartesian (x1, x2) to homogeneous coordinates."""
    return TriplePoint(
        SQRT3 / 2.0 * x1 - 0.5 * x2,
        x2,
        -SQRT3 / 2.0 * x1 - 0.5 * x2,
    )


def in_fundamental_triangle(t) -> bool:
    """Membership test for 0 <= t2 <= t1 <= -t3 <= 1, to within TRIANGLE_TOL."""
    t1, t2, t3 = t
    return (
        t2 >= -TRIANGLE_TOL
        and t1 >= t2 - TRIANGLE_TOL
        and -t3 >= t1 - TRIANGLE_TOL
        and -t3 <= 1.0 + TRIANGLE_TOL
    )


# plane waves, and the Laplacian and boundary data of the families ------------


def phi(k, t):
    """Plane-wave exponential exp(2*pi*i/3 * k.t) on the sum-zero plane;
    k and t broadcast as in `eval`, and scalar input gives a complex."""
    dot = k[0] * t[0] + k[1] * t[1] + k[2] * t[2]
    value = np.exp(2j * np.pi / 3.0 * dot)
    return complex(value) if value.ndim == 0 else value


def laplace_eigenvalue(k) -> float:
    """Eigenvalue of -Laplace for the plane wave and all four families."""
    d1 = k[0] - k[1]
    d2 = k[1] - k[2]
    d3 = k[2] - k[0]
    return 2.0 * math.pi ** 2 / 9.0 * (d1 * d1 + d2 * d2 + d3 * d3)


def on_edge(t, edge: str) -> bool:
    """Whether t lies on the named edge to within `TRIANGLE_TOL`."""
    if edge == "B1":
        return abs(t[2] + 1.0) <= TRIANGLE_TOL
    if edge == "B2":
        return abs(t[1]) <= TRIANGLE_TOL
    if edge == "B3":
        return abs(t[0] - t[1]) <= TRIANGLE_TOL
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


# discrete sums on the hexagon and the triangle -------------------------------


def enum_H(n: int):
    """The mod-3 congruent lattice inside the closed hexagon of size n and
    the dagger lattice with all pairwise differences bounded by n, both
    with -n <= k1, k2 <= n, built row by row over k1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k1 = np.arange(-n, n + 1)
    # h: |k3| <= n and k2 = k1 mod 3
    lo = np.maximum(-n, -n - k1)
    h = _rows(k1, lo + (k1 - lo) % 3, np.minimum(n, n - k1), 3)
    # hdag: |k1 + 2 k2|, |2 k1 + k2| and |k2 - k1| at most n, which keep |k2| <= n
    lo = np.maximum.reduce([-((n + k1) // 2), -n - 2 * k1, k1 - n])
    hi = np.minimum.reduce([(n - k1) // 2, n - 2 * k1, k1 + n])
    return h, _rows(k1, lo, hi)


def hex_cubature(f, n: int):
    """Equal-spaced cubature over the hexagon, exact for plane waves of
    index set size up to 2n-1: coefficient 1 inside, 1/2 on an edge, 1/3
    at the six corners (each corner has three periodic copies).  f is
    called once, on a point whose components are the arrays of all nodes,
    and must broadcast."""
    h, _ = enum_H(n)
    inside = np.max(np.abs(h), axis=1) < n
    coef = np.where(inside, 1.0, np.where(np.any(h == 0, axis=1), 1.0 / 3.0, 0.5))
    return np.sum(coef * f(point_from_index(h.T, n))) / n ** 2


def triangle_discrete_inner(f, g, n: int):
    """Weighted discrete inner product over the triangle lattice,
    conjugate-linear in the second argument.  f and g are each called
    once, on a point whose components are the arrays of all nodes, and
    must broadcast."""
    j = enum_upsilon(n).T
    t = point_from_index(j, n)
    return np.sum(upsilon_weight(j, n) * f(t) * np.conj(g(t))) / n ** 2
