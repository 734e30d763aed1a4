"""Index sets as integer arrays, the lattice weight, and the discrete
cubature / inner products on the hexagon and on the fundamental triangle.

Two integer lattices appear: the full sum-zero integer triples (dagger
lattice) and its sublattice of triples whose components are congruent
mod 3.  Every enumeration is one exact integer mask over the sum-zero
triples of a bounded box and returns an (N, 3) int array whose rows are
in lexicographic order.  The weight of a triangle lattice node, and of
any congruent triple through its orbit representative, is
`upsilon_weight`.
"""

from __future__ import annotations

import numpy as np

from .coords import hat, point_from_index
from .gentrig import TrigFamily


def _triples(lo: int, hi: int):
    """The (N, 3) array of sum-zero triples (k1, k2, -k1-k2) with
    lo <= k1, k2 <= hi, in lexicographic order."""
    k1, k2 = np.divmod(np.arange((hi - lo + 1) ** 2), hi - lo + 1)
    return np.stack((k1 + lo, k2 + lo, -k1 - k2 - 2 * lo), axis=1)


def enum_H(n: int):
    """The mod-3 congruent lattice inside the closed hexagon of size n and
    the dagger lattice with all pairwise differences bounded by n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = _triples(-n, n)
    k1, k2, k3 = k.T
    h = (np.abs(k3) <= n) & ((k1 - k2) % 3 == 0)
    hdag = (np.abs(k3 - k2) <= n) & (np.abs(k1 - k3) <= n) & (np.abs(k2 - k1) <= n)
    return k[h], k[hdag]


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


def enum_upsilon(n: int):
    """Nodes of the triangle lattice 0 <= j2 <= j1 <= -j3 <= n (components
    congruent mod 3), sorted lexicographically."""
    if n < 1:
        raise ValueError("n must be >= 1")
    j = _triples(0, n)
    j1, j2, j3 = j.T
    return j[(j2 <= j1) & (-j3 <= n) & ((j1 - j2) % 3 == 0)]


def upsilon_weight(j, n: int):
    """Cubature weight of a congruent triple with max|ji| <= n, read at its
    orbit representative on the fundamental triangle: 1, 2 and 3 at the
    30, 60 and 90 degree vertices, 12 inside and 6 on an edge.  The
    components j[0], j[1], j[2] may be arrays of one shape; scalar input
    gives an int."""
    low, mid, top = np.sort(np.array([j[0], j[1], j[2]]), axis=0)
    j1 = np.where(mid >= 0, top, -low)
    j2 = np.abs(mid)
    weight = np.where((0 < j2) & (j2 < j1) & (j1 + j2 < n), 12, 6)
    weight = np.where((j1 == 0) & (j2 == 0), 1, weight)
    weight = np.where((j1 == n) & (j2 == 0), 2, weight)
    weight = np.where((2 * j1 == n) & (2 * j2 == n), 3, weight)
    return int(weight) if weight.ndim == 0 else weight


def enum_gamma(family, n: int):
    """Frequency index set of one family at transform size n, from the
    inequality chain 0 (<|<=) k2 (<|<=) k1 (<|<=) k3+n, whose three
    inequalities are strict by the family's sine bits (p, d, d)."""
    family = TrigFamily.of(family)
    if n < 1:
        raise ValueError("n must be >= 1")
    d, p = family.sines
    k = _triples(0, n)
    k1, k2, k3 = k.T
    return k[(p <= k2) & (k2 + d <= k1) & (k1 + d <= k3 + n)]


def dim_pi_star(n: int) -> int:
    """Dimension of the span of monomials x^a y^b with 2a+3b <= n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    f3 = n // 3
    f2 = n // 2
    return (3 * f3 - 2 * n) * (f3 + 1) // 2 - (f2 - n - 1) * (f2 + 1)


def triangle_discrete_inner(f, g, n: int):
    """Weighted discrete inner product over the triangle lattice,
    conjugate-linear in the second argument.  f and g are each called
    once, on a point whose components are the arrays of all nodes, and
    must broadcast."""
    j = enum_upsilon(n).T
    t = point_from_index(j, n)
    return np.sum(upsilon_weight(j, n) * f(t) * np.conj(g(t))) / n ** 2


def discrete_ortho_constant(k, n: int):
    """Expected squared discrete norm of a family member: the reciprocal
    of the lattice weight at the hatted index.  The components of k may
    be arrays, as in `upsilon_weight`."""
    return 1.0 / upsilon_weight(hat(k), n)
