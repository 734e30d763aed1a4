"""Index-set enumeration and the discrete cubature / inner products on the
hexagon and on the fundamental triangle.

Two integer lattices appear: the full sum-zero integer triples (dagger
lattice) and its sublattice of triples whose components are congruent
mod 3.  All enumerations are exhaustive scans over bounded boxes with
exact integer predicates, sorted lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import HexIndex, hat, orbit_size, point_from_index
from .gentrig import TrigFamily

# node classes on the triangle and their cubature weights
WEIGHT_INTERIOR = 12
WEIGHT_V30 = 1
WEIGHT_V60 = 2
WEIGHT_V90 = 3
WEIGHT_EDGE = 6


@dataclass(frozen=True)
class ClassifiedNode:
    j: HexIndex
    cls: str          # interior | vertex30 | vertex60 | vertex90 | edge
    weight: int


@dataclass(frozen=True)
class GammaSet:
    family: TrigFamily
    n: int
    members: tuple

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def enum_H(n: int):
    """The mod-3 congruent lattice inside the closed hexagon of size n and
    the dagger lattice with all pairwise differences bounded by n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    h = []
    hdag = []
    for k1 in range(-n, n + 1):
        for k2 in range(-n, n + 1):
            k3 = -k1 - k2
            k = HexIndex(k1, k2, k3)
            if -n <= k3 <= n and k.is_congruent_mod3():
                h.append(k)
            if (
                -n <= k3 - k2 <= n
                and -n <= k1 - k3 <= n
                and -n <= k2 - k1 <= n
            ):
                hdag.append(k)
    return sorted(h), sorted(hdag)


def classify_hex_node(j, n: int) -> float:
    """Cubature coefficient on the closed hexagon: 1 inside, 1/2 on an
    edge, 1/3 at the six corners (each corner has three periodic copies)."""
    m = max(abs(j[0]), abs(j[1]), abs(j[2]))
    if m < n:
        return 1.0
    if sorted((j[0], j[1], j[2])) == [-n, 0, n]:
        return 1.0 / 3.0
    return 0.5


def hex_cubature(f, n: int):
    """Equal-spaced cubature over the hexagon, exact for plane waves of
    index set size up to 2n-1.  f is called once, on a point whose
    components are the arrays of all nodes, and must broadcast."""
    h, _ = enum_H(n)
    coef = np.array([classify_hex_node(j, n) for j in h])
    return np.sum(coef * f(point_from_index(np.array(h).T, n))) / n ** 2


def _classify_upsilon(j, n: int):
    j1, j2, j3 = j
    if j1 == 0 and j2 == 0:
        return "vertex30", WEIGHT_V30
    if j1 == n and j2 == 0:
        return "vertex60", WEIGHT_V60
    if 2 * j1 == n and 2 * j2 == n:
        return "vertex90", WEIGHT_V90
    if 0 < j2 < j1 < -j3 < n:
        return "interior", WEIGHT_INTERIOR
    return "edge", WEIGHT_EDGE


def enum_upsilon(n: int):
    """Classified nodes of the triangle lattice 0 <= j2 <= j1 <= -j3 <= n
    (components congruent mod 3), sorted lexicographically."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes = []
    for j1 in range(0, n + 1):
        for j2 in range(0, j1 + 1):
            j3 = -j1 - j2
            if -j3 > n:
                continue
            j = HexIndex(j1, j2, j3)
            if not j.is_congruent_mod3():
                continue
            cls, w = _classify_upsilon(j, n)
            nodes.append(ClassifiedNode(j, cls, w))
    nodes.sort(key=lambda node: node.j)
    return nodes


def upsilon_weight(j, n: int) -> int:
    """Weight of an arbitrary congruent triple with max|ji| <= n, looked up
    through its orbit representative on the fundamental triangle."""
    a, b, c = sorted((j[0], j[1], j[2]), reverse=True)
    rep = (a, b, c) if b >= 0 else (-c, -b, -a)
    return _classify_upsilon(rep, n)[1]


def enum_gamma(family, n: int) -> GammaSet:
    """Frequency index set of one family at transform size n, from the
    inequality chain 0 (<|<=) k2 (<|<=) k1 (<|<=) k3+n, whose three
    inequalities are strict by the family's sine bits (p, d, d)."""
    family = TrigFamily.of(family)
    if n < 1:
        raise ValueError("n must be >= 1")
    d, p = family.sines
    members = []
    for k1 in range(0, n + 1):
        for k2 in range(p, k1 - d + 1):
            k3 = -k1 - k2
            if k1 + d <= k3 + n:
                members.append(HexIndex(k1, k2, k3))
    return GammaSet(family, n, tuple(members))  # lexicographic by construction


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
    nodes = enum_upsilon(n)
    t = point_from_index(np.array([node.j for node in nodes]).T, n)
    weights = np.array([node.weight for node in nodes])
    return np.sum(weights * f(t) * np.conj(g(t))) / n ** 2


def discrete_ortho_constant(family, k, n: int):
    """Expected squared discrete norm of one family member: the reciprocal
    of the lattice weight at the hatted index."""
    return 1.0 / upsilon_weight(hat(HexIndex(*k)), n)


def orbit_constant(k) -> float:
    """Expected squared continuous norm over the triangle: 1/|orbit|."""
    return 1.0 / orbit_size(k)
