"""Homogeneous coordinates on the plane t1+t2+t3=0 and the 12-element
reflection group of the 30-60-90 triangle.

Points and integer indices live on the sum-zero plane in R^3.  The group
is generated by the three reflections

    t*s1 = -(t1, t3, t2),   t*s2 = -(t2, t1, t3),   t*s3 = -(t3, t2, t1),

s3 = s1*s2*s1.  The six elements built from 1, s1, s2 together with their
negations give twelve signed permutations in total; every element is a
plain permutation of the coordinates or the negation of one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

TRIANGLE_TOL = 1e-12

SQRT3 = math.sqrt(3.0)


class TriplePoint(NamedTuple):
    t1: float
    t2: float
    t3: float


class HexIndex(NamedTuple):
    k1: int
    k2: int
    k3: int


class GroupElem(NamedTuple):
    sign: int          # overall factor applied after permuting
    perm: tuple        # result[i] = sign * t[perm[i]]
    parity: int        # +1 for rotations, -1 for reflections
    name: str

    def apply(self, t):
        s = self.sign
        p = self.perm
        return type(t)(s * t[p[0]], s * t[p[1]], s * t[p[2]])


IDENTITY = GroupElem(+1, (0, 1, 2), +1, "1")

# The rotation subgroup of the triangle symmetries and its three
# reflections, then everything negated.
A2 = (
    IDENTITY,
    GroupElem(-1, (0, 2, 1), -1, "s1"),
    GroupElem(-1, (1, 0, 2), -1, "s2"),
    GroupElem(-1, (2, 1, 0), -1, "s3"),
    GroupElem(+1, (2, 0, 1), +1, "s1s2"),
    GroupElem(+1, (1, 2, 0), +1, "s2s1"),
)

G2 = A2 + tuple(GroupElem(-g.sign, g.perm, g.parity, "-" + g.name) for g in A2)

# the rotations and the negated reflections: the plain permutations of G2
A2_STAR = tuple(g for g in G2 if g.sign == 1)


def compose(g: GroupElem, h: GroupElem) -> GroupElem:
    """Element acting as g followed by h: t*(g h) = (t*g)*h."""
    sign = g.sign * h.sign
    perm = tuple(g.perm[h.perm[i]] for i in range(3))
    for elem in G2:
        if elem.sign == sign and elem.perm == perm:
            return elem
    raise AssertionError("composition left the 12-element table")


def make_point(t1: float, t2: float) -> TriplePoint:
    """Point from two free coordinates, third forced by the sum-zero plane."""
    return TriplePoint(float(t1), float(t2), -float(t1) - float(t2))


def cart_to_homog(x1: float, x2: float) -> TriplePoint:
    """Cartesian (x1, x2) to homogeneous coordinates."""
    return TriplePoint(
        SQRT3 / 2.0 * x1 - 0.5 * x2,
        x2,
        -SQRT3 / 2.0 * x1 - 0.5 * x2,
    )


def make_index(k1: int, k2: int) -> HexIndex:
    return HexIndex(int(k1), int(k2), -int(k1) - int(k2))


def point_from_index(j, n: int) -> TriplePoint:
    """Lattice node j/n.  Each component is divided separately so that
    lattice points on symmetry lines keep exact float equalities
    (j1 == j2 gives t1 == t2, j3 == -n gives t3 == -1.0)."""
    return TriplePoint(j[0] / n, j[1] / n, j[2] / n)


def hat(k: HexIndex) -> HexIndex:
    """The duality map (k3-k2, k1-k3, k2-k1) between the physical and
    frequency index lattices."""
    return HexIndex(k[2] - k[1], k[0] - k[2], k[1] - k[0])


def orbit(k: HexIndex) -> frozenset:
    """All distinct images of k under the 12-element group."""
    return frozenset(g.apply(HexIndex(*k)) for g in G2)


def orbit_size(k) -> int:
    """|orbit(k)| in closed form: 1 for the zero index, 6 when a component
    is 0 or two components are equal, 12 otherwise."""
    k1, k2, k3 = k
    if not (k1 or k2):
        return 1
    if not (k1 and k2 and k3) or k1 == k2 or k2 == k3 or k1 == k3:
        return 6
    return 12


def in_fundamental_triangle(t) -> bool:
    """Membership test for 0 <= t2 <= t1 <= -t3 <= 1, to within TRIANGLE_TOL."""
    t1, t2, t3 = t
    return (
        t2 >= -TRIANGLE_TOL
        and t1 >= t2 - TRIANGLE_TOL
        and -t3 >= t1 - TRIANGLE_TOL
        and -t3 <= 1.0 + TRIANGLE_TOL
    )
