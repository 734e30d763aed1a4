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

import operator
from typing import NamedTuple


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


def make_point(t1: float, t2: float) -> TriplePoint:
    """Point from two free coordinates, third forced by the sum-zero plane."""
    return TriplePoint(float(t1), float(t2), -float(t1) - float(t2))


def make_index(k1: int, k2: int) -> HexIndex:
    """Index from two free components, third forced by the sum-zero plane;
    each component goes through `operator.index`, so numpy integers become
    ints and a component that is not an integer raises TypeError."""
    k1, k2 = operator.index(k1), operator.index(k2)
    return HexIndex(k1, k2, -k1 - k2)


def point_from_index(j, n: int) -> TriplePoint:
    """Lattice node j/n.  Each component is divided separately so that
    lattice points on symmetry lines keep exact float equalities
    (j1 == j2 gives t1 == t2, j3 == -n gives t3 == -1.0).  n goes through
    `operator.index` and must be >= 1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"the lattice size n must be >= 1, got {n}")
    return TriplePoint(j[0] / n, j[1] / n, j[2] / n)


def hat(k: HexIndex) -> HexIndex:
    """The duality map (k3-k2, k1-k3, k2-k1) between the physical and
    frequency index lattices."""
    return HexIndex(k[2] - k[1], k[0] - k[2], k[1] - k[0])


def orbit_size(k) -> int:
    """The size of k's orbit under the 12-element group in closed form: 1
    for the zero index, 6 when a component is 0 or two components are
    equal, 12 otherwise.  Each component goes through `operator.index`."""
    k1, k2, k3 = map(operator.index, k)
    if not (k1 or k2):
        return 1
    if not (k1 and k2 and k3) or k1 == k2 or k2 == k3 or k1 == k3:
        return 6
    return 12

