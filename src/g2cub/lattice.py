"""Index sets as integer arrays, the lattice weight, the discrete
orthogonality constants and the dimension of the polynomial spaces.

Two integer lattices appear: the full sum-zero integer triples, which
index the family members (`enum_gamma`), and its sublattice of triples
whose components are congruent mod 3, the triangle's nodes
(`enum_upsilon`).  Every enumeration is built row by row (`_rows`): for
each first component k1 the second runs over one arithmetic range read
off the set's inequalities, so only the kept triples are ever built.
Each returns an (N, 3) int64 array whose rows are in lexicographic order.
The weight of a triangle lattice node, and of any congruent triple
through its orbit representative, is `upsilon_weight`.  Every size n goes
through `operator.index`, so an n that is not an integer raises TypeError.
"""

from __future__ import annotations

import operator

import numpy as np

from .coords import hat
from .gentrig import TrigFamily


def _rows(k1, lo, hi, step: int = 1):
    """The (N, 3) int64 array of sum-zero triples (k1, k2, -k1-k2), where
    k1 runs over the ascending int array k1 and, in row i, k2 over
    range(lo[i], hi[i] + 1, step), in lexicographic order; lo and hi are
    int arrays or ints that broadcast against k1.  Rows with hi < lo are
    empty; nothing outside the kept triples is built."""
    counts = np.maximum((hi - lo) // step + 1, 0)
    starts = np.cumsum(counts) - counts
    out = np.empty((int(starts[-1] + counts[-1]), 3), dtype=np.int64)
    first, second, third = out.T
    first[:] = np.repeat(k1, counts)
    # k2 = lo[i] + step (position - starts[i]) in row i
    second[:] = np.repeat(lo - step * starts, counts)
    second += np.arange(0, step * len(out), step)
    np.add(first, second, out=third)
    np.negative(third, out=third)
    return out


def enum_upsilon(n: int):
    """Nodes of the triangle lattice 0 <= j2 <= j1 <= -j3 <= n (components
    congruent mod 3), sorted lexicographically: for each j1, j2 runs from
    j1 mod 3 to min(j1, n - j1) in steps of 3, about n^2/12 rows."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    j1 = np.arange(n + 1)
    return _rows(j1, j1 % 3, np.minimum(j1, n - j1), 3)


def upsilon_weight(j, n: int):
    """Cubature weight of a congruent triple with max|ji| <= n, read at its
    orbit representative on the fundamental triangle: 1, 2 and 3 at the
    30, 60 and 90 degree vertices, 12 inside and 6 on an edge.  The
    components j[0], j[1], j[2] may be arrays of one shape; scalar input
    gives an int."""
    n = operator.index(n)
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
    inequalities are strict by the family's sine bits (p, d, d): for each
    k1, k2 runs from p to min(k1 - d, n - d - 2 k1), sorted
    lexicographically."""
    family = TrigFamily.of(family)
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    d, p = family.sines
    k1 = np.arange(n + 1)
    return _rows(k1, p, np.minimum(k1 - d, n - d - 2 * k1))


def dim_pi_star(n: int) -> int:
    """Dimension of the span of monomials x^a y^b with 2a+3b <= n."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    f3 = n // 3
    f2 = n // 2
    return (3 * f3 - 2 * n) * (f3 + 1) // 2 - (f2 - n - 1) * (f2 + 1)


def discrete_ortho_constant(k, n: int):
    """Expected squared discrete norm of a family member: the reciprocal
    of the lattice weight at the hatted index.  The components of k may
    be arrays, as in `upsilon_weight`."""
    return 1.0 / upsilon_weight(hat(k), n)
