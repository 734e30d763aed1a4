"""Product Gauss-Jacobi quadrature against the pulled-back weight over
the parameter triangle 0 <= t2 <= t1 <= 1 - t2, for weighted integrals
of general callables (polynomials use exact moments instead).

The pulled-back weight is |sc_(1,0)|^(2a+1) |cs_(1,1)|^(2b+1), and each
of its six sine factors vanishes only on an edge or at a vertex.  Cut at
the centroid P into six Duffy triangles (V, M, P), V a vertex and M the
midpoint of an edge at V, with t = V + r((1-s)(M-V) + s(P-V)), the weight
is r^c s^e times a smooth factor: c sums the exponents of the factors
vanishing at V, e those vanishing on the edge V-M.  Gauss-Jacobi nodes
for r^(c+1) (one r is the Jacobian's) and s^e integrate both powers at
interior nodes.  The smooth factor divides each vanishing sine, as a
function of (r, s), by r or r s, so it stays accurate at the vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-12
ORDER_CAP = 128
START_ORDER = 8

# the factors sin(pi l.t), t3 = -t1 - t2: three of sc_(1,0), three of cs_(1,1)
_L = ((1 / 3, -1 / 3), (1 / 3, 2 / 3), (-2 / 3, -1 / 3), (1.0, 0.0), (0.0, 1.0), (-1.0, -1.0))


class QuadratureError(RuntimeError):
    """Raised when the error estimate is still above tol at the order cap."""


@dataclass(frozen=True, eq=False)
class Rule:
    """A weighted point set on the domain: nodes (N, 2), one (x, y) per
    row, and weights (N,) summing to one, both read-only float64 arrays."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.flags.writeable = self.weights.flags.writeable = False

    def mean(self, values):
        """The weighted sum over the last axis of values at the nodes, in
        an order that does not depend on the BLAS."""
        return np.sum(np.multiply(values, self.weights), axis=-1)


def _gauss_jacobi(order, b):
    """Nodes and weights on (0, 1) for the weights u^b, one row for each
    exponent in the 1-d array b > -1, from the Jacobi matrices'
    eigenvectors (Golub and Welsch 1969), all solved in one stacked call."""
    b = b[:, None]
    n = np.arange(1.0, order)
    s = 2.0 * n + b
    diag = np.concatenate((b / (b + 2.0), b * b / (s * (s + 2.0))), axis=1)
    off = np.sqrt(n * n * (n + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    jacobi = np.zeros((len(b), order, order))
    i = np.arange(order)
    jacobi[:, i, i] = 0.5 + 0.5 * diag
    jacobi[:, i[1:], i[:-1]] = jacobi[:, i[:-1], i[1:]] = off
    nodes, vecs = np.linalg.eigh(jacobi)
    return nodes, vecs[:, 0] ** 2 / (b + 1.0)


def _nodes(order, alpha, beta):
    """Nodes (t1, t2) and weights with order nodes per axis on each Duffy
    triangle, for the weight at parameters (alpha, beta)."""
    # per triangle, two at each vertex: V, M - V, P - V; per triangle and factor:
    # l.V, l.(M - V), l.(P - V), and whether it vanishes at V and along V-M
    V = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]], 2, axis=0)
    A, B = (V[[2, 4, 0, 4, 0, 2]] - V) / 2.0, np.array([0.5, 1.0 / 6.0]) - V
    area2 = np.abs(A[:, :1] * B[:, 1:] - A[:, 1:] * B[:, :1])
    lv, la, lb = ((u[:, None] * np.array(_L)).sum(-1) for u in (V, A, B))
    at_v = lv == np.round(lv)
    on_e = at_v & (la == 0.0)
    lv[at_v] = 0.0  # an integer l.V only flips the sign of sin(pi l.t)
    expo = np.repeat([2.0 * float(alpha) + 1.0, 2.0 * float(beta) + 1.0], 3)
    # 12 uses, r^(c+1) per triangle then s^e, of at most 5 distinct exponents
    uses = np.concatenate(((at_v * expo).sum(1) + 1.0, (on_e * expo).sum(1))).tolist()
    exponents = list(dict.fromkeys(uses))
    nodes, weights = _gauss_jacobi(order, np.array(exponents))
    use = [exponents.index(b) for b in uses]
    (r, s), (wr, ws) = np.split(nodes[use], 2), np.split(weights[use], 2)  # (triangle, node)
    w = (wr[:, :, None] * ws[:, None, :]).reshape(6, -1) * area2
    r, s = np.repeat(r, order, axis=1), np.tile(s, order)
    sines = [1.0, 1.0]  # the products over the factors of sc_(1,0) and of cs_(1,1)
    for f in range(6):  # l.t = l.V + r l.((1-s)(M-V) + s(P-V))
        lt = lv[:, f, None] + r * ((1 - s) * la[:, f, None] + s * lb[:, f, None])
        den = np.where(on_e[:, f, None], r * s, np.where(at_v[:, f, None], r, 1.0))
        sines[f // 3] = sines[f // 3] * np.sin(np.pi * lt) / den
    w = w * (4.0 / 3.0) ** (expo[0] + expo[3])  # sc_(1,0) and cs_(1,1) are 4/3 times their sine products
    w = w * np.abs(sines[0]) ** expo[0] * np.abs(sines[1]) ** expo[3]
    t1, t2 = (V[:, i, None] + r * ((1 - s) * A[:, i, None] + s * B[:, i, None]) for i in (0, 1))
    return t1.ravel(), t2.ravel(), w.ravel()


@lru_cache(maxsize=32)
def rule(order, alpha, beta) -> Rule:
    """Images (x, y) of `_nodes` with their weights scaled to sum to one.
    Raises ValueError if a node rounds onto the boundary of the triangle,
    as happens within about 1e-10 of beta = -5/6: the weight, and an
    integrand, may be singular there."""
    from .chebyshev import xy_map  # chebyshev imports this module

    t1, t2, w = _nodes(order, alpha, beta)
    on_edge = np.count_nonzero((t2 <= 0.0) | (t1 <= t2) | (t1 + t2 >= 1.0))
    if on_edge:
        raise ValueError(f"the order-{order} rule at parameters ({alpha}, {beta}) "
                         f"has {on_edge} nodes on the boundary of the triangle")
    xy = np.array(xy_map((t1, t2, -t1 - t2)))
    return Rule(xy.T, w / w.sum())  # the transpose keeps x and y contiguous


def triangle_quadrature(values_fn, tol=DEFAULT_TOL, alpha=0.0, beta=0.0):
    """Weighted mean at parameters (alpha, beta) of a function on the
    domain: values_fn(x, y) gets the images of the nodes as arrays and may
    return a stack of integrands, shape (m, npoints).  The order doubles
    from START_ORDER until the mean moves by at most tol * max(1, |mean|):
    the error estimate is relative to the normalized result."""
    order, prev, delta = START_ORDER, None, np.inf
    while order <= ORDER_CAP:
        r = rule(order, alpha, beta)
        est = r.mean(values_fn(*r.nodes.T))
        if prev is not None:
            delta = float(np.max(np.abs(est - prev))) / max(1.0, float(np.max(np.abs(est))))
            if delta <= tol:
                return est if est.ndim else float(est)
        prev, order = est, 2 * order
    raise QuadratureError(f"quadrature did not converge: at order {order // 2} (cap {ORDER_CAP}) "
                          f"the relative change was {delta:.3e}, above tol {tol:.3e}")
