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
The triangles' geometry depends on neither the order nor the parameters,
so the first rule build makes it once (`_geometry`), and every build only
solves for the Gauss-Jacobi nodes and forms the weight at them.

`triangle_quadrature` raises the per-axis order through `ORDERS` (8, 12,
16, 24, ..., 96, 128) until two successive estimates agree.  A rule
costs order^2, and the stop needs one order past the first converged
one: a x1.5 step pays 2.25 times the converged order's cost to confirm
it, against 4 times for a doubling step, and every order 8 * 2^k is
among those tried.
"""

from __future__ import annotations

import math
import operator
from functools import cache, lru_cache

import numpy as np

from .gentrig import xy_map

DEFAULT_TOL = 1e-12
ORDER_CAP = 128
# the per-axis orders `triangle_quadrature` walks: each 8 * 2^k up to the
# cap, and 1.5 times each below it
ORDERS = (8, 12, 16, 24, 32, 48, 64, 96, ORDER_CAP)

# the factors sin(pi l.t), t3 = -t1 - t2: three of sc_(1,0), three of cs_(1,1)
_L = ((1 / 3, -1 / 3), (1 / 3, 2 / 3), (-2 / 3, -1 / 3), (1.0, 0.0), (0.0, 1.0), (-1.0, -1.0))


class QuadratureError(RuntimeError):
    """Raised when the error estimate is still above tol at the order cap,
    or when an estimate is not finite."""


def _require_integrable(alpha, beta):
    """The weight at parameters (alpha, beta) is integrable only where
    every exponent of `_nodes` exceeds -1: alpha > -1, beta > -5/6 and
    alpha + beta > -4/3, as sc and cs both vanish to order 3 at the vertex
    t = (0, 0), cs alone at (1, 0), and one of them along each edge."""
    a, b = float(alpha), float(beta)
    if not (a > -1 and b > -5 / 6 and a + b > -4 / 3):
        raise ValueError(
            f"the weight at parameters ({alpha}, {beta}) is not integrable: "
            "it needs alpha > -1, beta > -5/6 and alpha + beta > -4/3"
        )


class Record:
    """Base of the immutable records: nothing can be set or deleted after
    __init__, the repr lists the fields named in `_fields`, and pickle and
    copy call the class on those fields, so its checks run again."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Rule(Record):
    """A weighted point set on the domain: nodes (N, 2), one (x, y) per
    row, and weights (N,) summing to one, both read-only float64 arrays.
    Immutable, and equal only to itself; a pickled or copied rule is built
    again from its fields, so its arrays are read-only too."""

    _fields = ("nodes", "weights")

    def __init__(self, nodes, weights):
        nodes.flags.writeable = weights.flags.writeable = False
        vars(self).update(nodes=nodes, weights=weights)

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
    if not math.isfinite(diag.sum() + off.sum()):  # a nan entry, from an exponent near the float range
        return np.full((2, len(b), order), np.nan)  # refused in `rule`
    jacobi = np.zeros((len(b), order, order))
    i = np.arange(order)
    jacobi[:, i, i] = 0.5 + 0.5 * diag
    jacobi[:, i[1:], i[:-1]] = jacobi[:, i[:-1], i[1:]] = off
    nodes, vecs = np.linalg.eigh(jacobi)
    return nodes, vecs[:, 0] ** 2 / (b + 1.0)


@cache
def _geometry():
    """The six Duffy triangles, the same for every order and parameter pair:
    per triangle, two at each vertex, V, M - V, P - V and twice its area;
    per triangle and factor, l.V, l.(M - V), l.(P - V), and whether the
    factor vanishes at V and along V-M.  All read-only; made on the first
    call, so an import that builds no rule does no array work."""
    V = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]], 2, axis=0)
    A, B = (V[[2, 4, 0, 4, 0, 2]] - V) / 2.0, np.array([0.5, 1.0 / 6.0]) - V
    area2 = np.abs(A[:, :1] * B[:, 1:] - A[:, 1:] * B[:, :1])
    lv, la, lb = ((u[:, None] * np.array(_L)).sum(-1) for u in (V, A, B))
    at_v = lv == np.round(lv)
    on_e = at_v & (la == 0.0)
    lv[at_v] = 0.0  # an integer l.V only flips the sign of sin(pi l.t)
    arrays = (V, A, B, area2, lv, la, lb, at_v, on_e)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _nodes(order, alpha, beta):
    """Nodes (t1, t2) and weights with order nodes per axis on each Duffy
    triangle, for the weight at parameters (alpha, beta); ValueError where
    the weight is not integrable."""
    _require_integrable(alpha, beta)
    V, A, B, area2, lv, la, lb, at_v, on_e = _geometry()
    expo = np.repeat([2.0 * float(alpha) + 1.0, 2.0 * float(beta) + 1.0], 3)
    # 12 uses, r^(c+1) per triangle then s^e, of at most 5 distinct exponents
    uses = np.concatenate(((at_v * expo).sum(1) + 1.0, (on_e * expo).sum(1))).tolist()
    exponents = list(dict.fromkeys(uses))
    nodes, weights = _gauss_jacobi(order, np.array(exponents))
    use = [exponents.index(b) for b in uses]
    (r, s), (wr, ws) = np.split(nodes[use], 2), np.split(weights[use], 2)  # (triangle, node)
    w = (wr[:, :, None] * ws[:, None, :]).reshape(6, -1) * area2
    r, s = np.repeat(r, order, axis=1), np.tile(s, order)
    s1, rs = 1 - s, r * s
    sines = [1.0, 1.0]  # the products over the factors of sc_(1,0) and of cs_(1,1)
    for f in range(6):  # l.t = l.V + r l.((1-s)(M-V) + s(P-V))
        lt = lv[:, f, None] + r * (s1 * la[:, f, None] + s * lb[:, f, None])
        den = np.where(on_e[:, f, None], rs, np.where(at_v[:, f, None], r, 1.0))
        sines[f // 3] = sines[f // 3] * np.sin(np.pi * lt) / den
    w = w * (4.0 / 3.0) ** (expo[0] + expo[3])  # sc_(1,0) and cs_(1,1) are 4/3 times their sine products
    w = w * np.abs(sines[0]) ** expo[0] * np.abs(sines[1]) ** expo[3]
    t1, t2 = (V[:, i, None] + r * (s1 * A[:, i, None] + s * B[:, i, None]) for i in (0, 1))
    return t1.ravel(), t2.ravel(), w.ravel()


def rule(order, alpha, beta) -> Rule:
    """Images (x, y) of `_nodes` with their weights scaled to sum to one,
    the last 32 built kept (`_rule`).  The order goes through
    `operator.index` before that cache, so a non-integer order raises
    TypeError and one below 1 ValueError, cached or not.  Raises
    ValueError where the weight is not integrable, where a scaled weight
    is outside the float range, as at (1e3, 0), and if a node rounds onto
    the boundary of the triangle, as happens within about 1e-10 of
    beta = -5/6: the weight, and an integrand, may be singular there."""
    order = operator.index(order)
    if order < 1:
        raise ValueError(f"a rule needs order >= 1, got {order}")
    return _rule(order, alpha, beta)


@lru_cache(maxsize=32)
def _rule(order, alpha, beta) -> Rule:
    with np.errstate(over="ignore", invalid="ignore"):  # such weights are refused below
        t1, t2, w = _nodes(order, alpha, beta)
        total = w.sum()
    if not 0.0 < total < np.inf:  # each weight is >= 0 or nan, so then each is finite
        raise ValueError(f"the order-{order} rule at parameters ({alpha}, {beta}) "
                         "has weights outside the float range")
    on_edge = np.count_nonzero((t2 <= 0.0) | (t1 <= t2) | (t1 + t2 >= 1.0))
    if on_edge:
        raise ValueError(f"the order-{order} rule at parameters ({alpha}, {beta}) "
                         f"has {on_edge} nodes on the boundary of the triangle")
    xy = np.array(xy_map((t1, t2, -t1 - t2)))
    return Rule(xy.T, w / total)  # the transpose keeps x and y contiguous


def triangle_quadrature(values_fn, tol=DEFAULT_TOL, alpha=0.0, beta=0.0):
    """Weighted mean at parameters (alpha, beta) of a function on the
    domain: values_fn(x, y) gets the images of the nodes as arrays and may
    return a stack of integrands, shape (m, npoints).  The per-axis order
    walks `ORDERS`, 8, 12, 16, 24, ..., 96, 128, in steps of x1.5 and x4/3,
    until the mean moves by at most tol * max(1, |mean|) from the previous
    order's: the error estimate is relative to the normalized result.  A
    rule of order n has 6 n^2 nodes, and the stop takes one order past the
    first that has converged, which costs at most (3/2)^2 = 2.25 times its
    points, against 4 times for a doubling step.  It stops at the first
    order whose estimate is not finite with a QuadratureError."""
    prev, delta = None, np.inf
    for order in ORDERS:
        r = rule(order, alpha, beta)
        values = values_fn(*r.nodes.T)
        with np.errstate(invalid="ignore"):  # inf - inf or inf * 0 in the mean, refused below
            est = r.mean(values)
        if not np.isfinite(est).all():
            raise QuadratureError(f"quadrature at parameters ({alpha}, {beta}) stopped: the "
                                  f"order-{order} estimate is not finite ({est})")
        if prev is not None:
            delta = float(np.max(np.abs(est - prev))) / max(1.0, float(np.max(np.abs(est))))
            if delta <= tol:
                return est if est.ndim else float(est)
        prev = est
    raise QuadratureError(f"quadrature at parameters ({alpha}, {beta}) did not converge: at order "
                          f"{ORDER_CAP} (cap {ORDER_CAP}) the relative change was {delta:.3e}, "
                          f"above tol {tol:.3e}")
