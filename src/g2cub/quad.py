"""Adaptive tensor Gauss-Legendre quadrature over the parameter triangle
0 <= t2 <= t1 <= 1 - t2, for weighted integrals of general callables and
as the test oracle; polynomial integrals are exact moments instead.

Integrals over the curved target domain are pulled back to this
triangle by `pullback`: the map (x, y) and the weight, which becomes
|sc|^(2a+1) * |cs|^(2b+1) built from the two lowest odd trigonometric
functions, all evaluated on arrays of nodes by `gentrig.eval`.  The
order is doubled until two consecutive estimates agree to a relative
tolerance.  When an exponent is not a nonnegative integer the integrand
has algebraic edge singularities; a polynomial endpoint-flattening
substitution is applied on both axes so plain Gauss-Legendre still
converges fast.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import gentrig
from .coords import make_index
from .gentrig import TrigFamily

DEFAULT_TOL = 1e-12
ORDER_CAP = 512
START_ORDER = 8
_SMOOTH_P = 8


class QuadratureError(RuntimeError):
    """Raised when order doubling hits the cap without converging."""


@lru_cache(maxsize=None)
def _gauss_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    # map to (0, 1)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _smooth_coeffs(p):
    # S(u) = int_0^u s^(p-1)(1-s)^(p-1) ds / B(p, p), a degree 2p-1
    # polynomial with p-fold flat endpoints; S(1) = 1 exactly.
    inv_b = math.comb(2 * p - 1, p) * p  # 1 / B(p, p)
    coeffs = [
        inv_b * (-1) ** k * math.comb(p - 1, k) / (p + k) for k in range(p)
    ]
    return np.array(coeffs), inv_b


def _smooth(u, p=_SMOOTH_P):
    coeffs, inv_b = _smooth_coeffs(p)
    s = np.zeros_like(u)
    for k in reversed(range(p)):
        s = s * u + coeffs[k]
    s *= u ** p
    ds = inv_b * (u * (1.0 - u)) ** (p - 1)
    return s, ds


def pullback(alpha, beta, t1, t2):
    """The map (x, y) and the pulled-back weight at parameter points
    (t1, t2), which may be arrays."""
    t = (t1, t2, -t1 - t2)
    x = gentrig.eval(TrigFamily.CC, make_index(1, 0), t)
    y = gentrig.eval(TrigFamily.CC, make_index(1, 1), t)
    ea = 2.0 * float(alpha) + 1.0
    eb = 2.0 * float(beta) + 1.0
    w = 1.0
    if ea:
        w = w * np.abs(gentrig.eval(TrigFamily.SC, make_index(1, 0), t)) ** ea
    if eb:
        w = w * np.abs(gentrig.eval(TrigFamily.CS, make_index(1, 1), t)) ** eb
    return x, y, w


def _needs_smoothing(alpha, beta) -> bool:
    for expo in (2.0 * float(alpha) + 1.0, 2.0 * float(beta) + 1.0):
        if expo < 0 or expo != int(expo):
            return True
    return False


def _grid(order, smooth):
    """Tensor nodes (t1, t2) and combined quadrature weights (flattened)."""
    u, wu = _gauss_nodes(order)
    if smooth:
        su, dsu = _smooth(u)
    else:
        su, dsu = u, np.ones_like(u)
    # outer axis: t2 = su/2 on (0, 1/2); inner axis: t1 = t2 + (1-2*t2)*sv
    t2 = 0.5 * su
    span = 1.0 - 2.0 * t2
    T2 = np.repeat(t2, order)
    T1 = T2 + np.repeat(span, order) * np.tile(su, order)
    W = (
        np.repeat(wu * 0.5 * dsu * span, order)
        * np.tile(wu * dsu, order)
    )
    return T1, T2, W


def triangle_quadrature(values_fn, tol=DEFAULT_TOL, cap=None, smooth=False):
    """Adaptive tensor integral of a vectorized integrand over the
    parameter triangle.  values_fn(t1, t2) must broadcast; it may return a
    stack of integrands with shape (m, npoints), integrated jointly."""
    cap = ORDER_CAP if cap is None else cap
    order = START_ORDER
    prev = None
    while order <= cap:
        t1, t2, w = _grid(order, smooth)
        vals = np.asarray(values_fn(t1, t2))
        est = vals @ w if vals.ndim > 1 else float(np.dot(vals, w))
        if prev is not None:
            delta = np.max(np.abs(np.atleast_1d(est - prev)))
            scale = max(1.0, float(np.max(np.abs(np.atleast_1d(est)))))
            if delta <= tol * scale:
                return est
        prev = est
        order *= 2
    raise QuadratureError(
        f"tensor quadrature did not converge below order {cap}"
    )
