"""Adaptive tensor Gauss-Legendre quadrature over the parameter triangle
0 <= t2 <= t1 <= 1 - t2.

All weighted integrals over the curved target domain are pulled back to
this triangle, where the weight becomes |sc|^(2a+1) * |cs|^(2b+1) built
from the two lowest odd trigonometric functions.  The order is doubled
until two consecutive estimates agree to a relative tolerance.  When an
exponent is not a nonnegative integer the integrand has algebraic edge
singularities; a polynomial endpoint-flattening substitution is applied
on both axes so plain Gauss-Legendre still converges fast.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-12
START_ORDER = 8
_SMOOTH_P = 8


class QuadratureError(RuntimeError):
    """Raised when order doubling hits the cap without converging."""


def order_cap() -> int:
    return int(os.environ.get("G2CUB_QUAD_CAP", "512"))


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


# trigonometric building blocks, vectorized over (t1, t2) arrays ---------

def x_of_t(t1, t2):
    c = 2.0 * np.pi / 3.0
    return (
        np.cos(c * (t1 - t2)) + np.cos(c * (2 * t1 + t2)) + np.cos(c * (t1 + 2 * t2))
    ) / 3.0


def y_of_t(t1, t2):
    return (
        np.cos(2 * np.pi * t1) + np.cos(2 * np.pi * t2) + np.cos(2 * np.pi * (t1 + t2))
    ) / 3.0


def sc_of_t(t1, t2):
    # lowest sin*cos member, index (1,0,-1); nonpositive on the triangle
    c = 2.0 * np.pi / 3.0
    return (
        np.sin(c * (2 * t1 + t2)) - np.sin(c * (t1 - t2)) - np.sin(c * (t1 + 2 * t2))
    ) / 3.0


def cs_of_t(t1, t2):
    # lowest cos*sin member, index (1,1,-2); nonpositive on the triangle
    p = np.pi
    return (
        np.cos(p * (2 * t1 + t2)) * np.sin(p * t2)
        - np.cos(p * (t1 - t2)) * np.sin(p * (t1 + t2))
        + np.cos(p * (t1 + 2 * t2)) * np.sin(p * t1)
    ) / 3.0


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


def _weight_values(alpha, beta, t1, t2):
    ea = 2.0 * float(alpha) + 1.0
    eb = 2.0 * float(beta) + 1.0
    out = 1.0
    if ea:
        out = out * np.abs(sc_of_t(t1, t2)) ** ea
    if eb:
        out = out * np.abs(cs_of_t(t1, t2)) ** eb
    return out


def triangle_quadrature(values_fn, tol=DEFAULT_TOL, cap=None, smooth=False):
    """Adaptive tensor integral of a vectorized integrand over the
    parameter triangle.  values_fn(t1, t2) must broadcast; it may return a
    stack of integrands with shape (m, npoints), integrated jointly."""
    cap = order_cap() if cap is None else cap
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


_MDEG_CACHE = {}


def _exponent_list(max_mdeg):
    return [
        (i, j)
        for i in range(max_mdeg // 2 + 1)
        for j in range((max_mdeg - 2 * i) // 3 + 1)
    ]


def moment_table(alpha, beta, max_mdeg, tol=DEFAULT_TOL, cap=None):
    """Normalized moments <x^i y^j, 1> for all weighted degrees up to
    max_mdeg, plus the raw mass of the pulled-back weight.

    Returns (moments_dict, raw_mass).  Results are cached per parameter
    pair with the tolerance they met, and recomputed when a caller asks
    for a higher degree or a tighter tolerance.
    """
    key = (float(alpha), float(beta))
    cached = _MDEG_CACHE.get(key)
    if cached is not None and cached[0] >= max_mdeg and cached[1] <= tol:
        return cached[2], cached[3]

    exponents = _exponent_list(max_mdeg)
    smooth = _needs_smoothing(alpha, beta)

    def batch(t1, t2):
        xv = x_of_t(t1, t2)
        yv = y_of_t(t1, t2)
        wv = _weight_values(alpha, beta, t1, t2)
        xp = {}
        yp = {}
        rows = np.empty((len(exponents) + 1, t1.size))
        rows[0] = wv
        for r, (i, j) in enumerate(exponents, start=1):
            if i not in xp:
                xp[i] = xv ** i
            if j not in yp:
                yp[j] = yv ** j
            rows[r] = wv * xp[i] * yp[j]
        return rows

    est = triangle_quadrature(batch, tol=tol, cap=cap, smooth=smooth)
    raw_mass = float(est[0])
    moments = {
        ij: float(est[r]) / raw_mass for r, ij in enumerate(exponents, start=1)
    }
    _MDEG_CACHE[key] = (max_mdeg, tol, moments, raw_mass)
    return moments, raw_mass


def weight_mass(alpha, beta, tol=DEFAULT_TOL, cap=None) -> float:
    """Integral of the pulled-back weight over the parameter triangle."""
    return moment_table(alpha, beta, 0, tol=tol, cap=cap)[1]
