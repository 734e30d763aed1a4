import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2cub import quad
from g2cub.chebyshev import (
    WeightParams,
    continuous_inner,
    normalization_c,
    star_indices_upto,
    weight_w,
    xy_map,
)
from g2cub.coords import make_index
from g2cub.cubature import reference_integral
from g2cub.gentrig import eval as trig
from g2cub.poly import BivarPoly
from g2cub.sturm import eigenvalue, moments, monomial_image


def _oracle(a, b, exponents, tol=1e-13):
    """Raw mass and normalized moments by tensor quadrature of the
    pulled-back weight, independent of the operator."""
    def rows(t1, t2):
        x, y, w = quad.pullback(a, b, t1, t2)
        w = np.broadcast_to(w, t1.shape)  # a scalar 1.0 when both exponents vanish
        return np.array([w] + [w * x ** i * y ** j for i, j in exponents])

    est = quad.triangle_quadrature(rows, tol=tol, smooth=quad._needs_smoothing(a, b))
    return est[0], est[1:] / est[0]


def test_moments_satisfy_the_operator_recurrence_exactly():
    # <L x^m, 1> = 0: sum_e c_e mu_e + lambda_m mu_m = 0 in exact Fractions
    p = WeightParams(Fraction(3, 10), Fraction(6, 5))
    mu = moments(p, 24)
    assert mu[(0, 0)] == 1
    for m in star_indices_upto(24):
        assert type(mu[m]) is Fraction
        lowered = sum(c * mu[e] for e, c in monomial_image(p, *m) if e != m)
        assert lowered + eigenvalue(p, m) * mu[m] == 0, m


RATIONAL = st.fractions(min_value=Fraction(-1, 2), max_value=2, max_denominator=20)


@settings(max_examples=6, deadline=None)
@given(RATIONAL, RATIONAL)
def test_moments_match_the_quadrature_oracle(a, b):
    indices = star_indices_upto(12)
    mu = moments(WeightParams(a, b), 12)
    _, oracle = _oracle(float(a), float(b), indices)
    for m, value in zip(indices, oracle):
        assert abs(float(mu[m]) - value) <= 1e-12, (a, b, m)


@settings(max_examples=6, deadline=None)
@given(RATIONAL, RATIONAL)
def test_normalization_c_matches_the_quadrature_of_the_weight(a, b):
    a, b = float(a), float(b)
    mass, _ = _oracle(a, b, [])
    expect = (3 / (4 * math.pi ** 2)) ** (a + b + 1) / mass
    assert normalization_c(WeightParams(a, b)) == pytest.approx(expect, rel=1e-11)


def test_polynomial_integrals_run_no_quadrature(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("quadrature reached")

    monkeypatch.setattr(quad, "triangle_quadrature", fail)
    x, y = BivarPoly.x(), BivarPoly.y()
    for p in (WeightParams(0.3, 1.2), WeightParams(-0.6, 0.3), WeightParams(0.3, -0.7)):
        continuous_inner(p, x * y, y)
        reference_integral(p, x * y * y)
        normalization_c(p)


@pytest.mark.parametrize("a,b", [(0.3, 1.2), (-0.4, 0.7), (0.5, -0.5), (-0.5, -0.5)])
def test_pullback_is_the_weight_times_the_jacobian(a, b):
    # weight_w(x, y) |dx dy / dt1 dt2| = (4 pi^2 / 3)^(a+b+1) |sc|^(2a+1) |cs|^(2b+1)
    t1, t2 = np.array([0.31, 0.52, 0.7]), np.array([0.08, 0.2, 0.11])
    x, y, w = quad.pullback(a, b, t1, t2)
    w = np.broadcast_to(w, t1.shape)  # a scalar 1.0 when both exponents vanish
    t = (t1, t2, -t1 - t2)
    assert all(np.array_equal(u, v) for u, v in zip((x, y), xy_map(t)))
    jac = 4 * math.pi ** 2 / 3 * np.abs(trig("sc", make_index(1, 0), t) * trig("cs", make_index(1, 1), t))
    p = WeightParams(a, b)
    for i in range(t1.size):
        expect = weight_w(p, x[i], y[i]) * jac[i] / (4 * math.pi ** 2 / 3) ** (a + b + 1)
        assert w[i] == pytest.approx(expect, rel=1e-12)
