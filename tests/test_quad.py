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
    weight_mass,
    weight_w,
    xy_map,
)
from g2cub.coords import make_index
from g2cub.cubature import reference_integral
from g2cub.gentrig import eval as trig
from g2cub.poly import BivarPoly
from g2cub.sturm import eigenvalue, moments, monomial_image


def _oracle(a, b, exponents, tol=1e-13):
    """Normalized moments by product Gauss-Jacobi quadrature of the
    pulled-back weight, independent of the operator."""
    def rows(x, y):
        return np.array([x ** i * y ** j for i, j in exponents])

    return quad.triangle_quadrature(rows, tol=tol, alpha=a, beta=b)


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
    oracle = _oracle(float(a), float(b), indices)
    for m, value in zip(indices, oracle):
        assert abs(float(mu[m]) - value) <= 1e-12, (a, b, m)


@settings(max_examples=6, deadline=None)
@given(RATIONAL, RATIONAL)
def test_normalization_c_matches_the_quadrature_of_the_weight(a, b):
    a, b = float(a), float(b)
    mass = quad._nodes(32, a, b)[2].sum()
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
    t = (t1, t2, -t1 - t2)
    sc, cs = np.abs(trig("sc", make_index(1, 0), t)), np.abs(trig("cs", make_index(1, 1), t))
    w = sc ** (2 * a + 1) * cs ** (2 * b + 1)
    x, y = xy_map(t)
    jac = 4 * math.pi ** 2 / 3 * sc * cs
    p = WeightParams(a, b)
    for i in range(t1.size):
        expect = weight_w(p, x[i], y[i]) * jac[i] / (4 * math.pi ** 2 / 3) ** (a + b + 1)
        assert w[i] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("a,b", [(-0.6, 0.3), (0.3, -0.7), (-0.9, 0.2)])
def test_mass_near_the_vertex_limits_matches_the_closed_form(a, b):
    # these pairs raised QuadratureError under the old endpoint smoothing
    expect = weight_mass(WeightParams(a, b))
    for order in (16, 32):
        assert abs(quad._nodes(order, a, b)[2].sum() / expect - 1) <= 1e-12, order


@pytest.mark.parametrize("a,b", [(-0.6, 0.3), (0.3, -0.7), (-0.9, 0.2)])
def test_callable_integrals_near_the_vertex_limits_meet_tol(a, b):
    p = WeightParams(a, b)
    x, y = BivarPoly.x(), BivarPoly.y()
    for f in (x * y, y * y, x * x * x):
        got = continuous_inner(p, lambda u, v: f(u, v), lambda u, v: 1.0, tol=1e-12)
        assert abs(got - reference_integral(p, f)) <= 1e-12


# (alpha, beta) at least 1e-6 inside the integrable region; nearer its
# edge the nodes close to a vertex are within rounding of it
INTEGRABLE = st.tuples(
    st.floats(-1 + 1e-6, 3), st.floats(-5 / 6 + 1e-6, 3)
).filter(lambda ab: ab[0] + ab[1] >= -4 / 3 + 1e-6)


@settings(max_examples=25, deadline=None)
@given(INTEGRABLE, st.sampled_from([8, 16, 32, 128]))
def test_rule_nodes_are_interior_and_weights_positive(ab, order):
    t1, t2, w = quad._nodes(order, *ab)
    assert np.all(t2 > 0)
    assert np.all(t1 > t2)
    assert np.all(t1 + t2 < 1)
    assert np.all(np.isfinite(w)) and np.all(w > 0)


@pytest.mark.parametrize("a,b", [(-0.9, -0.8), (0.0, -5 / 6), (-0.6, -0.75), (-1.5, 1.0)])
def test_quadrature_refuses_a_weight_that_is_not_integrable(a, b, monkeypatch):
    # alpha <= -1, beta <= -5/6 or alpha + beta <= -4/3: some exponent of the
    # Duffy triangles is <= -1, so the check comes before any Gauss-Jacobi work
    def fail(*args, **kwargs):
        raise AssertionError("Gauss-Jacobi reached")

    monkeypatch.setattr(quad, "_gauss_jacobi", fail)
    with pytest.raises(ValueError, match="not integrable"):
        quad.rule(8, a, b)
    with pytest.raises(ValueError, match="not integrable"):
        quad.triangle_quadrature(lambda x, y: x * 0 + 1, alpha=a, beta=b)


def test_rule_refuses_nodes_rounded_onto_the_boundary():
    # 1e-14 above beta = -5/6 the nodes next to the vertex (1, 0) round
    # onto t1 + t2 = 1; 1e-8 above it every node is still interior
    with pytest.raises(ValueError, match=r"order-8 rule at parameters \(0\.3, -0\.83"):
        quad.rule(8, 0.3, -5 / 6 + 1e-14)
    for order in (8, 128):
        w = quad.rule(order, 0.3, -5 / 6 + 1e-8).weights
        assert np.all(np.isfinite(w)) and np.all(w > 0)


@pytest.mark.parametrize("a,b", [(Fraction(23, 20), Fraction(-9, 20)), (1.15, -0.45)])
def test_callable_moments_meet_tol_against_the_exact_moments(a, b):
    # tol bounds the normalized result, not the raw weighted integral,
    # whose mass here is 0.017
    tol = 1e-12
    indices = star_indices_upto(12)
    mu = moments(WeightParams(a, b), 12)
    got = _oracle(float(a), float(b), indices, tol=tol)
    for m, value in zip(indices, got):
        assert abs(float(mu[m]) - value) <= tol, m


def test_quadrature_error_states_the_order_and_the_last_change():
    rough = lambda x, y: np.sign(x - 0.1)  # a jump: slow convergence
    with pytest.raises(quad.QuadratureError, match=r"at order 128 .*change was \d\.\d+e-\d+"):
        quad.triangle_quadrature(rough, tol=1e-14)


def test_rule_arrays_are_read_only():
    r = quad.rule(8, 0.3, 1.2)
    assert r.nodes.shape == (r.weights.size, 2)
    for arr in (r.nodes, r.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_pullback_weight_is_finite_at_the_rule_nodes():
    # no divide-by-zero: the weights are formed in the Duffy coordinates, so a
    # negative power of a sine that vanishes on an edge stays finite
    for a, b in [(-0.6, 0.3), (0.3, -0.7), (-0.9, 0.2)]:
        w = quad.rule(32, a, b).weights
        assert np.all(np.isfinite(w)) and np.all(w > 0)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6))
def test_sine_product_forms_of_sc_and_cs(u, v):
    # a point of the parameter triangle: t2 = v/2, t1 between t2 and 1 - t2
    t2 = v / 2
    t1 = t2 + (1 - 2 * t2) * u
    t = (t1, t2, -t1 - t2)
    sc = 4 / 3 * math.sin(math.pi * (t1 - t2) / 3) * math.sin(math.pi * (t2 - t[2]) / 3) \
        * math.sin(math.pi * (t[2] - t1) / 3)
    cs = 4 / 3 * math.sin(math.pi * t1) * math.sin(math.pi * t2) * math.sin(math.pi * t[2])
    assert sc == pytest.approx(trig("sc", make_index(1, 0), t), rel=1e-12)
    assert cs == pytest.approx(trig("cs", make_index(1, 1), t), rel=1e-12)
