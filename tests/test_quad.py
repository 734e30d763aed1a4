import copy
import math
import pickle
import re
import warnings
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from g2cub.sturm import eigenvalue, jacobi_poly, moments, monomial_image


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
        assert w[i] == pytest.approx(expect, rel=1e-12, abs=0)


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
        got = continuous_inner(p, lambda u, v: f(u, v), lambda u, v: 1.0)
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


@pytest.mark.parametrize("a,b", [(1e3, 0), (1e5, 0), (1e300, 1e300)])
@pytest.mark.parametrize("order", [8, 32])
def test_rule_refuses_weights_outside_the_float_range(a, b, order):
    # the weights underflow to 0 at (1e3, 0), overflow at (1e5, 0), and the
    # Jacobi matrices overflow at (1e300, 1e300): no nan weight, no numpy
    # RuntimeWarning and no LinAlgError, but a ValueError naming the pair
    quad.rule.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"order-{order} rule at parameters ({a}, {b}) has weights outside the float range")):
            quad.rule(order, a, b)


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


@settings(max_examples=25, deadline=None)
@given(INTEGRABLE)
@example((-0.6, 0.3))
@example((0.3, -0.7))
@example((-0.9, 0.2))
def test_callable_moments_meet_tol_over_the_integrable_range(ab):
    # INTEGRABLE stops at 3: past about alpha or beta = 33 the Golub-Welsch
    # weights themselves miss tol, on any order schedule
    tol = 1e-12
    indices = star_indices_upto(12)
    mu = moments(WeightParams(*ab), 12)
    got = _oracle(*ab, indices, tol=tol)
    for m, value in zip(indices, got):
        assert abs(float(mu[m]) - value) <= tol, (ab, m)


def test_orders_step_by_at_most_half_and_keep_every_doubling():
    orders = quad.ORDERS
    assert orders[0] == 8 and orders[-1] == quad.ORDER_CAP == 128
    assert {8 * 2 ** k for k in range(5)} <= set(orders)
    for low, high in zip(orders, orders[1:]):
        assert low < high <= 1.5 * low, orders


def test_a_callable_integral_converged_at_order_16_builds_no_higher_order(monkeypatch):
    # at the general-params pairs every inner product of two members through
    # weighted degree 12 by quadrature of callables agrees with the exact sum
    # over the moments; order 16 already meets tol (24 for some members with
    # k2 >= 3 at (-0.4, 0.7)), and a doubling step built order 32 only to confirm it
    built, rule = [], quad.rule

    def recording(order, alpha, beta):
        built.append(order)
        return rule(order, alpha, beta)

    monkeypatch.setattr(quad, "rule", recording)
    for ab, top in (((0.3, 1.2), 16), ((-0.4, 0.7), 24), ((0.17, -0.23), 16)):
        built.clear()
        p = WeightParams(*ab)
        for ki, kj in combinations_with_replacement(star_indices_upto(12), 2):
            f, g = jacobi_poly(p, ki), jacobi_poly(p, kj)
            got = continuous_inner(p, lambda x, y: f(x, y), lambda x, y: g(x, y))
            scale = 1 + sum(abs(c) for c in (f * g).coeffs.values())
            assert abs(got - continuous_inner(p, f, g)) <= quad.DEFAULT_TOL * scale, (ab, ki, kj)
        assert built and max(built) <= top, (ab, built)


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
    # both sides vanish at the edges, where the sum of unit-size exponentials
    # keeps only an absolute error of a few ulps of 1 (worst seen 5.8e-16)
    assert sc == pytest.approx(trig("sc", make_index(1, 0), t), rel=1e-12, abs=2e-15)
    assert cs == pytest.approx(trig("cs", make_index(1, 1), t), rel=1e-12, abs=2e-15)


def _nodes_built_per_call(order, alpha, beta):
    """`quad._nodes` as it was before its Duffy geometry was made once:
    the geometry rebuilt on every call, and 1 - s and r s formed again for
    each of the six factors."""
    quad._require_integrable(alpha, beta)
    V = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]], 2, axis=0)
    A, B = (V[[2, 4, 0, 4, 0, 2]] - V) / 2.0, np.array([0.5, 1.0 / 6.0]) - V
    area2 = np.abs(A[:, :1] * B[:, 1:] - A[:, 1:] * B[:, :1])
    lv, la, lb = ((u[:, None] * np.array(quad._L)).sum(-1) for u in (V, A, B))
    at_v = lv == np.round(lv)
    on_e = at_v & (la == 0.0)
    lv[at_v] = 0.0
    expo = np.repeat([2.0 * float(alpha) + 1.0, 2.0 * float(beta) + 1.0], 3)
    uses = np.concatenate(((at_v * expo).sum(1) + 1.0, (on_e * expo).sum(1))).tolist()
    exponents = list(dict.fromkeys(uses))
    nodes, weights = quad._gauss_jacobi(order, np.array(exponents))
    use = [exponents.index(b) for b in uses]
    (r, s), (wr, ws) = np.split(nodes[use], 2), np.split(weights[use], 2)
    w = (wr[:, :, None] * ws[:, None, :]).reshape(6, -1) * area2
    r, s = np.repeat(r, order, axis=1), np.tile(s, order)
    sines = [1.0, 1.0]
    for f in range(6):
        lt = lv[:, f, None] + r * ((1 - s) * la[:, f, None] + s * lb[:, f, None])
        den = np.where(on_e[:, f, None], r * s, np.where(at_v[:, f, None], r, 1.0))
        sines[f // 3] = sines[f // 3] * np.sin(np.pi * lt) / den
    w = w * (4.0 / 3.0) ** (expo[0] + expo[3])
    w = w * np.abs(sines[0]) ** expo[0] * np.abs(sines[1]) ** expo[3]
    t1, t2 = (V[:, i, None] + r * ((1 - s) * A[:, i, None] + s * B[:, i, None]) for i in (0, 1))
    return t1.ravel(), t2.ravel(), w.ravel()


@settings(max_examples=20, deadline=None)
@given(INTEGRABLE, st.sampled_from([8, 16, 32]))
def test_rule_is_bit_equal_to_the_geometry_built_per_call(ab, order):
    t1, t2, w = _nodes_built_per_call(order, *ab)
    for got, want in zip(quad._nodes(order, *ab), (t1, t2, w)):
        assert got.tobytes() == want.tobytes()
    rule = quad.rule(order, *ab)
    assert rule.weights.tobytes() == (w / w.sum()).tobytes()
    assert rule.nodes.tobytes() == np.array(xy_map((t1, t2, -t1 - t2))).T.tobytes()


def test_duffy_geometry_is_read_only():
    for array in quad._geometry():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_a_rule_is_immutable_and_pickles_and_deep_copies_with_read_only_arrays():
    rule = quad.rule(8, 0.3, 1.2)
    assert repr(rule) == f"Rule(nodes={rule.nodes!r}, weights={rule.weights!r})"
    with pytest.raises(AttributeError):
        rule.weights = rule.weights
    for copied in (pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule)):
        assert type(copied) is quad.Rule and copied != rule  # a rule equals only itself
        for got, want in ((copied.nodes, rule.nodes), (copied.weights, rule.weights)):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
