from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2cub.chebyshev import (
    WeightParams,
    cheb_eval_trig,
    cheb_poly,
    continuous_inner,
    poly_to_json_dict,
    xy_map,
)
from g2cub.coords import make_point
from g2cub.cubature import RULE_KINDS, integrate_poly, make_rule
from g2cub.poly import BivarPoly, mdegree_of, star_cmp, star_key

HH = WeightParams(Fraction(1, 2), Fraction(1, 2))


def test_no_zero_terms_stored():
    p = BivarPoly({(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in p.coeffs
    q = p - p
    assert not q.coeffs and not q


def test_arithmetic_exact():
    x = BivarPoly.x()
    y = BivarPoly.y()
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p + 1) - 1 == p
    assert 2 * p == p * 2
    assert (6 * p) / 6 == p
    assert isinstance(((6 * p) / 6).coeffs[(2, 0)], Fraction)


def test_differentiation():
    p = BivarPoly({(2, 1): Fraction(3), (0, 1): Fraction(5)})
    assert p.diff_x() == BivarPoly({(1, 1): Fraction(6)})
    assert p.diff_y() == BivarPoly({(2, 0): Fraction(3), (0, 0): Fraction(5)})
    assert BivarPoly.constant(Fraction(7)).diff_x() == BivarPoly.zero()


def test_mdegree():
    assert mdegree_of((2, 1)) == 7
    p = BivarPoly({(3, 0): 1, (0, 2): 1})
    assert p.mdegree() == 6
    assert BivarPoly.zero().mdegree() == 0


def test_star_order_examples():
    assert star_cmp((1, 0), (0, 1)) == -1
    assert star_cmp((3, 0), (0, 2)) == -1
    assert star_cmp((2, 0), (2, 0)) == 0
    assert star_cmp((0, 2), (3, 0)) == 1


def test_leading_star_term():
    p = BivarPoly({(3, 0): Fraction(2), (0, 2): Fraction(5), (1, 1): Fraction(1)})
    key, coeff = p.leading_star_term()
    assert key == (0, 2) and coeff == 5


@given(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
)
def test_star_order_is_total(a, b, c):
    # antisymmetry and transitivity through the sort key
    assert star_cmp(a, b) == -star_cmp(b, a)
    if star_cmp(a, b) <= 0 and star_cmp(b, c) <= 0:
        assert star_cmp(a, c) <= 0
    if star_cmp(a, b) == 0:
        assert a == b


def test_star_grading_refines_mdegree():
    assert star_key((4, 1)) < star_key((1, 3))  # degrees 11 = 11, larger x first
    assert star_key((1, 2)) < star_key((4, 1))  # degree 8 before 11


def test_power():
    p = BivarPoly({(1, 0): Fraction(2), (0, 1): Fraction(-1), (0, 0): Fraction(3)})
    assert p ** 0 == BivarPoly.constant(1)
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    for bad in (-1, 0.5):
        with pytest.raises(ValueError):
            p ** bad


def test_evaluation():
    p = BivarPoly({(2, 0): Fraction(6), (1, 0): Fraction(-2), (0, 1): Fraction(-2), (0, 0): Fraction(-1)})
    assert p(0.0, 0.0) == pytest.approx(-1.0)
    assert p(1.0, 1.0) == pytest.approx(1.0)


def test_evaluation_on_arrays():
    p = BivarPoly({(1, 1): Fraction(3), (0, 0): Fraction(1)})
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([1.0, 1.0, 0.5])
    assert np.allclose(p(xs, ys), [1.0, 4.0, 4.0])
    # a constant and the zero polynomial take the broadcast shape
    assert BivarPoly.constant(2.0)(xs, 0.5).tolist() == [2.0, 2.0, 2.0]
    zero = BivarPoly.zero()(xs[:, None], ys)
    assert zero.shape == (3, 3) and not zero.any()
    assert BivarPoly.zero()(0.3, 0.4) == 0.0


# weighted degree at most 30, so |x|^i |y|^j stays far from underflow for
# |x|, |y| >= 1e-6
EXPONENTS = st.tuples(st.integers(0, 15), st.integers(0, 10)).filter(lambda e: mdegree_of(e) <= 30)
COEFFS = st.fractions(-1000, 1000, max_denominator=1000).filter(bool)
POINT = st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
POLYS = st.dictionaries(EXPONENTS, COEFFS, max_size=25).map(BivarPoly)


@settings(max_examples=50, deadline=None)
@given(POLYS, st.lists(st.tuples(POINT, POINT), min_size=1, max_size=8))
def test_scalar_and_array_calls_give_the_same_bits(p, points):
    xs, ys = (np.array(c) for c in zip(*points))
    got = p(xs, ys)
    assert got.shape == xs.shape
    assert got.tobytes() == np.array([p(x, y) for x, y in points]).tobytes()


@settings(max_examples=50, deadline=None)
@given(POLYS, st.lists(POINT, min_size=1, max_size=5), st.lists(POINT, min_size=1, max_size=4))
def test_calls_on_crossed_axes_give_the_bits_of_the_scalar_loop(p, xs, ys):
    # x of shape (N, 1) and y of shape (1, M): every term broadcasts to (N, M)
    got = p(np.array(xs)[:, None], np.array(ys)[None, :])
    assert got.shape == (len(xs), len(ys))
    assert got.tobytes() == np.array([[p(x, y) for y in ys] for x in xs]).tobytes()


def fraction_sum(p, triples):
    """The Fraction oracle: sum of w * p(x, y) over (x, y, w) at the binary
    values of the floats."""
    return sum(Fraction(w) * sum(Fraction(c) * Fraction(x) ** i * Fraction(y) ** j
                                 for (i, j), c in p.coeffs.items())
               for x, y, w in triples)


MIXED_COEFFS = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=40),
    st.floats(min_value=-20, max_value=20),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RULE_KINDS), st.integers(1, 8),
       st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 5)), MIXED_COEFFS, max_size=10))
def test_integrate_poly_is_the_exact_rule_sum_rounded_once(kind, n, coeffs):
    rule, q = make_rule(kind, n), BivarPoly(coeffs)
    assert integrate_poly(rule, q) == float(fraction_sum(q, rule.triples))


@settings(max_examples=100, deadline=None)
@given(POLYS, POINT, POINT)
def test_exact_value_is_the_one_node_exact_sum(p, x, y):
    assert p.exact_value(x, y) == p.exact_sum([(x, y, 1.0)]) == float(fraction_sum(p, [(x, y, 1)]))


def test_integral_where_the_float_sum_loses_every_digit_is_exact():
    # the rule is exact at this degree and the integral is 0; a float
    # monomial sum at the nodes loses every digit, the exact sum does not
    rule, p = make_rule("gauss", 40), cheb_poly(HH, (12, 8))
    assert integrate_poly(rule, p) == float(fraction_sum(p, rule.triples)) == -5.061343694850985e-16
    assert integrate_poly(rule, cheb_poly(HH, (3, 2))) == pytest.approx(0.0, abs=1e-14)


def test_trig_fallback_sums_the_polynomial_exactly():
    # 1e-9 from the edge t1 = t2 the denominator is below DENOM_FALLBACK;
    # a float monomial sum there gives 65.61 where the exact value is 13.92
    t = make_point(0.3 + 1e-9, 0.3)
    x, y = xy_map(t)
    assert cheb_eval_trig(HH, (20, 10), t) == cheb_poly(HH, (20, 10)).exact_value(x, y)
    assert cheb_eval_trig(HH, (20, 10), t) == 13.917961528633175
    assert cheb_eval_trig(HH, (3, 2), t) == cheb_poly(HH, (3, 2)).exact_value(x, y)


def test_numpy_integer_coefficients_are_exact_rationals():
    q = BivarPoly.constant(1) * np.int64(2) + BivarPoly.monomial(1, 0) * np.int64(3)
    same = BivarPoly({(0, 0): 2, (1, 0): 3})
    rule = make_rule("gauss", 4)
    assert integrate_poly(rule, q) == float(fraction_sum(same, rule.triples))
    assert q.exact_value(0.1, 0.2) == float(2 + 3 * Fraction(0.1))
    assert continuous_inner(HH, q, q) == continuous_inner(HH, same, same)
    assert poly_to_json_dict(HH, (0, 0), q)["terms"] == [
        {"i": 0, "j": 0, "num": 2, "den": 1}, {"i": 1, "j": 0, "num": 3, "den": 1}]
