from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2cub.chebyshev import WeightParams, cheb_eval_trig, cheb_poly, xy_map
from g2cub.coords import make_point
from g2cub.cubature import integrate_poly, make_rule
from g2cub.poly import EVAL_REL_BOUND, BivarPoly, EvaluationError, mdegree_of, star_cmp, star_key

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
# |x|, |y| >= 1e-6 and the bound's relative rounding model holds
EXPONENTS = st.tuples(st.integers(0, 15), st.integers(0, 10)).filter(lambda e: mdegree_of(e) <= 30)
COEFFS = st.fractions(-1000, 1000, max_denominator=1000).filter(bool)
POINT = st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
POLYS = st.dictionaries(EXPONENTS, COEFFS, max_size=25).map(BivarPoly)


def exact_value(p, x, y):
    X, Y = Fraction(x), Fraction(y)
    return sum(c * X ** i * Y ** j for (i, j), c in p.coeffs.items())


@settings(max_examples=200, deadline=None)
@given(POLYS, POINT, POINT)
def test_error_bound_covers_the_float_value(p, x, y):
    value, bound = p(x, y), p.error_bound(x, y)
    assert type(value) is float and type(bound) is float
    assert abs(Fraction(value) - exact_value(p, x, y)) <= Fraction(bound)


@settings(max_examples=50, deadline=None)
@given(POLYS, st.lists(st.tuples(POINT, POINT), min_size=1, max_size=8))
def test_scalar_and_array_calls_give_the_same_bits(p, points):
    xs, ys = (np.array(c) for c in zip(*points))
    for got, scalar in ((p(xs, ys), [p(x, y) for x, y in points]),
                        (p.error_bound(xs, ys), [p.error_bound(x, y) for x, y in points])):
        assert got.shape == xs.shape
        assert got.tobytes() == np.array(scalar).tobytes()


def test_error_bound_of_a_family_member():
    # (N + d) 2^-53 times the absolute-coefficient polynomial at (|x|, |y|)
    p = cheb_poly(HH, (3, 2))
    x, y = -0.3, 0.2
    scale = sum(abs(c) * abs(x) ** i * abs(y) ** j for (i, j), c in p.coeffs.items())
    n, d = len(p.coeffs), p.mdegree()
    assert p.error_bound(x, y) == pytest.approx((n + d) * 2.0 ** -53 * float(scale), rel=1e-14)
    assert BivarPoly.zero().error_bound(x, y) == 0.0


def test_integral_past_the_evaluation_bound_raises():
    # the rule is exact at this degree and the integral is 0, but the
    # float monomial sum at the nodes loses every digit
    rule, p = make_rule("gauss", 40), cheb_poly(HH, (12, 8))
    with pytest.raises(EvaluationError, match="gauss n=40"):
        integrate_poly(rule, p)
    assert integrate_poly(rule, cheb_poly(HH, (3, 2))) == pytest.approx(0.0, abs=1e-14)


def test_trig_fallback_past_the_evaluation_bound_raises():
    # 1e-9 from the edge t1 = t2 the denominator is below DENOM_FALLBACK;
    # the monomial sum gives 65.61 where the exact value is 13.92
    t = make_point(0.3 + 1e-9, 0.3)
    with pytest.raises(EvaluationError, match=r"\(20, 10\)"):
        cheb_eval_trig(HH, (20, 10), t)
    x, y = xy_map(t)
    p = cheb_poly(HH, (3, 2))
    assert p.error_bound(x, y) <= EVAL_REL_BOUND
    assert cheb_eval_trig(HH, (3, 2), t) == p(x, y)
    assert issubclass(EvaluationError, ArithmeticError)
