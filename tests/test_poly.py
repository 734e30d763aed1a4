import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from g2cub.poly import BivarPoly, mdegree_of, signed_sum, star_key

from helpers import leading_star_term, star_cmp

HH = WeightParams(Fraction(1, 2), Fraction(1, 2))


def test_no_zero_terms_stored():
    p = BivarPoly({(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in p.coeffs
    q = p - p
    assert not q.coeffs and not q
    # a scalar product that underflows stores nothing
    r = BivarPoly({(1, 0): 1e-200, (0, 0): Fraction(1, 10**400)}) * 1e-200
    assert not r.coeffs and not r and r == BivarPoly.zero()


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
    key, coeff = leading_star_term(p)
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
    assert p ** np.int64(3) == p ** 3  # np.int64 once raised ValueError
    # the exponent goes through operator.index, as the constructor's do
    for bad in (0.5, 2.0, np.float64(2.0), Fraction(2)):
        with pytest.raises(TypeError):
            p ** bad
    for bad in (-1, np.int64(-1)):
        with pytest.raises(ValueError, match="nonnegative exponents, got -1"):
            p ** bad


@pytest.mark.parametrize("three", [3, np.int64(3), np.uint8(3), Fraction(3)], ids=repr)
def test_division_by_an_integer_scalar_is_exact(three):
    # np.int64(3) once gave the coefficient np.float64(0.3333333333333333)
    q = BivarPoly({(1, 0): Fraction(1), (0, 1): 2}) / three
    assert q.coeffs == {(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)}
    assert all(type(c) is Fraction for c in q.coeffs.values())
    assert (BivarPoly.x() / Fraction(-2, 3)).coeffs == {(1, 0): Fraction(-3, 2)}
    assert (BivarPoly.x() / 4.0).coeffs == {(1, 0): 0.25}


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
    assert integrate_poly(rule, q) == float(fraction_sum(q, zip(*rule.columns)))


@settings(max_examples=100, deadline=None)
@given(POLYS, POINT, POINT)
def test_exact_value_is_the_one_node_exact_sum(p, x, y):
    assert p.exact_value(x, y) == p.exact_sum([x], [y], [1.0]) == float(fraction_sum(p, [(x, y, 1)]))


NON_FINITE = (float("nan"), float("inf"), -float("inf"), np.float64("nan"))


@settings(max_examples=100, deadline=None)
@given(POLYS, st.sampled_from(["x", "y", "w"]), st.sampled_from(NON_FINITE), st.integers(0, 3))
def test_exact_sums_name_a_non_finite_input(p, column, bad, at):
    # nan once raised "cannot convert NaN to integer ratio" and inf an OverflowError
    cols = {"x": [0.1, 0.2, 0.3, 0.4], "y": [0.5, -0.5, 0.25, 0.0], "w": [1.0] * 4}
    cols[column][at] = bad
    with pytest.raises(ValueError, match=f"finite values, got {column} = {bad}"):
        p.exact_sum(cols["x"], cols["y"], cols["w"])
    if column != "w":
        x, y = (bad, 0.5) if column == "x" else (0.5, bad)
        with pytest.raises(ValueError, match=f"finite values, got {column} = {bad}"):
            p.exact_value(x, y)


@pytest.mark.parametrize("xs,ys,ws", [([0.5, 0.25], [0.125], [1.0, 1.0]),
                                      ([0.5], [0.125, 7.0], [1.0, 1.0]),
                                      ([0.5], [0.125], [])])
def test_an_exact_sum_refuses_columns_of_unequal_length(xs, ys, ws):
    # zip once cut the columns to the shortest: 0.625 and 7.625, with no error
    p = BivarPoly({(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match=f"one length, got {len(xs)} xs, {len(ys)} ys and {len(ws)} ws"):
        p.exact_sum(xs, ys, ws)


@given(POLYS)
def test_an_exact_sum_over_empty_columns_is_zero(p):
    # once "max() arg is an empty sequence"
    assert p.exact_sum([], [], []) == 0.0


@pytest.mark.parametrize("make", [
    lambda i, j: BivarPoly({(i, j): 1}),
    lambda i, j: BivarPoly({(0, 0): 2, (i, j): 0}),  # a zero coefficient is still checked
    lambda i, j: BivarPoly.monomial(i, j),
], ids=["dict", "zero-coefficient", "monomial"])
def test_exponents_are_nonnegative_integers(make):
    q = make(np.int64(2), np.int32(1))
    assert all(type(e) is int for key in q.coeffs for e in key)
    assert q == make(2, 1)
    # 1.5 was read as 1 and 2.9 as 2
    for i, j in ((1.5, 0), (2.9, 1), (2.0, 1), (0, Fraction(1))):
        with pytest.raises(TypeError):
            make(i, j)
    # a negative exponent once failed inside exact_value with "negative shift count"
    for i, j in ((-1, 0), (0, -2)):
        with pytest.raises(ValueError, match=re.escape(f"exponents must be nonnegative, got {(i, j)}")):
            make(i, j)


def test_integral_where_the_float_sum_loses_every_digit_is_exact():
    # the rule is exact at this degree and the integral is 0; a float
    # monomial sum at the nodes loses every digit, the exact sum does not
    rule, p = make_rule("gauss", 40), cheb_poly(HH, (12, 8))
    assert integrate_poly(rule, p) == float(fraction_sum(p, zip(*rule.columns))) == -5.061343694850985e-16
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
    assert integrate_poly(rule, q) == float(fraction_sum(same, zip(*rule.columns)))
    assert q.exact_value(0.1, 0.2) == float(2 + 3 * Fraction(0.1))
    assert continuous_inner(HH, q, q) == continuous_inner(HH, same, same)
    assert poly_to_json_dict(HH, (0, 0), q)["terms"] == [
        {"i": 0, "j": 0, "num": 2, "den": 1}, {"i": 1, "j": 0, "num": 3, "den": 1}]


def typed(coeffs):
    """The terms of a coefficient dict in storage order, with each
    coefficient's type and repr."""
    return [(e, type(c), repr(c)) for e, c in coeffs.items()]


def stored(p):
    return typed(p.coeffs)


SMALL_EXPONENTS = st.tuples(st.integers(0, 4), st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(SMALL_EXPONENTS, MIXED_COEFFS, max_size=8),
    st.dictionaries(SMALL_EXPONENTS, MIXED_COEFFS, max_size=8),
    st.data(),
    MIXED_COEFFS,
)
def test_subtraction_is_addition_of_the_negation_in_storage_order_and_bits(ac, bc, data, s):
    a = BivarPoly(ac)
    # some of a's terms copied into b, so that their difference cancels
    shared = data.draw(st.lists(st.sampled_from(sorted(ac)), unique=True) if ac else st.just([]))
    b = BivarPoly({**bc, **{e: ac[e] for e in shared}})
    assert all(e not in (a - b).coeffs for e in shared)
    pairs = [(a, b), (a, s), (s, a), (a, a)]
    if a.coeffs.get((0, 0)):
        pairs.append((a, a.coeffs[(0, 0)]))  # the constant term cancels
    for x, y in pairs:
        got, want = x - y, x + (-y)
        assert stored(got) == stored(want)
        assert repr(got) == repr(want)


# few keys and few values, so that sums cancel and keys are dropped and come
# back; a 1e-200 factor and coefficient, whose product underflows to zero
SMALL_COEFFS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)),
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2), 0.5, -0.5, 0.1, -0.3, 1e-200]),
    max_size=5,
)
FACTORS = st.sampled_from([1, -1, 1.0, -1.0, Fraction(1), 2, -2, 0, 0.0, -0.0, 0.75, -1.5,
                          Fraction(1, 3), 1e-200])


def _merged(terms):
    """The signed merge of terms (n, f) in plain dict loops: f_1 or its
    negation for n_1 = 1 or -1; then each later term with n != 0 scaled to
    c * |n| and added key by key, or subtracted where n < 0, a key dropped
    where its sum cancels.  A product that underflows to 0.0 is still added,
    so 3 + 0.0 stores 3.0 where the chained `BivarPoly` expression, whose
    scalar product stores no zero, keeps the int 3."""
    (n1, f1), *rest = terms
    out = {k: -c for k, c in f1.items()} if n1 < 0 else dict(f1)
    for n, f in rest:
        if not n:
            continue
        for k, c in f.items():
            v = c * abs(n)
            s = out.get(k, 0) - v if n < 0 else out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, -1]), SMALL_COEFFS, st.lists(st.tuples(FACTORS, SMALL_COEFFS), max_size=5))
@example(1, {(0, 0): 3}, [(1e-200, {(0, 0): 1e-200})])
@example(-1, {(0, 0): Fraction(1, 2)}, [(-1e-200, {(0, 0): 1e-200}), (-1e-200, {(1, 0): 1e-200})])
def test_signed_sum_is_the_signed_merge_in_key_order_type_and_bits(n1, f1, rest):
    terms = [(n1, BivarPoly(f1).coeffs)] + [(n, BivarPoly(f).coeffs) for n, f in rest]
    assert typed(signed_sum(terms)) == typed(_merged(terms))


# numpy scalars, and a 1e-200 whose products with 1e-200 underflow to zero
SCALARS = st.one_of(FACTORS, st.sampled_from([np.int64(-2), np.int64(3), np.float64(-0.5), 1e-200]))
SCALAR_COEFFS = st.dictionaries(
    SMALL_EXPONENTS,
    st.sampled_from([1, -2, Fraction(-3, 2), 0.1, -0.3, np.int64(-3), np.float64(0.25), 1e-200]),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(SCALAR_COEFFS, SCALARS)
def test_negation_and_scalar_products_are_termwise_in_key_order_type_and_bits(coeffs, s):
    p = BivarPoly(coeffs)
    assert stored(-p) == typed({k: -c for k, c in p.coeffs.items()})
    assert stored(p * s) == typed({k: v for k, c in p.coeffs.items() if (v := c * s)})


def _term_by_term(p, x, y):
    """p(x, y) on Python floats: (float(c) x^i) y^j added in storage order,
    with x^i and y^j by repeated multiplication."""
    total = 0.0
    for (i, j), c in p.coeffs.items():
        xi, yj = 1.0, 1.0
        for _ in range(i):
            xi *= x
        for _ in range(j):
            yj *= y
        total += float(c) * xi * yj
    return total


@settings(max_examples=50, deadline=None)
@given(POLYS, st.lists(st.tuples(POINT, POINT), min_size=1, max_size=8))
def test_calls_give_the_bits_of_the_term_by_term_float_sum(p, points):
    want = np.array([_term_by_term(p, x, y) for x, y in points])
    xs, ys = (np.array(c) for c in zip(*points))
    assert p(xs, ys).tobytes() == want.tobytes()
    x, y = points[0]
    assert type(p(x, y)) is float and np.float64(p(x, y)).tobytes() == want[0].tobytes()
