from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from g2cub.poly import BivarPoly, mdegree_of, star_cmp, star_key


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
    np = pytest.importorskip("numpy")
    p = BivarPoly({(1, 1): Fraction(3), (0, 0): Fraction(1)})
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([1.0, 1.0, 0.5])
    assert np.allclose(p(xs, ys), [1.0, 4.0, 4.0])
