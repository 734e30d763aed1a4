import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from g2cub.coords import (
    A2,
    A2_STAR,
    G2,
    IDENTITY,
    GroupElem,
    HexIndex,
    hat,
    make_index,
    make_point,
    point_from_index,
)

from helpers import cart_to_homog, compose, in_fundamental_triangle, orbit


def test_make_point_examples():
    assert make_point(0, 0) == (0.0, 0.0, 0.0)
    assert make_point(1, 0) == (1.0, 0.0, -1.0)
    assert make_point(0.6, 0.2) == (0.6, 0.2, -0.8)


def test_make_index_takes_integers_only():
    k = make_index(np.int64(2), 1)
    assert k == (2, 1, -3) and all(type(c) is int for c in k)
    # a fraction used to be dropped: (1.5, 0.7) gave (1, 0, -1)
    for k1, k2 in ((1.5, 0.7), (2.0, 1), (1, Fraction(1, 2))):
        with pytest.raises(TypeError):
            make_index(k1, k2)


def test_point_from_index_takes_an_integer_n_of_at_least_one():
    want = point_from_index((3, 1, -4), 4)
    got = point_from_index((3, 1, -4), np.int64(4))
    assert got == want == (0.75, 0.25, -1.0) and all(type(c) is float for c in got)
    # 4.5 once gave a point and 0 a ZeroDivisionError
    for n in (4.5, 4.0, Fraction(4), float("nan")):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            point_from_index((3, 1, -4), n)
    for n in (0, -4, np.int64(0)):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            point_from_index((3, 1, -4), n)


def test_cart_to_homog_examples():
    assert cart_to_homog(0, 0) == (0.0, 0.0, 0.0)
    t = cart_to_homog(0, 1)
    assert t == pytest.approx((-0.5, 1.0, -0.5))
    t = cart_to_homog(2 / math.sqrt(3), 0)
    assert t == pytest.approx((1.0, 0.0, -1.0))


def test_group_has_twelve_distinct_elements():
    assert len({(g.sign, g.perm) for g in G2}) == 12
    assert len(A2) == 6 and len(A2_STAR) == 6
    # parity is preserved under negation
    by_perm = {}
    for g in G2:
        by_perm.setdefault(g.perm, set()).add(g.parity)
    assert all(len(p) == 1 for p in by_perm.values())


def test_sigma1_action():
    s1 = next(g for g in G2 if g.name == "s1")
    assert s1.apply(make_point(1, 0)) == (-1.0, 1.0, 0.0)


def test_negation_action():
    neg = next(g for g in G2 if g.name == "-1")
    assert neg.apply(make_point(1, 0)) == (-1.0, 0.0, 1.0)


def test_identity_action():
    ident = next(g for g in G2 if g.name == "1")
    t = make_point(0.3, 0.1)
    assert ident.apply(t) == t


def test_s3_is_s1_s2_s1():
    s1 = next(g for g in G2 if g.name == "s1")
    s2 = next(g for g in G2 if g.name == "s2")
    s3 = next(g for g in G2 if g.name == "s3")
    assert compose(compose(s1, s2), s1) == s3


def test_group_closure():
    for g in G2:
        for h in G2:
            assert compose(g, h) in G2


@given(st.floats(-2, 2), st.floats(-2, 2))
def test_sum_zero_preserved(t1, t2):
    t = make_point(t1, t2)
    for g in G2:
        image = g.apply(t)
        assert abs(image[0] + image[1] + image[2]) <= 1e-14 * max(1.0, abs(t1), abs(t2))


def test_hat_examples():
    assert hat(make_index(0, 0)) == (0, 0, 0)
    assert hat(HexIndex(3, 0, -3)) == (-3, 6, -3)
    assert hat(HexIndex(1, 0, -1)) == (-1, 2, -1)


@given(st.integers(-9, 9), st.integers(-9, 9))
def test_hat_lands_in_congruent_lattice(k1, k2):
    k = make_index(k1, k2)
    image = hat(k)
    assert sum(image) == 0
    assert image.k1 % 3 == image.k2 % 3 == image.k3 % 3  # all three components agree mod 3


def test_orbit_sizes():
    assert orbit(make_index(0, 0)) == {HexIndex(0, 0, 0)}
    assert len(orbit(make_index(1, 0))) == 6
    assert len(orbit(make_index(1, 1))) == 6
    assert len(orbit(make_index(2, 1))) == 12


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_orbit_size_divides_twelve(k1, k2):
    size = len(orbit(make_index(k1, k2)))
    assert size in (1, 6, 12)


def test_fundamental_triangle_membership():
    assert in_fundamental_triangle(make_point(0, 0))
    assert in_fundamental_triangle(make_point(0.5, 0.5))
    assert not in_fundamental_triangle(make_point(0, 1))
    assert in_fundamental_triangle(make_point(1, 0))
    assert not in_fundamental_triangle(make_point(1.01, 0))


def test_a2_star_is_the_rotations_and_the_negated_reflections():
    oracle = {
        IDENTITY,
        GroupElem(+1, (0, 2, 1), -1, "-s1"),
        GroupElem(+1, (1, 0, 2), -1, "-s2"),
        GroupElem(+1, (2, 1, 0), -1, "-s3"),
        GroupElem(+1, (2, 0, 1), +1, "s1s2"),
        GroupElem(+1, (1, 2, 0), +1, "s2s1"),
    }
    assert len(A2_STAR) == 6 and set(A2_STAR) == oracle
