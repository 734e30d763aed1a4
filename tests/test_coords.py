import math

import pytest
from hypothesis import given, strategies as st

from g2cub.coords import (
    A2,
    A2_STAR,
    G2,
    HexIndex,
    cart_to_homog,
    compose,
    hat,
    in_fundamental_triangle,
    make_index,
    make_point,
    orbit,
)


def test_make_point_examples():
    assert make_point(0, 0) == (0.0, 0.0, 0.0)
    assert make_point(1, 0) == (1.0, 0.0, -1.0)
    assert make_point(0.6, 0.2) == (0.6, 0.2, -0.8)


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
    assert image.is_congruent_mod3()


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
