import math

import numpy as np
import pytest

from g2cub.coords import HexIndex, hat, make_index, make_point, point_from_index
from g2cub.gentrig import TrigFamily, eval as trig, phi
from g2cub.lattice import (
    dim_pi_star,
    discrete_ortho_constant,
    enum_H,
    enum_gamma,
    enum_upsilon,
    hex_cubature,
    triangle_discrete_inner,
    upsilon_weight,
)


def brute_force_dim(n):
    return sum(1 for i in range(n + 1) for j in range(n + 1) if 2 * i + 3 * j <= n)


@pytest.mark.parametrize("n,count", [(9, 91), (10, 109), (11, 133)])
def test_enum_H_cardinality(n, count):
    h, hdag = enum_H(n)
    assert len(h) == count
    assert len(hdag) == count


def test_enum_H_membership():
    h, hdag = enum_H(6)
    assert all(sum(j) == 0 and j.is_congruent_mod3() for j in h)
    assert all(sum(k) == 0 for k in hdag)


def test_hat_maps_between_lattices():
    for n in range(1, 13):
        h, hdag = enum_H(n)
        hset = set(h)
        dagset = set(hdag)
        for k in hdag:
            assert hat(k) in hset
        for j in h:
            kj = hat(j)
            third = HexIndex(kj[0] // 3, kj[1] // 3, kj[2] // 3)
            assert all(c % 3 == 0 for c in kj)
            assert third in dagset


def test_upsilon_classification():
    nodes3 = {node.j: node for node in enum_upsilon(3)}
    assert nodes3[HexIndex(0, 0, 0)].weight == 1
    assert nodes3[HexIndex(3, 0, -3)].weight == 2
    nodes4 = {node.j: node for node in enum_upsilon(4)}
    assert nodes4[HexIndex(2, 2, -4)].weight == 3
    assert nodes4[HexIndex(2, 2, -4)].cls == "vertex90"
    # (1,1,-2)/4 sits on the t1 = t2 edge
    assert nodes4[HexIndex(1, 1, -2)].cls == "edge"
    nodes6 = {node.j: node for node in enum_upsilon(6)}
    assert nodes6[HexIndex(4, 1, -5)].cls == "interior"
    assert nodes6[HexIndex(4, 1, -5)].weight == 12


def test_upsilon_vertex90_only_even():
    assert not any(node.cls == "vertex90" for node in enum_upsilon(5))
    assert any(node.cls == "vertex90" for node in enum_upsilon(6))


def test_upsilon_weight_via_orbit():
    # hatted indices land outside the fundamental wedge; the weight lookup
    # goes through the orbit representative
    assert upsilon_weight(HexIndex(-3, 3, 0), 3) == 2
    assert upsilon_weight(HexIndex(0, 0, 0), 4) == 1
    assert upsilon_weight(HexIndex(-1, -1, 2), 4) == 6
    assert upsilon_weight(HexIndex(-4, -1, 5), 6) == 12


def test_weight_sum_is_one():
    for n in range(1, 13):
        total = sum(node.weight for node in enum_upsilon(n)) / n ** 2
        assert total == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize(
    "family,n,count",
    [("cc", 6, 7), ("ss", 6, 1), ("sc", 3, 1), ("cs", 3, 1)],
)
def test_gamma_cardinalities(family, n, count):
    assert len(enum_gamma(family, n)) == count


def test_gamma_members():
    assert list(enum_gamma("ss", 6)) == [HexIndex(2, 1, -3)]
    assert list(enum_gamma("sc", 3)) == [HexIndex(1, 0, -1)]


@pytest.mark.parametrize("family", list(TrigFamily))
def test_first_gamma_member_is_the_family_shift(family):
    assert enum_gamma(family, 6).members[0] == family.shift


def test_gamma_shift_identities():
    for n in range(1, 16):
        cc = len(enum_gamma("cc", n))
        assert cc == dim_pi_star(n)
        assert len(enum_gamma("sc", n)) == len(enum_gamma("cs", n))
        if n >= 4:
            assert len(enum_gamma("sc", n)) == len(enum_gamma("cc", n - 3))
        if n >= 7:
            assert len(enum_gamma("ss", n)) == len(enum_gamma("cc", n - 6))
        assert len(enum_upsilon(n)) == cc


@pytest.mark.parametrize("n,expect", [(1, 1), (6, 7), (12, 19)])
def test_dim_pi_star_table(n, expect):
    assert dim_pi_star(n) == expect


def test_dim_pi_star_against_brute_force():
    for n in range(61):
        assert dim_pi_star(n) == brute_force_dim(n)


def test_hex_cubature_constant():
    for n in (3, 4, 5, 8):
        assert hex_cubature(lambda t: 1.0, n) == pytest.approx(1.0, abs=1e-13)


def test_hex_cubature_plane_waves():
    # mean of a nonconstant wave is 0, aliased waves integrate to 1
    n = 4
    value = hex_cubature(lambda t: phi(make_index(1, 0), t), n)
    assert abs(value) <= 1e-12
    aliased = make_index(n, n)  # hatted index is (-3n, 3n, 0)
    value = hex_cubature(lambda t: phi(aliased, t), n)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_hex_cubature_exact_on_band():
    for n in (3, 4):
        _, kdag = enum_H(2 * n - 1)
        for k in kdag:
            expect = 1.0 if all(c % (3 * n) == 0 for c in hat(k)) else 0.0
            value = hex_cubature(lambda t: phi(k, t), n)
            assert abs(value - expect) <= 1e-12


def _counted(f, calls):
    def wrapped(t):
        calls.append(t)
        return f(t)

    return wrapped


def test_lattice_sums_call_each_function_once_on_node_arrays():
    n = 6
    calls = []
    k = make_index(2, 1)
    value = hex_cubature(_counted(lambda t: phi(k, t), calls), n)
    assert abs(value) <= 1e-12
    value = triangle_discrete_inner(
        _counted(lambda t: trig("ss", k, t), calls),
        _counted(lambda t: trig("ss", k, t), calls),
        n,
    )
    assert value == pytest.approx(1.0 / 12.0, abs=1e-12)
    sizes = (len(enum_H(n)[0]), len(enum_upsilon(n)), len(enum_upsilon(n)))
    assert len(calls) == 3
    for t, size in zip(calls, sizes):
        assert all(isinstance(c, np.ndarray) and c.shape == (size,) for c in t)


def test_discrete_inner_constant():
    one = lambda t: 1.0
    assert triangle_discrete_inner(one, one, 5) == pytest.approx(1.0, abs=1e-13)


def test_discrete_orthogonality_small():
    n = 6
    fam = TrigFamily.CC
    gamma = list(enum_gamma(fam, n))
    for a, ka in enumerate(gamma):
        for kb in gamma[a:]:
            value = triangle_discrete_inner(
                lambda t, ka=ka: trig(fam, ka, t),
                lambda t, kb=kb: trig(fam, kb, t),
                n,
            )
            if ka == kb:
                assert value == pytest.approx(discrete_ortho_constant(fam, ka, n), abs=1e-12)
            else:
                assert value == pytest.approx(0.0, abs=1e-12)


def test_discrete_ss_norm_is_twelfth():
    n = 8
    for k in enum_gamma("ss", n):
        value = triangle_discrete_inner(
            lambda t: trig("ss", k, t), lambda t: trig("ss", k, t), n
        )
        assert value == pytest.approx(1.0 / 12.0, abs=1e-12)
