import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from g2cub.coords import HexIndex, hat, make_index, make_point, point_from_index
from g2cub.gentrig import TrigFamily, eval as trig
from g2cub.lattice import (
    dim_pi_star,
    discrete_ortho_constant,
    enum_gamma,
    enum_upsilon,
    upsilon_weight,
)

from helpers import enum_H, hex_cubature, phi, triangle_discrete_inner


# reference implementation: nested loops over scalar integer predicates


def oracle_H(n):
    h, hdag = [], []
    for k1 in range(-n, n + 1):
        for k2 in range(-n, n + 1):
            k3 = -k1 - k2
            if -n <= k3 <= n and k1 % 3 == k2 % 3 == k3 % 3:
                h.append([k1, k2, k3])
            if -n <= k3 - k2 <= n and -n <= k1 - k3 <= n and -n <= k2 - k1 <= n:
                hdag.append([k1, k2, k3])
    return sorted(h), sorted(hdag)


def oracle_class_weight(j, n):
    # weight of a node of the fundamental triangle, by its class
    j1, j2, j3 = j
    if j1 == 0 and j2 == 0:
        return 1  # 30 degree vertex
    if j1 == n and j2 == 0:
        return 2  # 60 degree vertex
    if 2 * j1 == n and 2 * j2 == n:
        return 3  # 90 degree vertex
    if 0 < j2 < j1 < -j3 < n:
        return 12  # interior
    return 6  # edge


def oracle_weight(j, n):
    # through the orbit representative on the fundamental triangle
    a, b, c = sorted(j, reverse=True)
    rep = (a, b, c) if b >= 0 else (-c, -b, -a)
    return oracle_class_weight(rep, n)


def oracle_upsilon(n):
    nodes = []
    for j1 in range(0, n + 1):
        for j2 in range(0, j1 + 1):
            j3 = -j1 - j2
            if -j3 <= n and j1 % 3 == j2 % 3 == j3 % 3:
                nodes.append([j1, j2, j3])
    return sorted(nodes)


def oracle_gamma(family, n):
    d, p = TrigFamily.of(family).sines
    members = []
    for k1 in range(0, n + 1):
        for k2 in range(p, k1 - d + 1):
            k3 = -k1 - k2
            if k1 + d <= k3 + n:
                members.append([k1, k2, k3])
    return members


# the box-and-mask oracle: every sum-zero triple of a square box in
# lexicographic order, then one exact integer mask


def box(lo, hi):
    k1, k2 = np.divmod(np.arange((hi - lo + 1) ** 2, dtype=np.int64), hi - lo + 1)
    return np.stack((k1 + lo, k2 + lo, -k1 - k2 - 2 * lo), axis=1)


def masked_upsilon(n):
    j = box(0, n)
    j1, j2, j3 = j.T
    return j[(j2 <= j1) & (-j3 <= n) & ((j1 - j2) % 3 == 0)]


def masked_gamma(family, n):
    d, p = TrigFamily.of(family).sines
    k = box(0, n)
    k1, k2, k3 = k.T
    return k[(p <= k2) & (k2 + d <= k1) & (k1 + d <= k3 + n)]


def masked_H(n):
    k = box(-n, n)
    k1, k2, k3 = k.T
    h = (np.abs(k3) <= n) & ((k1 - k2) % 3 == 0)
    hdag = (np.abs(k3 - k2) <= n) & (np.abs(k1 - k3) <= n) & (np.abs(k2 - k1) <= n)
    return k[h], k[hdag]


def weights_by_node(n):
    j = enum_upsilon(n)
    return dict(zip(map(tuple, j.tolist()), upsilon_weight(j.T, n).tolist()))


def brute_force_dim(n):
    return sum(1 for i in range(n + 1) for j in range(n + 1) if 2 * i + 3 * j <= n)


@pytest.mark.parametrize("n,count", [(9, 91), (10, 109), (11, 133)])
def test_enum_H_cardinality(n, count):
    h, hdag = enum_H(n)
    assert len(h) == count
    assert len(hdag) == count


def test_enum_H_membership():
    h, hdag = enum_H(6)
    assert h.shape[1] == 3 and hdag.shape[1] == 3
    assert all(sum(j) == 0 and j[0] % 3 == j[1] % 3 == j[2] % 3 for j in h.tolist())
    assert all(sum(k) == 0 for k in hdag.tolist())


def test_hat_maps_between_lattices():
    for n in range(1, 13):
        h, hdag = enum_H(n)
        hset = set(map(tuple, h.tolist()))
        dagset = set(map(tuple, hdag.tolist()))
        for k in hdag.tolist():
            assert hat(k) in hset
        for j in h.tolist():
            kj = hat(j)
            third = HexIndex(kj[0] // 3, kj[1] // 3, kj[2] // 3)
            assert all(c % 3 == 0 for c in kj)
            assert third in dagset


def test_upsilon_classification():
    # the weight names the node class: 1, 2, 3 at the 30, 60, 90 degree
    # vertices, 6 on an edge, 12 inside
    weights3 = weights_by_node(3)
    assert weights3[(0, 0, 0)] == 1
    assert weights3[(3, 0, -3)] == 2
    weights4 = weights_by_node(4)
    assert weights4[(2, 2, -4)] == 3
    # (1,1,-2)/4 sits on the t1 = t2 edge
    assert weights4[(1, 1, -2)] == 6
    assert weights_by_node(6)[(4, 1, -5)] == 12


def test_upsilon_vertex90_only_even():
    assert 3 not in weights_by_node(5).values()
    assert 3 in weights_by_node(6).values()


def test_upsilon_weight_via_orbit():
    # hatted indices land outside the fundamental wedge; the weight lookup
    # goes through the orbit representative
    assert upsilon_weight(HexIndex(-3, 3, 0), 3) == 2
    assert upsilon_weight(HexIndex(0, 0, 0), 4) == 1
    assert upsilon_weight(HexIndex(-1, -1, 2), 4) == 6
    assert upsilon_weight(HexIndex(-4, -1, 5), 6) == 12
    assert type(upsilon_weight(HexIndex(-4, -1, 5), 6)) is int


def test_weight_sum_is_one():
    for n in range(1, 13):
        total = sum(weights_by_node(n).values()) / n ** 2
        assert total == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize(
    "family,n,count",
    [("cc", 6, 7), ("ss", 6, 1), ("sc", 3, 1), ("cs", 3, 1)],
)
def test_gamma_cardinalities(family, n, count):
    assert len(enum_gamma(family, n)) == count


@pytest.mark.parametrize("call,message", [
    (lambda: enum_upsilon(0), "n must be >= 1"),
    (lambda: enum_gamma("cc", 0), "n must be >= 1"),
    (lambda: enum_H(0), "n must be >= 1"),
    (lambda: dim_pi_star(-1), "n must be >= 0"),
], ids=["enum_upsilon", "enum_gamma", "enum_H", "dim_pi_star"])
def test_lattice_sizes_below_the_smallest_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("size", [
    enum_upsilon,
    lambda n: enum_gamma("cc", n),
    dim_pi_star,
    lambda n: upsilon_weight((3, 0, -3), n),
    lambda n: discrete_ortho_constant((1, 0, -1), n),
], ids=["enum_upsilon", "enum_gamma", "dim_pi_star", "upsilon_weight", "discrete_ortho_constant"])
def test_lattice_sizes_go_through_operator_index(size):
    # dim_pi_star(4.5) once returned 4.5 and enum_upsilon(4.0) failed inside numpy
    want, got = size(4), size(np.int64(4))
    assert type(got) is type(want) and np.asarray(got).tolist() == np.asarray(want).tolist()
    for bad in (4.0, 4.5):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            size(bad)


def test_gamma_members():
    assert enum_gamma("ss", 6).tolist() == [[2, 1, -3]]
    assert enum_gamma("sc", 3).tolist() == [[1, 0, -1]]


@pytest.mark.parametrize("family", list(TrigFamily))
def test_first_gamma_member_is_the_family_shift(family):
    assert tuple(enum_gamma(family, 6)[0].tolist()) == family.shift


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
    gamma = enum_gamma(fam, n).tolist()
    for a, ka in enumerate(gamma):
        for kb in gamma[a:]:
            value = triangle_discrete_inner(
                lambda t, ka=ka: trig(fam, ka, t),
                lambda t, kb=kb: trig(fam, kb, t),
                n,
            )
            if ka == kb:
                assert value == pytest.approx(discrete_ortho_constant(ka, n), abs=1e-12)
            else:
                assert value == pytest.approx(0.0, abs=1e-12)


def test_discrete_ss_norm_is_twelfth():
    n = 8
    for k in enum_gamma("ss", n):
        value = triangle_discrete_inner(
            lambda t: trig("ss", k, t), lambda t: trig("ss", k, t), n
        )
        assert value == pytest.approx(1.0 / 12.0, abs=1e-12)


# the array enumerators and the weight against the reference implementation


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 200))
def test_enumerators_match_the_oracle_row_for_row(n):
    upsilon = enum_upsilon(n)
    assert upsilon.tolist() == oracle_upsilon(n)
    assert upsilon_weight(upsilon.T, n).tolist() == [
        oracle_class_weight(j, n) for j in oracle_upsilon(n)
    ]
    for family in TrigFamily:
        assert enum_gamma(family, n).tolist() == oracle_gamma(family, n)
    h, hdag = enum_H(n)
    assert (h.tolist(), hdag.tolist()) == oracle_H(n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 400))
@example(n=1)
@example(n=2)
@example(n=3)
@example(n=400)
def test_row_by_row_enumerators_equal_the_box_and_mask(n):
    pairs = [(enum_upsilon(n), masked_upsilon(n)), *zip(enum_H(n), masked_H(n))]
    pairs += [(enum_gamma(family, n), masked_gamma(family, n)) for family in TrigFamily]
    for got, want in pairs:
        assert got.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)  # values and row order


def test_enum_upsilon_builds_only_the_kept_rows():
    # masking the (n+1)^2 box of sum-zero triples would peak at 32 times the
    # output at n = 2005; row by row the peak is the output and a few columns
    tracemalloc.start()
    try:
        j = enum_upsilon(2005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(j) == dim_pi_star(2005)
    assert peak <= 3 * j.nbytes


@st.composite
def congruent_triples(draw):
    # a size n and congruent triples with max|ji| <= n
    n = draw(st.integers(1, 200))
    pairs = draw(st.lists(st.tuples(st.integers(-n, n), st.integers(-n, n)),
                          min_size=1, max_size=40))
    triples = []
    for a, b in pairs:
        b -= (b - a) % 3
        if -n <= b and abs(a + b) <= n:
            triples.append((a, b, -a - b))
    assume(triples)
    return n, triples


@settings(max_examples=150, deadline=None)
@given(congruent_triples())
def test_upsilon_weight_on_arrays_matches_the_scalar_orbit_rule(case):
    n, triples = case
    got = upsilon_weight(np.array(triples).T, n)
    assert got.tolist() == [oracle_weight(j, n) for j in triples]
    assert [upsilon_weight(j, n) for j in triples] == got.tolist()


def test_upsilon_weight_on_the_whole_hexagon():
    # every node of the closed hexagon, the hatted vertices included
    for n in range(1, 19):
        h, _ = enum_H(n)
        assert upsilon_weight(h.T, n).tolist() == [oracle_weight(j, n) for j in h.tolist()]


@pytest.mark.parametrize("family", list(TrigFamily))
def test_discrete_ortho_constant_broadcasts(family):
    for n in (6, 11, 12):
        k = enum_gamma(family, n)
        expect = [1.0 / oracle_weight(hat(ka), n) for ka in k.tolist()]
        assert discrete_ortho_constant(k.T, n).tolist() == expect
