import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2cub.coords import (
    A2,
    A2_STAR,
    G2,
    cart_to_homog,
    make_index,
    make_point,
    point_from_index,
)
from g2cub.gentrig import (
    TrigFamily,
    boundary_normal_derivative,
    eval as trig,
    eval_expansion,
    laplace_eigenvalue,
    partial_t,
    phi,
    product_expand,
)


def interior_points(count, seed=1):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        t2 = rng.uniform(0.02, 0.47)
        t1 = rng.uniform(t2 + 0.02, 1 - t2 - 0.02)
        pts.append(make_point(t1, t2))
    return pts


def test_phi_basics():
    assert phi(make_index(0, 0), make_point(0.3, 0.2)) == pytest.approx(1.0)
    assert phi(make_index(1, 0), make_point(0, 0)) == pytest.approx(1.0)
    # k.t = 3 gives a full turn
    assert phi(make_index(1, 0), make_point(1.5, 0)) == pytest.approx(1.0)


def test_phi_h_periodic():
    k = make_index(2, -1)
    t = make_point(0.31, 0.17)
    for shift in ((3, 0, -3), (1, 1, -2), (-2, 1, 1)):
        moved = make_point(t[0] + shift[0], t[1] + shift[1])
        assert phi(k, moved) == pytest.approx(phi(k, t), abs=1e-12)


def test_eval_trivial_values():
    origin = make_point(0, 0)
    assert trig("cc", make_index(2, 1), origin) == 1.0
    assert trig("ss", make_index(2, 1), origin) == 0.0


def test_eval_structural_zeros_in_index():
    t = make_point(0.4, 0.2)
    # a zero component kills cs and ss
    assert trig("cs", make_index(1, 0), t) == 0.0
    assert trig("ss", make_index(1, 0), t) == 0.0
    # equal components kill sc and ss
    assert trig("sc", make_index(1, 1), t) == 0.0
    assert trig("ss", make_index(3, 3), t) == 0.0
    assert trig("sc", make_index(2, -1), t) == 0.0  # k2 == k3


def test_eval_structural_zeros_in_point():
    k = make_index(2, 1)
    on_b2 = make_point(0.4, 0.0)
    on_b3 = make_point(0.3, 0.3)
    assert trig("cs", k, on_b2) == 0.0
    assert trig("ss", k, on_b2) == 0.0
    assert trig("sc", k, on_b3) == 0.0
    assert trig("ss", k, on_b3) == 0.0


def _vanishes_identically(family, v):
    if family in (TrigFamily.CS, TrigFamily.SS) and 0 in v:
        return True
    return family in (TrigFamily.SC, TrigFamily.SS) and len(set(v)) < 3


def _broadcasting_evaluators(family):
    """(name, f(k, t), zero(k, j)) for every gentrig function that
    broadcasts like eval; zero says where f is exactly +0.0 at node j/m."""
    index_zero = lambda k, j: _vanishes_identically(family, k)
    out = [
        ("eval", lambda k, t: trig(family, k, t),
         lambda k, j: index_zero(k, j) or _vanishes_identically(family, j)),
        ("phi", phi, lambda k, j: False),
    ]
    for i in range(3):
        out.append((f"partial_t{i}", lambda k, t, i=i: partial_t(family, k, t, i), index_zero))
    return out


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(list(TrigFamily)),
    ks=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=5),
    m=st.integers(1, 20),
    js=st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=8),
)
def test_array_eval_matches_scalar_bit_for_bit(family, ks, m, js):
    # lattice points j/m, boundary and outside points included, against a
    # stack of indices: the broadcast array result of eval, phi and each
    # partial_t must equal the scalar result element by element, with
    # structural zeros exactly +0.0 on both paths
    ks = [make_index(*k) for k in ks]
    js = [make_index(*j) for j in js]
    k_arr = np.array(ks).T[:, :, None]
    t_arr = point_from_index(np.array(js).T, m)
    for name, f, zero in _broadcasting_evaluators(family):
        values = f(k_arr, t_arr)
        assert values.shape == (len(ks), len(js)), name
        scalar_type = complex if name == "phi" else float
        for a, k in enumerate(ks):
            by_point = f(k, t_arr)
            for b, j in enumerate(js):
                scalar = f(k, point_from_index(j, m))
                assert type(scalar) is scalar_type, name
                bits = np.asarray(scalar, dtype=values.dtype).tobytes()
                assert bits == values[a, b].tobytes(), name
                assert bits == by_point[b].tobytes(), name
                if zero(k, j):
                    assert scalar == 0.0 and math.copysign(1.0, scalar) == 1.0, name


def test_cc_example_value():
    # hand evaluation of the closed form at the right-angle vertex:
    # (1/3)(cos(pi) + 1 + cos(-pi)) = -1/3
    value = trig("cc", make_index(1, 0), make_point(0.5, 0.5))
    assert value == pytest.approx(-1.0 / 3.0, abs=1e-15)


def character(family, g):
    """Sign picked up by one family under one group element: cc is fully
    invariant, ss flips with the reflection parity, sc flips on the
    negation coset, cs flips with parity times negation."""
    negation = 1 if g in A2 else -1
    return {
        TrigFamily.CC: 1,
        TrigFamily.SS: g.parity,
        TrigFamily.SC: negation,
        TrigFamily.CS: g.parity * negation,
    }[family]


@pytest.mark.parametrize("family", list(TrigFamily))
def test_invariance_relations(family):
    rng = random.Random(3)
    ks = [make_index(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(6)]
    for t in interior_points(10, seed=4):
        for k in ks:
            base = trig(family, k, t)
            for g in G2:
                moved = trig(family, k, g.apply(t))
                assert moved == pytest.approx(character(family, g) * base, abs=1e-12)


def test_laplace_eigenvalue_values():
    assert laplace_eigenvalue(make_index(0, 0)) == 0.0
    assert laplace_eigenvalue(make_index(1, 0)) == pytest.approx(4 * math.pi ** 2 / 3)
    assert laplace_eigenvalue(make_index(2, 1)) == pytest.approx(28 * math.pi ** 2 / 3)


def test_laplace_eigenvalue_group_invariant():
    k = make_index(3, -1)
    lam = laplace_eigenvalue(k)
    for g in G2:
        assert laplace_eigenvalue(g.apply(k)) == pytest.approx(lam)


def fd_laplacian(f, x1, x2, h=1e-4):
    """Fourth-order central difference Laplacian in Cartesian coordinates."""

    def dxx(g, a, b):
        return (
            -g(a + 2 * h, b) + 16 * g(a + h, b) - 30 * g(a, b) + 16 * g(a - h, b) - g(a - 2 * h, b)
        ) / (12 * h * h)

    return dxx(f, x1, x2) + dxx(lambda a, b: f(b, a), x2, x1)


@pytest.mark.parametrize("family", list(TrigFamily))
def test_laplacian_spectral(family):
    rng = random.Random(11)
    count = 0
    while count < 3:
        k = make_index(rng.randint(-6, 6), rng.randint(-6, 6))
        if trig(family, k, make_point(0.37, 0.21)) == 0.0:
            continue
        count += 1
        lam = laplace_eigenvalue(k)

        def f(x1, x2):
            return trig(family, k, cart_to_homog(x1, x2))

        for t in interior_points(5, seed=13):
            # invert the coordinate map: x2 = t2, x1 = (t1 - t3)/sqrt(3)
            x1 = (t[0] - t[2]) / math.sqrt(3)
            x2 = t[1]
            value = f(x1, x2)
            if abs(value) < 0.05:
                continue
            got = fd_laplacian(f, x1, x2)
            assert abs(got + lam * value) <= 1e-6 * max(1.0, abs(lam * value))


def test_boundary_conditions():
    edge_pts = {
        "B1": [make_point(0.6, 0.4), make_point(0.55, 0.45), make_point(0.8, 0.2)],
        "B2": [make_point(0.3, 0.0), make_point(0.7, 0.0)],
        "B3": [make_point(0.2, 0.2), make_point(0.4, 0.4)],
    }
    ks = [make_index(1, 0), make_index(2, 1), make_index(3, 1)]
    for k in ks:
        for edge, pts in edge_pts.items():
            for t in pts:
                # Neumann data
                if edge in ("B1", "B2", "B3"):
                    assert boundary_normal_derivative("cc", k, t, edge) == pytest.approx(0.0, abs=1e-10)
                if edge in ("B1", "B2"):
                    assert boundary_normal_derivative("sc", k, t, edge) == pytest.approx(0.0, abs=1e-10)
                if edge == "B3":
                    assert boundary_normal_derivative("cs", k, t, edge) == pytest.approx(0.0, abs=1e-10)
                # Dirichlet data
                if edge == "B3":
                    assert trig("sc", k, t) == pytest.approx(0.0, abs=1e-13)
                if edge in ("B1", "B2"):
                    assert trig("cs", k, t) == pytest.approx(0.0, abs=1e-13)
                assert trig("ss", k, t) == pytest.approx(0.0, abs=1e-13)


def test_boundary_normal_derivative_rejects_off_edge():
    with pytest.raises(ValueError):
        boundary_normal_derivative("cc", make_index(1, 0), make_point(0.4, 0.2), "B1")
    with pytest.raises(ValueError):
        boundary_normal_derivative("cc", make_index(1, 0), make_point(0.4, 0.2), "B9")


def test_product_expansion_specific():
    # 3 sc_{1,0,-1} cs_{1,1,-2} = ss_{2,1,-3}
    terms = product_expand("sc", make_index(1, 0), "cs", make_index(1, 1))
    assert len(terms) == 12
    assert all(abs(c) == pytest.approx(1 / 12) for _, _, c in terms)
    for t in interior_points(8, seed=5):
        lhs = trig("sc", make_index(1, 0), t) * trig("cs", make_index(1, 1), t)
        assert eval_expansion(terms, t) == pytest.approx(lhs, abs=1e-13)
        assert lhs == pytest.approx(trig("ss", make_index(2, 1), t) / 3, abs=1e-13)


def test_product_expansion_constant():
    terms = product_expand("cc", make_index(0, 0), "cc", make_index(0, 0))
    assert len(terms) == 12
    assert sum(c for _, _, c in terms) == 1
    assert all(fam is TrigFamily.CC and idx == (0, 0, 0) for fam, idx, _ in terms)


FAMILIES = [f.value for f in TrigFamily]


@pytest.mark.parametrize(
    "fam_a,fam_b", [(a, b) for a in FAMILIES for b in FAMILIES]
)
def test_product_expansion_pointwise(fam_a, fam_b):
    rng = random.Random(17)
    for _ in range(4):
        j = make_index(rng.randint(-4, 4), rng.randint(-4, 4))
        k = make_index(rng.randint(-4, 4), rng.randint(-4, 4))
        terms = product_expand(fam_a, j, fam_b, k)
        for t in interior_points(5, seed=19):
            lhs = trig(fam_a, j, t) * trig(fam_b, k, t)
            assert eval_expansion(terms, t) == pytest.approx(lhs, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    fam_a=st.sampled_from(FAMILIES),
    fam_b=st.sampled_from(FAMILIES),
    j=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    k=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    t2=st.floats(0.01, 0.49),
    frac=st.floats(0.01, 0.99),
)
def test_product_expansion_matches_the_product(fam_a, fam_b, j, k, t2, frac):
    t = make_point(t2 + frac * (1.0 - 2.0 * t2), t2)
    j, k = make_index(*j), make_index(*k)
    terms = product_expand(fam_a, j, fam_b, k)
    assert len(terms) == 12
    assert all(abs(c) == Fraction(1, 12) for _, _, c in terms)
    lhs = trig(fam_a, j, t) * trig(fam_b, k, t)
    assert abs(eval_expansion(terms, t) - lhs) <= 1e-12


@pytest.mark.parametrize("family", list(TrigFamily))
def test_sine_bits_name_the_family(family):
    d, p = family.sines
    assert TrigFamily.from_sines(d, p) is family
    assert family.value == "cs"[d] + "cs"[p]
    assert family.shift == (d + p, p, -d - 2 * p)
    # the sign under each group element is the character of the bits
    k = make_index(3, 1)
    for t in interior_points(3, seed=23):
        for g in G2:
            chi = g.sign ** (d + p) * g.parity ** d
            assert trig(family, g.apply(k), t) == pytest.approx(chi * trig(family, k, t), abs=1e-13)
