import json
import math
import random
from fractions import Fraction

import pytest

from g2cub.chebyshev import (
    WeightParams,
    _orbit_size,
    cheb_eval_trig,
    cheb_poly,
    continuous_inner,
    deltoid_F,
    normalization_c,
    orthogonality_constant,
    poly_to_json_dict,
    resolve_index,
    star_indices_upto,
    weight_mass,
    weight_w,
    xy_map,
)
from g2cub.coords import make_point
from g2cub.gentrig import eval as trig
from g2cub.coords import make_index, orbit
from g2cub.jsonio import dumps
from g2cub.poly import BivarPoly
from g2cub.sturm import moments

HALF = Fraction(1, 2)
MM = WeightParams(-HALF, -HALF)
PM = WeightParams(HALF, -HALF)
MP = WeightParams(-HALF, HALF)
PP = WeightParams(HALF, HALF)
ALL = (MM, PM, MP, PP)


def interior_points(count, seed=2):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t2 = rng.uniform(0.02, 0.47)
        t1 = rng.uniform(t2 + 0.02, 1 - t2 - 0.02)
        out.append(make_point(t1, t2))
    return out


def test_xy_map_corners():
    assert xy_map(make_point(0, 0)) == (1.0, 1.0)
    x, y = xy_map(make_point(0.5, 0.5))
    assert x == pytest.approx(-1 / 3, abs=1e-15)
    assert y == pytest.approx(-1 / 3, abs=1e-15)


def test_deltoid_F_values():
    assert deltoid_F(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert deltoid_F(0.0, 0.0) == -1.0
    for t in interior_points(20):
        x, y = xy_map(t)
        ss = trig("ss", make_index(2, 1), t)
        assert deltoid_F(x, y) == pytest.approx(ss * ss / 3.0, abs=1e-12)
        assert deltoid_F(x, y) > 0.0


def test_weight_w_unit_for_zero_parameters():
    p = WeightParams(0.0, 0.0)
    for t in interior_points(5):
        x, y = xy_map(t)
        assert weight_w(p, x, y) == pytest.approx(1.0)


def test_weight_w_matches_trig_product():
    # (4 pi^2 / 3)^(a+b) |sc|^(2a) |cs|^(2b), here with a = b = 1/2
    for t in interior_points(10, seed=9):
        x, y = xy_map(t)
        sc = trig("sc", make_index(1, 0), t)
        cs = trig("cs", make_index(1, 1), t)
        expect = (4 * math.pi ** 2 / 3) * abs(sc * cs)
        assert weight_w(PP, x, y) == pytest.approx(expect, rel=1e-12)


def test_weight_w_domain_errors():
    with pytest.raises(ValueError):
        weight_w(PP, 0.0, 0.0)  # outside the domain
    with pytest.raises(ValueError):
        weight_w(MM, 1.0, 1.0)  # boundary with negative exponents


def test_weight_params_validation():
    with pytest.raises(ValueError):
        WeightParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        cheb_poly(WeightParams(0.25, 0.25), (1, 0))


SEED_CASES = {
    MM: {
        (0, 0): {(0, 0): 1},
        (1, 0): {(1, 0): 1},
        (0, 1): {(0, 1): 1},
        (2, 0): {(2, 0): 6, (1, 0): -2, (0, 1): -2, (0, 0): -1},
        (1, 1): {(1, 1): 3, (2, 0): -6, (1, 0): 1, (0, 1): 2, (0, 0): 1},
        (3, 0): {(3, 0): 36, (1, 1): -18, (1, 0): -9, (0, 1): -6, (0, 0): -2},
        (0, 2): {(0, 2): 6, (0, 1): 10, (3, 0): -72, (1, 1): 36, (1, 0): 18, (0, 0): 3},
    },
    PM: {
        (1, 0): {(1, 0): 6, (0, 0): 2},
        (0, 1): {(1, 0): 6, (0, 1): 3, (0, 0): 1},
        (2, 0): {(2, 0): 36, (0, 1): -6, (0, 0): -3},
        (1, 1): {(1, 1): 18, (1, 0): 6, (0, 1): 9, (0, 0): 2},
        (3, 0): {(3, 0): 216, (1, 1): -72, (1, 0): -48, (0, 1): -24, (0, 0): -8},
        (0, 2): {(1, 1): 126, (0, 2): 18, (0, 1): 36, (1, 0): 54, (0, 0): 10, (3, 0): -216},
    },
    MP: {
        (1, 0): {(1, 0): 3},
        (0, 1): {(0, 1): 6, (0, 0): 2},
        (2, 0): {(2, 0): 18, (1, 0): -3, (0, 1): -6, (0, 0): -3},
        (1, 1): {(1, 1): 18, (1, 0): 6, (2, 0): -18, (0, 1): 6, (0, 0): 3},
        (3, 0): {(3, 0): 108, (1, 1): -54, (1, 0): -27, (0, 1): -12, (0, 0): -5},
        (0, 2): {(0, 2): 36, (0, 1): 36, (3, 0): -216, (1, 1): 108, (1, 0): 54, (0, 0): 9},
    },
    PP: {
        (1, 0): {(1, 0): 6, (0, 0): 1},
        (0, 1): {(1, 0): 6, (0, 1): 6, (0, 0): 2},
        (2, 0): {(2, 0): 36, (0, 1): -6, (0, 0): -3},
        (1, 1): {(1, 1): 36, (1, 0): 12, (0, 1): 12, (0, 0): 4},
        (3, 0): {(3, 0): 216, (1, 1): -72, (1, 0): -42, (0, 1): -18, (0, 0): -7},
        (0, 2): {(1, 1): 144, (0, 2): 36, (0, 1): 42, (3, 0): -216, (1, 0): 60, (0, 0): 11},
    },
}


@pytest.mark.parametrize("p", ALL, ids=["mm", "pm", "mp", "pp"])
def test_explicit_low_degree_polynomials(p):
    for k, coeffs in SEED_CASES[p].items():
        expect = BivarPoly({e: Fraction(c) for e, c in coeffs.items()})
        assert cheb_poly(p, k) == expect


@pytest.mark.parametrize("p", ALL, ids=["mm", "pm", "mp", "pp"])
def test_recursion_consistent_with_trig(p):
    pts = interior_points(50, seed=6)
    for k in star_indices_upto(14):
        poly = cheb_poly(p, k)
        for t in pts:
            x, y = xy_map(t)
            via_poly = float(poly(x, y))
            via_trig = cheb_eval_trig(p, k, t)
            assert abs(via_poly - via_trig) <= 1e-10 * max(1.0, abs(via_trig))


def test_eval_trig_trivial():
    for p in ALL:
        for t in interior_points(3, seed=8):
            assert cheb_eval_trig(p, (0, 0), t) == pytest.approx(1.0, abs=1e-14)


def test_eval_trig_quotient_fallback_on_edges():
    # the sc denominator vanishes on the t1 = t2 edge; the polynomial
    # fallback must take over and agree with the limit
    t_edge = make_point(0.3, 0.3)
    value = cheb_eval_trig(PM, (2, 1), t_edge)
    x, y = xy_map(t_edge)
    assert value == pytest.approx(float(cheb_poly(PM, (2, 1))(x, y)), abs=1e-12)


def test_first_kind_is_plain_cc():
    for t in interior_points(10, seed=10):
        for k in ((1, 0), (2, 1), (0, 2)):
            kap = (k[0] + k[1], k[1])
            expect = trig("cc", make_index(*kap), t)
            assert cheb_eval_trig(MM, k, t) == pytest.approx(expect, abs=1e-13)


def test_generic_recurrences_exact():
    # both generating recurrences, with reflected out-of-range members,
    # hold as exact rational identities
    x = BivarPoly.x()
    y = BivarPoly.y()
    for p in ALL:
        alpha, beta = p.key()

        def member(k1, k2):
            sign, idx = resolve_index(alpha, beta, k1, k2)
            if idx is None:
                return BivarPoly.zero()
            return sign * cheb_poly(p, idx)

        for k1 in range(1, 5):
            for k2 in range(0, 3):
                lhs = member(k1 + 1, k2)
                rhs = (
                    6 * x * member(k1, k2)
                    - member(k1 + 2, k2 - 1)
                    - member(k1 - 1, k2 + 1)
                    - member(k1 + 1, k2 - 1)
                    - member(k1 - 2, k2 + 1)
                    - member(k1 - 1, k2)
                )
                assert lhs == rhs, (p, k1, k2, "x-recurrence")
        for k1 in range(3, 6):
            for k2 in range(2, 4):
                lhs = member(k1, k2 + 1)
                rhs = (
                    6 * y * member(k1, k2)
                    - member(k1 + 3, k2 - 2)
                    - member(k1 + 3, k2 - 1)
                    - member(k1 - 3, k2 + 1)
                    - member(k1 - 3, k2 + 2)
                    - member(k1, k2 - 1)
                )
                assert lhs == rhs, (p, k1, k2, "y-recurrence")


def test_orbit_size_closed_form_matches_the_orbit():
    for k1 in range(-12, 13):
        for k2 in range(-12, 13):
            k = make_index(k1, k2)
            assert _orbit_size(k) == len(orbit(k)), k


def test_leading_coefficient_positive():
    for p in ALL:
        for k in star_indices_upto(12):
            key, coeff = cheb_poly(p, k).leading_star_term()
            assert key == (k.k1, k.k2)
            assert coeff > 0


def test_normalization_constants():
    assert normalization_c(MM) == pytest.approx(4.0, rel=1e-11)
    assert normalization_c(PM) == pytest.approx(18 / math.pi ** 2, rel=1e-11)
    assert normalization_c(MP) == pytest.approx(18 / math.pi ** 2, rel=1e-11)
    assert normalization_c(PP) == pytest.approx(243 / math.pi ** 4, rel=1e-11)


@pytest.mark.parametrize("a,b", [(-0.6, 0.3), (0.3, -0.7), (-0.7, -0.6), (-0.95, 0.4)])
def test_weight_mass_steps_by_the_moments_of_the_factors(a, b):
    # raising alpha or beta by one multiplies the weight by f1/3 or f2,
    # the two factors of deltoid_F, so the mass steps by their moments
    x, y = BivarPoly.x(), BivarPoly.y()
    f1 = 1 + 2 * y - 3 * x * x
    f2 = 24 * x * x * x - y * y - 12 * x * y - 6 * x - 4 * y - 1
    one = BivarPoly.constant(Fraction(1))
    p = WeightParams(a, b)
    mass = weight_mass(p)
    assert weight_mass(WeightParams(a + 1, b)) == pytest.approx(
        mass * continuous_inner(p, f1, one) / 3, rel=1e-13)
    assert weight_mass(WeightParams(a, b + 1)) == pytest.approx(
        mass * continuous_inner(p, f2, one), rel=1e-13)


@pytest.mark.parametrize("a,b", [(-0.9, -0.8), (0.0, -0.84), (-0.6, -0.75)])
def test_unintegrable_weight_raises_value_error(a, b):
    # beta <= -5/6 or alpha + beta <= -4/3: the weight's integral diverges
    p = WeightParams(a, b)
    one = BivarPoly.constant(Fraction(1))
    with pytest.raises(ValueError, match="not integrable"):
        normalization_c(p)
    with pytest.raises(ValueError, match="not integrable"):
        continuous_inner(p, one, one)
    with pytest.raises(ValueError, match="not integrable"):
        continuous_inner(p, lambda x, y: 1.0, lambda x, y: 1.0)
    with pytest.raises(ValueError, match="not integrable"):
        moments(p, 4)


def test_continuous_inner_unit():
    one = BivarPoly.constant(Fraction(1))
    for p in ALL:
        assert continuous_inner(p, one, one) == pytest.approx(1.0, abs=1e-12)
    assert continuous_inner(WeightParams(0.3, 1.2), one, one) == pytest.approx(1.0, abs=1e-12)


def test_continuous_inner_callable_matches_poly_path():
    p = MM
    poly = cheb_poly(p, (2, 0))
    via_poly = continuous_inner(p, poly, poly)
    via_callable = continuous_inner(
        p, lambda x, y: poly(x, y), lambda x, y: poly(x, y)
    )
    assert via_callable == pytest.approx(via_poly, rel=1e-10)


def test_first_kind_norm_values():
    # squared norms 1, 1/6, 1/12 by index pattern
    assert continuous_inner(MM, cheb_poly(MM, (1, 0)), cheb_poly(MM, (1, 0))) == pytest.approx(1 / 6, abs=1e-11)
    assert continuous_inner(MM, cheb_poly(MM, (0, 1)), cheb_poly(MM, (0, 1))) == pytest.approx(1 / 6, abs=1e-11)
    assert continuous_inner(MM, cheb_poly(MM, (1, 1)), cheb_poly(MM, (1, 1))) == pytest.approx(1 / 12, abs=1e-11)


def test_continuous_orthogonality_all_families():
    indices = star_indices_upto(10)
    for p in ALL:
        polys = {tuple(k): cheb_poly(p, k) for k in indices}
        for a, ka in enumerate(indices):
            for kb in indices[a:]:
                value = continuous_inner(p, polys[tuple(ka)], polys[tuple(kb)])
                expect = orthogonality_constant(p, ka) if ka == kb else 0.0
                assert abs(value - expect) <= 1e-9, (p, ka, kb)


def test_orthogonality_constant_pattern():
    # first kind keeps the 1, 1/6, 1/12 pattern; the other families are
    # rescaled by their unit member so the (0,0) norm is always one
    assert orthogonality_constant(MM, (0, 0)) == 1.0
    assert orthogonality_constant(MM, (2, 0)) == pytest.approx(1 / 6)
    assert orthogonality_constant(MM, (1, 1)) == pytest.approx(1 / 12)
    for p in ALL:
        assert orthogonality_constant(p, (0, 0)) == 1.0
    assert orthogonality_constant(PM, (1, 1)) == pytest.approx(1 / 2)
    assert orthogonality_constant(MP, (2, 0)) == pytest.approx(1 / 2)
    assert orthogonality_constant(PP, (3, 1)) == 1.0


def test_poly_json_roundtrip():
    p = MM
    doc = poly_to_json_dict(p, (2, 0), cheb_poly(p, (2, 0)))
    text = dumps(doc)
    parsed = json.loads(text)
    assert parsed["alpha"] == -0.5 and parsed["beta"] == -0.5
    assert parsed["k"] == [2, 0]
    terms = {(t["i"], t["j"]): Fraction(t["num"], t["den"]) for t in parsed["terms"]}
    assert terms == {(2, 0): 6, (1, 0): -2, (0, 1): -2, (0, 0): -1}
    # terms come sorted by the weighted monomial order
    keys = [(t["i"], t["j"]) for t in parsed["terms"]]
    assert keys == sorted(keys, key=lambda k: (2 * k[0] + 3 * k[1], k[1]))
