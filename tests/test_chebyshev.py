import json
import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from g2cub.chebyshev import (
    MIndex,
    WeightParams,
    cheb_eval_trig,
    cheb_poly,
    continuous_inner,
    deltoid_F,
    deltoid_factors,
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
from g2cub import sturm
from g2cub.gentrig import TrigFamily, eval as trig
from g2cub.coords import make_index, orbit_size
from g2cub.jsonio import dumps
from g2cub.poly import BivarPoly, star_key
from g2cub.sturm import apply_L, eigen_poly, eigenvalue, jacobi_poly, moments

from helpers import fraction_inner, interior_points, leading_star_term, orbit

HALF = Fraction(1, 2)
MM = WeightParams(-HALF, -HALF)
PM = WeightParams(HALF, -HALF)
MP = WeightParams(-HALF, HALF)
PP = WeightParams(HALF, HALF)
ALL = (MM, PM, MP, PP)


def test_xy_map_corners():
    assert xy_map(make_point(0, 0)) == (1.0, 1.0)
    x, y = xy_map(make_point(0.5, 0.5))
    assert x == pytest.approx(-1 / 3, abs=1e-15)
    assert y == pytest.approx(-1 / 3, abs=1e-15)


def test_deltoid_F_values():
    assert deltoid_F(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert deltoid_F(0.0, 0.0) == -1.0
    for t in interior_points(20, seed=2):
        x, y = xy_map(t)
        ss = trig("ss", make_index(2, 1), t)
        assert deltoid_F(x, y) == pytest.approx(ss * ss / 3.0, abs=1e-12)
        assert deltoid_F(x, y) > 0.0


def test_deltoid_factors_exact_and_float():
    x, y = BivarPoly.x(), BivarPoly.y()
    f1, f2 = deltoid_factors(x, y)
    assert f1 == BivarPoly({(0, 0): 1, (0, 1): 2, (2, 0): -3})
    assert f2 == BivarPoly(
        {(3, 0): 24, (0, 2): -1, (1, 1): -12, (1, 0): -6, (0, 1): -4, (0, 0): -1}
    )
    exact = deltoid_F(x, y)
    assert exact == f1 * f2
    for t in interior_points(6, seed=4):
        u, v = xy_map(t)
        assert deltoid_F(u, v) == pytest.approx(float(exact(u, v)), abs=1e-14)


def test_weight_w_unit_for_zero_parameters():
    p = WeightParams(0.0, 0.0)
    for t in interior_points(5, seed=2):
        x, y = xy_map(t)
        assert weight_w(p, x, y) == pytest.approx(1.0)


def test_weight_w_matches_trig_product():
    # (4 pi^2 / 3)^(a+b) |sc|^(2a) |cs|^(2b), here with a = b = 1/2
    for t in interior_points(10, seed=9):
        x, y = xy_map(t)
        sc = trig("sc", make_index(1, 0), t)
        cs = trig("cs", make_index(1, 1), t)
        expect = (4 * math.pi ** 2 / 3) * abs(sc * cs)
        assert weight_w(PP, x, y) == pytest.approx(expect, rel=1e-12, abs=0)


def test_weight_w_domain_errors():
    with pytest.raises(ValueError):
        weight_w(PP, 0.0, 0.0)  # outside the domain
    with pytest.raises(ValueError):
        weight_w(MM, 1.0, 1.0)  # boundary with negative exponents


def test_weight_params_validation():
    with pytest.raises(ValueError):
        WeightParams(-1.0, 0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            WeightParams(0.3, bad)
        with pytest.raises(ValueError, match="finite"):
            WeightParams(bad, 0.3)
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


def test_weight_params_name_their_family():
    for fam in TrigFamily:
        a, b = fam.params
        assert (a, b) == (fam.sines[0] - HALF, fam.sines[1] - HALF)
        for p in (WeightParams(a, b), WeightParams(float(a), float(b)), WeightParams(np.float64(a), b)):
            assert p.family is fam
    for a, b in ((0.3, 0.5), (HALF, 0), (Fraction(3, 2), HALF), (0.5, 0.5000001)):
        assert WeightParams(a, b).family is None
        with pytest.raises(ValueError, match="outside the four half-integer cases"):
            cheb_poly(WeightParams(a, b), (1, 0))


def test_numpy_index_leaves_the_exact_cache_exact():
    # a numpy index once stored numpy coefficients under the int index's key
    sturm._table.cache_clear()
    p = WeightParams(HALF, -HALF)
    cheb_poly(p, np.array([4, 2]))
    for value in (orthogonality_constant(p, np.array([4, 2])), eigenvalue(p, np.array([4, 2]))):
        assert type(value) in (float, int)
    assert all(type(c) is int for c in cheb_poly(p, (4, 2)).coeffs.values())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = cheb_poly(p, np.array([20, 10]))  # the lead 6**30 overflows int64
    assert all(type(c) is int for c in big.coeffs.values())
    sturm._table.cache_clear()
    assert big == cheb_poly(p, (20, 10))
    assert dumps(poly_to_json_dict(p, np.array([20, 10]), big)) == dumps(poly_to_json_dict(p, (20, 10), big))
    sign, k = resolve_index(*p.key(), *np.array([4, 2]))
    assert (sign, k) == (1, (4, 2)) and all(type(c) is int for c in k)
    for bad in ((4.0, 2), (4, 2.5)):
        for call in (cheb_poly, eigenvalue, orthogonality_constant,
                     lambda p, k: resolve_index(*p.key(), *k)):
            with pytest.raises(TypeError):
                call(p, bad)
        with pytest.raises(TypeError):
            eigen_poly(p, bad)


def test_numpy_parameters_give_the_python_parameters_exact_results():
    # numpy ints once gave a mix of float64 and int64 coefficients that
    # missed the eigen identity, and numpy floats a second table entry
    p, q = WeightParams(np.int64(1), np.int64(2)), WeightParams(1, 2)
    assert (type(p.alpha), type(p.beta)) == (int, int) and p == q
    poly = eigen_poly(p, (20, 10))
    assert poly == eigen_poly(q, (20, 10))
    assert {type(c) for c in poly.coeffs.values()} <= {int, Fraction}
    assert apply_L(p, poly) == eigenvalue(p, (20, 10)) * poly
    f = WeightParams(np.float64(0.3), np.float32(0.5))
    assert (type(f.alpha), type(f.beta)) == (float, float) and f.beta == 0.5
    assert all(type(c) is float for c in eigen_poly(f, (3, 2)).coeffs.values())
    # a float in either slot makes a float pair
    assert type(WeightParams(HALF, 0.5).alpha) is float


@pytest.mark.parametrize("bad", ["0.3", None, 1j, (0.3,)])
def test_weight_params_reject_what_is_not_a_real_number(bad):
    with pytest.raises(TypeError, match="real numbers"):
        WeightParams(bad, 0.5)
    with pytest.raises(TypeError, match="real numbers"):
        WeightParams(0.5, bad)


INDEX_TAKERS = {
    "eigenvalue": eigenvalue,
    "eigen_poly": eigen_poly,
    "jacobi_poly": jacobi_poly,
    "monomial_image": lambda p, k: sturm.monomial_image(p, *k),
    "cheb_poly": cheb_poly,
    "cheb_eval_trig": lambda p, k: cheb_eval_trig(p, k, make_point(0.2, 0.1)),
    "orthogonality_constant": orthogonality_constant,
    "poly_to_json_dict": lambda p, k: poly_to_json_dict(p, k, BivarPoly.constant(1)),
}


@pytest.mark.parametrize("name", INDEX_TAKERS)
@pytest.mark.parametrize("k", [(-1, 2), (2, -1)], ids=str)
def test_every_index_taking_function_rejects_a_negative_component(name, k):
    # out-of-quadrant members exist only through resolve_index, which at
    # (1/2, 1/2) finds both of these identically zero
    with pytest.raises(ValueError, match=re.escape(f"nonnegative, got {k}")):
        INDEX_TAKERS[name](PP, k)


@pytest.mark.parametrize("alpha,beta,k1,k2", [(0.3, 0.7, -1, 2), (-0.3, 0.7, 3, -1), (0.3, 0.7, -3, 1)])
def test_resolve_index_rejects_parameters_off_the_half_integer_cases(alpha, beta, k1, k2):
    with pytest.raises(ValueError, match="half-integer"):
        resolve_index(alpha, beta, k1, k2)


U = 2.0 ** -53


def _eval_error_bound(m) -> float:
    """A bound on the rounding error of `gentrig.eval` at the index m and a
    point of the closed triangle, |t_i| <= 1: the argument pi (m1-m3)/3
    (t_i - t_j) is off by at most 6u of its size 2 pi |m1-m3| / 3 (three
    roundings in the frequency, one in the difference, one in the product
    and one from t3 = -t1 - t2), pi m2 t_k by 4u of pi |m2|; each factor
    adds a u, each product a u, and the sum of three terms over 3 three."""
    return 4 * math.pi * U * (abs(m[0] - m[2]) + abs(m[1]) + 1)


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(list(TrigFamily)), k1=st.integers(-40, 40), k2=st.integers(-40, 40),
       t2=st.floats(0.01, 0.49), frac=st.floats(0.01, 0.99))
@example(TrigFamily.SS, -40, -40, 0.2, 0.3)
@example(TrigFamily.SC, -1, 3, 0.2, 0.3)  # num on the wall v0 == v1
@example(TrigFamily.CS, 5, -1, 0.2, 0.3)  # num on the wall v1 == 0
@example(TrigFamily.CC, 40, -40, 0.2, 0.3)
def test_resolve_index_names_a_member_with_the_same_numerator_up_to_its_sign(family, k1, k2, t2, frac):
    # the member (k1, k2) is F_num / F_shift with num = (k1+k2+d+p, k2+p), for
    # any integers; resolve_index must say it vanishes, where eval at num is an
    # exact structural zero, or name a quadrant member whose numerator is
    # sign * F_num at interior points, within the rounding of the two evals
    d, p = family.sines
    t = make_point(t2 + frac * (1.0 - 2.0 * t2), t2)
    num = make_index(k1 + k2 + d + p, k2 + p)
    sign, m = resolve_index(*family.params, k1, k2)
    if m is None:
        assert sign == 0 and trig(family, num, t) == 0.0
        return
    assert sign in (1, -1) and m.k1 >= 0 and m.k2 >= 0 and all(type(c) is int for c in m)
    other = make_index(m.k1 + m.k2 + d + p, m.k2 + p)
    bound = _eval_error_bound(num) + _eval_error_bound(other)
    assert abs(trig(family, num, t) - sign * trig(family, other, t)) <= bound


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
            assert orbit_size(k) == len(orbit(k)), k
    assert orbit_size(np.array([2, 1, -3])) == 12
    with pytest.raises(TypeError):  # once counted as 12
        orbit_size((1.5, 0.5, -2.0))


def test_leading_coefficient_positive():
    for p in ALL:
        for k in star_indices_upto(12):
            key, coeff = leading_star_term(cheb_poly(p, k))
            assert key == (k.k1, k.k2)
            assert coeff > 0


def test_normalization_constants():
    assert normalization_c(MM) == pytest.approx(4.0, rel=1e-11)
    assert normalization_c(PM) == pytest.approx(18 / math.pi ** 2, rel=1e-11)
    assert normalization_c(MP) == pytest.approx(18 / math.pi ** 2, rel=1e-11)
    assert normalization_c(PP) == pytest.approx(243 / math.pi ** 4, rel=1e-11)


def _mass_50_digits(a, b):
    """The weight's mass from Macdonald's constant-term product, as in
    `weight_mass`, in 50-digit mpmath."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        ks, kl = a + mpmath.mpf(1) / 2, b + mpmath.mpf(1) / 2
        roots = ((ks, ks), (ks + 3 * kl, ks), (2 * ks + 3 * kl, ks),
                 (kl, kl), (ks + kl, kl), (ks + 2 * kl, kl))
        mass = mpmath.mpf(1) / (144 * mpmath.mpf(36) ** (a + b))
        for c, k in roots:
            mass *= mpmath.gamma(c + k + 1) * mpmath.gamma(c - k + 1) / mpmath.gamma(c + 1) ** 2
        return mass


def _normalization_c_50_digits(a, b):
    """(3 / (4 pi^2))^(a+b+1) / mass in 50-digit mpmath."""
    with mpmath.workdps(50):
        return float((3 / (4 * mpmath.pi ** 2)) ** (mpmath.mpf(a) + b + 1) / _mass_50_digits(a, b))


@pytest.mark.parametrize("a,b", [(200, 150), (300, 0), (170, 0), (0.3, 1.2), (-0.4, 0.7), (-0.5, -0.5)])
def test_normalization_c_is_one_exp_of_summed_logs(a, b):
    # (3 / (4 pi^2))^(a+b+1) underflows at (200, 150) and (300, 0), where the
    # constants are 5.8e-152 and 2.0e-292; the exp's error grows with |ln c|,
    # hence rel 1e-11, and abs 0 so that 0.0 fails
    assert normalization_c(WeightParams(a, b)) == pytest.approx(
        _normalization_c_50_digits(a, b), rel=1e-11, abs=0)


@pytest.mark.parametrize("a,b", [(1e5, 0), (0, 1e4)])
def test_normalization_c_outside_the_float_range_raises_value_error(a, b):
    p = WeightParams(a, b)  # a float pair: the message prints (0.0, 10000.0)
    with pytest.raises(ValueError, match=re.escape(
            f"normalization constant at parameters ({p.alpha}, {p.beta}) is outside the float range")):
        normalization_c(p)


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
        mass * continuous_inner(p, f1, one) / 3, rel=1e-13, abs=0)
    assert weight_mass(WeightParams(a, b + 1)) == pytest.approx(
        mass * continuous_inner(p, f2, one), rel=1e-13, abs=0)


@pytest.mark.parametrize("a,b", [(200, 150), (400, 0), (170, 0)])
def test_weight_mass_at_large_parameters_is_one_exp_of_summed_logs(a, b):
    # 36^-(a+b) underflows at (200, 150) and the Gamma product overflows at
    # (400, 0); the exp's error grows with |ln mass|, hence rel 1e-11, and
    # abs 0 so that 0.0 fails where the mass is ~1e-242
    x, y = BivarPoly.x(), BivarPoly.y()
    f1 = 1 + 2 * y - 3 * x * x
    f2 = 24 * x * x * x - y * y - 12 * x * y - 6 * x - 4 * y - 1
    one = BivarPoly.constant(Fraction(1))
    p = WeightParams(a, b)
    mass = weight_mass(p)
    assert mass == pytest.approx(float(_mass_50_digits(a, b)), rel=1e-11, abs=0)
    assert weight_mass(WeightParams(a + 1, b)) == pytest.approx(
        mass * continuous_inner(p, f1, one) / 3, rel=1e-11, abs=0)
    assert weight_mass(WeightParams(a, b + 1)) == pytest.approx(
        mass * continuous_inner(p, f2, one), rel=1e-11, abs=0)


def test_weight_mass_outside_the_float_range_raises_value_error():
    with pytest.raises(ValueError, match="outside the float range"):
        weight_mass(WeightParams(1e5, 0))


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
                if ka == kb:
                    assert abs(value - orthogonality_constant(p, ka)) <= 1e-9, (p, ka)
                else:  # rational coefficients and moments: the sum is exact
                    assert value == 0.0, (p, ka, kb)


def test_continuous_inner_sums_float_coefficients_exactly():
    p = WeightParams(0.17, -0.23)
    P = jacobi_poly(p, (0, 4))
    value = continuous_inner(p, P, P)
    assert value > 0
    assert value == float(fraction_inner(p, P, P)) == continuous_inner(p, P, P)
    # monic float eigenpolynomials of weighted degree 36 and 42: summed in
    # floats, their squared norms came out as 5.8e-19 and -2.8e-17
    p = WeightParams(0.3, 1.2)
    for k, norm in (((9, 6), 1.596004977337912e-24), ((9, 8), 1.1780345096352702e-27)):
        q = jacobi_poly(p, k)
        assert continuous_inner(p, q, q) == float(fraction_inner(p, q, q)) == norm


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


def test_json_strings_and_keys_are_escaped():
    doc = {'a"b': 'x\ny\t\x01é', "list": ["q\\", 'r"'], "nested": {"\n": None}}
    assert json.loads(dumps(doc)) == doc


@given(st.text())
def test_json_strings_are_quoted_as_json_dumps_quotes_them(text):
    assert dumps(text) == json.dumps(text)
    assert dumps({text: [text]}) == "{\n  " + json.dumps(text) + ": [" + json.dumps(text) + "]\n}"


def test_star_indices_upto_matches_the_sorted_box():
    for d in range(-1, 61):
        box = [MIndex(i, j) for i in range(d // 2 + 1) for j in range((d - 2 * i) // 3 + 1)]
        assert star_indices_upto(d) == sorted(box, key=star_key), d


@pytest.mark.parametrize("p", ALL, ids=["mm", "pm", "mp", "pp"])
def test_eval_trig_on_arrays_matches_the_scalar_loop_bit_for_bit(p):
    # interior points plus points on each edge and at the vertices, where
    # the denominators vanish and the exact polynomial takes over
    pts = interior_points(20, seed=11) + [
        make_point(0.3, 0.3), make_point(0.4, 0.0), make_point(0.7, 0.3),
        make_point(0.0, 0.0), make_point(1.0, 0.0), make_point(0.5, 0.5),
    ]
    t = tuple(np.array(c) for c in zip(*pts))
    for k in ((0, 0), (1, 0), (2, 1), (3, 2), (0, 4)):
        got = cheb_eval_trig(p, k, t)
        assert isinstance(got, np.ndarray) and got.shape == (len(pts),)
        loop = [cheb_eval_trig(p, k, pt) for pt in pts]
        assert all(type(v) is float for v in loop)
        assert got.tolist() == loop, k
