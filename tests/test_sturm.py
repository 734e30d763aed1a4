import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2cub.chebyshev import (
    WeightParams,
    cheb_poly,
    continuous_inner,
    star_indices_upto,
)
from g2cub.poly import BivarPoly, star_key
from g2cub.sturm import (
    apply_L,
    eigen_poly,
    eigen_residual,
    eigenvalue,
    jacobi_poly,
    monomial_image,
    operator_coeffs,
    selfadjointness_check,
)

HALF = Fraction(1, 2)
MM = WeightParams(-HALF, -HALF)
ALL_HALF = tuple(WeightParams(sa * HALF, sb * HALF) for sa in (-1, 1) for sb in (-1, 1))
GENERAL = (WeightParams(0.0, 0.0), WeightParams(0.3, 1.2), WeightParams(-0.4, 0.7))


def frac_params(a, b):
    return WeightParams(Fraction(a), Fraction(b))


def test_operator_coefficient_polynomials():
    c = operator_coeffs(frac_params(0, 0))
    assert c.A11 == BivarPoly({(2, 0): -6, (0, 1): 1, (1, 0): 3, (0, 0): 2})
    assert c.A12 == BivarPoly({(1, 1): -9, (2, 0): 18, (0, 1): -6, (0, 0): -3})
    assert c.A22 == BivarPoly(
        {(0, 2): -18, (3, 0): 108, (1, 1): -54, (1, 0): -27, (0, 1): -9}
    )
    assert c.B1 == BivarPoly({(1, 0): 21, (0, 0): 3})
    assert c.B2 == BivarPoly({(1, 0): 18, (0, 1): 45, (0, 0): 9})


def domain_poly():
    return BivarPoly(
        {(0, 0): Fraction(1), (0, 1): Fraction(2), (2, 0): Fraction(-3)}
    ) * BivarPoly(
        {
            (3, 0): Fraction(24),
            (0, 2): Fraction(-1),
            (1, 1): Fraction(-12),
            (1, 0): Fraction(-6),
            (0, 1): Fraction(-4),
            (0, 0): Fraction(-1),
        }
    )


def test_determinant_is_nine_F():
    c = operator_coeffs(MM)
    assert c.A11 * c.A22 - c.A12 * c.A12 == 9 * domain_poly()


def test_boundary_flux_identities():
    # the flux fields are parallel to the boundary: both combinations are
    # polynomial multiples of the defining polynomial
    c = operator_coeffs(MM)
    F = domain_poly()
    f1, f2 = F.diff_x(), F.diff_y()
    cof1 = BivarPoly({(1, 0): Fraction(-30), (0, 0): Fraction(-6)})
    cof2 = BivarPoly({(1, 0): Fraction(-36), (0, 1): Fraction(-54), (0, 0): Fraction(-18)})
    assert f1 * c.A11 + f2 * c.A12 == cof1 * F
    assert f1 * c.A12 + f2 * c.A22 == cof2 * F


def test_apply_L_annihilates_constants():
    for p in ALL_HALF + GENERAL:
        assert not apply_L(p, BivarPoly.constant(Fraction(1)))


def test_apply_L_on_x():
    a, b = Fraction(1, 4), Fraction(2, 3)
    p = WeightParams(a, b)
    out = apply_L(p, BivarPoly.x())
    assert out == BivarPoly({(1, 0): 21 + 12 * a + 18 * b, (0, 0): 3 + 6 * a})


def plain_apply_L(p, q):
    """The operator by plain BivarPoly arithmetic on the unscaled operator
    coefficients, an independent reference for apply_L."""
    c = operator_coeffs(p)
    qx, qy = q.diff_x(), q.diff_y()
    return (
        -(c.A11 * qx.diff_x())
        - 2 * (c.A12 * qx.diff_y())
        - (c.A22 * qy.diff_y())
        + c.B1 * qx
        + c.B2 * qy
    )


def typed(poly):
    return sorted((e, type(c), repr(c)) for e, c in poly.coeffs.items())


RATIONAL = st.fractions(min_value=-HALF, max_value=3, max_denominator=30)


@settings(max_examples=80, deadline=None)
@given(
    RATIONAL,
    RATIONAL,
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 4)),
        st.fractions(min_value=-20, max_value=20, max_denominator=30).filter(
            lambda v: v.denominator > 1
        ),
        max_size=10,
    ),
)
def test_apply_L_matches_plain_fraction_arithmetic(a, b, coeffs):
    p = frac_params(a, b)
    q = BivarPoly(coeffs)
    got = apply_L(p, q)
    assert typed(got) == typed(plain_apply_L(p, q))
    assert all(type(c) is Fraction for c in got.coeffs.values())
    qf = q.to_float()
    got = apply_L(p, qf)
    assert typed(got) == typed(plain_apply_L(p, qf))
    assert all(type(c) is float for c in got.coeffs.values())


def test_monomial_image_examples():
    a, b = Fraction(1, 4), Fraction(2, 3)
    p = WeightParams(a, b)
    assert monomial_image(p, 0, 0) == []
    img = dict(monomial_image(p, 1, 0))
    assert img[(1, 0)] == 21 + 12 * a + 18 * b
    assert img[(0, 0)] == 3 * (1 + 2 * a)
    img = dict(monomial_image(p, 0, 1))
    assert img[(0, 1)] == 18 + 3 * (9 + 6 * a + 12 * b)
    assert img[(1, 0)] == 18 * (1 + 2 * a)
    assert img[(0, 0)] == 9 * (1 + 2 * b)


def test_monomial_image_matches_apply_L():
    p = frac_params(Fraction(3, 10), Fraction(6, 5))
    for j in range(5):
        for k in range(4):
            rebuilt = BivarPoly(dict(monomial_image(p, j, k)))
            assert rebuilt == apply_L(p, BivarPoly.monomial(j, k, Fraction(1)))


def test_monomial_image_triangular():
    p = MM
    for j in range(6):
        for k in range(5):
            for expo, _ in monomial_image(p, j, k):
                assert star_key(expo) <= star_key((j, k))


def test_eigenvalue_values():
    for p in ALL_HALF + GENERAL:
        assert eigenvalue(p, (0, 0)) == 0
    a, b = Fraction(1, 3), Fraction(1, 7)
    p = frac_params(a, b)
    assert eigenvalue(p, (1, 0)) == 3 * (7 + 4 * a + 6 * b)
    assert eigenvalue(p, (0, 1)) == 9 * (5 + 2 * a + 4 * b)
    assert eigenvalue(MM, (1, 0)) == 6
    # the eigenvalue is the coefficient of the fixed monomial in its image
    for j in range(4):
        for k in range(3):
            if j == k == 0:
                continue
            img = dict(monomial_image(p, j, k))
            assert img[(j, k)] == eigenvalue(p, (j, k))


def test_eigenvalue_separation():
    # indices reachable downward inside one class never share an eigenvalue
    for p in (MM, frac_params(HALF, HALF), frac_params(-HALF, HALF)):
        a, b = p.key()
        for k in star_indices_upto(12):
            lam = eigenvalue(p, k)
            for pshift in range(0, 2 * k.k1 + 3 * k.k2 + 1):
                for q in range(0, (pshift + k.k2) // 2 + 1):
                    if pshift == 0 and q == 0:
                        continue
                    j1, j2 = k.k1 - 2 * pshift + 3 * q, k.k2 + pshift - 2 * q
                    if j1 < 0 or j2 < 0:
                        continue
                    gap = 3 * (2 * k.k1 - 2 * pshift + 3 * q + 2 * a + 1) * pshift
                    gap += 9 * (2 * k.k2 + pshift - 2 * q + 2 * b + 1) * q
                    assert lam - eigenvalue(p, (j1, j2)) == gap
                    assert gap > 0


def test_exact_eigen_identity_half_integer():
    for p in ALL_HALF:
        for k in star_indices_upto(12):
            poly = cheb_poly(p, k)
            assert apply_L(p, poly) == eigenvalue(p, k) * poly


def test_jacobi_closed_forms():
    for p in GENERAL:
        a, b = float(p.alpha), float(p.beta)
        p10 = jacobi_poly(p, (1, 0))
        assert p10.coeffs[(1, 0)] == 1.0
        assert p10.coeffs[(0, 0)] == pytest.approx((1 + 2 * a) / (7 + 4 * a + 6 * b), abs=1e-10)
        p01 = jacobi_poly(p, (0, 1))
        assert p01.coeffs[(0, 1)] == 1.0
        assert p01.coeffs[(1, 0)] == pytest.approx(3 * (1 + 2 * a) / (4 + a + 3 * b), abs=1e-10)
        expect = (5 + 5 * a + 11 * b + 2 * a * b + 6 * b * b + 4 * a * a) / (
            (4 + a + 3 * b) * (5 + 2 * a + 4 * b)
        )
        assert p01.coeffs[(0, 0)] == pytest.approx(expect, abs=1e-10)


def test_jacobi_eigen_residuals():
    for p in GENERAL:
        for k in star_indices_upto(8):
            resid = eigen_residual(p, k, jacobi_poly(p, k))
            assert resid <= 1e-8


def test_jacobi_eigen_residuals_to_degree_24():
    for a, b in ((0.3, 1.2), (-0.4, 0.7), (0.17, -0.23), (0.0, 0.0)):
        p = WeightParams(a, b)
        for k in star_indices_upto(24):
            resid = eigen_residual(p, k, jacobi_poly(p, k))
            assert resid <= 1e-12, (a, b, k, resid)


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=-HALF, max_value=3, max_denominator=30),
    st.fractions(min_value=-HALF, max_value=3, max_denominator=30),
    st.sampled_from(star_indices_upto(12)),
)
def test_eigen_poly_exact_identity(a, b, k):
    p = frac_params(a, b)
    q = eigen_poly(p, k)
    assert q.leading_star_term() == (tuple(k), 1)
    assert apply_L(p, q) == eigenvalue(p, k) * q


def test_eigen_poly_nonintegral_coefficients_at_rational_parameters():
    # the back-substitution's integer division leaves a remainder here
    p = frac_params(Fraction(3, 10), Fraction(6, 5))
    for k in star_indices_upto(12):
        q = eigen_poly(p, k)
        assert all(type(c) is Fraction for c in q.coeffs.values())
        if k != (0, 0):
            assert any(c.denominator > 1 for c in q.coeffs.values()), k
        assert plain_apply_L(p, q) == eigenvalue(p, k) * q
        assert apply_L(p, q) == eigenvalue(p, k) * q


def test_eigen_poly_exact_and_float_kept_apart():
    exact = eigen_poly(MM, (2, 0))
    numeric = eigen_poly(WeightParams(-0.5, -0.5), (2, 0))
    assert all(isinstance(c, Fraction) for c in exact.coeffs.values())
    assert all(isinstance(c, float) for c in numeric.coeffs.values())


@pytest.mark.parametrize(
    "p", [frac_params(Fraction(-9, 10), Fraction(-4, 5)), WeightParams(-0.9, -0.8)],
    ids=["exact", "float"],
)
def test_eigen_poly_rejects_eigenvalue_tie(p):
    # lambda(0, 1) == lambda(0, 0) here while the image of y reaches 1
    with pytest.raises(ValueError, match="tie"):
        eigen_poly(p, (0, 1))
    with pytest.raises(ValueError, match="tie"):
        jacobi_poly(p, (0, 1))


def test_jacobi_matches_scaled_chebyshev():
    # for half-integer parameters the two constructions agree after
    # scaling to a unit leading coefficient
    for p in ALL_HALF:
        pf = WeightParams(float(p.alpha), float(p.beta))
        for k in star_indices_upto(8):
            cheb = cheb_poly(p, k)
            _, lead = cheb.leading_star_term()
            monic = cheb.to_float() / float(lead)
            numeric = jacobi_poly(pf, k)
            diff = monic - numeric
            assert diff.max_abs_coeff() <= 1e-9 * max(1.0, monic.max_abs_coeff())


def test_jacobi_mm_20_explicit():
    numeric = jacobi_poly(WeightParams(-0.5, -0.5), (2, 0))
    expect = {(2, 0): 1.0, (1, 0): -1 / 3, (0, 1): -1 / 3, (0, 0): -1 / 6}
    for key, val in expect.items():
        assert numeric.coeffs[key] == pytest.approx(val, abs=1e-11)


def test_jacobi_orthogonal_to_earlier_monomials():
    p = WeightParams(0.3, 1.2)
    poly = jacobi_poly(p, (2, 1))
    for k in star_indices_upto(7):
        if star_key(k) < star_key((2, 1)):
            mono = BivarPoly.monomial(k.k1, k.k2, 1.0)
            assert continuous_inner(p, poly, mono) == pytest.approx(0.0, abs=1e-10)


def test_selfadjointness():
    x = BivarPoly.x()
    y = BivarPoly.y()
    for p in (WeightParams(0.5, 0.5), WeightParams(0.3, 1.2)):
        lhs, rhs = selfadjointness_check(p, x, y)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))
        lhs, rhs = selfadjointness_check(p, BivarPoly.constant(1.0), x * y)
        assert abs(lhs) <= 1e-10 and abs(rhs) <= 1e-8
