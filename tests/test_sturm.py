import copy
import math
import pickle
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from g2cub import sturm
from g2cub.chebyshev import (
    MIndex,
    WeightParams,
    cheb_poly,
    continuous_inner,
    normalization_c,
    star_indices_upto,
    weight_mass,
    weight_w,
)
from g2cub.cubature import reference_integral
from g2cub.lattice import dim_pi_star
from g2cub.poly import BivarPoly, star_key
from g2cub.quad import QuadratureError
from g2cub.sturm import (
    TIE_RTOL,
    apply_L,
    eigen_poly,
    eigen_residual,
    eigenvalue,
    jacobi_poly,
    moments,
    monomial_image,
    operator_coeffs,
    selfadjointness_check,
    star_class,
)

from helpers import fraction_inner, leading_star_term

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


def typed_terms(q):
    return [(e, type(c), repr(c)) for e, c in q.coeffs.items()]


OPERATOR_PARAMETER = st.one_of(
    st.integers(0, 3),
    st.fractions(min_value=-1, max_value=3, max_denominator=12).filter(lambda v: v > -1),
    st.floats(min_value=-1, max_value=3, exclude_min=True),
)


@settings(max_examples=80, deadline=None)
@given(OPERATOR_PARAMETER, OPERATOR_PARAMETER)
@example(0, 2)
@example(Fraction(-1, 2), Fraction(-1, 2))  # B1 and B2 lose their constant terms
@example(-0.5, 1.2)
def test_operator_coeffs_are_the_closed_forms_with_their_types_and_key_order(a, b):
    p = WeightParams(a, b)
    a, b = p.alpha, p.beta

    def poly(terms):  # an integral Fraction as an int; BivarPoly drops a zero term
        return BivarPoly({e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                          for e, c in terms.items()})

    want = (
        poly({(2, 0): -6, (0, 1): 1, (1, 0): 3, (0, 0): 2}),
        poly({(1, 1): -9, (2, 0): 18, (0, 1): -6, (0, 0): -3}),
        poly({(0, 2): -18, (3, 0): 108, (1, 1): -54, (1, 0): -27, (0, 1): -9}),
        poly({(1, 0): 21 + 12 * a + 18 * b, (0, 0): 6 * a + 3}),
        poly({(1, 0): 18 + 36 * a, (0, 1): 45 + 36 * b + 18 * a, (0, 0): 18 * b + 9}),
    )
    assert [typed_terms(c) for c in operator_coeffs(p)] == [typed_terms(c) for c in want]


EXACT_PARAMETER = st.one_of(
    st.integers(0, 3),
    st.integers(0, 3).map(np.int64),
    st.integers(0, 3).map(Fraction),
    st.fractions(min_value=0, max_value=3, max_denominator=6),
)


def exact_spellings(v):
    """Every spelling of the exact parameter v: an int, a numpy int and a
    Fraction where it is integral, the Fraction alone elsewhere."""
    return [v, np.int64(v), Fraction(v)] if type(v) is int else [v]


@settings(max_examples=40, deadline=None)
@given(EXACT_PARAMETER, EXACT_PARAMETER)
@example(Fraction(1), 2)  # int, Fraction and mixed spellings once built three tables
def test_an_exact_pair_takes_one_form_and_one_table(x, y):
    p = WeightParams(x, y)
    for field, v in ((p.alpha, x), (p.beta, y)):
        assert field == v
        assert type(field) is (int if Fraction(v).denominator == 1 else Fraction)
    assert [(type(v), v) for v in p.key()] == [(type(v), v) for v in (p.alpha, p.beta)]
    sturm._table.cache_clear()
    for a in exact_spellings(p.alpha):
        for b in exact_spellings(p.beta):
            q = WeightParams(a, b)
            assert typed_terms(eigen_poly(q, (1, 1))) == typed_terms(eigen_poly(p, (1, 1)))
            assert moments(q, 5) == moments(p, 5)
    assert sturm._table.cache_info().currsize == 1


@settings(max_examples=40, deadline=None)
@given(EXACT_PARAMETER, st.floats(min_value=0, max_value=3))
@example(Fraction(1, 2), 0.5)  # a Fraction lead and float coefficients once
@example(1, 0.3)  # an int lead once
def test_a_float_in_either_slot_makes_a_float_pair(x, f):
    for pair in ((x, f), (f, x)):
        p = WeightParams(*pair)
        assert type(p.alpha) is type(p.beta) is float
        assert (p.alpha, p.beta) == tuple(map(float, pair))
        q = eigen_poly(p, (3, 2))
        assert {type(c) for c in q.coeffs.values()} == {float}
        sturm._table.cache_clear()  # the float pair builds its own table anew
        assert typed_terms(q) == typed_terms(eigen_poly(WeightParams(*map(float, pair)), (3, 2)))


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


def _int(v):
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def exact_type(v):
    """The type an exact value takes: int where it is integral, else Fraction."""
    return int if Fraction(v).denominator == 1 else Fraction


def canonical(poly):
    """Every coefficient exact, an int exactly where it is integral."""
    return all(type(c) is exact_type(c) for c in poly.coeffs.values())


A11 = BivarPoly({(2, 0): Fraction(-6), (0, 1): Fraction(1), (1, 0): Fraction(3), (0, 0): Fraction(2)})
A12 = BivarPoly({(1, 1): Fraction(-9), (2, 0): Fraction(18), (0, 1): Fraction(-6), (0, 0): Fraction(-3)})
A22 = BivarPoly({(0, 2): Fraction(-18), (3, 0): Fraction(108), (1, 1): Fraction(-54),
                 (1, 0): Fraction(-27), (0, 1): Fraction(-9)})


def plain_apply_L(p, q):
    """The operator by plain BivarPoly arithmetic on coefficient
    polynomials written out here, with Fraction constants and B1, B2 in
    the parameters' own arithmetic: a reference for apply_L that shares
    none of its operator record, with each exact result an int where it
    is integral."""
    a, b = p.alpha, p.beta
    one = a * 0 + 1
    B1 = BivarPoly({(1, 0): 21 * one + 12 * a + 18 * b, (0, 0): 6 * a + 3 * one})
    B2 = BivarPoly({(1, 0): 18 * one + 36 * a, (0, 1): 45 * one + 36 * b + 18 * a,
                    (0, 0): 18 * b + 9 * one})
    qx, qy = q.diff_x(), q.diff_y()
    out = (
        -(A11 * qx.diff_x())
        - 2 * (A12 * qx.diff_y())
        - (A22 * qy.diff_y())
        + B1 * qx
        + B2 * qy
    )
    return BivarPoly({e: _int(v) for e, v in out.coeffs.items()})


def typed(poly):
    return sorted((e, type(c), repr(c)) for e, c in poly.coeffs.items())


RATIONAL = st.fractions(min_value=-HALF, max_value=3, max_denominator=30)
COEFFS_EXACT = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=40),
)


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
    assert canonical(got)
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
    assert leading_star_term(q) == (tuple(k), 1)
    assert apply_L(p, q) == eigenvalue(p, k) * q


# every integrable rational pair: alpha > -1, beta > -5/6, alpha + beta > -4/3
INTEGRABLE_PAIR = st.tuples(
    st.fractions(min_value=-1, max_value=3, max_denominator=24),
    st.fractions(min_value=Fraction(-5, 6), max_value=3, max_denominator=24),
).filter(lambda ab: ab[0] > -1 and ab[1] > Fraction(-5, 6) and sum(ab) > Fraction(-4, 3))


@settings(max_examples=25, deadline=None)
@given(INTEGRABLE_PAIR)
@example((Fraction(3, 10), Fraction(6, 5)))
@example((Fraction(1, 4), Fraction(2, 3)))
@example((Fraction(0.17), Fraction(-0.23)))  # the binary value of a float pair
def test_the_papers_identities_hold_exactly_at_rational_parameters(ab):
    # L q = lambda q, orthogonality to every earlier monomial summed in
    # Fractions, and the symmetry of L, all with tolerance 0
    p = WeightParams(*ab)
    order = star_indices_upto(12)
    try:
        members = [eigen_poly(p, k) for k in order]
    except ValueError as exc:
        assert "eigenvalue tie" in str(exc)
        assume(False)
    monomials = [BivarPoly.monomial(*m, 1) for m in order]
    for i, (k, q) in enumerate(zip(order, members)):
        assert apply_L(p, q) == eigenvalue(p, k) * q, k
        assert all(fraction_inner(p, q, m) == 0 for m in monomials[:i]), k
    for i, f in enumerate(monomials):
        for g in monomials[i:]:
            lhs, rhs = selfadjointness_check(p, f, g)
            assert lhs == rhs, (f, g)


@pytest.mark.parametrize("ab", [(Fraction(3, 10), Fraction(6, 5)), (Fraction(-1, 4), Fraction(2, 3)),
                                (Fraction(0.17), Fraction(-0.23))],  # the binary value of a float pair
                         ids=["3/10,6/5", "-1/4,2/3", "binary(0.17,-0.23)"])
def test_x_and_y_times_a_member_expand_within_two_and_three_weighted_degrees(ab):
    # the multiplication relations: x P_k is exactly a sum of the monic
    # members P_j whose weighted degree is within 2 of k's, and y P_k of
    # those within 3; expanded by leading terms down the weighted order,
    # every k through weighted degree 20 reaches the top bound and some k
    # the bottom one
    p = WeightParams(*ab)
    for factor, reach in ((BivarPoly.x(), 2), (BivarPoly.y(), 3)):
        lowest = 0
        for k in star_indices_upto(20):
            rest, steps = factor * eigen_poly(p, k), set()
            while rest:
                j, c = leading_star_term(rest)
                steps.add(MIndex(*j).mdegree - k.mdegree)
                rest = rest - c * eigen_poly(p, j)
            assert max(steps) == reach and min(steps) >= -reach, (k, steps)
            lowest = min(lowest, *steps)
        assert lowest == -reach


EXACT = st.one_of(st.integers(0, 3), RATIONAL)


@settings(max_examples=60, deadline=None)
@given(
    EXACT,
    EXACT,
    st.sampled_from(star_indices_upto(12)),
    st.one_of(st.integers(1, 9), st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)),
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 4)), COEFFS_EXACT, max_size=8),
)
def test_exact_results_are_ints_exactly_where_integral(a, b, k, lead, coeffs):
    # the same values as int and as Fraction parameters give the same typed results
    forms = (WeightParams(_int(Fraction(a)), _int(Fraction(b))), frac_params(a, b))
    q = BivarPoly(coeffs)
    results = []
    for p in forms:
        lam = eigenvalue(p, k)
        poly = eigen_poly(p, k, lead)
        image = apply_L(p, poly)
        assert type(lam) is exact_type(lam)
        assert canonical(poly) and canonical(image) and canonical(apply_L(p, q))
        assert image == lam * poly
        results.append((type(lam), repr(lam), in_order(poly), typed(image), typed(apply_L(p, q))))
    assert results[0] == results[1]


def test_apply_L_reads_no_lowered_image():
    # apply_L differentiates, so it stays an independent check of eigen_poly
    p = cold(frac_params(Fraction(1, 4), Fraction(2, 3)))
    q = eigen_poly(p, (3, 2))
    table = sturm._table(p.alpha, p.beta)
    saved, table.lowered = table.lowered, None
    try:
        assert apply_L(p, q) == eigenvalue(p, (3, 2)) * q
    finally:
        table.lowered = saved


def test_cheb_poly_coefficients_are_ints_through_degree_36():
    count = bits = 0
    for p in ALL_HALF:
        for k in star_indices_upto(36):
            coeffs = cheb_poly(p, k).coeffs.values()
            assert all(type(c) is int for c in coeffs), (p, k)
            count += len(coeffs)
            bits = max(bits, *(abs(c).bit_length() for c in coeffs))
    assert (count, bits) == (30180, 51)


def test_eigen_poly_nonintegral_coefficients_at_rational_parameters():
    # the back-substitution's integer division leaves a remainder here
    p = frac_params(Fraction(3, 10), Fraction(6, 5))
    for k in star_indices_upto(12):
        q = eigen_poly(p, k)
        assert canonical(q)
        if k != (0, 0):
            assert any(c.denominator > 1 for c in q.coeffs.values()), k
        assert plain_apply_L(p, q) == eigenvalue(p, k) * q
        assert apply_L(p, q) == eigenvalue(p, k) * q


def test_eigen_poly_exact_and_float_kept_apart():
    exact = eigen_poly(MM, (2, 0))
    numeric = eigen_poly(WeightParams(-0.5, -0.5), (2, 0))
    assert canonical(exact)
    assert all(isinstance(c, float) for c in numeric.coeffs.values())


def test_eigen_poly_rejects_a_float_lead_at_rational_parameters():
    with pytest.raises(TypeError, match="int or Fraction"):
        eigen_poly(MM, (2, 0), lead=2.5)
    with pytest.raises(TypeError, match="int or Fraction"):
        eigen_poly(WeightParams(0, 0), (1, 1), lead=1.0)
    assert eigen_poly(MM, (2, 0), lead=Fraction(5, 2)) == Fraction(5, 2) * eigen_poly(MM, (2, 0))
    assert leading_star_term(eigen_poly(WeightParams(-0.5, -0.5), (2, 0), lead=2.5)) == ((2, 0), 2.5)


@pytest.mark.parametrize("p, k", [
    (WeightParams(Fraction(1e308), 0), (2, 0)),
    (WeightParams(Fraction(1e308), 0), (0, 1)),
    (WeightParams(10 ** 300, Fraction(1, 3)), (1, 1)),
])
def test_exact_tables_bound_ties_on_ints(p, k):
    # at alpha ~ 1e308 the scaled eigenvalues are ints beyond the float range;
    # at (10**300, 1/3) they are ints over D = 6
    q = eigen_poly(p, k)
    assert apply_L(p, q) == eigenvalue(p, k) * q


def test_an_exact_tie_beyond_the_float_range_still_raises():
    # within a degree class the gaps do not grow with alpha: ~1e-307 of lambda here
    with pytest.raises(ValueError, match="eigenvalue tie"):
        eigen_poly(WeightParams(Fraction(1e308), 0), (3, 2))


@pytest.mark.parametrize("v", [10 ** 400, Fraction(10 ** 400)], ids=["int", "fraction"])
def test_parameters_beyond_the_float_range_raise_value_error(v):
    with pytest.raises(ValueError, match="alpha must be finite as a float"):
        WeightParams(v, 0)
    with pytest.raises(ValueError, match="beta must be finite as a float"):
        WeightParams(0, v)


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
            _, lead = leading_star_term(cheb)
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
    # at rational parameters apply_L is exact as well as the pairing, so the
    # two orderings agree exactly, here on products of weighted degree 26 and 28
    p = WeightParams(Fraction(1, 2), Fraction(1, 2))
    f, g = cheb_poly(p, (4, 2)), cheb_poly(p, (3, 2))
    assert selfadjointness_check(p, f, g) == (0.0, 0.0)
    lhs, rhs = selfadjointness_check(p, f, f)
    assert lhs == rhs > 0


# the table path against the dict-based back-substitution ---------------------


def oracle_eigen_poly(p, k, lead=1, images=None):
    """The back-substitution without the per-parameter table, as a reference
    for it: it walks the star_class list of every weighted degree from k's
    down, with a dict accumulator, and takes eigenvalues and lowered images
    from the public `eigenvalue` and `monomial_image`, scaled by
    D = 2 lcm(den alpha, den beta) to ints for rational parameters (D = 1
    otherwise).  Calls at the same parameters may share one `images` dict."""
    k = MIndex(*k)
    a, b = p.alpha, p.beta
    rational = isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))
    D = 2 * math.lcm(Fraction(a).denominator, Fraction(b).denominator) if rational else 1
    images = {} if images is None else images

    def image(m):
        if m not in images:
            lowered = [(e, _int(D * c)) for e, c in monomial_image(p, *m) if e != m]
            images[m] = (_int(D * eigenvalue(p, m)), lowered)
        return images[m]

    lam = image(k)[0]
    tie = TIE_RTOL * max(D, abs(float(lam)))
    coeffs = {k: _int(lead)}
    acc = {}
    for d in range(k.mdegree, -1, -1):
        for m in reversed(star_class(d)):
            if m != k:
                r = acc.pop(m, 0)
                if not r:
                    continue
                gap = lam - image(m)[0]
                if abs(float(gap)) <= tie:
                    raise ValueError(f"eigenvalue tie between {tuple(k)} and {tuple(m)}")
                if type(r) is int and type(gap) is int:
                    quo, rem = divmod(r, gap)
                    coeffs[m] = Fraction(r, gap) if rem else quo
                else:
                    coeffs[m] = _int(r / gap)
            c = coeffs[m]
            for e, v in image(m)[1]:
                acc[e] = acc.get(e, 0) + c * v
    if rational:
        coeffs = {m: _int(c) for m, c in coeffs.items()}
    else:
        one = a * 0 + 1
        coeffs = {m: c * one for m, c in coeffs.items()}
    return BivarPoly(coeffs)


def cold(p):
    """Drop the tables so that the next call at p starts from nothing."""
    sturm._table.cache_clear()
    return p


def in_order(poly):
    """Terms in storage order with their types and reprs: equal only when
    bit for bit equal and summed in the same order by `BivarPoly.__call__`."""
    return [(e, type(c), repr(c)) for e, c in poly.coeffs.items()]


def outcome(fn, *args):
    try:
        return in_order(fn(*args))
    except ValueError as exc:
        assert "tie" in str(exc)
        return "tie"


def check_against_oracle(p, k, lead=1):
    want = outcome(oracle_eigen_poly, p, k, lead)
    got = outcome(eigen_poly, p, k, lead)
    assert got == want, (p, k, lead)
    if want != "tie":
        assert all(c for c in eigen_poly(p, k, lead).coeffs.values())


TO_24 = star_indices_upto(24)


def interleaved(draw):
    """Three indices through weighted degree 24, asked for as middle, lowest,
    highest in the order, so the table grows, is read below its top, then
    grows again."""
    lo, mid, hi = sorted(draw(st.lists(st.sampled_from(TO_24), min_size=3, max_size=3)), key=star_key)
    return mid, lo, hi


OPEN_RATIONAL = st.fractions(min_value=-1, max_value=2, max_denominator=12).filter(lambda v: -1 < v < 2)
LEADS = st.one_of(st.integers(-50, 50), st.fractions(min_value=-20, max_value=20, max_denominator=40)).filter(bool)


@settings(max_examples=60, deadline=None)
@given(OPEN_RATIONAL, OPEN_RATIONAL, LEADS, st.data())
def test_table_matches_the_oracle_at_rational_parameters(a, b, lead, data):
    # a Fraction lead starts the coefficients' common denominator above 1
    p = cold(frac_params(a, b))
    reached = -1
    for k in interleaved(data.draw):
        check_against_oracle(p, k, lead)
        # the order grows in place only as far as asked, and is never rebuilt
        reached = max(reached, k.mdegree)
        assert sturm._table(p.alpha, p.beta).order == [tuple(m) for m in star_indices_upto(reached)]


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-0.99, max_value=1.99),
    st.floats(min_value=-0.99, max_value=1.99),
    st.data(),
)
def test_table_matches_the_oracle_bit_for_bit_at_float_parameters(a, b, data):
    p = cold(WeightParams(a, b))
    for k in interleaved(data.draw):
        check_against_oracle(p, k)


def test_table_matches_the_oracle_for_the_four_families_through_degree_36():
    count = 0
    for p in ALL_HALF:
        images = {}
        for k in reversed(star_indices_upto(36)):
            got = cheb_poly(p, k)
            _, lead = leading_star_term(got)
            assert in_order(got) == in_order(oracle_eigen_poly(p, k, lead, images)), (p, k)
            count += len(got.coeffs)
    assert count == 30180


# every (alpha, beta, index) with alpha, beta in (-1, 2), denominators up to
# 12 and the index through weighted degree 24 whose back-substitution ties
TIES = (
    ("-11/12", "-8/9", (2, 0)), ("-11/12", "-5/9", (1, 0)), ("-9/10", "-9/10", (2, 0)),
    ("-9/10", "-4/5", (0, 1)), ("-7/8", "-11/12", (2, 0)), ("-7/8", "-7/12", (1, 0)),
    ("-3/4", "-7/8", (0, 1)), ("-3/4", "-2/3", (1, 0)), ("-7/10", "-9/10", (0, 1)),
    ("-7/10", "-7/10", (1, 0)), ("-2/3", "-11/12", (0, 1)), ("-5/8", "-3/4", (1, 0)),
    ("-7/12", "-7/9", (1, 0)), ("-5/12", "-8/9", (1, 0)), ("-2/5", "-9/10", (1, 0)),
    ("-3/8", "-11/12", (1, 0)),
)


@pytest.mark.parametrize("a, b, k", TIES)
def test_ties_raise_on_a_table_grown_past_them(a, b, k):
    for p in (frac_params(Fraction(a), Fraction(b)), WeightParams(float(Fraction(a)), float(Fraction(b)))):
        cold(p)
        for high in ((12, 0), (0, 8)):
            check_against_oracle(p, high)
        check_against_oracle(p, k)
        if isinstance(p.alpha, Fraction):
            assert outcome(eigen_poly, p, k) == "tie"


INTEGRABLE = st.fractions(min_value=Fraction(-1, 2), max_value=2, max_denominator=12)


@settings(max_examples=25, deadline=None)
@given(INTEGRABLE, INTEGRABLE, st.data())
def test_moments_from_a_cold_table_equal_moments_after_eigen_poly(a, b, data):
    p = cold(frac_params(a, b))
    want = list(moments(p, 24).items())
    cold(p)
    mid, lo, hi = interleaved(data.draw)
    moments(p, lo.mdegree)
    for k in (hi, mid):
        eigen_poly(p, k)
    assert list(moments(p, 24).items()) == want
    for k in (lo, mid, hi):
        check_against_oracle(p, k)


def fraction_moments(p, max_mdeg):
    """The moment recursion written out in Fractions: mu_m = -sum_e c_e mu_e
    / lambda_m over the image of x^m without its diagonal term, at the
    parameters' exact binary values."""
    q = WeightParams(*p.key())
    mu = {(0, 0): Fraction(1)}
    for m in star_indices_upto(max_mdeg)[1:]:
        image = sum((Fraction(c) * mu[e] for e, c in monomial_image(q, *m) if e != m), Fraction(0))
        mu[tuple(m)] = -image / eigenvalue(q, m)
    return mu


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.tuples(INTEGRABLE, INTEGRABLE),
              st.tuples(st.floats(min_value=-0.5, max_value=2), st.floats(min_value=-0.5, max_value=2))),
    st.integers(0, 24),
    st.integers(0, 24),
)
@example((Fraction(-1, 2), Fraction(0)), 0, 4)  # mu_(1,0) = 0: its image has no lower terms
def test_moments_match_a_plain_fraction_recursion(ab, first, second):
    p = WeightParams(*ab)
    top = max(first, second)
    want = list(fraction_moments(p, top).items())
    cold(p)
    whole = list(moments(p, top).items())
    cold(p)
    moments(p, first)  # the table grown in two steps, the second maybe a no-op
    assert list(moments(p, second).items())[:len(want)] == whole == want
    assert all(type(v) is Fraction for _, v in whole)
    ints, den = sturm._integer_moments(p, top)
    assert [(e, Fraction(n, den)) for e, n in ints.items()] == want


@pytest.mark.parametrize("p", [WeightParams(0.3, 1.2), frac_params(Fraction(1, 4), Fraction(2, 3))],
                         ids=["binary", "rational"])
def test_moments_grown_one_degree_at_a_time_stay_over_the_least_denominator(p):
    want = list(fraction_moments(p, 60).items())
    cold(p)
    dens = set()
    for d in range(61):
        assert list(moments(p, d).items()) == want[:dim_pi_star(d)], d
        ints, den = sturm._integer_moments(p, d)
        assert math.gcd(den, *ints.values()) == 1, d
        dens.add(den)
    assert len(dens) > 31  # the denominator grew at more than half of the 60 steps


def test_moments_through_weighted_degree_84_regrown_in_steps_of_12():
    # the moments' common denominator changes at 58 of the 84 degree steps,
    # and a table grown 12 degrees at a time must keep every change
    p = WeightParams(0.3, 1.2)
    want = list(fraction_moments(p, 84).items())
    assert list(moments(p, 84).items()) == want
    cold(p)
    for d in range(0, 85, 12):
        grown = moments(p, d)
    assert list(grown.items()) == want


@pytest.mark.parametrize("p", [frac_params(Fraction(3, 10), Fraction(6, 5)), WeightParams(0.3, 1.2)],
                         ids=["exact", "float"])
def test_eigen_poly_with_zero_lead_stores_no_coefficients(p):
    leads = (0, Fraction(0)) if isinstance(p.alpha, Fraction) else (0, 0.0)
    for lead in leads:
        for k in ((0, 0), (3, 2)):
            q = eigen_poly(p, k, lead=lead)
            assert q.coeffs == {}
            assert q == BivarPoly.zero()


COEFFS = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=40),
    st.floats(min_value=-20, max_value=20),
)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(st.integers(0, 2), st.fractions(min_value=-HALF, max_value=3, max_denominator=12)),
    st.fractions(min_value=-HALF, max_value=3, max_denominator=12),
    st.sampled_from(["int", "fraction", "float", "mixed"]),
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 4)), COEFFS, max_size=10),
)
def test_apply_L_matches_the_five_product_form(a, b, kind, coeffs):
    # int and Fraction coefficients, with denominators up to 40, against
    # int and Fraction parameters, and the same q against their floats
    convert = {"int": lambda v: int(v), "fraction": Fraction, "float": float, "mixed": lambda v: v}
    q = BivarPoly({e: convert[kind](v) for e, v in coeffs.items()})
    for p in (WeightParams(a, b), WeightParams(float(a), float(b))):
        got = apply_L(p, q)
        assert typed(got) == typed(plain_apply_L(p, q))
        assert all(c for c in got.coeffs.values())


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(st.tuples(RATIONAL, RATIONAL), st.tuples(st.floats(-HALF, 3), st.floats(-HALF, 3))),
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 4)), st.floats(-20, 20), max_size=10),
)
def test_apply_L_keeps_the_term_order_and_bits_of_plain_arithmetic(ab, coeffs):
    # `typed` sorts the terms; their storage order is what `__call__` sums in
    p, q = WeightParams(*ab), BivarPoly(coeffs)
    got, want = apply_L(p, q), plain_apply_L(p, q)
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert in_order(got) == in_order(want)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GENERAL + ALL_HALF + (frac_params(Fraction(1, 4), Fraction(2, 3)),)),
    st.sampled_from(star_indices_upto(12)),
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 4)), COEFFS, max_size=10),
)
def test_eigen_residual_is_the_polynomial_difference_bit_for_bit(p, k, coeffs):
    q = BivarPoly(coeffs)
    lam = float(eigenvalue(p, k))
    resid = apply_L(p, q) - lam * q.to_float()
    want = resid.max_abs_coeff() / max(1.0, abs(lam) * q.max_abs_coeff())
    assert eigen_residual(p, k, q).hex() == want.hex()



def test_eigen_residual_at_the_eigenvalue_one_is_the_polynomial_difference_bit_for_bit():
    # lambda = 1 at (-2/3, -2/3), (1, 0): the float factor 1.0 turns q's
    # Fraction coefficients into floats in the difference, and so in the residual
    p = WeightParams(Fraction(-2, 3), Fraction(-2, 3))
    assert eigenvalue(p, (1, 0)) == 1
    # the residual is 14.777777777777777; with q kept exact it would be ...779
    q = BivarPoly({(0, 1): Fraction(25, 26), (3, 0): Fraction(7, 18)})
    resid = apply_L(p, q) - 1.0 * q
    want = resid.max_abs_coeff() / max(1.0, q.max_abs_coeff())
    assert eigen_residual(p, (1, 0), q).hex() == want.hex()

POLY_COEFFS = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)), COEFFS, max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.tuples(INTEGRABLE, INTEGRABLE),
              st.tuples(st.floats(min_value=-0.5, max_value=2), st.floats(min_value=-0.5, max_value=2))),
    POLY_COEFFS,
    POLY_COEFFS,
)
def test_continuous_inner_of_polynomials_is_the_exact_pairing_rounded_once(ab, fc, gc):
    p, f, g = WeightParams(*ab), BivarPoly(fc), BivarPoly(gc)
    assert continuous_inner(p, f, g) == continuous_inner(p, g, f) == float(fraction_inner(p, f, g))
    assert continuous_inner(p, f, f) >= 0


def test_operator_coefficients_are_ints_at_half_integer_and_int_pairs():
    for p in ALL_HALF + (WeightParams(0, 0), WeightParams(2, 1), frac_params(1, 3)):
        c = operator_coeffs(p)
        assert all(type(v) is int for poly in c for v in poly.coeffs.values()), p
    half = operator_coeffs(WeightParams(HALF, HALF))
    assert half.B1 == BivarPoly({(1, 0): 36, (0, 0): 6})
    assert half.B2 == BivarPoly({(1, 0): 36, (0, 1): 72, (0, 0): 18})
    assert operator_coeffs(WeightParams(HALF, HALF)) is half  # built once per pair


def test_apply_L_with_denominators_that_do_not_divide_D():
    p = frac_params(Fraction(1, 4), Fraction(2, 3))  # D = 24
    q = BivarPoly({(3, 1): Fraction(5, 7), (1, 2): Fraction(-3, 11), (2, 0): 4, (0, 1): Fraction(1, 8)})
    got = apply_L(p, q)
    assert typed(got) == typed(plain_apply_L(p, q))
    assert canonical(got)
    assert any(c.denominator % 7 == 0 for c in got.coeffs.values())


def test_table_cache_keeps_exact_and_float_parameters_apart():
    sturm._table.cache_clear()
    exact, inexact = WeightParams(HALF, HALF), WeightParams(0.5, 0.5)
    eigen_poly(exact, (2, 1))
    eigen_poly(inexact, (2, 1))
    info = sturm._table.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert sturm._table(HALF, HALF).D == 4 and sturm._table(0.5, 0.5).D == 1
    hits = sturm._table.cache_info().hits
    eigen_poly(exact, (2, 1))
    assert sturm._table.cache_info().hits == hits + 1
    assert sturm._table.cache_info().currsize == 2


def test_a_sweep_over_many_float_pairs_holds_at_most_32_tables():
    # each float pair's table through weighted degree 12 holds ~29 KB; unbounded,
    # the second 50 pairs would double the memory the first 50 left behind
    rng = random.Random(951)
    sturm._table.cache_clear()
    held = []
    tracemalloc.start()
    try:
        for count in range(1, 101):
            p = WeightParams(rng.uniform(-0.9, 3.0), rng.uniform(-0.9, 3.0))
            for k in star_indices_upto(12):
                eigen_poly(p, k)
            if count % 50 == 0:
                held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    info = sturm._table.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (32, 32, 100)
    assert held[1] - held[0] < 0.2 * held[0], held


def snapshot(p, degree=12):
    """The type and repr of every coefficient, eigenvalue and moment of p
    through the weighted degree, coefficients in storage order."""
    order = star_indices_upto(degree)
    return ([(k, e, type(c), repr(c)) for k in order for e, c in eigen_poly(p, k).coeffs.items()],
            [(type(lam), repr(lam)) for lam in (eigenvalue(p, k) for k in order)],
            [(e, type(mu), repr(mu)) for e, mu in moments(p, degree).items()])


def test_an_evicted_table_is_rebuilt_with_the_same_results():
    pairs = (frac_params(Fraction(3, 10), Fraction(6, 5)), WeightParams(0.3, 1.2),
             WeightParams(0.5, 0.5), WeightParams(HALF, HALF))
    sturm._table.cache_clear()
    before = [snapshot(p) for p in pairs]
    tables = [sturm._table(p.alpha, p.beta) for p in pairs]
    # equal and equally hashed, the two spellings of (1/2, 1/2) keep their own tables
    assert pairs[2] == pairs[3] and hash(pairs[2]) == hash(pairs[3])
    assert tables[2] is not tables[3] and before[2] != before[3]
    for i in range(32):  # 32 other tables evict every one of them
        eigen_poly(WeightParams(i + 0.25, 0.5), (1, 0))
    assert sturm._table.cache_info().currsize == 32
    assert [snapshot(p) for p in pairs] == before
    assert all(sturm._table(p.alpha, p.beta) is not t for p, t in zip(pairs, tables))


# monomial images and eigenvalues: one formula for lambda ----------------------

ABOVE_MINUS_ONE = st.fractions(min_value=-1, max_value=3, max_denominator=12).filter(lambda v: v > -1)
FLOAT_PARAM = st.floats(min_value=-0.99, max_value=3)
UPTO_24 = st.sampled_from(star_indices_upto(24))


def starts_with_eigenvalue(image, p, m):
    """The image's first term is ((j, k), lambda), or lambda is 0 and absent."""
    lam = eigenvalue(p, m)
    if lam:
        assert image[0] == (tuple(m), lam)
        return image[0][1], lam
    assert tuple(m) not in dict(image)
    return lam, lam


@settings(max_examples=80, deadline=None)
@given(ABOVE_MINUS_ONE, ABOVE_MINUS_ONE, UPTO_24)
def test_monomial_image_is_the_eigenvalue_then_apply_L_in_ints_where_integral(a, b, m):
    p = WeightParams(a, b)
    image = monomial_image(p, *m)
    starts_with_eigenvalue(image, p, m)
    assert dict(image) == apply_L(p, BivarPoly.monomial(*m)).coeffs
    assert all(type(c) is int or c.denominator > 1 for _, c in image)


def at_the_general_params_pairs(test):
    """test with one explicit example per general-params pair and index
    through weighted degree 24; (0, 0) is left out, its eigenvalue 0 is
    dropped from the image."""
    for ab in ((0.3, 1.2), (-0.4, 0.7), (0.17, -0.23)):
        for m in star_indices_upto(24)[1:]:
            test = example(*ab, m)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(FLOAT_PARAM, FLOAT_PARAM, UPTO_24)
@at_the_general_params_pairs
def test_monomial_image_diagonal_has_the_bits_of_eigenvalue_at_float_parameters(a, b, m):
    p = WeightParams(a, b)
    got, lam = starts_with_eigenvalue(monomial_image(p, *m), p, m)
    assert type(got) is float and got.hex() == lam.hex()


def test_monomial_image_exponents_go_through_MIndex_of():
    p = WeightParams(HALF, HALF)
    image = monomial_image(p, np.int64(4), np.int64(2))
    assert image == monomial_image(p, 4, 2)
    assert all(type(i) is int for e, _ in image for i in e)
    with pytest.raises(TypeError):
        monomial_image(p, 2.0, 1)


def closed_form_eigenvalue(a, b, k1, k2):
    """lambda = (3/2) m (m + 5 + 4 alpha + 6 beta) + (9/2) k2 (k2 + 1 + 2 beta),
    m = 2 k1 + 3 k2, exactly in Fractions."""
    a, b, m = Fraction(a), Fraction(b), 2 * k1 + 3 * k2
    return Fraction(3, 2) * m * (m + 5 + 4 * a + 6 * b) + Fraction(9, 2) * k2 * (k2 + 1 + 2 * b)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.one_of(st.integers(0, 5), ABOVE_MINUS_ONE), ABOVE_MINUS_ONE),
        st.tuples(FLOAT_PARAM, FLOAT_PARAM),
    ),
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
)
def test_eigenvalue_matches_the_closed_form(ab, k):
    p, want = WeightParams(*ab), closed_form_eigenvalue(*ab, *k)
    lam = eigenvalue(p, k)
    if isinstance(ab[0], float):
        a, b = ab
        m = 2 * k[0] + 3 * k[1]
        lam2 = 3 * m * ((m + 5) + 4 * a + 6 * b) + 9 * k[1] * ((k[1] + 1) + 2 * b)
        assert type(lam) is float and lam.hex() == (0.5 * lam2).hex()
        scale = closed_form_eigenvalue(abs(a), abs(b), *k)
        assert abs(Fraction(lam) - want) <= 1e-14 * scale
    else:
        assert lam == want
        assert type(lam) is (int if want.denominator == 1 else Fraction)


OVERFLOWING = WeightParams(1e308, 0.0)


@pytest.mark.parametrize("fn, args", [
    (eigenvalue, ((0, 1),)),
    (eigenvalue, ((1, 0),)),
    (monomial_image, (1, 0)),
    (eigen_poly, ((1, 0),)),
    (jacobi_poly, ((3, 2),)),
])
def test_overflowing_float_parameters_raise_value_error(fn, args):
    with pytest.raises(ValueError, match=r"\(1e\+308, 0\.0\)"):
        fn(OVERFLOWING, *args)


@pytest.mark.parametrize("a, b", [(1e308, 0.0), (0.0, 1e308), (1e308, 1e308)])
def test_the_constant_member_at_huge_float_parameters(a, b):
    # a term whose integer factor is 0 adds nothing: 0 * inf once made
    # lambda_(0,0) nan and put nan image terms in the table
    p = WeightParams(a, b)
    assert eigenvalue(p, (0, 0)) == 0
    assert eigen_poly(p, (0, 0)) == 1
    assert sturm._table(p.alpha, p.beta).lowered == [[]]


def test_an_overflow_part_way_up_leaves_the_table_whole():
    # 2 lambda ~ 1.8e307 (m + k2) here: in weighted degree 8, the eigenvalue
    # of (4, 0) is finite and that of (1, 2) overflows
    p = WeightParams(0.0, 1e306)
    for _ in range(2):
        with pytest.raises(ValueError, match="overflow"):
            eigen_poly(p, (1, 2))
        table = sturm._table(p.alpha, p.beta)
        assert table.degree == 7
        assert table.order == [tuple(m) for m in star_indices_upto(7)]
        assert len(table.lam) == len(table.lowered) == len(table.order)



# from just above -1 up to 1e300, as an int, a Fraction or a float
LARGE_PARAMETER = st.one_of(
    st.integers(0, 10 ** 300),
    st.fractions(min_value=-1, max_value=10 ** 300, max_denominator=1000).filter(lambda v: v > -1),
    st.floats(min_value=-1, max_value=1e300, exclude_min=True).map(Fraction),
    st.floats(min_value=-1, max_value=1e300, exclude_min=True),
)


@settings(max_examples=60, deadline=None)
@given(LARGE_PARAMETER, LARGE_PARAMETER)
@example(10 ** 300, 0)
@example(0.0, 1e300)
@example(Fraction(1e300), Fraction(-999, 1000))
@example(1e300, 1e300)
def test_eigen_check_returns_or_raises_value_error_over_the_parameter_range(a, b):
    # a tie or an overflow is a ValueError; an OverflowError, a ZeroDivisionError
    # or a RuntimeWarning (an error under pytest's filterwarnings) fails the test
    p = WeightParams(a, b)
    for k in star_indices_upto(8):
        try:
            q = eigen_poly(p, k)
            apply_L(p, q)
            resid = eigen_residual(p, k, q)
        except ValueError:
            continue
        assert math.isfinite(resid) and resid <= 1e-8, (a, b, k, resid)


RANGE_POLY = BivarPoly({(0, 0): 3, (1, 0): 0.25, (2, 1): Fraction(-1, 7)})
RANGE_POINT = (0.26967233145831593, -1 / 3)  # xy_map(make_point(0.4, 0.1)), interior


def names_the_parameters(p, exc):
    """alpha and beta each appear in the message, as given or as floats."""
    return all(str(v) in str(exc) or str(float(v)) in str(exc) for v in (p.alpha, p.beta))


@settings(max_examples=80, deadline=None)
@given(LARGE_PARAMETER, LARGE_PARAMETER)
@example(200, 150)  # weight_mass and normalization_c once underflowed to 0.0
@example(1000, 0)  # every weight of quad.rule underflows
@example(1e300, 1e300)  # the Jacobi matrices of quad.rule overflow
@example(36.0, 36.0)  # the quadrature of a callable does not converge
@example(300.0, 300.0)  # weight_w ~476.43, where (4 pi^2)^(a+b) alone overflowed
@example(400.0, 0.0)  # weight_w ~2.362e-119, where (4 pi^2)^(a+b) alone overflowed
def test_the_open_functions_return_finite_values_or_name_the_parameters_over_the_range(a, b):
    p = WeightParams(a, b)
    calls = [
        ("weight_w", lambda: [weight_w(p, *RANGE_POINT)]),
        ("weight_mass", lambda: [weight_mass(p)]),
        ("normalization_c", lambda: [normalization_c(p)]),
        ("moments", lambda: list(moments(p, 4).values())),
        ("reference_integral", lambda: [reference_integral(p, RANGE_POLY)]),
        ("reference_integral", lambda: [reference_integral(p, lambda x, y: 1.0 + x * y)]),
    ]
    for k in star_indices_upto(4):
        calls.append(("eigenvalue", lambda k=k: [eigenvalue(p, k)]))
        calls.append(("jacobi_poly", lambda k=k: list(jacobi_poly(p, k).coeffs.values())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls:
            try:
                values = call()
            except (ValueError, QuadratureError) as exc:
                assert names_the_parameters(p, exc), (name, str(exc))
                continue
            assert all(math.isfinite(v) for v in values), (name, a, b, values)
            if name in ("weight_w", "weight_mass", "normalization_c"):
                assert values[0] > 0, (name, a, b)


def test_weight_params_keep_equality_hash_repr_and_immutability_through_pickle_and_deepcopy():
    exact, approx = WeightParams(Fraction(1, 2), Fraction(1, 2)), WeightParams(0.5, 0.5)
    assert approx == exact and hash(approx) == hash(exact)
    assert approx != (0.5, 0.5) and approx != WeightParams(0.5, -0.5)
    assert repr(approx) == "WeightParams(alpha=0.5, beta=0.5)"
    assert repr(exact) == "WeightParams(alpha=Fraction(1, 2), beta=Fraction(1, 2))"
    assert repr(WeightParams(1, 0.25)) == "WeightParams(alpha=1.0, beta=0.25)"
    for name in ("alpha", "beta", "family", "other"):
        with pytest.raises(AttributeError):
            setattr(approx, name, 1)
        with pytest.raises(AttributeError):
            delattr(approx, name)
    for p in (exact, approx, WeightParams(Fraction(3, 10), 2), WeightParams(0.3, 1.2)):
        for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert copied == p and hash(copied) == hash(p) and repr(copied) == repr(p)
            assert copied.family is p.family
