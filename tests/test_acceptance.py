"""Acceptance suite: one test per criterion, each printing a PASS line
with its observed worst error once its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from g2cub.chebyshev import (
    WeightParams,
    cheb_poly,
    continuous_inner,
    orthogonality_constant,
    star_class,
    star_indices_upto,
    xy_map,
)
from g2cub.cli import main as cli_main
from g2cub.coords import cart_to_homog, make_index, make_point, point_from_index
from g2cub.cubature import (
    _build_rule,
    integrate_poly,
    make_rule,
    reference_integral,
    variety_check,
)
from g2cub.gentrig import TrigFamily, eval as trig, laplace_eigenvalue, partial_t
from g2cub.lattice import (
    dim_pi_star,
    discrete_ortho_constant,
    enum_gamma,
    enum_upsilon,
    upsilon_weight,
)
from g2cub.poly import BivarPoly
from g2cub.sturm import apply_L, eigen_residual, eigenvalue, jacobi_poly, operator_coeffs

HALF = Fraction(1, 2)
HALF_PARAMS = tuple(WeightParams(sa * HALF, sb * HALF) for sa in (-1, 1) for sb in (-1, 1))


def report(name, detail):
    print(f"{name}: PASS ({detail})")


def interior_points(count, seed):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        t2 = rng.uniform(0.02, 0.47)
        t1 = rng.uniform(t2 + 0.02, 1 - t2 - 0.02)
        pts.append(make_point(t1, t2))
    return pts


def test_ac01_dimension_table():
    expected = [1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 16, 19]
    assert [dim_pi_star(n) for n in range(1, 13)] == expected
    for n in range(61):
        brute = sum(
            1 for i in range(n + 1) for j in range(n + 1) if 2 * i + 3 * j <= n
        )
        assert dim_pi_star(n) == brute
    report("AC01 dimension table", "n<=12 table exact, brute force to n=60")


EXPLICIT = {
    # (2a, 2b) -> {k: {exponent: coefficient}}
    (-1, -1): {
        (0, 0): {(0, 0): 1}, (1, 0): {(1, 0): 1}, (0, 1): {(0, 1): 1},
        (2, 0): {(2, 0): 6, (1, 0): -2, (0, 1): -2, (0, 0): -1},
        (1, 1): {(1, 1): 3, (2, 0): -6, (1, 0): 1, (0, 1): 2, (0, 0): 1},
        (3, 0): {(3, 0): 36, (1, 1): -18, (1, 0): -9, (0, 1): -6, (0, 0): -2},
        (0, 2): {(0, 2): 6, (0, 1): 10, (3, 0): -72, (1, 1): 36, (1, 0): 18, (0, 0): 3},
    },
    (1, -1): {
        (0, 0): {(0, 0): 1}, (1, 0): {(1, 0): 6, (0, 0): 2},
        (0, 1): {(1, 0): 6, (0, 1): 3, (0, 0): 1},
        (2, 0): {(2, 0): 36, (0, 1): -6, (0, 0): -3},
        (1, 1): {(1, 1): 18, (1, 0): 6, (0, 1): 9, (0, 0): 2},
        (3, 0): {(3, 0): 216, (1, 1): -72, (1, 0): -48, (0, 1): -24, (0, 0): -8},
        (0, 2): {(1, 1): 126, (0, 2): 18, (0, 1): 36, (1, 0): 54, (0, 0): 10, (3, 0): -216},
    },
    (-1, 1): {
        (0, 0): {(0, 0): 1}, (1, 0): {(1, 0): 3},
        (0, 1): {(0, 1): 6, (0, 0): 2},
        (2, 0): {(2, 0): 18, (1, 0): -3, (0, 1): -6, (0, 0): -3},
        (1, 1): {(1, 1): 18, (1, 0): 6, (2, 0): -18, (0, 1): 6, (0, 0): 3},
        (3, 0): {(3, 0): 108, (1, 1): -54, (1, 0): -27, (0, 1): -12, (0, 0): -5},
        (0, 2): {(0, 2): 36, (0, 1): 36, (3, 0): -216, (1, 1): 108, (1, 0): 54, (0, 0): 9},
    },
    (1, 1): {
        (0, 0): {(0, 0): 1}, (1, 0): {(1, 0): 6, (0, 0): 1},
        (0, 1): {(1, 0): 6, (0, 1): 6, (0, 0): 2},
        (2, 0): {(2, 0): 36, (0, 1): -6, (0, 0): -3},
        (1, 1): {(1, 1): 36, (1, 0): 12, (0, 1): 12, (0, 0): 4},
        (3, 0): {(3, 0): 216, (1, 1): -72, (1, 0): -42, (0, 1): -18, (0, 0): -7},
        (0, 2): {(1, 1): 144, (0, 2): 36, (0, 1): 42, (3, 0): -216, (1, 0): 60, (0, 0): 11},
    },
}


def test_ac02_explicit_polynomials():
    count = 0
    for p in HALF_PARAMS:
        table = EXPLICIT[(int(2 * p.alpha), int(2 * p.beta))]
        for k, coeffs in table.items():
            expect = BivarPoly({e: Fraction(c) for e, c in coeffs.items()})
            assert cheb_poly(p, k) == expect, (p, k)
            count += 1
    report("AC02 explicit polynomials", f"{count} exact coefficient tables")


def test_ac03_exact_eigen_identity():
    start = time.time()
    cases = 0
    for p in HALF_PARAMS:
        for k in star_indices_upto(12):
            poly = cheb_poly(p, k)
            assert apply_L(p, poly) == eigenvalue(p, k) * poly
            cases += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    report("AC03 exact eigen identity", f"{cases} cases in {elapsed:.2f}s")


def test_ac04_general_parameter_eigenfunctions():
    worst = 0.0
    for a, b in ((0.0, 0.0), (0.3, 1.2), (-0.4, 0.7)):
        p = WeightParams(a, b)
        for k in star_indices_upto(8):
            resid = eigen_residual(p, k, jacobi_poly(p, k))
            worst = max(worst, resid)
            assert resid <= 1e-8
        p10 = jacobi_poly(p, (1, 0))
        assert abs(p10.coeffs[(0, 0)] - (1 + 2 * a) / (7 + 4 * a + 6 * b)) <= 1e-10
        p01 = jacobi_poly(p, (0, 1))
        assert abs(p01.coeffs[(1, 0)] - 3 * (1 + 2 * a) / (4 + a + 3 * b)) <= 1e-10
        c0 = (5 + 5 * a + 11 * b + 2 * a * b + 6 * b * b + 4 * a * a) / (
            (4 + a + 3 * b) * (5 + 2 * a + 4 * b)
        )
        assert abs(p01.coeffs[(0, 0)] - c0) <= 1e-10
    report("AC04 general-parameter eigenfunctions", f"max residual {worst:.2e}")


def test_ac05_discrete_orthogonality():
    worst = 0.0
    for family in TrigFamily:
        for n in range(1, 13):
            gamma = enum_gamma(family, n).tolist()
            nodes = enum_upsilon(n).tolist()
            weights = [upsilon_weight(j, n) for j in nodes]
            values = [
                [trig(family, k, point_from_index(j, n)) for j in nodes]
                for k in gamma
            ]
            for a, ka in enumerate(gamma):
                for b in range(a, len(gamma)):
                    acc = sum(
                        w * va * vb
                        for w, va, vb in zip(weights, values[a], values[b])
                    ) / n ** 2
                    expect = discrete_ortho_constant(ka, n) if a == b else 0.0
                    err = abs(acc - expect)
                    worst = max(worst, err)
                    assert err <= 1e-12, (family, n, ka, gamma[b])
    report("AC05 discrete orthogonality", f"n<=12 all pairs, max err {worst:.2e}")


def test_ac06_continuous_orthogonality():
    worst = 0.0
    for p in HALF_PARAMS:
        indices = star_indices_upto(10)
        polys = [cheb_poly(p, k) for k in indices]
        for a, ka in enumerate(indices):
            for b in range(a, len(indices)):
                value = continuous_inner(p, polys[a], polys[b])
                expect = orthogonality_constant(p, ka) if a == b else 0.0
                err = abs(value - expect)
                worst = max(worst, err)
                assert err <= 1e-9, (p, ka, indices[b])
    report("AC06 continuous orthogonality", f"|k|*<=10, max err {worst:.2e}")


def test_ac07_cubature_exactness_and_sharpness():
    worst = 0.0
    for kind in ("gauss", "lobatto", "radau1", "radau2"):
        for n in range(2, 11):
            rule = make_rule(kind, n)
            for k in star_indices_upto(2 * n - 1):
                mono = BivarPoly.monomial(k.k1, k.k2, Fraction(1))
                got = integrate_poly(rule, mono)
                ref = reference_integral(rule.weight_params, mono)
                err = abs(got - ref) / (1.0 + abs(ref))
                worst = max(worst, err)
                assert err <= 1e-9, (kind, n, k)
            over = max(
                abs(
                    integrate_poly(rule, BivarPoly.monomial(k.k1, k.k2, Fraction(1)))
                    - reference_integral(
                        rule.weight_params, BivarPoly.monomial(k.k1, k.k2, Fraction(1))
                    )
                )
                / (
                    1.0
                    + abs(
                        reference_integral(
                            rule.weight_params,
                            BivarPoly.monomial(k.k1, k.k2, Fraction(1)),
                        )
                    )
                )
                for k in star_class(2 * n)
            )
            assert over > 1e-6, (kind, n)
    report("AC07 cubature exactness", f"4 rules, n=2..10, max err {worst:.2e}")


def test_ac08_gauss_nodes():
    p = WeightParams(HALF, HALF)
    worst = 0.0
    for n in range(2, 13):
        rule = make_rule("gauss", n)
        assert len(rule.nodes) == dim_pi_star(n - 1)
        for k in star_class(n):
            poly = cheb_poly(p, k)
            sup = max(abs(float(poly(x, y))) for x, y in make_rule("lobatto", 24).nodes)
            resid = max(abs(float(poly(x, y))) for x, y in rule.nodes) / sup
            worst = max(worst, resid)
            assert resid <= 1e-10, (n, k)
    report("AC08 gauss node counts and zeros", f"n=2..12, max resid {worst:.2e}")


def test_ac09_lobatto_ideal():
    worst = 0.0
    for n in range(2, 11):
        residuals = variety_check("lobatto", n)
        assert max(residuals.values()) <= 1e-10, residuals
        worst = max(worst, max(residuals.values()))
    mm = WeightParams(-HALF, -HALF)
    t30 = cheb_poly(mm, (3, 0))
    t02 = cheb_poly(mm, (0, 2))
    y0 = -1.0 / (math.sqrt(7.0) + 1.0)
    shift = math.acos(3.0 * math.sqrt(2.0) / (2.0 * math.sqrt(7.0) + 1.0)) / 3.0
    for mu in range(3):
        x0 = math.sqrt(2.0) / (math.sqrt(7.0) + 1.0) * math.cos(
            2.0 * math.pi * mu / 3.0 + shift
        )
        assert abs(float(t30(x0, y0))) <= 1e-12
        assert abs(float(t02(x0, y0))) <= 1e-12
    report("AC09 lobatto ideal", f"n<=10, max resid {worst:.2e}; 3 closed-form zeros")


def test_ac10_identity_suite():
    pts = interior_points(100, seed=77)
    sc = lambda t: trig("sc", make_index(1, 0), t)
    cs = lambda t: trig("cs", make_index(1, 1), t)
    ss = lambda t: trig("ss", make_index(2, 1), t)
    cc10 = lambda t: trig("cc", make_index(1, 0), t)
    cc11 = lambda t: trig("cc", make_index(1, 1), t)
    cc30 = lambda t: trig("cc", make_index(3, 0), t)
    worst = 0.0
    for t in pts:
        x, y = xy_map(t)
        errs = [
            abs(3 * sc(t) * cs(t) - ss(t)),
            abs(sc(t) ** 2 - (1 + 2 * cc11(t)) / 3 + cc10(t) ** 2),
            abs(cs(t) ** 2 + cc11(t) ** 2 - (1 + 2 * cc30(t)) / 3),
            abs(
                cc10(t) ** 3
                - (
                    cc30(t) / 36
                    + cc10(t) / 4
                    + cc11(t) / 6
                    + 1.0 / 18.0
                    + cc11(t) * cc10(t) / 2
                )
            ),
            abs(sc(t) ** 2 - (1 + 2 * y - 3 * x * x) / 3),
            abs(cs(t) ** 2 - (24 * x ** 3 - y * y - 12 * x * y - 6 * x - 4 * y - 1)),
        ]
        worst = max(worst, max(errs))
        assert max(errs) <= 1e-12
        # analytic Jacobian of the coordinate map
        dx = [partial_t("cc", make_index(1, 0), t, i) for i in range(3)]
        dy = [partial_t("cc", make_index(1, 1), t, i) for i in range(3)]
        jac = (dx[0] - dx[2]) * (dy[1] - dy[2]) - (dx[1] - dx[2]) * (dy[0] - dy[2])
        expect = 4 * math.pi ** 2 / 3 * sc(t) * cs(t)
        assert abs(jac - expect) <= 1e-9 * max(1.0, abs(expect))

    # exact polynomial identities
    c = operator_coeffs(WeightParams(-HALF, -HALF))
    F = BivarPoly(
        {(0, 0): Fraction(1), (0, 1): Fraction(2), (2, 0): Fraction(-3)}
    ) * BivarPoly(
        {
            (3, 0): Fraction(24), (0, 2): Fraction(-1), (1, 1): Fraction(-12),
            (1, 0): Fraction(-6), (0, 1): Fraction(-4), (0, 0): Fraction(-1),
        }
    )
    assert c.A11 * c.A22 - c.A12 * c.A12 == 9 * F
    f1, f2 = F.diff_x(), F.diff_y()
    assert f1 * c.A11 + f2 * c.A12 == BivarPoly(
        {(1, 0): Fraction(-30), (0, 0): Fraction(-6)}
    ) * F
    assert f1 * c.A12 + f2 * c.A22 == BivarPoly(
        {(1, 0): Fraction(-36), (0, 1): Fraction(-54), (0, 0): Fraction(-18)}
    ) * F
    report("AC10 identity suite", f"100 points, max pointwise err {worst:.2e}")


def test_ac11_laplacian_spectral():
    rng = random.Random(2024)
    h = 1e-4
    checked = 0
    worst = 0.0
    while checked < 10:
        k = make_index(rng.randint(-8, 8), rng.randint(-8, 8))
        if max(abs(c) for c in k) > 8 or k == (0, 0, 0):
            continue
        family = rng.choice(list(TrigFamily))
        probe = make_point(0.37, 0.19)
        if trig(family, k, probe) == 0.0:
            continue
        checked += 1
        lam = laplace_eigenvalue(k)

        def f(x1, x2):
            return trig(family, k, cart_to_homog(x1, x2))

        used = 0
        point_rng = random.Random(1000 + checked)
        while used < 20:
            t2 = point_rng.uniform(0.02, 0.47)
            t1 = point_rng.uniform(t2 + 0.02, 1 - t2 - 0.02)
            t = make_point(t1, t2)
            x1 = (t[0] - t[2]) / math.sqrt(3.0)
            x2 = t[1]
            value = f(x1, x2)
            if abs(value) < 0.05:
                continue
            used += 1
            lap = (
                -f(x1 + 2 * h, x2) + 16 * f(x1 + h, x2) - 30 * f(x1, x2)
                + 16 * f(x1 - h, x2) - f(x1 - 2 * h, x2)
                - f(x1, x2 + 2 * h) + 16 * f(x1, x2 + h)
                + 16 * f(x1, x2 - h) - f(x1, x2 - 2 * h) - 30 * f(x1, x2)
            ) / (12 * h * h)
            err = abs(lap + lam * value) / max(1.0, abs(lam * value))
            worst = max(worst, err)
            assert err <= 1e-6, (family, k)
    report("AC11 laplacian spectral check", f"10 indices x 20 points, max rel err {worst:.2e}")


def test_ac12_determinism(tmp_path):
    files = []
    for name in ("first.json", "second.json"):
        target = tmp_path / name
        _build_rule.cache_clear()  # each run builds its own rule
        code = cli_main(
            ["nodes", "--rule", "gauss", "--n", "8", "--out", str(target)]
        )
        assert code == 0
        files.append(target.read_bytes())
    assert files[0] == files[1]
    csvs = []
    for name in ("first.csv", "second.csv"):
        target = tmp_path / name
        _build_rule.cache_clear()
        code = cli_main(
            ["nodes", "--rule", "radau2", "--n", "7", "--format", "csv",
             "--out", str(target)]
        )
        assert code == 0
        csvs.append(target.read_bytes())
    assert csvs[0] == csvs[1]
    report("AC12 determinism", "byte-identical JSON and CSV reruns")
