import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from g2cub.chebyshev import MIndex, WeightParams, cheb_poly, star_indices_upto, xy_map
import g2cub
from g2cub.cli import build_parser, main
from g2cub.coords import make_point
from g2cub.cubature import _build_rule
from g2cub.jsonio import format_float
from g2cub.sturm import jacobi_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_table(capsys):
    code, out, _ = run(capsys, "dims", "--n", "12")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].split() == ["n", "dim_pi_star", "cc", "sc", "cs", "ss"]
    assert rows[1].split()[:2] == ["1", "1"]
    assert rows[6].split()[:2] == ["6", "7"]
    assert rows[12].split()[:2] == ["12", "19"]
    code, out, _ = run(capsys, "dims", "--n", "30")
    rows = out.strip().splitlines()
    assert code == 0 and len(rows) == 31
    assert rows[30].split() == ["30", "91", "91", "75", "75", "61"]


def test_nodes_json_stdout(capsys):
    code, out, _ = run(capsys, "nodes", "--rule", "gauss", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 5


def test_nodes_csv_file(tmp_path, capsys):
    target = tmp_path / "rule.csv"
    code, _, _ = run(capsys, "nodes", "--rule", "lobatto", "--n", "4",
                     "--format", "csv", "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 5  # header plus dim 4


def test_nodes_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        _build_rule.cache_clear()  # each run builds its own rule
        code, _, _ = run(capsys, "nodes", "--rule", "radau1", "--n", "5",
                         "--out", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_nodes_usage_error(capsys):
    code, _, err = run(capsys, "nodes", "--rule", "radau1", "--n", "0")
    assert code == 2


def test_usage_errors_exit_2_after_a_successful_call(tmp_path, capsys):
    assert run(capsys, "nodes", "--rule", "gauss", "--n", "2", "--out", str(tmp_path / "r.json"))[0] == 0
    for argv in (["nodes", "--rule", "nope", "--n", "4"], ["poly", "--alpha", "0.5"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert run(capsys, "nodes", "--rule", "gauss", "--n", "0")[0] == 2
    code, out, _ = run(capsys, "nodes", "--rule", "gauss", "--n", "2")
    assert code == 0 and out == (tmp_path / "r.json").read_text()  # --out does not carry over


def test_nodes_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "nodes", "--rule", "gauss", "--n", "4",
                       "--out", str(tmp_path / "missing" / "rule.json"))
    assert code == 3
    assert "cannot write" in err


def test_eval_values(capsys):
    code, out, _ = run(capsys, "eval", "--alpha", "-0.5", "--beta", "-0.5",
                       "--k1", "2", "--k2", "0", "--x", "0", "--y", "0")
    assert code == 0
    assert float(out.strip()) == -1.0
    code, out, _ = run(capsys, "eval", "--alpha", "0.5", "--beta", "0.5",
                       "--k1", "0", "--k2", "0", "--x", "0.2", "--y", "-0.1")
    assert float(out.strip()) == 1.0
    code, out, _ = run(capsys, "eval", "--alpha", "0.5", "--beta", "0.5",
                       "--k1", "1", "--k2", "1", "--x", "1", "--y", "1")
    assert float(out.strip()) == 64.0


def test_eval_general_parameters(capsys):
    code, out, _ = run(capsys, "eval", "--alpha", "0.0", "--beta", "0.0",
                       "--k1", "1", "--k2", "0", "--x", "0.0", "--y", "0.0")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0 / 7.0, abs=1e-10)
    for alpha, beta in (("0.3", "1.2"), ("-1e-3", "0.5")):
        code, out, err = run(capsys, "eval", "--alpha", alpha, "--beta", beta,
                             "--k1", "3", "--k2", "2", "--x", "0.1", "--y", "0.2")
        assert code == 0 and err == "" and math.isfinite(float(out)), (alpha, beta)


def test_eval_coeff_listing(capsys):
    code, out, _ = run(capsys, "eval", "--alpha", "-0.5", "--beta", "-0.5",
                       "--k1", "2", "--k2", "0", "--x", "0", "--y", "0", "--coeffs")
    lines = out.strip().splitlines()
    assert lines[0] == "-1"
    assert "x^2 y^0 6" in lines


def test_eval_prints_the_exact_value_where_the_float_sum_loses_every_digit(capsys):
    # the images of t = (0.41, 0.13), where the float monomial sum gives
    # 82.17, and of t = (0.3 + 1e-9, 0.3), where it gives 65.61; the exact
    # sums, rounded once, are printed
    for x, y, value in (("0.19765111478346734", "-0.37612132690065253", "-0.017610278643242366"),
                        ("0.1273220017581471", "-0.4756836618024476", "13.917961528633175")):
        code, out, err = run(capsys, "eval", "--alpha", "0.5", "--beta", "0.5",
                             "--k1", "20", "--k2", "10", "--x", x, "--y", y)
        assert (code, out, err) == (0, value + "\n", "")


def test_eval_is_the_correctly_rounded_exact_sum(capsys):
    # oracle: the sum in Fractions at the binary values of x and y, whose
    # float() is the nearest float
    rng = random.Random(48)
    for alpha, beta in POLY_SHA256:  # the seven pairs of the poly pins
        for k in rng.sample(star_indices_upto(48), 3) + [MIndex(24, 0), MIndex(0, 16)]:
            t2 = rng.uniform(0.0, 0.5)
            x, y = xy_map(make_point(rng.uniform(t2, 1.0 - t2), t2))
            code, out, _ = run(capsys, "eval", "--alpha", str(alpha), "--beta", str(beta),
                               "--k1", str(k.k1), "--k2", str(k.k2), "--x", repr(x), "--y", repr(y))
            p = WeightParams(alpha, beta)
            poly = (cheb_poly if p.family is not None else jacobi_poly)(p, k)
            exact = sum(Fraction(c) * Fraction(x) ** i * Fraction(y) ** j
                        for (i, j), c in poly.coeffs.items())
            assert (code, out) == (0, format_float(float(exact)) + "\n"), (alpha, beta, k, x, y)


def test_eval_past_the_float_range_is_a_usage_error(capsys):
    # the exact value rounds to +-inf: exit 2 with nothing on stdout, --coeffs too
    for argv in (("--k1", "2", "--k2", "0", "--x", "1e200", "--y", "1e200"),
                 ("--k1", "0", "--k2", "2", "--x", "1e200", "--y", "1e200"),
                 ("--k1", "1", "--k2", "0", "--x", "1e308", "--y", "1e308"),
                 ("--k1", "1", "--k2", "0", "--x=-1e308", "--y", "1e308"),
                 ("--k1", "40", "--k2", "0", "--x", "1e10", "--y", "1", "--coeffs")):
        code, out, err = run(capsys, "eval", "--alpha", "0.5", "--beta", "0.5", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "beyond the float range" in err
    # a large value that the float range holds is printed
    code, out, _ = run(capsys, "eval", "--alpha", "0.5", "--beta", "0.5",
                       "--k1", "0", "--k2", "1", "--x", "1e200", "--y", "1e200")
    assert (code, out) == (0, "1.2e+201\n")
    code, out, _ = run(capsys, "eval", "--alpha", "0.5", "--beta", "0.5",
                       "--k1", "1", "--k2", "0", "--x", "1e307", "--y", "1")
    assert (code, out) == (0, format_float(float(1 + 6 * Fraction(1e307))) + "\n")  # 1 + 6x


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_format_float_refuses_non_finite_values(value):
    with pytest.raises(ValueError, match="not a finite number"):
        format_float(value)
    with pytest.raises(ValueError, match="not a finite number"):
        g2cub.jsonio.dumps({"value": [1.0, value]})


def test_eval_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "eval", "--alpha", "-1.5", "--beta", "0.0",
                       "--k1", "1", "--k2", "0", "--x", "0", "--y", "0")
    assert code == 2
    code, _, _ = run(capsys, "eval", "--alpha", "0.5", "--beta", "0.5",
                     "--k1", "-1", "--k2", "0", "--x", "0", "--y", "0")
    assert code == 2
    # a missing --k2, a negative index component, and parameters whose
    # eigenvalues overflow: exit 2 with nothing on stdout
    for argv in (["poly", "--alpha", "0.3", "--beta", "1.2", "--k1", "3"],
                 ["eval", "--alpha", "0.3", "--beta", "1.2", "--k1", "3", "--x", "0.1", "--y", "0.2"],
                 ["eval", "--alpha", "0.3", "--beta", "1.2", "--k1", "-1", "--k2", "2",
                  "--x", "0.1", "--y", "0.2"],
                 ["poly", "--alpha", "0.5", "--beta", "0.5", "--k1", "2", "--k2", "-1"],
                 ["poly", "--alpha", "1e308", "--beta", "0", "--k1", "1", "--k2", "0"]):
        assert exit_code(capsys, argv) == (2, ""), argv


def exit_code(capsys, argv):
    """main's return value, or the code argparse exits with, and stdout."""
    try:
        return run(capsys, *argv)[:2]
    except SystemExit as exc:
        return exc.code, capsys.readouterr().out


def test_negative_numbers_in_exponent_form_are_option_values(capsys):
    # argparse takes only -5 and -0.5 for numbers: -1e3 once read as an option name
    member = ["--k1", "1", "--k2", "0"]
    for alpha, beta, x, y in (("0.5", "0.5", "-1e3", "0.1"), ("-1e-3", "-2E-1", "0.1", "-.5"),
                              ("-.5", "1.", "-1.5e+2", "-5.")):
        spaced = run(capsys, "eval", "--alpha", alpha, "--beta", beta, *member, "--x", x, "--y", y)
        joined = run(capsys, "eval", f"--alpha={alpha}", f"--beta={beta}", *member, f"--x={x}", f"--y={y}")
        assert spaced == joined and spaced[0] == 0, (alpha, beta, x, y)
    assert run(capsys, "eval", "--alpha", "0.5", "--beta", "0.5", *member, "--x", "-1e3",
               "--y", "0.1")[:2] == (0, "-5999\n")  # 1 + 6x
    code, _, err = run(capsys, "verify", "--suite", "identities", "--tol", "-1e-3")
    assert code == 2 and "--tol must be positive" in err
    # a missing value and negative or non-integral indices stay usage errors
    for argv in (["--k1", "1", "--k2", "0", "--x", "--y", "0.1"],
                 ["--k1", "-1", "--k2", "0", "--x", "0.1", "--y", "0.1"],
                 ["--k1", "-1e3", "--k2", "0", "--x", "0.1", "--y", "0.1"]):
        assert exit_code(capsys, ["eval", "--alpha", "0.5", "--beta", "0.5", *argv]) == (2, ""), argv


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "--alpha", "-0.5", "--beta", "-0.5",
                       "--k1", "0", "--k2", "2")
    assert code == 0
    doc = json.loads(out)
    terms = {(t["i"], t["j"]): t["num"] for t in doc["terms"]}
    assert terms[(0, 2)] == 6 and terms[(3, 0)] == -72


def test_poly_general_parameters_high_degree(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "poly", "--alpha", "0.3", "--beta", "1.2",
                             "--k1", "10", "--k2", "2")
    assert code == 0 and err == ""
    assert json.loads(out)["k"] == [10, 2]


def test_poly_eigenvalue_tie_is_usage_error(capsys):
    code, out, err = run(capsys, "poly", "--alpha", "-0.9", "--beta", "-0.8",
                         "--k1", "0", "--k2", "1")
    assert code == 2
    assert out == "" and "tie" in err


@pytest.mark.parametrize("suite,n", [("cubature", "0"), ("cubature", "1"),
                                     ("cubature", "-1"), ("orthogonality", "0"),
                                     ("variety", "1"), ("eigen", "1")])
def test_verify_rejects_sizes_that_check_nothing(capsys, suite, n):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", n)
    assert code == 2
    assert "PASS" not in out
    bound = "n >= 2" if n == "1" else "--n must be >= 1"
    assert bound in err


def test_verify_identities_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--n", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.endswith("PASS") for line in lines)
    assert any("jacobian" in line for line in lines)


def test_verify_variety_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "variety", "--n", "4")
    assert code == 0


def test_verify_unreachable_tolerance_fails(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "orthogonality",
                       "--n", "4", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("n,families", [
    (1, ["cc"]),
    (3, ["cc", "sc", "cs"]),
    (5, ["cc", "sc", "cs"]),
    (6, ["cc", "sc", "cs", "ss"]),
])
def test_verify_orthogonality_reports_only_families_it_compared(capsys, n, families):
    # sc and cs have no member for n <= 2, ss none for n <= 5: no PASS line
    # may stand for a check that compared nothing
    code, out, _ = run(capsys, "verify", "--suite", "orthogonality", "--n", str(n))
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.endswith("PASS") for line in lines)
    discrete = [line.split()[0] for line in lines if line.startswith("discrete-ortho-")]
    assert discrete == [f"discrete-ortho-{f}" for f in families]


def test_verify_rejects_negative_tolerance(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "orthogonality",
                     "--n", "4", "--tol", "-1")
    assert code == 2


ALTERNATING = (
    ("nodes", "--rule", "radau2", "--n", "5", "--format", "csv"),
    ("poly", "--alpha", "0.3", "--beta", "1.2", "--k1", "3", "--k2", "2"),
    ("eval", "--alpha", "-0.4", "--beta", "0.7", "--k1", "2", "--k2", "1", "--x", "0.1", "--y", "0.2"),
    ("verify", "--suite", "eigen", "--n", "4"),
)


def test_one_parser_serves_alternating_commands(capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(g2cub.__file__).resolve().parents[1])}
    alone = [subprocess.run([sys.executable, "-m", "g2cub", *argv], env=env, capture_output=True,
                            text=True, check=True).stdout for argv in ALTERNATING]
    for _ in range(2):
        for argv, want in zip(ALTERNATING, alone):
            assert run(capsys, *argv)[:2] == (0, want)
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--no-such-option"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv,flag", [
    (("eval", "--alpha", "inf", "--beta", "0.5", "--k1", "1", "--k2", "0",
      "--x", "0.1", "--y", "0.1"), "--alpha"),
    (("poly", "--alpha", "0.3", "--beta", "inf", "--k1", "1", "--k2", "0"), "--beta"),
    (("eval", "--alpha", "0.5", "--beta", "0.5", "--k1", "1", "--k2", "0",
      "--x", "nan", "--y", "0.1"), "--x"),
    (("verify", "--suite", "orthogonality", "--n", "3", "--tol", "nan"), "--tol"),
], ids=["eval-alpha-inf", "poly-beta-inf", "eval-x-nan", "verify-tol-nan"])
def test_non_finite_numbers_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: expected a finite number" in captured.err


# SHA-256 of `g2cub poly` stdout, recorded before the per-parameter operator
# table replaced the dict-based back-substitution, and for the weighted-degree
# 36 index of each half-integer family while coefficients were all Fractions;
# the bytes must not move
POLY_SHA256 = {
    (0.5, 0.5): {
        (0, 0): "befd6c86296c8eaeac29f872afb14152ed0164b14abe4b1136fc023b197ad6e9",
        (3, 2): "54c5f42d1e1ab90ca0c199571df9d76b9f2aac0486615a77646b0d844c21763d",
        (7, 5): "faad3680679f439167f327fbaee166cc94c3703744078ea92d5f37f9db754db0",
        (12, 0): "158dd273df2d56f8f9f8da9d87cc217c4e3289ab07dc355ccba2ae9554ff1e04",
        (9, 6): "7d4db27ee51bee6c7cfff9105bf8074f64042cb85fe73578ddb03041fdea69cd",
    },
    (-0.5, -0.5): {
        (0, 0): "20cf8f9242ac27f45db26553811157b0fd43e6b8637c1ffe3016ed3416ce3937",
        (3, 2): "4e7154e28f0ad5a71f0c10fb9157a819b038302ed292f8f504ca3a7ee7dae2d0",
        (7, 5): "578a535ca508f38ebd28085de467bb801bea441b4026d283ba6f04bee004eeca",
        (12, 0): "bc5d1568eb1d2d92b45b3c952824e0f9fcca134b075505448b9e7e23ffbab414",
        (18, 0): "c38a7a26cf0e0c090e2a03fb70f401686a5b602c68d7d644354aa2fa9c93ea33",
    },
    (0.5, -0.5): {
        (0, 0): "2232d3c439ea925fd84a010ac9c96f6f3cae15c389576b9b6dbe50b932f944e2",
        (3, 2): "31530d50723bae4bab732c12dc3b86411ad23106e464d1e99965e02758aee82b",
        (7, 5): "a2bf6d93ce0763677c7c278241e03692c25a190f194a8a1394cede7f5cf1b3bc",
        (12, 0): "0e30f23b7a5908c827aaf4de1b01257bb1f4fcba7fcaf2b74a6271a4b5b33090",
        (0, 12): "dbcf41ec0d9f832adc482754464e31c5ee96dbdd8ea3eeffa4b22efd9d2dc2f2",
    },
    (-0.5, 0.5): {
        (0, 0): "8494b1db5013b76ff7bddfad9d747324d60373366ace3db90566e17135111941",
        (3, 2): "a6eef18ee68a1088ee1e8a182b260c5c1a2c294f1e067cbe41f9f6657a3d64e9",
        (7, 5): "189d115c9d4d05fd9a3c51dd655028df61d4c6ed22384c7a49ae23ab8e7fc3f6",
        (12, 0): "a459306d0b3adcb0d3c1800c31102288a3d39114792d2658c3f4816b844335ce",
        (15, 2): "9b096d9d120e7696f6a9ccbec794434b3d5c3947f679d0e60745dba155f69269",
    },
    (0.3, 1.2): {
        (0, 0): "c32e89ef8e294206c6e982590cc8bce57af555126fdbc4a35d7ffc4220d272d1",
        (3, 2): "c76f9174dcd3ed5d4640d58e9510da1963acfd631ffad1fbab191d22685f6c56",
        (7, 5): "b9901bdc46074ca076fdbc9af5ecd525a016bace089a66b7a94953bb21023b88",
        (12, 0): "ecc05c6e3420837032f06cb67e8d57f71c769d1fe1229b8016ed5ba9b22f9881",
    },
    (-0.4, 0.7): {
        (0, 0): "6bc7dac516f622973c4ec8a3ca230bd58826bd0fcb20ecd4929ab073997e1e7e",
        (3, 2): "acbd591b4c1400b4ff8c16d65fae3ffcfded9d86be9b10a001f32b48f4b0c1ab",
        (7, 5): "6e0d605f1b8d258142a1ca64770116ac797bf3388466ae026dff386515c0822a",
        (12, 0): "bcd797a2e00456e7847898326c9691742d36224baae2514aabf49d9c00162046",
    },
    (0.17, -0.23): {
        (0, 0): "f3eeb5a42f38e00b9846baadf43c155ccb0d35a2e2edd8c0469e7028e0169427",
        (3, 2): "51a535d1d0425b86df80e2338e8320197a5ff04e8cb70050305dada987020db0",
        (7, 5): "43c651c6e98d3e2b60538aa43228d0201133e14ea1d70b8bd205f868358131e3",
        (12, 0): "a73e528d57578c6ae63f6c07aa18510b2da7e74784e5c0913259dab708044e85",
    },
}


@pytest.mark.parametrize("alpha, beta", list(POLY_SHA256))
def test_poly_output_bytes_are_pinned(capsys, alpha, beta):
    for (k1, k2), digest in POLY_SHA256[(alpha, beta)].items():
        code, out, _ = run(capsys, "poly", "--alpha", str(alpha), "--beta", str(beta),
                           "--k1", str(k1), "--k2", str(k2))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (alpha, beta, k1, k2)


# SHA-256 of `g2cub verify` stdout: every residual and error the eigen suite
# (through apply_L and eigen_residual) and the orthogonality suite (against
# orthogonality_constant) print, bit for bit; the other suites at their
# default n and --tol, which replaces each nonzero tolerance and leaves the
# exact checks at 0, were pinned before the suites lost their tol parameters
VERIFY_SHA256 = {
    ("--suite", "eigen", "--n", "20"): "4857fdb569ff9bdbcf20d2e0a0f24fb66583522a3271bf524d8cbec71479f31a",
    ("--suite", "orthogonality"): "6df1ed22e462291a3f6429c905a42a19cd4bf995153156e9a36f3a9e0bb9e7b5",
    ("--suite", "cubature"): "8b89917213a3ca8e64f42dcb644b321fb62a79ca2728e6e7ae7dbfa0d4a23c93",
    ("--suite", "identities"): "b17236106edc95e9e2e8304cf931628a85260276a8028b0d02a442851c339ac8",
    ("--suite", "variety"): "6ef3940e8d99a92c21d6c4215960777a99230b343bc341fe92b6127c5d42e9a4",
    ("--suite", "eigen"): "ad447ed295f44b78d9d658d461ac5b770ff0602df433d653a943405c8c5d5440",
    ("--suite", "identities", "--tol", "1e-3"): "f61745adafd476c00601dcc6966b887a8d0df3acc820dd4462055f3d5fb153c3",
}


@pytest.mark.parametrize("args", list(VERIFY_SHA256), ids=" ".join)
def test_verify_output_bytes_are_pinned(capsys, args):
    code, out, _ = run(capsys, "verify", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[args]


# a failing run prints the same lines, ending in FAIL, and exits 1
VERIFY_FAIL_SHA256 = {
    ("--suite", "orthogonality", "--n", "4", "--tol", "1e-30"): "0937140c0e3edcc7233e4ef616a69e592770451a02dcbd539cb7ff7ad205caad",
}


@pytest.mark.parametrize("args", list(VERIFY_FAIL_SHA256), ids=" ".join)
def test_failing_verify_output_bytes_are_pinned(capsys, args):
    code, out, _ = run(capsys, "verify", *args)
    assert code == 1 and "FAIL" in out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FAIL_SHA256[args]


@pytest.mark.parametrize("n", ["18", "24"])
def test_verify_variety_passes_past_weighted_degree_30(capsys, n):
    # the generators go through the bounded closed forms, not float monomial sums
    code, out, _ = run(capsys, "verify", "--suite", "variety", "--n", n)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4 and all(line.endswith("PASS") for line in lines)


# SHA-256 of `g2cub nodes` stdout, so that a change to the lattice, the rule
# build or either layout of the shared formatting pass shows; n = 1, 8 and 160
# were recorded while the rule record held tuples of floats, before it held
# read-only arrays; the bytes must not move
NODES_SHA256 = {
    "gauss": {
        (1, "json"): "4f3026d03ff71460e4a4600b1b4930a3f2619e427cc4be39ef21e397343bf7de",
        (1, "csv"): "c2d5aacb3cbb0f1b27acee5c80b4f0610c8c344712a1c0c284d6346e79bcd8fa",
        (8, "json"): "08e76c8f39022fff1c48a38b0cec8da9a34ace5a5d41bfbfd9786f9d8a5f3f4c",
        (8, "csv"): "ea7a9370b5848fb3d8183c34edd9d0a20e3c0335fd3777ff948cdc695efc9e08",
        (40, "json"): "859b504285507b40ebaa8cfbbd8d59d4fd0f1947d5671c44b131b0a64552eb88",
        (40, "csv"): "f02cb58c081288b19b399388c90feefcd6fd45c82c1465637325cd1a7197676b",
        (160, "json"): "7b11b218d7a7cac0822aeacc1612c4febda7dc7557ac121dce022ebdb632514d",
        (160, "csv"): "29d2356453a21b582e7602ae359301ae2f199661ada14327caff7a5ebf027c82",
        (600, "json"): "c970094d1bc3c4abfd40d425215776217568b2932846333b82f60b500af8c22a",
        (600, "csv"): "79a46a704b4974640a3b4a8b5b2f8ad9d207c856f1ae6cbd0abb1544de444846",
    },
    "lobatto": {
        (1, "json"): "c55a9b3728ed4ed81a36404e47d97e5101f2e4b6136b6be1a5e0af324db31cd2",
        (1, "csv"): "240f6dbf0967e194516619731ad978d3389cee4c8063d28c9c4426cea0ca47c9",
        (8, "json"): "104de9ecef46426f432556c270dd17b972ed0787f8fe78f8cf932e248d28e7d2",
        (8, "csv"): "1954c8714412b88b34b3b0c228148f00957d88dba90db92cff325cde21991d3c",
        (40, "json"): "ddd79e7a246b9babc1465693c83910a806ac3c767567da348f9b7f621082f22e",
        (40, "csv"): "e6780671962e5dc1cf68e4c09603b0a7cab8cc5bf128dd7fb4e7d35e859e9446",
        (160, "json"): "709052658f4551a64d7fe3ac7a55b97f201473629464f13776955f2561692514",
        (160, "csv"): "1da21c968682da5725bd5c6d23475c2cdde432aa78be8f8e3e12439bc1fc8c88",
        (600, "json"): "8ff545f36ff1016fde43b234a00441d02c1ad84d530db6eed99ef99265cccec1",
        (600, "csv"): "5f8fb9c72ae63313122f991995e17cc29dacdf25bc8d3015ba837f4a1b0b7c5b",
    },
    "radau1": {
        (1, "json"): "bc177d6bc23531a86f052c573a1082d8b550b15b0d73efb2066b12f25212e257",
        (1, "csv"): "c3bfecc612957060fae8892aa79c49025c2b5d3cb14a84dbdb75047bdb22ad38",
        (8, "json"): "ab2315dfbab8668562219755505ff03bd20286313200e837b8649d09d50073a9",
        (8, "csv"): "bf69c366a66318e7598ba78885a56f95f4d69630eacb0906062abee5fce12b5e",
        (40, "json"): "37c1ff824ed125b35627fc400664e3bd101621a0cdd72d8cae1241264af2b149",
        (40, "csv"): "957e37d1a8a71cba729be0c28ea19082269361a7ce8ef4c8ea8904a272ce4ff2",
        (160, "json"): "10c97729e2b1752fb14520c1cc82b260e5cae209afa0596dee8f182d5188948e",
        (160, "csv"): "8fc47d6d962c917bd69a78f4d3e4447fd47d993e33711aea1176b2f6cc43ef40",
        (600, "json"): "57e08854921429e35cce6611ab64ac75568d45a06c8c8e2cbc6f7b47b8d74556",
        (600, "csv"): "2301a4ef9652626f384b738fc035415170d3877871f92a0542672443e5f196fe",
    },
    "radau2": {
        (1, "json"): "33640f354cea14f25c053accc53d81214acb556d300471ee8c0dd415fbcae102",
        (1, "csv"): "47f51a4a28696126a819b2c91fb851d4e1e574b7bf90b607d3ef4f2f357e7f92",
        (8, "json"): "0902442fabec3f2f2b1594ce101c522948ee6899f66f62de82760d4ae7399fd6",
        (8, "csv"): "67a5b400f9d7dadd7bc86cf427f7cd4481f90db7048fa664abc976d0fbbdf5dd",
        (40, "json"): "0adf6ea831e7fb2675eba3ae6fb8c07b82e1204289cd0a80ef1e98c2e1dd090b",
        (40, "csv"): "d49d773200721bc13ac37c75106537b37a29bfff93f58085effee9b921ee5099",
        (160, "json"): "d5df1e94c1987b97740ac27ed04c107b581eb89b7ebb2ab9de332af9bea59d33",
        (160, "csv"): "d6dd22477eab8573610397ff32abe447dde992dc83613738445d7806fe5f4567",
        (600, "json"): "fd53b4a9e08fdb4dd377100777fa740be826e5d523b290359b0749a798d2ed13",
        (600, "csv"): "ae2a7f910c7b78fd0ddab16f54ea01986d05e394682580a341bc3c1974e095a2",
    },
}


@pytest.mark.parametrize("kind", list(NODES_SHA256))
def test_nodes_output_bytes_are_pinned(capsys, kind):
    for (n, fmt), digest in NODES_SHA256[kind].items():
        code, out, _ = run(capsys, "nodes", "--rule", kind, "--n", str(n), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (kind, n, fmt)


@pytest.mark.parametrize("argv", [
    ["poly", "--alpha", "1e308", "--beta", "0", "--k1", "1", "--k2", "0"],
    ["eval", "--alpha", "1e308", "--beta", "0", "--k1", "3", "--k2", "2", "--x", "0.1", "--y", "0.2"],
])
def test_overflowing_parameters_exit_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and "1e+308" in err
    # the constant member is 1 there, so the first overflow is at (1, 0)
    assert "(1, 0)" in err and "(0, 0)" not in err


# alpha and beta from just above -1 up to 1e300, x and y out to +-1e200
CLI_PARAMETER = st.floats(min_value=-1, max_value=1e300, exclude_min=True)
CLI_COORDINATE = st.floats(min_value=-1e200, max_value=1e200)


@settings(max_examples=60, deadline=None)
@given(CLI_PARAMETER, CLI_PARAMETER, st.sampled_from(star_indices_upto(12)),
       CLI_COORDINATE, CLI_COORDINATE)
@example(1e300, 1e300, (12, 8), 0.1, 0.2)
@example(1e200, 0.5, (12, 8), 0.1, 0.2)
@example(1e308, 0, (1, 0), 0.1, 0.2)
def test_eval_and_poly_exit_0_or_2_over_the_whole_parameter_range(alpha, beta, k, x, y):
    member = ["--alpha", repr(alpha), "--beta", repr(beta), "--k1", str(k[0]), "--k2", str(k[1])]
    for argv in (["eval", *member, "--x", repr(x), "--y", repr(y)], ["poly", *member]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error:"), argv
        elif argv[0] == "eval":
            assert out.getvalue().endswith("\n") and math.isfinite(float(out.getvalue())), argv
        else:
            json.loads(out.getvalue())
