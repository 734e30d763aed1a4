import json
import warnings

import pytest

from g2cub.cli import main


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
        code, _, _ = run(capsys, "nodes", "--rule", "radau1", "--n", "5",
                         "--out", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_nodes_usage_error(capsys):
    code, _, err = run(capsys, "nodes", "--rule", "radau1", "--n", "0")
    assert code == 2


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


def test_eval_coeff_listing(capsys):
    code, out, _ = run(capsys, "eval", "--alpha", "-0.5", "--beta", "-0.5",
                       "--k1", "2", "--k2", "0", "--x", "0", "--y", "0", "--coeffs")
    lines = out.strip().splitlines()
    assert lines[0] == "-1"
    assert "x^2 y^0 6" in lines


def test_eval_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "eval", "--alpha", "-1.5", "--beta", "0.0",
                       "--k1", "1", "--k2", "0", "--x", "0", "--y", "0")
    assert code == 2
    code, _, _ = run(capsys, "eval", "--alpha", "0.5", "--beta", "0.5",
                     "--k1", "-1", "--k2", "0", "--x", "0", "--y", "0")
    assert code == 2


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
                                     ("cubature", "-1"), ("orthogonality", "0")])
def test_verify_rejects_sizes_that_check_nothing(capsys, suite, n):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--n", n)
    assert code == 2
    assert "PASS" not in out


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


def test_verify_rejects_negative_tolerance(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "orthogonality",
                     "--n", "4", "--tol", "-1")
    assert code == 2
