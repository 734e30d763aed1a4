import copy
import pickle

import numpy as np
import pytest

from g2cub.cli import main
from g2cub.cubature import RULE_KINDS
from g2cub.verify import SUITES, Check, run_suite


@pytest.mark.parametrize("suite, names", [
    ("cubature", [f"cubature-exactness-{kind}" for kind in RULE_KINDS]),
    ("eigen", ["eigen-exact-half-integer", "eigen-residual-(0.0,0.0)",
               "eigen-residual-(0.3,1.2)", "eigen-residual-(-0.4,0.7)"]),
])
def test_suite_runs_its_named_checks_and_passes(suite, names):
    checks = run_suite(suite)
    assert [c.name for c in checks] == names
    assert all(c.passed for c in checks), checks


@pytest.mark.parametrize("suite, n", [*((s, None) for s in SUITES),
                                      ("cubature", 16), ("eigen", 20), ("eigen", 36)])
def test_every_suite_passes_through_the_cli(capsys, suite, n):
    # eigen at 20 is the benchmark's eigen degree, at 36 the exact-basis workload's
    code = main(["verify", "--suite", suite, *(["--n", str(n)] if n else [])])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and lines and all(line.endswith("PASS") for line in lines), lines


@pytest.mark.parametrize("suite", ["identities", "orthogonality"])
def test_a_suite_below_its_least_n_raises_naming_it(suite):
    # at n = 0 identities once failed with an IndexError, and orthogonality
    # reported checks of the constant alone
    with pytest.raises(ValueError, match=rf"^the {suite} suite needs n >= 1$"):
        run_suite(suite, n=0)


@pytest.mark.parametrize("suite", SUITES)
def test_run_suite_takes_n_through_operator_index(suite):
    # a float n would otherwise reach the suites: identities drew ceil(n) points
    with pytest.raises(TypeError):
        run_suite(suite, n=2.5)
    least = SUITES[suite][1]
    assert run_suite(suite, n=np.int64(least)) == run_suite(suite, n=least)


def test_variety_passes_where_the_normalizing_sample_meets_small_denominators():
    # at n = 98 corner nodes of the gauss sample have a quotient
    # denominator below DENOM_FALLBACK, where the closed form gives way to
    # the exact sum of the polynomial; those nodes carry the generators'
    # largest values, so they set the normalization
    checks = run_suite("variety", n=98)
    assert [c.name for c in checks] == [f"variety-{kind}" for kind in RULE_KINDS]
    assert all(c.passed for c in checks), checks


def test_a_check_keeps_its_repr_equality_and_immutability_through_pickle_and_deepcopy():
    check = Check("jacobian", 1e-3, 1e-2)
    assert repr(check) == "Check(name='jacobian', max_error=0.001, tol=0.01)"
    assert check == Check(name="jacobian", max_error=1e-3, tol=1e-2)
    assert hash(check) == hash(Check("jacobian", 1e-3, 1e-2))
    assert check.passed and not Check("jacobian", 2e-2, 1e-2).passed
    with pytest.raises(AttributeError):
        check.tol = 1.0
    for copied in (pickle.loads(pickle.dumps(check)), copy.deepcopy(check)):
        assert copied == check and repr(copied) == repr(check)
