import pytest

from g2cub.cubature import RULE_KINDS
from g2cub.verify import run_suite


@pytest.mark.parametrize("suite, names", [
    ("cubature", [f"cubature-exactness-{kind}" for kind in RULE_KINDS]),
    ("eigen", ["eigen-exact-half-integer", "eigen-residual-(0.0,0.0)",
               "eigen-residual-(0.3,1.2)", "eigen-residual-(-0.4,0.7)"]),
])
def test_suite_runs_its_named_checks_and_passes(suite, names):
    checks = run_suite(suite)
    assert [c.name for c in checks] == names
    assert all(c.passed for c in checks), checks


def test_variety_passes_where_the_normalizing_sample_meets_small_denominators():
    # at n = 98 corner nodes of the gauss sample have a quotient
    # denominator below DENOM_FALLBACK, where the closed form gives way to
    # the exact sum of the polynomial; those nodes carry the generators'
    # largest values, so they set the normalization
    checks = run_suite("variety", n=98)
    assert [c.name for c in checks] == [f"variety-{kind}" for kind in RULE_KINDS]
    assert all(c.passed for c in checks), checks
