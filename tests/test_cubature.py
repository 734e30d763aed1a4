import csv
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2cub import cubature, jsonio
from g2cub.chebyshev import (
    WeightParams,
    cheb_poly,
    deltoid_F,
    star_class,
    star_indices_upto,
    xy_map,
)
from g2cub.coords import point_from_index
from g2cub.cubature import (
    RULE_KINDS,
    _build_rule,
    integrate,
    integrate_poly,
    make_rule,
    reference_integral,
    rule_to_csv,
    rule_to_json,
    variety_check,
)
from g2cub.gentrig import eval as trig
from g2cub.coords import make_index
from g2cub.lattice import dim_pi_star, enum_upsilon, upsilon_weight
from g2cub.poly import BivarPoly

HALF = Fraction(1, 2)


@pytest.mark.parametrize("kind", ["gauss", "lobatto", "radau1", "radau2"])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_weights_positive_sum_one(kind, n):
    rule = make_rule(kind, n)
    assert all(w > 0 for w in rule.weights)
    assert sum(rule.weights) == pytest.approx(1.0, abs=1e-13)
    assert len(rule.weights) == len(rule.nodes)
    assert rule.exact_mdegree == 2 * n - 1


@pytest.mark.parametrize("n", range(2, 13))
def test_gauss_node_count(n):
    assert len(make_rule("gauss", n).nodes) == dim_pi_star(n - 1)


@pytest.mark.parametrize("n", range(2, 11))
def test_lobatto_node_count(n):
    assert len(make_rule("lobatto", n).nodes) == dim_pi_star(n)


def test_nodes_inside_domain():
    for kind in ("gauss", "lobatto", "radau1", "radau2"):
        rule = make_rule(kind, 6)
        for x, y in rule.nodes:
            assert deltoid_F(x, y) >= -1e-12
    for x, y in make_rule("gauss", 6).nodes:
        assert deltoid_F(x, y) > 0.0


def test_lobatto_contains_corner():
    rule = make_rule("lobatto", 4)
    assert tuple(rule.nodes[0]) == (1.0, 1.0)
    assert rule.weights[0] == pytest.approx(1.0 / 16.0)


def test_gauss_weight_from_domain_polynomial():
    # the node weight can be recomputed from the defining polynomial:
    # interior lattice weight 12 times the squared odd factor, and that
    # square is three times F at the mapped node
    n = 6
    rule = make_rule("gauss", n)
    m = n + 5
    for (x, y), w, j in zip(rule.nodes, rule.weights, rule.indices):
        ss = trig("ss", make_index(2, 1), point_from_index(j, m))
        assert ss * ss == pytest.approx(3 * deltoid_F(x, y), rel=1e-10)
        assert w == pytest.approx(144.0 / m ** 2 * ss * ss, rel=1e-12)
        assert w == pytest.approx(432.0 / m ** 2 * deltoid_F(x, y), rel=1e-10)


def test_radau_dropped_nodes():
    n = 5
    r1, r2 = make_rule("radau1", n), make_rule("radau2", n)
    # no generating index of the first rule sits on the t1 = t2 edge
    assert all(j[0] != j[1] for j in r1.indices)
    # the second avoids the other two edges
    assert all(j[1] != 0 and -j[2] != n + 3 for j in r2.indices)
    # dropped nodes carry an exactly zero factor
    for j in enum_upsilon(n + 2).tolist():
        if j[0] == j[1]:
            assert trig("sc", make_index(1, 0), point_from_index(j, n + 2)) == 0.0
    for j in enum_upsilon(n + 3).tolist():
        if j[1] == 0:
            assert trig("cs", make_index(1, 1), point_from_index(j, n + 3)) == 0.0


@pytest.mark.parametrize("kind,family,k,scale,shift", [
    ("gauss", "ss", (2, 1), 12.0, 5),
    ("lobatto", None, None, 1.0, 0),
    ("radau1", "sc", (1, 0), 6.0, 2),
    ("radau2", "cs", (1, 1), 6.0, 3),
])
def test_rule_equals_the_per_node_scalar_loop(kind, family, k, scale, shift):
    # the array build must reproduce, bit for bit, nodes and weights
    # computed one lattice node at a time with scalar evaluations
    n = 9
    m = n + shift
    rule = make_rule(kind, n)
    assert rule.indices.shape == (len(rule.nodes), 3)
    for (x, y), w, j in zip(rule.nodes, rule.weights, rule.indices.tolist()):
        t = point_from_index(j, m)
        assert (x, y) == xy_map(t)
        value = 1.0 if family is None else trig(family, make_index(*k), t)
        assert w == scale / m ** 2 * upsilon_weight(j, m) * (value * value)


def test_make_rule_builds_only_the_requested_radau_rule(monkeypatch):
    sizes = []
    real = cubature.enum_upsilon
    monkeypatch.setattr(cubature, "enum_upsilon", lambda m: sizes.append(m) or real(m))
    for kind, m in (("radau1", 7), ("radau2", 8)):
        sizes.clear()
        _build_rule.cache_clear()  # a cached rule would build nothing
        make_rule(kind, 5)
        assert sizes == [m]


def test_make_rule_returns_the_cached_rule():
    _build_rule.cache_clear()
    rule = make_rule("radau2", 6)
    assert make_rule("radau2", 6) is rule
    assert make_rule("radau1", 6) is not rule
    info = _build_rule.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 2, 2, 32)


def test_make_rule_does_not_depend_on_the_call_history():
    # the cache key carries the type of n, so an int rule is not handed
    # out for a float or bool n of equal value, nor the other way round
    for warm, other in ((4, 4.0), (1, True), (4.0, 4), (True, 1)):
        _build_rule.cache_clear()
        cold = make_rule("gauss", other)
        _build_rule.cache_clear()
        make_rule("gauss", warm)
        rule = make_rule("gauss", other)
        assert type(rule.n) is type(other) is type(cold.n)
        assert rule_to_json(rule) == rule_to_json(cold)


@pytest.mark.parametrize("n", [4.5, 0.5, Fraction(9, 2)])
def test_make_rule_rejects_a_non_integral_n(n):
    # int(4.5) would build the 2-node n = 4 rule and label it n = 4
    with pytest.raises(ValueError, match="integer"):
        make_rule("gauss", n)


@pytest.mark.parametrize("kind", RULE_KINDS)
def test_integrate_equals_the_loop_over_the_arrays_bit_for_bit(kind):
    f = lambda x, y: math.exp(0.7 * x - 0.3 * y) * math.cos(1.3 * x + 0.4 * y)
    for n in (1, 8, 40):
        rule = make_rule(kind, n)
        want = 0.0
        for x, y, w in zip(*rule.nodes.T.tolist(), rule.weights.tolist()):
            want += w * f(x, y)
        assert integrate(rule, f) == want  # twice: the view is built once, then reused
        assert integrate(rule, f) == want
        assert all(type(v) is float for triple in rule.triples for v in triple)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(RULE_KINDS), n=st.integers(1, 30))
def test_rule_weights_positive_and_normalized(kind, n):
    rule = make_rule(kind, n)
    assert all(w > 0 for w in rule.weights)
    assert abs(math.fsum(rule.weights) - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(RULE_KINDS), n=st.integers(1, 8), data=st.data())
def test_rule_exact_on_random_polynomials(kind, n, data):
    rule = make_rule(kind, n)
    indices = star_indices_upto(2 * n - 1)
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=len(indices),
                                max_size=len(indices)))
    poly = BivarPoly({(k.k1, k.k2): Fraction(c) for k, c in zip(indices, coeffs) if c})
    got = integrate_poly(rule, poly)
    ref = reference_integral(rule.weight_params, poly)
    assert abs(got - ref) <= 1e-9 * (1 + sum(abs(c) for c in coeffs))


def test_integrate_is_weight_sum_for_one():
    rule = make_rule("lobatto", 5)
    assert integrate(rule, lambda x, y: 1.0) == pytest.approx(sum(rule.weights))


def test_reference_integral_basics():
    one = BivarPoly.constant(Fraction(1))
    for p in (WeightParams(-HALF, -HALF), WeightParams(HALF, HALF)):
        assert reference_integral(p, one) == pytest.approx(1.0, abs=1e-12)
    # the unit-normalized squared norm of the lowest second-kind member
    p = WeightParams(HALF, HALF)
    poly = cheb_poly(p, (1, 0))
    assert reference_integral(p, poly * poly) == pytest.approx(1.0, abs=1e-10)


def test_reference_integral_of_a_callable_matches_the_exact_moments():
    q = cheb_poly(WeightParams(HALF, -HALF), (2, 1)) + BivarPoly.constant(3)
    for p in (WeightParams(HALF, HALF), WeightParams(0.3, 1.2), WeightParams(-0.4, 0.7)):
        exact = reference_integral(p, q)
        assert abs(reference_integral(p, lambda x, y: q(x, y)) - exact) <= 1e-12


def test_lobatto_matches_reference_on_x():
    p = WeightParams(-HALF, -HALF)
    ref = reference_integral(p, BivarPoly.x())
    got = integrate_poly(make_rule("lobatto", 3), BivarPoly.x())
    assert got == pytest.approx(ref, abs=1e-12)
    assert got == pytest.approx(0.0, abs=1e-12)  # orthogonality to constants


@pytest.mark.parametrize("kind", ["gauss", "lobatto", "radau1", "radau2"])
def test_exactness_and_sharpness(kind):
    for n in (2, 5, 7):
        rule = make_rule(kind, n)
        worst = 0.0
        for k in star_indices_upto(2 * n - 1):
            mono = BivarPoly.monomial(k.k1, k.k2, Fraction(1))
            got = integrate_poly(rule, mono)
            ref = reference_integral(rule.weight_params, mono)
            worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
        assert worst <= 1e-9
        over = 0.0
        for k in star_class(2 * n):
            mono = BivarPoly.monomial(k.k1, k.k2, Fraction(1))
            got = integrate_poly(rule, mono)
            ref = reference_integral(rule.weight_params, mono)
            over = max(over, abs(got - ref) / (1.0 + abs(ref)))
        assert over > 1e-6


def test_gauss_nodes_annihilate_top_class():
    n = 6
    rule = make_rule("gauss", n)
    p = WeightParams(HALF, HALF)
    assert len(star_class(n)) == 2
    for k in star_class(n):
        poly = cheb_poly(p, k)
        for x, y in rule.nodes:
            assert float(poly(x, y)) == pytest.approx(0.0, abs=1e-10)


def test_variety_reports():
    # one residual per generator: the n = 6 class has two indices, the
    # n + 1 = 7 class one
    for kind, labels in (("gauss", ["(3, 0)", "(0, 2)"]), ("lobatto", ["(2, 1)-(1, 1)"]),
                         ("radau1", ["(3, 0)", "(0, 2)"]), ("radau2", ["(2, 1)-(1, 1)"])):
        residuals = variety_check(kind, 6)
        assert list(residuals) == labels
        assert all(0.0 <= r <= 1e-13 for r in residuals.values()), residuals
    # negative control: the constant does not vanish anywhere
    rule = make_rule("gauss", 4)
    one = cheb_poly(WeightParams(HALF, HALF), (0, 0))
    assert min(abs(float(one(x, y))) for x, y in rule.nodes) == 1.0


def test_lobatto_common_zeros_closed_form():
    # the two weighted-degree-6 first-kind members share exactly three
    # zeros, at known closed-form locations
    mm = WeightParams(-HALF, -HALF)
    t30 = cheb_poly(mm, (3, 0))
    t02 = cheb_poly(mm, (0, 2))
    y0 = -1.0 / (math.sqrt(7.0) + 1.0)
    shift = math.acos(3.0 * math.sqrt(2.0) / (2.0 * math.sqrt(7.0) + 1.0)) / 3.0
    for mu in range(3):
        x0 = math.sqrt(2.0) / (math.sqrt(7.0) + 1.0) * math.cos(2.0 * math.pi * mu / 3.0 + shift)
        assert float(t30(x0, y0)) == pytest.approx(0.0, abs=1e-12)
        assert float(t02(x0, y0)) == pytest.approx(0.0, abs=1e-12)


def test_rule_json_layout():
    rule = make_rule("gauss", 6)
    doc = json.loads(rule_to_json(rule))
    assert doc["kind"] == "gauss" and doc["n"] == 6
    assert doc["alpha"] == 0.5 and doc["beta"] == 0.5
    assert len(doc["nodes"]) == 5 and len(doc["weights"]) == 5
    assert doc["exact_mdegree"] == 11


def test_rule_csv_layout():
    rule = make_rule("lobatto", 4)
    lines = rule_to_csv(rule).splitlines()
    assert lines[0] == "x,y,weight"
    assert len(lines) == 1 + dim_pi_star(4)
    first = lines[1].split(",")
    assert float(first[0]) == 1.0 and float(first[1]) == 1.0


def test_serialization_deterministic():
    def fresh(kind, n):  # a rule built anew, not the cached one
        _build_rule.cache_clear()
        return make_rule(kind, n)

    a = rule_to_json(fresh("radau2", 5))
    b = rule_to_json(fresh("radau2", 5))
    assert a == b
    assert rule_to_csv(fresh("radau1", 5)) == rule_to_csv(fresh("radau1", 5))
    # the rule is a function of (kind, n) and compares and hashes by them
    assert make_rule("gauss", 4) == make_rule("gauss", 4) != make_rule("gauss", 5)
    assert make_rule("gauss", 4) != make_rule("lobatto", 4)
    assert hash(make_rule("gauss", 4)) == hash(make_rule("gauss", 4))


def test_rule_arrays_are_read_only():
    rule = make_rule("gauss", 4)
    assert rule.nodes.shape == (len(rule.weights), 2)
    for arr in (rule.nodes, rule.weights, rule.indices):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 99
    with pytest.raises(ValueError, match="read-only"):
        rule.indices[0, 0] = 99


# the JSON and CSV templates against the general writers ----------------------


def jsonio_document(rule):
    doc = {
        "kind": rule.kind,
        "n": rule.n,
        "alpha": float(rule.weight_params.alpha),
        "beta": float(rule.weight_params.beta),
        "nodes": rule.nodes.tolist(),
        "weights": rule.weights.tolist(),
        "exact_mdegree": rule.exact_mdegree,
    }
    return jsonio.dumps(doc)


@pytest.mark.parametrize("kind", RULE_KINDS)
def test_rule_json_matches_jsonio(kind):
    for n in (1, 2, 8, 40):
        rule = make_rule(kind, n)
        assert rule_to_json(rule) == jsonio_document(rule)


def csv_writer_rows(rule):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "weight"])
    for (x, y), w in zip(rule.nodes.tolist(), rule.weights.tolist()):
        writer.writerow([f"{x:.17g}", f"{y:.17g}", f"{w:.17g}"])
    return buf.getvalue()


@pytest.mark.parametrize("kind", RULE_KINDS)
def test_rule_csv_matches_csv_writer(kind):
    for n in (1, 2, 8, 40):
        rule = make_rule(kind, n)
        assert rule_to_csv(rule) == csv_writer_rows(rule)


@pytest.mark.parametrize("kind", RULE_KINDS)
@pytest.mark.parametrize("n", [1, 2, 8, 40, 160])
def test_export_does_not_depend_on_call_order_or_cache_state(kind, n):
    # each export is formatted on its first call for a rule and kept with it,
    # so either export may come first and a repeat returns the kept text
    for order in ((rule_to_csv, rule_to_json), (rule_to_json, rule_to_csv)):
        _build_rule.cache_clear()  # a fresh rule, never exported
        rule = make_rule(kind, n)
        key = hash(rule)
        arrays = [a.tolist() for a in (rule.nodes, rule.weights, rule.indices)]
        text = {export: export(rule) for export in order}
        assert text[rule_to_json] == jsonio_document(rule)
        assert text[rule_to_csv] == csv_writer_rows(rule)
        assert make_rule(kind, n) is rule
        assert rule_to_json(rule) == text[rule_to_json]
        assert rule_to_csv(rule) == text[rule_to_csv]
        _build_rule.cache_clear()
        other = make_rule(kind, n)
        assert other is not rule and other == rule and hash(rule) == hash(other) == key
        for arr, before in zip((rule.nodes, rule.weights, rule.indices), arrays):
            assert not arr.flags.writeable and arr.tolist() == before
