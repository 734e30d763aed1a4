"""Polynomial cubature rules on the deltoid-bounded domain.

All four rules are images of the equal-weight lattice cubature on the
fundamental triangle, with nodes xy(j/m) and weights proportional to the
lattice weight times the squared trigonometric factor that cancels the
denominator of the corresponding weight function:

    gauss    factor ss(1/m j)^2   lattice m = n+5, interior nodes only
    lobatto  factor 1             lattice m = n,   all nodes
    radau1   factor sc(1/m j)^2   lattice m = n+2, nodes off the t1=t2 edge
    radau2   factor cs(1/m j)^2   lattice m = n+3, nodes off t2=0 and t3=-1

Each kind names one trig family, and its factor is that family's member
at the family's shift index; the lattice size, the weight parameters,
the scale and the dropped nodes all follow from the family's sine bits
(`make_rule`).  Each rule integrates its weight exactly on polynomials
of weighted degree up to 2n-1 and is normalized so the weights sum to
one.  Nodes whose factor vanishes identically are dropped by integer
predicates on the generating lattice triple, so node counts are
deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chebyshev import (
    MIndex,
    WeightParams,
    cheb_eval_trig,
    continuous_inner,
    star_class,
    xy_map,
)
from .coords import orbit_size, point_from_index
from .gentrig import TrigFamily, eval as trig_eval
from .lattice import enum_upsilon, upsilon_weight
from .poly import BivarPoly
from .quad import DEFAULT_TOL, Rule

# rule kind -> the trig family whose squared shift member is its factor
_RULE_FAMILY = {
    "gauss": TrigFamily.SS,
    "lobatto": TrigFamily.CC,
    "radau1": TrigFamily.SC,
    "radau2": TrigFamily.CS,
}
RULE_KINDS = tuple(_RULE_FAMILY)


@dataclass(frozen=True, eq=False)
class CubatureRule(Rule):
    """One of the four rules: nodes (N, 2) in lexicographic lattice order,
    their weights, and indices (N, 3), the generating lattice triples in
    the same order, all read-only.  The rule is a function of (kind, n),
    so it compares and hashes by them."""

    kind: str
    n: int
    exact_mdegree: int
    weight_params: WeightParams
    indices: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.indices.flags.writeable = False

    def __eq__(self, other):
        return isinstance(other, CubatureRule) and (self.kind, self.n) == (other.kind, other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    @functools.cached_property
    def triples(self) -> tuple:
        """(x, y, weight) of every node as Python floats, in node order,
        built on first use."""
        return tuple(zip(*self.nodes.T.tolist(), self.weights.tolist()))

    @functools.cached_property
    def json_text(self) -> str:
        """`rule_to_json(self)`: formatted straight from the floats on the
        rule's first JSON export, then kept with the rule."""
        count = len(self.weights)
        nodes = ",\n".join(["    [%.17g, %.17g]"] * count) % tuple(self.nodes.ravel().tolist())
        weights = ", ".join(["%.17g"] * count) % tuple(self.weights.tolist())
        p = self.weight_params
        return _JSON % (self.kind, self.n, float(p.alpha), float(p.beta),
                        nodes, weights, self.exact_mdegree)

    @functools.cached_property
    def csv_text(self) -> str:
        """`rule_to_csv(self)`: formatted straight from the floats on the
        rule's first CSV export, then kept with the rule."""
        table = np.column_stack((self.nodes, self.weights))
        return "x,y,weight\n" + "%.17g,%.17g,%.17g\n" * len(table) % tuple(table.ravel().tolist())


def _lattice_size(family: TrigFamily, n: int) -> int:
    """m = n + shift1 - shift3 for the rule of size n whose factor family is family."""
    return n + family.shift[0] - family.shift[2]


def make_rule(kind: str, n: int) -> CubatureRule:
    """One of the four rules, read off the sine bits (d, p) and the shift
    of its factor family: lattice size m = n + shift1 - shift3, weight
    parameters (d - 1/2, p - 1/2), scale |orbit(shift)|, and the nodes
    where the factor vanishes dropped, j1 = j2 when d = 1 and j2 = 0 or
    j3 = -m when p = 1.  n must be an integer >= 1; a non-integral n
    raises ValueError.  Rules are immutable, so the last 32 built are
    cached and shared (see `_build_rule`)."""
    return _build_rule(kind, n)


@functools.lru_cache(maxsize=32, typed=True)  # typed: n = 4.0 or True is not the int rule's key
def _build_rule(kind: str, n: int) -> CubatureRule:
    family = _RULE_FAMILY.get(kind)
    if family is None:
        raise ValueError(f"unknown rule kind {kind!r}")
    if n != int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    d, p = family.sines
    shift = family.shift
    m = _lattice_size(family, n)
    j = enum_upsilon(m)
    j1, j2, j3 = j.T
    vanishes = ((d == 1) & (j1 == j2)) | ((p == 1) & ((j2 == 0) | (j3 == -m)))
    j = j[~vanishes]
    t = point_from_index(j.T, m)
    value = trig_eval(family, shift, t)
    weights = orbit_size(shift) / m ** 2 * upsilon_weight(j.T, m) * (value * value)
    return CubatureRule(
        nodes=np.array(xy_map(t)).T,  # the transpose keeps x and y contiguous
        weights=weights,
        kind=kind,
        n=n,
        exact_mdegree=2 * n - 1,
        weight_params=WeightParams(*family.params),
        indices=j,
    )


def integrate(rule: CubatureRule, f) -> float:
    """Apply the rule to a callable on Python floats (x, y), summing in
    node order."""
    total = 0.0
    for x, y, w in rule.triples:
        total += w * f(x, y)
    return total


def integrate_poly(rule: CubatureRule, p: BivarPoly) -> float:
    """Apply the rule to a polynomial: `BivarPoly.exact_sum` over the rule's
    `triples`, exact at the floats' binary values and rounded once."""
    return p.exact_sum(rule.triples)


def reference_integral(p: WeightParams, f, tol=DEFAULT_TOL) -> float:
    """Independent oracle: `continuous_inner` of f and 1, exact and rounded
    once for a polynomial, by quadrature at tol for any other callable."""
    one = BivarPoly.constant(1) if isinstance(f, BivarPoly) else (lambda x, y: 1.0)
    return continuous_inner(p, f, one, tol=tol)


# variety checks --------------------------------------------------------------


def variety_check(kind: str, n: int) -> dict:
    """Residuals of the ideal generators attached to a rule on its node
    set, {generator label: normalized residual}.

    gauss:   members of the (1/2, 1/2) family of weighted degree n
    lobatto: differences of first-kind members of weighted degree n+1
    radau1:  members of the (1/2, -1/2) family of weighted degree n
    radau2:  differences of (-1/2, 1/2) members of weighted degree n+1

    Each generator is evaluated through the closed forms
    (`cheb_eval_trig`) at the nodes' lattice points j/m, where the
    quotient's denominator is the rule's own factor and does not vanish.
    Residuals are normalized by the generator's max over the interior
    nodes of a fixed gauss rule.
    """
    rule, sample = make_rule(kind, n), make_rule("gauss", max(24, 2 * n))
    family = _RULE_FAMILY[kind]
    t_rule = point_from_index(rule.indices.T, _lattice_size(family, n))
    t_sample = point_from_index(sample.indices.T, _lattice_size(TrigFamily.SS, sample.n))
    p = rule.weight_params
    if family.sines[0]:
        gens = [(str(tuple(k)), k, None) for k in star_class(n)]
    else:
        # k pairs with (k1-1, k2) when k1 > 0, else with (1, k2-1)
        pairs = [(k, MIndex(k.k1 - 1, k.k2) if k.k1 else MIndex(1, k.k2 - 1))
                 for k in star_class(n + 1)]
        gens = [(f"{tuple(k)}-{tuple(j)}", k, j) for k, j in pairs]

    def sup(k, partner, t):
        value = cheb_eval_trig(p, k, t)
        if partner is not None:
            value = value - cheb_eval_trig(p, partner, t)
        return float(np.max(np.abs(value)))

    return {label: sup(k, j, t_rule) / (sup(k, j, t_sample) or 1.0) for label, k, j in gens}


# serialization ----------------------------------------------------------------


# both formats write floats as `jsonio` does, with 17 significant digits

_JSON = """{
  "kind": "%s",
  "n": %d,
  "alpha": %.17g,
  "beta": %.17g,
  "nodes": [
%s
  ],
  "weights": [%s],
  "exact_mdegree": %d
}"""


def rule_to_json(rule: CubatureRule) -> str:
    """The rule in the layout `jsonio.dumps` gives its fields.  The text is
    formatted on the rule's first JSON export and kept with the cached rule
    (`rule.json_text`, ~160 KB at n = 160), so a later JSON export of the
    same rule in the same process formats nothing."""
    return rule.json_text


def rule_to_csv(rule: CubatureRule) -> str:
    """The rule as CSV: an "x,y,weight" header, then one "x,y,weight" line
    per node in node order.  The text is formatted on the rule's first CSV
    export and kept with the cached rule (`rule.csv_text`, ~140 KB at
    n = 160), so a later CSV export of the same rule formats nothing."""
    return rule.csv_text
