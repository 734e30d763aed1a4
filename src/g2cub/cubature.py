"""Polynomial cubature rules on the deltoid-bounded domain.

All four rules are images of the equal-weight lattice cubature on the
fundamental triangle, with nodes xy(j/m) and weights proportional to the
lattice weight times the squared trigonometric factor that cancels the
denominator of the corresponding weight function:

    gauss    factor ss(1/m j)^2   lattice m = n+5, interior nodes only
    lobatto  factor 1             lattice m = n,   all nodes
    radau1   factor sc(1/m j)^2   lattice m = n+2, nodes off the t1=t2 edge
    radau2   factor cs(1/m j)^2   lattice m = n+3, nodes off t2=0 and t3=-1

Each kind names one trig family, whose member at its shift index is the
factor; `CubatureRule` reads the rest of the rule off that family.  Each
rule integrates its weight exactly on polynomials of weighted degree up
to 2n-1 and is normalized so the weights sum to one.  Nodes whose factor
vanishes identically are dropped by integer tests: `TrigFamily.vanishes`
on the generating lattice triple and, when p = 1, the t3 = -1 edge
(j3 = -m), so node counts are deterministic; `verify.variety_check`
checks the residuals of each rule's ideal generators on its nodes.

Accuracy, to first order in u = 2^-53 with sin and cos within 1 ulp:
a node coordinate and the factor v at j/m come from the closed form of
`gentrig.eval`, whose error adds up over its rounded arguments, u per
sin, cos and product, and its three-term sum (README, "Rule accuracy").
So x is within 16 u and y within 34 u of xy(j/m), and v within E = 48 u
(gauss), 16 u (radau1), 34 u (radau2) and 0 (lobatto).  The weight
|orbit(shift)| upsilon(j) v^2 / m^2 adds 4 roundings, so it is within
(4 u + 2 E / V) max w, V = m (max w / (12 |orbit(shift)|))^(1/2): 155 u,
42 u, 82 u and 4 u times the largest weight for 40 <= n <= 1000.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .coords import orbit_size, point_from_index
from .gentrig import TrigFamily, eval as trig_eval, xy_map
from .lattice import enum_upsilon, upsilon_weight
from .poly import BivarPoly
from .quad import Rule
from .sturm import WeightParams, continuous_inner

# rule kind -> the trig family whose squared shift member is its factor
_RULE_FAMILY = {
    "gauss": TrigFamily.SS,
    "lobatto": TrigFamily.CC,
    "radau1": TrigFamily.SC,
    "radau2": TrigFamily.CS,
}
RULE_KINDS = tuple(_RULE_FAMILY)


class CubatureRule(Rule):
    """The rule of kind and size n, read off the sine bits (d, p) and the
    shift of its factor family: lattice size m = n + shift1 - shift3, weight
    parameters (d - 1/2, p - 1/2), scale |orbit(shift)|, and the nodes where
    the factor vanishes dropped: where `TrigFamily.vanishes` holds at the
    lattice triple j and, when p = 1, on the t3 = -1 edge j3 = -m.  It holds
    m, nodes (N, 2) in lexicographic lattice order, their weights and
    indices (N, 3), the generating lattice triples in the same order, all
    read-only, its exactness degree 2n - 1 and its weight parameters.  It
    prints, compares and hashes by (kind, n), and pickle and copy build it
    again from them.  Its first export builds both the JSON and the CSV text
    (`texts`) from one formatting pass, and the cached rule keeps them."""

    _fields = ("kind", "n")

    def __init__(self, kind: str, n: int):
        family = _RULE_FAMILY.get(kind)
        if family is None:
            raise ValueError(f"unknown rule kind {kind!r}")
        n = operator.index(n)
        if n < 1:
            raise ValueError("n must be >= 1")
        m = n + family.shift[0] - family.shift[2]
        j = enum_upsilon(m)
        # with p = 1 the factor vanishes on the edge t3 = -1 too, a wall of its
        # periodic extension that no zero or equal component of j marks
        j = j[~(family.vanishes(j.T) | ((family.sines[1] == 1) & (j[:, 2] == -m)))]
        t = point_from_index(j.T, m)
        value = trig_eval(family, family.shift, t)
        weights = orbit_size(family.shift) / m ** 2 * upsilon_weight(j.T, m) * (value * value)
        super().__init__(np.array(xy_map(t)).T, weights)  # the transpose keeps x and y contiguous
        j.flags.writeable = False
        vars(self).update(kind=kind, n=n, m=m, exact_mdegree=2 * n - 1,
                          weight_params=WeightParams(*family.params), indices=j)

    def __eq__(self, other):
        return isinstance(other, CubatureRule) and (self.kind, self.n) == (other.kind, other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    @functools.cached_property
    def columns(self) -> tuple:
        """(xs, ys, ws): the nodes' x and y and their weights, each a list
        of Python floats in node order, built on first use."""
        return (*self.nodes.T.tolist(), self.weights.tolist())

    @functools.cached_property
    def texts(self) -> tuple:
        """(json_text, csv_text), the texts of `rule_to_json(self)` and
        `rule_to_csv(self)`, laid out on the rule's first export and kept
        with the rule.  One %.17g pass over the (N, 3) table of nodes and
        weights writes the CSV rows; the JSON places the same digit
        strings, so no float is formatted twice."""
        count = len(self.weights)
        table = np.column_stack((self.nodes, self.weights))
        rows = "%.17g,%.17g,%.17g\n" * count % tuple(table.ravel().tolist())
        digits = rows.replace("\n", ",").split(",")  # x, y, weight per node, then ""
        del digits[-1]
        weights = ", ".join(digits[2::3])
        del digits[2::3]
        nodes = ",\n".join(["    [%s, %s]"] * count) % tuple(digits)
        p = self.weight_params
        return (_JSON % (self.kind, self.n, float(p.alpha), float(p.beta),
                         nodes, weights, self.exact_mdegree),
                "x,y,weight\n" + rows)


def make_rule(kind: str, n: int) -> CubatureRule:
    """`CubatureRule(kind, n)`, with n through `operator.index` first, so
    a non-integer n raises TypeError, and one below 1 ValueError, whether
    or not the rule is cached.  Rules are immutable, so the last 32 built
    are cached and shared (`_build_rule`)."""
    return _build_rule(kind, operator.index(n))


_build_rule = functools.lru_cache(maxsize=32)(CubatureRule)


def integrate(rule: CubatureRule, f) -> float:
    """Apply the rule to a callable on Python floats (x, y), summing in
    node order."""
    total = 0.0
    for x, y, w in zip(*rule.columns):
        total += w * f(x, y)
    return total


def integrate_poly(rule: CubatureRule, p: BivarPoly) -> float:
    """Apply the rule to a polynomial: `BivarPoly.exact_sum` over the rule's
    `columns`, exact at the floats' binary values and rounded once."""
    return p.exact_sum(*rule.columns)


def reference_integral(p: WeightParams, f) -> float:
    """Independent oracle: `continuous_inner` of f and 1, exact and rounded
    once for a polynomial, by quadrature at `quad.DEFAULT_TOL` otherwise."""
    one = BivarPoly.constant(1) if isinstance(f, BivarPoly) else (lambda x, y: 1.0)
    return continuous_inner(p, f, one)


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
    """The rule in the layout `jsonio.dumps` gives its fields.  A rule's
    first export, in either format, lays out both texts from one %.17g
    pass over its floats and keeps them with the cached rule
    (`rule.texts`, ~160 KB of JSON and ~140 KB of CSV at n = 160), so a
    later export of the same rule in the same process formats nothing."""
    return rule.texts[0]


def rule_to_csv(rule: CubatureRule) -> str:
    """The rule as CSV: an "x,y,weight" header, then one "x,y,weight" line
    per node in node order, with the digits of `rule_to_json` (see there:
    both texts come from one formatting pass and are kept with the rule)."""
    return rule.texts[1]
