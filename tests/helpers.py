"""Helpers shared by several test modules."""

import random
from fractions import Fraction

from g2cub.coords import make_point
from g2cub.poly import star_key
from g2cub.sturm import moments


def leading_star_term(q):
    """(exponent pair, coefficient) of q's term latest in the weighted order."""
    key = max(q.coeffs, key=star_key)
    return key, q.coeffs[key]


def interior_points(count, seed):
    """count points drawn from random.Random(seed), each at least 0.02 inside
    every edge of the fundamental triangle."""
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        t2 = rng.uniform(0.02, 0.47)
        t1 = rng.uniform(t2 + 0.02, 1 - t2 - 0.02)
        pts.append(make_point(t1, t2))
    return pts


def fraction_inner(p, f, g):
    """The exact pairing in Fractions: f * g term pair by term pair, then
    each of its coefficients against its moment."""
    prod = {}
    for e, a in f.coeffs.items():
        for h, b in g.coeffs.items():
            key = (e[0] + h[0], e[1] + h[1])
            prod[key] = prod.get(key, 0) + Fraction(a) * Fraction(b)
    mu = moments(p, f.mdegree() + g.mdegree())
    return sum(c * mu[e] for e, c in prod.items())
