import math

import numpy as np
import pytest

from g2cub import quad
from g2cub.chebyshev import WeightParams, continuous_inner, weight_w, xy_map
from g2cub.coords import make_index
from g2cub.gentrig import eval as trig


def test_moment_cache_honours_a_tighter_tolerance():
    # a loose call must not serve its moments to a later, tighter one
    a, b = 0.31, 1.17  # used by no other test, so the cache starts cold
    quad.moment_table(a, b, 12, tol=1e-3)
    moments, _ = quad.moment_table(a, b, 12, tol=1e-13)
    p = WeightParams(a, b)
    for (i, j), value in moments.items():
        direct = continuous_inner(
            p, lambda x, y: x ** i * y ** j, lambda x, y: 1.0, tol=1e-13
        )
        assert abs(value - direct) <= 1e-12, (i, j)


@pytest.mark.parametrize("a,b", [(0.3, 1.2), (-0.4, 0.7), (0.5, -0.5), (-0.5, -0.5)])
def test_pullback_is_the_weight_times_the_jacobian(a, b):
    # weight_w(x, y) |dx dy / dt1 dt2| = (4 pi^2 / 3)^(a+b+1) |sc|^(2a+1) |cs|^(2b+1)
    t1, t2 = np.array([0.31, 0.52, 0.7]), np.array([0.08, 0.2, 0.11])
    x, y, w = quad.pullback(a, b, t1, t2)
    w = np.broadcast_to(w, t1.shape)  # a scalar 1.0 when both exponents vanish
    t = (t1, t2, -t1 - t2)
    assert all(np.array_equal(u, v) for u, v in zip((x, y), xy_map(t)))
    jac = 4 * math.pi ** 2 / 3 * np.abs(trig("sc", make_index(1, 0), t) * trig("cs", make_index(1, 1), t))
    p = WeightParams(a, b)
    for i in range(t1.size):
        expect = weight_w(p, x[i], y[i]) * jac[i] / (4 * math.pi ** 2 / 3) ** (a + b + 1)
        assert w[i] == pytest.approx(expect, rel=1e-12)
