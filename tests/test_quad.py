from g2cub import quad
from g2cub.chebyshev import WeightParams, continuous_inner


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
