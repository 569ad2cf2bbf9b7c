import numpy as np
import pytest

from polyball.berezin import in_polyball
from polyball.sampling import (
    _rand_complex,
    _row_rescaled,
    random_nilpotent_point,
    random_point,
)


def _random_point_before(rng, n, h_dim, row_norm):
    """The former ``random_point``, each entry's sum started from the int 0."""
    n = tuple(n)
    targets = [row_norm * rng.uniform(0.5, 1.0) for _ in n]
    if len(n) == 1:
        rows = [[_rand_complex(rng, h_dim, h_dim) for _ in range(n[0])]]
    else:
        c = _rand_complex(rng, h_dim, h_dim)
        powers = [np.linalg.matrix_power(c, p) for p in range(h_dim)]
        rows = [[sum(_rand_complex(rng) * powers[p] for p in range(h_dim)) for _ in range(ni)]
                for ni in n]
    return _row_rescaled(rows, targets)


def _random_nilpotent_point_before(rng, n, h_dim, row_norm):
    """The former ``random_nilpotent_point``, which failed at h_dim = 1 with
    several factors (each entry was ``sum([])``, the int 0)."""
    n = tuple(n)
    targets = [row_norm * rng.uniform(0.5, 1.0) for _ in n]
    if len(n) == 1:
        rows = [[np.triu(_rand_complex(rng, h_dim, h_dim), 1) for _ in range(n[0])]]
    else:
        c = np.triu(_rand_complex(rng, h_dim, h_dim), 1)
        powers = [np.linalg.matrix_power(c, p) for p in range(1, h_dim)]
        rows = [[sum(_rand_complex(rng) * m for m in powers) for _ in range(ni)] for ni in n]
    return _row_rescaled(rows, targets)


@pytest.mark.parametrize("n", [(1, 1), (2, 1), (1, 1, 1)])
def test_nilpotent_point_at_dimension_one_is_zero(n):
    """At h = 1 a strictly upper-triangular seed has no power, so every
    entry is the 1 x 1 zero matrix, a point inside the polyball."""
    x = random_nilpotent_point(np.random.default_rng(0), n, 1, 0.9)
    assert x.n == n and x.h_dim == 1
    assert all(np.array_equal(m, np.zeros((1, 1))) for row in x.X for m in row)
    assert in_polyball(x).member


@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize("n", [(2,), (2, 1), (1, 1, 2)])
@pytest.mark.parametrize("draw, before", [
    (random_point, _random_point_before),
    (random_nilpotent_point, _random_nilpotent_point_before),
])
def test_draws_keep_their_bits(draw, before, n, h):
    """Starting each entry's sum from the zero matrix moves no bit of a draw
    at h >= 2: +0.0 + x has the bits of 0 + x."""
    for seed in range(10):
        got = draw(np.random.default_rng(seed), n, h, 0.9)
        want = before(np.random.default_rng(seed), n, h, 0.9)
        assert [[m.tobytes() for m in row] for row in got.X] == \
            [[m.tobytes() for m in row] for row in want.X]
