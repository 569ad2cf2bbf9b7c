import numpy as np
import pytest

from polyball._linalg import hermitian_norm, opnorm


@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_hermitian_norm_matches_opnorm(rng, dim):
    """Random indefinite Hermitian matrices, either sign of eigenvalue the
    larger in modulus."""
    for shift in (-3.0, 0.0, 3.0):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = a + a.conj().T + shift * np.eye(dim)
        assert hermitian_norm(h) == pytest.approx(opnorm(h), rel=1e-12)


def test_hermitian_norm_empty():
    assert hermitian_norm(np.zeros((0, 0), dtype=complex)) == 0.0
