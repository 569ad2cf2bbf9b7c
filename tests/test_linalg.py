import numpy as np
import pytest
import scipy.sparse as sp

from polyball._linalg import EXACT_DIM, hermitian_norm, opnorm, psd_sqrt


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


@pytest.mark.parametrize("fmt", ["dense", "csr"])
def test_hermitian_norm_lanczos_above_exact_dim(rng, fmt):
    """Above EXACT_DIM the norm comes from Lanczos, on a dense or a CSR
    matrix: it matches the SVD norm, for either sign of the eigenvalue
    largest in modulus, and repeats bit for bit."""
    dim = 700
    assert dim > EXACT_DIM
    for shift in (-10.0, 10.0):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a[rng.random((dim, dim)) > 0.05] = 0.0
        h = a + a.conj().T + shift * np.eye(dim)
        m = h if fmt == "dense" else sp.csr_matrix(h)
        got = hermitian_norm(m)
        assert got == pytest.approx(opnorm(h), rel=1e-12)
        assert hermitian_norm(m) == got


@pytest.mark.parametrize("dim", [5, 700])
def test_hermitian_norm_of_zero_is_zero(dim):
    """No nonzero entry: norm 0, without the Lanczos start vector that the
    operator would map to zero."""
    assert hermitian_norm(sp.csr_matrix((dim, dim), dtype=complex)) == 0.0
    assert hermitian_norm(np.zeros((dim, dim), dtype=complex)) == 0.0


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_psd_sqrt_is_the_hermitian_root(rng, dim):
    """A PSD matrix of rank dim - 1 (one eigenvalue zero): the root is
    Hermitian and squares back to the matrix."""
    a = rng.standard_normal((dim, dim - 1)) + 1j * rng.standard_normal((dim, dim - 1))
    m = a @ a.conj().T
    root = psd_sqrt(m)
    scale = max(opnorm(m), 1.0)
    assert np.abs(root - root.conj().T).max() <= 1e-14 * scale
    assert np.abs(root @ root - m).max() <= 1e-13 * scale


def test_psd_sqrt_of_a_tiny_negative_eigenvalue_is_not_nan():
    """An eigenvalue of -1e-17, which a plain sqrt would turn into NaN, is
    clipped to zero."""
    m = np.diag([2.0, 0.5, -1e-17]).astype(complex)
    assert np.linalg.eigvalsh(m)[0] < 0.0
    root = psd_sqrt(m)
    assert not np.isnan(root).any()
    np.testing.assert_allclose(root, np.diag(np.sqrt([2.0, 0.5, 0.0])), atol=1e-15)
