import numpy as np
import pytest
import scipy.sparse as sp

from polyball._linalg import EXACT_DIM, hermitian_norm, opnorm, schur_bound


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


@pytest.mark.parametrize("fmt", ["dense", "csr"])
@pytest.mark.parametrize("dim", [60, 193, 400])
def test_schur_bound_is_at_least_the_norm(rng, fmt, dim):
    """On random sparse Hermitian matrices, either sign of eigenvalue the
    larger in modulus, the certificate bounds the exact eigvalsh norm from
    above."""
    for shift in (-3.0, 0.0, 3.0):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a[rng.random((dim, dim)) > 0.1] = 0.0
        h = a + a.conj().T + shift * np.eye(dim)
        exact = float(np.abs(np.linalg.eigvalsh(h)).max())
        assert schur_bound(h if fmt == "dense" else sp.csr_matrix(h)) >= exact


@pytest.mark.parametrize("fmt", ["dense", "csr"])
def test_schur_bound_exact_on_diagonals_zero_and_empty(rng, fmt):
    """Diagonal matrices: the certificate is the exact norm.  The zero and
    the empty matrix: 0."""
    wrap = (lambda m: m) if fmt == "dense" else sp.csr_matrix
    for d in (rng.standard_normal(50), -np.arange(1.0, 8.0), 1j * rng.standard_normal(9)):
        h = np.diag(d)
        assert schur_bound(wrap(h)) == np.abs(d).max()
        assert schur_bound(wrap(h)) == pytest.approx(opnorm(h), rel=1e-15)
    assert schur_bound(wrap(np.zeros((6, 6), dtype=complex))) == 0.0
    assert schur_bound(wrap(np.zeros((0, 0), dtype=complex))) == 0.0
