"""Small linear-algebra helpers shared across the package."""

from __future__ import annotations

import numpy as np


def opnorm(m: np.ndarray) -> float:
    """Operator (spectral) norm of a matrix."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(np.atleast_2d(m), 2))


EXACT_DIM = 192
"""Largest dimension at which spectral values are taken exactly by dense
LAPACK; above it they come from ``lanczos_top``.  Set at the measured
crossover of ``eigvalsh`` on the dense symbol operator of a random Hermitian
symbol against ``lanczos_top`` on its CSR form (2-core x86-64 VM, OpenBLAS
on 1 thread, best of 7): 2.6 against 6.3 ms at dim 155, 5.2 against 5.5 ms
and 6.0 against 4.2 ms at 186 (two runs), 6.8 against 4.2 ms at 196, 11.7
against 5.6 ms at 252 and 33.8 against 7.0 ms at 378."""


def lanczos_top(op) -> float:
    """The eigenvalue of largest modulus of the Hermitian square ``op`` (an
    ndarray or a SciPy sparse matrix), by Lanczos (``eigsh``, k=1)
    converged to a relative tolerance of 1e-12, from a fixed start vector.
    The value is repeatable run to run only with BLAS on one thread: on
    several threads the reductions' order, and with it the last bits, can
    differ between runs."""
    from scipy.sparse.linalg import eigsh

    dim = op.shape[0]
    v0 = np.ones(dim, dtype=complex) + 1e-3 * np.arange(dim)
    lam = eigsh(op, k=1, which="LM", v0=v0, tol=1e-12, return_eigenvectors=False)
    return float(lam[0].real)


def hermitian_norm(m) -> float:
    """Operator norm of a Hermitian matrix, dense or SciPy-sparse: the
    largest |eigenvalue|.  Up to ``EXACT_DIM`` it is exact (``eigvalsh``,
    about half the cost of an SVD; only the lower triangle is read); above
    it, ``lanczos_top`` on the matrix as given.  A matrix with no nonzero
    entry has norm 0 and skips Lanczos, whose start vector it would map
    to zero."""
    if m.shape[0] == 0:
        return 0.0
    sparse = hasattr(m, "toarray")
    if not (m.count_nonzero() if sparse else m.any()):
        return 0.0
    if m.shape[0] > EXACT_DIM:
        return abs(lanczos_top(m))
    w = np.linalg.eigvalsh(m.toarray() if sparse else m)
    return float(max(-w[0], w[-1]))


def min_eig_hermitian(m: np.ndarray) -> float:
    """Smallest eigenvalue of a (numerically) Hermitian matrix."""
    if m.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def psd_verdict(m: np.ndarray) -> tuple[bool, float, float]:
    """The package's one PSD criterion, on the Hermitian part of ``m``:
    ``(psd, smallest eigenvalue, scale)`` with scale = max(largest eigenvalue,
    1); PSD when the smallest eigenvalue is at least -1e-8 * scale."""
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    scale = max(float(w[-1]), 1.0)
    return float(w[0]) >= -1e-8 * scale, float(w[0]), scale


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """The PSD square root of ``m``'s Hermitian part, by eigendecomposition.

    Eigenvalues at or below 1e-12 * max(largest, 1) are set to zero, so
    nearly-singular defect operators do not produce NaNs."""
    h = 0.5 * (m + m.conj().T)
    w, u = np.linalg.eigh(h)
    cutoff = 1e-12 * max(float(w[-1]), 1.0) if w.size else 0.0
    w = np.where(w > cutoff, w, 0.0)
    return u @ (np.sqrt(w)[:, None] * u.conj().T)
