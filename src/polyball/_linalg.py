"""Small dense linear-algebra helpers shared across the package."""

from __future__ import annotations

import numpy as np


def opnorm(m: np.ndarray) -> float:
    """Operator (spectral) norm of a matrix."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(np.atleast_2d(m), 2))


def hermitian_norm(m: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix: the largest |eigenvalue|.  Exact,
    like ``opnorm``, at about half the cost of an SVD; only the lower
    triangle is read."""
    if m.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(m)
    return float(max(-w[0], w[-1]))


def min_eig_hermitian(m: np.ndarray) -> float:
    """Smallest eigenvalue of a (numerically) Hermitian matrix."""
    if m.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def psd_sqrt(m: np.ndarray):
    """Square root of a PSD matrix via eigendecomposition.

    Eigenvalues at or below 1e-12 * max(largest, 1) are set to zero, so
    nearly-singular defect operators do not produce NaNs.  Returns
    ``(root, factor, rank)`` where ``root = factor.conj().T @ factor`` is the
    full square root and ``factor`` has shape (rank, dim), i.e. only the
    numerically nonzero directions.
    """
    h = 0.5 * (m + m.conj().T)
    w, u = np.linalg.eigh(h)
    cutoff = 1e-12 * max(float(w[-1]), 1.0) if w.size else 0.0
    keep = w > cutoff
    w = np.where(keep, w, 0.0)
    factor = (np.sqrt(w[keep])[:, None] * u[:, keep].conj().T)
    root = u @ (np.sqrt(w)[:, None] * u.conj().T)
    return root, factor, int(np.count_nonzero(keep))

