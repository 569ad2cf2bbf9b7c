"""Small linear-algebra helpers shared across the package.

Norms and PSD verdicts are dense LAPACK, except the norms of Hermitian
matrices above ``EXACT_DIM``: ``hermitian_norms`` takes those from one
batched Lanczos recurrence, the package's only iterative spectral solver
(no ARPACK)."""

from __future__ import annotations

import math

import numpy as np


def opnorm(m: np.ndarray) -> float:
    """Operator (spectral) norm of a matrix: its largest singular value, the
    first of LAPACK's descending ones.  The same call as
    ``np.linalg.norm(m, 2)`` makes, without that function's dispatch."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(np.atleast_2d(m), compute_uv=False)[0])


EXACT_DIM = 124
"""Largest dimension at which ``hermitian_norms`` takes a norm exactly, by
dense LAPACK; above it the norm comes from the batched Lanczos recurrence.
Set at the measured crossover of the two on the five-radius grid of a
random Hermitian symbol's operators at (2,1) (2-core x86-64 VM, OpenBLAS on
1 thread, median over 5 symbols of the best of 7, two runs):

  dim   five eigvalsh   one batched recurrence
  124    5.3 -  5.4 ms    5.5 ms
  155   10.5 - 11.0 ms    5.7 -  5.8 ms
  186   16.5 - 16.9 ms    6.2 -  6.4 ms
  252   34.6 - 35.3 ms    8.1 -  8.3 ms
  378   97.1 - 101 ms     9.8 - 10.4 ms"""


def hermitian_norms(mats) -> list[float]:
    """Operator norms of Hermitian matrices, dense or SciPy-sparse: each the
    largest |eigenvalue|.

    Up to ``EXACT_DIM`` a norm is exact (``eigvalsh``, about half the cost of
    an SVD; only the lower triangle is read).  Above it the matrices run one
    three-term Lanczos recurrence each, without reorthogonalization, all
    advanced together by one block-diagonal CSR matvec per step
    (``_lanczos_norms``).  A matrix with no nonzero entry has norm 0, and
    one with a NaN or infinite entry has norm NaN, on both paths: LAPACK
    would return numbers for it or fail to converge, and the recurrence
    would carry the NaN into its tridiagonal."""
    import scipy.sparse as sp

    norms, above = [], {}
    for k, m in enumerate(mats):
        if hasattr(m, "toarray"):
            m = sp.csr_matrix(m)
            values = m.data
        else:
            m = values = np.asarray(m)
        if not values.any():
            norms.append(0.0)
        elif not np.isfinite(values).all():
            norms.append(math.nan)
        elif m.shape[0] > EXACT_DIM:
            norms.append(math.nan)  # the recurrence's value, below
            above[k] = sp.csr_matrix(m)
        else:
            w = np.linalg.eigvalsh(m if isinstance(m, np.ndarray) else m.toarray())
            norms.append(float(max(-w[0], w[-1])))
    if above:
        for k, value in zip(above, _lanczos_norms(list(above.values()))[0]):
            norms[k] = value
    return norms


RITZ_CHECK_STEPS = 8
"""Steps between two convergence checks of the Lanczos recurrence.  Checks
24 steps apart cost 192 or 216 steps instead of 80 on some draws: the top
Ritz value's residual estimate stays large while its ghost copy forms."""


def _lanczos_norms(mats) -> tuple[list[float], list[int]]:
    """The largest |eigenvalue| of each finite, nonzero Hermitian CSR matrix
    in ``mats``, and the number of Lanczos steps it took.

    Each matrix runs the three-term recurrence from the fixed start vector
    1 + 1e-3 (0, 1, ..., N - 1), normalized.  The matrices are padded with
    zeros to the largest dimension, which the recurrence never reaches, and
    advance together by one matvec of their block-diagonal CSR matrix.
    Every ``RITZ_CHECK_STEPS`` steps the two extreme Ritz pairs (theta, s)
    of each unfinished matrix's tridiagonal T_j are taken, and the matrix
    is finished, its norm |theta| for the larger-modulus end, when
    - that end's residual bound |beta_j s_j| is at most 1e-12 |theta|
      (ARPACK's rule), and the other end's |theta'| plus its own bound is
      below |theta|;
    - or beta_j = 0 (the Krylov space is invariant);
    - or j = N (T_N holds the whole spectrum).
    A finished matrix takes no part in later checks.  Only elementwise
    arithmetic and NumPy sums touch the vectors, no BLAS reduction, so the
    values repeat run to run."""
    import scipy.sparse as sp
    from scipy.linalg import eigh_tridiagonal

    dims = np.array([m.shape[0] for m in mats])
    count, size = len(mats), int(dims.max())
    padded = [sp.csr_matrix((m.data, m.indices, np.pad(m.indptr, (0, size - d), "edge")),
                            shape=(size, size)) for m, d in zip(mats, dims)]
    a = sp.block_diag(padded, format="csr")
    start = np.ones(size, dtype=complex) + 1e-3 * np.arange(size)
    v = np.where(np.arange(size) < dims[:, None], start, 0)
    v /= np.sqrt(np.sum(v.real ** 2 + v.imag ** 2, axis=1))[:, None]
    prev = np.zeros_like(v)
    alpha, beta = np.zeros((count, size)), np.zeros((count, size + 1))
    norms, steps = [math.nan] * count, [0] * count
    live = np.ones(count, dtype=bool)
    for j in range(1, size + 1):
        w = (a @ v.ravel()).reshape(count, size) - beta[:, j - 1, None] * prev
        alpha[:, j - 1] = np.sum((v.conj() * w).real, axis=1)
        w -= alpha[:, j - 1, None] * v
        b = beta[:, j] = np.sqrt(np.sum(w.real ** 2 + w.imag ** 2, axis=1))
        prev, v = v, w / np.where(b == 0, 1.0, b)[:, None]
        final = live & ((b == 0) | (dims == j))
        for k in np.flatnonzero(live if j % RITZ_CHECK_STEPS == 0 else final):
            # (theta, s_j) at both ends of T_j, the larger |theta| first
            ritz = [eigh_tridiagonal(alpha[k, :j], beta[k, 1:j], select="i",
                                     select_range=(i, i)) for i in (0, j - 1)]
            (top, s), (other, s2) = sorted([(vals[0], vecs[-1, 0]) for vals, vecs in ritz],
                                           key=lambda pair: -abs(pair[0]))
            if final[k] or (abs(b[k] * s) <= 1e-12 * abs(top)
                           and abs(other) + abs(b[k] * s2) < abs(top)):
                norms[k], steps[k], live[k] = float(abs(top)), j, False
        if not live.any():
            break
    return norms, steps


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
