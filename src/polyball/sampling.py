"""Seeded random instances: polyball points, symbols, kernels.

Cross-factor commutation is arranged by drawing every entry as a polynomial
in one shared random matrix; nilpotent points use a strictly upper-triangular
seed so that all long products vanish.  Row norms are rescaled factor by
factor, which preserves commutation.
"""

from __future__ import annotations

import numpy as np

from .berezin import PolyballPoint, in_polyball
from .fock import FockTruncation, creation_tuple
from .naimark import ToeplitzKernel, kernel_from_columns, kernel_from_generator, word_columns
from .toeplitz import MultiToeplitzSymbol
from .words import (
    Side,
    identity_multiword,
    lambda_pairs_up_to_total,
    multiword,
    multiwords_up_to_total,
)


def _rand_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _row_rescaled(rows: list[list[np.ndarray]], targets: list[float]) -> PolyballPoint:
    out = []
    for row, target in zip(rows, targets):
        p = PolyballPoint([row])
        norm = p.row_norms()[0]
        if norm == 0.0:
            out.append(row)
        else:
            out.append([(target / norm) * m for m in row])
    point = PolyballPoint(out)
    # row contractivity alone does not force a positive defect when k > 1;
    # shrink until the point is inside the regular polyball
    while not in_polyball(point, margin=1e-6).member:
        point = point.scaled(0.8)
    return point


def random_point(rng: np.random.Generator, n, h_dim: int,
                 row_norm: float) -> PolyballPoint:
    """Random point with commuting factors and row norms <= row_norm."""
    n = tuple(n)
    targets = [row_norm * rng.uniform(0.5, 1.0) for _ in n]
    if len(n) == 1:
        rows = [[_rand_complex(rng, h_dim, h_dim) for _ in range(n[0])]]
    else:
        c = _rand_complex(rng, h_dim, h_dim)
        powers = [np.linalg.matrix_power(c, p) for p in range(h_dim)]
        rows = [
            [
                sum(_rand_complex(rng) * powers[p] for p in range(h_dim))
                for _ in range(ni)
            ]
            for ni in n
        ]
    return _row_rescaled(rows, targets)


def random_nilpotent_point(rng: np.random.Generator, n, h_dim: int,
                           row_norm: float) -> PolyballPoint:
    """Jointly nilpotent commuting point.

    Single factor: independent strictly upper-triangular entries.  Several
    factors: polynomials without constant term in a shared strictly
    upper-triangular seed, so the factors commute.
    """
    n = tuple(n)
    targets = [row_norm * rng.uniform(0.5, 1.0) for _ in n]
    if len(n) == 1:
        rows = [[np.triu(_rand_complex(rng, h_dim, h_dim), 1) for _ in range(n[0])]]
    else:
        c = np.triu(_rand_complex(rng, h_dim, h_dim), 1)
        powers = [np.linalg.matrix_power(c, p) for p in range(1, h_dim)]
        rows = [
            [sum(_rand_complex(rng) * m for m in powers) for _ in range(ni)]
            for ni in n
        ]
    return _row_rescaled(rows, targets)


def random_hermitian_symbol(rng: np.random.Generator, n, e_dim: int,
                            max_total_len: int, density: float = 1.0,
                            scale: float = 1.0) -> MultiToeplitzSymbol:
    """Hermitian-symmetric symbol with random coefficients on index pairs of
    total length <= max_total_len."""
    n = tuple(n)
    sym = MultiToeplitzSymbol(n, e_dim)
    for a, b in lambda_pairs_up_to_total(n, max_total_len):
        if (b, a) in sym.coeffs:
            continue
        if rng.uniform() > density:
            continue
        m = scale * _rand_complex(rng, e_dim, e_dim)
        if a == b:
            m = 0.5 * (m + m.conj().T)
        sym[a, b] = m
        if a != b:
            sym[b, a] = m.conj().T
    return sym


def random_embedding(rng: np.random.Generator, trunc: FockTruncation,
                     e_dim: int) -> np.ndarray:
    """Random isometric embedding of C^e_dim into the span of the basis words
    of total length <= 1: the Q factor of a random draw on those rows."""
    low = [trunc.basis_index(w) for w in multiwords_up_to_total(trunc.n, 1)]
    raw = np.zeros((trunc.dim, e_dim), dtype=complex)
    raw[low, :] = _rand_complex(rng, len(low), e_dim)
    q, _ = np.linalg.qr(raw)
    return q[:, :e_dim]


def random_psd_kernel(rng: np.random.Generator, side: Side, n, e_dim: int,
                      max_len: int) -> ToeplitzKernel:
    """Genuinely PSD multi-Toeplitz kernel: compression of the left creation
    tuple on a deep enough truncation to a random low-degree subspace.

    The letters are CSR, so deep truncations stay cheap.
    """
    n = tuple(n)
    depth = max_len + 2
    trunc = FockTruncation(n, [depth] * len(n))
    e_basis = random_embedding(rng, trunc, e_dim)
    return kernel_from_columns(side, n, max_len,
                               word_columns(creation_tuple(trunc), e_basis, max_len))


def random_non_psd_kernel(rng: np.random.Generator, side: Side, n, e_dim: int,
                          max_len: int) -> ToeplitzKernel:
    """Kernel whose generator violates contractivity, hence never PSD."""
    n = tuple(n)
    g = identity_multiword(n)
    w = multiword([[1]] + [[] for _ in n[1:]], n)
    big = (2.0 + rng.uniform()) * np.eye(e_dim)
    gen = MultiToeplitzSymbol(n, e_dim, {(g, g): np.eye(e_dim), (w, g): big, (g, w): big.conj().T})
    return kernel_from_generator(side, gen, max_len)


def random_creation_polynomial(rng: np.random.Generator, n, max_deg: int,
                               terms: int) -> dict:
    """Random creation-word polynomial as {multiword: coefficient}."""
    n = tuple(n)
    words = multiwords_up_to_total(n, max_deg)
    out = {}
    for idx in rng.choice(len(words), size=min(terms, len(words)), replace=False):
        out[words[int(idx)]] = complex(_rand_complex(rng))
    return out
