"""Seeded random instances: polyball points, symbols, kernels.

Cross-factor commutation is arranged by drawing every entry as a polynomial
in one shared random matrix; nilpotent points use a strictly upper-triangular
seed so that all long products vanish.  Row norms are rescaled factor by
factor, which preserves commutation.
"""

from __future__ import annotations

import numpy as np

from .berezin import PolyballPoint, in_polyball
from .fock import FockTruncation
from .naimark import ToeplitzKernel, kernel_from_generator
from .pluriharm import universal_compression
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
    return _commuting_point(rng, n, h_dim, row_norm, nilpotent=False)


def random_nilpotent_point(rng: np.random.Generator, n, h_dim: int,
                           row_norm: float) -> PolyballPoint:
    """Jointly nilpotent commuting point.

    Single factor: independent strictly upper-triangular entries.  Several
    factors: polynomials without constant term in a shared strictly
    upper-triangular seed, so the factors commute; at h_dim = 1 there is no
    such power and every entry is zero.
    """
    return _commuting_point(rng, n, h_dim, row_norm, nilpotent=True)


def _commuting_point(rng: np.random.Generator, n, h_dim: int, row_norm: float,
                     nilpotent: bool) -> PolyballPoint:
    """The draws of ``random_point`` and ``random_nilpotent_point``: a
    nilpotent point takes the strict upper part of each seed and starts its
    polynomials at the first power.  Each entry's sum starts from the h x h
    zero matrix, whose +0.0 + x has the bits of 0 + x."""
    n = tuple(n)
    targets = [row_norm * rng.uniform(0.5, 1.0) for _ in n]

    def seed() -> np.ndarray:
        m = _rand_complex(rng, h_dim, h_dim)
        return np.triu(m, 1) if nilpotent else m

    if len(n) == 1:
        rows = [[seed() for _ in range(n[0])]]
    else:
        c = seed()
        powers = [np.linalg.matrix_power(c, p) for p in range(int(nilpotent), h_dim)]
        zero = np.zeros((h_dim, h_dim), dtype=complex)
        rows = [[sum((_rand_complex(rng) * m for m in powers), zero) for _ in range(ni)]
                for ni in n]
    return _row_rescaled(rows, targets)


def random_hermitian_symbol(rng: np.random.Generator, n, e_dim: int,
                            max_total_len: int, density: float = 1.0,
                            scale: float = 1.0) -> MultiToeplitzSymbol:
    """Hermitian-symmetric symbol with random coefficients on index pairs of
    total length <= max_total_len."""
    n = tuple(n)
    coeffs = {}
    for a, b in lambda_pairs_up_to_total(n, max_total_len):
        if (b, a) in coeffs:
            continue
        if rng.uniform() > density:
            continue
        m = scale * _rand_complex(rng, e_dim, e_dim)
        if a == b:
            m = 0.5 * (m + m.conj().T)
        coeffs[a, b] = m
        if a != b:
            coeffs[b, a] = m.conj().T
    return MultiToeplitzSymbol._unchecked(n, e_dim, coeffs)


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
    """Genuinely PSD multi-Toeplitz kernel, the structure theorem run forwards:
    generated by the symbol (S_a~ E)* (S_b~ E) of the left creations compressed
    to a random subspace E of the words of total length <= 1
    (``pluriharm.universal_compression``).

    E's words have total length at most 1, so the symbol is nonzero only at
    λ-pairs (a, b) with |a|, |b| <= 1.  The depth-2 truncation fixes the
    random draw of E.
    """
    trunc = FockTruncation(tuple(n), [2] * len(n))
    sym = universal_compression(trunc, "left", random_embedding(rng, trunc, e_dim), 2)
    return kernel_from_generator(side, sym, max_len)


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
