"""Multi-Toeplitz operators on truncated Fock tensor products.

A multi-Toeplitz operator is one invariant under the simultaneous
compressions by right-creation letters, factor by factor; it is determined by
its Fourier symbol, a finitely supported matrix-valued map on the index pairs
where per factor at least one word is the unit.  This module provides the
membership test, coefficient extraction, and symbol evaluation both at
polyball points and back at the truncated creation tuple, where the symbol's
monomials scatter from the truncation's lambda-pair table (``fock``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ._linalg import hermitian_norm, opnorm
from .berezin import PolyballPoint
from .fock import FockOperator, FockTruncation, pair_operator
from .words import (
    MultiWord,
    Side,
    compare,
    identity_multiword,
    lambda_membership,
    lambda_pairs_up_to_total,
)


class NotLambdaPairError(ValueError):
    """The index pair has both words nontrivial in some factor."""


SymbolKey = tuple[MultiWord, MultiWord]


class MultiToeplitzSymbol:
    """Finitely supported Fourier symbol: {(a, b) -> e x e matrix}."""

    def __init__(self, n: Iterable[int], e_dim: int,
                 coeffs: Mapping[SymbolKey, np.ndarray] | None = None):
        self.n = tuple(int(x) for x in n)
        self.e_dim = int(e_dim)
        self.coeffs: dict[SymbolKey, np.ndarray] = {}
        for (a, b), m in (coeffs or {}).items():
            self[a, b] = m

    def __setitem__(self, key: SymbolKey, m: np.ndarray) -> None:
        a, b = key
        if a.n != self.n or b.n != self.n:
            raise ValueError(f"key shape {a.n}/{b.n} does not match symbol shape {self.n}")
        if not lambda_membership(a, b):
            raise NotLambdaPairError(f"({a!r}; {b!r}) has both words nontrivial in a factor")
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.e_dim, self.e_dim):
            raise ValueError(f"coefficient shape {m.shape} != ({self.e_dim}, {self.e_dim})")
        self.coeffs[(a, b)] = m

    def coeff(self, a: MultiWord, b: MultiWord) -> np.ndarray:
        return self.coeffs.get((a, b), np.zeros((self.e_dim, self.e_dim), dtype=complex))

    def items(self):
        return self.coeffs.items()

    def __len__(self) -> int:
        return len(self.coeffs)

    def scaled(self, r: float) -> "MultiToeplitzSymbol":
        """Coefficientwise r^(|a|+|b|) scaling: the symbol of the r-scaled
        function.  The only place the package computes this scaling."""
        out = MultiToeplitzSymbol(self.n, self.e_dim)
        out.coeffs = {
            k: (r ** (k[0].total_length + k[1].total_length)) * m
            for k, m in self.coeffs.items()
        }
        return out

    def hermitian_defect(self) -> float:
        worst = 0.0
        for (a, b), m in self.coeffs.items():
            worst = max(worst, float(np.max(np.abs(m - self.coeff(b, a).conj().T))))
        return worst

    def max_difference(self, other: "MultiToeplitzSymbol") -> float:
        keys = set(self.coeffs) | set(other.coeffs)
        return max(
            (float(np.max(np.abs(self.coeff(a, b) - other.coeff(a, b)))) for a, b in keys),
            default=0.0,
        )

    @staticmethod
    def constant(n: Iterable[int], matrix: np.ndarray) -> "MultiToeplitzSymbol":
        matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
        n = tuple(n)
        sym = MultiToeplitzSymbol(n, matrix.shape[0])
        g = identity_multiword(n)
        sym[g, g] = matrix
        return sym


@dataclass
class ToeplitzReport:
    passed: bool
    max_violation: float
    tol: float


def is_k_multi_toeplitz(T: FockOperator, tol: float = 1e-10) -> ToeplitzReport:
    """Check the right-compression invariance, factor by factor.

    Both sides are compressed to the budget-1 exact window, where the
    truncated check agrees exactly with the untruncated one provided T is the
    exact compression of an operator on the full space.
    """
    trunc = T.trunc
    e = T.coeff_dim
    m = T.dense()
    wmask = trunc.window_mask([1] * trunc.k)
    widx = np.flatnonzero(wmask)
    wblk = (widx[:, None] * e + np.arange(e)[None, :]).ravel()
    base = m[np.ix_(wblk, wblk)]
    worst = 0.0
    for i in range(1, trunc.k + 1):
        amaps = []
        for j in range(1, trunc.n[i - 1] + 1):
            fmaps = [np.arange(d, dtype=np.int64) for d in trunc.factor_dims]
            fmaps[i - 1] = trunc.letter_map("right", i, j)
            src, dst = trunc.product_map(fmaps)
            full = np.full(trunc.dim, -1, dtype=np.int64)
            full[src] = dst
            amaps.append(full)
        for s in range(trunc.n[i - 1]):
            for t in range(trunc.n[i - 1]):
                rows = amaps[s][widx]
                cols = amaps[t][widx]
                assert (rows >= 0).all() and (cols >= 0).all()
                rblk = (rows[:, None] * e + np.arange(e)[None, :]).ravel()
                cblk = (cols[:, None] * e + np.arange(e)[None, :]).ravel()
                lhs = m[np.ix_(rblk, cblk)]
                rhs = base if s == t else np.zeros_like(base)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0)
    return ToeplitzReport(worst <= tol, worst, tol)


def fourier_coefficient(T: FockOperator, a: MultiWord, b: MultiWord) -> np.ndarray:
    """Coefficient block of T at the index pair (a, b).

    Reads the prescribed matrix entries: the e x e block at basis row a and
    basis column b of the space index.
    """
    if not lambda_membership(a, b):
        raise NotLambdaPairError(f"({a!r}; {b!r}) is not a coefficient index pair")
    e = T.coeff_dim
    ia = T.trunc.basis_index(a)
    ib = T.trunc.basis_index(b)
    m = T.dense()
    return m[ia * e : (ia + 1) * e, ib * e : (ib + 1) * e].copy()


def extract_symbol(T: FockOperator, max_total_len: int) -> MultiToeplitzSymbol:
    """All Fourier coefficients with |a| + |b| <= max_total_len; exactly zero
    blocks are not stored."""
    sym = MultiToeplitzSymbol(T.trunc.n, T.coeff_dim)
    for a, b in lambda_pairs_up_to_total(T.trunc.n, max_total_len):
        c = fourier_coefficient(T, a, b)
        if np.any(c != 0):
            sym[a, b] = c
    return sym


def evaluate_symbol(sym: MultiToeplitzSymbol, X: PolyballPoint) -> np.ndarray:
    """Finite sum of coefficient (x) X_a X_b*, laid out h-major."""
    if X.n != sym.n:
        raise ValueError(f"point shape {X.n} does not match symbol shape {sym.n}")
    he = X.h_dim * sym.e_dim
    out = np.zeros((he, he), dtype=complex)
    for (a, b), c in sym.items():
        xm = X.monomial(a) @ X.monomial(b).conj().T
        out += np.kron(xm, c)
    return out


def symbol_operator(sym: MultiToeplitzSymbol, trunc: FockTruncation,
                    r: float = 1.0, side: Side = "left") -> FockOperator:
    """Evaluate the symbol at the scaled truncated creation tuple, i.e. the
    r-scaled symbol at the creations: the exact compression of the
    untruncated operator, equivalent to (but cheaper than) evaluate_symbol at
    the creation point.  The monomial at a key (a, b) is the pairing at the
    lambda pair (b~, a~), so the sum is one scatter from the pair table."""
    if trunc.n != sym.n:
        raise ValueError(f"truncation shape {trunc.n} does not match symbol shape {sym.n}")
    coeffs = sym.scaled(r).coeffs
    pids = np.array([trunc.pair_id(b.reverse(), a.reverse()) for a, b in coeffs],
                    dtype=np.int64)
    blocks = np.array(list(coeffs.values())).reshape(len(coeffs), sym.e_dim, sym.e_dim)
    return pair_operator(trunc, side, pids, blocks)


def creation_pair_symbol(p: Mapping[MultiWord, complex],
                         q: Mapping[MultiWord, complex],
                         n: Iterable[int]) -> MultiToeplitzSymbol:
    """Symbol of p(S)* q(S) for creation-word polynomials p, q.

    Each cross term S_u* S_v collapses factor by factor: when u_i is a head
    of v_i it contributes the creation quotient, when v_i is a head of u_i
    the annihilation quotient, and otherwise the term vanishes.
    """
    n = tuple(n)
    sym = MultiToeplitzSymbol(n, 1)
    acc: dict[SymbolKey, complex] = {}
    for u, cu in p.items():
        for v, cv in q.items():
            c = compare("left", v, u)
            if c.comparable:
                key = (c.c_plus, c.c_minus)
                acc[key] = acc.get(key, 0.0) + np.conj(cu) * cv
    for (a, b), val in acc.items():
        if val != 0:
            sym[a, b] = np.array([[val]], dtype=complex)
    return sym


def norm_on_grid(sym: MultiToeplitzSymbol, trunc: FockTruncation,
                 r_grid: Iterable[float]) -> list[float]:
    """Operator norms of the symbol at r-scaled truncated creations.  A
    symbol with zero Hermitian defect gives exactly Hermitian operators,
    whose norm ``hermitian_norm`` takes; any other symbol's, ``opnorm``."""
    norm = hermitian_norm if sym.hermitian_defect() == 0 else opnorm
    return [norm(symbol_operator(sym, trunc, r).dense()) for r in r_grid]
