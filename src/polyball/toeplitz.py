"""Multi-Toeplitz operators on truncated Fock tensor products.

A multi-Toeplitz operator is one invariant under the simultaneous
compressions by right-creation letters, factor by factor; it is determined by
its Fourier symbol, a finitely supported matrix-valued map on the index pairs
where per factor at least one word is the unit.  Membership (T equals its
own Fourier series) and coefficient extraction read the operator's stored
CSR entries; a symbol is evaluated at polyball points and back at the
truncated creation tuple, where its monomials scatter onto their pairings'
cells, computed from per-factor tables (``fock``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ._linalg import hermitian_norms, opnorm
from .berezin import PolyballPoint
from .fock import FockOperator, FockTruncation, pair_operator
from .words import (
    MultiWord,
    ShapeMismatchError,
    Side,
    compare,
    lambda_membership,
    lambda_pairs_up_to_total,
)


class NotLambdaPairError(ValueError):
    """The index pair has both words nontrivial in some factor."""


SymbolKey = tuple[MultiWord, MultiWord]


class MultiToeplitzSymbol:
    """Finitely supported Fourier symbol: {(a, b) -> e x e matrix}.

    A symbol is its shape, its coefficient dimension and ``coeffs``, nothing
    else: what the keys imply (lengths, adjoint partners, pair ids) is
    derived on each call, so every change to ``coeffs`` reaches every read.
    """

    def __init__(self, n: Iterable[int], e_dim: int,
                 coeffs: Mapping[SymbolKey, np.ndarray] | None = None):
        self.n = tuple(int(x) for x in n)
        self.e_dim = int(e_dim)
        self.coeffs: dict[SymbolKey, np.ndarray] = {}
        for (a, b), m in (coeffs or {}).items():
            self[a, b] = m

    @classmethod
    def _unchecked(cls, n: tuple[int, ...], e_dim: int,
                   coeffs: dict[SymbolKey, np.ndarray]) -> "MultiToeplitzSymbol":
        """The symbol holding ``coeffs`` as given, without ``__setitem__``'s
        checks: for derivations whose keys are lambda pairs of shape n and
        whose values are complex (e, e) arrays by construction."""
        sym = cls(n, e_dim)
        sym.coeffs = coeffs
        return sym

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
        function.  The only place the package computes this scaling.

        One product of the blocks with the per-key powers, each Python's
        ``r ** (|a|+|b|)`` (NumPy's array power can differ in the last bit),
        so every bit is the per-key product's."""
        lengths = np.array([a.total_length + b.total_length for a, b in self.coeffs],
                           dtype=np.int64)
        powers = np.array([r ** p for p in range(int(lengths.max(initial=0)) + 1)])
        blocks = powers[lengths][:, None, None] * self.blocks()
        return MultiToeplitzSymbol._unchecked(self.n, self.e_dim, dict(zip(self.coeffs, blocks)))

    def hermitian_defect(self) -> float:
        """Largest |c(a, b) - c(b, a)*| entry; NaN when a coefficient is NaN."""
        # per key (a, b), the position of (b, a), -1 where it is absent
        pos = {k: i for i, k in enumerate(self.coeffs)}
        partners = np.array([pos.get((b, a), -1) for a, b in self.coeffs], dtype=np.int64)
        blocks = self.blocks()
        adjoints = np.where((partners >= 0)[:, None, None], blocks[partners], 0)
        return float(np.max(np.abs(blocks - adjoints.conj().transpose(0, 2, 1)), initial=0.0))

    def max_difference(self, other: "MultiToeplitzSymbol") -> float:
        """Largest entry of |self - other| over both supports; NaN when a
        coefficient is NaN.  Symbols of different shapes or coefficient
        dimensions raise ``ShapeMismatchError``."""
        if (self.n, self.e_dim) != (other.n, other.e_dim):
            raise ShapeMismatchError(f"symbols over {self.n} with e = {self.e_dim} and over "
                                     f"{other.n} with e = {other.e_dim}")
        # the union of the keys, self's first; each of other's keys at its slot
        slot = {k: i for i, k in enumerate(self.coeffs)}
        where = [slot.setdefault(k, len(slot)) for k in other.coeffs]
        diff = np.zeros((len(slot), self.e_dim, self.e_dim), dtype=complex)
        diff[: len(self)] = self.blocks()
        diff[where] -= other.blocks()
        return float(np.max(np.abs(diff), initial=0.0))

    def blocks(self) -> np.ndarray:
        """The coefficients in key order, a (len(self), e, e) array."""
        return np.array(list(self.coeffs.values())).reshape(len(self), self.e_dim, self.e_dim)


@dataclass
class ToeplitzReport:
    passed: bool
    max_violation: float
    tol: float


def is_k_multi_toeplitz(T: FockOperator, tol: float = 1e-10) -> ToeplitzReport:
    """Check that T equals its own Fourier series; the violation is
    max|T - sum of T[a, b] (x) S_a S_b* over the lambda pairs (a, b)|.
    At finite truncation the multi-Toeplitz operators are the span of these
    pairings (``T_n = span{A_n* A_n}``), whose supports are disjoint.  The
    left pairing at (b~, a~) is S_a S_b*, its first cell b -> a, so T's
    coefficients are its blocks at the first cells (``first_cells``).
    No two pairings share a cell, so the series is never formed: on the
    cells of the nonzero coefficients the violation is |T - coefficient|,
    on T's other stored entries |T|."""
    trunc, e, m = T.trunc, T.coeff_dim, T.matrix
    src, dst = trunc.first_cells("left")
    coeffs = T.blocks(dst, src)
    pids = np.flatnonzero(coeffs.any(axis=(1, 2)))
    source, target, owner = trunc.pair_cells("left", pids)
    on = np.abs(T.blocks(target, source) - coeffs[pids[owner]])
    # the block (target, source) key of each stored entry and of each cell
    stored = np.repeat(np.arange(m.shape[0]) // e, np.diff(m.indptr)) * trunc.dim + m.indices // e
    off = ~np.isin(stored, target * trunc.dim + source)
    worst = float(np.max(np.concatenate([on.ravel(), np.abs(m.data[off])]), initial=0.0))
    return ToeplitzReport(worst <= tol, worst, tol)


def extract_symbol(T: FockOperator, max_total_len: int) -> MultiToeplitzSymbol:
    """All Fourier coefficients with |a| + |b| <= max_total_len, read in one
    lookup; exactly zero blocks are not stored."""
    pairs = lambda_pairs_up_to_total(T.trunc.n, max_total_len)
    index = T.trunc.basis_index
    blocks = np.asarray(T.blocks([index(a) for a, _ in pairs], [index(b) for _, b in pairs]),
                        dtype=complex)
    coeffs = {pairs[j]: blocks[j] for j in np.flatnonzero(blocks.any(axis=(1, 2)))}
    return MultiToeplitzSymbol._unchecked(T.trunc.n, T.coeff_dim, coeffs)


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
    lambda pair (b~, a~), so the sum is one scatter at the pairings' cells."""
    return pair_operator(trunc, side, symbol_pair_ids(sym, trunc), sym.scaled(r).blocks())


def symbol_pair_ids(sym: MultiToeplitzSymbol, trunc: FockTruncation) -> np.ndarray:
    """The pair id of each key's monomial, in key order: the key (a, b) is
    the pairing at (b~, a~); -1 where a word is beyond its degree."""
    if trunc.n != sym.n:
        raise ValueError(f"truncation shape {trunc.n} does not match symbol shape {sym.n}")
    return np.array([trunc.pair_id(b.reverse(), a.reverse()) for a, b in sym.coeffs],
                    dtype=np.int64)


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
    whose norms ``hermitian_norms`` takes from the CSR matrices in one call
    (one batched Lanczos recurrence above ``EXACT_DIM``); any other symbol's,
    ``opnorm`` of the dense one.  A NaN coefficient makes the defect NaN,
    which shows no asymmetry, so the symbol takes the Hermitian path, where
    every norm is NaN."""
    ops = [symbol_operator(sym, trunc, r) for r in r_grid]
    if not sym.hermitian_defect() > 0:
        return hermitian_norms([op.matrix for op in ops])
    return [opnorm(op.dense()) for op in ops]
