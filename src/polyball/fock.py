"""Finite truncations of tensor products of full Fock spaces.

The basis of a truncation is indexed by MultiWords: per factor all words of
length <= d_i in graded-lex order, factors combined row-major (factor 1
slowest).  Creation operators are the compressions P S P of the untruncated
ones; annihilation (the adjoint) is then exact everywhere, creation is exact
except on the top degree slice of its factor.  Word monomials S_a S_b* and
R_a R_b* are assembled as exact compressions of the corresponding infinite
operators, i.e. entrywise from word arithmetic, never as products of
truncated letters.

Word arithmetic is integer arithmetic on basis indices.  In factor i a word
w of length p has index offset[p] + rank(w), where offset[p] = sum of n_i^q
over q < p and rank(w) reads the letters minus one as base-n_i digits, first
letter most significant.  Stripping a head of length m is a divmod by
n_i^(p - m), stripping a tail a divmod by n_i^m, and attaching a word at
either end the matching multiply-add, so every index map is a few vectorized
operations on the per-factor rank array.

Sums over coefficient index pairs (a symbol's monomials, the Poisson
kernel's pairings) scatter from one table per truncation and side,
``FockTruncation.pair_table``: its pairing at the lambda pair (a, b) is the
monomial at (b~, a~), ~ the reversal.  ``monomial_indices`` serves single
word monomials, lambda pairs or not.

A vector is a plain (dim, c) amplitude array over (basis index, coefficient
index); an operator is a ``FockOperator``, which carries its truncation and
coefficient dimension.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .words import MultiWord, Side, Word, factor_lambda_pairs, words_up_to


class TruncationError(ValueError):
    """A word does not fit in the truncation."""


def _rank(w: Word) -> int:
    """Base-n rank of a word among the words of its length."""
    r = 0
    for g in w.letters:
        r = r * w.n + g - 1
    return r


class FockTruncation:
    """Descriptor of a truncated tensor product of full Fock spaces."""

    def __init__(self, n: Sequence[int], degrees: Sequence[int]):
        if len(n) != len(degrees):
            raise ValueError("n and degrees must have the same length")
        if any(d < 0 for d in degrees):
            raise ValueError("degrees must be >= 0")
        self.n = tuple(int(x) for x in n)
        self.degrees = tuple(int(d) for d in degrees)
        self.k = len(self.n)
        self._factor_words: list[list[Word]] = [
            words_up_to(ni, di) for ni, di in zip(self.n, self.degrees)
        ]
        # per factor: offset[p] = index of the first word of length p, and the
        # length and base-n rank of every basis word
        self._offset: list[np.ndarray] = []
        self._factor_degree: list[np.ndarray] = []
        self._rank: list[np.ndarray] = []
        for ni, di in zip(self.n, self.degrees):
            sizes = ni ** np.arange(di + 1, dtype=np.int64)
            offset = np.concatenate(([0], np.cumsum(sizes)))
            length = np.repeat(np.arange(di + 1, dtype=np.int64), sizes)
            self._offset.append(offset)
            self._factor_degree.append(length)
            self._rank.append(np.arange(offset[-1], dtype=np.int64) - offset[length])
        self.factor_dims = tuple(len(ws) for ws in self._factor_words)
        self.dim = int(np.prod(self.factor_dims))
        self._strides = tuple(
            int(np.prod(self.factor_dims[i + 1 :])) for i in range(self.k)
        )
        self._pair_tables: dict[Side, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- indexing -----------------------------------------------------------

    def factor_words(self, i: int) -> list[Word]:
        return self._factor_words[i - 1]

    def factor_word_index(self, i: int, w: Word) -> int:
        if w.n != self.n[i - 1] or len(w) > self.degrees[i - 1]:
            raise TruncationError(f"word {w!r} does not fit factor {i} of {self!r}")
        return int(self._offset[i - 1][len(w)]) + _rank(w)

    def basis_index(self, mw: MultiWord) -> int:
        if mw.n != self.n:
            raise TruncationError(f"multiword shape {mw.n} does not match {self.n}")
        flat = 0
        for i, w in enumerate(mw.parts, start=1):
            flat += self.factor_word_index(i, w) * self._strides[i - 1]
        return flat

    def basis_word(self, flat: int) -> MultiWord:
        parts = []
        for i in range(self.k):
            idx, flat = divmod(flat, self._strides[i])
            parts.append(self._factor_words[i][idx])
        return MultiWord(tuple(parts))

    def basis(self) -> list[MultiWord]:
        return [self.basis_word(i) for i in range(self.dim)]

    def admits(self, mw: MultiWord) -> bool:
        return mw.n == self.n and all(
            len(w) <= d for w, d in zip(mw.parts, self.degrees)
        )

    @property
    def vacuum_index(self) -> int:
        return 0

    # -- windows ------------------------------------------------------------

    def window_mask(self, budget: Sequence[int]) -> np.ndarray:
        """Boolean mask over the basis: per-factor degree <= d_i - budget_i."""
        if len(budget) != self.k:
            raise ValueError("budget length must equal number of factors")
        for b, d in zip(budget, self.degrees):
            if b < 0 or b > d:
                raise ValueError(f"budget {budget} exceeds degrees {self.degrees}")
        mask = np.ones(self.dim, dtype=bool)
        for i in range(self.k):
            ok = self._factor_degree[i] <= self.degrees[i] - budget[i]
            mask &= self._expand_factor_mask(i, ok)
        return mask

    def _expand_factor_mask(self, i: int, ok: np.ndarray) -> np.ndarray:
        shape = [1] * self.k
        shape[i] = self.factor_dims[i]
        return np.broadcast_to(ok.reshape(shape), self.factor_dims).ravel()

    def total_length_mask(self, max_total: int) -> np.ndarray:
        degs = np.zeros(self.factor_dims, dtype=np.int64)
        for i in range(self.k):
            shape = [1] * self.k
            shape[i] = self.factor_dims[i]
            degs = degs + self._factor_degree[i].reshape(shape)
        return (degs <= max_total).ravel()

    # -- per-factor letter maps ----------------------------------------------

    def _shift_map(self, i: int, strip: Word, attach: Word, side: Side) -> np.ndarray:
        """Int map over factor-i basis words of w -> attach.t where w = strip.t
        (left side, heads) or w -> t.attach where w = t.strip (right side,
        tails); -1 where strip does not fit or the result exceeds the cap."""
        n, d = self.n[i - 1], self.degrees[i - 1]
        out = np.full(self.factor_dims[i - 1], -1, dtype=np.int64)
        if len(strip) > d or len(attach) > d:
            return out
        length, rank = self._factor_degree[i - 1], self._rank[i - 1]
        rest = length - len(strip)
        ok = (rest >= 0) & (rest + len(attach) <= d)
        rest = np.where(ok, rest, 0)
        if side == "left":
            high, low = np.divmod(rank, n ** rest)
            ok &= high == _rank(strip)
            target = _rank(attach) * n ** rest + low
        else:
            high, low = np.divmod(rank, n ** len(strip))
            ok &= low == _rank(strip)
            target = high * n ** len(attach) + _rank(attach)
        target += self._offset[i - 1][rest + len(attach)]
        out[ok] = target[ok]
        return out

    def letter_map(self, side: Side, i: int, j: int) -> np.ndarray:
        """Map of the truncated creation letter on factor i."""
        if not 1 <= i <= self.k:
            raise ValueError(f"factor index {i} out of range")
        if not 1 <= j <= self.n[i - 1]:
            raise ValueError(f"generator index {j} out of range for factor {i}")
        ni = self.n[i - 1]
        return self._shift_map(i, Word((), ni), Word((j,), ni), side)

    def product_map(self, factor_maps: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Combine per-factor index maps into flat (source, target) arrays."""
        grids = np.meshgrid(*[np.arange(d) for d in self.factor_dims], indexing="ij")
        valid = np.ones(self.factor_dims, dtype=bool)
        tgt_flat = np.zeros(self.factor_dims, dtype=np.int64)
        src_flat = np.zeros(self.factor_dims, dtype=np.int64)
        for i in range(self.k):
            t = factor_maps[i][grids[i]]
            valid &= t >= 0
            tgt_flat += np.maximum(t, 0) * self._strides[i]
            src_flat += grids[i].astype(np.int64) * self._strides[i]
        return src_flat[valid].ravel(), tgt_flat[valid].ravel()

    # -- lambda-pair table -----------------------------------------------------

    def pair_id(self, a: MultiWord, b: MultiWord) -> int:
        """Position of the lambda pair (a, b) in ``lambda_pairs_within_degrees``;
        -1 when a word is longer than its degree."""
        pid = 0
        for i, (ai, bi) in enumerate(zip(a.parts, b.parts)):
            if not (ai.is_identity or bi.is_identity):
                raise ValueError(f"({a!r}; {b!r}) is not a lambda pair")
            if len(ai) > self.degrees[i] or len(bi) > self.degrees[i]:
                return -1
            # per factor: (w, e) at the index of w, then (e, w) for w nonempty
            dim = self.factor_dims[i]
            w, shift = (ai, 0) if bi.is_identity else (bi, dim - 1)
            pid = pid * (2 * dim - 1) + int(self._offset[i][len(w)]) + _rank(w) + shift
        return pid

    def pair_table(self, side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pair id, source, target) of every cell of the pairings: at the
        lambda pair (a, b) the monomial at (b~, a~), ids in
        ``lambda_pairs_within_degrees`` order.  Built on first use per side.

        Per factor, one ``_shift_map`` per single-factor pair; a multiword
        pair's cells are the product of its factors' cells, combined with the
        strides.  No (target, source) cell occurs twice: per factor, source
        and target determine the stripped and the attached word."""
        if side in self._pair_tables:
            return self._pair_tables[side]
        pid = src = dst = np.zeros(1, dtype=np.int64)
        for i, (ni, di, dim) in enumerate(zip(self.n, self.degrees, self.factor_dims), start=1):
            cells = []
            pairs = factor_lambda_pairs(ni, di)
            for p, (a, b) in enumerate(pairs):
                if side == "left":
                    a, b = a.reverse(), b.reverse()
                m = self._shift_map(i, a, b, side)
                s = np.flatnonzero(m >= 0)
                cells.append((np.full(s.size, p, dtype=np.int64), s, m[s]))
            p_i, s_i, t_i = (np.concatenate(c) for c in zip(*cells))
            pid = (pid[:, None] * len(pairs) + p_i).ravel()
            src = (src[:, None] * dim + s_i).ravel()
            dst = (dst[:, None] * dim + t_i).ravel()
        self._pair_tables[side] = pid, src, dst
        return pid, src, dst

    def __repr__(self) -> str:
        return f"FockTruncation(n={self.n}, degrees={self.degrees}, dim={self.dim})"


class FockOperator:
    """Square matrix on (truncation x coefficient space), space index major."""

    def __init__(self, trunc: FockTruncation, matrix, coeff_dim: int = 1):
        self.trunc = trunc
        self.coeff_dim = int(coeff_dim)
        self.matrix = matrix
        n = trunc.dim * self.coeff_dim
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} != ({n}, {n})")

    def dense(self) -> np.ndarray:
        return np.asarray(self.matrix)

    def norm(self) -> float:
        return float(np.linalg.norm(self.dense(), 2))


# ---------------------------------------------------------------------------
# operations


def apply_creation(trunc: FockTruncation, side: Side, i: int, j: int,
                   adjoint: bool, v: np.ndarray) -> np.ndarray:
    """Matrix-free action of a truncated creation letter or its adjoint on
    the (dim, c) amplitude array v; returns the (dim, c) image."""
    m = trunc.letter_map(side, i, j)
    c = v.shape[1]
    a = v.reshape(*trunc.factor_dims, c)
    a = np.moveaxis(a, i - 1, 0)
    out = np.zeros_like(a)
    valid = m >= 0
    if adjoint:
        out[valid] = a[m[valid]]
    else:
        out[m[valid]] = a[valid]
    return np.moveaxis(out, 0, i - 1).reshape(trunc.dim, c)


def creation_matrix(trunc: FockTruncation, side: Side, i: int, j: int,
                    adjoint: bool = False) -> np.ndarray:
    maps = [np.arange(d, dtype=np.int64) for d in trunc.factor_dims]
    maps[i - 1] = trunc.letter_map(side, i, j)
    src, dst = trunc.product_map(maps)
    m = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    if adjoint:
        m[src, dst] = 1.0
    else:
        m[dst, src] = 1.0
    return m


def monomial_indices(trunc: FockTruncation, a: MultiWord, b: MultiWord,
                     side: Side = "left") -> tuple[np.ndarray, np.ndarray]:
    """(source, target) basis indices of the exact compression of the word
    monomial: left side S_a S_b* (strip b as a head, prepend a), right side
    R_a R_b* (strip reversed b as a tail, append reversed a)."""
    if a.n != trunc.n or b.n != trunc.n:
        raise TruncationError("word shape does not match truncation")
    if side == "right":
        a, b = a.reverse(), b.reverse()
    maps = [trunc._shift_map(i, bi, ai, side)
            for i, (ai, bi) in enumerate(zip(a.parts, b.parts), start=1)]
    return trunc.product_map(maps)


def pair_operator(trunc: FockTruncation, side: Side, pids: np.ndarray,
                  blocks: np.ndarray) -> FockOperator:
    """Sum of blocks[j] (x) the pairing at pair id pids[j], as an explicit
    dense matrix; ids of -1 (pairs off the box) contribute nothing.

    The ids must be distinct.  Then no cell is hit twice, so one scatter
    onto zeros keeps every bit (signed zeros included) of the pair-by-pair
    sum."""
    e = blocks.shape[1]
    slot = np.full(math.prod(2 * d - 1 for d in trunc.factor_dims), -1, dtype=np.int64)
    keep = pids >= 0
    slot[pids[keep]] = np.flatnonzero(keep)
    pid, src, dst = trunc.pair_table(side)
    cell_slot = slot[pid]
    hit = cell_slot >= 0
    out = np.zeros((trunc.dim * e, trunc.dim * e), dtype=complex)
    out4 = out.reshape(trunc.dim, e, trunc.dim, e)
    out4[dst[hit], :, src[hit], :] += blocks[cell_slot[hit]]
    return FockOperator(trunc, out, coeff_dim=e)


def word_operator(trunc: FockTruncation, a: MultiWord, b: MultiWord,
                  coefficient: np.ndarray | None = None,
                  side: Side = "left") -> FockOperator:
    """coefficient (x) S_a S_b* as an explicit dense matrix (R-side on request).

    Assembled entrywise, so the result is the exact compression of the
    untruncated monomial; no intermediate-truncation artifacts.
    """
    if coefficient is None:
        coefficient = np.eye(1, dtype=complex)
    coefficient = np.asarray(coefficient, dtype=complex)
    e = coefficient.shape[0]
    src, dst = monomial_indices(trunc, a, b, side)
    n = trunc.dim * e
    m = np.zeros((n, n), dtype=complex)
    m4 = m.reshape(trunc.dim, e, trunc.dim, e)
    m4[dst, :, src, :] = coefficient
    return FockOperator(trunc, m, e)

