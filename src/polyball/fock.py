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
word monomials, lambda pairs or not (``word_matrix``, and ``word_operator``
with a coefficient).

The creation letters are CSR matrices with entries 1 (``creation_matrix``,
the tuple ``creation_tuple``): each sends a basis vector to a basis vector or
to zero (``FockTruncation.letter_image``), and every module applies them with
``@``.  ``apply_creation`` is their matrix-free action, the oracle the
letters are checked against.

Dense or sparse: an operator supported on comparable word pairs (a letter, a
word monomial, a pair or symbol operator) is CSR; a vector is a plain
(dim, c) amplitude array over (basis index, coefficient index).  A
``FockOperator`` carries its truncation and coefficient dimension, and
``dense()`` gives its matrix as an ndarray.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .words import MultiWord, Side, Word, words_up_to


class TruncationError(ValueError):
    """A word does not fit in the truncation."""


def _require_side(side: Side) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def word_rank(w: Word) -> int:
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
        return int(self._offset[i - 1][len(w)]) + word_rank(w)

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
        _require_side(side)
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
            ok &= high == word_rank(strip)
            target = word_rank(attach) * n ** rest + low
        else:
            high, low = np.divmod(rank, n ** len(strip))
            ok &= low == word_rank(strip)
            target = high * n ** len(attach) + word_rank(attach)
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

    def letter_image(self, side: Side, i: int, j: int, flat: np.ndarray) -> np.ndarray:
        """Basis index of the image of each basis index in ``flat`` under the
        truncated creation letter (i, j); -1 where the letter maps it to zero."""
        stride = self._strides[i - 1]
        word = flat // stride % self.factor_dims[i - 1]
        image = self.letter_map(side, i, j)[word]
        return np.where(image >= 0, flat + (image - word) * stride, -1)

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
            pid = pid * (2 * dim - 1) + int(self._offset[i][len(w)]) + word_rank(w) + shift
        return pid

    def pair_basis_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis indices of a and of b for every lambda pair (a, b), in pair
        id order: per factor (w, e) for every word w, then (e, w) for w
        nonempty, factors combined row-major as the basis is."""
        a = b = np.zeros(1, dtype=np.int64)
        for dim in self.factor_dims:
            words, units = np.arange(dim, dtype=np.int64), np.zeros(dim - 1, dtype=np.int64)
            a = (a[:, None] * dim + np.concatenate([words, units])).ravel()
            b = (b[:, None] * dim + np.concatenate([words[:1], units, words[1:]])).ravel()
        return a, b

    def pair_table(self, side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pair id, source, target) of every cell of the pairings: at the
        lambda pair (a, b) the monomial at (b~, a~), ids in
        ``lambda_pairs_within_degrees`` order, each pair's cells by ascending
        source.  Built on first use per side.

        Per factor the cells come from ``_factor_pair_cells``; a multiword
        pair's cells are the product of its factors' cells, combined with the
        strides.  No (target, source) cell occurs twice: per factor, source
        and target determine the stripped and the attached word."""
        _require_side(side)
        if side in self._pair_tables:
            return self._pair_tables[side]
        pid = src = dst = np.zeros(1, dtype=np.int64)
        for i, dim in enumerate(self.factor_dims):
            p_i, s_i, t_i = self._factor_pair_cells(i, side)
            pid = (pid[:, None] * (2 * dim - 1) + p_i).ravel()
            src = (src[:, None] * dim + s_i).ravel()
            dst = (dst[:, None] * dim + t_i).ravel()
        self._pair_tables[side] = pid, src, dst
        return pid, src, dst

    def _factor_pair_cells(self, i: int, side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pair id, source, target) cells of the single-factor lambda pairs of
        factor i (0-based), in ``factor_lambda_pairs`` order.

        The pair (u, e) strips u from the long word and (e, u) attaches it to
        the short one: the long word is t.u on the right side and u~.t on the
        left, for every kept word t with |u| + |t| <= d.  So the cells of the
        pairs with |u| = m and the kept words with |t| = p are one (n^m, n^p)
        block, an outer product of their ranks, read long to short for (u, e)
        and short to long for (e, u); per m, the blocks over p side by side,
        read row by row, give each pair's cells by ascending source."""
        n, d, dim, offset = self.n[i], self.degrees[i], self.factor_dims[i], self._offset[i]
        strip, attach = [], []
        for m in range(d + 1):
            u = np.arange(n ** m, dtype=np.int64)
            if side == "left":  # rank of the reversed word: digits read backwards
                rest, u = u, np.zeros_like(u)
                for _ in range(m):
                    rest, digit = np.divmod(rest, n)
                    u = u * n + digit
            longs, shorts = [], []
            for p in range(d - m + 1):
                t = np.arange(n ** p, dtype=np.int64)
                rank = u[:, None] * n ** p + t if side == "left" else t * n ** m + u[:, None]
                longs.append(offset[m + p] + rank)
                shorts.append(np.broadcast_to(offset[p] + t, rank.shape))
            long, short = np.hstack(longs).ravel(), np.hstack(shorts).ravel()
            ids = (offset[m] + np.arange(n ** m)).repeat(long.size // n ** m)
            strip.append((ids, long, short))
            if m:
                attach.append((ids + dim - 1, short, long))
        return tuple(np.concatenate(c) for c in zip(*strip, *attach))

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
        """The matrix as an ndarray; a sparse one is densified (a copy)."""
        return self.matrix.toarray() if hasattr(self.matrix, "toarray") else np.asarray(self.matrix)


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


def _unit_matrix(dim: int, rows: np.ndarray, cols: np.ndarray):
    """The dim x dim CSR matrix with a 1 at each (rows[k], cols[k]).  Word
    arithmetic keeps the graded-lex order, so for a letter or a word monomial
    the targets increase with the sources: either one, strictly increasing,
    is the row index of a CSR matrix with at most one entry per row."""
    import scipy.sparse as sp

    indptr = np.searchsorted(rows, np.arange(dim + 1))
    return sp.csr_matrix((np.ones(rows.size, dtype=complex), cols, indptr), shape=(dim, dim))


def creation_matrix(trunc: FockTruncation, side: Side, i: int, j: int,
                    adjoint: bool = False):
    """The truncated creation letter (or its adjoint) as a CSR matrix with
    entries 1: it sends each basis vector to a basis vector or to zero."""
    image = trunc.letter_image(side, i, j, np.arange(trunc.dim))
    src = np.flatnonzero(image >= 0)
    dst = image[src]
    return _unit_matrix(trunc.dim, src, dst) if adjoint else _unit_matrix(trunc.dim, dst, src)


def creation_tuple(trunc: FockTruncation, side: Side = "left") -> list[list]:
    """The truncated creation tuple [[S_i1 ... S_in_i] ...] (R on the right
    side), its letters CSR as ``creation_matrix`` builds them."""
    return [[creation_matrix(trunc, side, i, j) for j in range(1, ni + 1)]
            for i, ni in enumerate(trunc.n, start=1)]


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
    """Sum of blocks[j] (x) the pairing at pair id pids[j], as a CSR matrix;
    ids of -1 (pairs off the box) contribute nothing.

    The ids must be distinct.  Then no cell is hit twice, so every stored
    entry is one block entry, and ``dense()`` has every bit of the
    pair-by-pair sum onto zeros: the ``+ 0.0`` turns a -0.0 entry into +0.0,
    as that sum does."""
    import scipy.sparse as sp

    e = blocks.shape[1]
    slot = np.full(math.prod(2 * d - 1 for d in trunc.factor_dims), -1, dtype=np.int64)
    keep = pids >= 0
    slot[pids[keep]] = np.flatnonzero(keep)
    pid, src, dst = trunc.pair_table(side)
    cell_slot = slot[pid]
    hit = cell_slot >= 0
    p, q = np.indices((e, e))
    rows = dst[hit, None, None] * e + p
    cols = src[hit, None, None] * e + q
    data = blocks[cell_slot[hit]] + 0.0
    n = trunc.dim * e
    matrix = sp.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
    return FockOperator(trunc, matrix, coeff_dim=e)


def word_matrix(trunc: FockTruncation, a: MultiWord, b: MultiWord,
                side: Side = "left"):
    """S_a S_b* (R_a R_b* on the right side) as a CSR matrix with entries 1:
    the exact compression of the untruncated monomial, assembled entrywise
    from word arithmetic, so it has no intermediate-truncation artifacts."""
    src, dst = monomial_indices(trunc, a, b, side)
    return _unit_matrix(trunc.dim, dst, src)


def word_operator(trunc: FockTruncation, a: MultiWord, b: MultiWord,
                  coefficient: np.ndarray | None = None,
                  side: Side = "left") -> FockOperator:
    """coefficient (x) S_a S_b* (R-side on request) as a CSR ``FockOperator``:
    ``word_matrix`` amplified by the coefficient, or itself without one."""
    import scipy.sparse as sp

    m = word_matrix(trunc, a, b, side)
    if coefficient is None:
        return FockOperator(trunc, m)
    coefficient = np.asarray(coefficient, dtype=complex)
    return FockOperator(trunc, sp.kron(m, coefficient, format="csr"), coefficient.shape[0])
