"""Finite truncations of tensor products of full Fock spaces.

The basis of a truncation is indexed by MultiWords: per factor all words of
length <= d_i in graded-lex order, factors combined row-major (factor 1
slowest).  Creation operators are the compressions P S P of the untruncated
ones; annihilation (the adjoint) is then exact everywhere, creation is exact
except on the top degree slice of its factor.

Word arithmetic is integer arithmetic on basis indices.  In factor i a word
w of length p has index offset[p] + rank(w), where offset[p] = sum of n_i^q
over q < p and rank(w) reads the letters minus one as base-n_i digits, first
letter most significant.  A truncation keeps these integer tables and no
word list: ``basis_word`` reads a MultiWord back from the shared
``words.words_up_to`` enumeration.  One table for words and letters: every word
index map is read from one table per truncation and side,
``FockTruncation.pair_table``, whose pairing at the lambda pair (a, b) is the
monomial at (b~, a~), ~ the reversal.  A creation letter is the pairing at
(e, g), g the one-letter multiword, and its adjoint the pairing at (g, e).
Only the matrix-free oracle ``apply_creation`` reads the letters from the
formula rank(g_j.w) = (j - 1) n_i^|w| + rank(w), rank(w.g_j) = rank(w) n_i +
j - 1 (``FockTruncation.letter_map``), so the two are independent.

The table is a pure function of the shape and the side, so it is built once
per (n, degrees, side) and process and shared by every truncation of that
shape (at most ``PAIR_TABLE_CACHE_SIZE`` of them); its arrays are read-only.
``FockTruncation.pair_id`` is memoized per (n, degrees, a, b) in the same
way, up to ``PAIR_ID_CACHE_SIZE`` keys; a refused key raises every time.
The creation letters of ``creation_tuple`` are built once per (n, degrees,
side) too (at most ``LETTER_CACHE_SIZE`` shapes), their arrays read-only,
and every call returns fresh lists of the shared letters.
Nothing keyed by data (a coefficient, a point, an operator) is cached,
and no such object keeps what it implies: ``FockOperator.blocks`` reads
the stored keys from the CSR matrix on each call.

The table is grouped by pair id, so every reader slices its own pairs'
cells: ``FockTruncation.pair_cells`` gives their (source, target) words and
the index of each cell's pair, an id of -1 (a pair off the box) owning no
cell.  Sums over coefficient index pairs (a symbol's monomials, the Poisson
kernel's pairings, the resolvent's creation words) gather them in one pass
(``pair_operator``); a compression K* P K of a pairing P is the sum of
K[target]* K[source] over its cells (``berezin.pair_transforms``).  A single
word monomial S_a S_b* (R_a R_b* on the right side), lambda pair or not,
composes two pairings (``monomial_indices``): S_b* is the pairing at (b~, e)
and S_a the one at (e, a~).  An annihilation never leaves the truncation, so
P S_a P S_b* P = P S_a S_b* P: the exact compression of the monomial.

The creation letters are CSR matrices with entries 1 (``creation_matrix``,
the tuple ``creation_tuple``), the word monomials of one letter
(``word_matrix``), and every module applies them with ``@``.

Dense or sparse: an operator supported on comparable word pairs (a letter, a
word monomial, a pair or symbol operator) is CSR; a vector is a plain
(dim, c) amplitude array over (basis index, coefficient index).  A
``FockOperator`` carries its truncation and coefficient dimension, is CSR
whatever it is built from, and is read by ``blocks``; ``dense()`` is for LAPACK.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .words import (MultiWord, Side, Word, _require_side, _words_up_to, identity_multiword,
                    multiword)


# shapes kept in the pair-table and letter caches, and keys in the pair-id cache
PAIR_TABLE_CACHE_SIZE = 16
LETTER_CACHE_SIZE = 16
PAIR_ID_CACHE_SIZE = 1 << 14


class TruncationError(ValueError):
    """A word does not fit in the truncation."""


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
        if any(ni < 1 for ni in n):
            raise ValueError(f"n must be >= 1, got {list(n)}")
        self.n = tuple(int(x) for x in n)
        self.degrees = tuple(int(d) for d in degrees)
        self.k = len(self.n)
        # per factor: offset[p] = index of the first word of length p, and the
        # length and base-n rank of every basis word
        self._offset: list[np.ndarray] = []
        self._factor_degree: list[np.ndarray] = []
        self._rank: list[np.ndarray] = []
        for ni, di in zip(self.n, self.degrees):
            offset = _factor_offset(ni, di)
            length = np.repeat(np.arange(di + 1, dtype=np.int64), np.diff(offset))
            self._offset.append(offset)
            self._factor_degree.append(length)
            self._rank.append(np.arange(offset[-1], dtype=np.int64) - offset[length])
        self.factor_dims = tuple(int(offset[-1]) for offset in self._offset)
        self.dim = int(np.prod(self.factor_dims))
        self._strides = tuple(
            int(np.prod(self.factor_dims[i + 1 :])) for i in range(self.k)
        )

    # -- indexing -----------------------------------------------------------

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
        """The basis word at ``flat``, its parts read from the shared ``words_up_to``."""
        parts = []
        for i in range(self.k):
            idx, flat = divmod(flat, self._strides[i])
            parts.append(_words_up_to(self.n[i], self.degrees[i])[idx])
        return MultiWord(tuple(parts))

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
            mask &= self._expand_factor(i, self._factor_degree[i] <= self.degrees[i] - budget[i])
        return mask

    def _expand_factor(self, i: int, values: np.ndarray) -> np.ndarray:
        """Per-factor values over factor i's words, broadcast over the basis."""
        shape = [1] * self.k
        shape[i] = self.factor_dims[i]
        return np.broadcast_to(values.reshape(shape), self.factor_dims).ravel()

    def total_length_mask(self, max_total: int) -> np.ndarray:
        degs = map(self._expand_factor, range(self.k), self._factor_degree)
        return sum(degs, np.zeros(self.dim, dtype=np.int64)) <= max_total

    # -- per-factor letter maps ----------------------------------------------

    def letter_map(self, side: Side, i: int, j: int) -> np.ndarray:
        """Map of the truncated creation letter on factor i over the factor's
        words: w -> g_j.w (left) or w.g_j (right), -1 where |w| = d_i."""
        _require_side(side)
        if not 1 <= i <= self.k:
            raise ValueError(f"factor index {i} out of range")
        if not 1 <= j <= self.n[i - 1]:
            raise ValueError(f"generator index {j} out of range for factor {i}")
        n, length, rank = self.n[i - 1], self._factor_degree[i - 1], self._rank[i - 1]
        rank = (j - 1) * n ** length + rank if side == "left" else rank * n + j - 1
        return np.where(length < self.degrees[i - 1], self._offset[i - 1][length + 1] + rank, -1)

    # -- lambda-pair table -----------------------------------------------------

    def pair_id(self, a: MultiWord, b: MultiWord) -> int:
        """Position of the lambda pair (a, b) in ``lambda_pairs_within_degrees``;
        -1 when a word is longer than its degree.  A key that is not a lambda
        pair raises ``ValueError`` wherever its words lie."""
        return _pair_id(self.n, self.degrees, a, b)

    def pair_table(self, side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, source, target) of the pairings: at the lambda pair (a, b)
        with id p the monomial at (b~, a~), cells indptr[p]:indptr[p + 1] by
        ascending source, the first a~ -> b~ (left side) or a -> b (right).
        Built once per shape and side (``_pair_table``), read-only."""
        _require_side(side)
        return _pair_table(self.n, self.degrees, side)

    def pair_cells(self, side: Side, pids: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source, target, owner) of the cells in ``pair_table(side)`` of
        the pairs with ids ``pids``, pair after pair, by ascending source
        within a pair, and the index in ``pids`` of each cell's pair; an id
        of -1 (a pair off the box) owns no cell."""
        indptr, src, dst = self.pair_table(side)
        pids = np.asarray(pids, dtype=np.int64)
        counts = np.where(pids >= 0, indptr[pids + 1] - indptr[pids], 0)
        owner = np.repeat(np.arange(len(pids)), counts)
        cells = np.arange(owner.size) + (indptr[pids] - np.cumsum(counts) + counts)[owner]
        return src[cells], dst[cells], owner

    def __repr__(self) -> str:
        return f"FockTruncation(n={self.n}, degrees={self.degrees}, dim={self.dim})"


def _factor_offset(n: int, d: int) -> np.ndarray:
    """offset[p] = index of the first word of length p, for p <= d + 1."""
    return np.concatenate(([0], np.cumsum(n ** np.arange(d + 1, dtype=np.int64))))


@lru_cache(maxsize=PAIR_ID_CACHE_SIZE)
def _pair_id(n: tuple[int, ...], degrees: tuple[int, ...], a: MultiWord, b: MultiWord) -> int:
    """``FockTruncation.pair_id`` on the shape (n, degrees): every factor's
    lambda membership is checked before a word beyond its degree gives -1."""
    if a.n != n or b.n != n:
        raise TruncationError(f"pair shape {a.n}/{b.n} does not match {n}")
    if not all(ai.is_identity or bi.is_identity for ai, bi in zip(a.parts, b.parts)):
        raise ValueError(f"({a!r}; {b!r}) is not a lambda pair")
    pid = 0
    for ni, d, ai, bi in zip(n, degrees, a.parts, b.parts):
        if len(ai) > d or len(bi) > d:
            return -1
        # per factor: (w, e) at the index of w, then (e, w) for w nonempty
        offset = _factor_offset(ni, d)
        dim = int(offset[-1])
        w, shift = (ai, 0) if bi.is_identity else (bi, dim - 1)
        pid = pid * (2 * dim - 1) + int(offset[len(w)]) + word_rank(w) + shift
    return pid


@lru_cache(maxsize=PAIR_TABLE_CACHE_SIZE)
def _pair_table(n: tuple[int, ...], degrees: tuple[int, ...],
                side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``FockTruncation.pair_table`` on the shape (n, degrees).

    Per factor the cells come from ``_factor_pair_cells``; a multiword
    pair's cells are the product of its factors' cells, combined with the
    strides and stably sorted by pair id once.  No (target, source) cell
    occurs twice: per factor, source and target determine the stripped
    and the attached word."""
    pid = src = dst = np.zeros(1, dtype=np.int64)
    dims = []
    for ni, d in zip(n, degrees):
        p_i, s_i, t_i = _factor_pair_cells(ni, d, side)
        dim = int(_factor_offset(ni, d)[-1])
        pid = (pid[:, None] * (2 * dim - 1) + p_i).ravel()
        src = (src[:, None] * dim + s_i).ravel()
        dst = (dst[:, None] * dim + t_i).ravel()
        dims.append(dim)
    order = np.argsort(pid, kind="stable")
    counts = np.bincount(pid, minlength=math.prod(2 * d - 1 for d in dims))
    table = np.concatenate(([0], np.cumsum(counts))), src[order], dst[order]
    for array in table:
        array.flags.writeable = False
    return table


def _factor_pair_cells(n: int, d: int, side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pair id, source, target) cells of the single-factor lambda pairs of
    a factor with n generators and degree d, in ``factor_lambda_pairs`` order.

    The pair (u, e) strips u from the long word and (e, u) attaches it to
    the short one: the long word is t.u on the right side and u~.t on the
    left, for every kept word t with |u| + |t| <= d.  So the cells of the
    pairs with |u| = m and the kept words with |t| = p are one (n^m, n^p)
    block, an outer product of their ranks, read long to short for (u, e)
    and short to long for (e, u); per m, the blocks over p side by side,
    read row by row, give each pair's cells by ascending source."""
    offset = _factor_offset(n, d)
    dim = int(offset[-1])
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


class FockOperator:
    """Square matrix on (truncation x coefficient space), space index major,
    stored as canonical CSR (sorted, no duplicates) whatever it is given."""

    def __init__(self, trunc: FockTruncation, matrix, coeff_dim: int = 1):
        import scipy.sparse as sp

        self.trunc = trunc
        self.coeff_dim = int(coeff_dim)
        self.matrix = sp.csr_matrix(matrix)
        self.matrix.sum_duplicates()
        n = trunc.dim * self.coeff_dim
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({n}, {n})")

    def dense(self) -> np.ndarray:
        """The matrix as an ndarray (a copy), for LAPACK."""
        return self.matrix.toarray()

    def blocks(self, rows, cols) -> np.ndarray:
        """The (..., e, e) blocks at basis rows ``rows`` and columns ``cols``
        (broadcast), 0 where none is stored: a binary search in the keys
        row * size + column of the stored entries, ascending in the CSR
        order and closed by (size**2, 0) so that every search position is valid."""
        e, m, size = self.coeff_dim, self.matrix, self.matrix.shape[0]
        stored = np.repeat(np.arange(size, dtype=np.int64), np.diff(m.indptr)) * size + m.indices
        keys, values = np.append(stored, size * size), np.append(m.data, 0)
        r = np.asarray(rows, dtype=np.int64)[..., None, None] * e + np.arange(e)[:, None]
        c = np.asarray(cols, dtype=np.int64)[..., None, None] * e + np.arange(e)
        want = r * size + c
        pos = np.searchsorted(keys, want)
        return np.where(keys[pos] == want, values[pos], 0)


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
    entries 1: ``word_matrix`` at (g, e), or at (e, g) for the adjoint, g the
    one-letter multiword g_j in factor i."""
    if not 1 <= i <= trunc.k:
        raise ValueError(f"factor index {i} out of range")
    g = multiword([[j] if m == i else [] for m in range(1, trunc.k + 1)], trunc.n)
    e = identity_multiword(trunc.n)
    return word_matrix(trunc, e, g, side) if adjoint else word_matrix(trunc, g, e, side)


def creation_tuple(trunc: FockTruncation, side: Side = "left") -> list[list]:
    """The truncated creation tuple [[S_i1 ... S_in_i] ...] (R on the right
    side), its letters CSR as ``creation_matrix`` builds them.  The letters
    are built once per shape and side (``_creation_letters``) and shared,
    their arrays read-only; each call returns fresh lists."""
    _require_side(side)
    return [list(row) for row in _creation_letters(trunc.n, trunc.degrees, side)]


@lru_cache(maxsize=LETTER_CACHE_SIZE)
def _creation_letters(n: tuple[int, ...], degrees: tuple[int, ...], side: Side) -> tuple:
    """``creation_tuple`` on the shape (n, degrees), rows as tuples."""
    trunc = FockTruncation(n, degrees)
    letters = tuple(tuple(creation_matrix(trunc, side, i, j) for j in range(1, ni + 1))
                    for i, ni in enumerate(n, start=1))
    for m in itertools.chain.from_iterable(letters):
        for array in (m.data, m.indices, m.indptr):
            array.flags.writeable = False
    return letters


def monomial_indices(trunc: FockTruncation, a: MultiWord, b: MultiWord,
                     side: Side = "left") -> tuple[np.ndarray, np.ndarray]:
    """(source, target) basis indices, by ascending source, of the exact
    compression of S_a S_b* (R_a R_b* on the right side), for every (a, b):
    S_b* is the pairing at (b~, e) and S_a the one at (e, a~) in
    ``pair_table``, composed.  A word beyond its degree has the id -1,
    whose slice indptr[-1]:indptr[0] is empty."""
    if a.n != trunc.n or b.n != trunc.n:
        raise TruncationError("word shape does not match truncation")
    indptr, src, dst = trunc.pair_table(side)
    e = identity_multiword(trunc.n)
    pids = trunc.pair_id(b.reverse(), e), trunc.pair_id(e, a.reverse())
    strip, attach = (slice(indptr[p], indptr[p + 1]) for p in pids)
    image = np.full(trunc.dim, -1, dtype=np.int64)
    image[src[attach]] = dst[attach]
    target = image[dst[strip]]
    keep = target >= 0
    return src[strip][keep], target[keep]


def pair_operator(trunc: FockTruncation, side: Side, pids: np.ndarray,
                  blocks: np.ndarray) -> FockOperator:
    """Sum of blocks[j] (x) the pairing at pair id pids[j], as the CSR
    ``FockOperator`` that ``pair_matrix`` assembles."""
    return FockOperator(trunc, pair_matrix(trunc, side, pids, blocks), coeff_dim=blocks.shape[1])


def pair_matrix(trunc: FockTruncation, side: Side, pids: np.ndarray, blocks: np.ndarray,
                columns: np.ndarray | None = None):
    """Sum of blocks[j] (x) the pairing at pair id pids[j], as a CSR matrix,
    on the columns of the source words in the boolean basis mask ``columns``
    (all of them by default): shape (dim e, |columns| e), the columns in
    basis order.  Ids of -1 (pairs off the box) contribute nothing, repeated
    ids are refused.

    Only the given pairs' cells whose source lies in the mask are read from
    ``pair_table``.  Distinct pairs share no cell, so each cell is one stored
    e x e block.  The cells are sorted by (target, source), the block-row
    order, and their blocks are a block CSR (BSR) matrix, whose conversion
    is canonical CSR with cells * e^2 stored entries, explicit zeros
    included: bit for bit the full matrix's columns at the mask.  Its dense
    form has every bit of the pair-by-pair sum onto zeros: the ``+ 0.0``
    turns a -0.0 entry into +0.0, as that sum does."""
    import scipy.sparse as sp

    pids = np.asarray(pids, dtype=np.int64)
    if np.unique(pids[pids >= 0]).size < np.count_nonzero(pids >= 0):
        raise ValueError("pair ids must be distinct")
    e = blocks.shape[1]
    src, dst, owner = trunc.pair_cells(side, pids)
    width = trunc.dim
    if columns is not None:
        keep = columns[src]
        src, dst, owner = (np.cumsum(columns) - 1)[src[keep]], dst[keep], owner[keep]
        width = int(np.count_nonzero(columns))
    order = np.argsort(dst * width + src)
    src, dst, owner = src[order], dst[order], owner[order]
    rows = np.searchsorted(dst, np.arange(trunc.dim + 1))
    return sp.bsr_matrix((blocks[owner] + 0.0, src, rows), shape=(trunc.dim * e, width * e),
                         blocksize=(e, e)).tocsr()


def word_matrix(trunc: FockTruncation, a: MultiWord, b: MultiWord,
                side: Side = "left"):
    """S_a S_b* (R_a R_b* on the right side) as a CSR matrix with entries 1:
    the exact compression of the untruncated monomial.  An annihilation never
    leaves the truncation, so P S_a P S_b* P = P S_a S_b* P, and composing the
    index maps of S_b* and S_a (``monomial_indices``) gives it exactly."""
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
