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
``words.words_up_to`` enumeration.  Every word index map is read from the
pairings of lambda pairs: the pairing at (a, b) is the monomial at (b~, a~),
~ the reversal.  A creation letter is the pairing at (e, g), g the
one-letter multiword, and its adjoint the pairing at (g, e).  Only the
matrix-free oracle ``apply_creation`` reads the letters from the formula
rank(g_j.w) = (j - 1) n_i^|w| + rank(w), rank(w.g_j) = rank(w) n_i + j - 1
(``FockTruncation.letter_map``), so the two are independent.

A pairing is a tensor product of single-factor pairings, so its cells are
the product of theirs: the one cell structure is a read-only table per
factor (``_factor_table``, built once per alphabet size, degree and side),
and the rest is index arithmetic on it, a pair id mixed radix over the
factor ids (radix 2 dim_i - 1).  ``pair_cells`` multiplies out the given
pairs' factor cell ranges (within a window on request), ``first_cells`` and
``creation_ids`` combine per-factor values.  ``pair_id`` is memoized per
(n, degrees, a, b), up to ``PAIR_ID_CACHE_SIZE`` keys, and the letters of
``creation_tuple`` per (n, degrees, side), up to ``LETTER_CACHE_SIZE``
shapes, read-only, each call returning fresh lists.  Nothing keyed by data
(a coefficient, a point, an operator) is cached, and no such object keeps
what it implies: ``FockOperator.blocks`` reads the stored keys from the CSR
matrix on each call.

Sums over coefficient index pairs (a symbol's monomials, the Poisson
kernel's pairings, the resolvent's creation words) gather their cells in
one pass (``pair_operator``); a compression K* P K of a pairing P is the
sum of K[target]* K[source] over its cells (``berezin.pair_transforms``).
A word monomial S_a S_b*, lambda pair or not, composes the pairings at
(b~, e) and (e, a~) (``monomial_indices``): an annihilation never leaves
the truncation, so P S_a P S_b* P = P S_a S_b* P exactly.

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
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .words import (ENUMERATION_CACHE_SIZE, MultiWord, Side, Word, _require_side, _words_up_to,
                    identity_multiword, multiword)


# shapes kept in the letter cache, and keys in the pair-id cache
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
        return reduce(np.logical_and.outer, self._factor_windows(budget)).ravel()

    def _factor_windows(self, budget: Sequence[int]) -> list[np.ndarray]:
        """Per factor, the boolean mask of its words of length <= d_i - budget_i."""
        if len(budget) != self.k:
            raise ValueError("budget length must equal number of factors")
        if any(b < 0 or b > d for b, d in zip(budget, self.degrees)):
            raise ValueError(f"budget {budget} exceeds degrees {self.degrees}")
        return [length <= d - b for length, d, b in zip(self._factor_degree, self.degrees, budget)]

    def total_length_mask(self, max_total: int) -> np.ndarray:
        return reduce(np.add.outer, self._factor_degree).ravel() <= max_total

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

    # -- lambda pairs and their cells ------------------------------------------

    def pair_id(self, a: MultiWord, b: MultiWord) -> int:
        """Position of the lambda pair (a, b) in ``lambda_pairs_within_degrees``;
        -1 when a word is longer than its degree.  A key that is not a lambda
        pair raises ``ValueError`` wherever its words lie."""
        return _pair_id(self.n, self.degrees, a, b)

    def pair_cells(self, side: Side, pids: np.ndarray, budget: Sequence[int] | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source, target, owner) of the pairings with ids ``pids``: their
        cells pair after pair, by ascending source within a pair, and the
        index in ``pids`` of each cell's pair, an id of -1 (a pair off the
        box) owning none; with a ``budget``, only the cells inside
        ``window_mask(budget)``, each factor's cells filtered first."""
        tables = self._factor_tables(side)
        if budget is not None:  # each factor's cells inside its window, by factor id
            for i, window in enumerate(self._factor_windows(budget)):
                indptr, s, t = tables[i]
                keep = window[s] & window[t]
                tables[i] = np.concatenate(([0], np.cumsum(keep)))[indptr], s[keep], t[keep]
        pids = np.asarray(pids, dtype=np.int64)
        ids = np.unravel_index(np.maximum(pids, 0), [t[0].size - 1 for t in tables])
        owner = (pids >= 0).nonzero()[0]
        src = dst = np.zeros(owner.size, dtype=np.int64)
        for (indptr, s, t), p, dim in zip(tables, ids, self.factor_dims):
            # each cell so far repeats over its pair's cell range in this factor
            start, size = indptr[p][owner], (indptr[p + 1] - indptr[p])[owner]
            at = np.arange(size.sum()) + (start - size.cumsum() + size).repeat(size)
            owner = owner.repeat(size)
            src, dst = (src * dim).repeat(size) + s[at], (dst * dim).repeat(size) + t[at]
        return src, dst, owner

    def first_cells(self, side: Side) -> tuple[np.ndarray, np.ndarray]:
        """(source, target) of every pair's first cell, by pair id: a~ -> b~
        (left side) or a -> b (right) at the lambda pair (a, b)."""
        tables = self._factor_tables(side)
        return tuple(_outer([t[k][t[0][:-1]] for t in tables], self.factor_dims) for k in (1, 2))

    def creation_ids(self) -> np.ndarray:
        """Ids of the creation pairs (e, b) in the basis order of b: per
        factor 0 for an empty b_i, index(b_i) + dim_i - 1 otherwise."""
        dims = self.factor_dims
        return _outer([np.r_[0, dim : 2 * dim - 1] for dim in dims], [2 * d - 1 for d in dims])

    def _factor_tables(self, side: Side) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        _require_side(side)
        return [_factor_table(ni, di, side) for ni, di in zip(self.n, self.degrees)]

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


def _outer(parts: Sequence[np.ndarray], radices: Sequence[int]) -> np.ndarray:
    """The mixed-radix outer combination: at (j_1, ..., j_k), j_k fastest,
    sum_i parts[i][j_i] * prod of the radices after i."""
    out = np.zeros(1, dtype=np.int64)
    for part, radix in zip(parts, radices):
        out = (out[:, None] * radix + part).ravel()
    return out


@lru_cache(maxsize=ENUMERATION_CACHE_SIZE)
def _factor_table(n: int, d: int, side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, source, target) of the single-factor lambda pairs of a
    factor with n generators and degree d: the pair with factor id p (in
    ``factor_lambda_pairs`` order) owns the cells indptr[p]:indptr[p + 1].
    Built once per (n, d, side), read-only.

    The pair (u, e) strips u from the long word and (e, u) attaches it to
    the short one: the long word is t.u on the right side and u~.t on the
    left, for every kept word t with |u| + |t| <= d.  So the cells of the
    pairs with |u| = m and the kept words with |t| = p are one (n^m, n^p)
    block, an outer product of their ranks, read long to short for (u, e)
    and short to long for (e, u); per m, the blocks over p side by side,
    read row by row, give each pair's cells by ascending source.  Every pair
    owns a cell, and none occurs twice: source and target determine the
    stripped and the attached word."""
    offset = _factor_offset(n, d)
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
        sizes = np.full(n ** m, long.size // n ** m, dtype=np.int64)
        strip.append((sizes, long, short))
        if m:
            attach.append((sizes, short, long))
    sizes, src, dst = (np.concatenate(c) for c in zip(*strip, *attach))
    table = np.concatenate(([0], np.cumsum(sizes))), src, dst
    for array in table:
        array.flags.writeable = False
    return table


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
    S_b* is the pairing at (b~, e) and S_a the one at (e, a~), composed
    (``pair_cells``).  A word beyond its degree has the id -1, which owns no
    cell."""
    if a.n != trunc.n or b.n != trunc.n:
        raise TruncationError("word shape does not match truncation")
    e = identity_multiword(trunc.n)
    src, dst, owner = trunc.pair_cells(side, [trunc.pair_id(b.reverse(), e),
                                              trunc.pair_id(e, a.reverse())])
    cut = np.count_nonzero(owner == 0)  # the strip pairing's cells come first
    image = np.full(trunc.dim, -1, dtype=np.int64)
    image[src[cut:]] = dst[cut:]
    target = image[dst[:cut]]
    keep = target >= 0
    return src[:cut][keep], target[keep]


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

    Only the given pairs' cells whose source lies in the mask are kept
    (``pair_cells``).  Distinct pairs share no cell, so each cell is one stored
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
