"""Positive semi-definite multi-Toeplitz kernels on products of free
semigroups and their constructive Naimark dilations at finite word length.

A kernel is held as its Gram matrix over all multiwords of total length <= L,
in graded monomial order, filled per quotient (no word pairs are compared) from
a Hermitian ``MultiToeplitzSymbol`` on the quotient index pairs (absent pairs
read as zero); ``_linalg.psd_verdict`` decides whether it is PSD.  The
monomials, their positions and each word's tail positions depend on the shape
alone, so they are built once per process and shared, read-only.  A left
kernel is constant along left-comparability quotients; its Gram matrix is
Cholesky-factored in that order, a numerically dependent word column adding no
row, and the row isometries act by prepending a generator to the indexing word.
Since shorter words come first, the window words span a coordinate prefix of
the factor space, on which the isometries are one triangular solve; the
window words are the first monomials, so the column of g.w is read from the
tail table of the letter g, at the position of w.  Right
kernels are dilated through the reversal reduction.  All dilation identities
carry a window qualifier: they are exact on words of total length <= L - 1.

A dilation is read off its columns V_w E, which ``word_columns`` builds for
dense and sparse letters alike: one column per word, for abstract row
isometries (``pluriharm.universal_compression`` serves the creations).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ._linalg import opnorm, psd_verdict
from .toeplitz import MultiToeplitzSymbol
from .words import (
    ENUMERATION_CACHE_SIZE,
    MultiWord,
    ShapeMismatchError,
    Side,
    Word,
    identity_multiword,
    multiword,
    multiwords_up_to_total,
)


# (side, shape, word) keys kept in the tail cache
TAIL_CACHE_SIZE = 1 << 12


@lru_cache(maxsize=ENUMERATION_CACHE_SIZE)
def _graded_monomials(n: tuple[int, ...], max_len: int
                      ) -> tuple[tuple[MultiWord, ...], Mapping[MultiWord, int], tuple[int, ...]]:
    """The monomials of total length <= max_len in graded order, their
    positions (read-only) and their total lengths."""
    monos = tuple(multiwords_up_to_total(n, max_len))
    position = MappingProxyType({w: p for p, w in enumerate(monos)})
    return monos, position, tuple(w.total_length for w in monos)


@lru_cache(maxsize=TAIL_CACHE_SIZE)
def _tail_positions(side: Side, n: tuple[int, ...], max_len: int, x: MultiWord) -> np.ndarray:
    """Positions among the monomials of x.t (right side) or t.x (left), over
    the monomials t with |x| + |t| <= max_len in graded order (read-only)."""
    monos, position, lengths = _graded_monomials(n, max_len)
    tails = monos[: bisect.bisect_right(lengths, max_len - x.total_length)]
    out = np.array([position[x.concat(t) if side == "right" else t.concat(x)] for t in tails],
                   dtype=np.int64)
    out.flags.writeable = False
    return out


class KernelNotPSDError(ValueError):
    def __init__(self, min_eig: float):
        super().__init__(f"kernel is not positive semi-definite (min eigenvalue {min_eig:.6e})")
        self.min_eig = min_eig


class GeneratorError(ValueError):
    pass


class ToeplitzKernel:
    """Kernel over the multiwords of total length <= max_len, held as its Gram
    matrix: block (p, q) of the (M e) x (M e) array is the entry at
    (monomials[p], monomials[q]), the M monomials in graded order."""

    def __init__(self, side: Side, n: Sequence[int], e_dim: int, max_len: int,
                 gram: np.ndarray):
        self.side: Side = side
        self.n = tuple(int(x) for x in n)
        self.e_dim = int(e_dim)
        self.max_len = int(max_len)
        monos, self._position, _ = _graded_monomials(self.n, self.max_len)
        self.monomials = list(monos)
        self._gram = np.asarray(gram, dtype=complex)
        if self._gram.shape != (len(self.monomials) * self.e_dim,) * 2:
            raise ShapeMismatchError(f"Gram shape {self._gram.shape} does not fit the monomials")

    def value(self, s: MultiWord, w: MultiWord) -> np.ndarray:
        """The entry at (s, w), zero when a word is not a monomial."""
        p, q, e = self._position.get(s), self._position.get(w), self.e_dim
        if p is None or q is None:
            return np.zeros((e, e), dtype=complex)
        return self._gram[p * e : (p + 1) * e, q * e : (q + 1) * e]

    def gram(self) -> np.ndarray:
        return self._gram

    def reversed(self) -> "ToeplitzKernel":
        """Reverse every word; swaps the left and right kernel classes."""
        other: Side = "left" if self.side == "right" else "right"
        perm = np.array([self._position[w.reverse()] for w in self.monomials])
        idx = (perm[:, None] * self.e_dim + np.arange(self.e_dim)).ravel()
        return ToeplitzKernel(other, self.n, self.e_dim, self.max_len, self._gram[np.ix_(idx, idx)])

    def max_difference(self, other: "ToeplitzKernel") -> float:
        a, b = ((k.n, k.e_dim, k.max_len) for k in (self, other))
        if a != b:
            raise ShapeMismatchError(f"kernel (n, e_dim, max_len) differ: {a} vs {b}")
        return float(np.max(np.abs(self._gram - other._gram)))


def kernel_from_generator(side: Side, gen: MultiToeplitzSymbol, max_len: int,
                          require_unit: bool = True) -> ToeplitzKernel:
    """Fill the kernel's Gram from its generator symbol, per quotient: a pair
    (a, b) and a tail t with max(|a|, |b|) + |t| <= L make the comparable
    pair (a.t, b.t) of a right kernel, (t.a, t.b) of a left one.  The symbol
    must be Hermitian and its unit value the identity (unless ``require_unit``
    is off); the side is "left" or "right", max_len at least 1."""
    if side not in ("left", "right"):
        raise GeneratorError(f"kernel side must be 'left' or 'right', got {side!r}")
    if max_len < 1:
        raise GeneratorError(f"kernel max_len must be >= 1, got {max_len}")
    n, e, unit = gen.n, gen.e_dim, identity_multiword(gen.n)
    if require_unit and np.max(np.abs(gen.coeff(unit, unit) - np.eye(e))) > 1e-10:
        raise GeneratorError("generator value at the unit pair must be the identity")
    require_hermitian(gen)
    blocks = gen.blocks()
    p, q, owner = gram_cells(side, gen, max_len)
    m = len(_graded_monomials(n, max_len)[0])
    k = ToeplitzKernel(side, n, e, max_len, np.zeros((m * e, m * e), dtype=complex))
    k.gram().reshape(m, e, m, e)[p, :, q] = blocks[owner]  # a view: filled in place
    return k


def require_hermitian(gen: MultiToeplitzSymbol) -> None:
    """Refuse a generator whose Hermitian defect is above 1e-10 or NaN."""
    if not (defect := gen.hermitian_defect()) <= 1e-10:
        raise GeneratorError(f"generator is not Hermitian (defect {defect:.3e})")


def gram_cells(side: Side, gen: MultiToeplitzSymbol, max_len: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, q, owner): the Gram blocks (p, q), among the monomials of total
    length <= max_len, that the kernel generated by ``gen`` fills, and the
    index in key order of the coefficient at each.  A key (a, b) and a tail
    t with max(|a|, |b|) + |t| <= L make the comparable pair (a.t, b.t) of a
    right kernel, (t.a, t.b) of a left one; an all-zero coefficient fills
    nothing.  Distinct keys fill distinct blocks."""
    keys = list(gen.coeffs)
    live = np.flatnonzero(gen.blocks().any(axis=(1, 2)))
    p, q, counts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], []
    for j in live:
        ta, tb = (_tail_positions(side, gen.n, max_len, x) for x in keys[j])
        # both cut to the tails with max(|a|, |b|) + |t| <= L
        p.append(ta[: tb.size])
        q.append(tb[: ta.size])
        counts.append(min(ta.size, tb.size))
    return np.concatenate(p), np.concatenate(q), np.repeat(live, np.array(counts, dtype=np.int64))


def word_columns(V: Sequence[Sequence[np.ndarray]], e_basis: np.ndarray,
                 max_len: int) -> dict[MultiWord, np.ndarray]:
    """{w: V_w E} over the multiwords of total length <= max_len.

    The letters V_{i,j}, dense or SciPy-sparse, are applied with ``@``.
    V_w is V_{1,w_1} ... V_{k,w_k}; the columns are built by prefix,
    V_{g.w} E = V_g (V_w E) with g the first letter of the first nonempty
    factor, in the graded word order.
    """
    words = multiwords_up_to_total(tuple(len(row) for row in V), max_len)
    cols = {words[0]: e_basis}  # the unit word comes first
    for w in words[1:]:
        i = next(i for i, p in enumerate(w.parts) if p.letters)
        p = w.parts[i]
        rest = MultiWord(w.parts[:i] + (Word(p.letters[1:], p.n),) + w.parts[i + 1:])
        cols[w] = V[i][p.letters[0] - 1] @ cols[rest]
    return cols


@dataclass
class PsdReport:
    psd: bool
    min_eig: float


def kernel_is_psd(K: ToeplitzKernel) -> PsdReport:
    """The package's PSD verdict (``_linalg.psd_verdict``) on the Gram."""
    return PsdReport(*psd_verdict(K.gram())[:2])


@dataclass
class NaimarkDilation:
    side: Side
    n: tuple[int, ...]
    e_dim: int
    space_dim: int
    isometries: list[list[np.ndarray]]
    embedding: np.ndarray              # space_dim x e_dim, isometric
    window_len: int
    monomials: list[MultiWord] = field(repr=False)
    frame: np.ndarray = field(repr=False)  # R, space_dim x (len(monomials)*e_dim), R* R = Gram

    @cached_property
    def columns(self) -> dict[MultiWord, np.ndarray]:
        """{w: V_w E} over the monomials, by ``word_columns``."""
        return word_columns(self.isometries, self.embedding, self.window_len + 1)


def _graded_cholesky(g: np.ndarray, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor of the Hermitian PSD ``g`` in its own column order.

    A column whose residual diagonal is <= cut depends on the earlier ones
    and adds no row.  Returns the upper-trapezoidal R, with R* R = g up to the
    skipped residuals, and the pivot column of each row (increasing).
    """
    m = g.shape[0]
    r = np.zeros((m, m), dtype=complex)
    piv: list[int] = []
    for k in range(m):
        h = len(piv)
        c = g[k, k:] - r[:h, k].conj() @ r[:h, k:]
        if c[0].real <= cut:
            continue
        r[h, k:] = c / np.sqrt(c[0].real)
        piv.append(k)
    return r[: len(piv)], np.array(piv, dtype=np.int64)


def naimark_dilate(K: ToeplitzKernel, rank_tol: float = 1e-10) -> NaimarkDilation:
    """Minimal dilation by commuting row isometries, exact on the window.

    The Gram matrix G of the kernel over the monomials of total length <= L
    is Cholesky-factored in their graded order, G = R* R; a column whose
    residual diagonal is <= rank_tol * max(lambda_max, 1) adds no row.  The
    window words (length <= L - 1) come first, so their columns span the
    first r_dom coordinates.  V_ij maps the column of w to the column of the
    word with generator j prepended in factor i: on those coordinates it is
    R[:, shifted pivots] T^-1, T the triangular pivot block, and it is zero
    beyond them.  The embedding is the unit word's columns of R.  Right
    kernels are dilated on the reversed words.
    """
    from scipy.linalg import solve_triangular

    work = K.reversed() if K.side == "right" else K
    g = work.gram()
    g = 0.5 * (g + g.conj().T)
    psd, min_eig, scale = psd_verdict(g)
    if not psd:
        raise KernelNotPSDError(min_eig)
    frame, piv = _graded_cholesky(g, rank_tol * scale)
    if not piv.size:
        raise KernelNotPSDError(min_eig)
    e, monos, L = work.e_dim, work.monomials, work.max_len
    rank = frame.shape[0]
    dom = piv[: np.searchsorted(piv, sum(w.total_length < L for w in monos) * e)]
    # per letter g, the column of g.w for each window pivot's word w: the
    # window words are the first monomials, the tails of g
    letters = [multiword([[j] if m == i else [] for m in range(len(work.n))], work.n)
               for i, ni in enumerate(work.n) for j in range(1, ni + 1)]
    shifted = np.array([_tail_positions("right", work.n, L, g)[dom // e] * e + dom % e
                        for g in letters], dtype=np.int64)
    # every letter's R[:, shifted] stacked, times T^-1 in one solve
    x = frame[:, shifted].transpose(1, 0, 2).reshape(-1, dom.size)
    v = np.zeros((len(shifted), rank, rank), dtype=complex)
    v[:, :, : dom.size] = solve_triangular(frame[: dom.size, dom], x.T, trans="T").T.reshape(
        len(shifted), rank, dom.size)
    isometries = [list(row) for row in np.split(v, np.cumsum(work.n)[:-1])]
    return NaimarkDilation(
        side=K.side,
        n=work.n,
        e_dim=e,
        space_dim=rank,
        isometries=isometries,
        embedding=frame[:, :e],
        window_len=L - 1,
        monomials=monos,
        frame=frame,
    )


@dataclass
class DilationReport:
    reproduction_error: float
    isometry_defect: float
    commutator_defect: float
    embedding_defect: float
    minimal: bool
    dimension_gap: int

    @property
    def max_defect(self) -> float:
        """The largest defect, or NaN if any defect is NaN."""
        defects = (self.reproduction_error, self.isometry_defect,
                   self.commutator_defect, self.embedding_defect)
        return math.nan if any(map(math.isnan, defects)) else max(defects)


def dilation_verify(D: NaimarkDilation, K: ToeplitzKernel,
                    rank_tol: float = 1e-10) -> DilationReport:
    """Reproduction, window isometry, cross-factor commutation, minimality.

    Everything is read from the columns V_w E.  Reproduction compares their
    Gram over the window words, the leading monomials, with the leading
    square of the kernel's Gram (of the reversed kernel on the right side).
    The isometry relations are checked on the span of the window columns
    and the commutators on that of the words one shorter;
    in the graded frame these spans are the coordinate prefixes holding the
    pivot rows of those columns.
    """
    L, e, V = D.window_len, D.e_dim, D.isometries
    cols = D.columns
    c = np.concatenate([cols[w] for w in D.monomials if w.total_length <= L], axis=1)
    want = (K.reversed() if K.side == "right" else K).gram()[: c.shape[1], : c.shape[1]]
    rep_err = float(np.abs(c.conj().T @ c - want).max())

    def prefix(length: int) -> int:
        ncols = sum(w.total_length <= length for w in D.monomials) * e
        return int(np.count_nonzero(np.any(D.frame[:, :ncols] != 0, axis=1)))

    r_dom, r_in = prefix(L), prefix(L - 1)
    iso_err = 0.0
    for row in V:
        for s, a in enumerate(row):
            for t, b in enumerate(row):
                m = a[:, :r_dom].conj().T @ b[:, :r_dom]
                iso_err = max(iso_err, opnorm(m - np.eye(r_dom) if s == t else m))
    comm_err = 0.0
    for i, row in enumerate(V):
        for row2 in V[i + 1:]:
            for a in row:
                for b in row2:
                    comm_err = max(comm_err, opnorm(a @ b[:, :r_in] - b @ a[:, :r_in]))
    emb_err = float(np.max(np.abs(D.embedding.conj().T @ D.embedding - np.eye(e))))
    # minimality: the V_w E columns must span the whole space
    sv = np.linalg.svd(np.concatenate(list(cols.values()), axis=1), compute_uv=False)
    dim = int(np.count_nonzero(sv > rank_tol * max(float(sv[0]) if sv.size else 0.0, 1.0)))
    return DilationReport(
        reproduction_error=rep_err,
        isometry_defect=iso_err,
        commutator_defect=comm_err,
        embedding_defect=emb_err,
        minimal=dim == D.space_dim,
        dimension_gap=D.space_dim - dim,
    )
