"""Positive semi-definite multi-Toeplitz kernels on products of free
semigroups and their constructive Naimark dilations at finite word length.

A left kernel is constant along left-comparability quotients; its Gram matrix
over all multiwords of total length <= L is factored, the quotient by the
numerical null space realized as an eigenvalue rank cut, and the row
isometries act by prepending a generator to the indexing word.  Right kernels
are dilated through the reversal reduction.  All dilation identities carry a
window qualifier: they are exact on words of total length <= L - 1.

The kernel of commuting row isometries V compressed to a subspace E is read
off the columns V_w E; ``word_columns`` builds them, for dense matrices and
matrix-free actions alike, and ``kernel_from_columns`` tabulates the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ._linalg import min_eig_hermitian, opnorm
from .words import (
    MultiWord,
    Side,
    Word,
    compare,
    identity_multiword,
    lambda_membership,
    multiwords_up_to_total,
)


class KernelNotPSDError(ValueError):
    def __init__(self, min_eig: float):
        super().__init__(f"kernel is not positive semi-definite (min eigenvalue {min_eig:.6e})")
        self.min_eig = min_eig


class GeneratorError(ValueError):
    pass


KernelKey = tuple[MultiWord, MultiWord]


class ToeplitzKernel:
    """Kernel table over multiword pairs of total length <= max_len each."""

    def __init__(self, side: Side, n: Sequence[int], e_dim: int, max_len: int,
                 values: Mapping[KernelKey, np.ndarray]):
        self.side: Side = side
        self.n = tuple(int(x) for x in n)
        self.e_dim = int(e_dim)
        self.max_len = int(max_len)
        self.monomials = multiwords_up_to_total(self.n, self.max_len)
        self.values = {k: np.asarray(v, dtype=complex) for k, v in values.items()}

    def value(self, s: MultiWord, w: MultiWord) -> np.ndarray:
        return self.values.get((s, w), np.zeros((self.e_dim, self.e_dim), dtype=complex))

    def gram(self) -> np.ndarray:
        m = len(self.monomials)
        e = self.e_dim
        g = np.zeros((m * e, m * e), dtype=complex)
        for p, s in enumerate(self.monomials):
            for q, w in enumerate(self.monomials):
                g[p * e : (p + 1) * e, q * e : (q + 1) * e] = self.value(s, w)
        return g

    def reversed(self) -> "ToeplitzKernel":
        """Reverse every word; swaps the left and right kernel classes."""
        other: Side = "left" if self.side == "right" else "right"
        vals = {(s.reverse(), w.reverse()): v for (s, w), v in self.values.items()}
        return ToeplitzKernel(other, self.n, self.e_dim, self.max_len, vals)

    def max_difference(self, other: "ToeplitzKernel") -> float:
        keys = set(self.values) | set(other.values)
        return max(
            (float(np.max(np.abs(self.value(*k) - other.value(*k)))) for k in keys),
            default=0.0,
        )


def kernel_from_generator(side: Side, gen: Mapping[KernelKey, np.ndarray],
                          max_len: int,
                          default: np.ndarray | None = None,
                          require_unit: bool = True) -> ToeplitzKernel:
    """Fill the full kernel table from values on the quotient index pairs.

    ``gen`` maps coefficient index pairs (both-sided words, per factor one of
    them the unit) to matrices; the table entry at (s, w) is the generator
    value at the comparability quotients, zero when incomparable.  The unit
    value must be the identity (unless ``require_unit`` is off, for kernels
    attached to functions whose constant coefficient is not normalized) and
    the generator must be Hermitian (gen[b, a] == gen[a, b]*).  Missing
    values raise unless a default matrix is supplied.  The side must be
    "left" or "right" and max_len at least 1.
    """
    if side not in ("left", "right"):
        raise GeneratorError(f"kernel side must be 'left' or 'right', got {side!r}")
    if max_len < 1:
        raise GeneratorError(f"kernel max_len must be >= 1, got {max_len}")
    items = list(gen.items())
    if not items:
        raise GeneratorError("empty generator")
    n = items[0][0][0].n
    e = items[0][1].shape[0] if hasattr(items[0][1], "shape") else np.asarray(items[0][1]).shape[0]
    gen = {k: np.asarray(v, dtype=complex) for k, v in gen.items()}
    gident = identity_multiword(n)
    unit = gen.get((gident, gident))
    if require_unit and (unit is None or np.max(np.abs(unit - np.eye(e))) > 1e-10):
        raise GeneratorError("generator value at the unit pair must be the identity")
    for (a, b), v in gen.items():
        if not lambda_membership(a, b):
            raise GeneratorError(f"generator key ({a!r}; {b!r}) is not a quotient index pair")
        partner = gen.get((b, a))
        if partner is None:
            raise GeneratorError(f"generator missing the adjoint partner of ({a!r}; {b!r})")
        if np.max(np.abs(partner - v.conj().T)) > 1e-10:
            raise GeneratorError(f"generator is not Hermitian at ({a!r}; {b!r})")
    values: dict[KernelKey, np.ndarray] = {}
    monos = multiwords_up_to_total(n, max_len)
    zero = np.zeros((e, e), dtype=complex)
    for s in monos:
        for w in monos:
            c = compare(side, s, w)
            if not c.comparable:
                continue
            key = (c.c_plus, c.c_minus)
            v = gen.get(key, default)
            if v is None:
                raise GeneratorError(f"missing generator value at {key!r}")
            if np.any(v != 0):
                values[(s, w)] = v
    return ToeplitzKernel(side, n, e, max_len, values)


def word_columns(letter: Callable[[int, int, np.ndarray], np.ndarray],
                 e_basis: np.ndarray, n: Sequence[int],
                 max_len: int) -> dict[MultiWord, np.ndarray]:
    """{w: V_w E} over the multiwords of total length <= max_len.

    ``letter(i, j, m)`` applies the letter V_{i,j} (1-based factor and
    generator) to the columns m, so V may be dense or matrix-free.  V_w is
    V_{1,w_1} ... V_{k,w_k}; the columns are built by prefix,
    V_{g.w} E = V_g (V_w E) with g the first letter of the first nonempty
    factor, in the graded word order.
    """
    words = multiwords_up_to_total(n, max_len)
    cols = {words[0]: e_basis}  # the unit word comes first
    for w in words[1:]:
        i = next(i for i, p in enumerate(w.parts) if p.letters)
        p = w.parts[i]
        rest = MultiWord(w.parts[:i] + (Word(p.letters[1:], p.n),) + w.parts[i + 1:])
        cols[w] = letter(i + 1, p.letters[0], cols[rest])
    return cols


def kernel_from_columns(side: Side, n: Sequence[int], max_len: int,
                        cols: Mapping[MultiWord, np.ndarray]) -> ToeplitzKernel:
    """Kernel table (V_s E)* (V_w E) of ``word_columns`` output, stored at
    (s, w) on the left side and at the reversed pair (s~, w~) on the right."""
    values: dict[KernelKey, np.ndarray] = {}
    for s, cs in cols.items():
        cs_h = cs.conj().T
        for w, cw in cols.items():
            v = cs_h @ cw
            key = (s.reverse(), w.reverse()) if side == "right" else (s, w)
            if np.max(np.abs(v)) > 0:
                values[key] = v
    return ToeplitzKernel(side, n, next(iter(cols.values())).shape[1], max_len, values)


def kernel_from_isometries(side: Side, V: Sequence[Sequence[np.ndarray]],
                           e_basis: np.ndarray, max_len: int) -> ToeplitzKernel:
    """Kernel of a tuple of commuting row isometries compressed to a subspace.

    Left side: K(s, w) = E* V_s* V_w E.  Right side: the table satisfies
    K(s~, w~) = E* V_s* V_w E, i.e. the reversal reduction of the left case.
    Always positive semi-definite and multi-Toeplitz when V genuinely
    consists of commuting row isometries on the spanned subspace.
    """
    e_basis = np.asarray(e_basis, dtype=complex)
    n = tuple(len(row) for row in V)
    cols = word_columns(lambda i, j, m: V[i - 1][j - 1] @ m, e_basis, n, max_len)
    return kernel_from_columns(side, n, max_len, cols)


@dataclass
class PsdReport:
    psd: bool
    min_eig: float
    tol: float


def kernel_is_psd(K: ToeplitzKernel, tol: float = 1e-10) -> PsdReport:
    w = min_eig_hermitian(K.gram())
    return PsdReport(w >= -tol, w, tol)


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
    frame: np.ndarray = field(repr=False)  # space_dim x (len(monomials)*e_dim)

    def word_isometry(self, mw: MultiWord) -> np.ndarray:
        """V_mw = V_{1,w_1} ... V_{k,w_k} with V_{i,w} = V_{j1} @ ... @ V_{jp}."""
        out = np.eye(self.space_dim, dtype=complex)
        for i, w in enumerate(mw.parts):
            for j in w.letters:
                out = out @ self.isometries[i][j - 1]
        return out

    def reproduce(self, s: MultiWord, w: MultiWord) -> np.ndarray:
        """P_E V_s* V_w |_E, which matches the kernel on the window (for a
        right kernel, the table entry at the reversed pair)."""
        return self.embedding.conj().T @ (
            self.word_isometry(s).conj().T @ self.word_isometry(w) @ self.embedding
        )


def naimark_dilate(K: ToeplitzKernel, rank_tol: float = 1e-10,
                   psd_tol: float = 1e-8) -> NaimarkDilation:
    """Minimal dilation by commuting row isometries, exact on the window.

    The Gram matrix of the kernel over monomials of total length <= max_len
    is eigen-factorized with a relative rank cut; the isometries act on the
    factor coordinates by the index shift that prepends a generator in one
    factor (for right kernels, the construction runs on the reversed words).
    """
    work = K.reversed() if K.side == "right" else K
    g = work.gram()
    e = work.e_dim
    monos = work.monomials
    lam, u = np.linalg.eigh(0.5 * (g + g.conj().T))
    lam_max = max(float(lam[-1]), 0.0)
    if float(lam[0]) < -psd_tol * max(lam_max, 1.0):
        raise KernelNotPSDError(float(lam[0]))
    keep = lam > rank_tol * max(lam_max, 1.0)
    if not np.any(keep):
        raise KernelNotPSDError(float(lam[0]) if lam.size else 0.0)
    frame = np.sqrt(lam[keep])[:, None] * u[:, keep].conj().T
    rank = frame.shape[0]
    col_of = {mw: p for p, mw in enumerate(monos)}
    L = work.max_len

    def cols_for(words: list[MultiWord]) -> np.ndarray:
        idx = np.array([col_of[w] for w in words], dtype=np.int64)
        blk = (idx[:, None] * e + np.arange(e)[None, :]).ravel()
        return frame[:, blk]

    dom_words = [w for w in monos if w.total_length <= L - 1]
    f_dom = cols_for(dom_words)
    f_dom_pinv = np.linalg.pinv(f_dom, rcond=max(rank_tol, 1e-13))
    isometries: list[list[np.ndarray]] = []
    for i, ni in enumerate(work.n, start=1):
        row = []
        for j in range(1, ni + 1):
            shifted = [
                MultiWord(
                    tuple(
                        Word((j,) + w.letters, w.n) if fi == i - 1 else w
                        for fi, w in enumerate(mw.parts)
                    )
                )
                for mw in dom_words
            ]
            row.append(cols_for(shifted) @ f_dom_pinv)
        isometries.append(row)
    emb = cols_for([identity_multiword(work.n)])
    return NaimarkDilation(
        side=K.side,
        n=work.n,
        e_dim=e,
        space_dim=rank,
        isometries=isometries,
        embedding=emb,
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
        return max(self.reproduction_error, self.isometry_defect,
                   self.commutator_defect, self.embedding_defect)


def dilation_verify(D: NaimarkDilation, K: ToeplitzKernel,
                    rank_tol: float = 1e-10) -> DilationReport:
    """Reproduction, window isometry, cross-factor commutation, minimality."""
    work = K.reversed() if K.side == "right" else K
    window = [w for w in D.monomials if w.total_length <= D.window_len]
    vmats = {w: D.word_isometry(w) for w in window}
    emb = D.embedding
    rep_err = 0.0
    for s in window:
        for w in window:
            got = emb.conj().T @ vmats[s].conj().T @ vmats[w] @ emb
            rep_err = max(rep_err, float(np.max(np.abs(got - work.value(s, w)))))
    # orthoprojector onto the natural domain (length <= window_len columns)
    col_of = {mw: p for p, mw in enumerate(D.monomials)}
    e = D.e_dim
    idx = np.array([col_of[w] for w in window], dtype=np.int64)
    blk = (idx[:, None] * e + np.arange(e)[None, :]).ravel()
    f_dom = D.frame[:, blk]
    q, sv, _ = np.linalg.svd(f_dom, full_matrices=False)
    q = q[:, sv > rank_tol * max(float(sv[0]) if sv.size else 0.0, 1.0)]
    p_dom = q @ q.conj().T
    iso_err = 0.0
    eye = np.eye(D.space_dim)
    for i, ni in enumerate(D.n):
        for s in range(ni):
            for t in range(ni):
                m = D.isometries[i][s].conj().T @ D.isometries[i][t]
                delta = eye if s == t else 0.0 * eye
                iso_err = max(iso_err, opnorm(p_dom @ (m - delta) @ p_dom))
    # commutators on the two-letter window
    inner = [w for w in D.monomials if w.total_length <= D.window_len - 1]
    if inner:
        idx2 = np.array([col_of[w] for w in inner], dtype=np.int64)
        blk2 = (idx2[:, None] * e + np.arange(e)[None, :]).ravel()
        f2 = D.frame[:, blk2]
        q2, sv2, _ = np.linalg.svd(f2, full_matrices=False)
        q2 = q2[:, sv2 > rank_tol * max(float(sv2[0]) if sv2.size else 0.0, 1.0)]
        p2 = q2 @ q2.conj().T
    else:
        p2 = np.zeros((D.space_dim, D.space_dim))
    comm_err = 0.0
    for i in range(len(D.n)):
        for i2 in range(i + 1, len(D.n)):
            for a in D.isometries[i]:
                for b in D.isometries[i2]:
                    comm_err = max(comm_err, opnorm((a @ b - b @ a) @ p2))
    emb_err = float(np.max(np.abs(emb.conj().T @ emb - np.eye(D.e_dim))))
    # minimality: the V_w E columns must span the whole space
    span = np.concatenate([vmats_all @ emb for vmats_all in
                           (D.word_isometry(w) for w in D.monomials)], axis=1)
    sv = np.linalg.svd(span, compute_uv=False)
    dim = int(np.count_nonzero(sv > rank_tol * max(float(sv[0]) if sv.size else 0.0, 1.0)))
    return DilationReport(
        reproduction_error=rep_err,
        isometry_defect=iso_err,
        commutator_defect=comm_err,
        embedding_defect=emb_err,
        minimal=dim == D.space_dim,
        dimension_gap=D.space_dim - dim,
    )
