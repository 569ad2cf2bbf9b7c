"""Polyball membership, Berezin kernels and transforms, the Cauchy-type
resolvent operator, and the pluriharmonic Poisson kernel.

Conventions.  A point is a k-tuple of operator rows X[i] = (X[i][1], ...,
X[i][n_i]) on a common space of dimension h; entries of different rows must
commute.  All operators on tensor products are laid out with the main space
major and the coefficient space minor, matching ``fock.FockOperator``.

Both kernels are sums over basis words, built as one graded table: per
factor, level p stacks the X_{i,w} with |w| = p in rank order, and level
p+1 is X_{i,j} @ (level p) over the letters j.  ``monomial_table`` builds
the levels on each call and combines them into X_b for every basis word b
of a truncation, bit for bit the per-word ``monomial``, which multiplies
one word's letters in the levels' order.  A point stores only its entries.
``berezin_kernel`` is one batched product of Delta^(1/2) with the table,
``poisson_window`` gathers X_a X_b* from it at each pair's first cell
a -> b in the right pair table (``FockTruncation.pair_table``), only for
the cells inside one window (the whole box for an all-true window), and
``berezin_transform`` applies a dense or SciPy-sparse g once, to the
kernel's columns.  The compressions of pairings need no operator:
``pair_transforms`` reads the cells of all the given pairs once, gathers a
row-blocked (dim, r, e) array K on a truncation (the Berezin kernel's
``as_tensor``, or the embedding W of a compression of the universal model)
at them and sums the per-cell products pair by pair.

Truncated series report explicit geometric tail bounds computed from the row
norms; when the point is jointly nilpotent the series are finite and the
bounds collapse to zero.

The resolvent is built at the universal model, the truncated creations.
They are nilpotent, so prod_i (I - A_i)^-1 is the finite word sum of
V_b~ (x) X_b*, in closed form: the full operator is one gather from the
pair table and the monomial table, the operator on a set of columns is the
same gather on the cells whose source lies in the set (the Poisson
factorization reads only its window's columns), and a thin ``rhs`` is
applied factor by factor, each factor's resolvent gathered on its own
truncation.  Times
Delta^(1/2), the one square root of the defect, its vacuum column is the
Berezin kernel on the right side (where V_b~ e = e_b), bit for bit.  The
creation rows have norm at most 1, so the factors have
sigma_min(I - A_i) >= 1 - rho_i, rho_i the row norm of X_i, and I - A_i is
the identity on the other factors, so ``min_singular`` is the exact SVD of
each factor's own I - A.  It is computed at once only where the
certificate cannot clear the 1e-12 guard, otherwise on reading
``min_singular``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _linalg as la
from .fock import FockOperator, FockTruncation, creation_tuple, pair_matrix
from .words import MultiWord, Side


class DivergenceError(ValueError):
    """A truncated series cannot meet the requested tolerance."""


class SingularResolventError(np.linalg.LinAlgError):
    def __init__(self, min_singular: float):
        super().__init__(f"resolvent factor is singular (min singular value {min_singular:.3e})")
        self.min_singular = min_singular


class PolyballPoint:
    """k-tuple of commuting-across-factors operator rows on C^h."""

    def __init__(self, X: Sequence[Sequence[np.ndarray]]):
        self.X = [[np.asarray(m, dtype=complex) for m in row] for row in X]
        if not self.X or any(not row for row in self.X):
            raise ValueError("point needs at least one entry per factor")
        h = self.X[0][0].shape[0]
        if h == 0:
            raise ValueError("point needs a space of positive dimension")
        for row in self.X:
            for m in row:
                if m.shape != (h, h):
                    raise ValueError("all entries must be square of equal size")
        self.h_dim = h
        self.k = len(self.X)
        self.n = tuple(len(row) for row in self.X)

    @classmethod
    def from_scalars(cls, values: Sequence[Sequence[complex]]) -> "PolyballPoint":
        return cls([[np.array([[v]], dtype=complex) for v in row] for row in values])

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.X[i - 1][j - 1]

    def scaled(self, r: float) -> "PolyballPoint":
        return PolyballPoint([[r * m for m in row] for row in self.X])

    def _factor_levels(self, i: int, d: int) -> list[np.ndarray]:
        """Levels 0..d of factor i, level p the (n_i^p, h, h) words of length
        p; the first letter is the most significant, as in the base-n_i rank."""
        levels = [np.eye(self.h_dim, dtype=complex)[None]]
        for _ in range(d):
            levels.append(np.concatenate([m @ levels[-1] for m in self.X[i - 1]]))
        return levels

    def monomial(self, mw: MultiWord) -> np.ndarray:
        """X_mw: product of the per-factor word operators, factor order.  A
        word is the chain X_{i,j1} (X_{i,j2} (... (X_{i,jp} I))), the product
        order of the levels, so the bits agree, but it costs |w| products,
        not the n_i^p words of a level."""
        if mw.n != self.n:
            raise ValueError(f"multiword shape {mw.n} does not match point shape {self.n}")
        out = np.eye(self.h_dim, dtype=complex)
        for row, w in zip(self.X, mw.parts):
            if not w.is_identity:
                word = np.eye(self.h_dim, dtype=complex)
                for j in reversed(w.letters):
                    word = row[j - 1] @ word
                out = out @ word
        return out

    def monomial_table(self, trunc: FockTruncation) -> np.ndarray:
        """X_b for every basis word b of ``trunc``, a (dim, h, h) array in
        basis order.  One broadcast matmul per factor multiplies only the
        nonempty factor words, as ``monomial`` does, so entry f has the bits
        of ``monomial(trunc.basis_word(f))``, signed zeros included."""
        if trunc.n != self.n:
            raise ValueError(f"truncation shape {trunc.n} does not match point shape {self.n}")
        h = self.h_dim
        table = np.eye(h, dtype=complex)[None]
        for i, d in enumerate(trunc.degrees, start=1):
            words = np.concatenate(self._factor_levels(i, d))
            out = np.empty((len(table), len(words), h, h), dtype=complex)
            out[:, 0] = table
            np.matmul(table[:, None], words[None, 1:], out=out[:, 1:])
            table = out.reshape(-1, h, h)
        return table

    def row_norms(self) -> list[float]:
        return [
            math.sqrt(la.opnorm(sum(m @ m.conj().T for m in row)))
            for row in self.X
        ]

    def cross_commutation_defect(self) -> float:
        worst = 0.0
        for i in range(self.k):
            for i2 in range(i + 1, self.k):
                for a in self.X[i]:
                    for b in self.X[i2]:
                        worst = max(worst, float(np.max(np.abs(a @ b - b @ a))))
        return worst

    def nilpotency_indices(self) -> list[float]:
        """Per factor, the first p with Phi_i^p(I) = 0 (norm <= 1e-300): all its
        words of length p vanish; infinity if none (the index is at most h).
        ||y|| >= max |y_ij|, so an entry above 1e-300 settles the verdict
        without the SVD."""
        def index(row) -> float:
            y = np.eye(self.h_dim, dtype=complex)
            for p in range(1, self.h_dim + 1):
                y = phi_map(row, y)
                if not np.max(np.abs(y)) > 1e-300 and la.opnorm(y) <= 1e-300:
                    return p
            return math.inf
        return [index(row) for row in self.X]


def creation_point(trunc: FockTruncation, r: float = 1.0, side: Side = "left") -> PolyballPoint:
    """The truncated creation tuple r*S (or r*R) as a polyball point, its
    letters dense copies of ``fock.creation_tuple``."""
    point = PolyballPoint([[m.toarray() for m in row] for row in creation_tuple(trunc, side)])
    # scaling by 1 would only write every (untouched, zero) page of the letters
    return point if r == 1.0 else point.scaled(r)


# ---------------------------------------------------------------------------
# defect and membership


def phi_map(row: Sequence[np.ndarray], y: np.ndarray) -> np.ndarray:
    """The completely positive map Y -> sum_j X_j Y X_j*."""
    return sum(m @ y @ m.conj().T for m in row)


def defect(X: PolyballPoint) -> np.ndarray:
    """Delta_X(I): alternating composition of id - Phi over the factors."""
    y = np.eye(X.h_dim, dtype=complex)
    for row in reversed(X.X):
        y = y - phi_map(row, y)
    return y


@dataclass
class MembershipReport:
    member: bool
    row_norms: list[float]
    defect_min_eig: float
    commutation_defect: float


def in_polyball(X: PolyballPoint, margin: float = 0.0) -> MembershipReport:
    """Row norms below 1 - margin, defect above margin, and cross-factor
    commutation up to 1e-10."""
    rn = X.row_norms()
    dmin = la.min_eig_hermitian(defect(X))
    cd = X.cross_commutation_defect()
    member = all(r < 1.0 - margin for r in rn) and dmin > margin and cd <= 1e-10
    return MembershipReport(member, rn, dmin, cd)


@dataclass
class SpectralRadiusReport:
    value: float
    estimates: list[float]


def spectral_radius(X: PolyballPoint, max_p: int = 8) -> SpectralRadiusReport:
    """Joint spectral radius along the diagonal shell sequence p_i = p.

    For each p computes || Phi_1^p(...Phi_k^p(I)) ||^(1/(2kp)), which equals
    the norm of the sum of X_a X_a* over all multiwords with |a_i| = p.
    """
    if max_p < 2:
        raise ValueError("max_p must be >= 2")
    ests = []
    for p in range(1, max_p + 1):
        y = np.eye(X.h_dim, dtype=complex)
        for row in reversed(X.X):
            for _ in range(p):
                y = phi_map(row, y)
        nrm = la.opnorm(y)
        ests.append(nrm ** (1.0 / (2.0 * p * X.k)) if nrm > 0 else 0.0)
    return SpectralRadiusReport(max(ests), ests)


# ---------------------------------------------------------------------------
# Berezin kernel and transform


@dataclass
class BerezinKernelMatrix:
    matrix: np.ndarray          # (trunc.dim * h_dim, h_dim)
    trunc: FockTruncation
    h_dim: int
    tail_bound: float

    def as_tensor(self) -> np.ndarray:
        return self.matrix.reshape(self.trunc.dim, self.h_dim, self.h_dim)


def _nilpotent_exact(X: PolyballPoint, trunc: FockTruncation) -> bool:
    """The series over the box is the whole series: in each factor the words
    longer than the degree vanish, d_i + 1 >= p_i for the nilpotency index."""
    return all(d + 1 >= p for d, p in zip(trunc.degrees, X.nilpotency_indices()))


def _kernel_tail_bound(X: PolyballPoint, trunc: FockTruncation, dnorm: float) -> float:
    if _nilpotent_exact(X, trunc):
        return 0.0
    rho2 = [r * r for r in X.row_norms()]
    if any(r2 >= 1.0 for r2 in rho2):
        raise DivergenceError(f"row norms {X.row_norms()} outside the open ball")
    dropped = dropped_shell_mass(rho2, pairs=False, box=trunc.degrees)
    return math.sqrt(max(dnorm * dropped, 0.0))


def berezin_kernel(X: PolyballPoint, trunc: FockTruncation) -> BerezinKernelMatrix:
    """K_X h = sum_b  e_b (x) Delta^(1/2) X_b* h, truncated at the box: the
    blocks Delta^(1/2) X_b* that ``_creation_gather`` places, so bit for bit
    the vacuum column of the right-side resolvent ``cauchy_operator``.

    The tail bound caps the norm of the dropped rows; it is zero for jointly
    nilpotent points once the degrees cover the nilpotency index.
    """
    if X.n != trunc.n:
        raise ValueError("point and truncation have different factor shapes")
    delta = defect(X)
    tail = _kernel_tail_bound(X, trunc, la.opnorm(delta))
    mat = la.psd_sqrt(delta) @ X.monomial_table(trunc).conj().transpose(0, 2, 1)
    return BerezinKernelMatrix(mat.reshape(trunc.dim * X.h_dim, X.h_dim), trunc, X.h_dim, tail)


class GramFactor:
    """The PSD operator g = F F* kept as its thin (rows, r) factor F, and
    applied to columns as F (F* cols): no rows x rows array is formed."""

    def __init__(self, factor: np.ndarray):
        self.factor = np.asarray(factor, dtype=complex)
        self.shape = (self.factor.shape[0],) * 2

    def __matmul__(self, cols: np.ndarray) -> np.ndarray:
        return self.factor @ (self.factor.conj().T @ cols)


def berezin_transform(g, X: PolyballPoint, trunc: FockTruncation | None = None) -> np.ndarray:
    """K_X* (g (x) I) K_X; the extended form when g carries a coefficient
    space (output is then laid out h-major, coefficient minor).

    ``g`` is a ``FockOperator``, a dense or SciPy-sparse matrix or a
    ``GramFactor`` on the truncation (x) C^e.  It is applied once, to the
    kernel's columns (each amplified by I_e), and the result is reduced
    against K_X*."""
    if isinstance(g, FockOperator):
        trunc, g = g.trunc, g.matrix
    elif trunc is None:
        raise ValueError("trunc required when g is a plain matrix")
    if not (hasattr(g, "toarray") or isinstance(g, GramFactor)):
        g = np.asarray(g, dtype=complex)
    e, h = g.shape[0] // trunc.dim, X.h_dim
    k3 = berezin_kernel(X, trunc).as_tensor()
    cols = k3.reshape(trunc.dim, -1)  # row p: the kernel rows (p, d), d-major
    if e > 1:
        cols = np.kron(cols, np.eye(e))  # row (q, j), column (d, y, j)
    gk = (g @ cols).reshape(trunc.dim, e, h, -1)
    out = np.tensordot(k3.conj(), gk, axes=([0, 1], [0, 2]))
    return out.reshape(h * e, h * e)


def pair_transforms(kernel: np.ndarray, pids: np.ndarray, trunc: FockTruncation,
                    side: Side = "left") -> np.ndarray:
    """K* (P (x) I_r) K for the pairings P at the pair ids ``pids`` of the
    pair table of ``side``, a (len(pids), e, e) array; an id of -1 (a pair
    off the box) gives zero.

    ``kernel`` is a row-blocked (dim, r, e) array K on ``trunc``, K[f] its
    (r, e) rows at the basis word f.  For the Berezin kernel
    (``BerezinKernelMatrix.as_tensor``) and the left table these are the
    transforms of the pairings; the pairing at (b~, a~) is S_a S_b*
    (``fock.word_matrix``).

    A pairing sends source to target at each of its cells, so K* (P (x) I) K
    is the sum of K[target]* K[source] over them: one gather at all pairs'
    cells, one batched product and one segment sum."""
    r, e = kernel.shape[1:]
    out = np.zeros((len(pids), e, e), dtype=complex)
    src, dst, owner = trunc.pair_cells(side, pids)
    target, source = kernel[dst].conj(), kernel[src]
    # the per-cell products, one row of K[f] at a time: numpy's batched
    # matmul is slower on so many small products
    products = target[:, 0, :, None] * source[:, 0, None, :]
    for d in range(1, r):
        products += target[:, d, :, None] * source[:, d, None, :]
    # every pair in the box has a cell, its first; the cells come pair by pair
    firsts = np.flatnonzero(np.diff(owner, prepend=-1))
    out[owner[firsts]] = np.add.reduceat(products, firsts, axis=0)
    return out


# ---------------------------------------------------------------------------
# Cauchy-type operator and Poisson kernel


@dataclass
class CauchyResult:
    """The resolvent operator, and the truncation, point and side it was
    built at, from which ``min_singular`` reads the factors I - A_i."""
    matrix: np.ndarray  # CSR for the full operator, dense for a thin rhs
    trunc: FockTruncation = field(repr=False)
    point: PolyballPoint = field(repr=False)
    side: Side

    @cached_property
    def min_singular(self) -> float:
        """Smallest singular value over the factors I - A_i."""
        return min(_min_singular(*_factor(self.trunc, self.point, i), self.side)
                   for i in range(self.point.k))


def _factor(trunc: FockTruncation, X: PolyballPoint, i: int):
    """Factor i (from 0) alone: its own truncation and its row of the point."""
    return FockTruncation(trunc.n[i : i + 1], trunc.degrees[i : i + 1]), PolyballPoint(X.X[i : i + 1])


def _creation_gather(trunc: FockTruncation, X: PolyballPoint, side: Side,
                     words=slice(None), root: np.ndarray | None = None,
                     columns: np.ndarray | None = None):
    """sum of V_b~ (x) root X_b* over the basis words b in ``words`` (basis
    indices; all by default), as CSR on the columns of the source words in
    the boolean basis mask ``columns`` (all by default); no root is the
    identity.

    V_b~ = S_b~ (R_b~ on the right side) is the pairing at the creation pair
    (e, b), whose first cell leaves the vacuum, so the creation pairs are the
    ids with source 0 at their first cell: exactly dim of them, in the basis
    order of b.  X_b is read from the point's monomial table, and
    ``pair_matrix`` places one h x h block at each cell."""
    indptr, src, _ = trunc.pair_table(side)
    pids = np.flatnonzero(src[indptr[:-1]] == 0)[words]
    blocks = X.monomial_table(trunc)[words].conj().transpose(0, 2, 1)
    return pair_matrix(trunc, side, pids, blocks if root is None else root @ blocks, columns)


def _min_singular(trunc: FockTruncation, X: PolyballPoint, side: Side) -> float:
    """Smallest singular value of I - A for a one-factor point X on a
    one-factor truncation, A the gather over the one-letter words: the exact
    SVD of the dense I - A."""
    a = _creation_gather(trunc, X, side, slice(1, trunc.n[0] + 1)).toarray()
    return float(np.linalg.svd(np.eye(a.shape[0]) - a, compute_uv=False)[-1])


def cauchy_operator(trunc: FockTruncation, X: PolyballPoint, side: Side = "right",
                    rhs: np.ndarray | None = None,
                    columns: np.ndarray | None = None) -> CauchyResult:
    """(I (x) Delta_X(I)^(1/2)) prod_i (I - A_i)^(-1) rhs at the universal
    model: A_i = sum_j V_ij (x) X_ij* with V = ``creation_tuple(trunc, side)``.

    The creations are nilpotent, so the product is the finite word sum
    sum_b V_b~ (x) Delta^(1/2) X_b* over the basis words b, one h x h block
    per cell and no cell hit twice.  The full operator (``rhs`` None) is that
    one gather (``_creation_gather``), CSR, with no series and no product of
    sparse matrices.  ``columns``, a boolean mask over the basis, gathers
    only the cells whose source word lies in it: the CSR (m*h, |columns|*h)
    matrix of the full operator's columns at those words, bit for bit, in
    basis order and the point's space minor.  ``rhs``, an (m*h, c) matrix
    on the truncation (x) C^h (main index major), gives the dense (m*h, c)
    product Delta^(1/2) R_1 (R_2 (... rhs)), each R_i = (I - A_i)^-1 the
    gather on factor i's own truncation (``_factor``) applied along that
    factor's axis: a thin ``rhs`` costs c columns, and with several factors
    no operator on the whole space is built.  ``columns`` and ``rhs`` are
    exclusive.

    A factor with smallest singular value <= 1e-12 raises
    ``SingularResolventError``.  A creation row has norm at most 1, so
    sigma_min(I - A_i) >= 1 - rho_i, rho_i the row norm of X_i: the exact
    value is computed at once only where 1 - rho_i <= 1e-12, otherwise
    ``min_singular`` computes it on first read.  I - A_i is the identity on
    the other factors, so its singular values are those of its factor's own
    I - A (``_min_singular``).
    """
    if trunc.n != X.n:
        raise ValueError(f"truncation shape {trunc.n} does not match point shape {X.n}")
    m, h = trunc.dim, X.h_dim
    dim = m * h
    if columns is not None:
        if rhs is not None:
            raise ValueError("columns and rhs are exclusive: a thin rhs has no columns to gather")
        columns = np.asarray(columns)
        if columns.dtype != bool or columns.shape != (m,):
            raise ValueError(f"columns needs a boolean mask of shape ({m},), got "
                             f"{columns.dtype} {columns.shape}")
    if rhs is not None:
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.ndim != 2 or rhs.shape[0] != dim:
            raise ValueError(f"rhs needs shape ({dim}, c), got {rhs.shape}")
    rho = X.row_norms()
    for i in reversed(range(X.k)):
        # a NaN rho_i fails the comparison and takes the exact path
        if not 1.0 - rho[i] > 1e-12 and (sv := _min_singular(*_factor(trunc, X, i), side)) <= 1e-12:
            raise SingularResolventError(sv)
    root = la.psd_sqrt(defect(X))
    if rhs is None:
        return CauchyResult(_creation_gather(trunc, X, side, root=root, columns=columns),
                            trunc, X, side)
    out = rhs.reshape(*trunc.factor_dims, h, -1)
    for i in reversed(range(X.k)):
        r = _creation_gather(*_factor(trunc, X, i), side)
        # factor i's words and the point's space, major, against everything else
        moved = np.moveaxis(out, (i, X.k), (0, 1))
        out = np.moveaxis((r @ moved.reshape(r.shape[0], -1)).reshape(moved.shape), (0, 1), (i, X.k))
    out = (root @ out.reshape(m, h, -1)).reshape(rhs.shape)
    return CauchyResult(out, trunc, X, side)


def dropped_shell_mass(q: Sequence[float], pairs: bool,
                       box: Sequence[int] | None = None,
                       cap: int | None = None) -> float:
    """Dropped mass of sum_m prod_i c(m_i) q_i^m_i over per-factor lengths m,
    c(0) = 1 and c(m) = 1 for creation words, 2 for index pairs.  The kept
    shells are the box m_i <= box_i or, without a box, the total-length cap
    sum_i m_i <= cap.  Requires every q_i < 1."""
    c = 2.0 if pairs else 1.0
    full = math.prod((1.0 + (c - 1.0) * x) / (1.0 - x) for x in q)
    if box is not None:
        kept = math.prod(
            1.0 + 2.0 * sum(x ** m for m in range(1, d + 1)) if pairs
            else sum(x ** m for m in range(d + 1))
            for x, d in zip(q, box)
        )
    else:
        poly = np.zeros(cap + 1)
        poly[0] = 1.0
        for x in q:
            fac = np.array([1.0] + [c * x ** m for m in range(1, cap + 1)])
            poly = np.convolve(poly, fac)[: cap + 1]
        kept = float(poly.sum())
    return full - kept


def poisson_window(X: PolyballPoint, trunc: FockTruncation, window: np.ndarray) -> np.ndarray:
    """The right-side Poisson kernel, the sum over the lambda pairs (a, b)
    of the box of X_a X_b* (x) the right pairing at (a, b), on window x
    window, dense, for the boolean ``window`` over the basis: rows and
    columns the window's basis words in basis order, the point's space
    minor.  An all-true window gives the kernel on the whole box.

    Only the cells of the right pair table whose source and target both lie
    in the window are read, and X_a X_b* is formed only for their pairs;
    each block is scattered onto zeros as ``pair_operator`` stores it, so the
    result has every bit of the pair-by-pair sum sliced to the window, and no
    operator on the whole box is built."""
    if X.n != trunc.n:
        raise ValueError("point and truncation have different factor shapes")
    indptr, src, dst = trunc.pair_table("right")
    cells = np.flatnonzero(window[src] & window[dst])
    # the table is grouped by pair id, and a pair's first cell is a -> b
    pids, owner = np.unique(np.searchsorted(indptr, cells, side="right") - 1, return_inverse=True)
    table = X.monomial_table(trunc)
    xm = table[src[indptr[pids]]] @ table[dst[indptr[pids]]].conj().transpose(0, 2, 1)
    place = np.cumsum(window) - 1
    size, h = int(place[-1]) + 1, X.h_dim
    out = np.zeros((size, h, size, h), dtype=complex)
    out[place[dst[cells]], :, place[src[cells]], :] = xm[owner] + 0.0
    return out.reshape(size * h, size * h)
