"""Pluriharmonic functions as Fourier symbols, the Schur-type positivity
test, the structure construction from commuting row isometries, and the
Poisson / Fantappie / Herglotz transforms of linear maps on the
right-creation operator system.

The structure construction reads W* V_{a~}* V_{b~} W off the columns V_w W
for abstract row isometries V (``from_row_isometries``); at the universal
model each is a sum over one pairing's cells (``universal_compression``).

A free pluriharmonic function is its finitely supported symbol, a
``MultiToeplitzSymbol``; the functions here take and return one, and the
r-scaled function is its ``scaled(r)``.  A linear map on the operator
system is fixed by its values on the quotient index monomials (these span
the system), which form a symbol too: ``CbMapData`` holds that symbol with
the map's metadata, and the Herglotz class is a declared zero-pattern
validated at construction.  Its transforms are one evaluation of symbols
at a point (``toeplitz.evaluate_symbol``): the Poisson transform of every
value, the Fantappie transform of the annihilation-monomial values only.

The Schur-type test compares two matrices per r whose cells depend on the
symbol's keys and the shape alone: it reads them once per call and scatters
only the r-scaled values (``MultiToeplitzSymbol.scaled``) per r.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._linalg import min_eig_hermitian
from .berezin import DivergenceError, PolyballPoint, dropped_shell_mass, pair_transforms
from .fock import FockTruncation
from .naimark import (
    ToeplitzKernel,
    gram_cells,
    kernel_from_generator,
    require_hermitian,
    word_columns,
)
from .toeplitz import MultiToeplitzSymbol, evaluate_symbol, symbol_operator, symbol_pair_ids
from .words import (
    MultiWord,
    Side,
    identity_multiword,
    lambda_pairs_up_to_total,
    lambda_pairs_within_degrees,
)


def from_row_isometries(V: Sequence[Sequence[np.ndarray]], e_basis: np.ndarray,
                        max_total_len: int) -> MultiToeplitzSymbol:
    """Symbol with coefficients P_E V_{a~}* V_{b~} |_E over index pairs of
    total length <= max_total_len, read off the columns V_w E of
    ``naimark.word_columns``.  Cross-factor letters of V must commute on the
    columns with |w| <= max_total_len - 2, the only swaps that can change a
    column the coefficients read; a defect above 1e-8 raises ``ValueError``.
    The entries of V may be dense or SciPy-sparse: they are only applied
    with ``@`` to dense columns.
    """
    e_basis = np.asarray(e_basis, dtype=complex)
    n = tuple(len(row) for row in V)
    cols = word_columns(V, e_basis, max_total_len)
    inner = np.concatenate([e_basis[:, :0]] + [
        c for w, c in cols.items() if w.total_length <= max_total_len - 2], axis=1)
    vc = [[a @ inner for a in row] for row in V]
    for i, i2 in itertools.combinations(range(len(V)), 2):
        d = max(float(np.max(np.abs(a @ bc - b @ ac), initial=0.0))
                for a, ac in zip(V[i], vc[i]) for b, bc in zip(V[i2], vc[i2]))
        if d > 1e-8:
            raise ValueError(f"factors {i + 1} and {i2 + 1} do not commute (defect {d:.3e})")
    coeffs = {}
    for a, b in lambda_pairs_up_to_total(n, max_total_len):
        c = cols[a.reverse()].conj().T @ cols[b.reverse()]
        if np.max(np.abs(c)) > 0:
            coeffs[a, b] = c
    return MultiToeplitzSymbol._unchecked(n, e_basis.shape[1], coeffs)


def universal_compression(trunc: FockTruncation, side: Side, w: np.ndarray,
                          max_total_len: int) -> MultiToeplitzSymbol:
    """``from_row_isometries`` of V = ``creation_tuple(trunc, side)``: the
    values W* V_{a~}* V_{b~} W, W the (dim, e) array ``w``, at the pairs of
    ``lambda_pairs_up_to_total(n, max_total_len)`` in order, zeros dropped.

    At a lambda pair V_{a~}* V_{b~} is the pairing at (a, b), so the value
    is the sum of W[target]* W[source] over its cells (``pair_transforms``).
    A cell counts only with both its words in W's row support.  It relates
    them by word arithmetic alone, stripping a_i and attaching b_i, so it is
    in every truncation holding both words, and |a_i|, |b_i| are at most the
    longest support word's length in factor i.  The gather runs on the
    smallest truncation holding the support, where a longer key is off the
    box (zero), and the values do not depend on the degrees of ``trunc``."""
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != trunc.dim:
        raise ValueError(f"w needs shape ({trunc.dim}, e), got {w.shape}")
    rows = np.flatnonzero(w.any(axis=1))
    # a word's index in its factor does not depend on the factor's degree
    factor_rows = np.unravel_index(rows, trunc.factor_dims)
    box = FockTruncation(trunc.n, [int(length[f].max(initial=0))
                                   for length, f in zip(trunc._factor_degree, factor_rows)])
    k = np.zeros((box.dim, 1, w.shape[1]), dtype=complex)
    k[np.ravel_multi_index(factor_rows, box.factor_dims), 0] = w[rows]
    pairs = lambda_pairs_up_to_total(trunc.n, max_total_len)
    values = pair_transforms(k, [box.pair_id(a, b) for a, b in pairs], box, side)
    return MultiToeplitzSymbol._unchecked(trunc.n, w.shape[1], {
        pairs[j]: values[j] for j in np.flatnonzero(values.any(axis=(1, 2)))})


# ---------------------------------------------------------------------------
# Schur-type positivity


def gamma_kernel(F: MultiToeplitzSymbol, r: float, max_len: int) -> ToeplitzKernel:
    """Right kernel generated by the r-scaled function, which must be Hermitian:
    the entry at a comparable pair is its coefficient at the quotients."""
    return kernel_from_generator("right", F.scaled(r), max_len, require_unit=False)


@dataclass
class SchurPoint:
    r: float
    operator_min_eig: float
    gram_min_eig: float
    operator_positive: bool
    gram_positive: bool

    @property
    def agree(self) -> bool:
        return self.operator_positive == self.gram_positive


@dataclass
class SchurReport:
    points: list[SchurPoint]
    tol: float

    @property
    def all_agree(self) -> bool:
        return all(p.agree for p in self.points)

    @property
    def positive(self) -> bool:
        return all(p.operator_positive and p.gram_positive for p in self.points)


def schur_positivity(F: MultiToeplitzSymbol, r_grid: Iterable[float],
                     max_len: int, tol: float = 1e-8) -> SchurReport:
    """Compare the two positivity verdicts at each r on matched truncations.

    (a) the smallest eigenvalue of the symbol evaluated at the r-scaled
    truncated creations, compressed to the total-length window, and (b) the
    smallest eigenvalue of the Gram matrix of the associated right kernel.
    The two matrices are compressions of the same operator computed along
    independent code paths (creation monomial assembly vs. word
    comparability), so the verdicts must agree.

    The symbol must be Hermitian (``naimark.require_hermitian``).  The cells
    depend on the keys and the shape alone, so they are read once per call:
    the keys' left pair-table cells inside the window and the right
    kernel's Gram blocks (``naimark.gram_cells``).  Per r the blocks of
    ``F.scaled(r)`` are scattered onto dense zeros, giving every bit of
    ``symbol_operator`` on the window (+ 0.0, as ``pair_operator`` stores
    them) and of ``gamma_kernel``'s Gram (a block that scales to zero is
    left out, as there); no sparse matrix is built.
    """
    require_hermitian(F)
    e = F.e_dim
    trunc = FockTruncation(F.n, [max_len] * len(F.n))
    window = trunc.total_length_mask(max_len)
    src, dst, owner = trunc.pair_cells("left", symbol_pair_ids(F, trunc))
    inside = window[src] & window[dst]
    place = np.cumsum(window) - 1
    rows, cols, op_owner = place[dst[inside]], place[src[inside]], owner[inside]
    size = int(place[-1]) + 1
    p, q, gram_owner = gram_cells("right", F, max_len)
    points = []
    for r in r_grid:
        blocks = F.scaled(r).blocks()
        op = np.zeros((size, e, size, e), dtype=complex)
        op[rows, :, cols, :] = blocks[op_owner] + 0.0
        # the window's words are the kernel's monomials, in another order
        gram = np.zeros((size, e, size, e), dtype=complex)
        gram[p, :, q] = np.where(blocks.any(axis=(1, 2))[:, None, None], blocks, 0)[gram_owner]
        op_min = min_eig_hermitian(op.reshape(size * e, size * e))
        gram_min = min_eig_hermitian(gram.reshape(size * e, size * e))
        points.append(
            SchurPoint(r, op_min, gram_min, op_min >= -tol, gram_min >= -tol)
        )
    return SchurReport(points, tol)


# ---------------------------------------------------------------------------
# linear maps on the right-creation operator system


class CbMapData:
    """A linear map on the operator system, held as its values on the
    quotient index monomials.

    ``symbol[(a, b)]`` is the image of the monomial pairing the reversed
    words a, b (adjoint side first); zero values are not kept, the unit at
    the pair of unit words is kept when given.  ``herglotz_class`` declares
    the annihilation/creation-only zero pattern and is validated.
    ``coeff_bound`` (optional) is a sup bound on the coefficients of the
    underlying infinite family, used for tail bounds of truncated series
    with the caps ``max_total_len`` or ``per_factor_cap``; it must be finite
    and the caps nonnegative.
    """

    def __init__(self, symbol: MultiToeplitzSymbol,
                 unit: np.ndarray | None = None,
                 herglotz_class: bool = False,
                 coeff_bound: float | None = None,
                 max_total_len: int | None = None,
                 per_factor_cap: tuple[int, ...] | None = None):
        keep = symbol.blocks().any(axis=(1, 2))
        self.symbol = MultiToeplitzSymbol._unchecked(symbol.n, symbol.e_dim, {
            k: v for (k, v), nonzero in zip(symbol.items(), keep) if nonzero})
        g = identity_multiword(self.n)
        if unit is not None:
            self.symbol[g, g] = unit
        self.unit = self.symbol.coeff(g, g)
        if np.max(np.abs(self.unit - self.unit.conj().T)) > 1e-10:
            raise ValueError("unit value must be Hermitian")
        self.herglotz_class = bool(herglotz_class)
        if self.herglotz_class:
            for a, b in self.symbol.coeffs:
                if not a.is_identity and not b.is_identity:
                    raise ValueError(
                        f"declared Herglotz class but value at ({a!r}; {b!r}) is nonzero"
                    )
        self.coeff_bound = None if coeff_bound is None else float(coeff_bound)
        if self.coeff_bound is not None and not 0.0 <= self.coeff_bound < math.inf:
            raise ValueError(f"coeff_bound must be finite and >= 0, got {coeff_bound}")
        if per_factor_cap is not None and (
                len(per_factor_cap) != len(self.n) or min(per_factor_cap) < 0):
            raise ValueError(f"per_factor_cap {per_factor_cap} needs one cap >= 0 per factor")
        if max_total_len is not None and max_total_len < 0:
            raise ValueError(f"max_total_len must be >= 0, got {max_total_len}")
        self.max_total_len = (
            max_total_len
            if max_total_len is not None
            else max((a.total_length + b.total_length for a, b in self.symbol.coeffs), default=0)
        )
        self.per_factor_cap = per_factor_cap

    @property
    def n(self) -> tuple[int, ...]:
        return self.symbol.n

    @property
    def e_dim(self) -> int:
        return self.symbol.e_dim

    # -- constructors --------------------------------------------------------

    @staticmethod
    def point_mass(zeta: Sequence[complex], max_len: int) -> "CbMapData":
        """State pairing against the boundary point zeta (single-generator
        factors): the monomial value is the matching power of zeta.
        Truncated at per-factor degree max_len."""
        n = tuple(1 for _ in zeta)
        sym = MultiToeplitzSymbol(n, 1)
        for a, b in lambda_pairs_within_degrees(n, [max_len] * len(n)):
            v = 1.0 + 0j
            for zi, ai, bi in zip(zeta, a.parts, b.parts):
                v *= zi ** (len(bi) - len(ai))
            sym[a, b] = [[v]]
        return CbMapData(sym, coeff_bound=1.0, per_factor_cap=tuple(max_len for _ in n))

    @staticmethod
    def from_holomorphic(sym: MultiToeplitzSymbol, scale: float = 1.0) -> "CbMapData":
        """Herglotz-class data matched to a holomorphic symbol: annihilation
        monomials carry half the creation coefficients, scaled down by
        scale^len; the unit carries the Hermitian part of the constant."""
        g = identity_multiword(sym.n)
        vals = MultiToeplitzSymbol(sym.n, sym.e_dim)
        for (a, b), c in sym.items():
            if not b.is_identity:
                raise ValueError("from_holomorphic needs a creation-only symbol")
            if a.is_identity:
                continue
            vals[a, g] = 0.5 * c / scale ** a.total_length
            vals[g, a] = 0.5 * c.conj().T / scale ** a.total_length
        a0 = sym.coeff(g, g)
        return CbMapData(vals, unit=0.5 * (a0 + a0.conj().T), herglotz_class=True)


def nu_trace_form(F: MultiToeplitzSymbol, r: float, trunc: FockTruncation,
                  words: Sequence[MultiWord]) -> list[np.ndarray]:
    """Radial-function extraction of the annihilation-monomial values, one
    block per word: pair the function at the scaled right creations against
    the vacuum state after multiplying by the adjoint creation word.  R_a*
    maps the basis vector R_a e_vac to the vacuum and every other one off it,
    so the value at a is the block of the function at (R_a e_vac, vacuum),
    R_a e_vac being the basis word a~, all read in one lookup of the
    operator's vacuum column; zero when a does not fit the truncation."""
    phi = symbol_operator(F, trunc, r, side="right")
    fits = np.array([trunc.admits(a) for a in words], dtype=bool)
    rows = [trunc.basis_index(a.reverse()) if ok else 0 for a, ok in zip(words, fits)]
    return list(np.where(fits[:, None, None], phi.blocks(rows, trunc.vacuum_index), 0))


# ---------------------------------------------------------------------------
# transforms


@dataclass
class TransformResult:
    value: np.ndarray
    tail_bound: float


def _transform_tail(mu: CbMapData, X: PolyballPoint, holomorphic: bool) -> float:
    if mu.coeff_bound is None:
        return 0.0
    rho = X.row_norms()
    q = [math.sqrt(ni) * r for ni, r in zip(X.n, rho)]
    if any(x >= 1.0 for x in q):
        raise DivergenceError(
            f"shell masses {q} not summable; tighten the point or drop the family bound"
        )
    # holomorphic series keep creation words only; the others, index pairs
    dropped = dropped_shell_mass(q, pairs=not holomorphic, box=mu.per_factor_cap,
                                 cap=mu.max_total_len)
    return mu.coeff_bound * max(dropped, 0.0)


def poisson_transform(mu: CbMapData, X: PolyballPoint) -> TransformResult:
    """Pair the map against the pluriharmonic Poisson kernel: the sum of
    value (x) X_a X_b* over the stored index pairs."""
    if X.n != mu.n:
        raise ValueError(f"point shape {X.n} does not match map shape {mu.n}")
    tail = _transform_tail(mu, X, holomorphic=False)
    return TransformResult(evaluate_symbol(mu.symbol, X), tail)


def fantappie_transform(mu: CbMapData, X: PolyballPoint) -> TransformResult:
    """Resolvent-product pairing: the Poisson-type evaluation restricted to
    the annihilation-monomial values, the keys (a, e), where X_a X_e* = X_a."""
    if X.n != mu.n:
        raise ValueError(f"point shape {X.n} does not match map shape {mu.n}")
    tail = _transform_tail(mu, X, holomorphic=True)
    values = MultiToeplitzSymbol._unchecked(mu.n, mu.e_dim, {
        (a, b): v for (a, b), v in mu.symbol.items() if b.is_identity})
    return TransformResult(evaluate_symbol(values, X), tail)


def herglotz_transform(mu: CbMapData, X: PolyballPoint) -> TransformResult:
    """Twice the resolvent pairing minus the unit."""
    f = fantappie_transform(mu, X)
    value = 2.0 * f.value - np.kron(np.eye(X.h_dim, dtype=complex), mu.unit)
    return TransformResult(value, 2.0 * f.tail_bound)
