"""Pluriharmonic functions as Fourier symbols, the Schur-type positivity
test, the structure construction from commuting row isometries, and the
Poisson / Fantappie / Herglotz transforms of linear maps on the
right-creation operator system.

A free pluriharmonic function is its finitely supported symbol, a
``MultiToeplitzSymbol``; the functions here take and return one.  A linear
map on the operator system is fixed by its values on the quotient index
monomials (these span the system), which form a symbol too: ``CbMapData``
holds that symbol with the map's metadata, and the Herglotz class is a
declared zero-pattern validated at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._linalg import min_eig_hermitian
from .berezin import DivergenceError, PolyballPoint, dropped_shell_mass
from .fock import FockTruncation, monomial_indices
from .naimark import ToeplitzKernel, kernel_from_generator, kernel_is_psd, word_columns
from .toeplitz import MultiToeplitzSymbol, SymbolKey, evaluate_symbol, symbol_operator
from .words import (
    MultiWord,
    identity_multiword,
    lambda_pairs_up_to_total,
    lambda_pairs_within_degrees,
)


def from_row_isometries(V: Sequence[Sequence[np.ndarray]], e_basis: np.ndarray,
                        max_total_len: int) -> MultiToeplitzSymbol:
    """Symbol with coefficients P_E V_{a~}* V_{b~} |_E over index pairs of
    total length <= max_total_len.

    V must be a tuple of cross-factor commuting row operators; a commutation
    defect above 1e-8 raises ``ValueError``.  The columns V_w E come from
    ``naimark.word_columns``, as for the kernels of isometries.
    """
    e_basis = np.asarray(e_basis, dtype=complex)
    n = tuple(len(row) for row in V)
    for i in range(len(V)):
        for i2 in range(i + 1, len(V)):
            for a in V[i]:
                for b in V[i2]:
                    d = float(np.max(np.abs(a @ b - b @ a)))
                    if d > 1e-8:
                        raise ValueError(
                            f"factors {i + 1} and {i2 + 1} do not commute (defect {d:.3e})"
                        )
    cols = word_columns(lambda i, j, m: V[i - 1][j - 1] @ m, e_basis, n, max_total_len)
    sym = MultiToeplitzSymbol(n, e_basis.shape[1])
    for a, b in lambda_pairs_up_to_total(n, max_total_len):
        c = cols[a.reverse()].conj().T @ cols[b.reverse()]
        if np.max(np.abs(c)) > 0:
            sym[a, b] = c
    return sym


# ---------------------------------------------------------------------------
# Schur-type positivity


def gamma_kernel(F: MultiToeplitzSymbol, r: float, max_len: int) -> ToeplitzKernel:
    """Right kernel of the r-scaled function: the entry at a comparable pair
    is the r-scaled coefficient at the comparability quotients."""
    if not F.is_hermitian_symmetric(1e-9):
        raise ValueError("gamma kernel requires a Hermitian-symmetric symbol")
    gen: dict[SymbolKey, np.ndarray] = {}
    scaled = F.scaled(r)
    for a, b in lambda_pairs_up_to_total(F.n, 2 * max_len):
        if a.total_length <= max_len and b.total_length <= max_len:
            gen[(a, b)] = scaled.coeff(a, b)
    return kernel_from_generator("right", gen, max_len, require_unit=False)


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
    """
    trunc = FockTruncation(F.n, [max_len] * len(F.n))
    wmask = trunc.total_length_mask(max_len)
    e = F.e_dim
    blk = np.repeat(wmask, e)
    points = []
    for r in r_grid:
        m = symbol_operator(F, trunc, r).dense()
        mw = m[np.ix_(blk, blk)]
        op_min = min_eig_hermitian(mw)
        gram_min = kernel_is_psd(gamma_kernel(F, r, max_len), tol).min_eig
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
        self.symbol = MultiToeplitzSymbol(
            symbol.n, symbol.e_dim, {k: v for k, v in symbol.items() if np.any(v != 0)})
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
    def vacuum_state(n: Iterable[int]) -> "CbMapData":
        return CbMapData(MultiToeplitzSymbol(n, 1), unit=np.eye(1))

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
    def from_isometries(V: Sequence[Sequence[np.ndarray]], w: np.ndarray,
                        max_total_len: int) -> "CbMapData":
        """Compression data of a row-isometry tuple: the value at (a, b) is
        W* V_{a~}* V_{b~} W; completely positive by construction."""
        return CbMapData(from_row_isometries(V, w, max_total_len),
                         max_total_len=max_total_len)

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


def mu_r_scale(mu: CbMapData, r: float) -> CbMapData:
    """The map data of the r-scaled family: its symbol scaled by r."""
    return CbMapData(mu.symbol.scaled(r), herglotz_class=mu.herglotz_class,
                     coeff_bound=mu.coeff_bound, max_total_len=mu.max_total_len,
                     per_factor_cap=mu.per_factor_cap)


def nu_of(F: MultiToeplitzSymbol, r: float) -> CbMapData:
    """The linear-map data of the r-scaled function: coefficientwise
    r^(|a|+|b|) scaling of the symbol."""
    return CbMapData(F.scaled(r))


def nu_trace_form(F: MultiToeplitzSymbol, r: float, trunc: FockTruncation,
                  a: MultiWord) -> np.ndarray:
    """Radial-function extraction of the annihilation-monomial value: pair
    the function at the scaled right creations against the vacuum state after
    multiplying by the adjoint creation word.  R_a* maps the basis vector
    R_a e_vac to the vacuum and every other one off it, so the value is the
    block of the function at (R_a e_vac, vacuum), read directly; zero when a
    does not fit the truncation."""
    g = identity_multiword(F.n)
    e = F.e_dim
    v = trunc.vacuum_index
    src, dst = monomial_indices(trunc, a, g, side="right")
    hit = dst[src == v]
    if hit.size == 0:
        return np.zeros((e, e), dtype=complex)
    phi = symbol_operator(F, trunc, r, side="right").dense()
    return phi.reshape(trunc.dim, e, trunc.dim, e)[hit[0], :, v, :].copy()


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
    """Resolvent-product pairing; only annihilation-monomial values are read."""
    if X.n != mu.n:
        raise ValueError(f"point shape {X.n} does not match map shape {mu.n}")
    tail = _transform_tail(mu, X, holomorphic=True)
    he = X.h_dim * mu.e_dim
    out = np.zeros((he, he), dtype=complex)
    for (a, b), v in mu.symbol.items():
        if not b.is_identity:
            continue
        out += np.kron(X.monomial(a), v)
    return TransformResult(out, tail)


def herglotz_transform(mu: CbMapData, X: PolyballPoint) -> TransformResult:
    """Twice the resolvent pairing minus the unit."""
    f = fantappie_transform(mu, X)
    value = 2.0 * f.value - np.kron(np.eye(X.h_dim, dtype=complex), mu.unit)
    return TransformResult(value, 2.0 * f.tail_bound)
