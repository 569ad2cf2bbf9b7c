"""Pluriharmonic functions as Fourier symbols, the Schur-type positivity
test, the structure construction from commuting row isometries, and the
Poisson / Fantappie / Herglotz transforms of linear maps on the
right-creation operator system.

A pluriharmonic function is identified with its finitely supported symbol.
A linear map on the operator system is stored through its values on the
quotient index monomials only (these span the system); the Herglotz class is
a declared zero-pattern validated at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._linalg import min_eig_hermitian
from .berezin import DivergenceError, PolyballPoint, dropped_shell_mass
from .fock import FockTruncation, monomial_indices
from .naimark import ToeplitzKernel, kernel_from_generator, kernel_is_psd, word_columns
from .toeplitz import MultiToeplitzSymbol, SymbolKey, evaluate_symbol, symbol_operator
from .words import (
    MultiWord,
    identity_multiword,
    lambda_membership,
    lambda_pairs_up_to_total,
    lambda_pairs_within_degrees,
)


class PluriharmonicFunction:
    """A free pluriharmonic function is its symbol."""

    def __init__(self, symbol: MultiToeplitzSymbol):
        self.symbol = symbol

    @property
    def n(self) -> tuple[int, ...]:
        return self.symbol.n

    @property
    def e_dim(self) -> int:
        return self.symbol.e_dim

    def evaluate(self, X: PolyballPoint) -> np.ndarray:
        return evaluate_symbol(self.symbol, X)

    def at_creations(self, trunc: FockTruncation, r: float = 1.0):
        return symbol_operator(self.symbol, trunc, r)

    def constant_coefficient(self) -> np.ndarray:
        g = identity_multiword(self.n)
        return self.symbol.coeff(g, g)

    def imaginary_part_at_zero(self) -> np.ndarray:
        a = self.constant_coefficient()
        return (a - a.conj().T) / 2j

    @staticmethod
    def constant(n: Iterable[int], matrix) -> "PluriharmonicFunction":
        return PluriharmonicFunction(MultiToeplitzSymbol.constant(n, matrix))


def from_row_isometries(V: Sequence[Sequence[np.ndarray]], e_basis: np.ndarray,
                        max_total_len: int,
                        commutation_tol: float = 1e-8) -> PluriharmonicFunction:
    """Symbol with coefficients P_E V_{a~}* V_{b~} |_E over index pairs of
    total length <= max_total_len.

    V must be a tuple of cross-factor commuting row operators; the
    commutation defect is validated against ``commutation_tol``.  The columns
    V_w E come from ``naimark.word_columns``, as for the kernels of isometries.
    """
    e_basis = np.asarray(e_basis, dtype=complex)
    n = tuple(len(row) for row in V)
    for i in range(len(V)):
        for i2 in range(i + 1, len(V)):
            for a in V[i]:
                for b in V[i2]:
                    d = float(np.max(np.abs(a @ b - b @ a)))
                    if d > commutation_tol:
                        raise ValueError(
                            f"factors {i + 1} and {i2 + 1} do not commute (defect {d:.3e})"
                        )
    cols = word_columns(lambda i, j, m: V[i - 1][j - 1] @ m, e_basis, n, max_total_len)
    sym = MultiToeplitzSymbol(n, e_basis.shape[1])
    for a, b in lambda_pairs_up_to_total(n, max_total_len):
        c = cols[a.reverse()].conj().T @ cols[b.reverse()]
        if np.max(np.abs(c)) > 0:
            sym[a, b] = c
    return PluriharmonicFunction(sym)


# ---------------------------------------------------------------------------
# Schur-type positivity


def gamma_kernel(F: PluriharmonicFunction, r: float, max_len: int) -> ToeplitzKernel:
    """Right kernel of the r-scaled function: the entry at a comparable pair
    is the r-scaled coefficient at the comparability quotients."""
    if not F.symbol.is_hermitian_symmetric(1e-9):
        raise ValueError("gamma kernel requires a Hermitian-symmetric symbol")
    n = F.n
    gen: dict[SymbolKey, np.ndarray] = {}
    scaled = F.symbol.scaled(r)
    for a, b in lambda_pairs_up_to_total(n, 2 * max_len):
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


def schur_positivity(F: PluriharmonicFunction, r_grid: Iterable[float],
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
        m = F.at_creations(trunc, r).dense()
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
    """Values of a linear map on the quotient index monomials.

    ``values[(a, b)]`` is the image of the monomial pairing the reversed
    words a, b (adjoint side first); the unit entry is kept in sync with the
    key at the pair of unit words.  ``herglotz_class`` declares the
    annihilation/creation-only zero pattern and is validated.
    ``coeff_bound`` (optional) is a sup bound on the coefficients of the
    underlying infinite family, used for tail bounds of truncated series.
    """

    def __init__(self, n: Iterable[int], e_dim: int,
                 values: Mapping[SymbolKey, np.ndarray] | None = None,
                 unit: np.ndarray | None = None,
                 herglotz_class: bool = False,
                 coeff_bound: float | None = None,
                 max_total_len: int | None = None,
                 per_factor_cap: tuple[int, ...] | None = None):
        self.n = tuple(int(x) for x in n)
        self.e_dim = int(e_dim)
        self.values: dict[SymbolKey, np.ndarray] = {}
        for (a, b), v in (values or {}).items():
            if not lambda_membership(a, b):
                raise ValueError(f"({a!r}; {b!r}) is not a quotient index pair")
            v = np.asarray(v, dtype=complex)
            if v.shape != (self.e_dim, self.e_dim):
                raise ValueError("value shape mismatch")
            if np.any(v != 0):
                self.values[(a, b)] = v
        g = identity_multiword(self.n)
        if unit is not None:
            self.values[(g, g)] = np.asarray(unit, dtype=complex)
        self.unit = self.values.get((g, g), np.zeros((self.e_dim, self.e_dim), dtype=complex))
        if np.max(np.abs(self.unit - self.unit.conj().T)) > 1e-10:
            raise ValueError("unit value must be Hermitian")
        self.herglotz_class = bool(herglotz_class)
        if self.herglotz_class:
            for (a, b), v in self.values.items():
                if not a.is_identity and not b.is_identity and np.max(np.abs(v)) > 0:
                    raise ValueError(
                        f"declared Herglotz class but value at ({a!r}; {b!r}) is nonzero"
                    )
        self.coeff_bound = coeff_bound
        self.max_total_len = (
            max_total_len
            if max_total_len is not None
            else max((a.total_length + b.total_length for a, b in self.values), default=0)
        )
        self.per_factor_cap = per_factor_cap

    def value(self, a: MultiWord, b: MultiWord) -> np.ndarray:
        return self.values.get((a, b), np.zeros((self.e_dim, self.e_dim), dtype=complex))

    def to_symbol(self) -> MultiToeplitzSymbol:
        return MultiToeplitzSymbol(self.n, self.e_dim, self.values)

    def selfadjoint_defect(self) -> float:
        worst = 0.0
        for (a, b), v in self.values.items():
            worst = max(worst, float(np.max(np.abs(v - self.value(b, a).conj().T))))
        return worst

    # -- constructors --------------------------------------------------------

    @staticmethod
    def vacuum_state(n: Iterable[int]) -> "CbMapData":
        n = tuple(n)
        return CbMapData(n, 1, unit=np.eye(1))

    @staticmethod
    def point_mass(zeta: Sequence[complex], max_len: int) -> "CbMapData":
        """State pairing against the boundary point zeta (single-generator
        factors): the monomial value is the matching power of zeta.
        Truncated at per-factor degree max_len."""
        n = tuple(1 for _ in zeta)
        vals = {}
        for a, b in lambda_pairs_within_degrees(n, [max_len] * len(n)):
            v = 1.0 + 0j
            for zi, ai, bi in zip(zeta, a.parts, b.parts):
                v *= zi ** (len(bi) - len(ai))
            vals[(a, b)] = np.array([[v]])
        return CbMapData(n, 1, vals, herglotz_class=False, coeff_bound=1.0,
                         per_factor_cap=tuple(max_len for _ in n))

    @staticmethod
    def from_isometries(V: Sequence[Sequence[np.ndarray]], w: np.ndarray,
                        max_total_len: int) -> "CbMapData":
        """Compression data of a row-isometry tuple: the value at (a, b) is
        W* V_{a~}* V_{b~} W; completely positive by construction."""
        f = from_row_isometries(V, w, max_total_len)
        return CbMapData(f.n, f.e_dim, f.symbol.coeffs, max_total_len=max_total_len)

    @staticmethod
    def from_holomorphic(sym: MultiToeplitzSymbol, scale: float = 1.0) -> "CbMapData":
        """Herglotz-class data matched to a holomorphic symbol: annihilation
        monomials carry half the creation coefficients, scaled down by
        scale^len; the unit carries the Hermitian part of the constant."""
        g = identity_multiword(sym.n)
        vals: dict[SymbolKey, np.ndarray] = {}
        for (a, b), c in sym.items():
            if not b.is_identity:
                raise ValueError("from_holomorphic needs a creation-only symbol")
            if a.is_identity:
                continue
            vals[(a, g)] = 0.5 * c / scale ** a.total_length
            vals[(g, a)] = 0.5 * c.conj().T / scale ** a.total_length
        a0 = sym.coeff(g, g)
        return CbMapData(sym.n, sym.e_dim, vals, unit=0.5 * (a0 + a0.conj().T),
                         herglotz_class=True)


def mu_r_scale(mu: CbMapData, r: float) -> CbMapData:
    """The map data of the r-scaled family: its symbol scaled by r."""
    return CbMapData(mu.n, mu.e_dim, mu.to_symbol().scaled(r).coeffs,
                     herglotz_class=mu.herglotz_class, coeff_bound=mu.coeff_bound,
                     max_total_len=mu.max_total_len, per_factor_cap=mu.per_factor_cap)


def nu_of(F: PluriharmonicFunction, r: float) -> CbMapData:
    """The linear-map data of the r-scaled function: coefficientwise
    r^(|a|+|b|) scaling of the symbol."""
    return CbMapData(F.n, F.e_dim, F.symbol.scaled(r).coeffs)


def nu_trace_form(F: PluriharmonicFunction, r: float, trunc: FockTruncation,
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
    phi = symbol_operator(F.symbol, trunc, r, side="right").dense()
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


def poisson_transform(mu: CbMapData, X: PolyballPoint,
                      require_tail: float | None = None) -> TransformResult:
    """Pair the map against the pluriharmonic Poisson kernel: the sum of
    value (x) X_a X_b* over the stored index pairs."""
    if X.n != mu.n:
        raise ValueError(f"point shape {X.n} does not match map shape {mu.n}")
    tail = _transform_tail(mu, X, holomorphic=False)
    if require_tail is not None and tail > require_tail:
        raise DivergenceError(f"tail bound {tail:.3e} exceeds {require_tail:.3e}")
    return TransformResult(evaluate_symbol(mu.to_symbol(), X), tail)


def fantappie_transform(mu: CbMapData, X: PolyballPoint,
                        require_tail: float | None = None) -> TransformResult:
    """Resolvent-product pairing; only annihilation-monomial values are read."""
    if X.n != mu.n:
        raise ValueError(f"point shape {X.n} does not match map shape {mu.n}")
    tail = _transform_tail(mu, X, holomorphic=True)
    if require_tail is not None and tail > require_tail:
        raise DivergenceError(f"tail bound {tail:.3e} exceeds {require_tail:.3e}")
    g = identity_multiword(mu.n)
    he = X.h_dim * mu.e_dim
    out = np.zeros((he, he), dtype=complex)
    for (a, b), v in mu.values.items():
        if not b.is_identity:
            continue
        out += np.kron(X.monomial(a), v)
    return TransformResult(out, tail)


def herglotz_transform(mu: CbMapData, X: PolyballPoint,
                       require_tail: float | None = None) -> TransformResult:
    """Twice the resolvent pairing minus the unit."""
    f = fantappie_transform(mu, X, require_tail=None)
    tail = 2.0 * f.tail_bound
    if require_tail is not None and tail > require_tail:
        raise DivergenceError(f"tail bound {tail:.3e} exceeds {require_tail:.3e}")
    value = 2.0 * f.value - np.kron(np.eye(X.h_dim, dtype=complex), mu.unit)
    return TransformResult(value, tail)
