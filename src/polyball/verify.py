"""Cross-module identity suite behind the ``verify`` command.

Every item checks one structural identity at the configured shape, yields
the errors it computes, and draws all randomness from the configured seed, so
reports are reproducible.  ``run_item`` is the one fold: an item's
``max_error`` is the largest error it computed (0 when it computed none),
checked against the item's stated tolerance, and a NaN error makes it NaN,
which fails.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .berezin import (
    GramFactor,
    PolyballPoint,
    berezin_kernel,
    berezin_transform,
    cauchy_operator,
    creation_point,
    defect,
    dropped_shell_mass,
    pair_transforms,
    poisson_window,
    spectral_radius,
)
from .fock import (
    FockTruncation,
    apply_creation,
    creation_matrix,
    creation_tuple,
    word_operator,
)
from .naimark import KernelNotPSDError, dilation_verify, kernel_is_psd, naimark_dilate
from .pluriharm import (
    CbMapData,
    herglotz_transform,
    nu_trace_form,
    poisson_transform,
    schur_positivity,
    universal_compression,
)
from .sampling import (
    random_creation_polynomial,
    random_embedding,
    random_hermitian_symbol,
    random_nilpotent_point,
    random_non_psd_kernel,
    random_point,
    random_psd_kernel,
)
from .toeplitz import (
    MultiToeplitzSymbol,
    creation_pair_symbol,
    extract_symbol,
    is_k_multi_toeplitz,
    norm_on_grid,
    symbol_operator,
)
from .words import (
    compare,
    identity_multiword,
    lambda_membership,
    lambda_pairs_up_to_total,
    multiwords_up_to_total,
)


@dataclass
class RunConfig:
    n: tuple[int, ...] = (2, 1)
    degrees: tuple[int, ...] = (3, 3)
    max_len: int = 3
    tol: float = 1e-8
    rank_tol: float = 1e-10
    seed: int = 0
    r_grid: tuple[float, ...] = (0.3, 0.6, 0.9)
    output: str | None = None

    def validate(self) -> None:
        if len(self.n) != len(self.degrees):
            raise ValueError("n and degrees must have the same length")
        if len(self.n) < 1 or any(ni < 1 for ni in self.n):
            raise ValueError("each factor needs at least one generator")
        if any(d < 1 for d in self.degrees):
            raise ValueError("degenerate truncation: every degree must be >= 1")
        if not all(math.isfinite(t) and t > 0 for t in (self.tol, self.rank_tol)):
            raise ValueError("tolerances must be finite and positive")
        if any(not (0.0 <= r < 1.0) for r in self.r_grid):
            raise ValueError("r grid must lie in [0, 1)")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


@dataclass
class IdentityResult:
    name: str
    anchor: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _rng(cfg: RunConfig, salt: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, salt])


def _randn_column(rng, dim):
    return rng.standard_normal((dim, 1)) + 1j * rng.standard_normal((dim, 1))


# --- individual identities: each yields its errors, run_item folds them ----


def _id_words_reversal(cfg: RunConfig, rng) -> Iterator[float]:
    n = (2, 1) if len(cfg.n) > 1 else (2,)
    words = multiwords_up_to_total(n, 4)
    for w, v in itertools.product(words, words):
        if w.total_length + v.total_length > 4:
            continue
        right = compare("right", w, v)
        left = compare("left", w.reverse(), v.reverse())
        yield float(right.comparable != left.comparable)
        if right.comparable:
            yield float(left.c_plus != right.c_plus.reverse()
                        or left.c_minus != right.c_minus.reverse())
            # brute-force oracle: per factor some s with w = s.v or v = s.w
            for wi, vi, pi, mi in zip(w.parts, v.parts, right.c_plus.parts, right.c_minus.parts):
                ok = (
                    (pi.letters + vi.letters == wi.letters and mi.is_identity)
                    or (mi.letters + wi.letters == vi.letters and pi.is_identity)
                )
                yield float(not ok)


def _id_words_lambda(cfg: RunConfig, rng) -> Iterator[float]:
    n = (2, 1) if len(cfg.n) > 1 else (2,)
    words = multiwords_up_to_total(n, 3)
    for a, b in itertools.product(words, words):
        memb = lambda_membership(a, b)
        yield float(memb != lambda_membership(a.reverse(), b.reverse()))
        direct = all(ai.is_identity or bi.is_identity for ai, bi in zip(a.parts, b.parts))
        yield float(memb != direct)
        if memb:
            c = compare("left", a, b)
            yield float(not (c.comparable and c.c_plus == a and c.c_minus == b))


def _window_max(m, window: np.ndarray) -> float:
    """Largest |entry| of the sparse m on window x window."""
    c = m.tocoo()
    inside = window[c.row] & window[c.col]
    return float(np.max(np.abs(c.data[inside]), initial=0.0))


def _id_fock_isometry(cfg: RunConfig, rng) -> Iterator[float]:
    import scipy.sparse as sp

    trunc = FockTruncation(cfg.n, cfg.degrees)
    mask = trunc.window_mask([1] * trunc.k)
    eye = sp.eye(trunc.dim, dtype=complex, format="csr")
    for row in creation_tuple(trunc):
        for (s, a), (t, b) in itertools.product(enumerate(row), repeat=2):
            m = a.conj().T @ b
            yield _window_max(m - eye if s == t else m, mask)


def _id_fock_commutation(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    mask = trunc.window_mask([1] * trunc.k)
    smats, rmats = ({(i, j): m for i, row in enumerate(creation_tuple(trunc, side), 1)
                     for j, m in enumerate(row, 1)} for side in ("left", "right"))

    def commutator_max(a, b, window):
        return _window_max(a @ b - b @ a, window)

    for (i, j), (i2, j2) in itertools.product(smats, repeat=2):
        if i != i2:
            yield commutator_max(smats[(i, j)], smats[(i2, j2)], mask)
            yield commutator_max(rmats[(i, j)], rmats[(i2, j2)], mask)
        if i != i2 or trunc.k == 1:
            yield commutator_max(smats[(i, j)], rmats[(i2, j2)], mask)
    # same-factor left/right commutation holds away from short words
    if all(d >= 2 for d in trunc.degrees):
        deep = mask & ~trunc.total_length_mask(0)
        for key in smats:
            yield commutator_max(smats[key], rmats[key], deep)


def _id_fock_adjoint(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    for side in ("left", "right"):
        for i, row in enumerate(creation_tuple(trunc, side), 1):
            for j, m in enumerate(row, 1):
                ma = creation_matrix(trunc, side, i, j, adjoint=True)
                yield abs(ma - m.conj().T).max()
                # matrix-free application agrees with the matrix
                v = _randn_column(rng, trunc.dim)
                w = apply_creation(trunc, side, i, j, False, v)
                yield np.max(np.abs(w[:, 0] - m @ v[:, 0]))


def _id_fock_cyclicity(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    # a CSC letter's column holds at most one 1: the image of that basis vector
    letters = [s.tocsc() for row in creation_tuple(trunc) for s in row]
    seen = np.zeros(trunc.dim, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        nxt = []
        for s in letters:
            images = s[:, frontier]
            fresh = np.flatnonzero(np.diff(images.indptr))  # columns with an image
            targets = images.indices[images.indptr[fresh]]
            targets = targets[~seen[targets]]
            seen[targets] = True
            nxt.append(targets)
        frontier = np.concatenate(nxt)
    # the reached vectors are distinct basis vectors, so their span has
    # dimension #reached: the rank deficit is the count of unreached ones
    yield trunc.dim - np.count_nonzero(seen)


def _id_toeplitz_membership(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    pairs = lambda_pairs_up_to_total(trunc.n, min(cfg.max_len, min(cfg.degrees)))
    for a, b in pairs[:20]:
        yield is_k_multi_toeplitz(word_operator(trunc, a, b), tol=1e-12).max_violation
    for _ in range(3):
        p = random_creation_polynomial(rng, trunc.n, 2, 3)
        q = random_creation_polynomial(rng, trunc.n, 2, 3)
        sym = creation_pair_symbol(p, q, trunc.n)
        yield is_k_multi_toeplitz(symbol_operator(sym, trunc), tol=1e-12).max_violation


def _id_toeplitz_roundtrip(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    cap = min(cfg.max_len, min(cfg.degrees))
    for _ in range(5):
        sym = random_hermitian_symbol(rng, cfg.n, 2, cap, density=0.4)
        op = symbol_operator(sym, trunc)
        yield sym.max_difference(extract_symbol(op, cap))


def _id_toeplitz_monotone(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    sym = random_hermitian_symbol(rng, cfg.n, 1, min(cfg.max_len, min(cfg.degrees)))
    norms = norm_on_grid(sym, trunc, sorted(set(cfg.r_grid) | {0.1, 0.5}))
    for lower, upper in zip(norms, norms[1:]):
        yield lower - upper


def _id_berezin_isometry(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, [max(d, 3) for d in cfg.degrees])
    for _ in range(5):
        x = random_nilpotent_point(rng, cfg.n, 3, 0.9)
        k = berezin_kernel(x, trunc)
        g = k.matrix.conj().T @ k.matrix
        yield np.max(np.abs(g - np.eye(x.h_dim)))


def _id_berezin_intertwining(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, [max(d, 3) for d in cfg.degrees])
    letters = creation_tuple(trunc)
    for _ in range(3):
        x = random_nilpotent_point(rng, cfg.n, 3, 0.9)
        k = berezin_kernel(x, trunc)
        for i, row in enumerate(letters, 1):
            for j, sm in enumerate(row, 1):
                lhs = k.matrix @ x.entry(i, j).conj().T
                rhs = (sm.conj().T @ k.matrix.reshape(trunc.dim, -1)).reshape(k.matrix.shape)
                yield np.max(np.abs(lhs - rhs))


def _id_berezin_moment(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, [max(d, 4) for d in cfg.degrees])
    pairs = lambda_pairs_up_to_total(trunc.n, 3)
    # S_a S_b* is the left pairing at (b~, a~); a and b index the monomial table
    pids = np.array([trunc.pair_id(b.reverse(), a.reverse()) for a, b in pairs], dtype=np.int64)
    a_idx = np.array([trunc.basis_index(a) for a, _ in pairs])
    b_idx = np.array([trunc.basis_index(b) for _, b in pairs])
    for _ in range(3):
        x = random_point(rng, cfg.n, 2, 0.6)
        k = berezin_kernel(x, trunc)
        bound = max(cfg.tol, 2.0 * k.tail_bound + k.tail_bound ** 2)
        table = x.monomial_table(trunc)
        want = table[a_idx] @ table[b_idx].conj().transpose(0, 2, 1)
        yield np.max(np.abs(pair_transforms(k.as_tensor(), pids, trunc) - want)) - bound


def _id_berezin_cp(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    for _ in range(3):
        x = random_point(rng, cfg.n, 2, 0.6)
        # a thin factor gives a PSD g = raw raw^H, applied in O(dim r) per column;
        # r = 8 >= h_dim makes its transform almost surely positive definite
        raw = rng.standard_normal((trunc.dim, 8)) + 1j * rng.standard_normal((trunc.dim, 8))
        out = berezin_transform(GramFactor(raw), x, trunc=trunc)
        # max diag <= ||out||: never loosens the 1e-12 tolerance; none positive fails
        scale = float(np.max(out.diagonal().real))
        yield -la.min_eig_hermitian(out / scale) if scale > 0 else 1.0


FACTORIZATION_ALLOWANCE = 32
"""Rounding allowance of ``berezin.poisson_factorization``, in units of
eps ||Delta|| M, with M = prod_i 1 / (1 - rho_i^2) the mass of every word
shell: ||Delta|| M bounds the terms summed into each entry of C^H C and each
bound, and is at least 1 (sum_s X_s Delta X_s* = I), so it also covers P's
entries, of norm at most 1.  Where the bound is attained, the entries and the
bound differ by rounding alone: at most 12.8 of these units over 2,160
random points (row norms up to 0.9, h up to 3, nilpotent and zero points
included) and every room of six shapes."""


def _id_berezin_factorization(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    # rooms b with b_i >= ceil(d_i / 2); every window nests in the largest one
    low = [(d + 1) // 2 for d in trunc.degrees]
    window = trunc.window_mask(low)
    rooms = list(itertools.product(*(range(b, d + 1) for b, d in zip(low, trunc.degrees))))
    room_masks = [trunc.window_mask(room)[window] for room in rooms]
    for _ in range(3):
        x = random_point(rng, cfg.n, 2, 0.5)
        h = x.h_dim
        # C gathered on the window's columns only: C_W^H C_W is the window of C^H C
        c = cauchy_operator(trunc, x, columns=window).matrix
        diff = poisson_window(x, trunc, window) - (c.conj().T @ c).toarray()
        dnorm = la.opnorm(defect(x))
        rho2 = [r * r for r in x.row_norms()]
        mass = math.prod(1.0 / (1.0 - q) for q in rho2)
        allowance = FACTORIZATION_ALLOWANCE * np.finfo(float).eps * dnorm * mass
        for room, mask in zip(rooms, room_masks):
            keep = np.repeat(mask, h)
            err = np.abs(diff[np.ix_(keep, keep)]).max()
            # each dropped word shell of lengths m costs at most ||Delta|| prod rho_i^(2 m_i)
            bound = dnorm * dropped_shell_mass(rho2, pairs=False, box=room)
            yield err / (bound + allowance)


def _id_berezin_defect_order(cfg: RunConfig, rng) -> Iterator[float]:
    for _ in range(5):
        x = random_point(rng, cfg.n, 3, 0.7)
        if x.k == 1:
            continue
        y = PolyballPoint(list(reversed(x.X)))
        yield np.max(np.abs(defect(x) - defect(y)))


def _id_berezin_radius(cfg: RunConfig, rng) -> Iterator[float]:
    yield abs(spectral_radius(PolyballPoint.from_scalars([[0.3, 0.4]]), 8).value - 0.5)
    t = FockTruncation([2], [4])
    yield abs(spectral_radius(creation_point(t, 0.7), 8).value - 0.7)
    x = random_point(rng, cfg.n, 2, 0.6)
    yield spectral_radius(x, 6).value - max(x.row_norms())


def _id_naimark_reproduction(cfg: RunConfig, rng) -> Iterator[float]:
    for side in ("left", "right"):
        for _ in range(2):
            k = random_psd_kernel(rng, side, cfg.n, 2, cfg.max_len)
            d = naimark_dilate(k, rank_tol=cfg.rank_tol)
            rep = dilation_verify(d, k, rank_tol=cfg.rank_tol)
            yield rep.max_defect
            yield float(not rep.minimal)


def _id_naimark_refusal(cfg: RunConfig, rng) -> Iterator[float]:
    for _ in range(3):
        k = random_non_psd_kernel(rng, "left", cfg.n, 2, max(cfg.max_len, 2))
        yield float(kernel_is_psd(k).psd)
        try:
            naimark_dilate(k, rank_tol=cfg.rank_tol)
        except KernelNotPSDError:
            continue
        yield 1.0  # dilated a non-PSD kernel


def _id_schur(cfg: RunConfig, rng) -> Iterator[float]:
    for _ in range(5):
        sym = random_hermitian_symbol(rng, cfg.n, 2, min(3, cfg.max_len), density=0.5)
        rep = schur_positivity(sym, cfg.r_grid, cfg.max_len, cfg.tol)
        for p in rep.points:
            yield float(not p.agree)
            yield abs(p.operator_min_eig - p.gram_min_eig)


def _id_structure_positive(cfg: RunConfig, rng) -> Iterator[float]:
    trunc = FockTruncation(cfg.n, [2 * cfg.max_len] * len(cfg.n))
    f = universal_compression(trunc, "right", random_embedding(rng, trunc, 2), cfg.max_len)
    rep = schur_positivity(f, cfg.r_grid, cfg.max_len, cfg.tol)
    yield float(not (rep.positive and rep.all_agree))
    for p in rep.points:
        yield -min(p.operator_min_eig, p.gram_min_eig)


def _id_poisson_transform_cp(cfg: RunConfig, rng) -> Iterator[float]:
    h_dim = 3
    cap = 2 * (h_dim - 1)  # point monomials vanish beyond the nilpotency index
    depth = cap + 1
    trunc = FockTruncation(cfg.n, [depth] * len(cfg.n))
    w = random_embedding(rng, trunc, 2)
    mu = CbMapData(universal_compression(trunc, "right", w, cap), max_total_len=cap)
    for _ in range(2):
        x = random_nilpotent_point(rng, cfg.n, h_dim, 0.8)
        val = poisson_transform(mu, x).value
        yield -la.min_eig_hermitian(val)
        # the resolvent lives on V (x) H; only its columns on W (x) H are read
        cw = cauchy_operator(trunc, x, rhs=np.kron(w, np.eye(x.h_dim))).matrix
        sandwich = cw.conj().T @ cw
        yield np.max(np.abs(_eh_to_he(sandwich, x.h_dim, 2) - val))


def _eh_to_he(m: np.ndarray, h: int, e: int) -> np.ndarray:
    t = m.reshape(e, h, e, h)
    return t.transpose(1, 0, 3, 2).reshape(h * e, h * e)


def _id_herglotz_realpart(cfg: RunConfig, rng) -> Iterator[float]:
    g = identity_multiword(cfg.n)
    sym = MultiToeplitzSymbol(cfg.n, 2)
    sym[g, g] = np.eye(2)
    for a, _ in lambda_pairs_up_to_total(cfg.n, 2):
        if not a.is_identity:
            sym[a, g] = 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    mu = CbMapData.from_holomorphic(sym)
    for _ in range(3):
        x = random_point(rng, cfg.n, 2, 0.5)
        h = herglotz_transform(mu, x).value
        p = poisson_transform(mu, x).value
        yield np.max(np.abs(0.5 * (h + h.conj().T) - p))


def _id_nu_roundtrip(cfg: RunConfig, rng) -> Iterator[float]:
    cap = min(cfg.max_len, min(cfg.degrees))
    trunc = FockTruncation(cfg.n, cfg.degrees)
    sym = random_hermitian_symbol(rng, cfg.n, 1, cap, density=0.6)
    g = identity_multiword(cfg.n)
    words = [a for a, b in sym.coeffs if b.is_identity]
    for r in cfg.r_grid:
        scaled = sym.scaled(r)
        for a, got in zip(words, nu_trace_form(sym, r, trunc, words)):
            yield np.max(np.abs(got - scaled.coeff(a, g)))


# (name, anchor, tolerance, errors); a row's position salts its random draws,
# and the tolerance None is the run's --tol
_IDENTITIES = [
    ("words.comparability_reversal",
     "reversal intertwines word comparability and its quotients", 0.0, _id_words_reversal),
    ("words.lambda_membership",
     "index-pair membership is reversal invariant and a comparability fixed point", 0.0,
     _id_words_lambda),
    ("fock.isometry_on_window",
     "creation letters are isometries with orthogonal ranges on the window", 1e-12,
     _id_fock_isometry),
    ("fock.cross_factor_commutation",
     "creations on distinct factors commute on the window (left, right, mixed)", 1e-12,
     _id_fock_commutation),
    ("fock.adjoint_consistency",
     "adjoint creation matrices are conjugate transposes; applications match matrices", 1e-12,
     _id_fock_adjoint),
    ("fock.vacuum_cyclicity",
     "left creations applied to the vacuum span the truncation", 0.0, _id_fock_cyclicity),
    ("toeplitz.membership",
     "word monomials and adjoint-polynomial products are multi-Toeplitz", 1e-11,
     _id_toeplitz_membership),
    ("toeplitz.fourier_roundtrip",
     "symbols are recovered exactly from their operators", 1e-11, _id_toeplitz_roundtrip),
    ("toeplitz.norm_monotonicity",
     "symbol norms at scaled creations are nondecreasing in the scale", 1e-9,
     _id_toeplitz_monotone),
    ("berezin.kernel_isometry",
     "the kernel of a jointly nilpotent point is an isometry", 1e-10, _id_berezin_isometry),
    ("berezin.intertwining",
     "the kernel intertwines adjoint creations with the point adjoints", 1e-10,
     _id_berezin_intertwining),
    ("berezin.moment_identity",
     "the transform sends creation monomials to point monomials within the tail", 0.0,
     _id_berezin_moment),
    ("berezin.complete_positivity",
     "the transform of a PSD operator is PSD", 1e-12, _id_berezin_cp),
    ("berezin.poisson_factorization",
     "on every room-graded window the Poisson kernel is the resolvent square "
     "up to the dropped word shells", 1.0, _id_berezin_factorization),
    ("berezin.defect_factor_order",
     "the defect is unchanged under permuting the factor maps", 1e-10, _id_berezin_defect_order),
    ("berezin.spectral_radius",
     "the joint spectral radius matches closed forms and the row-norm bound", 1e-9,
     _id_berezin_radius),
    ("naimark.dilation_reproduction",
     "PSD kernels dilate to commuting row isometries reproducing them on the window", 1e-8,
     _id_naimark_reproduction),
    ("naimark.psd_refusal",
     "non-PSD kernels are refused by the dilation", 0.0, _id_naimark_refusal),
    ("pluriharm.schur_equivalence",
     "the operator and kernel positivity verdicts agree on matched truncations", 1e-9, _id_schur),
    ("pluriharm.structure_positivity",
     "functions built from doubly commuting row isometries are positive", None,
     _id_structure_positive),
    ("pluriharm.poisson_transform_cp",
     "compression data transforms positively and matches the sandwiched resolvent square",
     1e-8, _id_poisson_transform_cp),
    ("pluriharm.herglotz_real_part",
     "the real part of the Herglotz transform is the Poisson transform", 1e-10,
     _id_herglotz_realpart),
    ("pluriharm.nu_roundtrip",
     "the radial-map data scales coefficientwise and matches the trace-form extraction", 1e-10,
     _id_nu_roundtrip),
]
_ROW = {name: idx for idx, (name, *_) in enumerate(_IDENTITIES)}


def run_item(name: str, cfg: RunConfig) -> IdentityResult:
    """Runs one item on the draws salted by its row and folds the errors it yields.

    The figure is Python's ``max(0.0, *errors)``, so 0.0 when the item
    computed none, except that a NaN error makes it NaN for good (nothing
    compares above a NaN), and a NaN fails every tolerance.
    """
    cfg.validate()
    idx = _ROW[name]
    _, anchor, tol, errors = _IDENTITIES[idx]
    worst = 0.0
    for err in errors(cfg, _rng(cfg, idx)):
        if err > worst or math.isnan(err):
            worst = err
    return IdentityResult(name, anchor, float(worst), float(cfg.tol if tol is None else tol))


def verify_suite(cfg: RunConfig) -> list[IdentityResult]:
    return [run_item(name, cfg) for name, *_ in _IDENTITIES]
