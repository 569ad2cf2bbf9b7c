"""Cross-module identity suite behind the ``verify`` command.

Every item checks one structural identity at the configured shape, reports
its worst error against a stated tolerance, and draws all randomness from the
configured seed, so reports are reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .berezin import (
    PolyballPoint,
    berezin_kernel,
    berezin_transform,
    cauchy_operator,
    creation_point,
    defect,
    poisson_kernel,
    spectral_radius,
)
from .fock import (
    FockTruncation,
    apply_creation,
    creation_matrix,
    creation_tuple,
    word_matrix,
    word_operator,
)
from .naimark import KernelNotPSDError, dilation_verify, kernel_is_psd, naimark_dilate
from .pluriharm import (
    CbMapData,
    from_row_isometries,
    herglotz_transform,
    mu_r_scale,
    nu_of,
    nu_trace_form,
    poisson_transform,
    schur_positivity,
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


# --- individual identities --------------------------------------------------


def _id_words_reversal(cfg: RunConfig, rng) -> tuple[str, float, float]:
    worst = 0.0
    n = (2, 1) if len(cfg.n) > 1 else (2,)
    words = multiwords_up_to_total(n, 4)
    for w, v in itertools.product(words, words):
        if w.total_length + v.total_length > 4:
            continue
        right = compare("right", w, v)
        left = compare("left", w.reverse(), v.reverse())
        if right.comparable != left.comparable:
            worst = max(worst, 1.0)
        if right.comparable:
            if left.c_plus != right.c_plus.reverse() or left.c_minus != right.c_minus.reverse():
                worst = max(worst, 1.0)
            # brute-force oracle: per factor some s with w = s.v or v = s.w
            for wi, vi, pi, mi in zip(w.parts, v.parts, right.c_plus.parts, right.c_minus.parts):
                ok = (
                    (pi.letters + vi.letters == wi.letters and mi.is_identity)
                    or (mi.letters + wi.letters == vi.letters and pi.is_identity)
                )
                if not ok:
                    worst = max(worst, 1.0)
    return "reversal intertwines word comparability and its quotients", worst, 0.0


def _id_words_lambda(cfg: RunConfig, rng) -> tuple[str, float, float]:
    worst = 0.0
    n = (2, 1) if len(cfg.n) > 1 else (2,)
    words = multiwords_up_to_total(n, 3)
    for a, b in itertools.product(words, words):
        memb = lambda_membership(a, b)
        if memb != lambda_membership(a.reverse(), b.reverse()):
            worst = max(worst, 1.0)
        direct = all(ai.is_identity or bi.is_identity for ai, bi in zip(a.parts, b.parts))
        if memb != direct:
            worst = max(worst, 1.0)
        if memb:
            c = compare("left", a, b)
            if not (c.comparable and c.c_plus == a and c.c_minus == b):
                worst = max(worst, 1.0)
    return "index-pair membership is reversal invariant and a comparability fixed point", worst, 0.0


def _window_max(m, window: np.ndarray) -> float:
    """Largest |entry| of the sparse m on window x window."""
    c = m.tocoo()
    inside = window[c.row] & window[c.col]
    return float(np.max(np.abs(c.data[inside]), initial=0.0))


def _id_fock_isometry(cfg: RunConfig, rng) -> tuple[str, float, float]:
    import scipy.sparse as sp

    trunc = FockTruncation(cfg.n, cfg.degrees)
    mask = trunc.window_mask([1] * trunc.k)
    eye = sp.eye(trunc.dim, dtype=complex, format="csr")
    worst = 0.0
    for row in creation_tuple(trunc):
        for (s, a), (t, b) in itertools.product(enumerate(row), repeat=2):
            m = a.conj().T @ b
            worst = max(worst, _window_max(m - eye if s == t else m, mask))
    return "creation letters are isometries with orthogonal ranges on the window", worst, 1e-12


def _id_fock_commutation(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    mask = trunc.window_mask([1] * trunc.k)
    smats, rmats = ({(i, j): m for i, row in enumerate(creation_tuple(trunc, side), 1)
                     for j, m in enumerate(row, 1)} for side in ("left", "right"))

    def commutator_max(a, b, window):
        return _window_max(a @ b - b @ a, window)

    worst = 0.0
    for (i, j), (i2, j2) in itertools.product(smats, repeat=2):
        if i != i2:
            worst = max(worst, commutator_max(smats[(i, j)], smats[(i2, j2)], mask))
            worst = max(worst, commutator_max(rmats[(i, j)], rmats[(i2, j2)], mask))
        if i != i2 or trunc.k == 1:
            worst = max(worst, commutator_max(smats[(i, j)], rmats[(i2, j2)], mask))
    # same-factor left/right commutation holds away from short words
    if all(d >= 2 for d in trunc.degrees):
        deep = mask & ~trunc.total_length_mask(0)
        for key in smats:
            worst = max(worst, commutator_max(smats[key], rmats[key], deep))
    return "creations on distinct factors commute on the window (left, right, mixed)", worst, 1e-12


def _id_fock_adjoint(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    worst = 0.0
    for side in ("left", "right"):
        for i, ni in enumerate(trunc.n, 1):
            for j in range(1, ni + 1):
                m = creation_matrix(trunc, side, i, j)
                ma = creation_matrix(trunc, side, i, j, adjoint=True)
                worst = max(worst, float(abs(ma - m.conj().T).max()))
                # matrix-free application agrees with the matrix
                v = _randn_column(rng, trunc.dim)
                w = apply_creation(trunc, side, i, j, False, v)
                worst = max(worst, float(np.max(np.abs(w[:, 0] - m @ v[:, 0]))))
    return "adjoint creation matrices are conjugate transposes; applications match matrices", worst, 1e-12


def _id_fock_cyclicity(cfg: RunConfig, rng) -> tuple[str, float, float]:
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
    gap = trunc.dim - np.count_nonzero(seen)
    return "left creations applied to the vacuum span the truncation", float(gap), 0.0


def _id_toeplitz_membership(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    worst = 0.0
    pairs = lambda_pairs_up_to_total(trunc.n, min(cfg.max_len, min(cfg.degrees)))
    for a, b in pairs[: min(len(pairs), 20)]:
        rep = is_k_multi_toeplitz(word_operator(trunc, a, b), tol=1e-12)
        worst = max(worst, rep.max_violation)
    for _ in range(3):
        p = random_creation_polynomial(rng, trunc.n, 2, 3)
        q = random_creation_polynomial(rng, trunc.n, 2, 3)
        sym = creation_pair_symbol(p, q, trunc.n)
        rep = is_k_multi_toeplitz(symbol_operator(sym, trunc), tol=1e-12)
        worst = max(worst, rep.max_violation)
    return "word monomials and adjoint-polynomial products are multi-Toeplitz", worst, 1e-11


def _id_toeplitz_roundtrip(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    cap = min(cfg.max_len, min(cfg.degrees))
    worst = 0.0
    for _ in range(5):
        sym = random_hermitian_symbol(rng, cfg.n, 2, cap, density=0.4)
        op = symbol_operator(sym, trunc)
        back = extract_symbol(op, cap)
        worst = max(worst, sym.max_difference(back))
    return "symbols are recovered exactly from their operators", worst, 1e-11


def _id_toeplitz_monotone(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    sym = random_hermitian_symbol(rng, cfg.n, 1, min(cfg.max_len, min(cfg.degrees)))
    norms = norm_on_grid(sym, trunc, sorted(set(cfg.r_grid) | {0.1, 0.5}))
    worst = max(
        (norms[i] - norms[i + 1] for i in range(len(norms) - 1)), default=0.0
    )
    return "symbol norms at scaled creations are nondecreasing in the scale", max(worst, 0.0), 1e-9


def _id_berezin_isometry(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, [max(d, 3) for d in cfg.degrees])
    worst = 0.0
    for _ in range(5):
        x = random_nilpotent_point(rng, cfg.n, 3, 0.9)
        k = berezin_kernel(x, trunc)
        g = k.matrix.conj().T @ k.matrix
        worst = max(worst, float(np.max(np.abs(g - np.eye(x.h_dim)))))
    return "the kernel of a jointly nilpotent point is an isometry", worst, 1e-10


def _id_berezin_intertwining(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, [max(d, 3) for d in cfg.degrees])
    letters = creation_tuple(trunc)
    worst = 0.0
    for _ in range(3):
        x = random_nilpotent_point(rng, cfg.n, 3, 0.9)
        k = berezin_kernel(x, trunc)
        for i, row in enumerate(letters, 1):
            for j, sm in enumerate(row, 1):
                lhs = k.matrix @ x.entry(i, j).conj().T
                rhs = (sm.conj().T @ k.matrix.reshape(trunc.dim, -1)).reshape(k.matrix.shape)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return "the kernel intertwines adjoint creations with the point adjoints", worst, 1e-10


def _id_berezin_moment(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, [max(d, 4) for d in cfg.degrees])
    pairs = lambda_pairs_up_to_total(trunc.n, 3)
    # the compressions of S_a S_b*, as CSR, are the same for every point
    monomials = [word_matrix(trunc, a, b) for a, b in pairs]
    worst = 0.0
    for _ in range(3):
        x = random_point(rng, cfg.n, 2, 0.6)
        k = berezin_kernel(x, trunc)
        bound = max(cfg.tol, 2.0 * k.tail_bound + k.tail_bound ** 2)
        for (a, b), m in zip(pairs, monomials):
            got = berezin_transform(m, x, trunc=trunc, kernel=k)
            want = x.monomial(a) @ x.monomial(b).conj().T
            err = float(np.max(np.abs(got - want)))
            worst = max(worst, err - bound)
    return "the transform sends creation monomials to point monomials within the tail", max(worst, 0.0), 0.0


def _id_berezin_cp(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    worst = 0.0
    for _ in range(3):
        x = random_point(rng, cfg.n, 2, 0.6)
        raw = rng.standard_normal((trunc.dim, trunc.dim)) + 1j * rng.standard_normal((trunc.dim, trunc.dim))
        g = raw @ raw.conj().T
        # ||g||_F^2 / tr g <= ||g|| for a PSD g, in O(dim^2) with no eigensolve:
        # scaling by a lower bound of the norm never loosens the 1e-12 tolerance
        out = berezin_transform(g / (np.linalg.norm(g) ** 2 / np.trace(g).real), x, trunc=trunc)
        worst = max(worst, -la.min_eig_hermitian(out))
    return "the transform of a PSD operator is PSD", max(worst, 0.0), 1e-12


def _id_berezin_factorization(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, cfg.degrees)
    worst = 0.0
    for _ in range(3):
        x = random_point(rng, cfg.n, 2, 0.5)
        pk = poisson_kernel(x, trunc)
        c = cauchy_operator(trunc, x).matrix
        # P and C are CSR: both are supported on comparable word pairs
        diff = la.hermitian_norm(pk.op.matrix - c.conj().T @ c)
        worst = max(worst, diff - pk.factorization_bound)
    return "the Poisson kernel factors through the resolvent operator within the bound", max(worst, 0.0), 0.0


def _id_berezin_defect_order(cfg: RunConfig, rng) -> tuple[str, float, float]:
    worst = 0.0
    for _ in range(5):
        x = random_point(rng, cfg.n, 3, 0.7)
        if x.k == 1:
            continue
        y = PolyballPoint(list(reversed(x.X)))
        worst = max(worst, float(np.max(np.abs(defect(x) - defect(y)))))
    return "the defect is unchanged under permuting the factor maps", worst, 1e-10


def _id_berezin_radius(cfg: RunConfig, rng) -> tuple[str, float, float]:
    sr = spectral_radius(PolyballPoint.from_scalars([[0.3, 0.4]]), 8)
    worst = abs(sr.value - 0.5)
    t = FockTruncation([2], [4])
    sr2 = spectral_radius(creation_point(t, 0.7), 8)
    worst = max(worst, abs(sr2.value - 0.7))
    x = random_point(rng, cfg.n, 2, 0.6)
    worst = max(worst, max(spectral_radius(x, 6).value - max(x.row_norms()), 0.0))
    return "the joint spectral radius matches closed forms and the row-norm bound", worst, 1e-9


def _id_naimark_reproduction(cfg: RunConfig, rng) -> tuple[str, float, float]:
    worst = 0.0
    for side in ("left", "right"):
        for _ in range(2):
            k = random_psd_kernel(rng, side, cfg.n, 2, cfg.max_len)
            d = naimark_dilate(k, rank_tol=cfg.rank_tol)
            rep = dilation_verify(d, k, rank_tol=cfg.rank_tol)
            worst = max(worst, rep.max_defect)
            if not rep.minimal:
                worst = max(worst, 1.0)
    return "PSD kernels dilate to commuting row isometries reproducing them on the window", worst, 1e-8


def _id_naimark_refusal(cfg: RunConfig, rng) -> tuple[str, float, float]:
    worst = 0.0
    for _ in range(3):
        k = random_non_psd_kernel(rng, "left", cfg.n, 2, max(cfg.max_len, 2))
        if kernel_is_psd(k).psd:
            worst = 1.0
        try:
            naimark_dilate(k, rank_tol=cfg.rank_tol)
            worst = 1.0
        except KernelNotPSDError:
            pass
    return "non-PSD kernels are refused by the dilation", worst, 0.0


def _id_schur(cfg: RunConfig, rng) -> tuple[str, float, float]:
    worst = 0.0
    for _ in range(5):
        sym = random_hermitian_symbol(rng, cfg.n, 2, min(3, cfg.max_len), density=0.5)
        rep = schur_positivity(sym, cfg.r_grid, cfg.max_len, cfg.tol)
        for p in rep.points:
            if not p.agree:
                worst = max(worst, 1.0)
            worst = max(worst, abs(p.operator_min_eig - p.gram_min_eig))
    return "the operator and kernel positivity verdicts agree on matched truncations", worst, 1e-9


def _id_structure_positive(cfg: RunConfig, rng) -> tuple[str, float, float]:
    trunc = FockTruncation(cfg.n, [2 * cfg.max_len] * len(cfg.n))
    v = creation_tuple(trunc, side="right")
    f = from_row_isometries(v, random_embedding(rng, trunc, 2), cfg.max_len)
    rep = schur_positivity(f, cfg.r_grid, cfg.max_len, cfg.tol)
    worst = 0.0 if (rep.positive and rep.all_agree) else 1.0
    worst = max(worst, max(-min(p.operator_min_eig, p.gram_min_eig) for p in rep.points))
    return "functions built from doubly commuting row isometries are positive", max(worst, 0.0), cfg.tol


def _id_poisson_transform_cp(cfg: RunConfig, rng) -> tuple[str, float, float]:
    h_dim = 3
    cap = 2 * (h_dim - 1)  # point monomials vanish beyond the nilpotency index
    depth = cap + 1
    trunc = FockTruncation(cfg.n, [depth] * len(cfg.n))
    v = creation_tuple(trunc, side="right")
    w = random_embedding(rng, trunc, 2)
    mu = CbMapData.from_isometries(v, w, cap)
    worst = 0.0
    for _ in range(2):
        x = random_nilpotent_point(rng, cfg.n, h_dim, 0.8)
        val = poisson_transform(mu, x).value
        worst = max(worst, -la.min_eig_hermitian(val))
        # the resolvent lives on V (x) H; only its columns on W (x) H are read
        cw = cauchy_operator(trunc, x, rhs=np.kron(w, np.eye(x.h_dim))).matrix
        sandwich = cw.conj().T @ cw
        worst = max(worst, float(np.max(np.abs(_eh_to_he(sandwich, x.h_dim, 2) - val))))
    return "compression data transforms positively and matches the sandwiched resolvent square", max(worst, 0.0), 1e-8


def _eh_to_he(m: np.ndarray, h: int, e: int) -> np.ndarray:
    t = m.reshape(e, h, e, h)
    return t.transpose(1, 0, 3, 2).reshape(h * e, h * e)


def _id_herglotz_realpart(cfg: RunConfig, rng) -> tuple[str, float, float]:
    g = identity_multiword(cfg.n)
    sym = MultiToeplitzSymbol(cfg.n, 2)
    sym[g, g] = np.eye(2)
    for a, _ in lambda_pairs_up_to_total(cfg.n, 2):
        if not a.is_identity:
            sym[a, g] = 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    mu = CbMapData.from_holomorphic(sym)
    worst = 0.0
    for _ in range(3):
        x = random_point(rng, cfg.n, 2, 0.5)
        h = herglotz_transform(mu, x).value
        p = poisson_transform(mu, x).value
        worst = max(worst, float(np.max(np.abs(0.5 * (h + h.conj().T) - p))))
    return "the real part of the Herglotz transform is the Poisson transform", worst, 1e-10


def _id_nu_roundtrip(cfg: RunConfig, rng) -> tuple[str, float, float]:
    cap = min(cfg.max_len, min(cfg.degrees))
    trunc = FockTruncation(cfg.n, cfg.degrees)
    sym = random_hermitian_symbol(rng, cfg.n, 1, cap, density=0.6)
    mu = CbMapData(sym)
    g = identity_multiword(cfg.n)
    worst = 0.0
    words = [a for a, b in sym.coeffs if b.is_identity]
    for r in cfg.r_grid:
        nu = nu_of(sym, r)
        worst = max(worst, nu.symbol.max_difference(mu_r_scale(mu, r).symbol))
        for a, got in zip(words, nu_trace_form(sym, r, trunc, words)):
            worst = max(worst, float(np.max(np.abs(got - nu.symbol.coeff(a, g)))))
    return "the radial-map data scales coefficientwise and matches the trace-form extraction", worst, 1e-10


_IDENTITIES = [
    ("words.comparability_reversal", _id_words_reversal),
    ("words.lambda_membership", _id_words_lambda),
    ("fock.isometry_on_window", _id_fock_isometry),
    ("fock.cross_factor_commutation", _id_fock_commutation),
    ("fock.adjoint_consistency", _id_fock_adjoint),
    ("fock.vacuum_cyclicity", _id_fock_cyclicity),
    ("toeplitz.membership", _id_toeplitz_membership),
    ("toeplitz.fourier_roundtrip", _id_toeplitz_roundtrip),
    ("toeplitz.norm_monotonicity", _id_toeplitz_monotone),
    ("berezin.kernel_isometry", _id_berezin_isometry),
    ("berezin.intertwining", _id_berezin_intertwining),
    ("berezin.moment_identity", _id_berezin_moment),
    ("berezin.complete_positivity", _id_berezin_cp),
    ("berezin.poisson_factorization", _id_berezin_factorization),
    ("berezin.defect_factor_order", _id_berezin_defect_order),
    ("berezin.spectral_radius", _id_berezin_radius),
    ("naimark.dilation_reproduction", _id_naimark_reproduction),
    ("naimark.psd_refusal", _id_naimark_refusal),
    ("pluriharm.schur_equivalence", _id_schur),
    ("pluriharm.structure_positivity", _id_structure_positive),
    ("pluriharm.poisson_transform_cp", _id_poisson_transform_cp),
    ("pluriharm.herglotz_real_part", _id_herglotz_realpart),
    ("pluriharm.nu_roundtrip", _id_nu_roundtrip),
]


def verify_suite(cfg: RunConfig) -> list[IdentityResult]:
    cfg.validate()
    results = []
    for idx, (name, fn) in enumerate(_IDENTITIES):
        anchor, err, tol = fn(cfg, _rng(cfg, idx))
        results.append(IdentityResult(name, anchor, float(err), float(tol)))
    return results
