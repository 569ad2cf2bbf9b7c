"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All instances are seeded; every tolerance is pinned here.  Desk scale
throughout: k <= 2, n_i <= 2, degrees <= 6, coefficient and point spaces of
dimension <= 3.
"""

import math

import numpy as np

from polyball._linalg import opnorm
from polyball.berezin import (
    PolyballPoint,
    berezin_kernel,
    cauchy_operator,
    creation_point,
    defect,
    dropped_shell_mass,
    poisson_window,
    spectral_radius,
)
from polyball.fock import FockOperator, FockTruncation, creation_matrix, monomial_indices
from polyball.naimark import (
    KernelNotPSDError,
    dilation_verify,
    kernel_is_psd,
    naimark_dilate,
)
from polyball.pluriharm import (
    CbMapData,
    from_row_isometries,
    herglotz_transform,
    poisson_transform,
    schur_positivity,
)
from polyball.sampling import (
    random_creation_polynomial,
    random_hermitian_symbol,
    random_nilpotent_point,
    random_non_psd_kernel,
    random_point,
    random_psd_kernel,
)
from polyball.toeplitz import (
    MultiToeplitzSymbol,
    creation_pair_symbol,
    evaluate_symbol,
    extract_symbol,
    is_k_multi_toeplitz,
    symbol_operator,
)
from polyball.words import identity_multiword, multiword, multiwords_up_to_total


def _report(name, passed, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{name} {detail}"


def _pairs_up_to_total(n, total):
    mws = multiwords_up_to_total(n, total)
    return [
        (a, b)
        for a in mws
        for b in mws
        if a.total_length + b.total_length <= total
    ]


def test_criterion_1_berezin_moments():
    """Moment identity for 50 seeded points with row norms <= 0.6."""
    n = (2, 1)
    trunc = FockTruncation(n, (6, 6))
    pairs = _pairs_up_to_total(n, 3)
    indexed = [monomial_indices(trunc, a, b) for a, b in pairs]
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        x = random_point(rng, n, 2, 0.6)
        k = berezin_kernel(x, trunc)
        bound = max(1e-9, 2.0 * k.tail_bound + k.tail_bound ** 2)
        k3 = k.as_tensor()
        for (a, b), (src, dst) in zip(pairs, indexed):
            mk3 = np.zeros_like(k3)
            mk3[dst] = k3[src]
            got = np.einsum("adx,ady->xy", k3.conj(), mk3)
            want = x.monomial(a) @ x.monomial(b).conj().T
            err = np.linalg.norm(got - want, 2)
            worst = max(worst, err - bound)
    _report("1 berezin moment identity", worst <= 0.0,
            f"(worst error minus bound {worst:.3e})")


def test_criterion_2_kernel_isometry_intertwining():
    """20 jointly nilpotent points: exact isometry and intertwining."""
    rng = np.random.default_rng(102)
    worst_iso = 0.0
    worst_int = 0.0
    cases = [((2,), (3,))] * 10 + [((2, 1), (3, 3))] * 10
    for n, degrees in cases:
        trunc = FockTruncation(n, degrees)
        x = random_nilpotent_point(rng, n, 3, 0.75)
        k = berezin_kernel(x, trunc)
        gram = k.matrix.conj().T @ k.matrix
        worst_iso = max(worst_iso, np.linalg.norm(gram - np.eye(3), 2))
        k3 = k.as_tensor()
        for i, ni in enumerate(n, 1):
            for j in range(1, ni + 1):
                lhs = k.matrix @ x.entry(i, j).conj().T
                s = creation_matrix(trunc, "left", i, j).toarray()
                rhs = np.einsum("gf,gdh->fdh", s.conj(), k3).reshape(k.matrix.shape)
                worst_int = max(worst_int, np.linalg.norm(lhs - rhs, 2))
    ok = worst_iso <= 1e-10 and worst_int <= 1e-10
    _report("2 kernel isometry and intertwining", ok,
            f"(isometry {worst_iso:.3e}, intertwining {worst_int:.3e})")


def test_criterion_3_poisson_factorization():
    """20 random points with row norms <= 0.5, both sides independent.

    The bound is the index-pair shell mass the box drops plus
    ||Delta|| (prod_i 1/(1 - rho_i) - 1)^2, which covers the Gram columns
    of the dropped creation shells (the points are inside the ball and not
    jointly nilpotent)."""
    n = (2, 1)
    trunc = FockTruncation(n, (3, 3))
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        x = random_point(rng, n, 2, 0.5)
        rho = x.row_norms()
        tail = dropped_shell_mass(rho, pairs=True, box=trunc.degrees)
        bound = tail + opnorm(defect(x)) * (math.prod(1.0 / (1.0 - r) for r in rho) - 1.0) ** 2
        c = cauchy_operator(trunc, x, "right").matrix.toarray()
        p = poisson_window(x, trunc, np.ones(trunc.dim, dtype=bool))
        diff = np.linalg.norm(p - c.conj().T @ c, 2)
        worst = max(worst, diff - bound)
    _report("3 poisson factorization", worst <= 0.0,
            f"(worst error minus bound {worst:.3e})")


def test_criterion_4_classical_recovery():
    """Product of disc kernels on a 5x5 grid at truncation degree 24."""
    phi = (0.4, -1.1)
    mu = CbMapData.point_mass([np.exp(1j * p) for p in phi], 24)

    def disc(r, th):
        return (1 - r * r) / (1 - 2 * r * np.cos(th) + r * r)

    worst = 0.0
    for r in np.linspace(0.1, 0.5, 5):
        for th in np.linspace(0.0, 2 * np.pi, 5, endpoint=False):
            x = PolyballPoint.from_scalars(
                [[r * np.exp(1j * th)], [r * np.exp(1j * (th - 0.7))]]
            )
            got = poisson_transform(mu, x).value[0, 0]
            want = disc(r, th - phi[0]) * disc(r, (th - 0.7) - phi[1])
            worst = max(worst, abs(got - want))
    ones = CbMapData.point_mass([1.0, 1.0], 24)
    nine = poisson_transform(
        ones, PolyballPoint.from_scalars([[0.5], [0.5]])
    ).value[0, 0]
    ok = worst <= 1e-6 and abs(nine - 9.0) <= 1e-6
    _report("4 classical recovery", ok,
            f"(grid error {worst:.3e}, value at the stated point {nine.real:.9f})")


def test_criterion_5_fourier_roundtrip():
    """30 random symbols: coefficient recovery and window action."""
    n = (2, 1)
    trunc = FockTruncation(n, (3, 3))
    cp = creation_point(trunc)
    rng = np.random.default_rng(105)
    worst_coeff = 0.0
    worst_action = 0.0
    for trial in range(30):
        e = 1 + trial % 2
        sym = random_hermitian_symbol(rng, n, e, 3, density=0.5)
        t_mat = evaluate_symbol(sym, cp)
        top = FockOperator(trunc, t_mat, coeff_dim=e)
        back = extract_symbol(top, 3)
        worst_coeff = max(worst_coeff, back.max_difference(sym))
        # reproduce the action on window polynomials
        rebuilt = symbol_operator(back, trunc).dense()
        mask = np.repeat(trunc.window_mask([2, 2]), e)
        q = np.zeros(trunc.dim * e, dtype=complex)
        q[mask] = rng.standard_normal(int(mask.sum()))
        worst_action = max(worst_action, np.abs(t_mat @ q - rebuilt @ q).max())
    ok = worst_coeff <= 1e-11 and worst_action <= 1e-11
    _report("5 fourier roundtrip", ok,
            f"(coefficients {worst_coeff:.3e}, window action {worst_action:.3e})")


def test_criterion_6_toeplitz_characterization():
    """Adjoint-polynomial products pass; constructed non-members fail."""
    n = (2, 1)
    trunc = FockTruncation(n, (3, 3))
    rng = np.random.default_rng(106)
    worst_pass = 0.0
    for _ in range(30):
        sym = MultiToeplitzSymbol(n, 1)
        acc = {}
        for _ in range(2):
            p = random_creation_polynomial(rng, n, 2, 3)
            q = random_creation_polynomial(rng, n, 2, 3)
            for key, val in creation_pair_symbol(p, q, n).items():
                acc[key] = acc.get(key, 0) + val
        for key, val in acc.items():
            sym[key[0], key[1]] = val
        rep = is_k_multi_toeplitz(symbol_operator(sym, trunc), tol=1e-11)
        worst_pass = max(worst_pass, rep.max_violation)
    g = identity_multiword(n)
    w1 = multiword([[1], []], n)
    w2 = multiword([[2], []], n)
    w11 = multiword([[1, 1], []], n)
    from polyball.fock import word_operator

    bad_ops = [
        word_operator(trunc, w1, w1).dense(),
        word_operator(trunc, w2, w2).dense(),
        word_operator(trunc, w1, w2).dense() + word_operator(trunc, w2, w1).dense(),
        word_operator(trunc, w11, w1).dense(),
        word_operator(trunc, w1, w11).dense(),
        word_operator(trunc, multiword([[1], [1]], n), multiword([[2], [1]], n)).dense(),
        word_operator(trunc, w11, w11).dense(),
        word_operator(trunc, multiword([[2, 1], []], n), w2).dense(),
        word_operator(trunc, w1, w1).dense() - word_operator(trunc, w2, w2).dense(),
        word_operator(trunc, multiword([[], [1]], n), multiword([[], [1]], n)).dense(),
    ]
    min_fail = np.inf
    for m in bad_ops:
        rep = is_k_multi_toeplitz(FockOperator(trunc, m))
        min_fail = min(min_fail, rep.max_violation)
    ok = worst_pass <= 1e-11 and min_fail >= 1e-2
    _report("6 toeplitz characterization", ok,
            f"(members {worst_pass:.3e}, smallest violation of non-members {min_fail:.3e})")


def test_criterion_7_naimark_dilation():
    """30 PSD kernels dilate within tolerance; non-PSD ones are refused;
    right kernels agree with the reversal reduction."""
    rng = np.random.default_rng(107)
    shapes = [((1,), 1), ((2,), 2), ((1, 1), 2), ((2, 1), 2), ((2, 1), 1)]
    worst_rep = 0.0
    worst_defect = 0.0
    count = 0
    while count < 30:
        n, e = shapes[count % len(shapes)]
        k = random_psd_kernel(rng, "left" if count % 2 else "right", n, e, 3)
        assert kernel_is_psd(k).psd
        d = naimark_dilate(k)
        rep = dilation_verify(d, k)
        worst_rep = max(worst_rep, rep.reproduction_error)
        worst_defect = max(worst_defect, rep.isometry_defect, rep.commutator_defect)
        assert rep.minimal
        count += 1
    refused = 0
    for _ in range(10):
        bad = random_non_psd_kernel(rng, "left", (2, 1), 2, 3)
        try:
            naimark_dilate(bad)
        except KernelNotPSDError:
            refused += 1
    # right-kernel duality: reversal reduction vs the reversed-left dilation
    worst_dual = 0.0
    for _ in range(3):
        k = random_psd_kernel(rng, "right", (2, 1), 2, 3)
        d = naimark_dilate(k)
        dl = naimark_dilate(k.reversed())
        # P_E V_s* V_w |_E of each dilation, read off its columns V_w E
        c, cl = d.columns, dl.columns
        for s in multiwords_up_to_total(k.n, 2):
            for w in multiwords_up_to_total(k.n, 2):
                worst_dual = max(worst_dual, np.abs(
                    c[s].conj().T @ c[w] - cl[s].conj().T @ cl[w]).max())
    ok = (
        worst_rep <= 1e-8
        and worst_defect <= 1e-9
        and refused == 10
        and worst_dual <= 1e-9
    )
    _report("7 naimark dilation", ok,
            f"(reproduction {worst_rep:.3e}, defects {worst_defect:.3e}, "
            f"refused {refused}/10, duality {worst_dual:.3e})")


def test_criterion_8_schur_equivalence():
    """Operator and kernel positivity verdicts agree on 30 random symbols."""
    rng = np.random.default_rng(108)
    n = (2, 1)
    agree = 0
    total = 0
    for trial in range(30):
        e = 1 + trial % 2
        scale = 10.0 ** rng.uniform(-2, 1)
        sym = random_hermitian_symbol(rng, n, e, 3, density=0.5, scale=scale)
        rep = schur_positivity(sym, (0.3, 0.6, 0.9), 3, 1e-8)
        for p in rep.points:
            total += 1
            agree += p.agree
    _report("8 schur positivity equivalence", agree == total,
            f"({agree}/{total} verdicts agree)")


def test_criterion_9_herglotz_representation():
    """Classical scalar kernel on a grid; scaled identity for a
    structure-built holomorphic function with two factors."""
    mu = CbMapData.point_mass([1.0], 200)
    worst = 0.0
    for r in (0.3, 0.6, 0.9):
        for th in np.linspace(0, 2 * np.pi, 6, endpoint=False):
            z = r * np.exp(1j * th)
            x = PolyballPoint.from_scalars([[z]])
            h = herglotz_transform(mu, x).value[0, 0]
            worst = max(worst, abs(h - (1 + z) / (1 - z)))
    n = (2, 1)
    k = len(n)
    trunc = FockTruncation(n, (4, 4))
    v = [
        [creation_matrix(trunc, "right", i, j) for j in range(1, ni + 1)]
        for i, ni in enumerate(n, 1)
    ]
    e = np.zeros((trunc.dim, 3))
    e[0, 0] = 1.0
    e[trunc.basis_index(multiword([[1], []], n)), 1] = 1.0
    e[trunc.basis_index(multiword([[1], [1]], n)), 2] = 1.0
    f = from_row_isometries(v, e, 3)
    g = identity_multiword(n)
    holo = MultiToeplitzSymbol(n, 3)
    skew = 1j * np.array([[0.0, 0.25, 0.0], [-0.25, 0.0, 0.0], [0.0, 0.0, 0.0]])
    holo[g, g] = np.eye(3) + skew
    for (a, b), c in f.items():
        if b.is_identity and not a.is_identity:
            holo[a, g] = 2 * c
    muk = CbMapData.from_holomorphic(holo, scale=k)
    im0 = (holo.coeff(g, g) - holo.coeff(g, g).conj().T) / 2j
    worst_scaling = 0.0
    rng = np.random.default_rng(109)
    for _ in range(6):
        y = PolyballPoint.from_scalars(
            [[0.4 * z for z in np.exp(1j * rng.uniform(0, 2 * np.pi, 2)) * rng.uniform(0.2, 1.0, 2)],
             [0.45 * np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(0.2, 1.0)]]
        )
        lhs = evaluate_symbol(holo, y)
        rhs = herglotz_transform(muk, y.scaled(k)).value + 1j * np.kron(np.eye(1), im0)
        worst_scaling = max(worst_scaling, np.abs(lhs - rhs).max())
    ok = worst <= 1e-7 and worst_scaling <= 1e-7
    _report("9 herglotz representation", ok,
            f"(classical grid {worst:.3e}, scaled identity {worst_scaling:.3e})")


def test_criterion_10_spectral_radius():
    """Closed forms at max_p = 12: scalar rows and scaled creations."""
    worst = 0.0
    sr = spectral_radius(PolyballPoint.from_scalars([[0.3, 0.4]]), 12)
    worst = max(worst, abs(sr.value - 0.5))
    sr = spectral_radius(PolyballPoint.from_scalars([[0.3, 0.4], [0.5]]), 12)
    worst = max(worst, abs(sr.value - np.sqrt(0.5 * 0.5)))
    sr = spectral_radius(PolyballPoint([[np.zeros((2, 2))]]), 12)
    worst = max(worst, sr.value)
    t = FockTruncation([2], [4])
    sr = spectral_radius(creation_point(t, 0.7), 12)
    worst = max(worst, abs(sr.value - 0.7))
    t2 = FockTruncation([2, 1], [3, 3])
    sr = spectral_radius(creation_point(t2, 0.6), 12)
    worst = max(worst, abs(sr.value - 0.6))
    _report("10 spectral radius closed forms", worst <= 1e-6,
            f"(worst deviation {worst:.3e})")
