import numpy as np
import pytest

from polyball.berezin import PolyballPoint, berezin_transform, cauchy_operator
from polyball.fock import FockTruncation, creation_matrix, word_operator
from polyball.naimark import GeneratorError, kernel_from_generator, naimark_dilate
from polyball.pluriharm import (
    CbMapData,
    fantappie_transform,
    from_row_isometries,
    gamma_kernel,
    herglotz_transform,
    mu_r_scale,
    nu_of,
    nu_trace_form,
    poisson_transform,
    schur_positivity,
)
from polyball.sampling import (
    random_hermitian_symbol,
    random_nilpotent_point,
    random_point,
    random_psd_kernel,
)
from polyball.toeplitz import MultiToeplitzSymbol, evaluate_symbol, symbol_operator
from polyball.words import (
    compare,
    identity_multiword,
    lambda_pairs_up_to_total,
    multiword,
    multiwords_up_to_total,
)


def tridiagonal_symbol(c):
    n = [1]
    g = identity_multiword(n)
    w = multiword([[1]], n)
    sym = MultiToeplitzSymbol(n, 1)
    sym[g, g] = [[1.0]]
    sym[w, g] = [[c]]
    sym[g, w] = [[np.conj(c)]]
    return sym


def test_gamma_kernel_constant():
    f = MultiToeplitzSymbol.constant([2, 1], np.eye(1))
    k = gamma_kernel(f, 0.5, 2)
    for s in multiwords_up_to_total((2, 1), 2):
        assert k.value(s, s)[0, 0] == 1.0
    a = multiword([[1], []], [2, 1])
    b = multiword([[2], []], [2, 1])
    assert np.abs(k.value(a, b)).max() == 0.0


def test_gamma_kernel_tridiagonal():
    f = tridiagonal_symbol(1.0)
    k = gamma_kernel(f, 0.5, 3)
    for m in range(4):
        for m2 in range(4):
            want = 0.5 ** abs(m - m2) if abs(m - m2) <= 1 else 0.0
            got = k.value(multiword([[1] * m], [1]), multiword([[1] * m2], [1]))[0, 0]
            assert abs(got - want) < 1e-14


def test_gamma_matches_matrix_entries(rng):
    """The kernel entry at (w, v) equals the matrix entry of the function at
    scaled creations; dense comparison on a two-factor shape."""
    n = (2, 1)
    sym = random_hermitian_symbol(rng, n, 2, 3, density=0.6)
    r = 0.7
    max_len = 3
    trunc = FockTruncation(n, [max_len] * 2)
    m = symbol_operator(sym, trunc, r).dense()
    k = gamma_kernel(sym, r, max_len)
    e = 2
    for s in multiwords_up_to_total(n, max_len):
        for w in multiwords_up_to_total(n, max_len):
            si, wi = trunc.basis_index(s), trunc.basis_index(w)
            block = m[si * e : si * e + e, wi * e : wi * e + e]
            np.testing.assert_allclose(block, k.value(s, w), atol=1e-12)


def _gamma_gram_by_pair_fill(F, r, max_len, side="right"):
    """The former gamma kernel, kept as the oracle: a generator dict filled
    over every lambda-pair up to total length 2L, then the Gram filled pair
    by pair from it with ``compare`` (a missing quotient is a KeyError)."""
    scaled = F.scaled(r)
    gen = {(a, b): scaled.coeff(a, b) for a, b in lambda_pairs_up_to_total(F.n, 2 * max_len)
           if a.total_length <= max_len and b.total_length <= max_len}
    monos, e = multiwords_up_to_total(F.n, max_len), F.e_dim
    g = np.zeros((len(monos), e, len(monos), e), dtype=complex)
    for p, s in enumerate(monos):
        for q, w in enumerate(monos):
            c = compare(side, s, w)
            if c.comparable and np.any(gen[(c.c_plus, c.c_minus)] != 0):
                g[p, :, q] = gen[(c.c_plus, c.c_minus)]
    return g.reshape(len(monos) * e, -1)


@pytest.mark.parametrize("shape", ["small", "verify-small", "verify-small-structure",
                                   "left", "n=(1,1,2)", "e=1", "zero-block"])
def test_gamma_kernel_matches_pair_fill(shape):
    """The Gram filled per quotient is bitwise the one of the per-pair
    ``compare`` fill: at a small shape, at the shapes of the verify-small
    Schur and structure items (n=(2,1), L=3, e=2), on the left side, with
    three factors, with scalar coefficients, and with an explicitly zero
    coefficient block (of -0.0 entries), which must leave +0.0 in the Gram.
    On the right side the kernel is ``gamma_kernel``."""
    rng = np.random.default_rng(8)
    n, side = (2, 1), "left" if shape == "left" else "right"
    if shape in ("small", "left"):
        syms, max_len = [random_hermitian_symbol(rng, n, 2, 2)], 2
    elif shape == "verify-small":
        syms = [random_hermitian_symbol(rng, n, 2, 3, density=0.5) for _ in range(3)]
        max_len = 3
    elif shape == "verify-small-structure":
        t = FockTruncation(n, [6, 6])
        v = [[creation_matrix(t, "right", i, j) for j in range(1, ni + 1)]
             for i, ni in enumerate(n, start=1)]
        e_basis = np.linalg.qr(rng.standard_normal((t.dim, 2)))[0]
        syms, max_len = [from_row_isometries(v, e_basis, 3)], 3
    elif shape == "n=(1,1,2)":
        syms, max_len = [random_hermitian_symbol(rng, (1, 1, 2), 2, 3, density=0.6)], 3
    elif shape == "e=1":
        syms, max_len = [random_hermitian_symbol(rng, n, 1, 3, density=0.6)], 3
    else:
        sym = random_hermitian_symbol(rng, n, 2, 2)
        a, g = multiword([[2], [1]], n), identity_multiword(n)
        sym[a, g] = sym[g, a] = np.full((2, 2), complex(-0.0, -0.0))
        syms, max_len = [sym], 3
    for sym in syms:
        for r in (0.3, 0.6, 0.9, 1.0):
            k = (gamma_kernel(sym, r, max_len) if side == "right" else
                 kernel_from_generator(side, sym.scaled(r), max_len, require_unit=False))
            got = k.gram()
            assert got.tobytes() == _gamma_gram_by_pair_fill(sym, r, max_len, side).tobytes()
    if shape == "zero-block":
        block = k.value(a, g)
        assert not block.any() and not np.signbit(block.view(float)).any()


def test_gamma_kernel_refuses_non_hermitian_symbol():
    """The generator check covers the whole scaled symbol: a coefficient
    without its adjoint partner is refused."""
    f = tridiagonal_symbol(0.5)
    f.coeffs.pop((identity_multiword([1]), multiword([[1]], [1])))
    with pytest.raises(GeneratorError, match="not Hermitian"):
        gamma_kernel(f, 0.5, 2)


def test_schur_identity_function():
    rep = schur_positivity(MultiToeplitzSymbol.constant([2], np.eye(1)),
                           [0.3, 0.6, 0.9], 3)
    assert rep.all_agree and rep.positive


def test_schur_tridiagonal_negative():
    """Oracle: eigenvalues of the (L+1)-point tridiagonal matrix are
    1 - 4 r cos(pi j / (L + 2))."""
    f = tridiagonal_symbol(-2.0)
    L = 5
    rep = schur_positivity(f, [0.9], L)
    p = rep.points[0]
    size = L + 1
    oracle = min(1 - 4 * 0.9 * np.cos(np.pi * j / (size + 1)) for j in range(1, size + 1))
    assert abs(p.operator_min_eig - oracle) < 1e-10
    assert abs(p.gram_min_eig - oracle) < 1e-10
    assert not p.operator_positive and p.agree


def test_schur_agreement_random(rng):
    for _ in range(10):
        sym = random_hermitian_symbol(rng, (2, 1), 2, 3, density=0.5)
        rep = schur_positivity(sym, [0.3, 0.6, 0.9], 3)
        assert rep.all_agree
        for p in rep.points:
            assert abs(p.operator_min_eig - p.gram_min_eig) < 1e-9


def test_from_row_isometries_vacuum_is_delta():
    t = FockTruncation([2, 1], [4, 4])
    v = [
        [creation_matrix(t, "right", i, j) for j in range(1, ni + 1)]
        for i, ni in enumerate(t.n, 1)
    ]
    e = np.zeros((t.dim, 1))
    e[0, 0] = 1.0
    f = from_row_isometries(v, e, 3)
    assert len(f) == 1
    g = identity_multiword(t.n)
    np.testing.assert_allclose(f.coeff(g, g), np.eye(1))


def test_from_scalar_units_all_ones():
    v = [[np.eye(1)], [np.eye(1)]]
    f = from_row_isometries(v, np.eye(1), 3)
    assert len(f) == len(lambda_pairs_up_to_total([1, 1], 3))
    for _, c in f.items():
        assert abs(c[0, 0] - 1.0) < 1e-14


def test_from_row_isometries_positive(rng):
    t = FockTruncation([2, 1], [5, 5])
    v = [
        [creation_matrix(t, "right", i, j) for j in range(1, ni + 1)]
        for i, ni in enumerate(t.n, 1)
    ]
    raw = np.zeros((t.dim, 2), dtype=complex)
    for w in multiwords_up_to_total(t.n, 1):
        raw[t.basis_index(w), :] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    q, _ = np.linalg.qr(raw)
    f = from_row_isometries(v, q[:, :2], 3)
    rep = schur_positivity(f, [0.3, 0.6, 0.9], 3)
    assert rep.positive and rep.all_agree


def test_single_generator_factors_with_commuting_unitaries(rng):
    """With one generator per factor, explicitly supplied commuting unitaries
    (diagonal) give positive functions.

    Unitary compressions have non-decaying coefficients, so the truncated
    symbol is a partial sum: positivity is exact only where the dropped tail
    is smaller than the function, and tail-bounded otherwise.
    """
    phases1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    phases2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    v = [[np.diag(phases1)], [np.diag(phases2)]]
    e = np.linalg.qr(rng.standard_normal((4, 2)))[0][:, :2]
    max_len = 3
    f = from_row_isometries(v, e, max_len)
    rep = schur_positivity(f, [0.3, 0.6, 0.9], max_len)
    assert rep.all_agree
    for p in rep.points:
        # kept mass: pairs (m1, m2) with |m1| + |m2| <= max_len (4t of them
        # on shell t); dropped shells have unit coefficient norm
        full = ((1 + p.r) / (1 - p.r)) ** 2
        kept = 1 + sum(4 * t * p.r ** t for t in range(1, max_len + 1))
        tail = full - kept
        assert p.operator_min_eig >= -tail
    assert rep.points[0].operator_positive  # r = 0.3: tail below the function


@pytest.mark.parametrize("n", [(2, 1), (1, 1, 2)])
def test_from_row_isometries_matches_per_word_loop(n):
    """Coefficients read from the shared columns equal the former per-word
    loop, P_E V_{a~}* V_{b~} |_E with V_w E applied letter by letter."""
    rng = np.random.default_rng(7)
    t = FockTruncation(n, [4] * len(n))
    v = [[creation_matrix(t, "right", i, j) for j in range(1, ni + 1)]
         for i, ni in enumerate(n, 1)]
    raw = rng.standard_normal((t.dim, 2)) + 1j * rng.standard_normal((t.dim, 2))
    e = np.linalg.qr(raw)[0]

    def col(mw):
        m = e
        rev = mw.reverse()
        for i in reversed(range(len(v))):
            for j in reversed(rev.parts[i].letters):
                m = v[i][j - 1] @ m
        return m

    f = from_row_isometries(v, e, 3)
    want = {}
    for a, b in lambda_pairs_up_to_total(n, 3):
        c = col(a).conj().T @ col(b)
        if np.max(np.abs(c)) > 0:
            want[(a, b)] = c
    assert list(f.coeffs) == list(want)
    for key, c in want.items():
        np.testing.assert_array_equal(f.coeffs[key], c)


def test_from_row_isometries_commutation_guard(rng):
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        from_row_isometries([[a], [b]], np.eye(3)[:, :1], 2)


def test_from_row_isometries_accepts_a_naimark_dilation():
    """A dilation commutes on its window only; the coefficients read no more,
    so its output is accepted and gives back the kernel (the dense check
    refused it with defect 2.06e-1)."""
    k = random_psd_kernel(np.random.default_rng(3), "left", (2, 1), 2, 3)
    d = naimark_dilate(k)
    f = from_row_isometries(d.isometries, d.embedding, d.window_len)
    for a, b in lambda_pairs_up_to_total(k.n, d.window_len):
        np.testing.assert_allclose(f.coeff(a, b), k.value(a.reverse(), b.reverse()),
                                   rtol=0, atol=1e-12)


def test_from_row_isometries_commutation_scope():
    """Commutation is checked on the columns V_w E with |w| <= L - 2: here
    ab = ba on E = span(e0) but not on V_g E = span(e1) (ab e1 = e0, ba e1 = 0),
    so the tuple is accepted at L = 2 and refused at L = 3."""
    a = np.roll(np.eye(3), 1, axis=0)  # e0 -> e1 -> e2 -> e0
    b = np.diag([1.0, 1.0], -1)         # e0 -> e1 -> e2 -> 0
    e = np.eye(3)[:, :1]
    from_row_isometries([[a], [b]], e, 2)
    with pytest.raises(ValueError, match=r"factors 1 and 2 do not commute \(defect 1\.000e\+00\)"):
        from_row_isometries([[a], [b]], e, 3)


def test_poisson_transform_vacuum_state():
    tau = CbMapData.vacuum_state([2, 1])
    x = PolyballPoint.from_scalars([[0.3, 0.2], [0.4]])
    np.testing.assert_allclose(poisson_transform(tau, x).value, np.eye(1))


def test_point_mass_product_kernel():
    mu = CbMapData.point_mass([1.0, 1.0], 24)
    z = PolyballPoint.from_scalars([[0.5], [0.5]])
    res = poisson_transform(mu, z)
    assert abs(res.value[0, 0] - 9.0) < 1e-6
    assert abs(res.value[0, 0] - 9.0) <= res.tail_bound + 1e-12


def test_point_mass_matches_disc_kernel():
    def disc(r, th):
        return (1 - r * r) / (1 - 2 * r * np.cos(th) + r * r)

    phi = (0.4, -1.1)
    mu = CbMapData.point_mass([np.exp(1j * p) for p in phi], 24)
    for r, t1, t2 in [(0.3, 0.2, 1.0), (0.5, 2.0, -0.5)]:
        x = PolyballPoint.from_scalars([[r * np.exp(1j * t1)], [r * np.exp(1j * t2)]])
        got = poisson_transform(mu, x).value[0, 0]
        want = disc(r, t1 - phi[0]) * disc(r, t2 - phi[1])
        assert abs(got - want) < 1e-6


def test_mu_r_scale_limits():
    mu = CbMapData.point_mass([1.0], 6)
    z = PolyballPoint.from_scalars([[0.4]])
    m0 = mu_r_scale(mu, 0.0)
    assert len(m0.symbol) == 1  # only the unit survives
    m1 = mu_r_scale(mu, 1.0)
    assert m1.symbol.hermitian_defect() < 1e-14
    np.testing.assert_allclose(
        poisson_transform(m1, z).value, poisson_transform(mu, z).value
    )
    r = 0.6
    np.testing.assert_allclose(
        poisson_transform(mu_r_scale(mu, r), z).value,
        poisson_transform(mu, z.scaled(r)).value,
        atol=1e-12,
    )


def test_nu_roundtrip_and_scaling():
    mu = CbMapData.point_mass([np.exp(0.3j), 1.0], 4)
    for r in (0.0, 0.5, 1.0):
        nu = nu_of(mu.symbol, r)
        mur = mu_r_scale(mu, r)
        assert set(nu.symbol.coeffs) == set(mur.symbol.coeffs)
        assert nu.symbol.max_difference(mur.symbol) < 1e-14
    # single-coefficient scaling arithmetic
    n = (2, 1)
    g = identity_multiword(n)
    a = multiword([[1, 2], [1]], n)
    sym = MultiToeplitzSymbol(n, 1)
    sym[g, g] = [[1.0]]
    sym[a, g] = [[1.0]]
    sym[g, a] = [[1.0]]
    nu = nu_of(sym, 0.5)
    assert abs(nu.symbol.coeff(a, g)[0, 0] - 0.125) < 1e-15


def test_nu_trace_form(rng):
    n = (2, 1)
    trunc = FockTruncation(n, [3, 3])
    sym = random_hermitian_symbol(rng, n, 2, 3, density=0.5)
    g = identity_multiword(n)
    words = [a for a, b in sym.coeffs if b.is_identity]
    for r in (0.3, 0.8):
        nu = nu_of(sym, r)
        blocks = nu_trace_form(sym, r, trunc, words)
        assert len(blocks) == len(words)
        for a, got in zip(words, blocks):
            assert np.abs(got - nu.symbol.coeff(a, g)).max() < 1e-12


def test_nu_trace_form_reads_the_kron_product_block(rng):
    """The direct block read equals the dense formula it replaced, the vacuum
    block row of kron(R_a*, I) times the function, bit for bit; words longer
    than the truncation give zero."""
    n = (2, 1)
    trunc = FockTruncation(n, [2, 2])
    g = identity_multiword(n)
    sym = random_hermitian_symbol(rng, n, 2, 2, density=0.6)
    words = multiwords_up_to_total(n, 3)
    v = trunc.vacuum_index
    for r in (0.4, 0.9):
        phi = symbol_operator(sym, trunc, r, side="right").dense()
        for a, got in zip(words, nu_trace_form(sym, r, trunc, words)):
            if trunc.admits(a):
                ra = word_operator(trunc, a, g, side="right").dense()
                big = np.kron(ra.conj().T, np.eye(2)) @ phi
                want = big.reshape(trunc.dim, 2, trunc.dim, 2)[v, :, v, :]
            else:
                want = np.zeros((2, 2), dtype=complex)
            np.testing.assert_array_equal(got, want, err_msg=repr(a))


def test_fantappie_geometric():
    n = [1]
    g = identity_multiword(n)
    vals = {(multiword([[1] * m], n), g): np.eye(1) for m in range(50)}
    mu = CbMapData(MultiToeplitzSymbol(n, 1, vals), coeff_bound=1.0)
    z = PolyballPoint.from_scalars([[0.5]])
    res = fantappie_transform(mu, z)
    assert abs(res.value[0, 0] - 2.0) < 1e-12


def test_fantappie_vs_resolvent_blocks(rng):
    """Oracle: blocks of the resolvent on the truncated right creations."""
    n = (2, 1)
    trunc = FockTruncation(n, [3, 3])
    sym = random_hermitian_symbol(rng, n, 1, 3, density=0.7)
    g = identity_multiword(n)
    vals = {k: v for k, v in sym.coeffs.items() if k[1].is_identity}
    vals[(g, g)] = np.eye(1)
    mu = CbMapData(MultiToeplitzSymbol(n, 1, vals))
    x = random_nilpotent_point(rng, n, 3, 0.7)
    res = fantappie_transform(mu, x)
    dim = trunc.dim
    acc = np.eye(dim * x.h_dim, dtype=complex)
    for i in reversed(range(len(n))):
        a = sum(
            np.kron(creation_matrix(trunc, "right", i + 1, j + 1).toarray().conj().T, x.X[i][j])
            for j in range(n[i])
        )
        acc = np.linalg.solve(np.eye(dim * x.h_dim) - a, acc)
    acc4 = acc.reshape(dim, x.h_dim, dim, x.h_dim)
    oracle = np.zeros_like(res.value)
    for (a, b), v in mu.symbol.items():
        block = acc4[trunc.vacuum_index, :, trunc.basis_index(a), :]
        oracle += np.kron(block, np.zeros((1, 1)) + 1.0) * v[0, 0]
    assert np.abs(res.value - oracle).max() < 1e-8


def test_herglotz_scalar_classical():
    mu = CbMapData.point_mass([1.0], 200)
    for z in (0.5, 0.9, -0.3, 0.6j, 0.9j):
        x = PolyballPoint.from_scalars([[z]])
        h = herglotz_transform(mu, x).value[0, 0]
        assert abs(h - (1 + z) / (1 - z)) < 1e-7
        p = poisson_transform(mu, x).value[0, 0]
        assert abs(h.real - p.real) < 1e-7


def test_herglotz_real_part_is_poisson(rng):
    n = (2, 1)
    g = identity_multiword(n)
    sym = MultiToeplitzSymbol(n, 2)
    sym[g, g] = np.eye(2)
    for a, _ in lambda_pairs_up_to_total(n, 2):
        if not a.is_identity:
            sym[a, g] = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    mu = CbMapData.from_holomorphic(sym)
    assert mu.herglotz_class
    x = random_point(rng, n, 2, 0.5)
    h = herglotz_transform(mu, x).value
    p = poisson_transform(mu, x).value
    assert np.abs(0.5 * (h + h.conj().T) - p).max() < 1e-12


def test_herglotz_class_zero_pattern_validated():
    n = (2, 2)
    a = multiword([[1], []], n)
    b = multiword([[], [1]], n)
    with pytest.raises(ValueError):
        CbMapData(MultiToeplitzSymbol(n, 1, {(a, b): np.eye(1)}), unit=np.eye(1),
                  herglotz_class=True)


def test_herglotz_scaling_identity(rng):
    """Identity between a structure-built holomorphic function and the scaled
    Herglotz transform of its matched annihilation-class data."""
    n = (2, 1)
    k = len(n)
    t = FockTruncation(n, [4, 4])
    v = [
        [creation_matrix(t, "right", i, j) for j in range(1, ni + 1)]
        for i, ni in enumerate(t.n, 1)
    ]
    e = np.zeros((t.dim, 3))
    e[0, 0] = 1.0
    e[t.basis_index(multiword([[1], []], n)), 1] = 1.0
    e[t.basis_index(multiword([[1], [1]], n)), 2] = 1.0
    f = from_row_isometries(v, e, 3)
    # the staircase subspace kills the cross-factor coefficients
    for (a, b), c in f.items():
        if not a.is_identity and not b.is_identity:
            assert np.abs(c).max() < 1e-14
    g = identity_multiword(n)
    holo = MultiToeplitzSymbol(n, 3)
    skew = 1j * np.array([[0.0, 0.2, 0.0], [-0.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    holo[g, g] = np.eye(3) + skew
    for (a, b), c in f.items():
        if b.is_identity and not a.is_identity:
            holo[a, g] = 2 * c
    mu = CbMapData.from_holomorphic(holo, scale=k)
    im0 = (holo.coeff(g, g) - holo.coeff(g, g).conj().T) / 2j
    for y1, y2 in [(0.2, 0.1), (0.3j, -0.2), (0.45, 0.4)]:
        y = PolyballPoint.from_scalars([[y1, 0.6 * y1], [y2]])
        lhs = evaluate_symbol(holo, y)
        rhs = herglotz_transform(mu, y.scaled(k)).value + 1j * np.kron(np.eye(1), im0)
        assert np.abs(lhs - rhs).max() < 1e-7


def test_cp_data_positive_and_factored(rng):
    """Compression data of the right creations: the transform is PSD and
    equals the compressed square of the resolvent operator."""
    n = (2, 1)
    h_dim = 3
    cap = 2 * (h_dim - 1)
    t = FockTruncation(n, [cap + 1] * 2)
    v = [
        [creation_matrix(t, "right", i, j) for j in range(1, ni + 1)]
        for i, ni in enumerate(t.n, 1)
    ]
    raw = np.zeros((t.dim, 2), dtype=complex)
    for w in multiwords_up_to_total(n, 1):
        raw[t.basis_index(w), :] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    wmat, _ = np.linalg.qr(raw)
    wmat = wmat[:, :2]
    mu = CbMapData.from_isometries(v, wmat, cap)
    x = random_nilpotent_point(rng, n, h_dim, 0.8)
    val = poisson_transform(mu, x).value
    assert np.linalg.eigvalsh(0.5 * (val + val.conj().T))[0] > -1e-10
    c = cauchy_operator(t, x, "right").matrix.toarray()
    wx = np.kron(wmat, np.eye(h_dim))
    sandwich = wx.conj().T @ c.conj().T @ c @ wx
    perm = sandwich.reshape(2, h_dim, 2, h_dim).transpose(1, 0, 3, 2).reshape(val.shape)
    assert np.abs(perm - val).max() < 1e-10


def test_bounded_correspondence_window_exact(rng):
    """Evaluating a symbol at a nilpotent point equals the extended transform
    of its operator at creations."""
    n = (2, 1)
    trunc = FockTruncation(n, [4, 4])
    sym = random_hermitian_symbol(rng, n, 2, 2, density=0.7)
    top = symbol_operator(sym, trunc)
    x = random_nilpotent_point(rng, n, 3, 0.8)
    lhs = evaluate_symbol(sym, x)
    rhs = berezin_transform(top, x)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_cbmap_keeps_nonzero_values_and_the_given_unit():
    """The map's symbol drops zero coefficients but keeps the unit when one
    is given, zero or not; a key that is not a quotient index pair is
    refused by the symbol."""
    n = (2, 1)
    g = identity_multiword(n)
    a = multiword([[1], []], n)
    b = multiword([[], [1]], n)
    sym = MultiToeplitzSymbol(n, 1, {(a, g): np.zeros((1, 1)), (g, a): [[0.5]], (b, g): [[0.0]]})
    mu = CbMapData(sym)
    assert list(mu.symbol.coeffs) == [(g, a)]
    assert len(sym) == 3  # the given symbol is left as it is
    np.testing.assert_array_equal(mu.unit, np.zeros((1, 1)))
    mu = CbMapData(sym, unit=np.zeros((1, 1)))
    assert list(mu.symbol.coeffs) == [(g, a), (g, g)]
    np.testing.assert_array_equal(mu.symbol.coeff(g, g), np.zeros((1, 1)))
    assert (mu.n, mu.e_dim, mu.max_total_len) == (n, 1, 1)
    with pytest.raises(ValueError):
        CbMapData(MultiToeplitzSymbol(n, 1, {(a, a): [[1.0]]}))
    with pytest.raises(ValueError):
        CbMapData(sym, unit=np.eye(2))


@pytest.mark.parametrize("bad", [
    {"coeff_bound": float("nan")},
    {"coeff_bound": float("inf")},
    {"coeff_bound": -1.0},
    {"per_factor_cap": (-1, 2)},
    {"per_factor_cap": (2,)},
    {"max_total_len": -1},
])
def test_cbmap_rejects_bad_metadata(bad):
    sym = MultiToeplitzSymbol.constant((2, 1), np.eye(1))
    with pytest.raises(ValueError):
        CbMapData(sym, **bad)


def test_poisson_transform_is_the_symbol_at_the_point(rng):
    """The Poisson transform evaluates the map's symbol at the point, bit for
    bit."""
    n = (2, 1)
    mu = CbMapData(random_hermitian_symbol(rng, n, 2, 3, density=0.6), coeff_bound=1.0)
    x = random_point(rng, n, 2, 0.3)
    np.testing.assert_array_equal(poisson_transform(mu, x).value, evaluate_symbol(mu.symbol, x))


@pytest.mark.parametrize("item", ["pluriharm.structure_positivity",
                                  "pluriharm.poisson_transform_cp"])
def test_structure_items_keep_the_letters_sparse(item):
    """verify-small (--degrees 3,3 --max-len 3) at seed 23: each item peaks
    below 8 MB under tracemalloc.  Dense N x N creation letters would not fit:
    they took the peaks to 63.3 and 11.4 MB."""
    import tracemalloc

    import scipy.linalg  # noqa: F401  first imports are not the item's memory
    import scipy.sparse.linalg  # noqa: F401

    from polyball import verify

    cfg = verify.RunConfig(n=(2, 1), degrees=(3, 3), max_len=3, seed=23)
    idx, fn = next((i, fn) for i, (name, fn) in enumerate(verify._IDENTITIES) if name == item)
    tracemalloc.start()
    try:
        fn(cfg, verify._rng(cfg, idx))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
