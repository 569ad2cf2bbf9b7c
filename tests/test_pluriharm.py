import numpy as np
import pytest

from polyball._linalg import min_eig_hermitian
from polyball.berezin import PolyballPoint, berezin_transform, cauchy_operator, pair_transforms
from polyball.fock import FockTruncation, creation_matrix, creation_tuple, word_operator
from polyball.naimark import GeneratorError, kernel_from_generator, naimark_dilate
from polyball.pluriharm import (
    CbMapData,
    fantappie_transform,
    from_row_isometries,
    gamma_kernel,
    herglotz_transform,
    nu_trace_form,
    poisson_transform,
    schur_positivity,
    universal_compression,
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


def vacuum_state(n):
    """The map data of the vacuum state: the unit 1, every other value 0."""
    return CbMapData(MultiToeplitzSymbol(n, 1), unit=np.eye(1))


def tridiagonal_symbol(c):
    n = [1]
    g = identity_multiword(n)
    w = multiword([[1]], n)
    sym = MultiToeplitzSymbol(n, 1)
    sym[g, g] = [[1.0]]
    sym[w, g] = [[c]]
    sym[g, w] = [[np.conj(c)]]
    return sym


def _constant(n, matrix):
    """The symbol with the single value ``matrix`` at the pair of unit words."""
    g = identity_multiword(n)
    return MultiToeplitzSymbol(n, matrix.shape[0], {(g, g): matrix})


def test_gamma_kernel_constant():
    f = _constant([2, 1], np.eye(1))
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


PAIR_FILL_SHAPES = ["small", "verify-small", "verify-small-structure", "left", "n=(1,1,2)",
                    "e=1", "zero-block"]


def _pair_fill_case(shape):
    """(symbols, max_len) of a ``PAIR_FILL_SHAPES`` case, drawn from seed 8;
    "left" draws the symbol of "small"."""
    rng = np.random.default_rng(8)
    n = (2, 1)
    if shape in ("small", "left"):
        return [random_hermitian_symbol(rng, n, 2, 2)], 2
    if shape == "verify-small":
        return [random_hermitian_symbol(rng, n, 2, 3, density=0.5) for _ in range(3)], 3
    if shape == "verify-small-structure":
        t = FockTruncation(n, [6, 6])
        v = [[creation_matrix(t, "right", i, j) for j in range(1, ni + 1)]
             for i, ni in enumerate(n, start=1)]
        e_basis = np.linalg.qr(rng.standard_normal((t.dim, 2)))[0]
        return [from_row_isometries(v, e_basis, 3)], 3
    if shape == "n=(1,1,2)":
        return [random_hermitian_symbol(rng, (1, 1, 2), 2, 3, density=0.6)], 3
    if shape == "e=1":
        return [random_hermitian_symbol(rng, n, 1, 3, density=0.6)], 3
    sym = random_hermitian_symbol(rng, n, 2, 2)
    a, g = multiword([[2], [1]], n), identity_multiword(n)
    sym[a, g] = sym[g, a] = np.full((2, 2), complex(-0.0, -0.0))
    return [sym], 3


@pytest.mark.parametrize("shape", PAIR_FILL_SHAPES)
def test_gamma_kernel_matches_pair_fill(shape):
    """The Gram filled per quotient is bitwise the one of the per-pair
    ``compare`` fill: at a small shape, at the shapes of the verify-small
    Schur and structure items (n=(2,1), L=3, e=2), on the left side, with
    three factors, with scalar coefficients, and with an explicitly zero
    coefficient block (of -0.0 entries), which must leave +0.0 in the Gram.
    On the right side the kernel is ``gamma_kernel``."""
    side = "left" if shape == "left" else "right"
    syms, max_len = _pair_fill_case(shape)
    for sym in syms:
        for r in (0.3, 0.6, 0.9, 1.0):
            k = (gamma_kernel(sym, r, max_len) if side == "right" else
                 kernel_from_generator(side, sym.scaled(r), max_len, require_unit=False))
            got = k.gram()
            assert got.tobytes() == _gamma_gram_by_pair_fill(sym, r, max_len, side).tobytes()
    if shape == "zero-block":
        n = syms[0].n
        block = k.value(multiword([[2], [1]], n), identity_multiword(n))
        assert not block.any() and not np.signbit(block.view(float)).any()


@pytest.mark.parametrize("shape", [s for s in PAIR_FILL_SHAPES if s != "left"])
def test_schur_positivity_is_bitwise_the_per_r_oracle(shape):
    """Both smallest eigenvalues have every bit of the per-r assembly's: the
    dense symbol operator at the r-scaled creations on the total-length
    window, and the Gram of ``gamma_kernel``, at the shapes of
    ``test_gamma_kernel_matches_pair_fill`` (the Schur test is right-sided,
    so "left" would repeat "small"), its -0.0 zero block included."""
    syms, max_len = _pair_fill_case(shape)
    grid = (0.3, 0.6, 0.9, 1.0)
    for sym in syms:
        trunc = FockTruncation(sym.n, [max_len] * len(sym.n))
        keep = np.repeat(trunc.total_length_mask(max_len), sym.e_dim)
        rep = schur_positivity(sym, grid, max_len)
        for r, p in zip(grid, rep.points):
            op = min_eig_hermitian(symbol_operator(sym, trunc, r).dense()[np.ix_(keep, keep)])
            gram = min_eig_hermitian(gamma_kernel(sym, r, max_len).gram())
            assert np.float64(p.operator_min_eig).tobytes() == np.float64(op).tobytes()
            assert np.float64(p.gram_min_eig).tobytes() == np.float64(gram).tobytes()


def test_schur_positivity_builds_no_sparse_matrix(refuse_sparse, rng):
    """The operator window and the Gram are scattered onto dense zeros: no
    SciPy sparse matrix of any size is built, and none is multiplied."""
    sym = random_hermitian_symbol(rng, (2, 1), 2, 3, density=0.5)
    refuse_sparse(dim=1)
    rep = schur_positivity(sym, [0.3, 0.6, 0.9], 3)
    assert rep.all_agree


@pytest.mark.parametrize("defect", [1e-6, np.nan])
def test_schur_positivity_refuses_a_non_hermitian_symbol(defect):
    """The Hermitian check runs once per call on the symbol itself, and a NaN
    defect is refused like a large one."""
    f = tridiagonal_symbol(0.5)
    f[identity_multiword([1]), multiword([[1]], [1])] = [[0.5 + defect]]
    with pytest.raises(GeneratorError, match="not Hermitian"):
        schur_positivity(f, [0.3, 0.6], 2)


def test_gamma_kernel_refuses_non_hermitian_symbol():
    """The generator check covers the whole scaled symbol: a coefficient
    without its adjoint partner is refused."""
    f = tridiagonal_symbol(0.5)
    f.coeffs.pop((identity_multiword([1]), multiword([[1]], [1])))
    with pytest.raises(GeneratorError, match="not Hermitian"):
        gamma_kernel(f, 0.5, 2)


def test_schur_identity_function():
    rep = schur_positivity(_constant([2], np.eye(1)),
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


def test_schur_positivity_compresses_before_densifying(refuse_dense, rng):
    """At n=(2,1), max-len 3 the symbol operator is compressed to the
    total-length window (26 x 26, e=1) before it is densified: no dense
    array at the truncation's dimension (60) is made, and the operator's
    smallest eigenvalues are those of the densified operator's window."""
    sym = random_hermitian_symbol(rng, (2, 1), 1, 3, density=0.5)
    trunc = FockTruncation((2, 1), (3, 3))
    window = trunc.total_length_mask(3)
    want = [min_eig_hermitian(symbol_operator(sym, trunc, r).dense()[np.ix_(window, window)])
            for r in (0.3, 0.9)]
    refuse_dense(trunc.dim)
    rep = schur_positivity(sym, [0.3, 0.9], 3)
    assert [p.operator_min_eig for p in rep.points] == want


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


UNIVERSAL_SHAPES = [((2, 1), (3, 3)), ((1,), (5,)), ((3,), (3,)), ((1, 1, 2), (2, 2, 2)),
                    ((2, 2), (3, 2))]


def _embedding(rng, t, e, support):
    """A random isometric embedding of C^e on the words of total length <= support."""
    low = np.flatnonzero(t.total_length_mask(support))
    raw = np.zeros((t.dim, e), dtype=complex)
    raw[low] = rng.standard_normal((low.size, e)) + 1j * rng.standard_normal((low.size, e))
    return np.linalg.qr(raw)[0]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees", UNIVERSAL_SHAPES)
def test_universal_compression_is_from_row_isometries_of_the_creations(n, degrees, side):
    """The gather gives the keys of ``from_row_isometries`` on the creation
    tuple, in its order, and its values to rounding, for e = 1, 2, 3 and
    embeddings on the words of total length <= 1 and <= 2."""
    rng = np.random.default_rng([len(n), *degrees])
    t = FockTruncation(n, degrees)
    for e in (1, 2, 3):
        for support in (1, 2):
            w = _embedding(rng, t, e, support)
            got = universal_compression(t, side, w, 3)
            want = from_row_isometries(creation_tuple(t, side), w, 3)
            assert list(got.coeffs) == list(want.coeffs)
            assert got.max_difference(want) <= 1e-15


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees", UNIVERSAL_SHAPES)
def test_universal_compression_on_the_support_box_is_the_full_gather(n, degrees, side):
    """Gathering W on the whole truncation, every lambda pair of total
    length <= 4 at its id there, gives the same keys and, to rounding, the
    same values as the gather on the smallest box that holds W's support
    (the segment sums group the extra zero products differently)."""
    t = FockTruncation(n, degrees)
    w = _embedding(np.random.default_rng(len(n)), t, 2, 2)
    pairs = lambda_pairs_up_to_total(n, 4)
    full = pair_transforms(w[:, None, :], [t.pair_id(a, b) for a, b in pairs], t, side)
    want = {pairs[j]: full[j] for j in np.flatnonzero(full.any(axis=(1, 2)))}
    got = universal_compression(t, side, w, 4)
    assert list(got.coeffs) == list(want)
    assert max(np.abs(got.coeffs[key] - c).max() for key, c in want.items()) <= 1e-15


def _compression_by_words(trunc, side, w, max_total_len):
    """The former word route of ``universal_compression``: each support row
    to its basis word, and back to its index on the smallest box holding
    them.  Returns the box and the nonzero values by key."""
    rows = np.flatnonzero(w.any(axis=1))
    words = [trunc.basis_word(int(f)) for f in rows]
    box = FockTruncation(trunc.n, [max((len(mw.parts[i]) for mw in words), default=0)
                                   for i in range(trunc.k)])
    k = np.zeros((box.dim, 1, w.shape[1]), dtype=complex)
    k[[box.basis_index(mw) for mw in words], 0] = w[rows]
    pairs = lambda_pairs_up_to_total(trunc.n, max_total_len)
    values = pair_transforms(k, [box.pair_id(a, b) for a, b in pairs], box, side)
    return box, {pairs[j]: values[j] for j in np.flatnonzero(values.any(axis=(1, 2)))}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees, budget", [
    ((2, 1), (4, 3), (2, 2)), ((3,), (3,), (1,)), ((1, 1, 2), (3, 2, 2), (1, 0, 1)),
    ((2, 2), (3, 3), (1, 2)), ((1,), (5,), (3,)), ((2, 1, 1), (2, 2, 3), (1, 1, 2))])
def test_universal_compression_indices_are_the_word_indices(n, degrees, budget, side):
    """On a truncation deeper than the support's box, a support row's index
    on the box, by integer arithmetic on the factor indices, is
    ``box.basis_index(trunc.basis_word(f))``, and the compression has every
    bit of the former word route."""
    t = FockTruncation(n, degrees)
    rng = np.random.default_rng([len(n), *degrees])
    window = np.flatnonzero(t.window_mask(budget))
    rows = np.sort(rng.choice(window, size=min(8, window.size), replace=False))
    w = np.zeros((t.dim, 2), dtype=complex)
    w[rows] = rng.standard_normal((rows.size, 2)) + 1j * rng.standard_normal((rows.size, 2))
    box, want = _compression_by_words(t, side, w, 3)
    assert box.dim < t.dim
    on_box = np.ravel_multi_index(np.unravel_index(rows, t.factor_dims), box.factor_dims)
    assert on_box.tolist() == [box.basis_index(t.basis_word(int(f))) for f in rows]
    got = universal_compression(t, side, w, 3)
    assert list(got.coeffs) == list(want)
    assert all(got.coeffs[key].tobytes() == c.tobytes() for key, c in want.items())


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
    tau = vacuum_state([2, 1])
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


def test_scaled_map_data_limits():
    """The map data of the r-scaled family, ``CbMapData`` of the r-scaled
    symbol: at r = 0 only the unit survives, at r = 1 it is the map itself,
    and its Poisson transform at z is the map's at r z."""
    mu = CbMapData.point_mass([1.0], 6)
    z = PolyballPoint.from_scalars([[0.4]])
    m0 = CbMapData(mu.symbol.scaled(0.0))
    assert len(m0.symbol) == 1  # only the unit survives
    m1 = CbMapData(mu.symbol.scaled(1.0))
    assert m1.symbol.hermitian_defect() < 1e-14
    np.testing.assert_allclose(
        poisson_transform(m1, z).value, poisson_transform(mu, z).value
    )
    r = 0.6
    np.testing.assert_allclose(
        poisson_transform(CbMapData(mu.symbol.scaled(r)), z).value,
        poisson_transform(mu, z.scaled(r)).value,
        atol=1e-12,
    )


def test_scaled_coefficient_arithmetic():
    """A coefficient at a key of total length 3 scales by r^3."""
    n = (2, 1)
    g = identity_multiword(n)
    a = multiword([[1, 2], [1]], n)
    sym = MultiToeplitzSymbol(n, 1)
    sym[g, g] = [[1.0]]
    sym[a, g] = [[1.0]]
    sym[g, a] = [[1.0]]
    assert abs(sym.scaled(0.5).coeff(a, g)[0, 0] - 0.125) < 1e-15


def test_nu_trace_form(rng):
    n = (2, 1)
    trunc = FockTruncation(n, [3, 3])
    sym = random_hermitian_symbol(rng, n, 2, 3, density=0.5)
    g = identity_multiword(n)
    words = [a for a, b in sym.coeffs if b.is_identity]
    for r in (0.3, 0.8):
        scaled = sym.scaled(r)
        blocks = nu_trace_form(sym, r, trunc, words)
        assert len(blocks) == len(words)
        for a, got in zip(words, blocks):
            assert np.abs(got - scaled.coeff(a, g)).max() < 1e-12


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


def _fantappie_per_key(mu, x):
    """The Fantappie transform as a loop of its own: the sum over the keys
    (a, e) of kron(X_a, value), onto zeros."""
    out = np.zeros((x.h_dim * mu.e_dim,) * 2, dtype=complex)
    for (a, b), v in mu.symbol.items():
        if b.is_identity:
            out += np.kron(x.monomial(a), v)
    return out


@pytest.mark.parametrize("kind", ["inside", "nilpotent"])
@pytest.mark.parametrize("h", [1, 3])
@pytest.mark.parametrize("n", [(2, 1), (1, 1, 2)])
def test_fantappie_and_herglotz_are_the_per_key_sums(n, h, kind):
    """The creation-only part of the symbol evaluated at the point has every
    bit of the per-key sum of kron(X_a, value), and the Herglotz transform
    is twice it minus the unit, also when a value holds -0.0 and when the
    point's long words vanish."""
    rng = np.random.default_rng([len(n), h])
    g = identity_multiword(n)
    sym = MultiToeplitzSymbol(n, 2)
    sym[g, g] = np.eye(2)
    for a, _ in lambda_pairs_up_to_total(n, 3):
        if not a.is_identity:
            sym[a, g] = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    mu = CbMapData.from_holomorphic(sym)
    first = next(a for a, _ in sym.coeffs if a.total_length == 2)
    mu.symbol[first, g] = np.array([[complex(-0.0, -0.0), 0.5], [-0.0, -0.25j]])
    assert np.signbit(mu.symbol.coeff(first, g)[0, 0].real)
    if kind == "inside":
        x = random_point(rng, n, h, 0.5)
    else:  # at h = 1 the jointly nilpotent point is zero
        x = random_nilpotent_point(rng, n, h, 0.7) if h > 1 else PolyballPoint(
            [[np.zeros((1, 1))] * ni for ni in n])
    want = _fantappie_per_key(mu, x)
    f = fantappie_transform(mu, x).value
    assert f.tobytes() == want.tobytes()
    herglotz = 2.0 * want - np.kron(np.eye(h, dtype=complex), mu.unit)
    assert herglotz_transform(mu, x).value.tobytes() == herglotz.tobytes()


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
    raw = np.zeros((t.dim, 2), dtype=complex)
    for w in multiwords_up_to_total(n, 1):
        raw[t.basis_index(w), :] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    wmat, _ = np.linalg.qr(raw)
    wmat = wmat[:, :2]
    mu = CbMapData(universal_compression(t, "right", wmat, cap), max_total_len=cap)
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
    sym = _constant((2, 1), np.eye(1))
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
    tracemalloc.start()
    try:
        verify.run_item(item, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
