import numpy as np
import pytest
import scipy.linalg

from polyball import serialize, verify
from polyball._linalg import opnorm
from polyball.fock import FockTruncation, apply_creation, creation_matrix
from polyball.naimark import (
    GeneratorError,
    KernelNotPSDError,
    NaimarkDilation,
    dilation_verify,
    kernel_from_columns,
    kernel_from_generator,
    kernel_from_isometries,
    kernel_is_psd,
    naimark_dilate,
    word_columns,
)
from polyball.sampling import random_non_psd_kernel, random_psd_kernel
from polyball.words import (
    ShapeMismatchError,
    identity_multiword,
    lambda_membership,
    multiword,
    multiwords_up_to_total,
)


def delta_generator(n, e=1):
    g = identity_multiword(n)
    return {(g, g): np.eye(e)}


def rho_generator(rho, max_len):
    g = identity_multiword([1])
    gen = {}
    for m in range(2 * max_len + 1):
        w = multiword([[1] * m], [1])
        gen[(w, g)] = np.array([[rho ** m]])
        gen[(g, w)] = np.array([[rho ** m]])
    return gen


def test_delta_kernel_table():
    k = kernel_from_generator("left", delta_generator([1]), 4,
                              default=np.zeros((1, 1)))
    for m in range(5):
        for m2 in range(5):
            got = k.value(multiword([[1] * m], [1]), multiword([[1] * m2], [1]))[0, 0]
            assert got == (1.0 if m == m2 else 0.0)


def test_rho_kernel_structure():
    k = kernel_from_generator("left", rho_generator(0.6, 5), 5)
    for m in range(6):
        for m2 in range(6):
            got = k.value(multiword([[1] * m], [1]), multiword([[1] * m2], [1]))[0, 0]
            assert abs(got - 0.6 ** abs(m - m2)) < 1e-14


def test_generator_validation():
    g = identity_multiword([1])
    w = multiword([[1]], [1])
    with pytest.raises(GeneratorError):
        kernel_from_generator("left", {(g, g): 2 * np.eye(1)}, 2,
                              default=np.zeros((1, 1)))
    with pytest.raises(GeneratorError):
        # missing adjoint partner
        kernel_from_generator("left", {(g, g): np.eye(1), (w, g): np.eye(1)}, 2,
                              default=np.zeros((1, 1)))
    with pytest.raises(GeneratorError):
        # non-Hermitian pairing
        kernel_from_generator(
            "left",
            {(g, g): np.eye(1), (w, g): [[1.0j]], (g, w): [[1.0j]]},
            2,
            default=np.zeros((1, 1)),
        )
    with pytest.raises(GeneratorError):
        # missing value without a default
        kernel_from_generator("left", delta_generator([1]), 2)


def test_psd_reports():
    k = kernel_from_generator("left", delta_generator([1]), 4,
                              default=np.zeros((1, 1)))
    rep = kernel_is_psd(k)
    assert rep.psd and abs(rep.min_eig - 1.0) < 1e-14

    k = kernel_from_generator("left", rho_generator(0.6, 5), 5)
    assert kernel_is_psd(k).psd

    # contractivity violation: the principal 2x2 block [[1, 2], [2, 1]]
    g = identity_multiword([1])
    w = multiword([[1]], [1])
    gen = {(g, g): np.eye(1), (w, g): [[2.0]], (g, w): [[2.0]]}
    k = kernel_from_generator("left", gen, 2, default=np.zeros((1, 1)))
    rep = kernel_is_psd(k)
    assert not rep.psd and rep.min_eig <= -1.0 + 1e-12


def test_delta_dilation_is_truncated_shift():
    k = kernel_from_generator("left", delta_generator([1]), 4,
                              default=np.zeros((1, 1)))
    d = naimark_dilate(k)
    assert d.space_dim == 5
    assert d.window_len == 3
    rep = dilation_verify(d, k)
    assert rep.max_defect < 1e-12 and rep.minimal
    # reproduction on the window against the explicit shift oracle
    shift = np.zeros((5, 5))
    for m in range(4):
        shift[m + 1, m] = 1.0
    for m in range(4):
        for m2 in range(4):
            want = (np.linalg.matrix_power(shift, m).T @ np.linalg.matrix_power(shift, m2))[0, 0]
            got = d.reproduce(multiword([[1] * m], [1]), multiword([[1] * m2], [1]))[0, 0]
            assert abs(got - want) < 1e-12


def test_rho_dilation_reproduces():
    k = kernel_from_generator("left", rho_generator(0.6, 5), 5)
    d = naimark_dilate(k)
    rep = dilation_verify(d, k)
    assert rep.reproduction_error < 1e-9
    assert rep.isometry_defect < 1e-9
    assert rep.minimal


def test_commuting_shifts_dilation():
    t = FockTruncation([1, 1], [6, 6])
    v = [[creation_matrix(t, "left", 1, 1)], [creation_matrix(t, "left", 2, 1)]]
    e = np.zeros((t.dim, 1))
    e[0, 0] = 1.0
    k = kernel_from_isometries("left", v, e, 3)
    # vacuum compression of commuting shifts is the delta kernel
    kd = kernel_from_generator("left", delta_generator([1, 1]), 3,
                               default=np.zeros((1, 1)))
    assert k.max_difference(kd) < 1e-14
    d = naimark_dilate(k)
    rep = dilation_verify(d, k)
    assert rep.commutator_defect < 1e-9
    assert rep.reproduction_error < 1e-9


def test_random_psd_kernels_dilate(rng):
    for side in ("left", "right"):
        for shape in ((2,), (2, 1)):
            k = random_psd_kernel(rng, side, shape, 2, 3)
            assert kernel_is_psd(k).psd
            d = naimark_dilate(k)
            rep = dilation_verify(d, k)
            assert rep.reproduction_error < 1e-8, (side, shape)
            assert rep.isometry_defect < 1e-9
            assert rep.commutator_defect < 1e-9
            assert rep.minimal


def test_non_psd_refused(rng):
    k = random_non_psd_kernel(rng, "left", (2, 1), 2, 3)
    assert not kernel_is_psd(k).psd
    with pytest.raises(KernelNotPSDError):
        naimark_dilate(k)


def test_right_kernel_duality(rng):
    """Dilating a right kernel through reversal reproduces the original
    table: the defect report checks Gamma(s~, w~) = P V_s* V_w P."""
    k = random_psd_kernel(rng, "right", (2, 1), 2, 3)
    d = naimark_dilate(k)
    rep = dilation_verify(d, k)
    assert rep.reproduction_error < 1e-9
    # and it coincides with dilating the reversed left kernel directly
    kl = k.reversed()
    dl = naimark_dilate(kl)
    repl = dilation_verify(dl, kl)
    assert repl.reproduction_error < 1e-9
    for s in multiwords_up_to_total(k.n, 2):
        for w in multiwords_up_to_total(k.n, 2):
            np.testing.assert_allclose(
                d.reproduce(s, w), dl.reproduce(s, w), atol=1e-9
            )


def test_nonminimal_dilation_detected():
    k = kernel_from_generator("left", delta_generator([1]), 3,
                              default=np.zeros((1, 1)))
    d = naimark_dilate(k)
    pad = d.space_dim + 1
    grown = NaimarkDilation(
        side=d.side,
        n=d.n,
        e_dim=d.e_dim,
        space_dim=pad,
        isometries=[[np.pad(m, ((0, 1), (0, 1))) for m in row] for row in d.isometries],
        embedding=np.pad(d.embedding, ((0, 1), (0, 0))),
        window_len=d.window_len,
        monomials=d.monomials,
        frame=np.pad(d.frame, ((0, 1), (0, 0))),
    )
    rep = dilation_verify(grown, k)
    assert not rep.minimal and rep.dimension_gap == 1


def test_minimal_dilations_unitarily_equivalent(rng):
    """Two independently built minimal dilations of one kernel are related by
    a unitary matched on the monomial frames."""
    k = random_psd_kernel(rng, "left", (2,), 1, 3)
    d1 = naimark_dilate(k)
    # second construction: permute the Gram before factoring
    g = k.gram()
    m = g.shape[0]
    perm = np.arange(m)[::-1]
    gp = g[np.ix_(perm, perm)]
    lam, u = np.linalg.eigh(0.5 * (gp + gp.conj().T))
    keep = lam > 1e-10 * max(lam[-1], 1.0)
    frame_p = np.sqrt(lam[keep])[:, None] * u[:, keep].conj().T
    frame2 = np.zeros_like(frame_p)
    frame2[:, perm] = frame_p
    w = frame2 @ np.linalg.pinv(d1.frame)
    assert np.abs(w.conj().T @ w - np.eye(d1.space_dim)).max() < 1e-8
    np.testing.assert_allclose(w @ d1.frame, frame2, atol=1e-8)


def _columns_by_word(letter, e_basis, n, max_len):
    """Per-word reference: apply the letters of w right to left, last factor
    first, starting from E."""
    cols = {}
    for w in multiwords_up_to_total(n, max_len):
        m = e_basis
        for i in range(len(n), 0, -1):
            for j in reversed(w.parts[i - 1].letters):
                m = letter(i, j, m)
        cols[w] = m
    return cols


def _table_by_word(side, cols):
    """Per-pair reference table (V_s E)* (V_w E), right side at (s~, w~)."""
    values = {}
    for s in cols:
        for w in cols:
            v = cols[s].conj().T @ cols[w]
            key = (s.reverse(), w.reverse()) if side == "right" else (s, w)
            if np.max(np.abs(v)) > 0:
                values[key] = v
    return values


def _assert_same_table(values, ref):
    assert list(values) == list(ref)
    for key, v in ref.items():
        np.testing.assert_array_equal(values[key], v)


def _assert_kernel_is_table(k, ref):
    """Every monomial pair's entry equals the table's, zero off the table."""
    zero = np.zeros((k.e_dim, k.e_dim))
    for s in k.monomials:
        for w in k.monomials:
            np.testing.assert_array_equal(k.value(s, w), ref.get((s, w), zero))


@pytest.mark.parametrize("action", ["dense", "matrix-free"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [(2, 1), (1, 1, 2)])
def test_word_columns_match_per_word_loop(n, side, action):
    """The prefix-built columns and their kernel table equal the per-word
    loop exactly, for dense isometries and matrix-free creations."""
    rng = np.random.default_rng(3)
    max_len = 3
    t = FockTruncation(n, [max_len + 1] * len(n))
    raw = rng.standard_normal((t.dim, 2)) + 1j * rng.standard_normal((t.dim, 2))
    e_basis = np.linalg.qr(raw)[0]
    if action == "dense":
        V = [[creation_matrix(t, "left", i, j) for j in range(1, ni + 1)]
             for i, ni in enumerate(n, start=1)]

        def letter(i, j, m):
            return V[i - 1][j - 1] @ m
    else:
        def letter(i, j, m):
            return apply_creation(t, "left", i, j, False, m)

    cols = word_columns(letter, e_basis, n, max_len)
    ref = _columns_by_word(letter, e_basis, n, max_len)
    _assert_same_table(cols, ref)
    k = kernel_from_columns(side, n, max_len, cols)
    assert (k.side, k.n, k.e_dim, k.max_len) == (side, n, 2, max_len)
    table = _table_by_word(side, ref)
    _assert_kernel_is_table(k, table)
    if action == "dense":
        _assert_kernel_is_table(kernel_from_isometries(side, V, e_basis, max_len), table)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [(2, 1), (1, 1, 2)])
def test_random_psd_kernel_matches_per_word_loop(n, side):
    """random_psd_kernel against its former inline construction: the same
    draws, matrix-free columns applied word by word, the same table."""
    max_len, e_dim = 3, 2
    k = random_psd_kernel(np.random.default_rng(5), side, n, e_dim, max_len)
    rng = np.random.default_rng(5)
    t = FockTruncation(n, [max_len + 2] * len(n))
    low = [t.basis_index(w) for w in multiwords_up_to_total(n, 1)]
    raw = np.zeros((t.dim, e_dim), dtype=complex)
    raw[low, :] = (rng.standard_normal((len(low), e_dim))
                   + 1j * rng.standard_normal((len(low), e_dim)))
    e_basis = np.linalg.qr(raw)[0][:, :e_dim]

    def letter(i, j, m):
        return apply_creation(t, "left", i, j, False, m)

    ref = _table_by_word(side, _columns_by_word(letter, e_basis, n, max_len))
    _assert_kernel_is_table(k, ref)


@pytest.mark.parametrize("source", ["generator", "columns"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_gram_layout(rng, side, source):
    """Block (p, q) of the Gram is the entry at (monomials[p], monomials[q]);
    reversal moves it to the reversed words and undoes itself bit for bit."""
    k = random_psd_kernel(rng, side, (2, 1), 2, 3)
    if source == "generator":
        k = serialize.kernel_from_json(serialize.kernel_to_json(k))
    g, e, r = k.gram(), k.e_dim, k.reversed()
    assert r.side != k.side
    for p, s in enumerate(k.monomials):
        for q, w in enumerate(k.monomials):
            np.testing.assert_array_equal(g[p * e:(p + 1) * e, q * e:(q + 1) * e], k.value(s, w))
            np.testing.assert_array_equal(r.value(s.reverse(), w.reverse()), k.value(s, w))
    rr = r.reversed()
    assert rr.side == k.side and rr.gram().tobytes() == g.tobytes()


def test_value_is_zero_beyond_max_len():
    k = kernel_from_generator("left", rho_generator(0.6, 2), 2)
    g, w2, w3 = (multiword([[1] * m], [1]) for m in (0, 2, 3))
    assert k.value(g, w2)[0, 0] == pytest.approx(0.36)
    for s, w in ((w3, g), (g, w3), (w3, w3)):
        np.testing.assert_array_equal(k.value(s, w), np.zeros((1, 1)))


def test_max_difference_refuses_other_words():
    """n=(2,) and n=(1,1) at max_len 1 have Grams of one size over different
    words, so their difference means nothing."""
    a = kernel_from_generator("left", delta_generator([2]), 1, default=np.zeros((1, 1)))
    b = kernel_from_generator("left", delta_generator([1, 1]), 1, default=np.zeros((1, 1)))
    assert a.gram().shape == b.gram().shape
    with pytest.raises(ShapeMismatchError):
        a.max_difference(b)


@pytest.mark.parametrize("side", ["left", "right"])
def test_kernel_to_json_lists_the_nonzero_lambda_blocks(side):
    """The serialized generator is exactly the per-pair table's nonzero
    entries at coefficient index pairs, in sorted order."""
    n, max_len = (2, 1), 3
    t = FockTruncation(n, [max_len + 2] * len(n))
    V = [[creation_matrix(t, "left", i, j) for j in range(1, ni + 1)]
         for i, ni in enumerate(n, start=1)]
    low = [t.basis_index(w) for w in multiwords_up_to_total(n, 1)]
    raw = np.zeros((t.dim, 2), dtype=complex)
    raw[low] = np.random.default_rng(7).standard_normal((len(low), 2))
    e_basis = np.linalg.qr(raw)[0]
    table = _table_by_word(side, _columns_by_word(lambda i, j, m: V[i - 1][j - 1] @ m,
                                                  e_basis, n, max_len))
    k = kernel_from_isometries(side, V, e_basis, max_len)
    gen = serialize.kernel_to_json(k)["generator"]
    got = [(serialize.multiword_from_json(x["alpha"], n), serialize.multiword_from_json(x["beta"], n))
           for x in gen]
    want = [key for key in table if lambda_membership(*key)]
    lambda_pairs = sum(lambda_membership(s, w) for s in k.monomials for w in k.monomials)
    assert 0 < len(want) < lambda_pairs  # some coefficient index pairs hold zero
    assert len(got) == len(want) and set(got) == set(want)
    assert got == sorted(got, key=lambda ab: (serialize.multiword_to_json(ab[0]),
                                              serialize.multiword_to_json(ab[1])))
    for x, key in zip(gen, got):
        np.testing.assert_array_equal(serialize.matrix_from_json(x["matrix"], 2), table[key])


@pytest.mark.parametrize("side", ["left", "right"])
def test_frame_is_the_graded_cholesky_factor(rng, side):
    """On a full-rank Gram the frame is its Cholesky factor in monomial
    order (of the reversed kernel's Gram on the right side)."""
    k = random_psd_kernel(rng, side, (2, 1), 2, 3)
    g = (k.reversed() if side == "right" else k).gram()
    d = naimark_dilate(k)
    assert d.space_dim == g.shape[0]
    want = scipy.linalg.cholesky(0.5 * (g + g.conj().T))
    assert np.abs(d.frame - want).max() <= 1e-12 * np.abs(want).max()


def test_rank_one_kernel_has_one_row():
    """The all-ones kernel (one generator, every pair comparable) has rank
    one: only the unit column adds a row, and R* R = G."""
    k = kernel_from_generator("left", rho_generator(1.0, 4), 4)
    g = k.gram()
    assert np.all(g == 1.0)
    d = naimark_dilate(k)
    assert d.frame.shape == (1, g.shape[0])
    np.testing.assert_allclose(d.frame.conj().T @ d.frame, g, atol=1e-12)
    np.testing.assert_allclose(d.isometries[0][0], [[1.0]], atol=1e-12)
    rep = dilation_verify(d, k)
    assert rep.max_defect < 1e-12 and rep.minimal


def test_dependent_columns_add_no_row():
    """A unitary on C^3 compressed to one vector: the Gram over words up to
    length 5 has rank 3, so the three later word columns are skipped."""
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    e = (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
    k = kernel_from_isometries("left", [[u]], e / np.linalg.norm(e), 5)
    g = k.gram()
    d = naimark_dilate(k)
    assert d.space_dim == 3
    np.testing.assert_array_equal(d.frame[:, :3], np.triu(d.frame[:, :3]))
    np.testing.assert_allclose(d.frame.conj().T @ d.frame, g, atol=1e-12)
    rep = dilation_verify(d, k)
    assert rep.max_defect < 1e-10 and rep.minimal


def _projector_defects(d, rank_tol=1e-10):
    """The former isometry and commutator defects: orthoprojectors onto the
    spans of the frame's window columns and of the words one shorter, by an
    SVD rank cut."""
    e = d.e_dim

    def projector(max_len):
        idx = [p * e + a for p, w in enumerate(d.monomials)
               if w.total_length <= max_len for a in range(e)]
        if not idx:
            return np.zeros((d.space_dim, d.space_dim))
        q, sv, _ = np.linalg.svd(d.frame[:, idx], full_matrices=False)
        q = q[:, sv > rank_tol * max(float(sv[0]), 1.0)]
        return q @ q.conj().T

    p_dom, p2 = projector(d.window_len), projector(d.window_len - 1)
    eye = np.eye(d.space_dim)
    iso = max(opnorm(p_dom @ (a.conj().T @ b - (eye if s == t else 0.0 * eye)) @ p_dom)
              for row in d.isometries
              for s, a in enumerate(row) for t, b in enumerate(row))
    comm = max((opnorm((a @ b - b @ a) @ p2)
                for i, row in enumerate(d.isometries) for row2 in d.isometries[i + 1:]
                for a in row for b in row2), default=0.0)
    return iso, comm


def test_prefix_defects_match_projector_formulas(rng):
    kernels = [random_psd_kernel(rng, side, n, 2, max_len)
               for side in ("left", "right") for n in ((2,), (2, 1), (1, 1, 2))
               for max_len in (2, 3)]
    # two ill-conditioned max_len-5 kernels, isometry defects 1.0e-5 and 2.9e-5
    recipe = np.random.default_rng(14)
    kernels += [random_psd_kernel(recipe, side, (2, 1), 2, 5) for side in ("left", "right")]
    for k in kernels:
        d = naimark_dilate(k)
        rep = dilation_verify(d, k)
        iso, comm = _projector_defects(d)
        assert abs(rep.isometry_defect - iso) <= 1e-12
        assert abs(rep.commutator_defect - comm) <= 1e-12


def test_ill_conditioned_gram_keeps_isometries():
    """An L=6 kernel whose Gram has no spectral gap (smallest eigenvalue
    5e-11 of 1): an eigenvalue rank cut gave an isometry defect of 1.9e-2."""
    rng = np.random.default_rng(1)
    random_psd_kernel(rng, "left", (2, 1), 2, 5)
    k = random_psd_kernel(rng, "left", (2, 1), 2, 6)
    d = naimark_dilate(k)
    assert d.space_dim == 494
    rep = dilation_verify(d, k)
    assert rep.isometry_defect <= 1e-7
    assert rep.reproduction_error <= 1e-12 and rep.minimal


def test_verify_small_seed_84_dilation_item_passes():
    """verify --n 2,1 --degrees 3,3 --max-len 3 --seed 84: the dilation item
    once failed with 4.7e-4 against 1e-8."""
    cfg = verify.RunConfig(n=(2, 1), degrees=(3, 3), max_len=3, seed=84)
    idx, fn = next((i, fn) for i, (name, fn) in enumerate(verify._IDENTITIES)
                   if name == "naimark.dilation_reproduction")
    _, err, tol = fn(cfg, verify._rng(cfg, idx))
    assert err <= tol
