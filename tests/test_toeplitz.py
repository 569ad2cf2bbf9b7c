import numpy as np
import pytest
import scipy.sparse

from polyball._linalg import opnorm
from polyball.berezin import PolyballPoint, creation_point, poisson_window
from polyball.fock import (FockOperator, FockTruncation, creation_tuple, monomial_indices,
                           word_matrix, word_operator)
from polyball.toeplitz import (
    MultiToeplitzSymbol,
    creation_pair_symbol,
    evaluate_symbol,
    extract_symbol,
    is_k_multi_toeplitz,
    norm_on_grid,
    symbol_operator,
)
from polyball.words import (
    ShapeMismatchError,
    identity_multiword,
    lambda_pairs_up_to_total,
    lambda_pairs_within_degrees,
    multiword,
)
from polyball.sampling import random_creation_polynomial, random_hermitian_symbol


def _constant(n, matrix):
    """The symbol with the single value ``matrix`` at the pair of unit words."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    g = identity_multiword(n)
    return MultiToeplitzSymbol(n, matrix.shape[0], {(g, g): matrix})


def _coefficient(op, a, b):
    """The Fourier coefficient of ``op`` at the index pair (a, b): its block
    at basis row a and basis column b."""
    return op.blocks(op.trunc.basis_index(a), op.trunc.basis_index(b))


def test_word_operators_are_toeplitz():
    t = FockTruncation([2, 2], [3, 3])
    for a, b in lambda_pairs_up_to_total(t.n, 3):
        rep = is_k_multi_toeplitz(word_operator(t, a, b))
        assert rep.passed and rep.max_violation == 0.0


def test_membership_keeps_the_coefficient_blocks(rng):
    """With a coefficient space (e = 2) a Hermitian symbol's operator passes,
    and coefficient (x) S_1 S_1* fails by max|coefficient| times the scalar
    operator's violation: each e x e block is read in place."""
    t = FockTruncation([2, 1], [3, 3])
    sym = random_hermitian_symbol(rng, t.n, 2, 3, density=0.5)
    assert is_k_multi_toeplitz(symbol_operator(sym, t), tol=1e-12).max_violation == 0.0
    w1 = multiword([[1], []], t.n)
    c = np.array([[1.0, -2.0], [3.0, 0.5j]])
    scalar = is_k_multi_toeplitz(word_operator(t, w1, w1)).max_violation
    assert scalar > 0
    rep = is_k_multi_toeplitz(word_operator(t, w1, w1, coefficient=c))
    assert not rep.passed and rep.max_violation == 3.0 * scalar


def _membership_by_dense_gather(T):
    """Reference check on the densified operator: per factor i, the dense
    gather of the (u.s, v.t) blocks of T over factor i's exact window
    (budget 1 in factor i, 0 elsewhere), each against delta_st times the
    (u, v) blocks; the largest difference."""
    trunc, e = T.trunc, T.coeff_dim
    m4 = T.dense().reshape(trunc.dim, e, trunc.dim, e)

    def block(rows, cols):
        return m4[rows[:, None], :, cols].transpose(0, 2, 1, 3).reshape(rows.size * e, -1)

    worst = 0.0
    for i, ni in enumerate(trunc.n, start=1):
        budget = [0] * trunc.k
        budget[i - 1] = 1
        widx = np.flatnonzero(trunc.window_mask(budget))
        base = block(widx, widx)
        # the image of each window word under R_ij: its letter's entry in that column
        letters = [m.tocsc() for m in creation_tuple(trunc, "right")[i - 1]]
        images = [c.indices[c.indptr[widx]] for c in letters]
        for s, rows in enumerate(images):
            for t, cols in enumerate(images):
                d = block(rows, cols) - (base if s == t else 0)
                worst = max(worst, float(np.max(np.abs(d), initial=0.0)))
    return worst


def _random_sparse(rng, size, count):
    """A size x size CSR matrix with complex normal values at ``count``
    uniformly drawn cells (a repeated cell sums)."""
    rows, cols = rng.integers(size, size=(2, count))
    values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return scipy.sparse.csr_matrix((values, (rows, cols)), shape=(size, size))


def _series_distance_by_dense_sum(T):
    """Reference for the series distance: T densified minus the dense sum of
    T[a, b] (x) S_a S_b* (``word_matrix``) over every lambda pair within the
    degrees, T[a, b] read from the dense array; the largest entry."""
    trunc, e = T.trunc, T.coeff_dim
    m4 = T.dense().reshape(trunc.dim, e, trunc.dim, e)
    series = np.zeros_like(m4)
    for a, b in lambda_pairs_within_degrees(trunc.n, trunc.degrees):
        cells = word_matrix(trunc, a, b).tocoo()
        series[cells.row, :, cells.col, :] += m4[trunc.basis_index(a), :, trunc.basis_index(b), :]
    return float(np.max(np.abs(m4 - series), initial=0.0))


@pytest.mark.parametrize("e_dim", [1, 2])
@pytest.mark.parametrize("n, degrees", [((2, 1), (3, 3)), ((1, 1, 2), (2, 2, 2)),
                                        ((3,), (4,)), ((2, 1), (5, 5))])
def test_membership_matches_dense_gather(n, degrees, e_dim):
    """The reported violation is the dense series distance bit for bit, and
    it is zero exactly where the dense gather of the compression conditions
    on per-factor windows is: on symbol operators (members), on symbol
    operators with three entries added, and on random sparse matrices."""
    rng = np.random.default_rng(17)
    t = FockTruncation(n, degrees)
    size = t.dim * e_dim
    violated = 0
    for _ in range(2):
        sym = random_hermitian_symbol(rng, n, e_dim, min(degrees), density=0.5)
        op = symbol_operator(sym, t)
        for T in (op,
                  FockOperator(t, op.matrix + _random_sparse(rng, size, 3), e_dim),
                  FockOperator(t, _random_sparse(rng, size, size // 4), e_dim)):
            got = is_k_multi_toeplitz(T).max_violation
            assert got == _series_distance_by_dense_sum(T)
            gather = _membership_by_dense_gather(T)
            assert (got == 0) == (gather == 0)
            violated += gather > 0
    assert _membership_by_dense_gather(op) == 0.0 and violated == 4


def test_membership_rejects_unit_at_top_of_another_factor():
    """The matrix unit at ((g1g1, f^2), (g1g1, f^2)) on (2,1)@(2,2) breaks
    factor 1's condition at the cell (g1, f^2) with factor 2 at full degree,
    a cell inside factor 1's own window but outside the window with budget 1
    in every factor: T there is 0, not 1."""
    t = FockTruncation([2, 1], [2, 2])
    p = t.basis_index(multiword([[1, 1], [1, 1]], t.n))
    m = scipy.sparse.csr_matrix(([1.0], ([p], [p])), shape=(t.dim, t.dim))
    rep = is_k_multi_toeplitz(FockOperator(t, m))
    assert not rep.passed and rep.max_violation == 1.0


@pytest.mark.parametrize("base", ["zero", "creation"])
def test_membership_propagates_nan_off_the_coefficient_cells(base):
    """A NaN stored at ((g1g1, f^2), (g1g1, f^2)) on (2,1)@(2,2), a cell of
    the identity pairing, whose coefficient T[e, e] is 0, is a violation of
    NaN: the operator is not reported a member, with or without the
    member S_g1 added."""
    t = FockTruncation([2, 1], [2, 2])
    p = t.basis_index(multiword([[1, 1], [1, 1]], t.n))
    m = scipy.sparse.csr_matrix(([np.nan], ([p], [p])), shape=(t.dim, t.dim))
    if base == "creation":
        m = m + word_operator(t, multiword([[1], []], t.n), identity_multiword(t.n)).matrix
    rep = is_k_multi_toeplitz(FockOperator(t, m.tocsr()))
    assert not rep.passed and np.isnan(rep.max_violation)


@pytest.mark.parametrize("position", ["first", "last"])
def test_symbol_defects_propagate_nan(position):
    """A NaN entry in one coefficient, stored first or last, makes both the
    Hermitian defect and the difference against a clean copy NaN: neither
    fold drops it."""
    n = (2, 1)
    g, w = identity_multiword(n), multiword([[1], []], n)
    keys = [(g, g), (w, g), (g, w)]
    clean = MultiToeplitzSymbol(n, 2, {k: np.eye(2) for k in keys})
    poisoned = MultiToeplitzSymbol(n, 2, {k: np.eye(2) for k in keys})
    poisoned[keys[0] if position == "first" else keys[-1]] = [[1.0, np.nan], [0.0, 1.0]]
    assert clean.hermitian_defect() == 0.0 and clean.max_difference(clean) == 0.0
    assert np.isnan(poisoned.hermitian_defect())
    assert np.isnan(poisoned.max_difference(clean)) and np.isnan(clean.max_difference(poisoned))


def test_symbol_defects_of_the_empty_symbol_are_zero():
    empty = MultiToeplitzSymbol((2, 1), 2)
    assert empty.hermitian_defect() == 0.0 and empty.max_difference(empty) == 0.0


def test_max_difference_refuses_symbols_of_other_shapes():
    """Symbols over different coefficient spaces or free-monoid products are
    not compared: a constant 3 (e = 1) against I_2 (e = 2) read 3.0 by
    broadcasting, and the units over (2,) and (1, 1) read 1.0."""
    with pytest.raises(ShapeMismatchError):
        _constant((2,), 3.0).max_difference(
            _constant((2,), np.eye(2)))
    with pytest.raises(ShapeMismatchError):
        _constant((2,), 1.0).max_difference(
            _constant((1, 1), 1.0))


def _bits(blocks):
    return np.asarray(blocks, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("r", [0.0, 0.3, 0.9, 1.0])
def test_scaled_is_bitwise_the_per_key_product(r):
    """One product of the blocks with the per-length powers has every bit
    of the per-key r ** (|a|+|b|) * m (NumPy's array power misses some, e.g.
    0.3 ** 4), a -0.0 and a NaN coefficient included, and the empty symbol
    scales to the empty symbol."""
    rng = np.random.default_rng(3)
    sym = random_hermitian_symbol(rng, (2, 1), 2, 4)
    keys = list(sym.coeffs)
    sym[keys[1]] = np.full((2, 2), -0.0)
    sym[keys[-1]] = [[np.nan, 1.0], [0.0, -0.0]]
    got = sym.scaled(r)
    assert list(got.coeffs) == keys
    want = [(r ** (a.total_length + b.total_length)) * m for (a, b), m in sym.items()]
    assert np.array_equal(_bits(got.blocks()), _bits(want))
    empty = MultiToeplitzSymbol((2, 1), 2).scaled(r)
    assert len(empty) == 0 and empty.blocks().shape == (0, 2, 2)


def test_symbol_key_data_follows_the_keys():
    """What the keys imply (lengths, pair ids, adjoint partners) is derived
    on each call: a key added after a scatter, through __setitem__ or
    straight into ``coeffs``, is in the next scatter and defect, and a
    removed one is gone from them."""
    t = FockTruncation([2, 1], [3, 3])
    g, w = identity_multiword(t.n), multiword([[1, 2], []], t.n)
    sym = _constant(t.n, 1.0)
    symbol_operator(sym, t, 0.5)
    sym[w, g] = [[2.0]]
    want = word_operator(t, g, g).dense() + 0.25 * 2.0 * word_operator(t, w, g).dense()
    np.testing.assert_array_equal(symbol_operator(sym, t, 0.5).dense(), want)
    assert sym.hermitian_defect() == 2.0
    sym.coeffs.pop((g, g))
    sym.coeffs[g, w] = np.array([[3.0 + 0j]])
    want = 0.5 * word_operator(t, w, g).dense() + 0.25 * 3.0 * word_operator(t, g, w).dense()
    np.testing.assert_array_equal(symbol_operator(sym, t, 0.5).dense(), want)
    assert sym.hermitian_defect() == 1.0


def test_symbol_values_are_read_fresh():
    """A value written into ``coeffs`` after the key data was derived (as
    ``_poison_first`` in the verify tests does) reaches every later read."""
    t = FockTruncation([2, 1], [2, 2])
    sym = random_hermitian_symbol(np.random.default_rng(4), t.n, 2, 2)
    clean = sym.scaled(1.0)
    symbol_operator(sym, t, 0.5)
    assert sym.hermitian_defect() == 0.0 and sym.max_difference(clean) == 0.0
    key = next(iter(sym.coeffs))
    sym.coeffs[key] = np.full_like(sym.coeffs[key], np.nan)
    assert np.isnan(symbol_operator(sym, t, 0.5).dense()).any()
    assert np.isnan(sym.scaled(0.5).blocks()[0]).all()
    assert np.isnan(sym.hermitian_defect()) and np.isnan(sym.max_difference(clean))


def test_an_operator_poisoned_after_a_check_fails_the_next():
    """A NaN written into the stored entries after one check reaches the
    next: the violation is NaN and the check fails."""
    t = FockTruncation([2], [3])
    op = word_operator(t, multiword([[1]], [2]), identity_multiword([2]))
    assert is_k_multi_toeplitz(op).max_violation == 0.0
    op.matrix.data[0] = np.nan
    report = is_k_multi_toeplitz(op)
    assert np.isnan(report.max_violation) and not report.passed


def test_single_creation_is_toeplitz():
    t = FockTruncation([2], [3])
    op = word_operator(t, multiword([[1]], [2]), identity_multiword([2]))
    assert is_k_multi_toeplitz(op).passed


def test_mixed_adjoint_combination_fails():
    # S_1 S_2* + S_2 S_1* is not multi-Toeplitz: the cross compressions by
    # distinct right letters do not vanish
    t = FockTruncation([2], [3])
    g = identity_multiword([2])
    w1, w2 = multiword([[1]], [2]), multiword([[2]], [2])
    m = word_operator(t, w1, w2).dense() + word_operator(t, w2, w1).dense()
    rep = is_k_multi_toeplitz(FockOperator(t, m))
    assert not rep.passed
    assert rep.max_violation >= 0.5


def test_diagonal_projection_fails():
    t = FockTruncation([2], [3])
    w1 = multiword([[1]], [2])
    rep = is_k_multi_toeplitz(word_operator(t, w1, w1))
    assert not rep.passed and rep.max_violation >= 1e-2


def test_fourier_coefficient_reads_block():
    t = FockTruncation([2, 2], [2, 2])
    a = multiword([[1], []], [2, 2])
    b = multiword([[], [2]], [2, 2])
    c = np.array([[1.0, 2.0j], [0.0, -1.0]])
    op = word_operator(t, a, b, c)
    np.testing.assert_allclose(_coefficient(op, a, b), c)
    g = identity_multiword([2, 2])
    assert np.abs(_coefficient(op, g, g)).max() == 0.0


def test_fourier_coefficient_identity():
    t = FockTruncation([2], [2])
    g = identity_multiword([2])
    op = FockOperator(t, np.eye(t.dim))
    np.testing.assert_allclose(_coefficient(op, g, g), np.eye(1))
    w = multiword([[1]], [2])
    assert np.abs(_coefficient(op, w, g)).max() == 0.0


def test_fourier_coefficient_mixed_factors():
    # 2 S_{1,1} + 3 S_{2,1}*
    t = FockTruncation([2, 1], [2, 2])
    g = identity_multiword([2, 1])
    a1 = multiword([[1], []], [2, 1])
    b2 = multiword([[], [1]], [2, 1])
    m = 2 * word_operator(t, a1, g).dense() + 3 * word_operator(t, g, b2).dense()
    op = FockOperator(t, m)
    np.testing.assert_allclose(_coefficient(op, a1, g), 2 * np.eye(1))
    np.testing.assert_allclose(_coefficient(op, g, b2), 3 * np.eye(1))


def test_extract_roundtrip(rng):
    t = FockTruncation([2, 1], [3, 3])
    for _ in range(5):
        sym = random_hermitian_symbol(rng, t.n, 2, 3, density=0.5)
        op = symbol_operator(sym, t)
        back = extract_symbol(op, 3)
        assert back.max_difference(sym) == 0.0


def test_extract_zero_operator():
    t = FockTruncation([2], [3])
    assert len(extract_symbol(FockOperator(t, np.zeros((t.dim, t.dim))), 3)) == 0


def test_extract_poisson_kernel_scalar_point():
    """Extraction from the Poisson kernel at a scalar point recovers the
    geometric symbol.  With single-generator factors, appending and
    prepending coincide, so the kernel is also multi-Toeplitz there."""
    t1 = FockTruncation([1, 1], [3, 3])
    z1 = PolyballPoint.from_scalars([[0.5], [0.5]])
    pk1 = FockOperator(t1, poisson_window(z1, t1, [0] * t1.k))
    assert is_k_multi_toeplitz(pk1).passed
    sym1 = extract_symbol(pk1, 3)
    assert len(sym1) == len(lambda_pairs_up_to_total([1, 1], 3))
    for (a, b), m in sym1.items():
        assert abs(m[0, 0] - 0.5 ** (a.total_length + b.total_length)) < 1e-13

    # multi-generator factors: the entry pattern still yields the geometric
    # coefficients even though the right-monomial combination itself is not
    # invariant under right compressions
    t = FockTruncation([2, 1], [3, 3])
    z = PolyballPoint.from_scalars([[0.5, 0.0], [0.5]])
    sym = extract_symbol(FockOperator(t, poisson_window(z, t, [0] * t.k)), 3)
    for (a, b), m in sym.items():
        assert abs(m[0, 0] - 0.5 ** (a.total_length + b.total_length)) < 1e-13


def test_evaluate_symbol_examples():
    sym = _constant([2, 1], np.eye(2))
    x = PolyballPoint.from_scalars([[0.2, 0.3], [0.4]])
    np.testing.assert_allclose(evaluate_symbol(sym, x), np.eye(2))

    a1 = multiword([[1], []], [2, 1])
    g = identity_multiword([2, 1])
    s = MultiToeplitzSymbol([2, 1], 1)
    s[a1, g] = np.eye(1)
    np.testing.assert_allclose(evaluate_symbol(s, x), [[0.2]])


def test_reconstruction_via_extended_transform(rng):
    """Evaluating the extracted symbol at scaled creations reproduces the
    extended transform of the operator, window-exactly."""
    from polyball.berezin import berezin_transform, creation_point

    t_small = FockTruncation([2, 1], [2, 2])
    t_big = FockTruncation([2, 1], [4, 4])
    sym = random_hermitian_symbol(rng, (2, 1), 1, 2, density=0.7)
    top = symbol_operator(sym, t_big)
    r = 0.7
    lhs = symbol_operator(sym, t_big, r).dense()
    rhs = berezin_transform(top, creation_point(t_big, r))
    mask = np.repeat(t_big.window_mask([2, 2]), 1)
    sel = np.ix_(mask, mask)
    assert np.abs(lhs[sel] - rhs[sel]).max() < 1e-10


def test_action_on_window_polynomials(rng):
    t = FockTruncation([2, 1], [3, 3])
    sym = random_hermitian_symbol(rng, t.n, 1, 2, density=0.6)
    op1 = symbol_operator(sym, t).dense()
    op2 = evaluate_symbol(sym, creation_point(t))
    budget = [2, 2]
    mask = t.window_mask(budget)
    q = np.zeros(t.dim, dtype=complex)
    q[mask] = rng.standard_normal(int(mask.sum()))
    np.testing.assert_allclose(op1 @ q, op2 @ q, atol=1e-12)


def test_creation_pair_products_are_toeplitz(rng):
    t = FockTruncation([2, 1], [3, 3])
    for _ in range(5):
        p = random_creation_polynomial(rng, t.n, 2, 3)
        q = random_creation_polynomial(rng, t.n, 2, 3)
        sym = creation_pair_symbol(p, q, t.n)
        rep = is_k_multi_toeplitz(symbol_operator(sym, t), tol=1e-11)
        assert rep.passed, rep.max_violation


def test_creation_pair_symbol_matches_products(rng):
    # oracle: direct matrix products on a deeper truncation, compared on the
    # window with enough headroom for the polynomial degrees
    t = FockTruncation([2, 1], [4, 4])
    g = identity_multiword(t.n)
    p = random_creation_polynomial(rng, t.n, 2, 3)
    q = random_creation_polynomial(rng, t.n, 2, 3)

    def poly(terms):
        return sum(c * word_operator(t, w, g).dense() for w, c in terms.items())

    direct = poly(p).conj().T @ poly(q)
    via = symbol_operator(creation_pair_symbol(p, q, t.n), t).dense()
    mask = t.window_mask([2, 2])
    sel = np.ix_(mask, mask)
    assert np.abs(direct[sel] - via[sel]).max() < 1e-12


def test_norm_monotone_on_grid(rng):
    t = FockTruncation([2], [4])
    sym = random_hermitian_symbol(rng, [2], 1, 3)
    norms = norm_on_grid(sym, t, [0.1 * i for i in range(1, 10)])
    for lo, hi in zip(norms, norms[1:]):
        assert lo <= hi + 1e-9


def test_norm_on_grid_matches_opnorm_on_both_branches(rng):
    """A Hermitian symbol (zero defect) takes the Hermitian norm, any other
    symbol the SVD norm; both agree with opnorm."""
    t = FockTruncation([2, 1], [3, 3])
    herm = random_hermitian_symbol(rng, [2, 1], 2, 3)
    g = identity_multiword([2, 1])
    skew = MultiToeplitzSymbol([2, 1], 2, {(g, g): np.eye(2)})
    skew[multiword([[1], [1]], [2, 1]), g] = rng.standard_normal((2, 2)) + 0j
    assert herm.hermitian_defect() == 0 and skew.hermitian_defect() > 0
    grid = [0.1, 0.5, 0.9]
    for sym in (herm, skew):
        want = [opnorm(symbol_operator(sym, t, r).dense()) for r in grid]
        assert norm_on_grid(sym, t, grid) == pytest.approx(want, rel=1e-12)


def test_hermitian_symmetry_detection():
    sym = MultiToeplitzSymbol([2], 1)
    g = identity_multiword([2])
    w = multiword([[1]], [2])
    sym[g, g] = [[1.0]]
    sym[w, g] = [[2.0 + 1.0j]]
    assert sym.hermitian_defect() > 1e-12
    sym[g, w] = [[2.0 - 1.0j]]
    assert sym.hermitian_defect() <= 1e-12


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("r", [0.0, 0.37, 1.0])
def test_symbol_operator_is_scaled_symbol_at_creations(side, r):
    """r enters symbol_operator only through MultiToeplitzSymbol.scaled."""
    rng = np.random.default_rng(11)
    t = FockTruncation([2, 1], [3, 3])
    sym = random_hermitian_symbol(rng, (2, 1), 2, 3)
    got = symbol_operator(sym, t, r, side).dense()
    np.testing.assert_array_equal(got, symbol_operator(sym.scaled(r), t, side=side).dense())


def _symbol_operator_by_keys(sym, trunc, r, side):
    """Reference assembly: each key's monomial placed on its own cells."""
    e = sym.e_dim
    out = np.zeros((trunc.dim * e, trunc.dim * e), dtype=complex)
    out4 = out.reshape(trunc.dim, e, trunc.dim, e)
    for (a, b), c in sym.scaled(r).items():
        src, dst = monomial_indices(trunc, a, b, side)
        out4[dst, :, src, :] += c[None, :, :]
    return out


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("e_dim", [1, 2])
@pytest.mark.parametrize("n, degrees", [((2, 1), (3, 2)), ((3,), (3,)), ((1, 1, 2), (2, 1, 2))])
def test_symbol_operator_matches_per_key_assembly(n, degrees, e_dim, side):
    """The pair-table scatter equals the per-key sum bit for bit (signed
    zeros included), with keys beyond the box and r != 1."""
    rng = np.random.default_rng(5)
    t = FockTruncation(n, degrees)
    sym = random_hermitian_symbol(rng, n, e_dim, max(degrees) + 2)
    assert any(t.pair_id(b.reverse(), a.reverse()) == -1 for a, b in sym.coeffs)
    g = identity_multiword(n)
    sym[g, g] = np.full((e_dim, e_dim), -0.0)
    for r in (1.0, 0.6):
        got = symbol_operator(sym, t, r, side).dense()
        assert got.tobytes() == _symbol_operator_by_keys(sym, t, r, side).tobytes()
