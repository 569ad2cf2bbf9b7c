import numpy as np
import pytest

from polyball._linalg import opnorm
from polyball.berezin import PolyballPoint, creation_point, poisson_kernel
from polyball.fock import FockOperator, FockTruncation, monomial_indices, word_operator
from polyball.toeplitz import (
    MultiToeplitzSymbol,
    NotLambdaPairError,
    creation_pair_symbol,
    evaluate_symbol,
    extract_symbol,
    fourier_coefficient,
    is_k_multi_toeplitz,
    norm_on_grid,
    symbol_operator,
)
from polyball.words import identity_multiword, lambda_pairs_up_to_total, multiword
from polyball.sampling import random_creation_polynomial, random_hermitian_symbol


def test_word_operators_are_toeplitz():
    t = FockTruncation([2, 2], [3, 3])
    for a, b in lambda_pairs_up_to_total(t.n, 3):
        rep = is_k_multi_toeplitz(word_operator(t, a, b))
        assert rep.passed and rep.max_violation == 0.0


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
    np.testing.assert_allclose(fourier_coefficient(op, a, b), c)
    g = identity_multiword([2, 2])
    assert np.abs(fourier_coefficient(op, g, g)).max() == 0.0


def test_fourier_coefficient_identity():
    t = FockTruncation([2], [2])
    g = identity_multiword([2])
    op = FockOperator(t, np.eye(t.dim))
    np.testing.assert_allclose(fourier_coefficient(op, g, g), np.eye(1))
    w = multiword([[1]], [2])
    assert np.abs(fourier_coefficient(op, w, g)).max() == 0.0


def test_fourier_coefficient_mixed_factors():
    # 2 S_{1,1} + 3 S_{2,1}*
    t = FockTruncation([2, 1], [2, 2])
    g = identity_multiword([2, 1])
    a1 = multiword([[1], []], [2, 1])
    b2 = multiword([[], [1]], [2, 1])
    m = 2 * word_operator(t, a1, g).dense() + 3 * word_operator(t, g, b2).dense()
    op = FockOperator(t, m)
    np.testing.assert_allclose(fourier_coefficient(op, a1, g), 2 * np.eye(1))
    np.testing.assert_allclose(fourier_coefficient(op, g, b2), 3 * np.eye(1))


def test_fourier_rejects_non_index_pairs():
    t = FockTruncation([2], [2])
    w = multiword([[1]], [2])
    with pytest.raises(NotLambdaPairError):
        fourier_coefficient(FockOperator(t, np.eye(t.dim)), w, w)


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
    pk1 = poisson_kernel(z1, t1)
    assert is_k_multi_toeplitz(pk1.op).passed
    sym1 = extract_symbol(pk1.op, 3)
    assert len(sym1) == len(lambda_pairs_up_to_total([1, 1], 3))
    for (a, b), m in sym1.items():
        assert abs(m[0, 0] - 0.5 ** (a.total_length + b.total_length)) < 1e-13

    # multi-generator factors: the entry pattern still yields the geometric
    # coefficients even though the right-monomial combination itself is not
    # invariant under right compressions
    t = FockTruncation([2, 1], [3, 3])
    z = PolyballPoint.from_scalars([[0.5, 0.0], [0.5]])
    sym = extract_symbol(poisson_kernel(z, t).op, 3)
    for (a, b), m in sym.items():
        assert abs(m[0, 0] - 0.5 ** (a.total_length + b.total_length)) < 1e-13


def test_evaluate_symbol_examples():
    sym = MultiToeplitzSymbol.constant([2, 1], np.eye(2))
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
