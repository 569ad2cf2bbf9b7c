import itertools

import numpy as np
import pytest
import scipy.sparse

from polyball.fock import (
    FockTruncation,
    TruncationError,
    apply_creation,
    creation_matrix,
    creation_tuple,
    monomial_indices,
    word_matrix,
    word_operator,
)
from polyball.words import (
    MultiWord,
    Word,
    compare,
    factor_lambda_pairs,
    identity_multiword,
    lambda_pairs_up_to_total,
    lambda_pairs_within_degrees,
    multiword,
    multiwords_up_to_total,
)


def _basis_vector(t, mw):
    """Amplitude column (dim, 1) of the basis word mw."""
    v = np.zeros((t.dim, 1), dtype=complex)
    v[t.basis_index(mw)] = 1.0
    return v


def test_basis_index_graded_lex():
    t = FockTruncation([2], [2])
    assert t.dim == 7  # 1 + 2 + 4
    expected = [[], [1], [2], [1, 1]]
    for i, letters in enumerate(expected):
        assert t.basis_index(multiword([letters], [2])) == i
    # bijection with inverse
    for i in range(t.dim):
        assert t.basis_index(t.basis_word(i)) == i


def test_basis_index_row_major():
    t = FockTruncation([1, 1], [1, 1])
    order = [([], []), ([], [1]), ([1], []), ([1], [1])]
    for i, parts in enumerate(order):
        assert t.basis_index(multiword(list(parts), [1, 1])) == i


def test_basis_index_rejects_long_words():
    t = FockTruncation([2], [2])
    with pytest.raises(TruncationError):
        t.basis_index(multiword([[1, 1, 1]], [2]))


def test_left_creation_action():
    t = FockTruncation([2], [3])
    v = _basis_vector(t, identity_multiword([2]))
    w = apply_creation(t, "left", 1, 1, False, v)
    assert abs(w[t.basis_index(multiword([[1]], [2])), 0] - 1) < 1e-15

    # adjoint strips the leading letter only
    v = _basis_vector(t, multiword([[1, 2]], [2]))
    w = apply_creation(t, "left", 1, 1, True, v)
    assert abs(w[t.basis_index(multiword([[2]], [2])), 0] - 1) < 1e-15
    v = _basis_vector(t, multiword([[2, 1]], [2]))
    assert np.linalg.norm(apply_creation(t, "left", 1, 1, True, v)) == 0


def test_right_creation_truncates_top_degree():
    t = FockTruncation([2], [2])
    v = _basis_vector(t, multiword([[1]], [2]))
    w = apply_creation(t, "right", 1, 2, False, v)
    assert abs(w[t.basis_index(multiword([[1, 2]], [2])), 0] - 1) < 1e-15
    v = _basis_vector(t, multiword([[1, 2]], [2]))
    assert np.linalg.norm(apply_creation(t, "right", 1, 2, False, v)) == 0


def test_creation_index_errors():
    t = FockTruncation([2], [2])
    v = _basis_vector(t, identity_multiword([2]))
    with pytest.raises(ValueError):
        apply_creation(t, "left", 2, 1, False, v)
    with pytest.raises(ValueError):
        apply_creation(t, "left", 1, 3, False, v)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("adjoint", [False, True])
def test_apply_creation_matches_matrix_on_columns(side, adjoint):
    """On a (dim, 3) amplitude array the matrix-free action equals the
    creation matrix times it, column by column, on every letter."""
    rng = np.random.default_rng(11)
    t = FockTruncation([2, 1], [3, 2])
    v = rng.standard_normal((t.dim, 3)) + 1j * rng.standard_normal((t.dim, 3))
    for i, ni in enumerate(t.n, 1):
        for j in range(1, ni + 1):
            got = apply_creation(t, side, i, j, adjoint, v)
            assert got.shape == (t.dim, 3)
            np.testing.assert_array_equal(got, creation_matrix(t, side, i, j, adjoint) @ v)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees", [((2, 1), (3, 3)), ((1, 1, 2), (2, 2, 2)), ((3,), (4,))])
def test_creation_matrix_is_apply_creation_on_identity(n, degrees, side, adjoint):
    """Every letter is a complex CSR matrix with entries 1 whose dense copy is
    the matrix-free action on the identity's columns, bit for bit;
    ``creation_tuple`` holds the same letters."""
    t = FockTruncation(n, degrees)
    eye = np.eye(t.dim, dtype=complex)
    letters = creation_tuple(t, side)
    assert [len(row) for row in letters] == list(n)
    for i, ni in enumerate(n, 1):
        for j in range(1, ni + 1):
            m = creation_matrix(t, side, i, j, adjoint)
            assert isinstance(m, scipy.sparse.csr_matrix) and m.dtype == complex
            assert np.all(m.data == 1)
            assert m.toarray().tobytes() == apply_creation(t, side, i, j, adjoint, eye).tobytes()
            if not adjoint:
                assert (letters[i - 1][j - 1] != m).nnz == 0


def test_adjoint_matrices_are_conjugate_transposes():
    t = FockTruncation([2, 2], [2, 2])
    for side in ("left", "right"):
        for i in (1, 2):
            for j in (1, 2):
                m = creation_matrix(t, side, i, j).toarray()
                ma = creation_matrix(t, side, i, j, adjoint=True).toarray()
                np.testing.assert_allclose(ma, m.conj().T)


def test_word_operator_identity_and_shift():
    t = FockTruncation([1], [2])
    g = identity_multiword([1])
    np.testing.assert_allclose(word_operator(t, g, g).dense(), np.eye(3))
    shift = word_operator(t, multiword([[1]], [1]), g).dense()
    np.testing.assert_allclose(shift, np.diag([1.0, 1.0], -1))


@pytest.mark.parametrize("n, degrees, letters, e", [
    ((2,), (2,), [[1]], 2),
    ((2, 2), (2, 2), [[1], [2]], 3),
])
def test_word_operator_coefficient_block(n, degrees, letters, e):
    t = FockTruncation(n, degrees)
    c = np.arange(1.0, e * e + 1).reshape(e, e) + 1j * np.eye(e)
    a = multiword(letters, n)
    g = identity_multiword(n)
    m = word_operator(t, a, g, c).dense()
    row = t.basis_index(a)
    np.testing.assert_array_equal(m[e * row : e * row + e, 0:e], c)
    # space index major, coefficient minor: the scalar monomial tensor c
    np.testing.assert_array_equal(m, np.kron(word_operator(t, a, g).dense(), c))


@pytest.mark.parametrize("side", ["left", "right"])
def test_word_matrix_is_the_sparse_word_operator(side):
    """``word_matrix`` and ``word_operator`` (CSR, with and without a
    coefficient) against the dense matrix of the per-word reference of
    ``monomial_indices``."""
    t = FockTruncation([2, 1], [3, 2])
    c = np.array([[1.0, -2.0j], [0.5, 3.0 + 1.0j]])
    for a, b in lambda_pairs_up_to_total(t.n, 3):
        src, dst = _monomial_indices_by_words(t, a, b, side)
        want = np.zeros((t.dim, t.dim), dtype=complex)
        want[dst, src] = 1.0
        m = word_matrix(t, a, b, side)
        assert isinstance(m, scipy.sparse.csr_matrix) and m.dtype == complex
        np.testing.assert_array_equal(m.toarray(), want)
        op = word_operator(t, a, b, side=side)
        assert isinstance(op.matrix, scipy.sparse.csr_matrix) and op.coeff_dim == 1
        np.testing.assert_array_equal(op.dense(), want)
        op = word_operator(t, a, b, c, side=side)
        assert isinstance(op.matrix, scipy.sparse.csr_matrix) and op.coeff_dim == 2
        np.testing.assert_array_equal(op.dense(), np.kron(want, c))


def test_word_operator_entries_match_comparability():
    """Exhaustive: the entry at (w, v) is nonzero exactly when the pair is
    right comparable with quotients (a, b); checked by word arithmetic."""
    t = FockTruncation([2, 2], [2, 2])
    basis = t.basis()
    for a, b in lambda_pairs_up_to_total(t.n, 3):
        if not t.admits(a) or not t.admits(b):
            continue
        m = word_operator(t, a, b).dense()
        for vi, v in enumerate(basis):
            for wi, w in enumerate(basis):
                cmpres = compare("right", w, v)
                expected = (
                    1.0
                    if cmpres.comparable and (cmpres.c_plus, cmpres.c_minus) == (a, b)
                    else 0.0
                )
                assert m[wi, vi] == expected, (a, b, w, v)


def test_word_operator_entries_single_factor_length3():
    # single factor, words up to length 3 in both the monomial and the basis
    t = FockTruncation([2], [3])
    basis = t.basis()
    for a, b in lambda_pairs_up_to_total(t.n, 3):
        m = word_operator(t, a, b).dense()
        for vi, v in enumerate(basis):
            for wi, w in enumerate(basis):
                c = compare("right", w, v)
                expected = 1.0 if c.comparable and (c.c_plus, c.c_minus) == (a, b) else 0.0
                assert m[wi, vi] == expected


def test_monomial_images_orthonormal():
    """For a fixed basis word, the images under the index-pair monomials with
    admissible annihilation side form an orthonormal family."""
    t = FockTruncation([2, 2], [3, 3])
    gamma = multiword([[1, 2], [2]], [2, 2])
    v = _basis_vector(t, gamma)
    images = []
    for a, b in lambda_pairs_up_to_total(t.n, 2):
        # keep pairs whose annihilation side is a head of gamma, factorwise
        ok = all(
            gi.letters[: len(bi)] == bi.letters
            for gi, bi in zip(gamma.parts, b.parts)
        )
        if not ok:
            continue
        out = word_operator(t, a, b).dense() @ v[:, 0]
        if np.linalg.norm(out) > 0:
            images.append(out)
    stack = np.stack(images, axis=1)
    gram = stack.conj().T @ stack
    np.testing.assert_allclose(gram, np.eye(len(images)), atol=1e-14)


def test_isometry_on_window_budget1():
    t = FockTruncation([2, 2], [3, 3])
    mask = t.window_mask([1, 1])
    sel = np.ix_(mask, mask)
    for i in (1, 2):
        for s, u in itertools.product((1, 2), repeat=2):
            a = creation_matrix(t, "left", i, s)
            b = creation_matrix(t, "left", i, u)
            m = a.conj().T @ b - (1.0 if s == u else 0.0) * np.eye(t.dim)
            assert np.abs(m[sel]).max() == 0.0


def test_window_mask_budgets():
    t = FockTruncation([2, 1], [3, 2])
    assert t.window_mask([0, 0]).all()
    assert t.window_mask([1, 1]).sum() == 7 * 2
    with pytest.raises(ValueError):
        t.window_mask([4, 0])


def test_vacuum_cyclic():
    t = FockTruncation([2, 1], [2, 2])
    cols = []
    for w in multiwords_up_to_total(t.n, 4):
        if not t.admits(w):
            continue
        v = _basis_vector(t, identity_multiword(t.n))
        for i in range(t.k, 0, -1):
            for j in reversed(w.parts[i - 1].letters):
                v = apply_creation(t, "left", i, j, False, v)
        cols.append(v[:, 0])
    assert np.linalg.matrix_rank(np.stack(cols, axis=1)) == t.dim


def _shift_by_words(w, strip, attach, side, cap):
    """Word-by-word reference: strip a head (left) or tail (right) and attach
    at the same end; None when strip does not fit or the cap is exceeded."""
    m = len(strip)
    if side == "left":
        if w.letters[:m] != strip.letters:
            return None
        out = attach.letters + w.letters[m:]
    else:
        if m > len(w) or w.letters[len(w) - m:] != strip.letters:
            return None
        out = w.letters[: len(w) - m] + attach.letters
    return Word(out, w.n) if len(out) <= cap else None


def _monomial_indices_by_words(t, a, b, side):
    if side == "right":
        a, b = a.reverse(), b.reverse()
    src, dst = [], []
    for s, w in enumerate(t.basis()):
        parts = [
            _shift_by_words(wi, bi, ai, side, d)
            for wi, ai, bi, d in zip(w.parts, a.parts, b.parts, t.degrees)
        ]
        if all(p is not None for p in parts):
            src.append(s)
            dst.append(t.basis_index(MultiWord(tuple(parts))))
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


INDEX_SHAPES = [((2, 1), (3, 3)), ((3,), (4,)), ((1, 1, 2), (2, 2, 2))]


def _monomial_words(n, degrees):
    """Multiwords of total length <= 2, plus one word per factor just over the cap."""
    words = multiwords_up_to_total(n, 2)
    for i, (ni, d) in enumerate(zip(n, degrees)):
        parts = [[] for _ in n]
        parts[i] = [(p % ni) + 1 for p in range(d + 1)]
        words.append(multiword(parts, n))
    return words


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees", INDEX_SHAPES)
def test_letter_map_matches_word_reference(n, degrees, side):
    t = FockTruncation(n, degrees)
    for i, (ni, d) in enumerate(zip(n, degrees), start=1):
        empty = Word((), ni)
        for j in range(1, ni + 1):
            want = [
                _shift_by_words(w, empty, Word((j,), ni), side, d)
                for w in t.factor_words(i)
            ]
            want = [-1 if v is None else t.factor_word_index(i, v) for v in want]
            np.testing.assert_array_equal(t.letter_map(side, i, j), want)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees", INDEX_SHAPES)
def test_monomial_indices_match_word_reference(n, degrees, side):
    t = FockTruncation(n, degrees)
    words = _monomial_words(n, degrees)
    for a in words:
        for b in words:
            got = monomial_indices(t, a, b, side)
            want = _monomial_indices_by_words(t, a, b, side)
            np.testing.assert_array_equal(got[0], want[0], err_msg=f"{a} {b}")
            np.testing.assert_array_equal(got[1], want[1], err_msg=f"{a} {b}")


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees", [((2, 1), (5, 5)), ((3,), (6,)), ((1, 1, 2), (2, 2, 2))])
def test_pair_table_cells_unique(n, degrees, side):
    """No (target, source) cell is hit by two pairs, so a single scatter
    over the pair table equals the pair-by-pair sum; the table is built once."""
    t = FockTruncation(n, degrees)
    pid, src, dst = t.pair_table(side)
    assert pid.shape == src.shape == dst.shape
    cells = dst * t.dim + src
    assert np.unique(cells).size == cells.size
    assert pid.max() == len(lambda_pairs_within_degrees(n, degrees)) - 1
    assert t.pair_table(side)[0] is pid


def _pair_table_by_pairs(t, side):
    """Reference build: per factor one ``_shift_map`` over the whole factor
    for each single-factor lambda pair, combined across factors by strides."""
    pid = src = dst = np.zeros(1, dtype=np.int64)
    for i, (ni, di, dim) in enumerate(zip(t.n, t.degrees, t.factor_dims), start=1):
        cells = []
        pairs = factor_lambda_pairs(ni, di)
        for p, (a, b) in enumerate(pairs):
            if side == "left":
                a, b = a.reverse(), b.reverse()
            m = t._shift_map(i, a, b, side)
            s = np.flatnonzero(m >= 0)
            cells.append((np.full(s.size, p, dtype=np.int64), s, m[s]))
        p_i, s_i, t_i = (np.concatenate(c) for c in zip(*cells))
        pid = (pid[:, None] * len(pairs) + p_i).ravel()
        src = (src[:, None] * dim + s_i).ravel()
        dst = (dst[:, None] * dim + t_i).ravel()
    return pid, src, dst


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees", [((3,), (6,)), ((2, 1), (5, 5)), ((1, 2, 1), (2, 2, 3)),
                                        ((2, 1), (0, 2))])
def test_pair_table_blocks_match_per_pair_build(n, degrees, side):
    """The length-block table has the per-pair build's cells in the same
    order, entry for entry and dtype for dtype."""
    t = FockTruncation(n, degrees)
    for got, want in zip(t.pair_table(side), _pair_table_by_pairs(t, side)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n, degrees", INDEX_SHAPES)
def test_pair_basis_indices_follow_pair_ids(n, degrees):
    t = FockTruncation(n, degrees)
    a, b = t.pair_basis_indices()
    pairs = lambda_pairs_within_degrees(n, degrees)
    np.testing.assert_array_equal(a, [t.basis_index(p[0]) for p in pairs])
    np.testing.assert_array_equal(b, [t.basis_index(p[1]) for p in pairs])


@pytest.mark.parametrize("n, degrees", INDEX_SHAPES)
def test_pair_id_is_position_in_box_order(n, degrees):
    t = FockTruncation(n, degrees)
    pairs = lambda_pairs_within_degrees(n, degrees)
    assert [t.pair_id(a, b) for a, b in pairs] == list(range(len(pairs)))
    off_box = [
        (a, b) for a, b in lambda_pairs_up_to_total(n, max(degrees) + 1)
        if any(len(w) > d for x in (a, b) for w, d in zip(x.parts, degrees))
    ]
    assert off_box
    assert all(t.pair_id(a, b) == -1 for a, b in off_box)
    w = multiword([[1]] + [[] for _ in n[1:]], n)
    with pytest.raises(ValueError):
        t.pair_id(w, w)


@pytest.mark.parametrize("side", ["Left", "lft", "", None])
def test_unknown_side_is_refused(side):
    """Only "left" and "right" name a side: any other value raises instead
    of being read as the right side, and the pair table caches nothing
    under it."""
    t = FockTruncation((2, 1), (2, 2))
    a = multiword([[1], []], t.n)
    for call in (lambda: creation_tuple(t, side), lambda: t.pair_table(side),
                 lambda: monomial_indices(t, a, a, side)):
        with pytest.raises(ValueError, match="side must be"):
            call()
    assert t._pair_tables == {}
