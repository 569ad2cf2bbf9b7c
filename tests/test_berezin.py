import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from polyball import berezin
from polyball._linalg import EXACT_DIM, hermitian_norms, opnorm, psd_sqrt
from polyball.berezin import (
    DivergenceError,
    GramFactor,
    PolyballPoint,
    SingularResolventError,
    dropped_shell_mass,
    berezin_kernel,
    berezin_transform,
    cauchy_operator,
    creation_point,
    defect,
    in_polyball,
    pair_transforms,
    poisson_window,
    spectral_radius,
)
from polyball.fock import (
    FockTruncation,
    creation_matrix,
    creation_tuple,
    pair_operator,
    word_matrix,
    word_operator,
)
from polyball.sampling import random_hermitian_symbol, random_nilpotent_point, random_point
from polyball.toeplitz import MultiToeplitzSymbol, evaluate_symbol, symbol_operator
from polyball.words import (
    MultiWord,
    Word,
    identity_multiword,
    lambda_pairs_up_to_total,
    lambda_pairs_within_degrees,
    multiword,
)


def test_defect_scalars():
    assert abs(defect(PolyballPoint.from_scalars([[0.5]]))[0, 0] - 0.75) < 1e-15
    assert abs(defect(PolyballPoint.from_scalars([[0.5], [0.5]]))[0, 0] - 0.5625) < 1e-15


def test_defect_of_creations_is_vacuum_projection():
    t = FockTruncation([2], [3])
    d = defect(creation_point(t))
    p0 = np.zeros((t.dim, t.dim))
    p0[0, 0] = 1.0
    np.testing.assert_allclose(d, p0, atol=1e-14)


def test_membership():
    assert in_polyball(PolyballPoint([[np.zeros((2, 2))]])).member
    rep = in_polyball(PolyballPoint([[np.zeros((2, 2))]]))
    assert abs(rep.defect_min_eig - 1.0) < 1e-14
    assert not in_polyball(PolyballPoint.from_scalars([[0.8, 0.7]])).member
    t = FockTruncation([2], [3])
    assert in_polyball(creation_point(t, 0.6)).member


def test_membership_requires_commutation():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    x = PolyballPoint([[0.1 * a], [0.1 * b]])
    rep = in_polyball(x)
    assert rep.commutation_defect > 1e-6 and not rep.member


def test_spectral_radius_closed_forms():
    sr = spectral_radius(PolyballPoint.from_scalars([[0.3, 0.4]]), 12)
    # sum of squares is 0.25, every diagonal estimate is exactly 0.5
    assert all(abs(e - 0.5) < 1e-12 for e in sr.estimates)
    assert abs(sr.value - 0.5) < 1e-12

    assert spectral_radius(PolyballPoint([[np.zeros((3, 3))]]), 4).value == 0.0

    t = FockTruncation([2], [4])
    sr = spectral_radius(creation_point(t, 0.7), 12)
    assert abs(sr.value - 0.7) < 1e-12
    assert [e for e in sr.estimates if e > 0.0][-1] <= 0.7 + 1e-12


def test_kernel_scalar_geometric():
    t = FockTruncation([1], [8])
    k = berezin_kernel(PolyballPoint.from_scalars([[0.5]]), t)
    np.testing.assert_allclose(
        k.matrix[:, 0].real, np.sqrt(0.75) * 0.5 ** np.arange(9), atol=1e-15
    )
    # squared norm of the truncated kernel: 1 - 0.25^9
    assert abs(np.linalg.norm(k.matrix) ** 2 - (1 - 0.25 ** 9)) < 1e-14
    assert k.tail_bound < 0.002


def test_kernel_at_zero_is_vacuum_embedding():
    t = FockTruncation([2], [2])
    k = berezin_kernel(PolyballPoint([[np.zeros((2, 2)), np.zeros((2, 2))]]), t)
    g = k.matrix.conj().T @ k.matrix
    np.testing.assert_allclose(g, np.eye(2), atol=1e-14)
    assert np.abs(k.matrix[2 * k.h_dim :, :]).max() == 0.0


def test_kernel_isometry_nilpotent(rng):
    t = FockTruncation([2, 1], [3, 3])
    for _ in range(5):
        x = random_nilpotent_point(rng, (2, 1), 3, 0.8)
        k = berezin_kernel(x, t)
        assert k.tail_bound == 0.0
        g = k.matrix.conj().T @ k.matrix
        assert np.abs(g - np.eye(3)).max() < 1e-12


def test_kernel_intertwining(rng):
    t = FockTruncation([2, 1], [3, 3])
    x = random_nilpotent_point(rng, (2, 1), 2, 0.7)
    k = berezin_kernel(x, t)
    k3 = k.as_tensor()
    for i, ni in enumerate(t.n, 1):
        for j in range(1, ni + 1):
            lhs = k.matrix @ x.entry(i, j).conj().T
            s = creation_matrix(t, "left", i, j).toarray()
            rhs = np.einsum("gf,gdh->fdh", s.conj(), k3).reshape(k.matrix.shape)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_moment_identity_nilpotent(rng):
    t = FockTruncation([2, 1], [3, 3])
    x = random_nilpotent_point(rng, (2, 1), 3, 0.8)
    k = berezin_kernel(x, t)
    for a, b in lambda_pairs_up_to_total(t.n, 3):
        m = word_operator(t, a, b).dense()
        got = berezin_transform(m, x, trunc=t)
        want = x.monomial(a) @ x.monomial(b).conj().T
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("n, degrees", [((2, 1), (4, 4)), ((2, 1), (5, 5)), ((3,), (4,)),
                                        ((1, 1, 2), (2, 2, 2))])
def test_pair_transforms_are_the_word_matrix_transforms(rng, n, degrees, h):
    """The transform gathered at the pairing at (b~, a~) is, to 1e-14 of its
    norm, ``berezin_transform`` of S_a S_b* as ``word_matrix`` builds it, for
    every lambda pair of total length <= 4 and for two pairs whose words
    leave the box (id -1), whose transforms are exactly zero."""
    t = FockTruncation(n, degrees)
    e = identity_multiword(n)
    # a word one letter past the degree of factor 1
    long = MultiWord((Word((1,) * (degrees[0] + 1), n[0]),) + e.parts[1:])
    pairs = lambda_pairs_up_to_total(n, 4) + [(long, e), (e, long)]
    pids = np.array([t.pair_id(b.reverse(), a.reverse()) for a, b in pairs])
    assert (pids[-2:] == -1).all()
    for x in (random_point(rng, n, h, 0.6), random_point(rng, n, h, 0.95)):
        k = berezin_kernel(x, t)
        got = pair_transforms(k.as_tensor(), pids, t)
        for (a, b), pid, g in zip(pairs, pids, got):
            want = berezin_transform(word_matrix(t, a, b), x, trunc=t)
            if pid < 0:
                assert not want.any() and not g.any()
            assert np.abs(g - want).max() <= 1e-14 * max(np.abs(want).max(), 1e-300)


def test_transform_scalar_creation():
    # scalar point 0.5, observable = single creation: geometric sum gives 0.5
    t = FockTruncation([1], [12])
    x = PolyballPoint.from_scalars([[0.5]])
    g = word_operator(t, multiword([[1]], [1]), identity_multiword([1])).dense()
    val = berezin_transform(g, x, trunc=t)
    assert abs(val[0, 0] - 0.5) < 1e-6


def test_transform_positive(rng):
    t = FockTruncation([2, 1], [2, 2])
    x = random_point(rng, (2, 1), 2, 0.6)
    raw = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    g = raw @ raw.conj().T
    out = berezin_transform(g, x, trunc=t)
    assert np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0] > -1e-12


@pytest.mark.parametrize("e", [1, 2])
def test_gram_factor_transform_is_the_dense_gram_transform(rng, e):
    """A ``GramFactor`` F transforms as the dense g = F F*, applied as
    F (F* cols), with and without a coefficient space."""
    t = FockTruncation([2, 1], [2, 2])
    x = random_point(rng, (2, 1), 2, 0.6)
    raw = rng.standard_normal((t.dim * e, 5)) + 1j * rng.standard_normal((t.dim * e, 5))
    want = berezin_transform(raw @ raw.conj().T, x, trunc=t)
    got = berezin_transform(GramFactor(raw), x, trunc=t)
    assert got.shape == want.shape == (2 * e, 2 * e)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_cauchy_neumann_oracle():
    t = FockTruncation([1], [6])
    r = creation_matrix(t, "right", 1, 1)
    x = PolyballPoint.from_scalars([[0.5]])
    c = cauchy_operator(t, x, "right")
    neumann = np.sqrt(0.75) * sum(
        0.5 ** p * np.linalg.matrix_power(r.toarray(), p) for p in range(7)
    )
    np.testing.assert_allclose(c.matrix.toarray(), neumann, atol=1e-13)
    assert c.min_singular > 0.4


def test_cauchy_at_zero():
    t = FockTruncation([1], [4])
    c = cauchy_operator(t, PolyballPoint.from_scalars([[0.0]]), "right")
    np.testing.assert_allclose(c.matrix.toarray(), np.eye(t.dim), atol=1e-15)


def _dense_factors(V, X):
    """The factors I - sum_j V_ij (x) X_ij* as dense arrays, last factor first."""
    dim = V[0][0].shape[0] * X.h_dim
    for i in reversed(range(X.k)):
        yield np.eye(dim, dtype=complex) - sum(
            np.kron(v.toarray(), x.conj().T) for v, x in zip(V[i], X.X[i])
        )


def _cauchy_oracle(V, X):
    """Dense resolvents by np.linalg.solve, the defect root by eigh with the
    negative part clipped, and the smallest singular value over the factors."""
    acc = np.eye(V[0][0].shape[0] * X.h_dim, dtype=complex)
    min_sv = math.inf
    for factor in _dense_factors(V, X):
        min_sv = min(min_sv, np.linalg.svd(factor, compute_uv=False)[-1])
        acc = np.linalg.solve(factor, acc)
    w, u = np.linalg.eigh(defect(X))
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    return np.kron(np.eye(V[0][0].shape[0]), root) @ acc, min_sv


def _oracle_point(rng, kind, n, h):
    if kind == "nilpotent":
        return random_nilpotent_point(rng, n, h, 0.8)
    x = random_point(rng, n, h, 0.6)
    return x if kind == "inside" else x.scaled(2.5)


def _assert_matches_oracle(c, V, X):
    """Checks the CSR matrix; returns the oracle's smallest singular value."""
    ref, ref_sv = _cauchy_oracle(V, X)
    assert np.abs(c.matrix.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()
    return ref_sv


@pytest.mark.parametrize("kind", ["nilpotent", "inside", "outside"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees", [((2, 1), (3, 3)), ((3,), (4,)), ((1, 1, 2), (2, 2, 2))])
def test_cauchy_graded_matches_dense_oracle(rng, n, degrees, side, kind):
    t = FockTruncation(n, degrees)
    X = _oracle_point(rng, kind, n, 2)
    c = cauchy_operator(t, X, side)
    ref_sv = _assert_matches_oracle(c, creation_tuple(t, side), X)
    assert c.min_singular == pytest.approx(ref_sv, rel=1e-12)


@pytest.mark.parametrize("side", ["left", "right"])
def test_cauchy_graded_inverse_iteration_branch(rng, side):
    """I - A_i acts as the identity on the other factors, so its smallest
    singular value is taken on factor i's own truncation: at (2,1)@(6,2)
    with h = 2 factor 1 has dimension 254 > EXACT_DIM, and the value is
    still the exact SVD of its dense I - A_1, as for factor 2 (dimension
    6).  It matches the SVD of the dense factors I - A_i on the whole
    space, with the full and with a thin rhs."""
    t = FockTruncation((2, 1), (6, 2))
    X = random_point(rng, (2, 1), 2, 0.6)
    dim = t.dim * X.h_dim
    assert t.factor_dims[0] * X.h_dim > EXACT_DIM >= t.factor_dims[1] * X.h_dim
    c = cauchy_operator(t, X, side)
    ref_sv = _assert_matches_oracle(c, creation_tuple(t, side), X)
    assert c.min_singular == pytest.approx(ref_sv, rel=1e-12)
    thin = cauchy_operator(t, X, side, rhs=rng.standard_normal((dim, 2)) + 0j)
    assert thin.min_singular == c.min_singular


@pytest.mark.parametrize("kind", ["inside", "nilpotent"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_cauchy_min_singular_is_computed_on_read(rng, monkeypatch, side, kind):
    """Inside the ball the certificate 1 - rho_i > 1e-12 decides the guard,
    so neither the full operator nor a thin rhs calls ``_min_singular``
    before ``min_singular`` is read.  The full operator is one gather on the
    whole truncation; a thin rhs gathers each factor's resolvent on that
    factor's own truncation, last factor first, and never the whole space.
    Read afterwards, the value matches the SVD of the dense factors and is
    the same for thin and full."""
    t = FockTruncation((2, 1), (5, 5))
    X = _oracle_point(rng, kind, (2, 1), 2)
    dim = t.dim * X.h_dim
    rhs = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    gather = berezin._creation_gather
    shapes = []

    def refuse(*args):
        raise AssertionError("_min_singular before min_singular is read")

    def recorded(trunc, *args, **kwargs):
        shapes.append((trunc.n, trunc.degrees))
        return gather(trunc, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(berezin, "_min_singular", refuse)
        patched.setattr(berezin, "_creation_gather", recorded)
        full = cauchy_operator(t, X, side)
        assert shapes == [((2, 1), (5, 5))]
        shapes.clear()
        thin = cauchy_operator(t, X, side, rhs=rhs)
        assert shapes == [((1,), (5,)), ((2,), (5,))]
    ref = min(np.linalg.svd(f, compute_uv=False)[-1]
              for f in _dense_factors(creation_tuple(t, side), X))
    assert full.min_singular == pytest.approx(ref, rel=1e-12)
    assert thin.min_singular == full.min_singular


@pytest.mark.parametrize("side", ["left", "right"])
def test_cauchy_multiplies_no_sparse_matrices(refuse_sparse, rng, side):
    """The resolvent is gathered, not multiplied out: while ``cauchy_operator``
    runs no product of two sparse matrices is taken, and with a thin rhs no
    sparse matrix on the whole space (both sides >= dim) is built at all,
    only each factor's resolvent on its own truncation."""
    t = FockTruncation((2, 1), (3, 3))
    X = random_point(rng, (2, 1), 2, 0.6)
    dim = t.dim * X.h_dim
    rhs = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    refuse_sparse()
    full = cauchy_operator(t, X, side)
    refuse_sparse(dim)
    thin = cauchy_operator(t, X, side, rhs=rhs)
    want = full.matrix @ rhs
    assert np.abs(thin.matrix - want).max() <= 1e-12 * np.abs(want).max()


def test_cauchy_graded_guard_takes_the_exact_value_where_the_certificate_fails():
    """The point 3 against the right creation has rho = 3, so the
    certificate fails and the exact value is taken at once: at degree 30 it
    is about 4.29e-15 and raises, at degree 12 it is about 1.67e-6 and the
    operator is returned with that value."""
    x = PolyballPoint.from_scalars([[3.0]])
    assert x.row_norms()[0] == 3.0
    for degree, singular in ((30, True), (12, False)):
        t = FockTruncation([1], [degree])
        (factor,) = _dense_factors(creation_tuple(t, "right"), x)
        ref = np.linalg.svd(factor, compute_uv=False)[-1]
        if singular:
            with pytest.raises(SingularResolventError) as ex:
                cauchy_operator(t, x, "right")
            assert ex.value.min_singular == ref
            assert ex.value.min_singular == pytest.approx(4.29e-15, rel=0.01)
        else:
            assert cauchy_operator(t, x, "right").min_singular == ref
            assert ref == pytest.approx(1.67e-6, rel=0.01)


@pytest.mark.parametrize("n, degrees", [((2, 1), (3, 3)), ((3,), (4,)), ((1, 1, 2), (2, 2, 2))])
def test_creation_rows_are_contractions(n, degrees):
    """The premise of the certificate sigma_min(I - A_i) >= 1 - rho_i: every
    row [V_i1 ... V_in_i] of truncated left or right creations has operator
    norm at most 1.  Its Gram sum_j V_ij V_ij* is diagonal with entries 0
    and 1, a projection, so the bound holds exactly."""
    t = FockTruncation(n, degrees)
    for side in ("left", "right"):
        for row in creation_tuple(t, side):
            gram = sum(v @ v.conj().T for v in row).toarray()
            assert np.array_equal(gram, np.diag(np.diag(gram)))
            assert set(np.diag(gram).tolist()) <= {0, 1}
            assert np.linalg.norm(np.hstack([v.toarray() for v in row]), 2) <= 1.0 + 1e-15


def _dense_word_sum(t, X, side):
    """The resolvent expanded word by word: for each basis word b the block
    Delta^(1/2) X_b* (one 2-D product with ``X.monomial(b)``), plus 0.0,
    scattered onto a dense zero matrix at the cells of V_b~, the compression
    ``word_matrix(t, b~, e, side)`` (S_b~, or R_b~ on the right side).  No
    cell is hit twice (checked), so this is bit for bit the sum of
    kron(V_b~, block) onto zeros, without the dense kron products."""
    root = psd_sqrt(defect(X))
    e = identity_multiword(t.n)
    h = X.h_dim
    out = np.zeros((t.dim, h, t.dim, h), dtype=complex)
    hit = np.zeros((t.dim, t.dim), dtype=bool)
    for f in range(t.dim):
        b = t.basis_word(f)
        cells = word_matrix(t, b.reverse(), e, side).tocoo()
        assert not hit[cells.row, cells.col].any()
        hit[cells.row, cells.col] = True
        out[cells.row, :, cells.col, :] = root @ X.monomial(b).conj().T + 0.0
    return out.reshape(t.dim * h, t.dim * h)


@pytest.mark.parametrize("kind", ["nilpotent", "inside", "outside"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees", [((2, 1), (3, 3)), ((2, 1), (5, 5)), ((1, 1, 2), (2, 2, 2)),
                                        ((3,), (4,)), ((2,), (4,))])
def test_cauchy_full_operator_is_the_dense_identity_series(rng, n, degrees, side, kind):
    """The full operator, the series (I - A)^-1 I gathered in closed form,
    is a CSR matrix equal bit for bit to the series expanded word by word
    on a dense identity.  (2,1)@(5,5) is the shape of the deep verify run.
    Single-factor points do not commute within their factor, so the shapes
    (3,) and (2,) tell a word from its reversal."""
    t = FockTruncation(n, degrees)
    X = _oracle_point(rng, kind, n, 2)
    c = cauchy_operator(t, X, side)
    want = _dense_word_sum(t, X, side)
    assert isinstance(c.matrix, scipy.sparse.csr_matrix)
    assert c.matrix.dtype == want.dtype and c.matrix.shape == want.shape
    assert c.matrix.toarray().tobytes() == want.tobytes()


@pytest.mark.parametrize("side", ["left", "right"])
def test_cauchy_rhs_is_matrix_times_rhs(rng, side):
    """A thin rhs gives the full operator's product with it, and the same
    min_singular, with left and right creations at (2,1)@(6,2) (factor 1
    has dimension 254 with h = 2, above EXACT_DIM, where min_singular is
    still the exact SVD of its own dense I - A)."""
    t = FockTruncation((2, 1), (6, 2))
    X = random_point(rng, (2, 1), 2, 0.6)
    dim = t.dim * X.h_dim
    rhs = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    full = cauchy_operator(t, X, side)
    thin = cauchy_operator(t, X, side, rhs=rhs)
    want = full.matrix @ rhs
    assert thin.matrix.shape == rhs.shape
    assert np.abs(thin.matrix - want).max() <= 1e-12 * np.abs(want).max()
    assert thin.min_singular == full.min_singular


def test_cauchy_rhs_shape_checked():
    t = FockTruncation([1], [3])
    with pytest.raises(ValueError):
        cauchy_operator(t, PolyballPoint.from_scalars([[0.5]]), rhs=np.ones((t.dim + 1, 1)))


@pytest.mark.parametrize("n", [(2,), (1, 1), (2, 1)])
def test_cauchy_truncation_shape_checked(n):
    """The truncation's n must be the point's: a one-letter point against
    truncations with two letters or two factors is refused."""
    x = PolyballPoint.from_scalars([[0.5]])
    with pytest.raises(ValueError, match="does not match point shape"):
        cauchy_operator(FockTruncation(n, [2] * len(n)), x)


@pytest.mark.parametrize("side", ["Left", "lft"])
def test_unknown_side_is_refused_by_the_kernel_and_the_resolvent(rng, side):
    """A misspelt side raises, instead of gathering the kernel at the
    right pair table's cells or giving the right-side resolvent."""
    t = FockTruncation((2, 1), (2, 2))
    x = random_point(rng, (2, 1), 2, 0.5)
    with pytest.raises(ValueError, match="side must be"):
        pair_transforms(berezin_kernel(x, t).as_tensor(), [0], t, side=side)
    with pytest.raises(ValueError, match="side must be"):
        cauchy_operator(t, x, side)


def _whole_box(t):
    return np.ones(t.dim, dtype=bool)


def test_poisson_kernel_at_zero():
    t = FockTruncation([2], [2])
    p = poisson_window(PolyballPoint([[np.zeros((1, 1)), np.zeros((1, 1))]]), t, _whole_box(t))
    np.testing.assert_allclose(p, np.eye(t.dim), atol=1e-15)


def test_berezin_kernel_diverges_outside_ball():
    t = FockTruncation([1], [3])
    with pytest.raises(DivergenceError):
        berezin_kernel(PolyballPoint.from_scalars([[1.2]]), t)


def test_poisson_kernel_psd_up_to_tail(rng):
    """Hermitian, and PSD up to the index-pair shell mass the box drops."""
    t = FockTruncation([2, 1], [3, 3])
    x = random_point(rng, (2, 1), 2, 0.5)
    m = poisson_window(x, t, _whole_box(t))
    tail = dropped_shell_mass(x.row_norms(), pairs=True, box=t.degrees)
    assert tail > 0.0
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -tail


def _factorization_bound(x, t):
    """||P - C^H C|| <= the index-pair tail plus ||Delta|| (prod 1/(1 - rho_i) - 1)^2,
    which covers the Gram columns of the dropped creation shells, for a
    point inside the ball that is not jointly nilpotent."""
    rho = x.row_norms()
    tail = dropped_shell_mass(rho, pairs=True, box=t.degrees)
    return tail + opnorm(defect(x)) * (math.prod(1.0 / (1.0 - r) for r in rho) - 1.0) ** 2


def test_factorization_random(rng):
    t = FockTruncation([2, 1], [3, 3])
    for _ in range(5):
        x = random_point(rng, (2, 1), 2, 0.5)
        c = cauchy_operator(t, x, "right").matrix.toarray()
        diff = np.linalg.norm(poisson_window(x, t, _whole_box(t)) - c.conj().T @ c, 2)
        assert diff <= _factorization_bound(x, t)


def test_factorization_sparse_difference_norm(rng):
    """At (2,1)@(5,5) (dim 756, above EXACT_DIM) the Lanczos norm of the
    CSR difference P - C^H C (``hermitian_norms``) matches eigvalsh of the
    dense difference."""
    t = FockTruncation([2, 1], [5, 5])
    x = random_point(rng, (2, 1), 2, 0.5)
    p = poisson_window(x, t, _whole_box(t))
    cs = cauchy_operator(t, x, "right").matrix
    c = cs.toarray()
    d = scipy.sparse.csr_matrix(p) - cs.conj().T @ cs
    assert d.shape[0] > EXACT_DIM
    w = np.linalg.eigvalsh(p - c.conj().T @ c)
    assert hermitian_norms([d])[0] == pytest.approx(max(-w[0], w[-1]), rel=1e-12)


def test_factorization_window_exact_nilpotent(rng):
    """For jointly nilpotent points the two sides agree exactly once both are
    compressed to the window with budget equal to the nilpotency reach."""
    t = FockTruncation([2, 1], [4, 4])
    x = random_nilpotent_point(rng, (2, 1), 3, 0.8)
    c = cauchy_operator(t, x, "right").matrix.toarray()
    d = poisson_window(x, t, _whole_box(t)) - c.conj().T @ c
    mask = np.repeat(t.window_mask([2, 2]), x.h_dim)
    assert np.abs(d[np.ix_(mask, mask)]).max() < 1e-12


WINDOW_SHAPES = [((2, 1), (3, 3)), ((1,), (6,)), ((3,), (4,)), ((1, 1, 2), (2, 2, 2)), ((2, 2), (3, 2))]


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("n, degrees", WINDOW_SHAPES)
def test_poisson_window_is_the_full_kernel_sliced(rng, n, degrees, h):
    """On the window of every room of the box, ``poisson_window`` has every
    bit of the word-by-word full-box kernel sliced to the window, at random
    points (row norm up to 0.9), a nilpotent point and the zero point."""
    t = FockTruncation(n, degrees)
    points = [random_point(rng, n, h, 0.9), random_point(rng, n, h, 0.3),
              PolyballPoint([[np.zeros((h, h))] * ni for ni in n])]
    if h > 1:
        points.append(random_nilpotent_point(rng, n, h, 0.9))
    for x in points:
        full = _poisson_kernel_by_words(x, t, "right")
        for room in itertools.product(*(range(d + 1) for d in degrees)):
            window = t.window_mask(room)
            keep = np.repeat(window, h)
            assert poisson_window(x, t, window).tobytes() == full[np.ix_(keep, keep)].tobytes()


def test_defect_factor_order(rng):
    x = random_point(rng, (2, 1), 3, 0.7)
    y = PolyballPoint(list(reversed(x.X)))
    assert np.abs(defect(x) - defect(y)).max() < 1e-12


def test_classical_disc_kernel_value():
    """Scalar pairing against the boundary state recovers the classical disc
    kernel: at z = 0.5 the value is 3."""
    from polyball.pluriharm import CbMapData, poisson_transform

    mu = CbMapData.point_mass([1.0], 24)
    val = poisson_transform(mu, PolyballPoint.from_scalars([[0.5]])).value[0, 0]
    assert abs(val - 3.0) < 1e-6
    # direct series oracle
    oracle = sum(0.5 ** abs(m) for m in range(-24, 25))
    assert abs(val - oracle) < 1e-14


def _poisson_kernel_by_words(x, t, side):
    """Word-by-word reference: at (a, b) the right side appends b and strips
    the tail a, the left side prepends b~ and strips the head a~."""
    h = x.h_dim
    out = np.zeros((t.dim, h, t.dim, h), dtype=complex)
    basis = [t.basis_word(k) for k in range(t.dim)]
    for a, b in lambda_pairs_within_degrees(t.n, t.degrees):
        xm = x.monomial(a) @ x.monomial(b).conj().T
        for s, w in enumerate(basis):
            parts = []
            for wi, ai, bi, d in zip(w.parts, a.parts, b.parts, t.degrees):
                if side == "right":
                    full, cut = wi.letters + bi.letters, ai.letters
                    ok = len(full) >= len(cut) and full[len(full) - len(cut):] == cut
                    rest = full[: len(full) - len(cut)]
                else:
                    full, cut = bi.letters[::-1] + wi.letters, ai.letters[::-1]
                    ok = full[: len(cut)] == cut
                    rest = full[len(cut):]
                if not ok or len(rest) > d:
                    break
                parts.append(Word(rest, wi.n))
            else:
                out[t.basis_index(MultiWord(tuple(parts))), :, s, :] += xm
    return out.reshape(t.dim * h, t.dim * h)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees, kind", [
    pytest.param((2, 1), (2, 2), "inside", id="n0-degrees0"),
    pytest.param((3,), (3,), "inside", id="n1-degrees1"),
    pytest.param((1, 1, 2), (1, 1, 2), "inside", id="n2-degrees2"),
    pytest.param((2, 1), (3, 2), "inside", id="n3-degrees3"),
    pytest.param((2, 1), (3, 2), "nilpotent", id="n3-degrees3-nilpotent"),
    pytest.param((1, 1, 2), (1, 1, 2), "nilpotent", id="n2-degrees2-nilpotent"),
])
def test_poisson_kernel_matches_word_reference(rng, n, degrees, kind, side):
    """The blocks X_a X_b*, placed at the pairings of the side's pair table,
    are the word-by-word sum, and on the right side so is ``poisson_window``
    on the whole box: the left table's cells are the ones the universal
    model's left compressions gather."""
    t = FockTruncation(n, degrees)
    x = random_point(rng, n, 2, 0.5) if kind == "inside" else random_nilpotent_point(rng, n, 3, 0.8)
    pairs = lambda_pairs_within_degrees(n, degrees)
    xm = np.stack([x.monomial(a) @ x.monomial(b).conj().T for a, b in pairs])
    got = [pair_operator(t, side, np.arange(len(pairs)), xm).dense()]
    if side == "right":
        got.append(poisson_window(x, t, _whole_box(t)))
    want = _poisson_kernel_by_words(x, t, side)
    # bit for bit, signed zeros of the nilpotent monomials included
    for g in got:
        np.testing.assert_array_equal(g.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("side", ["right"])
@pytest.mark.parametrize("kind, h", [("inside", 2), ("inside", 3), ("nilpotent", 3)])
def test_poisson_kernel_batched_products_match_per_pair_loop(rng, kind, h, side):
    """The X_a X_b* of all lambda pairs come from one batched matmul; the
    per-pair 2-D products, scattered the same way, give the same bytes."""
    n, degrees = (2, 1), (3, 3)
    t = FockTruncation(n, degrees)
    x = random_point(rng, n, h, 0.5) if kind == "inside" else random_nilpotent_point(rng, n, h, 0.8)
    pairs = lambda_pairs_within_degrees(n, degrees)
    xm = np.stack([x.monomial(a) @ x.monomial(b).conj().T for a, b in pairs])
    want = pair_operator(t, side, np.arange(len(pairs)), xm).dense()
    got = poisson_window(x, t, _whole_box(t))
    assert got.tobytes() == want.tobytes()


def _dense_pair_scatter(trunc, side, pids, blocks):
    """The former dense assembly of ``pair_operator``: a += scatter of each
    block onto a zero matrix at its pair's cells, ids of -1 dropped."""
    e = blocks.shape[1]
    indptr, src, dst = trunc.pair_table(side)
    out = np.zeros((trunc.dim * e, trunc.dim * e), dtype=complex)
    for pid, block in zip(pids, blocks):
        if pid >= 0:
            cells = slice(indptr[pid], indptr[pid + 1])
            out.reshape(trunc.dim, e, trunc.dim, e)[dst[cells], :, src[cells], :] += block
    return out


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("ids", ["all", "some"])
def test_pair_operator_dense_is_the_dense_scatter(ids, side):
    """``pair_operator`` is canonical CSR with one stored e x e block per
    cell (cells * e^2 entries, explicit zeros included), and its ``dense()``
    has the bytes of the dense += scatter, for every pair id in order and
    for a shuffled subset with ids off the box, with e = 1, 2 and 3.  The
    blocks are corners of the pair monomials at a nilpotent point, some
    set to -0.0; each stored entry has the bits of its dense entry, -0.0
    turned +0.0."""
    t = FockTruncation((2, 1), (3, 2))
    x = random_nilpotent_point(np.random.default_rng(7), t.n, 3, 0.8)
    pairs = lambda_pairs_within_degrees(t.n, t.degrees)
    table = x.monomial_table(t)
    xa = table[[t.basis_index(a) for a, _ in pairs]]
    xb = table[[t.basis_index(b) for _, b in pairs]]
    monomials = xa @ xb.conj().transpose(0, 2, 1)
    pids = np.arange(len(pairs))
    if ids == "some":
        pids = np.random.default_rng(8).permutation(len(pairs))[: len(pairs) // 2]
        pids[::5] = -1
    indptr, _, _ = t.pair_table(side)
    kept = pids[pids >= 0]
    cells = int((indptr[kept + 1] - indptr[kept]).sum())
    for e in (1, 2, 3):
        xm = monomials[: pids.size, :e, :e].copy()
        xm[::4, 0, 0] = -0.0
        assert np.signbit(xm.real[xm.real == 0]).any()
        op = pair_operator(t, side, pids, xm)
        assert isinstance(op.matrix, scipy.sparse.csr_matrix)
        assert op.matrix.has_canonical_format and op.matrix.nnz == cells * e * e
        want = _dense_pair_scatter(t, side, pids, xm)
        assert op.dense().tobytes() == want.tobytes()
        stored = op.matrix.tocoo()
        assert stored.data.tobytes() == want[stored.row, stored.col].tobytes()


def _word_product(x, i, letters):
    """X_{i,w} by the 2-D recursion X_{i,j1} (X_{i,j2} (... (X_{i,jp} I)))."""
    if not letters:
        return np.eye(x.h_dim, dtype=complex)
    return x.entry(i, letters[0]) @ _word_product(x, i, letters[1:])


def _monomial_by_words(x, mw):
    """X_mw as I times each nonempty factor word in factor order."""
    out = np.eye(x.h_dim, dtype=complex)
    for i, w in enumerate(mw.parts, start=1):
        if not w.is_identity:
            out = out @ _word_product(x, i, w.letters)
    return out


TABLE_SHAPES = [((2,), (3,)), ((2, 1), (3, 2)), ((1, 2, 1), (2, 1, 2))]


def _table_point(rng, n, h, kind):
    if kind == "inside":
        return random_point(rng, n, h, 0.6)
    if h == 1:  # the only nilpotent scalars are zeros; take negative ones
        return PolyballPoint([[np.full((1, 1), -0.0)] * ni for ni in n])
    return random_nilpotent_point(rng, n, h, 0.8)


@pytest.mark.parametrize("kind", ["inside", "nilpotent"])
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("n, degrees", TABLE_SHAPES)
def test_monomial_table_is_bitwise_the_per_word_monomials(n, degrees, h, kind):
    """Entry f of the table has the bytes of X.monomial(basis_word(f)) and of
    the 2-D product chain, signed zeros of nilpotent points included."""
    t = FockTruncation(n, degrees)
    x = _table_point(np.random.default_rng([1, h, len(n)]), n, h, kind)
    table = x.monomial_table(t)
    assert table.shape == (t.dim, h, h)
    for f in range(t.dim):
        b = t.basis_word(f)
        want = _monomial_by_words(x, b)
        assert np.array_equal(table[f].view(np.uint8), want.view(np.uint8)), b
        assert np.array_equal(x.monomial(b).view(np.uint8), want.view(np.uint8)), b
    if kind == "nilpotent" and h > 1 and len(n) > 1:
        parts = table.view(np.float64)
        assert np.signbit(parts[parts == 0]).any()  # the comparison saw signed zeros


def test_monomial_table_rejects_a_foreign_truncation():
    x = PolyballPoint.from_scalars([[0.1, 0.2]])
    with pytest.raises(ValueError):
        x.monomial_table(FockTruncation((2, 1), (1, 1)))


def test_a_long_symbol_key_costs_its_length_not_its_level(monkeypatch):
    """A key of 40 letters in a 2-letter factor is a chain of 40 products;
    the level holding it would be 2^40 matrices, so building any level past
    the short ones fails the test before it can allocate."""
    build = PolyballPoint._factor_levels

    def short_levels_only(self, i, d):
        assert d <= 4, f"level {d} of factor {i} built"
        return build(self, i, d)

    monkeypatch.setattr(PolyballPoint, "_factor_levels", short_levels_only)
    n = (2, 1)
    x = random_point(np.random.default_rng(7), n, 2, 0.9)
    a = multiword([[1, 2, 2, 1] * 10, []], n)
    b = multiword([[], [1]], n)
    sym = MultiToeplitzSymbol(n, 1, {(a, b): np.eye(1)})
    want = _monomial_by_words(x, a) @ _monomial_by_words(x, b).conj().T
    assert np.array_equal(x.monomial(a).view(np.uint8), _monomial_by_words(x, a).view(np.uint8))
    assert np.all(want != 0)
    np.testing.assert_array_equal(evaluate_symbol(sym, x), want)
    # the table still builds its short levels
    t = FockTruncation(n, (3, 1))
    assert x.monomial_table(t).shape == (t.dim, 2, 2)


def _stored_arrays(value) -> int:
    """The number of arrays held in ``value``, through lists, tuples and dicts."""
    if isinstance(value, np.ndarray):
        return 1
    if isinstance(value, dict):
        return sum(map(_stored_arrays, value.values()))
    if isinstance(value, (list, tuple)):
        return sum(map(_stored_arrays, value))
    return 0


def test_monomial_stores_nothing_on_the_point():
    """``monomial`` adds no attribute and no array to the point, however
    many words it forms."""
    n = (2, 1)
    x = random_point(np.random.default_rng(5), n, 2, 0.8)
    before = {name: _stored_arrays(value) for name, value in vars(x).items()}
    for letters in ([1, 2, 1], [2], [1, 1, 1, 1], [2, 1]):
        x.monomial(multiword([letters, [1]], n))
    assert {name: _stored_arrays(value) for name, value in vars(x).items()} == before


def test_a_point_written_in_place_gives_the_new_table():
    """An entry changed in place after a table reaches the next table, which
    agrees bit for bit with ``monomial`` on every basis word."""
    n = (2, 1)
    t = FockTruncation(n, (2, 2))
    x = random_point(np.random.default_rng(3), n, 2, 0.8)
    before = x.monomial_table(t)
    x.X[0][0][0, 0] += 1
    table = x.monomial_table(t)
    assert not np.array_equal(table, before)
    for f in range(t.dim):
        want = x.monomial(t.basis_word(f))
        assert np.array_equal(table[f].view(np.uint8), want.view(np.uint8))


def _berezin_kernel_by_words(x, t):
    """The per-basis-word loop: row block f is Delta^(1/2) X_b* for b = basis_word(f)."""
    root, h = psd_sqrt(defect(x)), x.h_dim
    mat = np.zeros((t.dim * h, h), dtype=complex)
    for f in range(t.dim):
        mat[f * h : (f + 1) * h, :] = root @ x.monomial(t.basis_word(f)).conj().T
    return mat


@pytest.mark.parametrize("kind", ["inside", "nilpotent"])
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("n, degrees", TABLE_SHAPES)
def test_berezin_kernel_is_bitwise_the_per_word_loop(rng, n, degrees, h, kind):
    t = FockTruncation(n, degrees)
    x = _table_point(rng, n, h, kind)
    got = berezin_kernel(x, t).matrix
    want = _berezin_kernel_by_words(x, t)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("kind", ["inside", "nilpotent"])
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("n, degrees", TABLE_SHAPES)
def test_berezin_kernel_is_the_right_resolvents_vacuum_column(rng, n, degrees, h, kind):
    """The kernel's blocks Delta^(1/2) X_b* are the ones the right-side
    resolvent places at R_b~ e = e_b, so its vacuum column (the first h
    columns) holds the kernel, equal entry for entry (the CSR round trip
    may change the sign of a zero)."""
    t = FockTruncation(n, degrees)
    x = _table_point(rng, n, h, kind)
    column = cauchy_operator(t, x, "right").matrix[:, :h].toarray()
    assert np.array_equal(berezin_kernel(x, t).matrix, column)


def _same_csr(a, b) -> bool:
    return a.shape == b.shape and all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
                                      for f in ("indptr", "indices", "data"))


@pytest.mark.parametrize("kind", ["inside", "nilpotent"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n, degrees", TABLE_SHAPES)
def test_cauchy_columns_are_the_full_operators_columns(n, degrees, side, kind):
    """Gathered on a basis mask (a random one, the smallest window, every
    word), the resolvent is the full operator's columns at the mask's words,
    the point's h columns each: the same CSR arrays, byte for byte.  The
    all-true mask gives the full operator itself."""
    t = FockTruncation(n, degrees)
    rng = np.random.default_rng([3, len(n)])
    x = _table_point(rng, n, 2, kind)
    full = cauchy_operator(t, x, side).matrix
    masks = [rng.random(t.dim) < 0.5, t.window_mask([1] * len(n)), np.ones(t.dim, dtype=bool)]
    for mask in masks:
        cols = np.flatnonzero(mask)
        got = cauchy_operator(t, x, side, columns=mask).matrix
        assert got.shape == (t.dim * 2, cols.size * 2)
        assert _same_csr(got, full[:, (cols[:, None] * 2 + np.arange(2)).ravel()])
    assert _same_csr(got, full)


def test_cauchy_columns_and_rhs_are_exclusive(rng):
    """A thin rhs has no columns to gather: both together are refused, as
    is a mask that is not a boolean over the basis."""
    t = FockTruncation((2, 1), (2, 2))
    x = random_point(rng, (2, 1), 2, 0.5)
    mask = np.ones(t.dim, dtype=bool)
    with pytest.raises(ValueError, match="exclusive"):
        cauchy_operator(t, x, columns=mask, rhs=np.ones((t.dim * 2, 1)))
    for bad in (mask[1:], mask.astype(int)):
        with pytest.raises(ValueError, match="columns needs"):
            cauchy_operator(t, x, columns=bad)


def _berezin_transform_by_rank_factor(gm, x, t):
    """The transform through the rank factor of Delta: rank(Delta) rows
    sqrt(w) u* per basis word, over the eigenvalues w of Delta above
    1e-12 * max(largest, 1), and K* (g (x) I) K summed over them."""
    w, u = np.linalg.eigh(defect(x))
    keep = w > 1e-12 * max(w[-1], 1.0)
    factor = np.sqrt(w[keep])[:, None] * u[:, keep].conj().T
    k3 = factor @ x.monomial_table(t).conj().transpose(0, 2, 1)
    return np.einsum("adx,ab,bdy->xy", k3.conj(), gm, k3)


def test_berezin_transform_at_a_singular_defect_keeps_the_rank_factor_value(rng):
    """At the creation tuple on (2)@(2) the defect is the vacuum projection,
    of rank 1 on h = 7: the full root's h rows per word give the transform
    of a Hermitian symbol operator that the rank-1 factor gave, to 1e-14."""
    x = creation_point(FockTruncation([2], [2]), 1.0)
    w = np.linalg.eigvalsh(defect(x))
    assert x.h_dim == 7 and np.count_nonzero(w > 1e-12) == 1
    t = FockTruncation([2], [3])
    op = symbol_operator(random_hermitian_symbol(rng, (2,), 1, 3, density=0.6), t)
    got = berezin_transform(op, x)
    want = _berezin_transform_by_rank_factor(op.dense(), x, t)
    assert np.abs(want).max() > 0.1
    assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("kind", ["inside", "nilpotent"])
def test_berezin_transform_sparse_and_dense_agree(rng, kind):
    """A monomial S_a S_b* as CSR, as a dense array and as a FockOperator
    gives one value to 1e-14."""
    n = (2, 1)
    t = FockTruncation(n, (3, 3))
    x = _table_point(rng, n, 2, kind)
    for a, b in lambda_pairs_up_to_total(n, 3):
        sparse = word_matrix(t, a, b)
        dense = word_operator(t, a, b)
        got = berezin_transform(sparse, x, trunc=t)
        assert np.abs(got - berezin_transform(dense.dense(), x, trunc=t)).max() <= 1e-14
        assert np.abs(got - berezin_transform(dense, x)).max() <= 1e-14


def _berezin_transform_by_einsum(gm, k3, e):
    """The former dense contraction of K* (g (x) I) K."""
    dim, _, h = k3.shape
    if e == 1:
        return np.einsum("adx,ab,bdy->xy", k3.conj(), gm, k3, optimize=True)
    t4 = gm.reshape(dim, e, dim, e)
    out = np.einsum("pdx,piqj,qdy->xiyj", k3.conj(), t4, k3, optimize=True)
    return out.reshape(h * e, h * e)


@pytest.mark.parametrize("e_dim", [1, 2, 3])
@pytest.mark.parametrize("sparse", [False, True])
def test_berezin_transform_extended_keeps_its_values(rng, e_dim, sparse):
    """With a coefficient space, dense or sparse, the transform matches the
    former einsum to rounding."""
    n = (2, 1)
    t = FockTruncation(n, (3, 2))
    x = random_point(rng, n, 3, 0.6)
    sym = random_hermitian_symbol(rng, n, e_dim, 3, density=0.6)
    op = symbol_operator(sym, t)
    g = scipy.sparse.csr_matrix(op.dense()) if sparse else op
    got = berezin_transform(g, x, trunc=t)
    want = _berezin_transform_by_einsum(op.dense(), berezin_kernel(x, t).as_tensor(), e_dim)
    assert got.shape == (3 * e_dim, 3 * e_dim)
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def _old_pair_box(q, box):
    full = math.prod((1.0 + r) / (1.0 - r) for r in q)
    kept = math.prod(1.0 + 2.0 * sum(r ** p for p in range(1, d + 1)) for r, d in zip(q, box))
    return full - kept


def _old_word_box(q, box):
    full = math.prod(1.0 / (1.0 - x) for x in q)
    kept = math.prod(sum(x ** m for m in range(c + 1)) for x, c in zip(q, box))
    return full - kept


def _old_pair_cap(q, cap):
    full = math.prod((1.0 + x) / (1.0 - x) for x in q)
    poly = np.zeros(cap + 1)
    poly[0] = 1.0
    for x in q:
        fac = np.zeros(cap + 1)
        fac[0] = 1.0
        for m in range(1, cap + 1):
            fac[m] = 2.0 * x ** m
        poly = np.convolve(poly, fac)[: cap + 1]
    return full - float(poly.sum())


def _old_word_cap(q, cap):
    full = math.prod(1.0 / (1.0 - x) for x in q)
    poly = np.zeros(cap + 1)
    poly[0] = 1.0
    for x in q:
        fac = np.array([x ** m for m in range(cap + 1)])
        poly = np.convolve(poly, fac)[: cap + 1]
    return full - float(poly.sum())


@pytest.mark.parametrize("pairs, kept, old", [
    (True, "box", _old_pair_box),
    (False, "box", _old_word_box),
    (True, "cap", _old_pair_cap),
    (False, "cap", _old_word_cap),
])
def test_dropped_shell_mass_matches_old_formulas(pairs, kept, old):
    """The shared shell-mass helper against the four formulas it replaced
    (Poisson-kernel box, transform box and total cap for creation words and
    for index pairs): equal to the last bit."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        q = [float(x) for x in rng.uniform(0.0, 0.95, k)]
        if kept == "box":
            box = tuple(int(d) for d in rng.integers(0, 9, k))
            got, want = dropped_shell_mass(q, pairs, box=box), old(q, box)
        else:
            cap = int(rng.integers(0, 12))
            got, want = dropped_shell_mass(q, pairs, cap=cap), old(q, cap)
        assert got == want, (q, got, want)
    # nothing kept but the unit shell: the whole non-constant mass drops
    full = (1.0 + 0.5) / 0.5 if pairs else 1.0 / 0.5
    args = {"box": (0,)} if kept == "box" else {"cap": 0}
    assert dropped_shell_mass([0.5], pairs, **args) == full - 1.0


def test_kernel_tail_matches_closed_form(rng):
    """The kernel tail through the shared shell-mass helper agrees with the
    closed form sqrt(||Delta|| (prod 1/(1-rho^2) - prod (1-rho^(2d+2))/(1-rho^2)))
    to rounding."""
    for n, degrees in [((2, 1), (3, 2)), ((1,), (5,)), ((1, 1, 1), (1, 2, 0))]:
        x = random_point(rng, n, 2, 0.6)
        k = berezin_kernel(x, FockTruncation(n, degrees))
        rho2 = [r * r for r in x.row_norms()]
        full = math.prod(1.0 / (1.0 - r2) for r2 in rho2)
        kept = math.prod((1.0 - r2 ** (d + 1)) / (1.0 - r2) for r2, d in zip(rho2, degrees))
        want = math.sqrt(np.linalg.norm(defect(x), 2) * (full - kept))
        assert k.tail_bound > 0.0
        assert k.tail_bound == pytest.approx(want, rel=1e-12)


def test_nilpotent_exactness_needs_degrees_covering_the_index(rng):
    """The kernel drops its tail only when every degree covers its factor's
    nilpotency index (d_i + 1 >= p_i)."""
    x = random_nilpotent_point(rng, (2, 1), 3, 0.8)
    for degrees, exact in [((2, 2), True), ((3, 2), True), ((2, 1), False), ((1, 4), False)]:
        tail = berezin_kernel(x, FockTruncation((2, 1), degrees)).tail_bound
        assert (tail == 0.0) == exact, (degrees, tail)
    y = random_point(rng, (2, 1), 3, 0.5)
    assert berezin_kernel(y, FockTruncation((2, 1), (4, 4))).tail_bound > 0.0


@pytest.mark.parametrize("e_dim", [1, 2])
@pytest.mark.parametrize("r", [0.3, 0.9, 1 - 1e-6])
def test_nilpotency_index_is_per_factor_not_h_dim(r, e_dim):
    """r times the left creations on (2,1)@(2,2): h = 21, yet every word of
    length 3 vanishes in each factor, so the (3,3) box holds the whole
    series.  The kernel's tail is 0 (it was 0.0126, 4.33 and 5.0e5 when h
    was taken as the index), and the Berezin transform
    of a symbol's operator is the r-scaled symbol at the creations."""
    small, box = FockTruncation((2, 1), (2, 2)), FockTruncation((2, 1), (3, 3))
    x = creation_point(small, r)
    assert x.h_dim == 21 and x.nilpotency_indices() == [3, 3]
    assert berezin_kernel(x, box).tail_bound == 0.0
    sym = random_hermitian_symbol(np.random.default_rng(4), (2, 1), e_dim, 3)
    got = berezin_transform(symbol_operator(sym, box), x)
    assert np.abs(got - symbol_operator(sym, small, r).dense()).max() <= 1e-15


def _nilpotency_by_svd(x):
    """Reference: the first p with ||Phi_i^p(I)||_2 <= 1e-300, per factor."""
    def index(row):
        y = np.eye(x.h_dim, dtype=complex)
        for p in range(1, x.h_dim + 1):
            y = sum(m @ y @ m.conj().T for m in row)
            if np.linalg.norm(y, 2) <= 1e-300:
                return p
        return math.inf
    return [index(row) for row in x.X]


@pytest.mark.parametrize("t2", [1.5e-301, 3e-301])
def test_nilpotency_indices_are_the_svd_verdicts(rng, t2):
    """The max-entry shortcut keeps the SVD verdict: on nilpotent and
    non-nilpotent points, and on X = t [[1, 1], [1, 1]], whose Phi(I) has
    entries 2 t^2 of about 1e-301 below 1e-300 and norm 4 t^2 on either
    side of it (index 1 for the smaller t, 2 for the larger)."""
    t = math.sqrt(t2)
    tiny = PolyballPoint([[t * np.ones((2, 2))]])
    assert tiny.nilpotency_indices() == _nilpotency_by_svd(tiny) == [1 if t2 < 2e-301 else 2]
    for x in (random_nilpotent_point(rng, (2, 1), 3, 0.9), random_point(rng, (2, 1), 3, 0.6),
              PolyballPoint([[np.diag([1.0, 1.0], -1)], [0.5 * np.eye(3)]])):
        assert x.nilpotency_indices() == _nilpotency_by_svd(x)


def test_nilpotency_indices():
    """The first p with Phi_i^p(I) = 0, factor by factor; infinity for a
    factor that is not nilpotent."""
    shift = np.diag([1.0, 1.0], -1)
    x = PolyballPoint([[shift, np.zeros((3, 3))], [shift @ shift]])
    assert x.nilpotency_indices() == [3, 2]
    y = PolyballPoint([[shift], [0.5 * np.eye(3)]])
    assert y.nilpotency_indices() == [3, math.inf]
