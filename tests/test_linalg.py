import ast
import math
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

import polyball
from polyball._linalg import (EXACT_DIM, _lanczos_norms, hermitian_norms, min_eig_hermitian, opnorm,
                              psd_sqrt, psd_verdict)
from polyball.fock import FockTruncation
from polyball.sampling import random_hermitian_symbol
from polyball.toeplitz import symbol_operator


@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_hermitian_norm_matches_opnorm(rng, dim):
    """Random indefinite Hermitian matrices, either sign of eigenvalue the
    larger in modulus, in one call."""
    mats = []
    for shift in (-3.0, 0.0, 3.0):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(a + a.conj().T + shift * np.eye(dim))
    assert hermitian_norms(mats) == pytest.approx([opnorm(h) for h in mats], rel=1e-12)


@pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6), (1, 1)])
@pytest.mark.parametrize("zero", [False, True])
def test_opnorm_is_numpys_spectral_norm(rng, shape, zero):
    """The first singular value is every bit of np.linalg.norm(m, 2), on
    square, tall, wide, 1 x 1 and zero matrices."""
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if zero:
        m = np.zeros(shape, dtype=complex)
    assert np.float64(opnorm(m)).tobytes() == np.linalg.norm(m, 2).tobytes()


def test_hermitian_norm_empty():
    assert hermitian_norms([np.zeros((0, 0), dtype=complex)]) == [0.0]
    assert hermitian_norms([]) == []


@pytest.mark.parametrize("fmt", ["dense", "csr"])
def test_hermitian_norm_lanczos_above_exact_dim(rng, fmt):
    """Above EXACT_DIM the norm comes from Lanczos, on dense or CSR
    matrices: it matches the SVD norm, for either sign of the eigenvalue
    largest in modulus, and repeats bit for bit."""
    dim = 700
    assert dim > EXACT_DIM
    hs = []
    for shift in (-10.0, 10.0):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a[rng.random((dim, dim)) > 0.05] = 0.0
        hs.append(a + a.conj().T + shift * np.eye(dim))
    mats = hs if fmt == "dense" else [sp.csr_matrix(h) for h in hs]
    got = hermitian_norms(mats)
    assert got == pytest.approx([opnorm(h) for h in hs], rel=1e-12)
    assert hermitian_norms(mats) == got


@pytest.mark.parametrize("dim", [5, 700])
def test_hermitian_norm_of_zero_is_zero(dim):
    """No nonzero entry: norm 0, without the Lanczos start vector that the
    operator would map to zero."""
    assert hermitian_norms([sp.csr_matrix((dim, dim), dtype=complex),
                            np.zeros((dim, dim), dtype=complex)]) == [0.0, 0.0]


def _grid_operators(n, degrees, seed, grid=(0.1, 0.3, 0.5, 0.6, 0.9)):
    trunc = FockTruncation(n, degrees)
    sym = random_hermitian_symbol(np.random.default_rng(seed), n, 1, 2)
    return [symbol_operator(sym, trunc, r).matrix for r in grid]


def _eigvalsh_norm(m) -> float:
    w = np.linalg.eigvalsh(m.toarray())
    return float(max(-w[0], w[-1]))


@pytest.mark.parametrize("n, degrees, seeds", [((2, 1), (5, 5), range(12)),
                                               ((3,), (5,), range(3)),
                                               ((1, 1, 2), (3, 3, 3), range(3))])
def test_hermitian_norms_match_eigvalsh_on_symbol_grids(n, degrees, seeds):
    """The radius grid of seeded Hermitian symbol operators above the cut
    (dimensions 378, 364 and 240): each norm of the batched recurrence is
    dense eigvalsh's to 1e-12, in at most N steps per matrix."""
    for seed in seeds:
        mats = _grid_operators(n, degrees, seed)
        assert mats[0].shape[0] > EXACT_DIM
        norms, steps = _lanczos_norms(mats)
        assert norms == pytest.approx([_eigvalsh_norm(m) for m in mats], rel=1e-12)
        assert hermitian_norms(mats) == norms
        assert all(1 <= s <= m.shape[0] for s, m in zip(steps, mats))


def test_hermitian_norms_where_the_negative_end_dominates():
    """At seed 3 the eigenvalue of largest modulus is negative at every
    radius of the grid, and its modulus is the norm."""
    mats = _grid_operators((2, 1), (5, 5), 3)
    ws = [np.linalg.eigvalsh(m.toarray()) for m in mats]
    assert all(-w[0] > w[-1] for w in ws)
    assert hermitian_norms(mats) == pytest.approx([-w[0] for w in ws], rel=1e-12)


def test_hermitian_norms_repeat_bit_for_bit():
    mats = _grid_operators((2, 1), (5, 5), 4)
    first = hermitian_norms(mats)
    assert all(np.float64(a).tobytes() == np.float64(b).tobytes()
               for a, b in zip(first, hermitian_norms(mats)))


@pytest.mark.parametrize("dim", [5, 300])
def test_hermitian_norms_of_a_nan_entry_are_nan(dim):
    """A NaN entry gives NaN on both paths, without an exception and next to
    finite matrices that keep their norms; LAPACK's eigvalsh alone would
    return numbers (or fail to converge) on it."""
    good = sp.diags(np.linspace(-2.0, 1.0, dim)).astype(complex).tocsr()
    bad = good.copy()
    bad.data[0] = np.nan
    norms = hermitian_norms([bad, good, bad.toarray()])
    assert math.isnan(norms[0]) and math.isnan(norms[2])
    assert norms[1] == pytest.approx(2.0, rel=1e-12)


def test_hermitian_norms_of_a_one_by_one_matrix():
    assert hermitian_norms([np.array([[-3.0 + 0j]]), sp.csr_matrix([[2.5 + 0j]])]) == [3.0, 2.5]
    assert _lanczos_norms([sp.csr_matrix([[-3.0 + 0j]])]) == ([3.0], [1])


def test_lanczos_stops_at_n_steps_on_a_symmetric_spectrum():
    """The path graph's spectrum is symmetric, so neither end ever clears
    the other and the recurrence runs its N steps; matrices of different
    dimensions share the batch, each stopped at its own N."""
    mats = [sp.diags([np.ones(d - 1), np.ones(d - 1)], [-1, 1]).astype(complex).tocsr()
            for d in (250, 200)]
    norms, steps = _lanczos_norms(mats)
    assert steps == [250, 200]
    assert norms == pytest.approx([2 * math.cos(math.pi / (d + 1)) for d in (250, 200)],
                                  rel=1e-12)


def test_the_package_imports_no_sparse_eigensolver():
    """Norms come from ``hermitian_norms`` alone: no module of the package
    imports ``scipy.sparse.linalg`` (ARPACK, ``eigsh``), at its top or
    inside a function."""
    found = []
    for path in sorted(pathlib.Path(polyball.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names
                      if name.startswith("scipy.sparse.linalg")]
    assert found == []


def _is_spectral(name: str) -> bool:
    return name == "svd" or name.startswith("eig")


def test_only_linalg_calls_a_spectral_routine():
    """``_linalg`` is the only module that calls a LAPACK spectral routine:
    no other module of the package names ``linalg.svd`` or ``linalg.eig*``
    (``np.linalg.eigvalsh``, ``scipy.linalg.eigh`` and the like) or imports
    such a name from ``numpy.linalg`` or ``scipy.linalg``.  Singular values
    come from ``_linalg.singular_values``."""
    found = []
    for path in sorted(pathlib.Path(polyball.__file__).parent.glob("*.py")):
        if path.stem == "_linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and _is_spectral(node.attr):
                dotted = ast.unparse(node)
                if dotted.split(".")[-2:-1] == ["linalg"]:
                    found.append(f"{path.stem}: {dotted}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg",
                                                                      "scipy.linalg"):
                found += [f"{path.stem}: {node.module}.{alias.name}" for alias in node.names
                          if _is_spectral(alias.name)]
    assert found == []


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0, math.nan)])
@pytest.mark.parametrize("helper", ["psd_verdict", "min_eig_hermitian", "psd_sqrt"])
def test_a_non_finite_matrix_gives_nan_and_no_lapack_call(monkeypatch, helper, entry):
    """I_5 with a NaN (or an infinity) at (0, 0): LAPACK's eigvalsh reads
    it as a number, so each PSD helper answers without calling it, with a
    NaN figure and a "not PSD" verdict: ``psd_verdict`` gives (False, NaN,
    NaN), ``min_eig_hermitian`` NaN and ``psd_sqrt`` the all-NaN root."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on a non-finite matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    m = np.eye(5, dtype=complex)
    m[0, 0] = entry
    if helper == "psd_verdict":
        psd, min_eig, scale = psd_verdict(m)
        assert psd is False and math.isnan(min_eig) and math.isnan(scale)
    elif helper == "min_eig_hermitian":
        assert math.isnan(min_eig_hermitian(m))
    else:
        root = psd_sqrt(m)
        assert root.shape == m.shape and root.dtype == m.dtype and np.isnan(root).all()


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_psd_sqrt_is_the_hermitian_root(rng, dim):
    """A PSD matrix of rank dim - 1 (one eigenvalue zero): the root is
    Hermitian and squares back to the matrix."""
    a = rng.standard_normal((dim, dim - 1)) + 1j * rng.standard_normal((dim, dim - 1))
    m = a @ a.conj().T
    root = psd_sqrt(m)
    scale = max(opnorm(m), 1.0)
    assert np.abs(root - root.conj().T).max() <= 1e-14 * scale
    assert np.abs(root @ root - m).max() <= 1e-13 * scale


def test_psd_sqrt_of_a_tiny_negative_eigenvalue_is_not_nan():
    """An eigenvalue of -1e-17, which a plain sqrt would turn into NaN, is
    clipped to zero."""
    m = np.diag([2.0, 0.5, -1e-17]).astype(complex)
    assert np.linalg.eigvalsh(m)[0] < 0.0
    root = psd_sqrt(m)
    assert not np.isnan(root).any()
    np.testing.assert_allclose(root, np.diag(np.sqrt([2.0, 0.5, 0.0])), atol=1e-15)
