import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from polyball import fock, naimark, pluriharm, sampling, verify
from polyball._linalg import EXACT_DIM, opnorm
from polyball.berezin import (
    GramFactor,
    PolyballPoint,
    cauchy_operator,
    defect,
    dropped_shell_mass,
    poisson_window,
)
from polyball.fock import FockTruncation
from polyball.sampling import random_nilpotent_point, random_point
from polyball.verify import RunConfig


def test_vacuum_cyclicity_spans_the_truncation():
    res = verify.run_item("fock.vacuum_cyclicity", RunConfig(n=(2, 1), degrees=(3, 2)))
    assert res.max_error == res.tolerance == 0.0


def test_vacuum_cyclicity_reports_a_dropped_letter(monkeypatch):
    """Without S_12 no word holding the letter 2 in factor 1 is reached, so
    the item reports a positive rank deficit."""
    full = verify.creation_tuple

    def without_s12(trunc, side="left"):
        rows = full(trunc, side)
        return [rows[0][:1]] + rows[1:]

    monkeypatch.setattr(verify, "creation_tuple", without_s12)
    cfg = RunConfig(n=(2, 1), degrees=(3, 2))
    res = verify.run_item("fock.vacuum_cyclicity", cfg)
    # the words of factor 1 written in the letter 1 alone: one per length
    assert res.max_error == 15 * 3 - 4 * 3
    assert res.max_error > res.tolerance


def _vacuum_span_rank(trunc, letters):
    """matrix_rank of the vectors S_w e_vac over all words w: the letters
    applied to the vacuum column until no new column appears."""
    cols = np.eye(trunc.dim)[:, :1]
    while True:
        grown = np.unique(np.hstack([cols] + [s.toarray() @ cols for s in letters]), axis=1)
        if grown.shape[1] == cols.shape[1]:
            return np.linalg.matrix_rank(cols)
        cols = grown


@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize("n, degrees", [((2, 1), (3, 2)), ((3,), (3,)), ((1, 1, 2), (2, 1, 2))])
def test_vacuum_cyclicity_gap_is_the_rank_deficit(monkeypatch, n, degrees, drop):
    """The item's count of unreached basis vectors is dim minus the rank of
    the span of the vacuum's images, with all letters and with the first
    letter of factor 1 dropped."""
    full = verify.creation_tuple

    def letters(trunc, side="left"):
        rows = full(trunc, side)
        return [rows[0][1:]] + rows[1:] if drop else rows

    monkeypatch.setattr(verify, "creation_tuple", letters)
    trunc = verify.FockTruncation(n, degrees)
    rank = _vacuum_span_rank(trunc, [s for row in letters(trunc) for s in row])
    gap = verify.run_item("fock.vacuum_cyclicity", RunConfig(n=n, degrees=degrees)).max_error
    assert gap == trunc.dim - rank
    assert (gap > 0) == drop


@pytest.mark.parametrize("degrees, max_len", [((3, 3), 3), ((5, 5), 2)])
def test_complete_positivity_catches_a_negative_shift(monkeypatch, degrees, max_len):
    """At both benchmark configurations the item divides each transform by
    its largest diagonal entry, which is at most its norm, so shifting each
    transform to a smallest eigenvalue of -1e-11 ||out|| fails the 1e-12
    tolerance."""
    transform = verify.berezin_transform

    def shifted(g, x, **kwargs):
        out = transform(g, x, **kwargs)
        w = np.linalg.eigvalsh(out)
        return out - (w[0] + 1e-11 * np.abs(w).max()) * np.eye(len(out))

    cfg = RunConfig(n=(2, 1), degrees=degrees, max_len=max_len)
    assert verify.run_item("berezin.complete_positivity", cfg).passed
    monkeypatch.setattr(verify, "berezin_transform", shifted)
    res = verify.run_item("berezin.complete_positivity", cfg)
    assert res.max_error > res.tolerance


def test_complete_positivity_draws_no_dim_by_dim_matrix(monkeypatch):
    """At (2,1)@(5,5) the item's PSD operators come from thin factors: a
    generator that passes every call through refuses any standard_normal
    draw whose two sides both reach the truncation's dimension."""
    cfg = RunConfig(n=(2, 1), degrees=(5, 5), max_len=2, seed=23)
    dim = FockTruncation(cfg.n, cfg.degrees).dim

    class ThinDraws:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, size=None, *args, **kwargs):
            sides = np.atleast_1d(size if size is not None else ())[-2:]
            if sides.size == 2 and sides.min() >= dim:
                raise AssertionError(f"standard_normal draw of shape {size}")
            return self.rng.standard_normal(size, *args, **kwargs)

    rng = verify._rng
    monkeypatch.setattr(verify, "_rng", lambda cfg, salt: ThinDraws(rng(cfg, salt)))
    assert verify.run_item("berezin.complete_positivity", cfg).passed


@pytest.mark.parametrize("degrees, max_len, factor", [((3, 3), 3, 1.5), ((5, 5), 2, 1.5),
                                                      ((5, 5), 2, 1.2)],
                         ids=["small-x1.5", "deep-x1.5", "deep-x1.2"])
def test_poisson_factorization_catches_a_scaled_resolvent(monkeypatch, degrees, max_len, factor):
    """At seed 0 the factorization item passes with the true resolvent and
    fails with the resolvent's matrix scaled by 1.5 at both benchmark
    configurations, and by 1.2 at verify-deep."""
    cfg = RunConfig(n=(2, 1), degrees=degrees, max_len=max_len, seed=0)
    assert verify.run_item("berezin.poisson_factorization", cfg).passed
    resolvent = verify.cauchy_operator

    def scaled(*args, **kwargs):
        res = resolvent(*args, **kwargs)
        res.matrix = factor * res.matrix
        return res

    monkeypatch.setattr(verify, "cauchy_operator", scaled)
    res = verify.run_item("berezin.poisson_factorization", cfg)
    assert res.max_error > res.tolerance


@pytest.mark.parametrize("degrees, max_len, factor", [((3, 3), 3, 1.1), ((5, 5), 2, 1.1),
                                                      ((5, 5), 2, 1.01)],
                         ids=["small-x1.1", "deep-x1.1", "deep-x1.01"])
def test_poisson_factorization_windows_catch_a_slightly_scaled_resolvent(monkeypatch, degrees,
                                                                         max_len, factor):
    """At seed 0 the room-graded windows pass the true resolvent and fail it
    scaled by 1.1 at both benchmark configurations and by 1.01 at
    verify-deep: on the deepest windows the scaled square misses P by about
    2e-2, far above the dropped word shells."""
    cfg = RunConfig(n=(2, 1), degrees=degrees, max_len=max_len, seed=0)
    res = verify.run_item("berezin.poisson_factorization", cfg)
    assert res.passed and res.tolerance == 1.0
    resolvent = verify.cauchy_operator

    def scaled(*args, **kwargs):
        res = resolvent(*args, **kwargs)
        res.matrix = factor * res.matrix
        return res

    monkeypatch.setattr(verify, "cauchy_operator", scaled)
    res = verify.run_item("berezin.poisson_factorization", cfg)
    assert res.max_error > res.tolerance


def test_poisson_factorization_fails_on_a_nan_resolvent(monkeypatch):
    """A NaN in one entry of the resolvent reaches the item's figure, which
    then fails its tolerance instead of reading as 0."""
    cfg = RunConfig(n=(2, 1), degrees=(3, 3), max_len=3, seed=0)
    resolvent = verify.cauchy_operator

    def poisoned(*args, **kwargs):
        res = resolvent(*args, **kwargs)
        res.matrix.data[0] = np.nan
        return res

    monkeypatch.setattr(verify, "cauchy_operator", poisoned)
    res = verify.run_item("berezin.poisson_factorization", cfg)
    assert math.isnan(res.max_error) and not res.passed


def _poison_first(result):
    """Puts a NaN in the first entry of a kernel, symbol or list of blocks,
    or in the first stored entry of a sparse operator."""
    if isinstance(result, list):
        result[0] = np.full_like(result[0], np.nan)
    elif hasattr(result, "coeffs"):
        key = next(iter(result.coeffs))
        result.coeffs[key] = np.full_like(result.coeffs[key], np.nan)
    elif sp.issparse(result.matrix):
        result.matrix.data[0] = np.nan
    else:
        result.matrix[0, 0] = np.nan
    return result


@pytest.mark.parametrize("item, function", [
    ("berezin.moment_identity", "berezin_kernel"),
    ("toeplitz.fourier_roundtrip", "extract_symbol"),
    ("pluriharm.nu_roundtrip", "nu_trace_form"),
    ("toeplitz.membership", "word_operator"),
    ("berezin.kernel_isometry", "berezin_kernel"),
    ("berezin.intertwining", "berezin_kernel"),
    ("toeplitz.fourier_roundtrip", "random_hermitian_symbol"),
    ("pluriharm.nu_roundtrip", "random_hermitian_symbol"),
    ("toeplitz.norm_monotonicity", "random_hermitian_symbol"),
])
@pytest.mark.parametrize("degrees, max_len", [((3, 3), 3), ((5, 5), 2)], ids=["small", "deep"])
def test_items_fail_on_a_nan(monkeypatch, item, function, degrees, max_len):
    """A NaN in what the item compares (the Berezin kernel's vacuum entry,
    the first coefficient of the recovered symbol, the first trace-form
    block, the first stored entry of a word operator, the first coefficient
    of a drawn symbol, which the item scatters, scales or takes the norms
    of) reaches the item's figure, which then fails its tolerance instead of
    reading as 0 or raising."""
    cfg = RunConfig(n=(2, 1), degrees=degrees, max_len=max_len, seed=0)
    original = getattr(verify, function)
    monkeypatch.setattr(verify, function,
                        lambda *args, **kwargs: _poison_first(original(*args, **kwargs)))
    res = verify.run_item(item, cfg)
    assert math.isnan(res.max_error) and not res.passed


@pytest.mark.parametrize("degrees, max_len", [((3, 3), 3), ((5, 5), 2)], ids=["small", "deep"])
def test_nu_roundtrip_catches_scaled_trace_form_blocks(monkeypatch, degrees, max_len):
    """At seed 0 the item passes the trace-form blocks and fails them scaled
    by 1.1: it compares them with the r-scaled symbol, not a map with itself."""
    cfg = RunConfig(n=(2, 1), degrees=degrees, max_len=max_len, seed=0)
    assert verify.run_item("pluriharm.nu_roundtrip", cfg).passed
    form = verify.nu_trace_form
    monkeypatch.setattr(verify, "nu_trace_form", lambda *args: [1.1 * b for b in form(*args)])
    res = verify.run_item("pluriharm.nu_roundtrip", cfg)
    assert res.max_error > res.tolerance


@pytest.mark.parametrize("degrees, max_len", [((3, 3), 3), ((5, 5), 2)], ids=["small", "deep"])
def test_one_op_computes_nilpotency_indices_once_per_point(monkeypatch, degrees, max_len):
    """In one verify op every point is asked for its nilpotency indices at
    most once, so none computes them twice and the point needs no memo."""
    cfg = RunConfig(n=(2, 1), degrees=degrees, max_len=max_len, seed=1)
    reads = []  # the points, kept alive so that their ids stay distinct
    indices = PolyballPoint.nilpotency_indices

    def counted(self):
        reads.append(self)
        return indices(self)

    monkeypatch.setattr(PolyballPoint, "nilpotency_indices", counted)
    verify.verify_suite(cfg)
    assert len(reads) == len({id(x) for x in reads}) > 0


ITEM_NAMES = [
    "words.comparability_reversal", "words.lambda_membership",
    "fock.isometry_on_window", "fock.cross_factor_commutation", "fock.adjoint_consistency",
    "fock.vacuum_cyclicity",
    "toeplitz.membership", "toeplitz.fourier_roundtrip", "toeplitz.norm_monotonicity",
    "berezin.kernel_isometry", "berezin.intertwining", "berezin.moment_identity",
    "berezin.complete_positivity", "berezin.poisson_factorization",
    "berezin.defect_factor_order", "berezin.spectral_radius",
    "naimark.dilation_reproduction", "naimark.psd_refusal",
    "pluriharm.schur_equivalence", "pluriharm.structure_positivity",
    "pluriharm.poisson_transform_cp", "pluriharm.herglotz_real_part", "pluriharm.nu_roundtrip",
]


def test_item_names_keep_their_order():
    """A row's position salts its draws, so an inserted or moved row would
    re-seed every later item."""
    assert [name for name, *_ in verify._IDENTITIES] == ITEM_NAMES


@pytest.mark.parametrize("name", ITEM_NAMES)
def test_run_item_folds_errors_to_their_maximum_and_keeps_a_nan(monkeypatch, name):
    """Every item's figure is Python's max(0.0, *errors) over the errors it
    yields, +0.0 for none or only -0.0, and NaN when a NaN comes first,
    last or between real errors.  The item gets the draws of its row."""
    cfg = RunConfig(seed=5)
    idx = ITEM_NAMES.index(name)
    _, anchor, tol, _ = verify._IDENTITIES[idx]
    draws = []

    def fold(errors):
        def item(cfg, rng):
            draws.append(rng.random())
            yield from errors
        rows = list(verify._IDENTITIES)
        rows[idx] = (name, anchor, tol, item)
        monkeypatch.setattr(verify, "_IDENTITIES", rows)
        return verify.run_item(name, cfg)

    for errors in ([math.nan, 0.5, 2.0], [0.5, np.float64(np.nan), 2.0], [0.5, 2.0, math.nan]):
        res = fold(errors)
        assert math.isnan(res.max_error) and not res.passed
    for errors in ([], [-0.0, -0.0], [-1.0, -0.0]):
        res = fold(errors)
        assert res.max_error == 0.0 and math.copysign(1.0, res.max_error) == 1.0
        assert res.passed
    res = fold([-1.0, np.float64(3e-13), 2e-13, 1])
    assert res.max_error == 1.0 and type(res.max_error) is float
    assert res.max_error == max(0.0, -1.0, 3e-13, 2e-13, 1)
    assert (res.name, res.anchor) == (name, anchor)
    assert res.tolerance == (cfg.tol if tol is None else tol)
    assert draws == [verify._rng(cfg, idx).random()] * len(draws)


@pytest.mark.parametrize("degrees, max_len", [((3, 3), 3), ((5, 5), 2)], ids=["small", "deep"])
def test_moment_identity_catches_a_scaled_transform(monkeypatch, degrees, max_len):
    """The gathered transforms scaled by 1.1 fail the item at seed 0."""
    cfg = RunConfig(n=(2, 1), degrees=degrees, max_len=max_len, seed=0)
    transforms = verify.pair_transforms
    monkeypatch.setattr(verify, "pair_transforms", lambda *args: 1.1 * transforms(*args))
    res = verify.run_item("berezin.moment_identity", cfg)
    assert res.max_error > res.tolerance


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("n, degrees", [((2, 1), (3, 3)), ((1,), (6,)), ((3,), (4,)),
                                        ((1, 1, 2), (2, 2, 2)), ((2, 2), (3, 2))])
def test_poisson_factorization_rooms_stay_within_their_bounds(n, degrees, h):
    """Against the dense full-box P - C^H C, the largest entry on the window
    of every room b of the box is at most the item's bound
    ||Delta|| dropped_shell_mass(rho^2, pairs=False, box=b) plus its stated
    rounding allowance, at random points with row norms up to 0.9,
    nilpotent points and the zero point.  Without the allowance 7 of these
    15 cases fail, most at h = 1, where the bound is attained; with a
    quarter of it 1 case fails."""
    rng = np.random.default_rng([len(n), *degrees, h])
    t = FockTruncation(n, degrees)
    points = [PolyballPoint([[np.zeros((h, h))] * ni for ni in n])]
    points += [random_point(rng, n, h, r) for r in rng.uniform(0.05, 0.9, 8)]
    if h > 1:
        points += [random_nilpotent_point(rng, n, h, r) for r in rng.uniform(0.05, 0.9, 4)]
    for x in points:
        c = cauchy_operator(t, x).matrix.toarray()
        diff = poisson_window(x, t, np.ones(t.dim, dtype=bool)) - c.conj().T @ c
        dnorm = opnorm(defect(x))
        rho2 = [r * r for r in x.row_norms()]
        mass = math.prod(1.0 / (1.0 - q) for q in rho2)
        allowance = verify.FACTORIZATION_ALLOWANCE * np.finfo(float).eps * dnorm * mass
        for room in itertools.product(*(range(d + 1) for d in degrees)):
            keep = np.repeat(t.window_mask(room), h)
            err = np.abs(diff[np.ix_(keep, keep)]).max()
            assert err <= dnorm * dropped_shell_mass(rho2, pairs=False, box=room) + allowance


def test_poisson_factorization_builds_no_full_box_product(monkeypatch, refuse_sparse):
    """At (2,1)@(5,5) the item multiplies no sparse operand whose sides both
    reach the truncation's dimension: only the window's columns of the
    resolvent are squared."""
    cfg = RunConfig(n=(2, 1), degrees=(5, 5), max_len=2, seed=0)
    dim = FockTruncation(cfg.n, cfg.degrees).dim
    refuse_sparse(operand=dim)
    assert verify.run_item("berezin.poisson_factorization", cfg).passed


@pytest.mark.parametrize("degrees, max_len", [((5, 5), 2), ((3, 3), 3)], ids=["deep", "small"])
def test_verify_takes_no_dense_spectral_solve_above_the_cut(monkeypatch, degrees, max_len):
    """At the verify-deep (--degrees 5,5 --max-len 2) and verify-small
    configurations no dense eigenvalue, SVD or rank solve sees a matrix
    larger than EXACT_DIM: above the cut spectral values come from the
    operators' structure.  The numpy module functions are wrapped too, so
    ``norm(m, 2)`` and ``matrix_rank`` are caught through their inner
    ``svd``."""
    from numpy.linalg import _linalg as np_linalg

    def guarded(name, f):
        def call(a, *args, **kwargs):
            if max(np.shape(a)[-2:], default=0) > EXACT_DIM:
                raise AssertionError(f"{name} on a matrix of shape {np.shape(a)}")
            return f(a, *args, **kwargs)
        return call

    for name in ("eigvalsh", "eigh", "svd", "matrix_rank"):
        wrapped = guarded(name, getattr(np.linalg, name))
        monkeypatch.setattr(np.linalg, name, wrapped)
        monkeypatch.setattr(np_linalg, name, wrapped)
    results = verify.verify_suite(RunConfig(n=(2, 1), degrees=degrees, max_len=max_len))
    assert all(r.passed for r in results)


@pytest.mark.parametrize("item", ["toeplitz.membership", "toeplitz.fourier_roundtrip",
                                  "pluriharm.nu_roundtrip"])
def test_verify_items_read_operators_without_densifying(refuse_dense, item):
    """At (2,1)@(5,5), max-len 2 (dimension 378) membership, the Fourier
    round trip and the trace-form round trip read the operators' stored
    entries: ``FockOperator.dense`` and SciPy's ``toarray`` refuse any result
    whose sides are both at least the truncation's dimension."""
    cfg = RunConfig(n=(2, 1), degrees=(5, 5), max_len=2, seed=0)
    refuse_dense(FockTruncation(cfg.n, cfg.degrees).dim)
    assert verify.run_item(item, cfg).passed


def test_adjoint_item_builds_only_the_adjoint_letters(monkeypatch):
    """Warm, ``fock.adjoint_consistency`` at n = (2, 1) builds the 3 adjoint
    letters per side it checks and takes the letters from ``creation_tuple``:
    6 ``creation_matrix`` calls, and the same result."""
    cfg = RunConfig(n=(2, 1), degrees=(3, 3))
    first = verify.run_item("fock.adjoint_consistency", cfg)
    build, calls = fock.creation_matrix, []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(fock, "creation_matrix", counted)
    monkeypatch.setattr(verify, "creation_matrix", counted)
    assert verify.run_item("fock.adjoint_consistency", cfg) == first
    assert len(calls) == 6


def _refused(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return refuse


def test_poisson_transform_cp_reads_no_word_columns(monkeypatch):
    """At (3,3)@(4,4) the item passes without ``naimark.word_columns``: its
    compression data is gathered at the pair table's cells, not read off
    one column per word of the depth-5 truncation (dim 132,496)."""
    for module in (naimark, pluriharm):
        monkeypatch.setattr(module, "word_columns", _refused("word_columns"))
    cfg = RunConfig(n=(3, 3), degrees=(4, 4), max_len=2, seed=23)
    assert verify.run_item("pluriharm.poisson_transform_cp", cfg).passed


def test_verify_suite_makes_no_from_row_isometries_call(monkeypatch):
    """Every structure-theorem item reads the universal model, so the suite
    passes with ``from_row_isometries`` refused wherever it could be looked up."""
    for module in (pluriharm, sampling, verify):
        monkeypatch.setattr(module, "from_row_isometries", _refused("from_row_isometries"),
                            raising=False)
    assert all(r.passed for r in verify.verify_suite(RunConfig(n=(2, 1), degrees=(3, 3))))


def test_verify_builds_each_shape_structure_once(cold_caches):
    """From cold caches, verify at both benchmark configurations builds each
    memoized shape structure (pair table and creation letters per (n,
    degrees, side), word enumeration per argument, kernel monomials and
    tails) at most once:
    every miss stored an entry, and none was evicted and built again."""
    for degrees, max_len in (((3, 3), 3), ((5, 5), 2)):
        results = verify.verify_suite(RunConfig(n=(2, 1), degrees=degrees, max_len=max_len))
        assert all(r.passed for r in results)
    names = {cache.__name__ for cache in cold_caches}
    assert {"_pair_table", "_creation_letters", "_words_up_to", "_multiwords_up_to_total",
            "_lambda_pairs_up_to_total"} <= names
    for cache in cold_caches:
        info = cache.cache_info()
        assert info.misses == info.currsize, (cache.__name__, info)


def test_verify_results_do_not_depend_on_earlier_runs(cold_caches):
    """No state leaks between runs: seed 3 after seed 5 in one process gives
    the results of seed 3 after every shape cache is cleared."""
    verify.verify_suite(RunConfig(seed=5))
    warm = [r.to_json() for r in verify.verify_suite(RunConfig(seed=3))]
    for cache in cold_caches:
        cache.cache_clear()
    cold = [r.to_json() for r in verify.verify_suite(RunConfig(seed=3))]
    assert warm == cold


@pytest.mark.parametrize("degrees, max_len, batches", [((5, 5), 2, [5]), ((3, 3), 3, [])],
                         ids=["deep", "small"])
def test_verify_lanczos_calls(monkeypatch, degrees, max_len, batches):
    """Lanczos runs only where verify reads a spectral value above EXACT_DIM:
    at verify-deep one batched recurrence holding the five symbol-operator
    norms of norm_monotonicity, at verify-small none.  The factorization
    item reads no spectral value, and a resolvent's min_singular is an exact
    SVD, so neither runs it."""
    from polyball import _linalg

    lanczos = _linalg._lanczos_norms
    sizes = []

    def counted(mats):
        sizes.append(len(mats))
        return lanczos(mats)

    monkeypatch.setattr(_linalg, "_lanczos_norms", counted)
    results = verify.verify_suite(RunConfig(n=(2, 1), degrees=degrees, max_len=max_len))
    assert all(r.passed for r in results)
    assert sizes == batches


@pytest.mark.parametrize("degrees, max_len", [((3, 3), 3), ((5, 5), 2)])
def test_complete_positivity_forms_no_dense_gram(monkeypatch, degrees, max_len):
    """The item's PSD operators reach the transform as thin factors, never
    as a dim x dim Gram matrix, at both benchmark configurations."""
    cfg = RunConfig(n=(2, 1), degrees=degrees, max_len=max_len, seed=0)
    dim = FockTruncation(cfg.n, cfg.degrees).dim
    transform = verify.berezin_transform
    shapes = []

    def thin_only(g, x, **kwargs):
        assert isinstance(g, GramFactor)
        shapes.append(g.factor.shape)
        return transform(g, x, **kwargs)

    monkeypatch.setattr(verify, "berezin_transform", thin_only)
    assert verify.run_item("berezin.complete_positivity", cfg).passed
    assert shapes == [(dim, 8)] * 3
