import math

import numpy as np
import pytest

from polyball.berezin import (
    DivergenceError,
    PolyballPoint,
    dropped_shell_mass,
    berezin_kernel,
    berezin_transform,
    cauchy_operator,
    creation_point,
    defect,
    in_polyball,
    poisson_kernel,
    spectral_radius,
)
from polyball.fock import FockTruncation, creation_matrix, word_operator
from polyball.sampling import random_nilpotent_point, random_point
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
    assert sr.last_two[1] <= 0.7 + 1e-12


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
    assert np.abs(k.matrix[2 * k.defect_rank :, :]).max() == 0.0


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
            s = creation_matrix(t, "left", i, j)
            rhs = np.einsum("gf,gdh->fdh", s.conj(), k3).reshape(k.matrix.shape)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_moment_identity_nilpotent(rng):
    t = FockTruncation([2, 1], [3, 3])
    x = random_nilpotent_point(rng, (2, 1), 3, 0.8)
    k = berezin_kernel(x, t)
    for a, b in lambda_pairs_up_to_total(t.n, 3):
        m = word_operator(t, a, b).dense()
        got = berezin_transform(m, x, trunc=t, kernel=k)
        want = x.monomial(a) @ x.monomial(b).conj().T
        assert np.abs(got - want).max() < 1e-12


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


def test_cauchy_neumann_oracle():
    t = FockTruncation([1], [6])
    r = creation_matrix(t, "right", 1, 1)
    x = PolyballPoint.from_scalars([[0.5]])
    c = cauchy_operator([[r]], x)
    neumann = np.sqrt(0.75) * sum(
        0.5 ** p * np.linalg.matrix_power(r, p) for p in range(7)
    )
    np.testing.assert_allclose(c.matrix, neumann, atol=1e-13)
    assert c.min_singular > 0.4


def test_cauchy_at_zero():
    t = FockTruncation([1], [4])
    r = creation_matrix(t, "right", 1, 1)
    c = cauchy_operator([[r]], PolyballPoint.from_scalars([[0.0]]))
    np.testing.assert_allclose(c.matrix, np.eye(t.dim), atol=1e-15)


def test_poisson_kernel_at_zero():
    t = FockTruncation([2], [2])
    pk = poisson_kernel(PolyballPoint([[np.zeros((1, 1)), np.zeros((1, 1))]]), t)
    np.testing.assert_allclose(pk.op.dense(), np.eye(t.dim), atol=1e-15)
    assert pk.tail_bound == 0.0


def test_poisson_kernel_diverges_outside_ball():
    t = FockTruncation([1], [3])
    with pytest.raises(DivergenceError):
        poisson_kernel(PolyballPoint.from_scalars([[1.2]]), t)


def test_poisson_kernel_psd_up_to_tail(rng):
    t = FockTruncation([2, 1], [3, 3])
    x = random_point(rng, (2, 1), 2, 0.5)
    pk = poisson_kernel(x, t)
    m = pk.op.dense()
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -pk.tail_bound


def test_factorization_random(rng):
    t = FockTruncation([2, 1], [3, 3])
    rmats = [
        [creation_matrix(t, "right", i, j) for j in range(1, ni + 1)]
        for i, ni in enumerate(t.n, 1)
    ]
    for _ in range(5):
        x = random_point(rng, (2, 1), 2, 0.5)
        pk = poisson_kernel(x, t)
        c = cauchy_operator(rmats, x)
        diff = np.linalg.norm(pk.op.dense() - c.matrix.conj().T @ c.matrix, 2)
        assert diff <= pk.factorization_bound


def test_factorization_window_exact_nilpotent(rng):
    """For jointly nilpotent points the two sides agree exactly once both are
    compressed to the window with budget equal to the nilpotency reach."""
    t = FockTruncation([2, 1], [4, 4])
    rmats = [
        [creation_matrix(t, "right", i, j) for j in range(1, ni + 1)]
        for i, ni in enumerate(t.n, 1)
    ]
    x = random_nilpotent_point(rng, (2, 1), 3, 0.8)
    pk = poisson_kernel(x, t)
    c = cauchy_operator(rmats, x)
    d = pk.op.dense() - c.matrix.conj().T @ c.matrix
    mask = np.repeat(t.window_mask([2, 2]), x.h_dim)
    assert np.abs(d[np.ix_(mask, mask)]).max() < 1e-12


def test_poisson_kernel_left_mirror_single_generator(rng):
    # with one generator per factor, appending and prepending coincide
    t = FockTruncation([1, 1], [3, 3])
    x = random_point(rng, (1, 1), 2, 0.5)
    right = poisson_kernel(x, t, side="right").op.dense()
    left = poisson_kernel(x, t, side="left").op.dense()
    np.testing.assert_allclose(left, right, atol=1e-14)


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
    basis = t.basis()
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
@pytest.mark.parametrize("n, degrees", [((2, 1), (2, 2)), ((3,), (3,)), ((1, 1, 2), (1, 1, 2))])
def test_poisson_kernel_matches_word_reference(rng, n, degrees, side):
    t = FockTruncation(n, degrees)
    x = random_point(rng, n, 2, 0.5)
    got = poisson_kernel(x, t, side=side).op.dense()
    want = _poisson_kernel_by_words(x, t, side)
    np.testing.assert_array_equal(got, want)


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
