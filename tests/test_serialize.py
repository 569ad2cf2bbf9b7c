import json

import numpy as np
import pytest
import scipy.sparse

from polyball import serialize, words
from polyball.fock import FockTruncation, word_operator
from polyball.naimark import kernel_from_generator
from polyball.pluriharm import CbMapData
from polyball.sampling import random_hermitian_symbol, random_point, random_psd_kernel
from polyball.toeplitz import MultiToeplitzSymbol
from polyball.words import identity_multiword, multiword


def test_multiword_roundtrip():
    mw = multiword([[1, 2], []], [2, 1])
    data = serialize.multiword_to_json(mw)
    assert data == [[1, 2], []]
    assert serialize.multiword_from_json(data, [2, 1]) == mw


def test_matrix_roundtrip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    data = serialize.matrix_to_json(m)
    assert len(data) == 18
    np.testing.assert_allclose(serialize.matrix_from_json(data, 3), m)


def test_operator_roundtrip():
    t = FockTruncation([2, 1], [2, 2])
    c = np.array([[1.0, 2.0j], [0.0, 0.5]])
    op = word_operator(t, multiword([[1], []], [2, 1]), identity_multiword([2, 1]), c)
    data = serialize.operator_to_json(op)
    rows = [e[0] for e in data["entries"]]
    assert rows == sorted(rows)
    back = serialize.operator_from_json(data)
    np.testing.assert_allclose(back.dense(), op.dense())
    assert back.trunc.n == op.trunc.n and back.coeff_dim == 2


def test_operator_from_json_stores_exactly_the_file_entries():
    """The operator read is CSR and stores exactly the file's entries, an
    explicit 0 among them; writing it back drops the 0 and nothing else."""
    entries = [[0, 0, 1.0, 0.0], [0, 4, 0.0, 0.0], [3, 1, -2.5, 0.5], [7, 7, 0.0, -1.0]]
    data = {"n": [2, 1], "degrees": [2, 2], "coeff_dim": 1, "entries": entries}
    op = serialize.operator_from_json(data)
    assert isinstance(op.matrix, scipy.sparse.csr_matrix)
    stored = op.matrix.tocoo()
    assert [[int(r), int(c), v.real, v.imag]
            for r, c, v in zip(stored.row, stored.col, stored.data)] == entries
    assert serialize.operator_to_json(op)["entries"] == entries[:1] + entries[2:]


@pytest.mark.parametrize("entries, message", [
    ([[-1, 0, 1.0, 0.0]], "entry (-1, 0) is not an index of the 9-dim operator"),
    ([[0, 9, 1.0, 0.0]], "entry (0, 9) is not an index of the 9-dim operator"),
    ([[1, 1, 1.0, 0.0], [0, 0, 1.0, 0.0]],
     "entry (0, 0) follows entry (1, 1): entries must be strictly increasing in (row, col)"),
    ([[0, 0, 1.0, 0.0], [0, 0, 2.0, 0.0]],
     "entry (0, 0) follows entry (0, 0): entries must be strictly increasing in (row, col)"),
    ([[0, 0, float("nan"), 0.0]], "operator has a non-finite entry (NaN or infinity)"),
    ([[0, 0, 1.0, float("inf")]], "operator has a non-finite entry (NaN or infinity)"),
    ([[0, 0, "1", 0.0]], "entry value must be a JSON number, got '1'"),
    ([[True, 0, 1.0, 0.0]], "entry row must be a JSON integer, got True"),
    ([[0, 1.5, 1.0, 0.0]], "entry column must be a JSON integer, got 1.5"),
], ids=["row-negative", "col-past-end", "reversed", "repeated", "nan", "inf",
        "value-string", "row-boolean", "col-fraction"])
def test_operator_from_json_names_the_malformed_entry(entries, message):
    data = {"n": [1, 1], "degrees": [2, 2], "coeff_dim": 1, "entries": entries}
    with pytest.raises(ValueError) as err:
        serialize.operator_from_json(data)
    assert str(err.value) == message


def test_operator_json_is_json_serializable():
    t = FockTruncation([2], [2])
    op = word_operator(t, multiword([[1]], [2]), identity_multiword([2]))
    text = json.dumps(serialize.operator_to_json(op))
    assert "entries" in text


def test_symbol_roundtrip(rng):
    sym = random_hermitian_symbol(rng, (2, 1), 2, 3, density=0.5)
    back = serialize.symbol_from_json(serialize.symbol_to_json(sym))
    assert back.max_difference(sym) < 1e-15


def test_point_roundtrip(rng):
    x = random_point(rng, (2, 1), 3, 0.6)
    back = serialize.point_from_json(serialize.point_to_json(x))
    for i in (1, 2):
        for j in range(1, x.n[i - 1] + 1):
            np.testing.assert_allclose(back.entry(i, j), x.entry(i, j))


def test_kernel_roundtrip():
    g = identity_multiword([1])
    gen = MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1)})
    for m in range(1, 7):
        w = multiword([[1] * m], [1])
        gen[(w, g)] = np.array([[0.6 ** m]])
        gen[(g, w)] = np.array([[0.6 ** m]])
    k = kernel_from_generator("left", gen, 3)
    back = serialize.kernel_from_json(serialize.kernel_to_json(k))
    assert back.max_difference(k) < 1e-15
    assert back.side == "left" and back.max_len == 3


def test_kernel_from_json_compares_no_word_pairs(monkeypatch):
    """Reading a kernel fills its Gram per quotient, not by testing every
    monomial pair: with the single-factor comparison behind every
    ``words.compare`` call made to raise, the Gram read back is unchanged."""
    k = random_psd_kernel(np.random.default_rng(5), "left", (2, 1), 2, 4)
    data = json.loads(json.dumps(serialize.kernel_to_json(k)))
    want = serialize.kernel_from_json(data).gram()
    np.testing.assert_allclose(want, k.gram(), rtol=0, atol=1e-12)

    def boom(*args):
        raise AssertionError("kernel_from_json compared a word pair")

    monkeypatch.setattr(words, "_compare_words", boom)
    assert serialize.kernel_from_json(data).gram().tobytes() == want.tobytes()


def test_cbmap_roundtrip():
    mu = CbMapData.point_mass([np.exp(0.5j), 1.0], 3)
    data = serialize.cbmap_to_json(mu)
    back = serialize.cbmap_from_json(data)
    assert set(back.symbol.coeffs) == set(mu.symbol.coeffs)
    assert back.symbol.max_difference(mu.symbol) <= 1e-15
    np.testing.assert_allclose(back.unit, mu.unit)
    assert back.herglotz_class == mu.herglotz_class
    assert back.coeff_bound == mu.coeff_bound
    assert back.per_factor_cap == mu.per_factor_cap
    assert back.max_total_len == mu.max_total_len


def test_cbmap_roundtrip_preserves_tail_bounds():
    from polyball.berezin import PolyballPoint
    from polyball.pluriharm import poisson_transform

    mu = CbMapData.point_mass([1.0, 1.0], 24)
    back = serialize.cbmap_from_json(serialize.cbmap_to_json(mu))
    x = PolyballPoint.from_scalars([[0.5], [0.5]])
    assert poisson_transform(back, x).tail_bound == poisson_transform(mu, x).tail_bound
