import dataclasses
import json
import math

import numpy as np
import pytest

from polyball import cli, serialize, verify
from polyball.berezin import PolyballPoint
from polyball.cli import main
from polyball.fock import FockTruncation
from polyball.naimark import kernel_from_generator
from polyball.pluriharm import CbMapData
from polyball.toeplitz import MultiToeplitzSymbol
from polyball.words import identity_multiword, multiword


def run(argv):
    return main(argv)


def vacuum_state(n):
    """The map data of the vacuum state: the unit 1, every other value 0."""
    return CbMapData(MultiToeplitzSymbol(n, 1), unit=np.eye(1))


def test_verify_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--n", "2,1", "--degrees", "2,2", "--max-len", "2",
                "--tol", "1e-8", "--seed", "7", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"]
    assert len(report["identities"]) >= 12
    for item in report["identities"]:
        assert set(item) == {"name", "anchor", "max_error", "tolerance", "pass"}
    text = capsys.readouterr().out
    assert "PASS" in text


def test_verify_rejects_degenerate_truncation(capsys):
    assert run(["verify", "--degrees", "0,0"]) == 2


def test_verify_rejects_bad_grid():
    assert run(["verify", "--r-grid", "0.5,1.5"]) == 2


@pytest.mark.parametrize("degrees", ["2,2", "5,5"])
def test_verify_deterministic(tmp_path, degrees):
    """Two in-process runs with one seed write the same report, byte for
    byte apart from the timestamp line; at (5,5) the symbol norms of
    norm_monotonicity run Lanczos."""
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--n", "2,1", "--degrees", degrees, "--max-len", "2",
            "--seed", "11"]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    a, b = out1.read_bytes().splitlines(), out2.read_bytes().splitlines()
    stamp = [i for i, line in enumerate(a) if line.lstrip().startswith(b'"timestamp"')]
    assert len(stamp) == 1
    del a[stamp[0]], b[stamp[0]]
    assert a == b


def test_dilate_delta_kernel(tmp_path):
    g = identity_multiword([1])
    gen = MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1)})
    k = kernel_from_generator("left", gen, 4)
    kfile = tmp_path / "kernel.json"
    serialize.dump(serialize.kernel_to_json(k), str(kfile))
    out = tmp_path / "dilation.json"
    code = run(["dilate", str(kfile), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"] == {"tol": 1e-8, "rank_tol": 1e-10}
    assert report["space_dim"] == 5
    assert report["defects"]["reproduction_error"] < 1e-10
    assert report["defects"]["minimal"]


def _rho_kernel_file(tmp_path):
    g = identity_multiword([1])
    gen = MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1)})
    for m in range(1, 11):
        w = multiword([[1] * m], [1])
        gen[(w, g)] = np.array([[0.6 ** m]])
        gen[(g, w)] = np.array([[0.6 ** m]])
    k = kernel_from_generator("left", gen, 5)
    kfile = tmp_path / "kernel.json"
    serialize.dump(serialize.kernel_to_json(k), str(kfile))
    return kfile


def test_dilate_rho_kernel(tmp_path):
    kfile = _rho_kernel_file(tmp_path)
    out = tmp_path / "dilation.json"
    assert run(["dilate", str(kfile), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["defects"]["reproduction_error"] <= 1e-9


def test_dilate_fails_above_tolerance(tmp_path, capsys):
    """A dilation whose defects exceed --tol exits 1, as a failed verify
    does, and still writes its report."""
    kfile = _rho_kernel_file(tmp_path)
    out = tmp_path / "dilation.json"
    assert run(["dilate", str(kfile), "--tol", "1e-20", "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    defects = report["defects"]
    max_defect = max(defects[k] for k in ("reproduction_error", "isometry_defect",
                                          "commutator_defect", "embedding_defect"))
    assert 0 < max_defect <= 1e-9
    assert report["kernel"]["gram_min_eig"] > 1e-20  # PSD at this tolerance
    assert "failed verification" in capsys.readouterr().err


def test_dilate_fails_on_a_nan_defect(tmp_path, monkeypatch, capsys):
    """A NaN defect fails the dilation as a NaN error fails a verify item:
    exit 1, with the report written."""
    real = cli.dilation_verify

    def nan_defect(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), isometry_defect=math.nan)

    monkeypatch.setattr(cli, "dilation_verify", nan_defect)
    out = tmp_path / "dilation.json"
    assert run(["dilate", str(_rho_kernel_file(tmp_path)), "--output", str(out)]) == 1
    assert math.isnan(json.loads(out.read_text())["defects"]["isometry_defect"])
    assert "failed verification: max defect nan" in capsys.readouterr().err


def test_verify_fails_on_a_nan_berezin_kernel(tmp_path, monkeypatch, capsys):
    """With a NaN at the Berezin kernel's (0, 0) entry, the three items that
    read the kernel print FAIL with max_error=nan, the report marks them
    failed, and verify exits 1."""
    real = verify.berezin_kernel

    def poisoned(*args):
        k = real(*args)
        k.matrix[0, 0] = np.nan
        return k

    monkeypatch.setattr(verify, "berezin_kernel", poisoned)
    out = tmp_path / "report.json"
    assert run(["verify", "--n", "2,1", "--degrees", "2,2", "--max-len", "2",
                "--seed", "0", "--output", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split(":")[0] for line in lines if not line.startswith("PASS")]
    assert failed == ["FAIL berezin.kernel_isometry", "FAIL berezin.intertwining",
                      "FAIL berezin.moment_identity"]
    assert any(line.startswith("FAIL berezin.kernel_isometry: max_error=nan ") for line in lines)
    report = json.loads(out.read_text())
    item = next(i for i in report["identities"] if i["name"] == "berezin.kernel_isometry")
    assert math.isnan(item["max_error"]) and item["pass"] is False
    assert report["all_pass"] is False
    assert '"pass": false' in out.read_text()


def test_dilate_singular_psd_kernel_at_tight_tolerance(tmp_path, capsys):
    """A PSD kernel with a singular Gram (the all-ones kernel, rank 1) is not
    refused as non-PSD however tight --tol is; only the dilation's own
    relative criterion can refuse a kernel."""
    g = identity_multiword([1])
    gen = MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1)})
    for m in range(1, 4):
        w = multiword([[1] * m], [1])
        gen[(w, g)] = np.eye(1)
        gen[(g, w)] = np.eye(1)
    k = kernel_from_generator("left", gen, 3)
    kfile = tmp_path / "kernel.json"
    serialize.dump(serialize.kernel_to_json(k), str(kfile))
    out = tmp_path / "dilation.json"
    assert run(["dilate", str(kfile), "--tol", "1e-20", "--output", str(out)]) != 3
    report = json.loads(out.read_text())
    assert abs(report["kernel"]["gram_min_eig"]) < 1e-12  # singular Gram
    assert report["space_dim"] == 1
    assert "not positive semi-definite" not in capsys.readouterr().err


def test_dilate_rejects_non_psd(tmp_path, capsys):
    g = identity_multiword([1])
    w = multiword([[1]], [1])
    gen = MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1), (w, g): [[2.0]], (g, w): [[2.0]]})
    k = kernel_from_generator("left", gen, 2)
    kfile = tmp_path / "kernel.json"
    serialize.dump(serialize.kernel_to_json(k), str(kfile))
    assert run(["dilate", str(kfile)]) == 3
    assert "min eigenvalue" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("side", "diagonal"), ("max_len", 0), ("max_len", -1),
    ("max_len", 2.5), ("max_len", "3"), ("max_len", True), ("e_dim", 1.5),
])
def test_dilate_rejects_malformed_kernel(tmp_path, capsys, field, value):
    g = identity_multiword([1])
    k = kernel_from_generator("left", MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1)}), 2)
    data = serialize.kernel_to_json(k)
    data[field] = value
    kfile = tmp_path / "kernel.json"
    serialize.dump(data, str(kfile))
    assert run(["dilate", str(kfile)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dilate", "transform"])
def test_multiword_letters_must_be_json_integers(tmp_path, capsys, command):
    """A generator letter 1.5 in a two-letter factor is in range but names no
    word: it exits 2 instead of being dropped from a kernel (exit 0) or
    failing a transform as an internal error (exit 1)."""
    n = (2, 1)
    g, a = identity_multiword(n), multiword([[2], []], n)
    sym = MultiToeplitzSymbol(n, 1, {(g, g): np.eye(1), (a, g): [[0.5]], (g, a): [[0.5]]})
    if command == "dilate":
        data = serialize.kernel_to_json(kernel_from_generator("left", sym, 2))
        coeffs = data["generator"]
    else:
        x = PolyballPoint.from_scalars([[0.2, 0.1], [0.3]])
        data = {"mu": serialize.cbmap_to_json(CbMapData(sym)), "X": serialize.point_to_json(x)}
        coeffs = data["mu"]["coeffs"]
    for item in coeffs:
        for key in ("alpha", "beta"):
            if item[key] == [[2], []]:
                item[key] = [[1.5], []]
    infile = tmp_path / "inputs.json"
    serialize.dump(data, str(infile))
    assert run([command, str(infile)] + ([] if command == "dilate" else ["--kind", "poisson"])) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "multiword letters" in err


@pytest.mark.parametrize("command, flags", [
    ("dilate", ["--n", "2,1"]),
    ("dilate", ["--max-len", "4"]),
    ("dilate", ["--seed", "1"]),
    ("transform", ["--degrees", "3,3"]),
    ("transform", ["--tol", "1e-8"]),
    ("dilate", ["--tol", "0"]),
    ("dilate", ["--rank-tol", "-1e-10"]),
    ("transform", ["--r-grid", "0.5,1.0"]),
    ("dilate", ["--tol", "inf"]),
    ("dilate", ["--tol", "nan"]),
    ("dilate", ["--rank-tol", "inf"]),
    ("dilate", ["--rank-tol", "nan"]),
])
def test_subcommand_rejects_unread_or_invalid_flags(tmp_path, command, flags):
    """Each subcommand accepts only the flags it reads, validated; the same
    call without the flag exits 0."""
    if command == "dilate":
        argv = ["dilate", str(_rho_kernel_file(tmp_path))]
    else:
        x = PolyballPoint.from_scalars([[0.5]])
        inputs = tmp_path / "inputs.json"
        serialize.dump({"mu": serialize.cbmap_to_json(vacuum_state([1])),
                        "X": serialize.point_to_json(x)}, str(inputs))
        argv = ["transform", str(inputs), "--kind", "poisson"]
    assert run(argv) == 0
    assert run(argv + flags) == 2


@pytest.mark.parametrize("flag", ["--tol", "--rank-tol"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_verify_rejects_non_finite_tolerance(tmp_path, capsys, flag, value):
    """A tolerance no error can exceed (or none can meet) is a configuration
    error, not a pass or a failure."""
    out = tmp_path / "report.json"
    assert run(["verify", flag, value, "--output", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_transform_rejects_non_finite_point(tmp_path, capsys):
    tau = vacuum_state([1])
    point = serialize.point_to_json(PolyballPoint.from_scalars([[0.5]]))
    point["X"][0][0][0] = float("nan")
    inputs = tmp_path / "inputs.json"
    serialize.dump({"mu": serialize.cbmap_to_json(tau), "X": point}, str(inputs))
    assert run(["transform", str(inputs), "--kind", "poisson"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_transform_rejects_string_point_entries(tmp_path, capsys):
    """Point matrix entries must be JSON numbers: strings exit 2 instead of
    being parsed as numbers."""
    tau = vacuum_state([1])
    point = serialize.point_to_json(PolyballPoint.from_scalars([[0.3]]))
    point["X"][0][0] = ["0.3", "0"]
    inputs = tmp_path / "inputs.json"
    serialize.dump({"mu": serialize.cbmap_to_json(tau), "X": point}, str(inputs))
    assert run(["transform", str(inputs), "--kind", "poisson"]) == 2
    assert "matrix entry" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, field", [
    ("n", [5], "n [5]"),
    ("n", "zz", "n must be"),
    ("n", [1, 1], "n [1, 1]"),
    ("h_dim", 0, "positive dimension"),
], ids=["n-longer-row", "n-string", "n-extra-factor", "h_dim-zero"])
def test_transform_rejects_malformed_point(tmp_path, capsys, key, value, field):
    """The point's n must be an integer array equal to its row lengths, and
    its space must have positive dimension; otherwise the input is malformed
    and exits 2, rather than running (n) or exiting 4 as a point outside the
    polyball (h_dim 0)."""
    tau = vacuum_state([1])
    point = serialize.point_to_json(PolyballPoint.from_scalars([[0.3]]))
    point[key] = value
    if key == "h_dim":
        point["X"] = [[[]]]
    inputs = tmp_path / "inputs.json"
    serialize.dump({"mu": serialize.cbmap_to_json(tau), "X": point}, str(inputs))
    assert run(["transform", str(inputs), "--kind", "poisson"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and field in err


@pytest.mark.parametrize("n", [[-2], [0], []], ids=["negative", "zero", "empty"])
@pytest.mark.parametrize("command", ["transform", "dilate"])
def test_a_symbol_over_no_letters_names_n(tmp_path, capsys, command, n):
    """A map's or a generator's n must be a non-empty array of sizes >= 1:
    n = [-2], [0] or [] exits 2 naming n, not with the message of the word
    or truncation that it would otherwise reach."""
    if command == "dilate":
        g = identity_multiword([1])
        doc = serialize.kernel_to_json(
            kernel_from_generator("left", MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1)}), 2))
        doc["n"] = n
        argv = ["dilate"]
    else:
        mu = serialize.cbmap_to_json(CbMapData.point_mass([1.0], 2))
        mu["n"] = n
        doc = {"mu": mu, "X": serialize.point_to_json(PolyballPoint.from_scalars([[0.3]]))}
        argv = ["transform", "--kind", "poisson"]
    path = tmp_path / "input.json"
    serialize.dump(doc, str(path))
    assert run(argv[:1] + [str(path)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"n must be a non-empty array of integers >= 1, got {n}" in err


def test_dilate_rejects_a_repeated_generator_key(tmp_path, capsys):
    """A generator listing the unit pair twice exits 2 naming the key,
    instead of one copy silently overwriting the other."""
    g = identity_multiword([1])
    k = kernel_from_generator("left", MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1)}), 2)
    data = serialize.kernel_to_json(k)
    data["generator"] = data["generator"] * 2
    kfile = tmp_path / "kernel.json"
    serialize.dump(data, str(kfile))
    assert run(["dilate", str(kfile)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "(alpha [[]], beta [[]]) is listed twice" in err


def test_transform_rejects_a_repeated_map_key(tmp_path, capsys):
    """A map listing ([1], []) twice, with two values, exits 2 naming the
    key: otherwise the Poisson value would depend on which copy is last."""
    mu = serialize.cbmap_to_json(CbMapData.point_mass([1.0], 2))
    item = next(c for c in mu["coeffs"] if c["alpha"] == [[1]] and c["beta"] == [[]])
    mu["coeffs"].append({**item, "matrix": [0.5, 0.0]})
    x = PolyballPoint.from_scalars([[0.3]])
    inputs = tmp_path / "inputs.json"
    serialize.dump({"mu": mu, "X": serialize.point_to_json(x)}, str(inputs))
    assert run(["transform", str(inputs), "--kind", "poisson"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "(alpha [[1]], beta [[]]) is listed twice" in err


def test_dilate_rejects_non_finite_kernel(tmp_path, capsys):
    g = identity_multiword([1])
    w = multiword([[1]], [1])
    gen = MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1), (w, g): [[0.5]], (g, w): [[0.5]]})
    data = serialize.kernel_to_json(kernel_from_generator("left", gen, 2))
    for item in data["generator"]:
        if item["alpha"] != item["beta"]:
            item["matrix"][0] = float("nan")
    kfile = tmp_path / "kernel.json"
    serialize.dump(data, str(kfile))
    assert run(["dilate", str(kfile)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_transform_poisson_point_mass(tmp_path):
    mu = CbMapData.point_mass([1.0, 1.0], 24)
    x = PolyballPoint.from_scalars([[0.5], [0.5]])
    inputs = tmp_path / "inputs.json"
    serialize.dump(
        {"mu": serialize.cbmap_to_json(mu), "X": serialize.point_to_json(x)},
        str(inputs),
    )
    out = tmp_path / "value.json"
    code = run(["transform", str(inputs), "--kind", "poisson",
                "--r-grid", "0.2,0.5", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"] == {"r_grid": [0.2, 0.5]}
    value = serialize.matrix_from_json(report["value"], report["value_dim"])
    assert abs(value[0, 0] - 9.0) < 1e-6
    csv_text = (tmp_path / "value.csv").read_text().splitlines()
    assert csv_text[0].startswith("r,")
    assert len(csv_text) == 3


def test_transform_herglotz_vacuum(tmp_path):
    tau = vacuum_state([2, 1])
    x = PolyballPoint([[np.zeros((1, 1)), np.zeros((1, 1))], [np.zeros((1, 1))]])
    inputs = tmp_path / "inputs.json"
    serialize.dump(
        {"mu": serialize.cbmap_to_json(tau), "X": serialize.point_to_json(x)},
        str(inputs),
    )
    out = tmp_path / "value.json"
    assert run(["transform", str(inputs), "--kind", "herglotz",
                "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    value = serialize.matrix_from_json(report["value"], report["value_dim"])
    np.testing.assert_allclose(value, np.eye(1))


def test_transform_berezin_identity(tmp_path, rng):
    from polyball.fock import FockOperator
    from polyball.sampling import random_nilpotent_point

    t = FockTruncation([2, 1], [3, 3])
    g = FockOperator(t, np.eye(t.dim))
    x = random_nilpotent_point(rng, (2, 1), 3, 0.7)
    inputs = tmp_path / "inputs.json"
    serialize.dump(
        {"g": serialize.operator_to_json(g), "X": serialize.point_to_json(x)},
        str(inputs),
    )
    out = tmp_path / "value.json"
    assert run(["transform", str(inputs), "--kind", "berezin",
                "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    value = serialize.matrix_from_json(report["value"], report["value_dim"])
    np.testing.assert_allclose(value, np.eye(3), atol=1e-10)


def test_transform_rejects_outside_ball(tmp_path, capsys):
    tau = vacuum_state([1])
    x = PolyballPoint.from_scalars([[1.5]])
    inputs = tmp_path / "inputs.json"
    serialize.dump(
        {"mu": serialize.cbmap_to_json(tau), "X": serialize.point_to_json(x)},
        str(inputs),
    )
    assert run(["transform", str(inputs), "--kind", "poisson"]) == 4
    assert "not in the open polyball" in capsys.readouterr().err


def test_missing_file_is_config_error():
    assert run(["dilate", "/nonexistent/kernel.json"]) == 2


def _set_entry(k, value):
    def mutate(g):
        g["entries"][0][k] = value
    return mutate


def _set_field(key, value):
    def mutate(g):
        g[key] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    _set_entry(0, -1),
    _set_entry(0, 99),
    _set_entry(1, -1),
    _set_entry(1, 9),
    _set_entry(0, 1.5),
    _set_entry(2, float("nan")),
    _set_entry(3, float("inf")),
    _set_field("degrees", [2.5, 2]),
    _set_field("degrees", ["2", "2"]),
    _set_entry(2, "1"),
    _set_entry(2, None),
    _set_entry(0, True),
    lambda g: g["entries"].reverse(),
    lambda g: g["entries"].insert(1, g["entries"][0][:2] + [2.0, 0.0]),
], ids=["row-negative", "row-past-end", "col-negative", "col-past-end", "row-fraction",
         "nan", "inf", "degrees-fraction", "degrees-strings", "value-string", "value-null",
         "row-boolean", "entries-reversed", "entry-repeated"])
def test_transform_rejects_malformed_operator(tmp_path, capsys, mutate):
    """Entries whose indices are not JSON integers in [0, dim*e), entries
    whose values are not finite JSON numbers, degrees that are not JSON
    integers, and entries not strictly increasing in (row, col) (reversed, or
    a repeated index whose last value would win) exit 2 instead of wrapping
    around, being truncated or read as an index, failing as an internal error
    or passing through."""
    from polyball.fock import FockOperator

    t = FockTruncation([1, 1], [2, 2])
    g = serialize.operator_to_json(FockOperator(t, np.eye(t.dim)))
    mutate(g)
    x = PolyballPoint.from_scalars([[0.2], [0.3]])
    inputs = tmp_path / "inputs.json"
    serialize.dump({"g": g, "X": serialize.point_to_json(x)}, str(inputs))
    assert run(["transform", str(inputs), "--kind", "berezin"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("coeff_bound", float("nan")),
    ("coeff_bound", float("inf")),
    ("coeff_bound", -1.0),
    ("coeff_bound", "abc"),
    ("per_factor_cap", [-1, 2]),
    ("max_total_len", -1),
])
@pytest.mark.parametrize("kind", ["poisson", "herglotz"])
def test_transform_rejects_malformed_map_metadata(tmp_path, capsys, key, value, kind):
    """A non-numeric, non-finite or negative coefficient bound and negative
    caps exit 2 instead of reporting a NaN, infinite or negative tail bound
    or failing as an internal error."""
    mu = serialize.cbmap_to_json(CbMapData.point_mass([1.0, 1.0], 2))
    mu[key] = value
    x = PolyballPoint.from_scalars([[0.2], [0.3]])
    inputs = tmp_path / "inputs.json"
    serialize.dump({"mu": mu, "X": serialize.point_to_json(x)}, str(inputs))
    assert run(["transform", str(inputs), "--kind", kind]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("per_factor_cap", ["2", "2"]),
    ("per_factor_cap", [2.5, 2]),
    ("per_factor_cap", [True, 2]),
    ("per_factor_cap", 2),
    ("max_total_len", "3"),
    ("max_total_len", 2.5),
    ("herglotz_class", "false"),
    ("herglotz_class", 0),
    ("e_dim", 1.5),
    ("n", ["1", "1"]),
    ("coeff_bound", "1.0"),
    ("coeff_bound", True),
])
@pytest.mark.parametrize("kind", ["poisson", "herglotz"])
def test_transform_rejects_non_integer_map_fields(tmp_path, capsys, key, value, kind):
    """Caps and dimensions must be JSON integers, the coefficient bound a
    JSON number and the Herglotz flag a JSON boolean; anything else exits 2
    naming the field, instead of being truncated, parsed, read as true or
    failing as an internal error."""
    mu = serialize.cbmap_to_json(CbMapData.point_mass([1.0, 1.0], 2))
    mu[key] = value
    x = PolyballPoint.from_scalars([[0.2], [0.3]])
    inputs = tmp_path / "inputs.json"
    serialize.dump({"mu": mu, "X": serialize.point_to_json(x)}, str(inputs))
    assert run(["transform", str(inputs), "--kind", kind]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


def _put(*path, value):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return mutate


@pytest.mark.parametrize("command, mutate, field", [
    ("poisson", _put("X", value=5), "X must be a JSON object"),
    ("poisson", _put("X", "X", value=[None, None]), "a row of X must be a JSON array"),
    ("poisson", _put("mu", "coeffs", value=None), "coeffs must be a JSON array"),
    ("poisson", _put("mu", "coeffs", value={"a": 1}), "coeffs must be a JSON array"),
    ("poisson", _put("mu", "coeffs", 0, value=[1, 2]), "coeffs item must be a JSON object"),
    ("poisson", _put("mu", value=[1]), "mu must be a JSON object"),
    ("poisson", lambda doc: [doc], "must be a JSON object"),
    ("poisson", _put("mu", "coeffs", 0, "alpha", value=5), "alpha must be a JSON array"),
    ("dilate", _put("generator", value=None), "generator must be a JSON array"),
    ("berezin", _put("g", "coeff_dim", value=0), "coeff_dim must be a positive dimension, got 0"),
    ("berezin", _put("g", "coeff_dim", value=-1),
     "coeff_dim must be a positive dimension, got -1"),
    ("poisson", _put("X", "h_dim", value=-1), "h_dim must be a positive dimension, got -1"),
    ("poisson", _put("mu", "e_dim", value=0), "e_dim must be a positive dimension, got 0"),
    ("poisson", _put("mu", "e_dim", value=-1), "e_dim must be a positive dimension, got -1"),
    ("dilate", _put("e_dim", value=0), "e_dim must be a positive dimension, got 0"),
    ("dilate", _put("e_dim", value=-1), "e_dim must be a positive dimension, got -1"),
    ("poisson", _put("mu", "coeffs", 0, "matrix", value=[1.0, 0.0, 2.0]),
     "matrix has 3 numbers, not the 2 (re, im) of a 1 x 1 matrix"),
    ("poisson", _put("mu", "unit", value=[1.0, 0.0, 0.0, 0.0]),
     "unit has 4 numbers, not the 2 (re, im) of a 1 x 1 matrix"),
    ("poisson", _put("X", "X", 0, 0, value=[0.2]),
     "an entry of X has 1 numbers, not the 2 (re, im) of a 1 x 1 matrix"),
    ("berezin", _put("g", "n", value=[-2, 1]), "n must be >= 1, got [-2, 1]"),
], ids=["X-number", "X-rows-null", "coeffs-null", "coeffs-object", "coeffs-item-array",
         "mu-array", "top-level-array", "alpha-number", "generator-null", "coeff_dim-zero",
         "coeff_dim-negative", "h_dim-negative", "e_dim-zero", "e_dim-negative",
         "kernel-e_dim-zero", "kernel-e_dim-negative", "matrix-count", "unit-count",
         "point-entry-count", "operator-n-negative"])
def test_malformed_json_containers_are_configuration_errors(tmp_path, capsys, command,
                                                            mutate, field):
    """A JSON array or object of the wrong kind, a dimension below 1, a
    matrix with the wrong count of numbers and an operator over n_i < 1 exit
    2 naming the field, instead of failing as an internal error or with
    NumPy's own text."""
    x = PolyballPoint.from_scalars([[0.2], [0.3]])
    if command == "dilate":
        g = identity_multiword([1])
        gen = MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1)})
        doc = serialize.kernel_to_json(kernel_from_generator("left", gen, 2))
        argv = ["dilate"]
    elif command == "berezin":
        from polyball.fock import FockOperator

        t = FockTruncation([1, 1], [2, 2])
        doc = {"g": serialize.operator_to_json(FockOperator(t, np.eye(t.dim))),
               "X": serialize.point_to_json(x)}
        argv = ["transform", "--kind", command]
    else:
        doc = {"mu": serialize.cbmap_to_json(CbMapData.point_mass([1.0, 1.0], 2)),
               "X": serialize.point_to_json(x)}
        argv = ["transform", "--kind", command]
    path = tmp_path / "input.json"
    serialize.dump(mutate(doc), str(path))
    assert run(argv[:1] + [str(path)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and field in err
