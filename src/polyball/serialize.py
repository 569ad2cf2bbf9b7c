"""JSON encodings for the on-disk interfaces.

Multiwords are arrays of per-factor generator lists; matrices are interleaved
re/im row-major; operators are sparse triplet lists strictly increasing in
(row, col).  A malformed field raises ``ValueError`` naming it.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .berezin import PolyballPoint
from .fock import FockOperator, FockTruncation
from .naimark import ToeplitzKernel, kernel_from_generator
from .pluriharm import CbMapData
from .toeplitz import MultiToeplitzSymbol
from .words import MultiWord, multiword


_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", list: "array of integers"}


def _json_typed(value, field: str, kind: type = int):
    """``value`` if it is a JSON value of that kind, ``float`` being any number
    and ``list`` an array of integers: a float, a string or a boolean is not an
    integer, and a string, a boolean or null is not a number."""
    ok = type(value) in (int, float) if kind is float else type(value) is kind
    if not ok or (kind is list and any(type(v) is not int for v in value)):
        raise ValueError(f"{field} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _json_shape(value) -> list[int]:
    """``value`` if it is a non-empty JSON array of integers >= 1: the
    generators per factor, the field ``n``."""
    if not _json_typed(value, "n", list) or min(value) < 1:
        raise ValueError(f"n must be a non-empty array of integers >= 1, got {value!r}")
    return value


def _json_dimension(value, field: str) -> int:
    """``value`` if it is a JSON integer >= 1."""
    if _json_typed(value, field) < 1:
        raise ValueError(f"{field} must be a positive dimension, got {value!r}")
    return value


def _json_container(value, field: str, kind: type):
    """``value`` if it is a JSON array (``list``) or object (``dict``)."""
    if type(value) is not kind:
        name = "array" if kind is list else "object"
        raise ValueError(f"{field} must be a JSON {name}, got {value!r:.60}")
    return value


def multiword_to_json(mw: MultiWord) -> list[list[int]]:
    return [list(w.letters) for w in mw.parts]


def multiword_from_json(data, n) -> MultiWord:
    return multiword([_json_typed(part, "multiword letters", list) for part in data], n)


def matrix_to_json(m: np.ndarray) -> list[float]:
    m = np.asarray(m, dtype=complex)
    out: list[float] = []
    for v in m.ravel():
        out.extend((float(v.real), float(v.imag)))
    return out


def matrix_from_json(data, rows: int, cols: int | None = None,
                     field: str = "matrix") -> np.ndarray:
    cols = rows if cols is None else cols
    if type(data) is not list:
        raise ValueError(f"{field} must be a JSON array of numbers, got {data!r}")
    if len(data) != 2 * rows * cols:
        raise ValueError(f"{field} has {len(data)} numbers, not the {2 * rows * cols} "
                         f"(re, im) of a {rows} x {cols} matrix")
    arr = np.array([_json_typed(v, "matrix entry", float) for v in data],
                   dtype=float).reshape(rows * cols, 2)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has a non-finite entry (NaN or infinity)")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def operator_to_json(op: FockOperator) -> dict[str, Any]:
    stored = op.matrix.tocoo()
    keep = stored.data != 0
    entries = [[int(r), int(c), float(v.real), float(v.imag)]
               for r, c, v in zip(stored.row[keep], stored.col[keep], stored.data[keep])]
    return {
        "n": list(op.trunc.n),
        "degrees": list(op.trunc.degrees),
        "coeff_dim": op.coeff_dim,
        "entries": entries,
    }


def operator_from_json(data) -> FockOperator:
    """The operator whose CSR matrix stores exactly the file's entries."""
    import scipy.sparse as sp

    _json_container(data, "g", dict)
    trunc = FockTruncation(*(_json_typed(data[f], f, list) for f in ("n", "degrees")))
    e = _json_dimension(data["coeff_dim"], "coeff_dim")
    size = trunc.dim * e
    rows, cols, values = [], [], []
    last = (-1, -1)
    for entry in _json_container(data["entries"], "entries", list):
        row, col, re, im = _json_container(entry, "entry", list)
        r, c = _json_typed(row, "entry row"), _json_typed(col, "entry column")
        if not (0 <= r < size and 0 <= c < size):
            raise ValueError(f"entry ({row}, {col}) is not an index of the {size}-dim operator")
        if (r, c) <= last:
            raise ValueError(f"entry ({r}, {c}) follows entry {last}: entries must be "
                             "strictly increasing in (row, col)")
        last = (r, c)
        rows.append(r)
        cols.append(c)
        values.append(_json_typed(re, "entry value", float) + 1j * _json_typed(im, "entry value", float))
    values = np.array(values, dtype=complex)
    if not np.all(np.isfinite(values)):
        raise ValueError("operator has a non-finite entry (NaN or infinity)")
    matrix = sp.csr_matrix((values, (rows, cols)), shape=(size, size))
    return FockOperator(trunc, matrix, e)


def symbol_to_json(sym: MultiToeplitzSymbol) -> dict[str, Any]:
    return {
        "n": list(sym.n),
        "e_dim": sym.e_dim,
        "coeffs": [
            {
                "alpha": multiword_to_json(a),
                "beta": multiword_to_json(b),
                "matrix": matrix_to_json(m),
            }
            for (a, b), m in sorted(
                sym.items(), key=lambda kv: (multiword_to_json(kv[0][0]), multiword_to_json(kv[0][1]))
            )
        ],
    }


def symbol_from_json(data) -> MultiToeplitzSymbol:
    n = _json_shape(data["n"])
    e = _json_dimension(data["e_dim"], "e_dim")
    sym = MultiToeplitzSymbol(n, e)
    for item in _json_container(data["coeffs"], "coeffs", list):
        _json_container(item, "coeffs item", dict)
        a, b = (multiword_from_json(_json_container(item[f], f, list), n)
                for f in ("alpha", "beta"))
        if (a, b) in sym.coeffs:
            raise ValueError(f"the key (alpha {item['alpha']}, beta {item['beta']}) "
                             "is listed twice")
        sym[a, b] = matrix_from_json(item["matrix"], e)
    return sym


def point_to_json(X: PolyballPoint) -> dict[str, Any]:
    return {
        "n": list(X.n),
        "h_dim": X.h_dim,
        "X": [[matrix_to_json(m) for m in row] for row in X.X],
    }


def point_from_json(data) -> PolyballPoint:
    _json_container(data, "X", dict)
    n = _json_typed(data["n"], "n", list)
    h = _json_dimension(data["h_dim"], "h_dim")
    rows = [_json_container(row, "a row of X", list)
            for row in _json_container(data["X"], "the point's X", list)]
    point = PolyballPoint([[matrix_from_json(m, h, field="an entry of X") for m in row]
                           for row in rows])
    if point.n != tuple(n):
        raise ValueError(f"point n {n} does not match its row lengths {list(point.n)}")
    return point


def kernel_to_json(K: ToeplitzKernel) -> dict[str, Any]:
    """The generator: the symbol of the nonzero blocks at disjoint-support monomial pairs."""
    m, e = len(K.monomials), K.e_dim
    support = np.array([[len(p) for p in w.parts] for w in K.monomials]) > 0
    nonzero = K.gram().reshape(m, e, m, e).any(axis=(1, 3))
    gen = MultiToeplitzSymbol(K.n, e, {
        (K.monomials[p], K.monomials[q]): K.value(K.monomials[p], K.monomials[q])
        for p, q in np.argwhere(nonzero & ~(support @ support.T))
    })
    return {
        "side": K.side,
        "n": list(K.n),
        "e_dim": K.e_dim,
        "max_len": K.max_len,
        "generator": symbol_to_json(gen)["coeffs"],
    }


def kernel_from_json(data) -> ToeplitzKernel:
    coeffs = _json_container(data["generator"], "generator", list)
    gen = symbol_from_json({**data, "coeffs": coeffs})
    return kernel_from_generator(data["side"], gen, _json_typed(data["max_len"], "max_len"))


def cbmap_to_json(mu: CbMapData) -> dict[str, Any]:
    out = symbol_to_json(mu.symbol)
    out["unit"] = matrix_to_json(mu.unit)
    out["herglotz_class"] = mu.herglotz_class
    if mu.coeff_bound is not None:
        out["coeff_bound"] = mu.coeff_bound
    out["max_total_len"] = mu.max_total_len
    if mu.per_factor_cap is not None:
        out["per_factor_cap"] = list(mu.per_factor_cap)
    return out


def cbmap_from_json(data) -> CbMapData:
    sym = symbol_from_json(_json_container(data, "mu", dict))
    cap, total, bound = (data.get(f) for f in ("per_factor_cap", "max_total_len", "coeff_bound"))
    return CbMapData(
        sym,
        unit=matrix_from_json(data["unit"], sym.e_dim, field="unit"),
        herglotz_class=_json_typed(data.get("herglotz_class", False), "herglotz_class", bool),
        coeff_bound=bound if bound is None else _json_typed(bound, "coeff_bound", float),
        max_total_len=None if total is None else _json_typed(total, "max_total_len"),
        per_factor_cap=cap if cap is None else tuple(_json_typed(cap, "per_factor_cap", list)),
    )


def dump(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path: str) -> dict:
    with open(path) as fh:
        return _json_container(json.load(fh), f"the top level of {path}", dict)
