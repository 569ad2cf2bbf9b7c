"""JSON encodings for the on-disk interfaces.

Multiwords are arrays of per-factor generator lists; matrices are interleaved
re/im row-major; operators are sparse triplet lists sorted by (row, col).
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


def multiword_to_json(mw: MultiWord) -> list[list[int]]:
    return [list(w.letters) for w in mw.parts]


def multiword_from_json(data, n) -> MultiWord:
    return multiword([list(part) for part in data], n)


def matrix_to_json(m: np.ndarray) -> list[float]:
    m = np.asarray(m, dtype=complex)
    out: list[float] = []
    for v in m.ravel():
        out.extend((float(v.real), float(v.imag)))
    return out


def matrix_from_json(data, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    arr = np.asarray(data, dtype=float).reshape(rows * cols, 2)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has a non-finite entry (NaN or infinity)")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def operator_to_json(op: FockOperator) -> dict[str, Any]:
    m = op.dense()
    rows, cols = np.nonzero(m)
    order = np.lexsort((cols, rows))
    entries = [
        [int(rows[i]), int(cols[i]), float(m[rows[i], cols[i]].real),
         float(m[rows[i], cols[i]].imag)]
        for i in order
    ]
    return {
        "n": list(op.trunc.n),
        "degrees": list(op.trunc.degrees),
        "coeff_dim": op.coeff_dim,
        "entries": entries,
    }


def operator_from_json(data) -> FockOperator:
    trunc = FockTruncation(data["n"], data["degrees"])
    e = int(data["coeff_dim"])
    size = trunc.dim * e
    m = np.zeros((size, size), dtype=complex)
    for row, col, re, im in data["entries"]:
        r, c = int(row), int(col)
        if (r, c) != (row, col) or not (0 <= r < size and 0 <= c < size):
            raise ValueError(f"entry ({row}, {col}) is not an index of the {size}-dim operator")
        m[r, c] = re + 1j * im
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has a non-finite entry (NaN or infinity)")
    return FockOperator(trunc, m, e)


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
    n = list(data["n"])
    e = int(data["e_dim"])
    sym = MultiToeplitzSymbol(n, e)
    for item in data["coeffs"]:
        a = multiword_from_json(item["alpha"], n)
        b = multiword_from_json(item["beta"], n)
        sym[a, b] = matrix_from_json(item["matrix"], e)
    return sym


def point_to_json(X: PolyballPoint) -> dict[str, Any]:
    return {
        "n": list(X.n),
        "h_dim": X.h_dim,
        "X": [[matrix_to_json(m) for m in row] for row in X.X],
    }


def point_from_json(data) -> PolyballPoint:
    h = int(data["h_dim"])
    return PolyballPoint(
        [[matrix_from_json(m, h) for m in row] for row in data["X"]]
    )


def kernel_to_json(K: ToeplitzKernel) -> dict[str, Any]:
    """The generator: the nonzero entries at monomial pairs of disjoint supports."""
    m, e = len(K.monomials), K.e_dim
    support = np.array([[len(p) for p in w.parts] for w in K.monomials]) > 0
    nonzero = K.gram().reshape(m, e, m, e).any(axis=(1, 3))
    pairs = np.argwhere(nonzero & ~(support @ support.T))
    gen = [
        {
            "alpha": multiword_to_json(a),
            "beta": multiword_to_json(b),
            "matrix": matrix_to_json(K.value(a, b)),
        }
        for (a, b) in sorted(
            ((K.monomials[p], K.monomials[q]) for p, q in pairs),
            key=lambda k: (multiword_to_json(k[0]), multiword_to_json(k[1])),
        )
    ]
    return {
        "side": K.side,
        "n": list(K.n),
        "e_dim": K.e_dim,
        "max_len": K.max_len,
        "generator": gen,
    }


def kernel_from_json(data) -> ToeplitzKernel:
    n = list(data["n"])
    e = int(data["e_dim"])
    gen = {}
    for item in data["generator"]:
        a = multiword_from_json(item["alpha"], n)
        b = multiword_from_json(item["beta"], n)
        gen[(a, b)] = matrix_from_json(item["matrix"], e)
    return kernel_from_generator(
        data["side"], gen, int(data["max_len"]), default=np.zeros((e, e))
    )


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
    sym = symbol_from_json(data)
    cap = data.get("per_factor_cap")
    return CbMapData(
        sym,
        unit=matrix_from_json(data["unit"], sym.e_dim),
        herglotz_class=bool(data.get("herglotz_class", False)),
        coeff_bound=data.get("coeff_bound"),
        max_total_len=data.get("max_total_len"),
        per_factor_cap=tuple(cap) if cap is not None else None,
    )


def dump(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
