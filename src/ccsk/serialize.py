"""JSON file formats for matrices and parameter sets.

Two document shapes, both human-inspectable and diff-able:

  {"type": "cmatrix", "n": N, "rows": [[[re, im], ...] x N] x N}
  {"type": "ccsk_params", "n": N, "thetas": [N reals],
   "z": [[[re, im]], [[re, im], [re, im]], ...]}   # column j has j-1 pairs

Floats are emitted with Python's shortest-roundtrip repr, so write-then-read
reproduces every value bit-exactly. Complex entries are [re, im] pairs, never
strings.
"""

from __future__ import annotations

import json

import numpy as np

from .linalg import as_cmatrix
from .params import CcskParams

__all__ = [
    "ParseError",
    "matrix_to_doc",
    "matrix_from_doc",
    "params_to_doc",
    "params_from_doc",
    "write_matrix",
    "read_matrix",
    "write_params",
    "read_params",
]


class ParseError(ValueError):
    """Malformed or out-of-schema input document."""


def _is_number(v) -> bool:
    """A JSON number. bool subclasses int in Python, but true/false are not numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _dimension(doc: dict) -> int:
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'field "n" must be a positive integer, got {n!r}')
    return n


def _pair(entry: complex) -> list[float]:
    return [float(entry.real), float(entry.imag)]


def _complex_from_pair(obj, where: str) -> complex:
    if (not isinstance(obj, list) or len(obj) != 2
            or not all(_is_number(v) for v in obj)):
        raise ParseError(f"{where}: expected a [re, im] number pair, got {obj!r}")
    return complex(obj[0], obj[1])


def matrix_to_doc(m: np.ndarray) -> dict:
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix files hold square matrices, got {m.shape}")
    return {
        "type": "cmatrix",
        "n": m.shape[0],
        "rows": [[_pair(m[i, j]) for j in range(m.shape[1])]
                 for i in range(m.shape[0])],
    }


def matrix_from_doc(doc) -> np.ndarray:
    if not isinstance(doc, dict) or doc.get("type") != "cmatrix":
        raise ParseError('expected a document with "type": "cmatrix"')
    n = _dimension(doc)
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f'field "rows" must be a list of {n} rows')
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i}: expected {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _complex_from_pair(entry, f"rows[{i}][{j}]")
    return as_cmatrix(out)


def params_to_doc(p: CcskParams) -> dict:
    return {
        "type": "ccsk_params",
        "n": p.n,
        "thetas": [float(t) for t in p.thetas],
        "z": [[_pair(e) for e in z] for z in p.z_columns],
    }


def params_from_doc(doc) -> CcskParams:
    if not isinstance(doc, dict) or doc.get("type") != "ccsk_params":
        raise ParseError('expected a document with "type": "ccsk_params"')
    n = _dimension(doc)
    thetas = doc.get("thetas")
    if (not isinstance(thetas, list) or len(thetas) != n
            or not all(_is_number(t) for t in thetas)):
        raise ParseError(f'field "thetas" must be a list of {n} reals')
    zs = doc.get("z")
    if not isinstance(zs, list) or len(zs) != n - 1:
        raise ParseError(f'field "z" must be a list of {n - 1} columns')
    cols = []
    for k, col in enumerate(zs):
        if not isinstance(col, list) or len(col) != k + 1:
            raise ParseError(f"z[{k}]: expected {k + 1} entries (column j={k + 2})")
        cols.append(np.array(
            [_complex_from_pair(e, f"z[{k}][{i}]") for i, e in enumerate(col)],
            dtype=np.complex128))
    try:
        return CcskParams(np.array(thetas, dtype=np.float64), tuple(cols))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _write(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _read(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def write_matrix(path, m: np.ndarray) -> None:
    _write(path, matrix_to_doc(m))


def read_matrix(path) -> np.ndarray:
    return matrix_from_doc(_read(path))


def write_params(path, p: CcskParams) -> None:
    _write(path, params_to_doc(p))


def read_params(path) -> CcskParams:
    return params_from_doc(_read(path))
