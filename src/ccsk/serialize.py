"""JSON file formats for matrices and parameter sets.

Two document shapes, both human-inspectable and diff-able:

  {"type": "cmatrix", "n": N, "rows": [[[re, im], ...] x N] x N}
  {"type": "ccsk_params", "n": N, "thetas": [N reals],
   "z": [[[re, im]], [[re, im], [re, im]], ...]}   # column j has j-1 pairs

Floats are emitted with Python's shortest-roundtrip repr, so write-then-read
reproduces every value bit-exactly, the sign of -0.0 included. Complex entries
are [re, im] pairs, never strings.

A file is exactly ``json.dump(doc, fh, indent=2)`` plus a newline, where doc
is the document shape above; the byte tests build it in ``tests/conftest.py``
and compare. The standard encoder formats indented output one value at a
time in pure Python, so the writers build no doc: they stream that text from
the arrays, one %-template per list of pairs (a row, a z column). The
readers parse with ``json.load``, check every pair in bulk and convert all
of them with one numpy call; only a document that fails the bulk check is
walked entry by entry, to name the first bad entry.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .linalg import square_matrix
from .params import CcskParams

__all__ = [
    "ParseError",
    "matrix_from_doc",
    "params_from_doc",
    "write_matrix",
    "read_matrix",
    "write_params",
    "read_params",
]


class ParseError(ValueError):
    """Malformed or out-of-schema input document."""


def _numbers(values) -> bool:
    """Whether every value is a JSON number: an int or a float, as json.load
    gives them. bool subclasses int in Python, but true/false are not numbers."""
    return set(map(type, values)) <= {int, float}


def _dimension(doc: dict) -> int:
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise ParseError(f'field "n" must be a positive integer, got {n!r}')
    return n


def _read_pairs(groups: list, sizes: list[int], name: str, group_error) -> np.ndarray:
    """All [re, im] pairs of ``groups`` (group k holds sizes[k] of them) as one
    flat complex vector.

    The bulk check asks for the exact types json.load gives: lists of lists
    of two numbers. A document that fails it is walked in order, raising the
    ParseError that names the first bad group (``group_error(k)``) or entry.
    """
    leaves = None
    if set(map(type, groups)) <= {list} and list(map(len, groups)) == sizes:
        entries = list(chain.from_iterable(groups))
        if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}:
            leaves = list(chain.from_iterable(entries))
    if leaves is None or not _numbers(leaves):
        for k, (group, size) in enumerate(zip(groups, sizes)):
            if type(group) is not list or len(group) != size:
                raise ParseError(group_error(k))
            for i, obj in enumerate(group):
                if type(obj) is not list or len(obj) != 2 or not _numbers(obj):
                    raise ParseError(
                        f"{name}[{k}][{i}]: expected a [re, im] number pair, got {obj!r}")
    try:
        return np.array(leaves, dtype=np.float64).view(np.complex128)
    except OverflowError as exc:
        raise ParseError(f'field "{name}": {exc}') from exc


def _as_floats(a: np.ndarray) -> list:
    """The re, im floats of the complex array a, entry after entry, in one flat list."""
    return np.stack([a.real, a.imag], -1).ravel().tolist()


def matrix_from_doc(doc) -> np.ndarray:
    if not isinstance(doc, dict) or doc.get("type") != "cmatrix":
        raise ParseError('expected a document with "type": "cmatrix"')
    n = _dimension(doc)
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f'field "rows" must be a list of {n} rows')
    flat = _read_pairs(rows, [n] * n, "rows", lambda i: f"row {i}: expected {n} entries")
    return square_matrix(flat.reshape(n, n), "matrix_from_doc")[0]


def params_from_doc(doc) -> CcskParams:
    if not isinstance(doc, dict) or doc.get("type") != "ccsk_params":
        raise ParseError('expected a document with "type": "ccsk_params"')
    n = _dimension(doc)
    thetas = doc.get("thetas")
    if not isinstance(thetas, list) or len(thetas) != n or not _numbers(thetas):
        raise ParseError(f'field "thetas" must be a list of {n} reals')
    zs = doc.get("z")
    if not isinstance(zs, list) or len(zs) != n - 1:
        raise ParseError(f'field "z" must be a list of {n - 1} columns')
    flat = _read_pairs(zs, list(range(1, n)), "z",
                       lambda k: f"z[{k}]: expected {k + 1} entries (column j={k + 2})")
    try:
        thetas = np.array(thetas, dtype=np.float64)
    except OverflowError as exc:
        raise ParseError(f'field "thetas": {exc}') from exc
    try:
        return CcskParams(thetas, flat)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# One [re, im] pair in a list of pairs, as json.dumps(doc, indent=2) renders it.
_PAIR = "\n      [\n        %r,\n        %r\n      ]"


def _write(path, head: str, values: list, sizes) -> None:
    """Write head, then a field of lists of [re, im] pairs as indent=2 JSON
    (list k takes the next 2 * sizes[k] floats of values), then the closing
    brace. Each list is one template with a %r per float (json.dumps gives a
    float its repr), filled by a single % and written at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        opening, start, size_before = "[", 0, 0
        for size in sizes:
            if size != size_before:  # a matrix's rows share one template
                template = "\n    [" + ",".join([_PAIR] * size) + "\n    ]"
                size_before = size
            fh.write(opening + template % tuple(values[start:start + 2 * size]))
            opening, start = ",", start + 2 * size
        fh.write("[]\n}\n" if start == 0 else "\n  ]\n}\n")


def _read(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:  # the decoder recurses once per nested array or object
            raise ParseError(f"{path}: invalid JSON: nesting too deep") from exc
        except UnicodeDecodeError as exc:  # a ValueError, but its message names no file
            raise ParseError(f"{path}: invalid JSON: not UTF-8 ({exc})") from exc
        except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def write_matrix(path, m: np.ndarray) -> None:
    m, _ = square_matrix(m, "write_matrix")
    n = m.shape[0]
    _write(path, '{\n  "type": "cmatrix",\n  "n": %d,\n  "rows": ' % n,
           _as_floats(m), [n] * n)


def read_matrix(path) -> np.ndarray:
    return matrix_from_doc(_read(path))


def write_params(path, p: CcskParams) -> None:
    thetas = ",\n    ".join(map(repr, p.thetas.tolist()))
    _write(path, '{\n  "type": "ccsk_params",\n  "n": %d,\n  "thetas": [\n    %s\n  ],\n  "z": '
           % (p.n, thetas), _as_floats(p.z), range(1, p.n))


def read_params(path) -> CcskParams:
    return params_from_doc(_read(path))
