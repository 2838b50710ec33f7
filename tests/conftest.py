import importlib

import numpy as np
import pytest

from ccsk.oracle import RngState


@pytest.fixture
def rng():
    return RngState(20250826)


def complex_gaussian_vector(rng: RngState, m: int) -> np.ndarray:
    """m complex normals from scalar draws: m real parts, then m imaginary parts."""
    re = np.array([rng.gaussian() for _ in range(m)])
    im = np.array([rng.gaussian() for _ in range(m)])
    return re + 1j * im


def random_complex_matrix(rng: RngState, rows: int, cols: int) -> np.ndarray:
    return np.array([complex_gaussian_vector(rng, cols) for _ in range(rows)])


def _pairs(a: np.ndarray) -> list:
    """The complex array a as nested lists of [re, im] floats."""
    return np.stack([a.real, a.imag], -1).tolist()


def matrix_doc(m: np.ndarray) -> dict:
    """The cmatrix document holding m, as README's "File formats" shows it
    (nan and inf included: json.load reads them). A matrix file is
    json.dumps(matrix_doc(m), indent=2) plus a newline."""
    return {"type": "cmatrix", "n": m.shape[0], "rows": _pairs(m)}


def params_doc(p) -> dict:
    """The ccsk_params document holding p; a params file is
    json.dumps(params_doc(p), indent=2) plus a newline."""
    return {"type": "ccsk_params", "n": p.n, "thetas": p.thetas.tolist(),
            "z": [_pairs(z) for z in p.z_columns]}


# Matrices with a nan or inf entry, for the entry points that must reject them.
NON_FINITE_MATRICES = {
    "all_nan": np.full((2, 2), np.nan, dtype=complex),
    "inf_pivot": np.array([[np.inf, 0], [0, 1]], dtype=complex),
    "imag_minus_inf": np.array([[1, complex(0, -np.inf)], [0, 1]]),
    "one_nan_in_unitary": np.array([[0, 1, 0], [1, 0, 0], [0, 0, complex(np.nan, 0)]]),
}

# Vectors with finite entries whose norm overflows, for the functions that
# take the norm of a z they are given.
OVERFLOWING_Z = {"one_1e200": [1e200], "two_1e160": [1e160, 1e160],
                 "imag_1e200": [0, 1e200j]}


def panels(n: int) -> list:
    """decompose's panels (lo, j1), rows lo + 1 ... j1, from row n down: p =
    max(1, n // _NB) of them, each of _NB rows but the last, the head (0, n -
    (p - 1) _NB), which holds the rest."""
    nb = importlib.import_module("ccsk.decompose")._NB
    p = max(1, n // nb)
    return [(n - (i + 1) * nb, n - i * nb) for i in range(p - 1)] + [(0, n - (p - 1) * nb)]


def record_peel(monkeypatch) -> list:
    """Record decompose's kernel calls in order, each still made: ("factor",
    lo, j, w) for _apply_factor(m[lo:j, :j], w) and ("block", lo, j1, vt) for
    _apply_block(m[:lo, :j1], vt), with copies of w and vt."""
    module = importlib.import_module("ccsk.decompose")
    factor, block = module._apply_factor, module._apply_block
    calls = []

    def recorded_factor(x, w):
        calls.append(("factor", x.shape[1] - x.shape[0], x.shape[1], w.copy()))
        factor(x, w)

    def recorded_block(m, vt):
        calls.append(("block", m.shape[0], m.shape[1], vt.copy()))
        block(m, vt)

    monkeypatch.setattr(module, "_apply_factor", recorded_factor)
    monkeypatch.setattr(module, "_apply_block", recorded_block)
    return calls


def recorded_panels(calls: list, n: int) -> list:
    """The panels (lo, j1) that ``record_peel``'s calls show, from row n down:
    one per block call, then the head (0, j1), which has none, with j1 the
    last block's lo, or n."""
    blocks = [(lo, j1) for kind, lo, j1, _ in calls if kind == "block"]
    return blocks + [(0, blocks[-1][0] if blocks else n)]
