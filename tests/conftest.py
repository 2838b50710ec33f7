import warnings
from contextlib import contextmanager

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


# Matrices with a nan or inf entry, for the entry points that must reject them.
NON_FINITE_MATRICES = {
    "all_nan": np.full((2, 2), np.nan, dtype=complex),
    "inf_pivot": np.array([[np.inf, 0], [0, 1]], dtype=complex),
    "imag_minus_inf": np.array([[1, complex(0, -np.inf)], [0, 1]]),
    "one_nan_in_unitary": np.array([[0, 1, 0], [1, 0, 0], [0, 0, complex(np.nan, 0)]]),
}


@contextmanager
def rejects_non_finite(match: str):
    """Expect a ValueError matching ``match``, with no RuntimeWarning on the way
    (numpy warns when nan or inf reaches its arithmetic)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=match):
            yield
