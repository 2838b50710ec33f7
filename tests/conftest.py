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
