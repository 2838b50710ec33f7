"""Parameter data model and the map between parameters and the generator.

A dimension-n parameter set holds n diagonal phases theta_1..theta_n plus one
complex column vector z_j of length j-1 for each j = 2..n, for a total of
n^2 real parameters. The generator assembled from them is the anti-Hermitian
matrix with i*theta on the diagonal, z entries in the strict upper triangle
and the negated conjugates below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import anti_hermiticity_defect, as_cvector

__all__ = [
    "CcskParams",
    "GENERATOR_DEFECT_TOL",
    "assemble_generator",
    "split_generator",
    "params_from_generator",
]

# Per-dimension tolerance on ||X† + X||_F for a matrix accepted as a generator.
GENERATOR_DEFECT_TOL = 1e-12

# Largest |Re x_kk| that params_from_generator accepts on a generator's
# diagonal, whose real parts must vanish in u(n). It bounds each entry on its
# own, so unlike GENERATOR_DEFECT_TOL (a Frobenius norm over n^2 entries) it
# does not scale with n.
_DIAG_REAL_TOL = 1e-12

# Slack in is_canonical's test ||z_j|| <= pi/2, for the rounding of the norm of
# a column drawn at rho = pi/2 exactly, per square root of the column length
# j - 1: 4 ulps of pi/2 (an ulp there is 2.2e-16). The rounding grows like that
# root: over lengths 1 to 4000, one random direction each, it reached 1.42 ulps
# times the root (2 ulps at length 2; 5 ulps, 1.1e-15, at lengths from 1426).
_CANONICAL_RHO_SLACK = 4 * math.ulp(math.pi / 2)


@dataclass(frozen=True)
class CcskParams:
    """Phases plus column vectors; column j (j = 2..n) has length j-1."""

    thetas: np.ndarray
    z_columns: tuple = field(default_factory=tuple)

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=np.float64)
        if thetas.ndim != 1 or thetas.shape[0] < 1:
            raise ValueError("thetas must be a 1-D array of length >= 1")
        if not np.all(np.isfinite(thetas)):
            raise ValueError("thetas contain non-finite values")
        n = thetas.shape[0]
        cols = tuple(as_cvector(z) if len(z) else np.zeros(0, dtype=np.complex128)
                     for z in self.z_columns)
        if len(cols) != n - 1:
            raise ValueError(
                f"expected {n - 1} z columns for dimension {n}, got {len(cols)}")
        for k, z in enumerate(cols):
            j = k + 2
            if z.shape[0] != j - 1:
                raise ValueError(
                    f"z column for j={j} must have length {j - 1}, got {z.shape[0]}")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "z_columns", cols)

    @property
    def n(self) -> int:
        return self.thetas.shape[0]

    def real_parameter_count(self) -> int:
        """n thetas + 2(j-1) reals per column; always n^2."""
        return self.n + sum(2 * z.shape[0] for z in self.z_columns)

    def z_column(self, j: int) -> np.ndarray:
        """The column vector for factor j, 2 <= j <= n (1-based, as documented)."""
        if not 2 <= j <= self.n:
            raise ValueError(f"j must be in [2, {self.n}], got {j}")
        return self.z_columns[j - 2]

    def rho(self, j: int) -> float:
        return float(np.linalg.norm(self.z_column(j)))

    @classmethod
    def zeros(cls, n: int) -> "CcskParams":
        return cls(np.zeros(n), tuple(np.zeros(j - 1, dtype=np.complex128)
                                      for j in range(2, n + 1)))

    def is_canonical(self) -> bool:
        """theta in (-pi, pi] and each ||z_j|| in [0, pi/2]."""
        if np.any(self.thetas <= -math.pi) or np.any(self.thetas > math.pi):
            return False
        return all(_rho_in_chart(z) for z in self.z_columns)


def _rho_in_chart(z: np.ndarray) -> bool:
    """||z|| <= pi/2, up to the rounding of the norm of a column of z's length."""
    return np.linalg.norm(z) <= math.pi / 2 + _CANONICAL_RHO_SLACK * math.sqrt(z.shape[0])


def _strictly_lower(n: int) -> np.ndarray:
    """Mask of the strict lower triangle. For an n x n x, x.T[mask] lists the
    strict upper triangle column by column: z_2, z_3, ..., z_n laid end to
    end; x[mask] lists the lower triangle row by row, in the same order."""
    return np.tri(n, k=-1, dtype=bool)


def _split_columns(flat: np.ndarray, n: int) -> tuple:
    """z_2 ... z_n from their entries laid end to end (views into flat)."""
    # z_{k+1} has k entries and starts after the 1 + 2 + ... + (k-1) before it.
    return tuple(flat[k * (k - 1) // 2:k * (k + 1) // 2] for k in range(1, n))


def assemble_generator(p: CcskParams) -> np.ndarray:
    """Anti-Hermitian n x n matrix: i*theta diagonal, z columns above, -conj below."""
    x = np.diag(1j * p.thetas)
    if p.n > 1:
        z = np.concatenate(p.z_columns)
        lower = _strictly_lower(p.n)
        x.T[lower] = z
        x[lower] = -z.conj()
    return x


def _check_generator(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"generator must be square, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("generator contains non-finite entries (nan or inf)")
    n = x.shape[0]
    defect = anti_hermiticity_defect(x)
    if not defect <= GENERATOR_DEFECT_TOL * n:
        raise ValueError(
            f"matrix is not anti-Hermitian: defect {defect:.3e} exceeds "
            f"{GENERATOR_DEFECT_TOL * n:.3e}")
    return x


def split_generator(x: np.ndarray):
    """Split a generator into its diagonal part and the per-column blocks.

    Returns (x0, blocks) where blocks[k] is the block for column j = k + 2:
    zero except for z_j in column j rows 1..j-1 and -<z_j| in row j. The sum
    x0 + sum(blocks) reproduces x entrywise.
    """
    x = _check_generator(x)
    n = x.shape[0]
    x0 = np.diag(np.diag(x)).astype(np.complex128)
    blocks = []
    for j in range(2, n + 1):
        b = np.zeros((n, n), dtype=np.complex128)
        b[: j - 1, j - 1] = x[: j - 1, j - 1]
        b[j - 1, : j - 1] = x[j - 1, : j - 1]
        blocks.append(b)
    return x0, blocks


def params_from_generator(x: np.ndarray) -> CcskParams:
    """Read parameters off a generator: thetas from Im(diag), z from the upper triangle."""
    x = _check_generator(x)
    n = x.shape[0]
    diag = np.diag(x)
    if not np.all(np.abs(diag.real) <= _DIAG_REAL_TOL):
        worst = float(np.max(np.abs(diag.real)))
        raise ValueError(
            f"generator diagonal has real part up to {worst:.3e}; not in u(n)")
    thetas = diag.imag.copy()
    return CcskParams(thetas, _split_columns(x.T[_strictly_lower(n)], n))
