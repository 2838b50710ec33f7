"""Parameter data model and the map from parameters to their generator.

A dimension-n parameter set holds n diagonal phases theta_1..theta_n plus one
complex column vector z_j of length j-1 for each j = 2..n, for a total of
n^2 real parameters. The generator assembled from them is the anti-Hermitian
matrix with i*theta on the diagonal, z entries in the strict upper triangle
and the negated conjugates below. The map runs one way: parameters come back
from a unitary, through ``decompose``, not from a generator.

``CcskParams`` stores the columns packed in one vector z of length
n(n-1)/2: z_2, z_3, ..., z_n laid end to end, which is the strict upper
triangle of the generator read column by column, ``x.T[z_mask(n)]``. z_j
starts at ``z_offset(j)``; ``z_column(j)`` is a view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm

__all__ = [
    "CcskParams",
    "assemble_generator",
    "z_mask",
    "z_offset",
]

# Slack in is_canonical's test ||z_j|| <= pi/2, for the rounding of the norm of
# a column drawn at rho = pi/2 exactly, per square root of the column length
# j - 1: 4 ulps of pi/2 (an ulp there is 2.2e-16). The rounding grows like that
# root: over lengths 1 to 4000, one random direction each, it reached 1.42 ulps
# times the root (2 ulps at length 2; 5 ulps, 1.1e-15, at lengths from 1426).
_CANONICAL_RHO_SLACK = 4 * math.ulp(math.pi / 2)


def z_offset(j: int) -> int:
    """Index of z_j's first entry in the packed z: the 1 + 2 + ... + (j-2)
    entries of z_2 ... z_{j-1} come before it. z_offset(n + 1) is len(z)."""
    return (j - 1) * (j - 2) // 2


@dataclass(frozen=True, eq=False)
class CcskParams:
    """Phases plus the packed columns z; column j (j = 2..n) has length j-1.

    z is either the packed complex vector (a 1-D numpy array of length
    n(n-1)/2) or a sequence of the n-1 columns z_2 ... z_n, which are
    concatenated.

    Two parameter sets are equal when their thetas and z are equal entry by
    entry. Like the arrays they hold, they are not hashable.

    The constructor checks shapes, finiteness and that no column's norm
    overflows. The package builds its own results with ``_unchecked``
    instead, from arrays that come out of checked input: ``decompose`` once
    its gate has passed, and ``random_params``.
    """

    thetas: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=np.float64)
        if thetas.ndim != 1 or thetas.shape[0] < 1:
            raise ValueError("thetas must be a 1-D array of length >= 1")
        if not np.all(np.isfinite(thetas)):
            raise ValueError("thetas contain non-finite values")
        n = thetas.shape[0]
        z = self.z
        if isinstance(z, np.ndarray):
            z = z.astype(np.complex128, copy=False)
            if z.ndim != 1 or z.shape[0] != z_offset(n + 1):
                raise ValueError(
                    f"packed z for dimension {n} must be a 1-D array of length "
                    f"{z_offset(n + 1)}, got shape {z.shape}")
        else:
            cols = [np.asarray(c, dtype=np.complex128) for c in z]
            if len(cols) != n - 1:
                raise ValueError(
                    f"expected {n - 1} z columns for dimension {n}, got {len(cols)}")
            for j, c in enumerate(cols, start=2):
                if c.shape != (j - 1,):
                    raise ValueError(
                        f"z column for j={j} must have length {j - 1}, got shape {c.shape}")
            z = np.concatenate(cols) if cols else np.zeros(0, dtype=np.complex128)
        # compose's np.linalg.norm of each column sums unscaled squares, so a
        # finite column whose norm overflows would give NaNs: refused too.
        # Entries and columns are looked at only when z's norm is not finite.
        if not math.isfinite(frobenius_norm(z)):
            if not np.isfinite(z).all():
                raise ValueError("z contains non-finite values")
            for j in range(2, n + 1):
                if not math.isfinite(frobenius_norm(z[z_offset(j):z_offset(j + 1)])):
                    raise ValueError(f"z column for j={j} has a norm that overflows")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "z", z)

    @classmethod
    def _unchecked(cls, thetas: np.ndarray, z: np.ndarray) -> "CcskParams":
        """The parameter set of thetas (1-D float64, length n >= 1) and the
        packed z (1-D complex128, length n(n-1)/2), both finite, taken as
        they are: no conversion, copy or check."""
        p = object.__new__(cls)
        object.__setattr__(p, "thetas", thetas)
        object.__setattr__(p, "z", z)
        return p

    def __eq__(self, other):
        if not isinstance(other, CcskParams):
            return NotImplemented
        return np.array_equal(self.thetas, other.thetas) and np.array_equal(self.z, other.z)

    @property
    def n(self) -> int:
        return self.thetas.shape[0]

    @functools.cached_property
    def z_columns(self) -> tuple:
        """The n-1 columns z_2 ... z_n, views into z, built on first access."""
        z = self.z
        return tuple(z[z_offset(j):z_offset(j + 1)] for j in range(2, self.n + 1))

    def real_parameter_count(self) -> int:
        """n thetas + 2(j-1) reals per column; always n^2."""
        return self.n + 2 * self.z.shape[0]

    def z_column(self, j: int) -> np.ndarray:
        """The column vector for factor j, 2 <= j <= n (1-based, as documented)."""
        if not 2 <= j <= self.n:
            raise ValueError(f"j must be in [2, {self.n}], got {j}")
        return self.z_columns[j - 2]

    def rho(self, j: int) -> float:
        return float(np.linalg.norm(self.z_column(j)))

    def is_canonical(self) -> bool:
        """theta in (-pi, pi] and each ||z_j|| in [0, pi/2]."""
        if np.any(self.thetas <= -math.pi) or np.any(self.thetas > math.pi):
            return False
        return all(_rho_in_chart(z) for z in self.z_columns)


def _rho_in_chart(z: np.ndarray) -> bool:
    """||z|| <= pi/2, up to the rounding of the norm of a column of z's length."""
    return np.linalg.norm(z) <= math.pi / 2 + _CANONICAL_RHO_SLACK * math.sqrt(z.shape[0])


@functools.lru_cache(maxsize=64)
def z_mask(n: int) -> np.ndarray:
    """The packed z's layout: the n x n mask of the strict lower triangle,
    read-only and built once per n. For an n x n x, x.T[mask] lists the
    strict upper triangle column by column, the packed z; x[mask] lists the
    lower triangle row by row, in the same order."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def assemble_generator(p: CcskParams) -> np.ndarray:
    """Anti-Hermitian n x n matrix: i*theta diagonal, z columns above, -conj below."""
    x = np.diag(1j * p.thetas)
    lower = z_mask(p.n)  # empty at n = 1
    x.T[lower] = p.z
    x[lower] = -p.z.conj()
    return x

