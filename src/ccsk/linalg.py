"""Minimal dense complex linear algebra: validation, norms, defects.

Matrices are numpy ``complex128`` arrays with row-major semantics. Validation
(finiteness, shape) happens once at the container boundary via ``as_cmatrix`` /
``as_cvector``; the kernels below assume validated input and stay branch-free.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_cmatrix",
    "as_cvector",
    "frobenius_norm",
    "unitarity_defect",
    "anti_hermiticity_defect",
]


def as_cmatrix(a) -> np.ndarray:
    """Validate and return a dense complex matrix (2-D, finite entries)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def as_cvector(a) -> np.ndarray:
    """Validate and return a dense complex column vector (1-D, finite, len >= 1)."""
    v = np.asarray(a, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    if v.shape[0] < 1:
        raise ValueError("vector must have length >= 1")
    if not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


def frobenius_norm(a: np.ndarray) -> float:
    """sqrt of the sum of squared entry magnitudes (of a vector or a matrix).

    One BLAS dot product: on the short rows that ``decompose`` reads, the call
    overhead of ``np.linalg.norm`` would cost more than the arithmetic.
    """
    return math.sqrt(np.vdot(a, a).real)


def _require_square(a: np.ndarray, what: str) -> int:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} requires a square matrix, got {a.shape}")
    return a.shape[0]


def unitarity_defect(u: np.ndarray) -> float:
    """||u† u - I||_F; zero (to roundoff) iff u is unitary."""
    n = _require_square(u, "unitarity_defect")
    return frobenius_norm(u.conj().T @ u - np.eye(n))


def anti_hermiticity_defect(x: np.ndarray) -> float:
    """||x† + x||_F; zero iff x is anti-Hermitian (a u(n) element)."""
    _require_square(x, "anti_hermiticity_defect")
    return frobenius_norm(x.conj().T + x)
