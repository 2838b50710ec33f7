"""Minimal dense complex linear algebra: validation, norms, defects.

Matrices are numpy ``complex128`` arrays with row-major semantics. Each public
function that takes a square matrix checks it once, on entry, with
``square_matrix`` (vectors with ``as_cvector``); the kernels behind them
assume checked input and stay branch-free.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_cvector",
    "frobenius_norm",
    "square_matrix",
    "unitarity_defect",
    "anti_hermiticity_defect",
]


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
    overhead of ``np.linalg.norm`` would cost more than the arithmetic. The
    squares are summed unscaled, so the norm overflows to inf above about
    1.3e154 (the root of the float range) even when every entry is finite.
    """
    return math.sqrt(np.vdot(a, a).real)


def _rescaled_norm(v: np.ndarray) -> float:
    """||v||_2 of a nonzero vector as t ||v / t||, t = max |v_i|, for entries
    whose squares are subnormal or 0 (below about 1.5e-154)."""
    a = np.abs(v)
    t = a.max()
    return t * frobenius_norm(a / t)


def _vector_norm(v: np.ndarray, what: str) -> float:
    """``frobenius_norm(v)`` of a checked vector z, rescaled below 1e-150, or a
    ValueError naming ``what`` when it overflows (entries above about 1.3e154)."""
    norm = frobenius_norm(v)
    if not math.isfinite(norm):
        raise ValueError(f"{what}: the norm of z overflows")
    if norm < 1e-150 and v.any():
        norm = _rescaled_norm(v)
    return norm


def square_matrix(a, what: str) -> tuple[np.ndarray, float]:
    """``a`` as a non-empty square complex128 matrix, and its Frobenius norm.

    The ValueError otherwise names ``what`` and the fault: entries that are
    not numbers or rows of unequal length, the shape, or the first nan or inf
    entry. ``isfinite`` runs only when the norm, one BLAS call, is not
    finite. A norm that overflows with finite entries is returned as inf, for
    the caller to judge.
    """
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{what} requires a square matrix of numbers ({exc})") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"{what} requires a non-empty square matrix, got shape {m.shape}")
    norm = frobenius_norm(m)
    if not math.isfinite(norm):
        bad = np.argwhere(~np.isfinite(m))
        if bad.size:
            i, j = bad[0]
            v = m[i, j]
            raise ValueError(f"{what} requires finite entries; entry ({i}, {j}) "
                             f"is non-finite ({v.real}{v.imag:+}j)")
    return m, norm


def unitarity_defect(u) -> float:
    """||u† u - I||_F; zero (to roundoff) iff u is unitary.

    inf when ||u||_F overflows, as at ``decompose``'s gate: the defect is at
    least ||u||_F^2 / sqrt(n) - sqrt(n), past any tolerance, and forming u† u
    would overflow with a warning.
    """
    u, norm = square_matrix(u, "unitarity_defect")
    if not math.isfinite(norm):
        return math.inf
    return frobenius_norm(u.conj().T @ u - np.eye(u.shape[0]))


def anti_hermiticity_defect(x) -> float:
    """||x† + x||_F; zero iff x is anti-Hermitian (a u(n) element)."""
    x, _ = square_matrix(x, "anti_hermiticity_defect")
    return frobenius_norm(x.conj().T + x)
