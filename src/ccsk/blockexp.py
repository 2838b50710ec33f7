"""Closed-form exponentials of the generator pieces and the ordered product map.

The nontrivial factor F_j acts on the leading j coordinates only. With
rho = ||z||_2 and ztilde = z / rho, its leading j x j block is

    [ I - (1 - cos rho) |ztilde><ztilde| ,  sin(rho) |ztilde> ]
    [       -sin(rho) <ztilde|           ,      cos(rho)      ]

and the ordered product  diag-phases * F_2 * ... * F_n  covers all of U(n).
The product is NOT the exponential of the summed generator (the factors do
not commute); see the oracle module for the generic exponential.

F_j is the identity plus a rank-2 correction, so ``apply_factor`` multiplies
it onto the leading j x j block of a matrix in place, in O(j^2), without
forming it. In terms of z itself, with sigma = sin(rho)/rho and
a = (1 - cos rho)/rho^2 = 2 sin^2(rho/2)/rho^2 (both finite at rho = 0),
splitting the block as [A | b] with b its last column:

    w = A z,   A -= (a w + sigma b) z^H,   b <- cos(rho) b + sigma w

(the signs of the sigma terms flip for F_j^H). ``compose`` starts from the
phases and applies F_2 ... F_n in turn, sum_j j^2 ~ n^3/3 work in all;
``decompose`` peels with the adjoints. ``exp_k`` and ``exp_column_factor``
build the factor matrices themselves, as references for tests and
``ccsk compare``.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_cvector
from .params import CcskParams

__all__ = [
    "k_matrix",
    "exp_diagonal",
    "exp_k",
    "exp_column_factor",
    "apply_factor",
    "compose",
]

# Below this norm, sin(rho)/rho and (1-cos(rho))/rho^2 are used directly on z
# instead of normalizing; removes the 0/0 in ztilde without a discontinuity.
_RHO_TINY = 1e-14


def k_matrix(z) -> np.ndarray:
    """The j x j anti-Hermitian block: z in the last column, -<z| in the last row.

    Satisfies K^3 = -<z|z> K, so K^2 is block-diagonal(-|z><z|, -<z|z>).
    """
    z = as_cvector(z)
    m = z.shape[0]
    k = np.zeros((m + 1, m + 1), dtype=np.complex128)
    k[:m, m] = z
    k[m, :m] = -z.conj()
    return k


def exp_diagonal(thetas) -> np.ndarray:
    """diag(e^{i theta_1}, ..., e^{i theta_n})."""
    thetas = np.asarray(thetas, dtype=np.float64)
    return np.diag(np.exp(1j * thetas))


def exp_k(z) -> np.ndarray:
    """Closed-form exponential of k_matrix(z), a (len(z)+1)-square unitary."""
    z = as_cvector(z)
    m = z.shape[0]
    rho = float(np.linalg.norm(z))
    out = np.eye(m + 1, dtype=np.complex128)
    if rho == 0.0:
        return out
    c, s = np.cos(rho), np.sin(rho)
    if rho < _RHO_TINY:
        sinc = s / rho
        # (1 - cos rho)/rho^2 == 0.5 to double precision at this scale
        out[:m, :m] -= 0.5 * np.outer(z, z.conj())
        out[:m, m] = sinc * z
        out[m, :m] = -sinc * z.conj()
    else:
        zt = z / rho
        out[:m, :m] -= (1.0 - c) * np.outer(zt, zt.conj())
        out[:m, m] = s * zt
        out[m, :m] = -s * zt.conj()
    out[m, m] = c
    return out


def exp_column_factor(z, n: int, j: int) -> np.ndarray:
    """exp_k(z) embedded in the leading j x j block of an n x n identity."""
    z = as_cvector(z)
    if not 2 <= j <= n:
        raise ValueError(f"need 2 <= j <= n, got j={j}, n={n}")
    if z.shape[0] != j - 1:
        raise ValueError(f"z must have length {j - 1} for j={j}, got {z.shape[0]}")
    out = np.eye(n, dtype=np.complex128)
    out[:j, :j] = exp_k(z)
    return out


def _sinc(x: float) -> float:
    """sin(x)/x, continued by 1 at x = 0."""
    return math.sin(x) / x if x else 1.0


def apply_factor(u: np.ndarray, z: np.ndarray, j: int, *, inverse: bool = False) -> None:
    """u[:j, :j] <- u[:j, :j] @ F_j (or @ F_j^H with ``inverse``), in place.

    u is a complex array with at least j rows and columns, z a complex vector
    of length j - 1, and F_j = ``exp_k(z)``. Entries of u outside the leading
    j x j block are left untouched. Costs O(j^2).
    """
    rho = math.sqrt(np.vdot(z, z).real)
    sigma = _sinc(rho)
    a = 0.5 * _sinc(0.5 * rho) ** 2
    if inverse:
        sigma = -sigma
    block = u[:j, :j - 1]
    b = u[:j, j - 1]
    w = block @ z
    block -= (a * w + sigma * b)[:, None] * z.conj()
    b *= math.cos(rho)
    b += sigma * w


def compose(p: CcskParams) -> np.ndarray:
    """Ordered product: diagonal phases, then the column factors j = 2..n."""
    u = exp_diagonal(p.thetas)
    for j in range(2, p.n + 1):
        apply_factor(u, p.z_column(j), j)
    return u
