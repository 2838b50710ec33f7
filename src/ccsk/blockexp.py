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
phases and applies F_2 ... F_n, sum_j j^2 ~ n^3/3 work in all;
``decompose`` peels with the adjoints. ``exp_k`` and ``exp_column_factor``
build the factor matrices themselves, as references for tests and
``ccsk compare``.

One factor at a time is matrix-vector work. At large n, k consecutive
factors are combined into one update I + W T W^H, with W = [Z | E] the k z
columns and the k unit vectors e_j, and T a 2k x 2k matrix (the compact WY
form of Schreiber and Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989, here
for rank-2 factors). Applying it is two matrix-matrix products. ``_runs``
splits F_2 ... F_n into the runs that ``compose`` and ``decompose`` share: a
head taken one factor at a time, then blocks of _NB.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_cvector
from .params import CcskParams, z_offset

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

# _runs' block size and compose's head; decompose's head is _NX + _NB. A block
# of _NB factors costs a fixed ~0.1 ms (its T matrix) and saves the per-factor
# calls, so compose gains from n = 64 on. decompose still reads and peels each
# panel row on its own, so only the flops move into the block: its panels gain
# from about n = 128. Measured at n = 32 ... 512, one BLAS thread (CHANGES.md).
_NB = 32
_NX = 32


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


def _compact_form(seg: np.ndarray, j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
    """F_{j0} ... F_{j1} = I + W T W^H on the leading j1 x j1 block.

    seg holds the k = j1 - j0 + 1 consecutive columns z_{j0} ... z_{j1},
    packed as in ``CcskParams.z``. W = [Z | E], where Z (returned, j1 x k)
    holds the z columns padded with zeros and E the unit columns
    e_{j0} ... e_{j1}, the last k of the block; T is 2k x 2k. This is
    the compact WY form of Schreiber and Van Loan (SIAM J. Sci. Stat. Comput.
    10, 1989) for rank-2 factors: F_i alone is I + [z_i e_i] C_i [z_i e_i]^H
    with the core C_i = [[-a, sigma], [-sigma, cos(rho) - 1]] (a and sigma as
    in ``apply_factor``), and T = (I - M L)^{-1} M, where M holds the cores
    and L the inner products z_i^H z_l and e_i^H z_l that couple F_i to a
    later F_l (z_i^H e_l and e_i^H e_l vanish). In the [Z | E] order I - M L
    is block lower triangular with the unit upper triangular I - P on its
    leading block, so one triangular solve gives T.
    """
    k = j1 - j0 + 1
    z = np.zeros((j1, k), dtype=np.complex128)
    # Row i of Z^T holds z_{j0+i} in its first j0 + i - 1 entries; the mask
    # walks them row by row, which is the packed order.
    z.T[np.tri(k, j1, j0 - 2, dtype=bool)] = seg
    g = z.conj().T @ z
    rho2 = g.diagonal().real
    rho = np.sqrt(rho2)
    sigma = np.sinc(rho / np.pi)
    a = 0.5 * np.sinc(rho / (2.0 * np.pi)) ** 2
    cm1 = -a * rho2  # cos(rho) - 1 without the cancellation
    lz = np.triu(g, 1)
    le = np.triu(z[j1 - k:], 1)
    # M L = [[P, 0], [Q, 0]]: row i of P and Q is the core C_i times the
    # couplings (lz, le) of F_i.
    p = -a[:, None] * lz + sigma[:, None] * le
    q = -sigma[:, None] * lz + cm1[:, None] * le
    top = np.linalg.solve(np.eye(k) - p, np.hstack((np.diag(-a), np.diag(sigma))))
    t = np.vstack((top, q @ top + np.hstack((np.diag(-sigma), np.diag(cm1)))))
    return z, t


def _apply_factors(a: np.ndarray, seg: np.ndarray, j0: int, *,
                   inverse: bool = False) -> None:
    """a <- a @ F_{j0} ... F_{j1} (or @ its adjoint with ``inverse``), in place.

    a has j1 columns and seg holds z_{j0} ... z_{j1}, packed as in
    ``CcskParams.z``. With Y = [a Z, a E] T, a += Y_Z Z^H and a E += Y_E:
    two products of size rows x j1 x k, and the E half costs no flops.
    """
    j1 = a.shape[1]
    k = j1 - j0 + 1
    z, t = _compact_form(seg, j0, j1)
    if inverse:
        t = t.conj().T
    e = a[:, -k:]
    y = np.hstack((a @ z, e)) @ t
    a += y[:, :k] @ z.conj().T
    e += y[:, k:]


def _runs(n: int, head: int) -> list[tuple[int, int]]:
    """The runs (j0, j1) of factors F_{j0} ... F_{j1} that make up F_2 ... F_n.

    First the head F_2 ... F_b, b = min(n, head + (n - head) % _NB), taken one
    factor at a time ((2, 1), empty, at n = 1), then blocks of _NB factors.
    ``compose`` takes the head _NX, ``decompose`` _NX + _NB.
    """
    b = min(n, head + (n - head) % _NB)
    return [(2, b)] + [(j0, j0 + _NB - 1) for j0 in range(b + 1, n + 1, _NB)]


def compose(p: CcskParams) -> np.ndarray:
    """Ordered product: diagonal phases, then the column factors j = 2..n."""
    u = exp_diagonal(p.thetas)
    (_, b), *blocks = _runs(p.n, _NX)
    for j in range(2, b + 1):
        apply_factor(u, p.z_column(j), j)
    for j0, j1 in blocks:
        _apply_factors(u[:j1, :j1], p.z[z_offset(j0):z_offset(j1 + 1)], j0)
    return u
