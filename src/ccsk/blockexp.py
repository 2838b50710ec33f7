"""Closed-form exponentials of the generator pieces and the ordered product map.

The nontrivial factor F_j acts on the leading j coordinates only. With
rho = ||z||_2, sigma = sin(rho)/rho and a = (1 - cos rho)/rho^2 = 2
sin^2(rho/2)/rho^2, both finite at rho = 0, its leading j x j block is

    [ I - a |z><z| ,  sigma |z> ]
    [ -sigma <z|   ,  cos(rho)  ]

and the ordered product  diag-phases * F_2 * ... * F_n  covers all of U(n).
The product is NOT the exponential of the summed generator (the factors do
not commute); see the oracle module for the generic exponential.

Each factor is a Householder reflector up to one sign: with the unit vector
w_j = (-sinc(rho/2)/2 z, cos(rho/2), 0, ...), F_j = P_j H_j, H_j = I - 2 w_j
w_j^H and P_j the sign flip of coordinate j. P_l commutes with H_j for j <
l, as w_j is zero at coordinate l, so every flip moves to the phases:

    diag-phases * F_2 * ... * F_n = D' H_2 ... H_n,
    D' = diag(e^{i theta_1}, -e^{i theta_2}, ..., -e^{i theta_n}).

H_j is its own adjoint and inverse, so one kernel, ``_apply_factor``,
multiplies it onto the leading j columns of a matrix in place, x <- x - 2 (x
w_j) w_j^H, in O(j^2), for both maps: ``compose`` starts from D' and applies
H_2 ... H_n, sum_j j^2 ~ n^3/3 work in all, and ``decompose`` peels them
off, keeping the signs in its D'. ``_reflector`` builds w_j from z_j and
rho. ``exp_k`` and ``exp_column_factor`` build the factor matrices
themselves, from sigma and a: ``exp_k`` serves ``ccsk compare``, and
``exp_column_factor``, its n x n embedding, is the reference form for the
tests.

One factor at a time is matrix-vector work. From _MIN_BLOCK = 8 factors on, k
consecutive reflectors are applied as one block: H_{j0} ... H_{j1} = I - V T
V^H, with V = [w_{j0} ... w_{j1}] and T the k x k upper triangular matrix of
the UT transform (``_reflectors``), the compact WY form of Schreiber and Van
Loan (SIAM J. Sci. Stat. Comput. 10, 1989) for rank-1 factors. ``_runs``
splits H_2 ... H_n into the runs that ``compose`` and ``decompose`` share: a
head, then blocks of _NB.

``compose`` grows its product run by run. Before the run H_{j0} ... H_{j1},
the product is blockdiag(A, D): A the r x r product so far (r = j0 - 1) and
D the run's k entries of D', as no earlier reflector touches the last k rows
and columns. ``_grow`` applies the block to that form, so the one square product
is A V_top: r^2 k + j1 k^2 + j1^2 k complex multiply-adds a run, where the
block on the whole leading j1 x j1 matrix takes 2 j1^2 k + j1 k^2.
``decompose``'s panels apply the adjoint with ``_apply_factors``, to the
rows above the panel.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import _vector_norm, as_cvector, frobenius_norm
from .params import CcskParams, z_offset

__all__ = [
    "k_matrix",
    "exp_diagonal",
    "exp_k",
    "exp_column_factor",
    "compose",
]

# _runs' block size. compose walks _runs(n, 1) and decompose _runs(n, 2 * _NB).
# A block has a fixed cost (``_reflectors``' V and T: some 15 numpy
# operations, one an LU-based inverse) where a factor taken alone costs about
# 9, so compose applies its head one factor at a time when it holds fewer
# than _MIN_BLOCK factors; every later run holds _NB.
# Measured with one BLAS thread, compose timed between decompose and expm
# calls (50 inputs, 21 to 31 alternating rounds, four probes): a block of 6
# factors (n = 7) takes 0.99-1.07x the time of single factors, of 7 (n = 8)
# 0.85-0.97x, of 8 (n = 9) 0.70-0.88x and of 9 (n = 10) 0.68x; behind a full
# run (n = 41, 42) 8 and 9 take 0.84-0.89x. At n = 8 the whole decompose,
# compose and expm loop took 1.02x with the block (two probes), so the
# block's gain there does not reach the calls around it. So _MIN_BLOCK stays
# 8. Those single factors were a rank-2 kernel; against the reflector kernel
# a block of 8 (n = 9) took 0.90x and of 9 (n = 10) 0.82x (31 rounds).
# decompose still reads and peels each panel row on its own, so only the
# flops move into the block: its panels gain from about n = 128.
_NB = 32
_MIN_BLOCK = 8


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
    n = thetas.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    out.ravel()[:: n + 1] = np.exp(1j * thetas)  # np.diag's work, without its overhead
    return out


def exp_k(z) -> np.ndarray:
    """Closed-form exponential of k_matrix(z), a (len(z)+1)-square unitary:
    [[I - a z z^H, sigma z], [-sigma z^H, cos(rho)]], with rho, sigma and a
    as in the module docstring, so no branch is taken at rho = 0. A z whose
    norm overflows is refused (ValueError)."""
    z = as_cvector(z)
    m = z.shape[0]
    rho = _vector_norm(z, "exp_k")
    sigma = _sinc(rho)
    out = np.eye(m + 1, dtype=np.complex128)
    out[:m, :m] -= 0.5 * _sinc(0.5 * rho) ** 2 * np.outer(z, z.conj())
    out[:m, m] = sigma * z
    out[m, :m] = -sigma * z.conj()
    out[m, m] = math.cos(rho)
    return out


def exp_column_factor(z, n: int, j: int) -> np.ndarray:
    """exp_k(z) embedded in the leading j x j block of an n x n identity."""
    z = as_cvector(z)
    if not 2 <= j <= n:
        raise ValueError(f"need 2 <= j <= n, got j={j}, n={n}")
    if z.shape[0] != j - 1:
        raise ValueError(f"z must have length {j - 1} for j={j}, got {z.shape[0]}")
    _vector_norm(z, "exp_column_factor")  # so that a refusal names this function
    out = np.eye(n, dtype=np.complex128)
    out[:j, :j] = exp_k(z)
    return out


def _sinc(x: float) -> float:
    """sin(x)/x, continued by 1 at x = 0."""
    return math.sin(x) / x if x else 1.0


def _reflector(z: np.ndarray, rho: float) -> np.ndarray:
    """w_j = (-sinc(rho/2)/2 z, cos(rho/2)), the unit vector of H_j = P_j F_j,
    from z = z_j and rho = ||z||: ``compose`` takes the norm, ``decompose``
    passes the angle it read."""
    w = np.empty(z.shape[0] + 1, dtype=np.complex128)
    np.multiply(z, -0.5 * _sinc(0.5 * rho), out=w[:-1])
    w[-1] = math.cos(0.5 * rho)
    return w


def _apply_factor(x: np.ndarray, w: np.ndarray) -> None:
    """x <- x @ H_j = x - 2 (x w) w^H, in place: the one factor kernel.

    x holds the rows to update, restricted to the leading j columns, and w is
    ``_reflector``'s w_j. H_j is its own adjoint, so ``compose`` and
    ``decompose`` call it alike; the signs P_j stay in their D'.
    """
    y = x @ w
    y += y
    x -= y[:, None] * w.conj()


@functools.lru_cache(maxsize=64)
def _scatter_mask(j0: int, j1: int) -> np.ndarray:
    """The mask ``_reflectors`` scatters z_{j0} ... z_{j1} with, built once.

    Row i (of k x j1) holds True in its first j0 + i - 1 entries, so
    V^T[mask] walks the packed z columns.
    """
    mask = np.tri(j1 - j0 + 1, j1, j0 - 2, dtype=bool)
    mask.flags.writeable = False
    return mask


# np.sinc takes half-turns: sinc(rho / 2) = sin(rho / 2) / (rho / 2) is
# np.sinc(_HALF_TURNS * rho).
_HALF_TURNS = 0.5 / math.pi


def _reflectors(seg: np.ndarray, j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
    """H_{j0} ... H_{j1} = I - V T V^H on the leading j1 x j1 block.

    seg holds the k = j1 - j0 + 1 consecutive columns z_{j0} ... z_{j1},
    packed as in ``CcskParams.z``. Column i of V (j1 x k) is ``_reflector``'s
    w_j of j = j0 + i, zero-padded, and T is upper triangular with T^{-1} =
    I/2 + striu(V^H V) (the UT transform of Joffrain, Low, Quintana-Orti,
    van de Geijn and Van Zee, ACM TOMS 32, 2006).
    """
    k = j1 - j0 + 1
    scatter = _scatter_mask(j0, j1)
    v = np.zeros((j1, k), dtype=np.complex128)
    v.T[scatter] = seg
    rho = np.linalg.norm(v, axis=0)
    v *= -0.5 * np.sinc(_HALF_TURNS * rho)
    v.ravel()[(j0 - 1) * k::k + 1] = np.cos(0.5 * rho)  # w_j's pivot, entry j
    g = v.conj().T @ v
    # T^{-1} = I/2 + striu(g). The mask's last k columns are g's strict lower
    # triangle: w_j meets the last k coordinates above its pivot only.
    g[scatter[:, j0 - 1:]] = 0.0
    g.ravel()[::k + 1] = 0.5
    return v, np.linalg.inv(g)


def _apply_factors(m: np.ndarray, seg: np.ndarray, j0: int) -> None:
    """m <- m @ (H_{j0} ... H_{j1})^H, in place: ``decompose``'s block update.

    m has j1 columns and seg holds z_{j0} ... z_{j1}, packed as in
    ``CcskParams.z``. The adjoint of ``_reflectors``' form is I - V T^H V^H:
    m -= (m V) T^H V^H, 2 r j1 k + r k^2 complex multiply-adds for r rows.
    """
    v, t = _reflectors(seg, j0, m.shape[1])
    m -= (m @ v) @ t.conj().T @ v.conj().T


def _grow(a: np.ndarray, d: np.ndarray, seg: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """blockdiag(a, diag(d)) @ H_{j0} ... H_{j1}, as a new j1 x j1 array.

    a is the r x r product so far (r = j0 - 1), d holds the entries -e^{i
    theta_j}, j = j0 ... j1, of D', and seg z_{j0} ... z_{j1}, packed as in
    ``CcskParams.z``. With ``_reflectors``' form the product is
    blockdiag(a, diag(d)) - Y T V^H with

        Y = blockdiag(a, diag(d)) V = [a V_top; d V_bot].

    The one square product is a V_top, r^2 k complex multiply-adds; with
    Y T and the rank-k update, r^2 k + j1 k^2 + j1^2 k in all.
    """
    r = j0 - 1
    v, t = _reflectors(seg, j0, j1)
    y = np.concatenate((a @ v[:r], d[:, None] * v[r:]))
    out = (y @ -t) @ v.conj().T
    out[:r, :r] += a
    out.ravel()[r * (j1 + 1)::j1 + 1] += d  # the trailing diagonal
    return out


def _runs(n: int, head: int) -> list[tuple[int, int]]:
    """The runs (j0, j1) of factors H_{j0} ... H_{j1} that make up H_2 ... H_n.

    First the head H_2 ... H_b, b = min(n, head + (n - head) % _NB) ((2, 1),
    empty, when b = 1), then runs of _NB factors. ``compose`` takes the head
    1 and applies each run of at least _MIN_BLOCK factors as one block;
    ``decompose`` takes the head 2 * _NB and peels it one factor at a time.
    """
    b = min(n, head + (n - head) % _NB)
    return [(2, b)] + [(j0, j0 + _NB - 1) for j0 in range(b + 1, n + 1, _NB)]


def compose(p: CcskParams) -> np.ndarray:
    """Ordered product: diagonal phases, then the column factors j = 2..n.

    Formed as D' H_2 ... H_n. A head of fewer than _MIN_BLOCK factors is
    applied one factor at a time, from diag(D'[:b]); every other run grows
    the product by its rows and columns, from D'[:1].
    """
    d = np.exp(1j * p.thetas)
    d[1:] *= -1.0  # D'
    runs = _runs(p.n, 1)
    b = runs[0][1]
    if b - 1 < _MIN_BLOCK:
        del runs[0]
    else:
        b = 1
    u = np.diag(d[:b])
    for j in range(2, b + 1):
        z = p.z[z_offset(j):z_offset(j + 1)]
        _apply_factor(u[:j, :j], _reflector(z, frobenius_norm(z)))
    for j0, j1 in runs:
        u = _grow(u, d[j0 - 1:j1], p.z[z_offset(j0):z_offset(j1 + 1)], j0, j1)
    return u
