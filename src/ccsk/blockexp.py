"""Closed-form exponentials of the generator pieces and the ordered product map.

The nontrivial factor F_j acts on the leading j coordinates only. With
rho = ||z||_2, sigma = sin(rho)/rho and a = (1 - cos rho)/rho^2 = 2
sin^2(rho/2)/rho^2, both finite at rho = 0, its leading j x j block is

    [ I - a |z><z| ,  sigma |z> ]
    [ -sigma <z|   ,  cos(rho)  ]

and the ordered product  diag-phases * F_2 * ... * F_n  covers all of U(n).
The product is NOT the exponential of the summed generator (the factors do
not commute); see the oracle module for the generic exponential.

F_j is the identity plus a rank-2 correction, so one kernel,
``_apply_factor``, multiplies it onto the leading j x j block of a matrix in
place, in O(j^2), without forming it. Splitting the block as [A | b], with
b its last column:

    w = A z,   A -= (a w + sigma b) z^H,   b <- cos(rho) b + sigma w

(the signs of the sigma terms flip for F_j^H). The kernel takes rho and z^H
= c v from its caller: ``compose`` passes conj(z) and 1, ``decompose`` the
row it read z from and a scale, so neither the norm nor the conjugate is
taken twice. ``compose`` starts from the phases and applies F_2 ... F_n,
sum_j j^2 ~ n^3/3 work in all; ``decompose`` peels with the adjoints.
``exp_k`` and ``exp_column_factor`` build the factor matrices themselves,
from the same sigma and a: ``exp_k`` serves ``ccsk compare``, and
``exp_column_factor``, its n x n embedding, is the reference form for the
tests.

One factor at a time is matrix-vector work. From _MIN_BLOCK = 8 factors on, k
consecutive factors are combined into one update I + W T W^H, with W = [Z |
E] the k z columns and the k unit vectors e_j, and T a 2k x 2k matrix (the
compact WY form of Schreiber and Van Loan, SIAM J. Sci. Stat. Comput. 10,
1989, here for rank-2 factors). T is never formed: its blocks follow from
the k x k inverse N = (I - P)^{-1} of a unit upper triangular matrix and the
coupling matrix Q. ``_runs`` splits F_2 ... F_n into the runs that
``compose`` and ``decompose`` share: a head, then blocks of _NB.

``compose`` grows its product run by run. Before the run F_{j0} ... F_{j1},
the product is blockdiag(A, D): A the r x r product so far (r = j0 - 1) and
D the run's k phases, as no earlier factor touches the last k rows and
columns. ``_grow`` applies the block to that form, so the one square product
is A Z_top (r^2 k) and E's coupling Q is a row scaling: r^2 k + j1^2 k + j1
k^2 complex multiply-adds a run, where the block on the whole leading j1 x
j1 matrix takes 2 j1^2 k + 2 j1 k^2. ``decompose``'s panels apply the
adjoint with ``_apply_factors``, to the rows above the panel.
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
# A block has a fixed cost (its N, Q and core scalars: some 35 numpy
# operations, one an LU-based inverse) where a factor taken alone costs about
# 10, so compose applies its head one factor at a time when it holds fewer
# than _MIN_BLOCK factors; every later run holds _NB.
# Measured with one BLAS thread: run alone, the block wins from 6 factors;
# between decompose and expm calls, as compose is used, the fixed cost grows
# from about 40 to 100 us. There, over three probes, a block of 6 factors
# (n = 7) takes 0.92-1.09x the time of single factors, of 7 (n = 8)
# 0.88-1.00x with a wide spread, of 8 (n = 9) 0.73-0.84x and of 9 (n = 10)
# 0.71-0.78x; behind a full run (n = 41, 42) 8 and 9 take 0.89-0.93x. So
# _MIN_BLOCK is 8, and n <= 8 keeps the single-factor path and its bits.
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


def _apply_factor(x: np.ndarray, z: np.ndarray, v: np.ndarray, c: complex, rho: float,
                  inverse: bool) -> None:
    """x <- x @ F_j (or @ F_j^H with ``inverse``), in place: the one factor kernel.

    x holds the rows to update, restricted to the leading j columns, and z is
    z_j (length j - 1). The caller passes rho = ||z|| and conj(z) as c * v,
    so no norm or conjugate is taken here: ``compose`` passes z.conj() and 1,
    ``decompose`` the row it read z from and a scale.
    """
    sigma = _sinc(rho)
    a = 0.5 * _sinc(0.5 * rho) ** 2
    if inverse:
        sigma = -sigma
    block = x[:, :-1]
    b = x[:, -1]
    w = block @ z
    block -= (a * c * w + sigma * c * b)[:, None] * v
    b *= math.cos(rho)
    b += sigma * w


@functools.lru_cache(maxsize=64)
def _masks(j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
    """The masks ``_compact_form`` uses for F_{j0} ... F_{j1}, built once.

    Row i of the first (k x j1) holds True in its first j0 + i - 1 entries, so
    Z^T[mask] walks the packed z_{j0} ... z_{j1}; the second (k x k) is the
    strict upper triangle.
    """
    k = j1 - j0 + 1
    masks = np.tri(k, j1, j0 - 2, dtype=bool), ~np.tri(k, dtype=bool)
    for mask in masks:
        mask.flags.writeable = False
    return masks


# Half-turns of rho in sigma = sinc(rho / pi) and 2 a = sinc(rho / (2 pi))^2.
_HALF_TURNS = np.array([[1.0 / math.pi], [0.5 / math.pi]])


def _compact_form(seg: np.ndarray, j0: int, j1: int) -> tuple[np.ndarray, ...]:
    """F_{j0} ... F_{j1} = I + W T W^H on the leading j1 x j1 block, without T.

    seg holds the k = j1 - j0 + 1 consecutive columns z_{j0} ... z_{j1},
    packed as in ``CcskParams.z``. W = [Z | E], where Z (j1 x k) holds the z
    columns padded with zeros and E the unit columns e_{j0} ... e_{j1}, the
    last k of the block. This is the compact WY form of Schreiber and Van
    Loan (SIAM J. Sci. Stat. Comput. 10, 1989) for rank-2 factors: F_i alone
    is I + [z_i e_i] C_i [z_i e_i]^H with the core C_i = [[-a, sigma],
    [-sigma, cos(rho) - 1]] (a and sigma as in ``_apply_factor``), and T =
    (I - M L)^{-1} M, where M holds the cores and L the inner products z_i^H z_l
    and e_i^H z_l that couple F_i to a later F_l (z_i^H e_l and e_i^H e_l
    vanish). Row i of P and Q is C_i times the couplings of F_i, M L = [[P,
    0], [Q, 0]], and with the unit upper triangular I - P and N = (I - P)^{-1}

        T = [[N D_{-a},             N D_sigma            ],
             [Q N D_{-a} - D_sigma, Q N D_sigma + D_{cm1}]],

    D_x the diagonal of the vector x. So T is never formed: this returns Z,
    N, Q and the vectors a, sigma and cm1 = cos(rho) - 1, and ``_grow``
    (forward) and ``_apply_factors`` (adjoint) apply T from them with k x k
    products and column scalings.
    """
    k = j1 - j0 + 1
    scatter, upper = _masks(j0, j1)
    z = np.zeros((j1, k), dtype=np.complex128)
    z.T[scatter] = seg
    g = z.conj().T @ z
    rho2 = g.diagonal().real
    sigma, h = np.sinc(_HALF_TURNS * np.sqrt(rho2))
    a = 0.5 * h * h
    cm1 = -a * rho2  # cos(rho) - 1 without the cancellation
    # The couplings of F_i to a later F_l: z_i^H z_l, and e_i^H z_l in the
    # last k rows of Z, which vanish for l <= i already. Row i of -P and of Q
    # is the core row (a, -sigma) and (-sigma, cm1) of C_i (the first
    # negated) against them.
    lz = g * upper
    le = z[-k:]
    ns = -sigma[:, None]
    ip = a[:, None] * lz + ns * le
    q = ns * lz + cm1[:, None] * le
    ip.ravel()[:: k + 1] = 1.0  # I - P: P vanishes on the diagonal
    return z, np.linalg.inv(ip), q, a, sigma, cm1


def _apply_factors(m: np.ndarray, seg: np.ndarray, j0: int) -> None:
    """m <- m @ (F_{j0} ... F_{j1})^H, in place: ``decompose``'s block update.

    m has j1 columns and seg holds z_{j0} ... z_{j1}, packed as in
    ``CcskParams.z``. With Y = [m Z, m E] T^H (``_compact_form``), m += Y_Z
    Z^H and m E += Y_E, where, from the blocks of T,

        Y_Z = (-m Z D_a + m E D_sigma) N^H,
        Y_E = Y_Z Q^H - m Z D_sigma + m E D_cm1.

    For r rows that is two products of size r x j1 x k (m Z and Y_Z Z^H) and
    two of size r x k x k: 2 r j1 k + 2 r k^2 complex multiply-adds. The E
    half of W costs none.
    """
    j1 = m.shape[1]
    k = j1 - j0 + 1
    z, n, q, a, sigma, cm1 = _compact_form(seg, j0, j1)
    e = m[:, -k:]
    mz = m @ z
    yz = (mz * a - e * sigma) @ n.conj().T  # -Y_Z
    ye = e * cm1 - mz * sigma - yz @ q.conj().T
    m -= yz @ z.conj().T
    e += ye


def _grow(a: np.ndarray, d: np.ndarray, seg: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """blockdiag(a, diag(d)) @ F_{j0} ... F_{j1}, as a new j1 x j1 array.

    a is the r x r product so far (r = j0 - 1), d holds the phases e^{i
    theta_j} of j = j0 ... j1, and seg z_{j0} ... z_{j1}, packed as in
    ``CcskParams.z``. This is the forward form of the compact WY update on m
    = blockdiag(a, D_d), whose last k columns E are zero above D_d: with Y =
    [m Z, m E] T, the product is m + Y_Z Z^H with Y_E added to its last k
    columns, and as m Z = [a Z_top; d Z_bot] and m E Q = [0; d Q],

        V = [a Z_top; d (Z_bot + Q)] N,
        Y_Z = -V D_a - [0; D_{d sigma}],  Y_E = V D_sigma + [0; D_{d cm1}].

    The one square product is a Z_top, r^2 k complex multiply-adds; with V N
    and Y_Z Z^H, r^2 k + j1^2 k + j1 k^2 in all, where the same update on the
    whole of m, with m Z and m E Q, takes 2 j1^2 k + 2 j1 k^2.
    """
    r = j0 - 1
    k = j1 - r
    z, n, q, ca, sigma, cm1 = _compact_form(seg, j0, j1)
    v = np.concatenate((a @ z[:r], d[:, None] * (z[r:] + q))) @ n
    yz = v * -ca  # Y_Z
    ye = v * sigma
    diagonal = slice(r * k, None, k + 1)  # that of the last k rows, raveled
    yz.ravel()[diagonal] -= d * sigma
    ye.ravel()[diagonal] += d * (1.0 + cm1)  # E's D_d, added here
    out = yz @ z.conj().T
    out[:r, :r] += a
    out[:, r:] += ye
    return out


def _runs(n: int, head: int) -> list[tuple[int, int]]:
    """The runs (j0, j1) of factors F_{j0} ... F_{j1} that make up F_2 ... F_n.

    First the head F_2 ... F_b, b = min(n, head + (n - head) % _NB) ((2, 1),
    empty, when b = 1), then runs of _NB factors. ``compose`` takes the head
    1 and applies each run of at least _MIN_BLOCK factors as one block;
    ``decompose`` takes the head 2 * _NB and peels it one factor at a time.
    """
    b = min(n, head + (n - head) % _NB)
    return [(2, b)] + [(j0, j0 + _NB - 1) for j0 in range(b + 1, n + 1, _NB)]


def compose(p: CcskParams) -> np.ndarray:
    """Ordered product: diagonal phases, then the column factors j = 2..n.

    A head of fewer than _MIN_BLOCK factors is applied one factor at a time;
    every other run grows the product by its rows and columns, from e^{i theta_1}.
    """
    runs = _runs(p.n, 1)
    j0, b = runs[0]
    if b - j0 + 1 < _MIN_BLOCK:
        u = exp_diagonal(p.thetas[:b])
        start = 0
        for j in range(j0, b + 1):
            z = p.z[start:start + j - 1]
            start += j - 1
            _apply_factor(u[:j, :j], z, z.conj(), 1.0, frobenius_norm(z), False)
        del runs[0]
    else:
        u = exp_diagonal(p.thetas[:1])
    for j0, j1 in runs:
        d = np.exp(1j * p.thetas[j0 - 1:j1])
        u = _grow(u, d, p.z[z_offset(j0):z_offset(j1 + 1)], j0, j1)
    return u
