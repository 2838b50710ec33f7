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

H_j is its own adjoint and inverse; ``decompose`` peels the H_j off with
its own kernels. ``exp_k`` and ``exp_column_factor`` build the factor
matrices themselves, from sigma and a: ``exp_k`` serves ``ccsk compare``,
and ``exp_column_factor``, its n x n embedding, is the reference form for
the tests.

Two more reference forms write the same factor another way. For n=2 the
product of the diagonal phases with the single column factor splits into
phase * real rotation * phase (``euler2_factorize``). For any column vector,
the leading block I - (1 - cos rho)|zt><zt| equals P0 + cos(rho) P1 with P1
= |zt><zt| and P0 its complement (``projector_form``).

``compose`` forms D' H_2 ... H_n with one call of LAPACK's ZUNGQR, the
routine that accumulates the Householder reflectors of a QR factorization
(Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM 1999), on the
reflectors in LAPACK's normalization H_j = I - tau_j v_j v_j^H: v_j = w_j /
cos(rho_j/2), 1 at its pivot, and tau_j = 2 cos^2(rho_j/2). Given the
workspace its own query asks for, n times its block size NB = 32, ZUNGQR
applies up to NX = 128 reflectors one at a time (n <= 129). Beyond that it
takes groups of 32 counted from H_n as blocks, each in the compact WY form
of Schreiber and Van Loan (SIAM J. Sci. Stat. Comput. 10, 1989), and the
97 to 128 left nearest H_2 one at a time. Like any Householder
accumulation, its rounding is bounded by Higham's Lemma 19.3 (README, "The
defect of compose, bounded").
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np
from numpy.linalg import lapack_lite

from .linalg import _vector_norm, as_cvector, frobenius_norm
from .params import CcskParams, z_mask

__all__ = [
    "k_matrix",
    "exp_k",
    "exp_column_factor",
    "compose",
    "euler2_factorize",
    "projector_form",
]

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


def compose(p: CcskParams) -> np.ndarray:
    """Ordered product: diagonal phases, then the column factors j = 2..n.

    Formed as D' H_2 ... H_n: D' times the product of all n - 1 reflectors
    from one LAPACK ZUNGQR call, which takes H_j = I - 2 w_j w_j^H = I -
    tau_j v_j v_j^H with v_j = w_j / cos(rho_j/2) = (-tan(rho_j/2) / rho_j
    z_j, 1) and tau_j = 2 cos^2(rho_j/2). In the reversed basis J (coordinate
    i to n + 1 - i), H_j is LAPACK's elementary reflector i = n - j (from 0):
    unit pivot at i, v_j reversed below it. So row i of the C-ordered f,
    column i of the Fortran matrix that ZUNGQR reads, holds v_j reversed past
    column i, and ZUNGQR overwrites f with Q^T, Q = J (H_n ... H_2) J. Each
    H_j is Hermitian, so J Q^T J = conj(H_2 ... H_n). At n = 1 there is no
    reflector, and ZUNGQR returns the identity. v_j grows like 1/cos(rho_j/2)
    near rho_j = pi, but no double rho_j makes that cosine zero, and tau_j
    v_j v_j^H is 2 w_j w_j^H to rounding.
    """
    n = p.n
    f = np.zeros((n, n), dtype=np.complex128)
    f[::-1, ::-1][z_mask(n)] = p.z  # z_j reversed, in row n - j
    h = np.linalg.norm(f, axis=1)
    # rho_j / 2, with rho_j = 0 (or a rho_j^2 that underflowed) raised to the
    # smallest normal double, where tan(h) / 2h is 1/2 and cos(h) is 1.
    np.maximum(h, sys.float_info.min, out=h)
    h *= 0.5
    c = np.cos(h)
    f *= (np.tan(h) / (-2.0 * h))[:, None]
    tau = (2.0 * c * c).astype(np.complex128)
    # n times ZUNGQR's block size 32, what its workspace query (lwork = -1)
    # returns. Given only n entries, it applies every reflector on its own.
    work = np.empty(n * 32, dtype=np.complex128)
    info = lapack_lite.zungqr(n, n, n - 1, f, f.shape[1], tau, work, work.shape[0], 0)["info"]
    if info:
        raise RuntimeError(f"LAPACK zungqr failed: info = {info}")
    d = np.exp(1j * p.thetas)
    d[1:] *= -1.0  # D'
    return d[:, None] * np.conjugate(f, out=f)[::-1, ::-1]


def euler2_factorize(theta1: float, theta2: float,
                     z: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phase * rotation * phase factorisation of the 2x2 product map, as the
    arrays (left, rotation, right) whose product left @ rotation @ right it is.

    With alpha = arg(z) (zero for z = 0) and r = |z|:
      left     = diag(e^{i(theta1 + alpha/2)}, e^{i(theta2 - alpha/2)})
      rotation = [[cos r, sin r], [-sin r, cos r]]
      right    = diag(e^{-i alpha/2}, e^{i alpha/2})
    A nan or inf argument, or a z whose modulus overflows, is refused (ValueError).
    """
    z = complex(z)
    r = math.hypot(z.real, z.imag)  # abs(z), but inf where that overflows
    if not (math.isfinite(theta1) and math.isfinite(theta2) and math.isfinite(r)):
        raise ValueError("euler2_factorize requires finite theta1, theta2 and |z|, "
                         f"got {theta1}, {theta2} and {z}")
    alpha = cmath.phase(z) if z != 0 else 0.0
    left = np.diag([cmath.exp(1j * (theta1 + alpha / 2.0)),
                    cmath.exp(1j * (theta2 - alpha / 2.0))])
    rotation = np.array([[math.cos(r), math.sin(r)],
                         [-math.sin(r), math.cos(r)]], dtype=np.complex128)
    right = np.diag([cmath.exp(-1j * alpha / 2.0), cmath.exp(1j * alpha / 2.0)])
    return left, rotation, right


def projector_form(z) -> tuple[np.ndarray, np.ndarray, float]:
    """(p0, p1, rho): the orthogonal projectors p1 onto the z direction and p0
    onto its complement, and rho = ||z||, so that p0 + cos(rho) p1 is the
    leading block of the column factor. A z that is zero or whose norm
    overflows is refused (ValueError)."""
    z = as_cvector(z)
    rho = _vector_norm(z, "projector_form")
    if rho == 0.0:
        raise ValueError("projector_form requires a nonzero vector")
    if rho < 1e-300:  # z / rho takes 1 / rho, inf for a subnormal rho; 2^1000 is exact
        zs = z * 2.0**1000
        zt = zs / frobenius_norm(zs)
    else:
        zt = z / rho
    p1 = np.outer(zt, zt.conj())
    p0 = np.eye(z.shape[0], dtype=np.complex128) - p1
    return p0, p1, rho
