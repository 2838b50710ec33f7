"""Independent verification oracle and seeded random generators.

``expm`` is a generic matrix exponential used to cross-check the closed-form
factors; it shares no code with them. It scales x by 2^-s until
||b||_F <= 0.5, evaluates the degree-16 Taylor polynomial of e^a, a = 2^d b,
whose relative truncation error a tail bound keeps below 1e-18 in the
Frobenius norm, and squares s - d times. From n = 16, d takes back the
halvings that the spectrum does not need: the tail bound holds with
max(||b^3||_F^(1/3), ||b^4||_F^(1/4)) in place of ||b||_F (Al-Mohy and
Higham, SIAM J. Matrix Anal. Appl. 31, 2009), so a generator whose
Frobenius norm far exceeds its spectral radius takes fewer squarings. The
polynomial is evaluated by the Paterson-Stockmeyer scheme (SIAM J. Comput. 2,
1973) in b^0 ... b^4, 6 matrix products instead of the 15 of a term-by-term
sum; Higham (Functions of Matrices, SIAM 2008, sec. 4.2) shows it is as
accurate as Horner's rule for ||b|| <= 1. An x whose spectral bound is past
2^32 is refused (``_EXPM_SPECTRAL_CAP``).

The RNG is splitmix64: a tiny, platform-independent 64-bit generator
(state advances by the golden-gamma constant, output is a bijective mix).
Reference test vectors for seed 0 are frozen in the test suite.

``uniform`` and ``gaussian`` define the samples one draw at a time.
``random_params`` draws its whole stream with one ``next_u64_array`` call and
gives the same bits: the uniforms are exact in numpy, Box-Muller takes its
cos from numpy, which returns ``math.cos``'s bits, its log from ``math``, one
Python float at a time (``np.log`` misses ``math.log``'s bits on about 0.35%
of draws), and its correctly rounded products and sqrt from numpy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import frobenius_norm, square_matrix
from .params import CcskParams, z_offset

__all__ = ["RngState", "expm", "random_params"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15

# expm scales its input to Frobenius norm at most this.
_EXPM_TARGET_NORM = 0.5
# From this n on, expm takes back the halvings of x that ||b^k||_F^(1/k)
# shows are not needed. Below it, the two norms cost more than the squarings
# they save: on random generators, with one BLAS thread on a 2-core VM, the
# rescaled path took 1.4% longer at n = 8, tied at n = 12 and was 1.2%
# faster at n = 16 and 4% at n = 32.
_EXPM_RESCALE_MIN_N = 16
# It takes back halvings only while ||a||_F stays at most this. That keeps
# the coefficients 2^(dk)/k! finite (x = 1e150 E_01 has alpha = 0, and taking
# back all s = 500 halvings overflows) and bounds every term ||a^k||_F / k!
# by 4^4/4! < 11, also for non-normal x. As ||b||_F > 0.25 whenever s >= 1,
# it allows d <= 3; random generators take d = 3 at n = 256.
_EXPM_RESCALE_NORM_CAP = 4.0
# expm refuses x whose spectral bound, 2^s alpha with alpha as above, exceeds
# this. Rounding x's entries to doubles alone moves e^x's eigenvalues by
# about eps times that bound, 1e-6 at 2^32, and each of the s - d squarings
# doubles the rounding of the result. With J = [[0, 1], [-1, 0]], 1e12 J
# would come out with a unitarity defect of 1.4e-3 after 42 squarings, 1e20 J
# would overflow in them, and 1e150 J would give the zero matrix after 500.
# As alpha <= ||b||_F <= 0.5, no x with s <= 32 has a bound above 2^31, so
# below _EXPM_RESCALE_MIN_N alpha is formed only for s > 32.
_EXPM_SPECTRAL_CAP = 2.0 ** 32


class RngState:
    """splitmix64 stream; single-owner, deterministic per seed."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_u64_array(self, k: int) -> np.ndarray:
        """The next k ``next_u64`` outputs as a uint64 array, drawn at once.

        splitmix64 is counter-based: output i (from 0) is the mix of
        state + (i + 1) * gamma, so the whole stream is a few array operations.
        The state afterwards is the one k ``next_u64`` calls would leave.
        """
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)  # wraps modulo 2^64
        z += np.uint64(self._state)
        self._state = (self._state + k * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def uniform(self) -> float:
        """Uniform in [0, 1), 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def gaussian(self) -> float:
        """Standard normal via Box-Muller (one sample per pair of uniforms)."""
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53  # in (0, 1]
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by a scaled Taylor polynomial plus repeated squaring.

    1. Scale: b = x / 2^s with s = ceil(log2(||x||_F / 0.5)), so ||b||_F <= 0.5,
       and form b^2, b^3 and b^4.
    2. Plan (``_expm_plan``): take back d of the s halvings, a = 2^d b. Where
       s = 0, or n is below ``_EXPM_RESCALE_MIN_N`` and s <= 32, d = 0.
       Otherwise alpha = max(||b^3||_F^(1/3), ||b^4||_F^(1/4)) bounds
       ||b^k||_F^(1/k) for every k >= 6, and d is the largest with
       2^d alpha <= 0.5 and ||a||_F <= ``_EXPM_RESCALE_NORM_CAP``.
    3. Evaluate the degree-16 Taylor polynomial of e^a by Paterson-Stockmeyer
       in the powers of b, with the coefficients 2^(dk)/k!: one product of
       the 4 x 5 coefficient matrix with the stack b^0 ... b^4 gives the
       blocks sum_j c_(4i+j) b^j, j < 4, with c_16 b^4 in block 3; then three
       Horner steps in b^4. Six matrix products in all, against 15 when
       summing term by term.
    4. Square s - d times.

    x must be a non-empty square matrix with finite entries (ValueError
    otherwise). When s > 32, alpha is formed at any n, and x is refused
    (ValueError naming s and the bound) when its spectral bound 2^s alpha
    exceeds ``_EXPM_SPECTRAL_CAP`` = 2^32; an x it admits takes the alpha
    path of step 2 also below ``_EXPM_RESCALE_MIN_N``.
    """
    x, norm = square_matrix(x, "expm")
    if not math.isfinite(norm):
        raise ValueError(f"expm: the Frobenius norm of x overflows ({norm})")
    squarings, d, powers = _expm_plan(x, norm)
    n = x.shape[0]
    # All four blocks in one product. That wide product stays on matmul, as
    # np.dot is 16-23% slower at it at n = 128 and 256. Every square product
    # below multiplies contiguous arrays that expm made, so it goes to BLAS
    # by ``ndarray.dot``, without matmul's gufunc overhead (README,
    # "Products").
    blocks = (_ps_coefficients(d) @ powers.reshape(5, n * n)).reshape(4, n, n)
    b4 = powers[4]
    result = blocks[3]
    for i in (2, 1, 0):
        result = result.dot(b4)
        result += blocks[i]
    for _ in range(squarings):
        result = result.dot(result)
    return result


def _expm_plan(x: np.ndarray, norm: float) -> tuple[int, int, np.ndarray]:
    """How ``expm`` evaluates e^x, ||x||_F = norm (finite): the tuple
    (squarings, d, powers).

    e^x is the degree-16 Taylor polynomial of a = x / 2^squarings = 2^d b,
    squared ``squarings`` times. powers stacks b^0 ... b^4 (``_powers``).

    Degree 16 meets the tail bound t^17/17! / (1 - t/18) <= 1e-18 L, where t
    bounds ||a^k||_F^(1/k) for every k > 16 and L bounds ||e^a||_F from
    below, on both plans. On the norm plan, t = ||a||_F <= 0.5 and
    L = sqrt(n) - expm1(t), since ||e^a - I||_F <= e^t - 1; the n = 1 target
    1e-18 (2 - e^t) is met up to t = 0.57, past the few ulps by which the
    scaling's rounding can leave t above 0.5, and degree 15 misses it at
    t = 0.5. On the alpha plan, t = 2^d alpha <= 0.5 bounds ||a^k||_F^(1/k)
    for k >= 6 (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 2009,
    Lemma 4.1 with p = 3) and the spectral radius of a, which is at most
    ||a^3||_F^(1/3). So every eigenvalue of e^a has modulus at least e^-t,
    L = sqrt(n) e^-t, and 1e-18 (2 - e^t) is at most 1e-18 sqrt(n) e^-t for
    t >= 0.
    """
    n = x.shape[0]
    s = max(0, math.ceil(math.log2(norm / _EXPM_TARGET_NORM))) if norm > 0 else 0
    powers = _powers(x, s)
    if s == 0 or (n < _EXPM_RESCALE_MIN_N and 2.0 ** s <= _EXPM_SPECTRAL_CAP):
        return s, 0, powers
    alpha = max(frobenius_norm(powers[3]) ** (1.0 / 3.0), frobenius_norm(powers[4]) ** 0.25)
    if 2.0 ** s * alpha > _EXPM_SPECTRAL_CAP:
        raise ValueError(
            f"expm: x is out of range: scaling its norm takes s = {s} halvings, and "
            f"its spectral bound max(||x^3||_F^(1/3), ||x^4||_F^(1/4)) = {2.0 ** s * alpha:.3e} "
            f"exceeds 2^32")
    t = norm / 2.0 ** s
    d = 0
    while (d < s and 2.0 ** (d + 1) * alpha <= _EXPM_TARGET_NORM
           and 2.0 ** (d + 1) * t <= _EXPM_RESCALE_NORM_CAP):
        d += 1
    return s - d, d, powers


def _powers(x: np.ndarray, s: int) -> np.ndarray:
    """b^0 ... b^4, b = x / 2^s, stacked in one (5, n, n) array.

    b = x * 2^-s, which rounds as x / 2^s does, is written straight into the
    stack, so every product multiplies contiguous arrays made here."""
    n = x.shape[0]
    powers = np.empty((5, n, n), dtype=np.complex128)
    powers[0] = 0.0
    powers[0].ravel()[:: n + 1] = 1.0
    b = np.multiply(x, 2.0 ** -s, out=powers[1])
    for j in range(2, 5):
        np.dot(powers[j - 1], b, out=powers[j])
    return powers


@functools.lru_cache(maxsize=None)
def _ps_coefficients(d: int) -> np.ndarray:
    """The Taylor coefficients c_k = 2^(dk)/k!, k <= 16, as the 4 x 5 matrix
    whose row i holds c_(4i) ... c_(4i+3) against b^0 ... b^3, and whose
    column 4, against b^4, holds c_16 in row 3 and zeros above; complex, as
    the powers it meets, and read-only, shared by every call."""
    c = np.ldexp([1.0 / math.factorial(k) for k in range(17)], d * np.arange(17))
    coeffs = np.zeros((4, 5), dtype=np.complex128)
    coeffs[:, :4] = c[:16].reshape(4, 4)
    coeffs[3, 4] = c[16]
    coeffs.flags.writeable = False
    return coeffs


def random_params(n: int, rng: RngState) -> CcskParams:
    """Canonical random parameters: theta uniform in (-pi, pi]; each column is
    rho * (random unit direction) with rho uniform in [0, pi/2].

    The stream is n ``uniform`` draws for the thetas, then per column
    j = 2..n one ``uniform`` for rho and 2(j-1) ``gaussian`` draws (real
    parts, then imaginary parts), all taken from one ``next_u64_array`` call.
    Both arrays are finite and of the right shapes by construction, so the
    result is built unchecked (``CcskParams._unchecked``).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    words = rng.next_u64_array(n + (n - 1) * (2 * n + 1)) >> np.uint64(11)  # 53 bits
    thetas = math.pi * (1.0 - 2.0 * (words[:n] * 2.0 ** -53))
    # Column j, with k = j - 1 entries, takes 1 + 4k words: rho's, then two per
    # gaussian. The columns before it take (k - 1)(2k + 1) words.
    k = np.arange(1, n)
    column_words = words[n:]
    rho_at = (k - 1) * (2 * k + 1)
    rhos = ((math.pi / 2.0) * (column_words[rho_at] * 2.0 ** -53)).tolist()
    pairs = np.delete(column_words, rho_at).reshape(-1, 2)
    u1 = ((pairs[:, 0] + np.uint64(1)) * 2.0 ** -53).tolist()  # in (0, 1]
    u2 = pairs[:, 1] * 2.0 ** -53
    # Box-Muller as ``gaussian`` takes it, 2 pi u2 as (2 pi) u2. numpy's cos
    # gives math.cos's bits; its log misses math.log's on about 0.35% of
    # draws, so log is taken from math, one Python float at a time. The
    # products and sqrt are correctly rounded in numpy.
    lg = np.fromiter(map(math.log, u1), dtype=np.float64, count=len(u1))
    gauss = np.sqrt(-2.0 * lg) * np.cos((2.0 * math.pi) * u2)
    z = np.empty(z_offset(n + 1), dtype=np.complex128)
    for k, rho in enumerate(rhos, start=1):  # k = j - 1 entries, from gauss[k(k-1):]
        re = gauss[k * (k - 1): k * k]
        im = gauss[k * k: k * (k + 1)]
        g = re + 1j * im
        norm = np.linalg.norm(g)
        direction = g / norm if norm > 0 else np.eye(k, dtype=np.complex128)[0]
        z[z_offset(k + 1):z_offset(k + 2)] = rho * direction
    return CcskParams._unchecked(thetas, z)
