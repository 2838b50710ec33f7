"""Independent verification oracle and seeded random generators.

``expm`` is a generic matrix exponential used to cross-check the closed-form
factors; it shares no code with them. It scales x by 2^-s until
||b||_F <= 0.5, evaluates a Taylor polynomial of e^a, a = 2^d b, whose degree
m is fixed in advance by a tail bound (relative truncation error at most
1e-18 in the Frobenius norm), and squares s - d times. From n = 16, d takes
back the halvings that the spectrum does not need: the tail bound holds with
max(||b^3||_F^(1/3), ||b^4||_F^(1/4)) in place of ||b||_F (Al-Mohy and
Higham, SIAM J. Matrix Anal. Appl. 31, 2009), so a generator whose
Frobenius norm far exceeds its spectral radius takes fewer squarings. The
polynomial is evaluated by the Paterson-Stockmeyer scheme (SIAM J. Comput. 2,
1973) in the powers of b, about 2 sqrt(m) matrix products instead of the
m - 1 of a term-by-term sum; Higham (Functions of Matrices, SIAM 2008,
sec. 4.2) shows it is as accurate as Horner's rule for ||b|| <= 1. An x whose
spectral bound is past 2^32 is refused (``_EXPM_SPECTRAL_CAP``).

The RNG is splitmix64: a tiny, platform-independent 64-bit generator
(state advances by the golden-gamma constant, output is a bijective mix).
Reference test vectors for seed 0 are frozen in the test suite.

``uniform`` and ``gaussian`` define the samples one draw at a time.
``random_params`` draws its whole stream with one ``next_u64_array`` call and
gives the same bits: the uniforms are exact in numpy, Box-Muller takes its
log and cos from ``math``, one Python float at a time, and its correctly
rounded products and sqrt from numpy.
"""

from __future__ import annotations

import bisect
import functools
import math
import struct

import numpy as np

from .blockexp import compose
from .linalg import frobenius_norm, square_matrix
from .params import CcskParams, z_offset

__all__ = ["RngState", "expm", "random_params", "random_unitary"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15

# expm scales its input to Frobenius norm at most _EXPM_TARGET_NORM, then
# picks the smallest Taylor degree, up to _EXPM_TERM_CAP, whose truncation
# error is at most _EXPM_REL_TOL relative to ||e^a||_F.
_EXPM_TARGET_NORM = 0.5
_EXPM_TERM_CAP = 40
_EXPM_REL_TOL = 1e-18
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
_INV_FACTORIAL = np.array([1.0 / math.factorial(k) for k in range(_EXPM_TERM_CAP + 1)])


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

    1. Scale: b = x / 2^s with s = ceil(log2(||x||_F / 0.5)), so ||b||_F <= 0.5.
    2. Plan (``_expm_plan``): take back d of the s halvings, a = 2^d b, and
       pick the degree m before evaluating. Where s = 0, or n is below
       ``_EXPM_RESCALE_MIN_N`` and s <= 32, d = 0 and m is the smallest degree whose tail
       bound in t = ||a||_F guarantees relative truncation error at most
       ``_EXPM_REL_TOL`` in the Frobenius norm (``_taylor_degree``).
       Otherwise b^2, b^3 and b^4 are formed first, and
       alpha = max(||b^3||_F^(1/3), ||b^4||_F^(1/4)) bounds ||b^k||_F^(1/k)
       for every k >= 6. d is the largest with 2^d alpha <= 0.5 and
       ||a||_F <= ``_EXPM_RESCALE_NORM_CAP``, and m comes from the same tail
       bound in t = 2^d alpha (``_spectral_degree``).
    3. Evaluate the degree-m Taylor polynomial of e^a by Paterson-Stockmeyer
       in the powers of b, with the coefficients 2^(dk)/k!: form b^2 ... b^q,
       then run Horner in b^q over blocks of q coefficients. That costs
       (q - 1) + floor(m / q) - [q divides m] matrix products, e.g. 4 for
       m = 9, 5 for m = 12, 6 for m = 13 ... 16, against m - 1 when summing
       term by term. q = ceil(sqrt(m)), or 4 where step 2 formed b^4.
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
    squarings, d, _, m, powers, bq = _expm_plan(x, norm)
    q, n = powers.shape[0], powers.shape[1]
    coeffs = _ps_coefficients(m, q, d)
    r = coeffs.shape[0] - 1
    # blocks[i] = sum_j c_(iq + j) b^j over j < q, all r + 1 in one product.
    blocks = (coeffs @ powers.reshape(q, n * n)).reshape(r + 1, n, n)
    if r == 0:
        result = blocks[0]
    else:
        # When q divides m the top block is the scalar c_m, so its step
        # needs no product; a real scalar scales each part of b^q alone.
        if m % q:
            result = blocks[r] @ bq
        else:
            result = bq * coeffs[r, 0].real
        result += blocks[r - 1]
        for i in range(r - 2, -1, -1):
            result = result @ bq
            result += blocks[i]
    for _ in range(squarings):
        result = result @ result
    return result


def _expm_plan(x: np.ndarray,
               norm: float) -> tuple[int, int, float, int, np.ndarray, np.ndarray]:
    """How ``expm`` evaluates e^x, ||x||_F = norm (finite): the tuple
    (squarings, d, t, m, powers, b^q).

    e^x is the degree-m Taylor polynomial of a = x / 2^squarings = 2^d b,
    squared ``squarings`` times; t bounds ||a^k||_F^(1/k) for every k > m and
    the spectral radius of a. powers stacks b^0 ... b^(q-1), so the q - 1
    products that form b^2 ... b^q are already spent.

    alpha bounds ||b^k||_F^(1/k) for every k >= 6 (Al-Mohy and Higham, SIAM
    J. Matrix Anal. Appl. 31, 2009, Lemma 4.1 with p = 3), and the spectral
    radius of b, which is at most ||b^3||_F^(1/3).
    """
    n = x.shape[0]
    s = max(0, math.ceil(math.log2(norm / _EXPM_TARGET_NORM))) if norm > 0 else 0
    b = x / (2.0 ** s)
    t = norm / 2.0 ** s
    if s == 0 or (n < _EXPM_RESCALE_MIN_N and 2.0 ** s <= _EXPM_SPECTRAL_CAP):
        m = _taylor_degree(t, n)
        return (s, 0, t, m) + _powers(b, max(1, math.ceil(math.sqrt(m))))
    powers, b4 = _powers(b, 4)
    alpha = max(frobenius_norm(powers[3]) ** (1.0 / 3.0), frobenius_norm(b4) ** 0.25)
    if 2.0 ** s * alpha > _EXPM_SPECTRAL_CAP:
        raise ValueError(
            f"expm: x is out of range: scaling its norm takes s = {s} halvings, and "
            f"its spectral bound max(||x^3||_F^(1/3), ||x^4||_F^(1/4)) = {2.0 ** s * alpha:.3e} "
            f"exceeds 2^32")
    d = 0
    while (d < s and 2.0 ** (d + 1) * alpha <= _EXPM_TARGET_NORM
           and 2.0 ** (d + 1) * t <= _EXPM_RESCALE_NORM_CAP):
        d += 1
    t = 2.0 ** d * alpha
    return s - d, d, t, _spectral_degree(t, n), powers, b4


def _powers(b: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """b^0 ... b^(q-1) stacked in one (q, n, n) array, and b^q."""
    n = b.shape[0]
    powers = np.empty((q, n, n), dtype=np.complex128)
    powers[0] = np.eye(n)
    if q == 1:
        return powers, b
    powers[1] = b
    for j in range(2, q):
        np.matmul(powers[j - 1], b, out=powers[j])
    return powers, powers[q - 1] @ b


@functools.lru_cache(maxsize=None)
def _ps_coefficients(m: int, q: int, d: int) -> np.ndarray:
    """The Taylor coefficients 2^(dk)/k!, k <= m, as r + 1 = floor(m/q) + 1
    rows of q, padded with zeros past m; complex, as the powers they meet,
    and read-only, shared by every call."""
    r = m // q
    coeffs = np.zeros((r + 1) * q, dtype=np.complex128)
    coeffs[: m + 1] = np.ldexp(_INV_FACTORIAL[: m + 1], d * np.arange(m + 1))
    coeffs = coeffs.reshape(r + 1, q)
    coeffs.flags.writeable = False
    return coeffs


def _taylor_degree(t: float, n: int) -> int:
    """Smallest Taylor degree m for exp(a) with ||a||_F = t <= 0.5, n x n.

    The tail past degree m is at most t^(m+1)/(m+1)! / (1 - t/(m+2)) in the
    Frobenius norm (a geometric bound on the ratio of its terms), and
    ||exp(a)||_F >= sqrt(n) - expm1(t), since ||exp(a) - I||_F <= e^t - 1.
    m is the smallest degree whose tail is at most ``_EXPM_REL_TOL`` times
    that lower bound, capped at ``_EXPM_TERM_CAP``: 16 at t = 0.5 for n = 1,
    fewer for larger n or smaller t, and 0 for t = 0.

    Up to t = 0.5 the degree is the count of the thresholds of
    ``_degree_thresholds(n)`` below t; above it (t can exceed 0.5 by the
    rounding of the scaling) the search runs in full.
    """
    if t <= _EXPM_TARGET_NORM:
        return bisect.bisect_left(_degree_thresholds(n), t)
    return _norm_degree(t, n)


def _norm_degree(t: float, n: int) -> int:
    """``_taylor_degree`` by the search over the degrees."""
    return _tail_degree(t, _EXPM_REL_TOL * (math.sqrt(n) - math.expm1(t)), 0)


def _float_bits(t: float) -> int:
    return struct.unpack("<q", struct.pack("<d", t))[0]


def _bits_float(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k))[0]


@functools.lru_cache(maxsize=64)
def _degree_thresholds(n: int) -> tuple[float, ...]:
    """For each degree m below _norm_degree(0.5, n), the largest t in
    [0, 0.5] with _norm_degree(t, n) <= m, built once per n.

    Each is found over the floats (a non-negative float's bits, read as an
    integer, order it) with the search itself as the test: from the real
    root of the tail bound (``_tail_root``), which lies within a few ulps,
    step out by doubling until the threshold is bracketed, then bisect. So
    the degree the thresholds give is the search's at every float of
    [0, 0.5] as long as the search is monotone in t; the tests check it on
    either side of every threshold. About 0.5 ms for each n.
    """
    def fits(k: int, m: int) -> bool:
        return _norm_degree(_bits_float(k), n) <= m

    thresholds = []
    # For every m below: fits(floor, m) (degree(0) = 0, then the last
    # threshold's degree is below m) and not fits(top, m).
    floor, top = 0, _float_bits(_EXPM_TARGET_NORM)
    for m in range(_norm_degree(_EXPM_TARGET_NORM, n)):
        lo = hi = min(max(_float_bits(_tail_root(m, n)), floor), top)
        step = 1
        while fits(hi, m):
            lo, hi, step = hi, min(hi + step, top), 2 * step
        while not fits(lo, m):
            lo, hi, step = max(lo - step, floor), lo, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid, m):
                lo = mid
            else:
                hi = mid
        thresholds.append(_bits_float(lo))
        floor = lo
    return tuple(thresholds)


def _tail_root(m: int, n: int) -> float:
    """The t at which the tail bound past degree m, t^(m+1)/(m+1)! /
    (1 - t/(m+2)), meets _EXPM_REL_TOL (sqrt(n) - expm1(t)), in real
    arithmetic, by fixed-point iteration on
    t = ((m+1)! target(t) (1 - t/(m+2)))^(1/(m+1)), which contracts by a
    factor of at most about 0.15 for t <= 0.5."""
    scale = math.factorial(m + 1) * _EXPM_REL_TOL
    t = 0.0
    for _ in range(30):
        t = (scale * (math.sqrt(n) - math.expm1(t)) * (1.0 - t / (m + 2))) ** (1.0 / (m + 1))
    return t


def _spectral_degree(t: float, n: int) -> int:
    """Smallest Taylor degree m >= 5 for exp(a), n x n, where t bounds both
    ||a^k||_F^(1/k) for k >= 6 and the spectral radius of a.

    The tail past m >= 5 has the bound of ``_taylor_degree``. Every
    eigenvalue of exp(a) has modulus at least e^-t, and ||M||_F^2 is at least
    the sum of |lambda_i(M)|^2, so ||exp(a)||_F >= sqrt(n) e^-t.
    """
    return _tail_degree(t, _EXPM_REL_TOL * math.sqrt(n) * math.exp(-t), 5)


def _tail_degree(t: float, target: float, m: int) -> int:
    """Smallest degree from m on, capped at ``_EXPM_TERM_CAP``, whose tail
    bound t^(m+1)/(m+1)! / (1 - t/(m+2)) is at most target."""
    tail_term = t ** (m + 1) / math.factorial(m + 1)
    while m < _EXPM_TERM_CAP and not tail_term / (1.0 - t / (m + 2)) <= target:
        m += 1
        tail_term *= t / (m + 1)
    return m


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
    is_rho = np.zeros(column_words.shape[0], dtype=bool)
    is_rho[(k - 1) * (2 * k + 1)] = True
    rhos = ((math.pi / 2.0) * (column_words[is_rho] * 2.0 ** -53)).tolist()
    pairs = column_words[~is_rho].reshape(-1, 2)
    u1 = ((pairs[:, 0] + np.uint64(1)) * 2.0 ** -53).tolist()  # in (0, 1]
    u2 = pairs[:, 1] * 2.0 ** -53
    # Box-Muller as ``gaussian`` takes it: log and cos from math, 2 pi u2 as
    # (2 pi) u2, and the products and sqrt, correctly rounded, in numpy.
    lg = np.fromiter(map(math.log, u1), dtype=np.float64, count=len(u1))
    cs = np.fromiter(map(math.cos, ((2.0 * math.pi) * u2).tolist()), dtype=np.float64,
                     count=len(u1))
    gauss = np.sqrt(-2.0 * lg) * cs
    z = np.empty(z_offset(n + 1), dtype=np.complex128)
    for k, rho in enumerate(rhos, start=1):  # k = j - 1 entries, from gauss[k(k-1):]
        re = gauss[k * (k - 1): k * k]
        im = gauss[k * k: k * (k + 1)]
        g = re + 1j * im
        norm = np.linalg.norm(g)
        direction = g / norm if norm > 0 else np.eye(k, dtype=np.complex128)[0]
        z[z_offset(k + 1):z_offset(k + 2)] = rho * direction
    return CcskParams._unchecked(thetas, z)


def random_unitary(n: int, rng: RngState) -> np.ndarray:
    """compose(random_params(n, rng)); covers U(n) but is not Haar-distributed."""
    return compose(random_params(n, rng))
