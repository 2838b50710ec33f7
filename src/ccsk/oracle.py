"""Independent verification oracle and seeded random generators.

``expm`` is a generic matrix exponential used to cross-check the closed-form
factors; it shares no code with them. It scales x by 2^-s until
||a||_F <= 0.5, evaluates a Taylor polynomial of e^a whose degree m is fixed
in advance by a tail bound (relative truncation error at most 1e-18 in the
Frobenius norm), and squares s times. The polynomial is evaluated by the
Paterson-Stockmeyer scheme (SIAM J. Comput. 2, 1973), about 2 sqrt(m)
matrix products instead of the m - 1 of a term-by-term sum; Higham
(Functions of Matrices, SIAM 2008, sec. 4.2) shows it is as accurate as
Horner's rule for ||a|| <= 1.

The RNG is splitmix64: a tiny, platform-independent 64-bit generator
(state advances by the golden-gamma constant, output is a bijective mix).
Reference test vectors for seed 0 are frozen in the test suite.

``uniform`` and ``gaussian`` define the samples one draw at a time.
``random_params`` draws its whole stream with one ``next_u64_array`` call and
gives the same bits: the uniforms are exact in numpy, and Box-Muller stays in
``math`` on Python floats.
"""

from __future__ import annotations

import math

import numpy as np

from .blockexp import compose
from .linalg import square_matrix
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

    1. Scale: a = x / 2^s with s = ceil(log2(||x||_F / 0.5)), so ||a||_F <= 0.5.
    2. Pick the degree m before evaluating (``_taylor_degree``): the smallest
       m whose tail bound guarantees relative truncation error at most
       ``_EXPM_REL_TOL`` in the Frobenius norm.
    3. Evaluate the degree-m Taylor polynomial by Paterson-Stockmeyer: form
       a^2 ... a^q with q = ceil(sqrt(m)), then run Horner in a^q over blocks
       of q coefficients. That costs (q - 1) + floor(m / q) - [q divides m]
       matrix products, e.g. 4 for m = 9, 5 for m = 12, 6 for m = 13 ... 16,
       against m - 1 when summing term by term.
    4. Square s times.

    x must be a non-empty square matrix with finite entries (ValueError
    otherwise).
    """
    x, norm = square_matrix(x, "expm")
    if not math.isfinite(norm):
        raise ValueError(f"expm: the Frobenius norm of x overflows ({norm})")
    s = max(0, math.ceil(math.log2(norm / _EXPM_TARGET_NORM))) if norm > 0 else 0
    a = x / (2.0 ** s)
    n = x.shape[0]
    m = _taylor_degree(norm / 2.0 ** s, n)
    q = max(1, math.ceil(math.sqrt(m)))
    r = m // q
    # powers[j] = a^j for j < q; a^q is kept apart as the Horner variable.
    powers = np.empty((q, n, n), dtype=np.complex128)
    powers[0] = np.eye(n)
    if q > 1:
        powers[1] = a
    for j in range(2, q):
        np.matmul(powers[j - 1], a, out=powers[j])
    # blocks[i] = sum_j a^j / (iq + j)! over j < q, all r + 1 in one product.
    coeffs = np.zeros((r + 1) * q)
    coeffs[: m + 1] = _INV_FACTORIAL[: m + 1]
    blocks = (coeffs.reshape(r + 1, q) @ powers.reshape(q, n * n)).reshape(r + 1, n, n)
    if r == 0:
        result = blocks[0]
    else:
        aq = powers[q - 1] @ a if q > 1 else a
        # When q divides m the top block is the scalar 1/m!, so its step
        # needs no product.
        if m % q:
            result = blocks[r] @ aq
        else:
            result = aq * _INV_FACTORIAL[m]
        result += blocks[r - 1]
        for i in range(r - 2, -1, -1):
            result = result @ aq
            result += blocks[i]
    for _ in range(s):
        result = result @ result
    return result


def _taylor_degree(t: float, n: int) -> int:
    """Smallest Taylor degree m for exp(a) with ||a||_F = t <= 0.5, n x n.

    The tail past degree m is at most t^(m+1)/(m+1)! / (1 - t/(m+2)) in the
    Frobenius norm (a geometric bound on the ratio of its terms), and
    ||exp(a)||_F >= sqrt(n) - expm1(t), since ||exp(a) - I||_F <= e^t - 1.
    m is the smallest degree whose tail is at most ``_EXPM_REL_TOL`` times
    that lower bound, capped at ``_EXPM_TERM_CAP``: 16 at t = 0.5 for n = 1,
    fewer for larger n or smaller t, and 0 for t = 0.
    """
    target = _EXPM_REL_TOL * (math.sqrt(n) - math.expm1(t))
    m = 0
    tail_term = t  # t^(m+1) / (m+1)!
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
    u2 = (pairs[:, 1] * 2.0 ** -53).tolist()
    gauss = np.array([math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b)
                      for a, b in zip(u1, u2)])
    z = np.empty(z_offset(n + 1), dtype=np.complex128)
    for k, rho in enumerate(rhos, start=1):  # k = j - 1 entries, from gauss[k(k-1):]
        re = gauss[k * (k - 1): k * k]
        im = gauss[k * k: k * (k + 1)]
        g = re + 1j * im
        norm = np.linalg.norm(g)
        direction = g / norm if norm > 0 else np.eye(k, dtype=np.complex128)[0]
        z[z_offset(k + 1):z_offset(k + 2)] = rho * direction
    return CcskParams(thetas, z)


def random_unitary(n: int, rng: RngState) -> np.ndarray:
    """compose(random_params(n, rng)); covers U(n) but is not Haar-distributed."""
    return compose(random_params(n, rng))
