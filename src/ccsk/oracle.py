"""Independent verification oracle and seeded random generators.

``expm`` is a generic matrix exponential (Taylor series with scaling and
squaring) used to cross-check the closed-form factors; it shares no code with
them. The RNG is splitmix64: a tiny, platform-independent 64-bit generator
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
from .linalg import frobenius_norm
from .params import CcskParams

__all__ = ["RngState", "expm", "random_params", "random_unitary"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15

_EXPM_TARGET_NORM = 0.5
_EXPM_TERM_CAP = 40
_EXPM_REL_TOL = 1e-18


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
    """Matrix exponential by scaled Taylor series plus repeated squaring.

    Scales x by 2^-s so the Frobenius norm is at most 0.5, sums the series
    until the next term is negligible against the partial sum (hard cap 40
    terms, unreachable after scaling), then squares s times.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expm requires a square matrix, got {x.shape}")
    norm = frobenius_norm(x)
    s = max(0, math.ceil(math.log2(norm / _EXPM_TARGET_NORM))) if norm > 0 else 0
    a = x / (2.0 ** s)
    n = x.shape[0]
    result = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, _EXPM_TERM_CAP + 1):
        term = term @ a / k
        result = result + term
        if frobenius_norm(term) <= _EXPM_REL_TOL * frobenius_norm(result):
            break
    for _ in range(s):
        result = result @ result
    return result


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
    cols = []
    for k, rho in enumerate(rhos, start=1):  # k = j - 1 entries, from gauss[k(k-1):]
        re = gauss[k * (k - 1): k * k]
        im = gauss[k * k: k * (k + 1)]
        g = re + 1j * im
        norm = np.linalg.norm(g)
        direction = g / norm if norm > 0 else np.eye(k, dtype=np.complex128)[0]
        cols.append(rho * direction)
    return CcskParams(thetas, tuple(cols))


def random_unitary(n: int, rng: RngState) -> np.ndarray:
    """compose(random_params(n, rng)); covers U(n) but is not Haar-distributed."""
    return compose(random_params(n, rng))
