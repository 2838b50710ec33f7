"""A fixed reference kernel that tells how fast the host runs at a moment.

The benchmark runs on a few cores of a shared host. When neighbours load the
host, the CPU a run gets slows by up to 1.5x, for seconds to tens of minutes.
The interpreter, BLAS and page faults all slow, each by its own factor. Thread
time slows with wall time, so it is not CPU steal. Raw call times then measure the neighbours as much as
ccsk: runs of the same code spread by 10-55% from seed to seed.

So every timed call is scaled to a fixed host speed. The benchmark runs a
reference kernel, numpy and pure-Python work that does not touch ccsk, at
least every ``EVERY_S`` seconds between calls. A call that took ``t`` seconds
counts as ``t * REF_S / r``, where ``r`` is the median reference time within
``WINDOW_S`` seconds of the call's middle. ``REF_S`` is the kernel's time on a
lightly loaded 2-vCPU Xeon VM, so the figures are seconds of that host. A
change to ccsk moves the call times and not the reference, and shows in full.
"""

from __future__ import annotations

import bisect
import statistics

import numpy as np

from spans import perf_counter

# The kernel's time on the host the benchmark was written on, lightly loaded.
REF_S = 10.2e-3
# Seconds between reference samples, at least; and how far from a call the
# samples that scale it may lie. Slow phases last seconds or more.
EVERY_S = 0.2
WINDOW_S = 3.0

_A = (np.random.default_rng(0).standard_normal((128, 128)) + 1j) / 128
_B = (np.random.default_rng(1).standard_normal((256, 256)) + 1j) / 256
_C = (np.random.default_rng(2).standard_normal((8, 8)) + 1j) / 8
_M = (np.random.default_rng(3).standard_normal((256, 256)) + 1j) / 256
_F = (np.random.default_rng(4).standard_normal((200, 200)) + 1j) / 200
_BIG = np.ones(1 << 20, complex)  # 16 MiB, more than the last-level cache


def kernel() -> None:
    """ccsk's mix of work, on fixed data.

    An interpreter loop; complex products that fit in cache and one that does
    not; fresh 1 MiB arrays, whose page faults cost more on a loaded host;
    many tiny numpy calls, as in ccsk at small n; products on the leading
    blocks of a 256x256 matrix, as in decompose's peel; and a copy of an
    array larger than the cache, whose speed is the memory bandwidth that
    neighbours share.
    """
    s = 0
    for i in range(20000):
        s += i * i
    b = _A
    for _ in range(6):
        b = b @ _A
    for _ in range(2):
        np.ones((256, 256), complex)
    _B @ _B
    for _ in range(100):
        x = np.eye(8, dtype=complex)
        x[1:, 0] = _C[1:, 1]
        float(np.linalg.norm(_C @ x))
    m = _M.copy()
    for j in (200, 150, 100):
        m[:j, :j] = m[:j, :j] @ _F[:j, :j].conj().T
    _BIG.copy()


class Reference:
    """Reference samples of one run, and the scale they give each call."""

    def __init__(self):
        self.at: list[float] = []  # middle of each sample, perf_counter seconds
        self.took: list[float] = []  # seconds each sample took
        self._last = -float("inf")

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self._last = t1

    def maybe(self) -> None:
        """A sample, unless one was taken in the last ``EVERY_S`` seconds."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scaled(self, t0: float, dt: float) -> float:
        """A call that started at ``t0`` and took ``dt``, at the fixed host speed."""
        mid = t0 + dt / 2
        lo = bisect.bisect_left(self.at, mid - WINDOW_S)
        hi = bisect.bisect_right(self.at, mid + WINDOW_S)
        if lo == hi:  # no sample that near: the nearest one
            i = min(bisect.bisect_left(self.at, mid), len(self.at) - 1)
            if i > 0 and mid - self.at[i - 1] < self.at[i] - mid:
                i -= 1
            lo, hi = i, i + 1
        return dt * REF_S / statistics.median(self.took[lo:hi])


REF = Reference()
