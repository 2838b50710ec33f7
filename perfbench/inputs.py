"""Seeded inputs for the library workloads.

Inputs come from numpy's ``Generator``, never from ccsk's own splitmix64, so
random-number work stays out of the timed library calls. Op ``k`` of a run
draws from its own stream ``default_rng([seed, k])``: the inputs of an op do
not depend on how many ops ran before it or how fast they ran.

Classes (the share of each is recorded per run):

- ``interior``: every rho_j uniform in [0, pi/2];
- ``edge_log``: one column with rho log-uniform in [1e-16, pi/2]. This range
  holds the window rho in (1e-9, 1.5e-8] where the inverse map is known to
  fail, and must keep holding it;
- ``edge_zero`` / ``edge_halfpi``: one column with rho exactly 0 / pi/2;
- ``foreign``: a Haar unitary from the phase-fixed QR of a complex Gaussian,
  decomposed without a known parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CLASSES = ("interior", "edge_log", "edge_zero", "edge_halfpi", "foreign")

FOREIGN_SHARE = 0.15
EDGE_SHARE = 0.25
# Within the edge share: half log-uniform, a quarter each at the two ends.
EDGE_LOG_SHARE = 0.5
EDGE_ZERO_SHARE = 0.25

RHO_LOG_MIN = 1e-16
RHO_MAX = math.pi / 2


@dataclass(frozen=True)
class OpInput:
    """One op's input: raw parameter arrays, or a foreign unitary."""

    n: int
    cls: str
    thetas: np.ndarray | None = None
    cols: tuple | None = None
    unitary: np.ndarray | None = None
    edge_j: int | None = None
    edge_rho: float | None = None


def _direction(rng: np.random.Generator, m: int) -> np.ndarray:
    g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return g / np.linalg.norm(g)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Phase-fixed QR of a complex Gaussian: Haar-distributed on U(n)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _pick_class(rng: np.random.Generator) -> str:
    u = rng.random()
    if u < FOREIGN_SHARE:
        return "foreign"
    if u >= FOREIGN_SHARE + EDGE_SHARE:
        return "interior"
    v = rng.random()
    if v < EDGE_LOG_SHARE:
        return "edge_log"
    if v < EDGE_LOG_SHARE + EDGE_ZERO_SHARE:
        return "edge_zero"
    return "edge_halfpi"


def draw(seed: int, k: int, n: int) -> OpInput:
    """The input of op ``k`` at dimension ``n`` for run seed ``seed``."""
    rng = np.random.default_rng([seed, k])
    cls = _pick_class(rng)
    if cls == "foreign":
        return OpInput(n=n, cls=cls, unitary=haar_unitary(rng, n))
    thetas = rng.uniform(-math.pi, math.pi, n)
    cols = [rng.uniform(0.0, RHO_MAX) * _direction(rng, j - 1) for j in range(2, n + 1)]
    edge_j = edge_rho = None
    if cls != "interior":
        edge_j = int(rng.integers(2, n + 1))
        if cls == "edge_log":
            edge_rho = math.exp(rng.uniform(math.log(RHO_LOG_MIN), math.log(RHO_MAX)))
        else:
            edge_rho = 0.0 if cls == "edge_zero" else RHO_MAX
        cols[edge_j - 2] = edge_rho * _direction(rng, edge_j - 1)
    return OpInput(n=n, cls=cls, thetas=thetas, cols=tuple(cols),
                   edge_j=edge_j, edge_rho=edge_rho)
