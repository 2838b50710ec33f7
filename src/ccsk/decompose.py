"""Inverse map: recover canonical parameters from an arbitrary unitary matrix.

The last row of the factor for column j is (-sin(rho) <ztilde|, cos(rho)), and
every earlier factor leaves row/column j untouched apart from the phase
e^{i theta_j}. So row j of the current leading block reads off theta_j, rho_j
and ztilde_j directly; multiplying by the factor's adjoint (in place, with
``apply_factor``) peels it away and the recursion continues on the leading
(j-1) x (j-1) block.

rho_j is read as atan2(||off-diagonal row||, |pivot|) and ztilde_j as the row
over its own norm, so angles near 0 come back to full relative precision
(acos of the pivot would lose every angle below about sqrt(eps)).

Reading row j needs only row j itself to be up to date. So while at least
blockexp._NX_PEEL rows remain above it, the peel works in a panel of
blockexp._NB rows: each factor is applied at once to the panel rows alone,
and the rows above the panel take all the panel's factors in one aggregated
block, the adjoint of I + W T W^H (the compact WY form, see ``blockexp``),
as matrix-matrix products. Otherwise the panel is the whole remaining block.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .blockexp import _NB, _NX_PEEL, _apply_factors, apply_factor, compose
from .linalg import frobenius_norm, unitarity_defect
from .params import CcskParams

__all__ = [
    "DecomposeOptions",
    "PeelConsistencyError",
    "decompose",
    "roundtrip_error",
    "normalize_thetas",
]


# The residue a peeled row and column may keep, as a multiple of the defect
# gate unitarity_tol * n. Both scale with n, so every input that passes the
# gate also passes the peel (one row off by a factor 1 + e has defect 2e and
# residue e).
_PEEL_RESIDUE_FACTOR = 10.0


@dataclass(frozen=True)
class DecomposeOptions:
    unitarity_tol: float = 1e-10
    zero_tol: float = 1e-12

    def __post_init__(self):
        for name in ("unitarity_tol", "zero_tol"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")


class PeelConsistencyError(RuntimeError):
    """A peeled factor left residue in its row/column: the input was not
    numerically unitary even though it passed the defect gate."""

    def __init__(self, j: int, residue: float):
        self.j = j
        self.residue = residue
        super().__init__(
            f"peel at column j={j} left residue {residue:.3e}; "
            "input is not numerically unitary")


def decompose(u: np.ndarray, opts: DecomposeOptions | None = None) -> CcskParams:
    """Canonical parameters p with compose(p) == u (up to roundoff).

    Output ranges: theta in (-pi, pi], ||z_j|| in [0, pi/2]. When a pivot
    magnitude vanishes the phase convention theta_j := 0 applies; when the
    off-diagonal part of row j is exactly zero, so is z_j. An input with a
    nan or inf entry is refused (ValueError) before any arithmetic.
    """
    if opts is None:
        opts = DecomposeOptions()
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"decompose requires a square matrix, got {u.shape}")
    # A nan or inf entry makes the norm nan or inf; the norm costs one BLAS
    # call, less than isfinite on small matrices.
    if not math.isfinite(frobenius_norm(u)) and not np.isfinite(u).all():
        raise ValueError("decompose requires finite entries; u contains nan or inf")
    n = u.shape[0]
    gate = opts.unitarity_tol * n
    defect = unitarity_defect(u)
    if not defect <= gate:
        raise ValueError(
            f"input is not unitary: defect {defect:.3e} exceeds {gate:.3e}")

    m = u.copy()
    thetas = np.zeros(n)
    cols: list[np.ndarray] = []  # z_n, z_{n-1}, ..., z_2
    top = n  # rows and columns from index top on are peeled
    while top > 1:
        # The panel is rows lo..top-1. Each peel updates the panel rows at
        # once, so the next row is read in full; the rows above the panel
        # take the panel's factors together, as one aggregated block.
        lo = top - _NB if top - _NB >= _NX_PEEL else 0
        panel = range(top, max(lo, 1), -1)
        phases = []
        for j in panel:
            pivot = m[j - 1, j - 1]
            row = m[j - 1, : j - 1]
            c = abs(pivot)
            s = frobenius_norm(row)
            rho = math.atan2(s, c)
            theta = cmath.phase(pivot) if c > opts.zero_tol else 0.0
            phase = cmath.exp(1j * theta)
            z = row.conj() * (-phase * rho / s) if s else np.zeros(j - 1, dtype=np.complex128)
            # cmath.phase can return exactly -pi (e.g. a -0.0 imaginary part);
            # wrap onto the half-open interval so output is always canonical.
            thetas[j - 1] = _wrap_theta(theta)
            cols.append(z)
            phases.append(phase)
            apply_factor(m[lo:j], z, j, inverse=True)
        if lo:
            _apply_factors(m[:lo, :top], cols[-len(panel):][::-1], inverse=True)
        # The peeled row/column must now be e^{i theta} * e_j. Later peels
        # touch neither, so each column is checked once the block is applied.
        for j, phase in zip(panel, phases):
            off = max(frobenius_norm(m[j - 1, : j - 1]), frobenius_norm(m[: j - 1, j - 1]))
            residue = math.hypot(off, abs(m[j - 1, j - 1] - phase))
            if not residue <= _PEEL_RESIDUE_FACTOR * gate:
                raise PeelConsistencyError(j, residue)
        top = lo
    thetas[0] = _wrap_theta(cmath.phase(m[0, 0]))
    return CcskParams(thetas, tuple(reversed(cols)))


def roundtrip_error(u: np.ndarray, opts: DecomposeOptions | None = None) -> float:
    """||compose(decompose(u)) - u||_F."""
    return frobenius_norm(compose(decompose(u, opts)) - np.asarray(u, dtype=np.complex128))


def _wrap_theta(t: float) -> float:
    w = math.remainder(t, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


def normalize_thetas(p: CcskParams) -> CcskParams:
    """Wrap every theta into (-pi, pi]; z columns unchanged."""
    return CcskParams(np.array([_wrap_theta(t) for t in p.thetas]), p.z_columns)
