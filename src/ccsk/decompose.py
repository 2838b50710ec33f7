"""Inverse map: recover canonical parameters from an arbitrary unitary matrix.

The last row of the factor for column j is (-sin(rho) <ztilde|, cos(rho)), and
every earlier factor leaves row/column j untouched apart from the phase
e^{i theta_j}. So row j of the current leading block reads off theta_j, rho_j
and ztilde_j directly; multiplying by the factor's adjoint (in place, with
the factor kernel ``blockexp._apply_factor``, given the rho and the row just
read) peels it away and the recursion continues on the leading
(j-1) x (j-1) block.

rho_j is read as atan2(||off-diagonal row||, |pivot|) and ztilde_j as the row
over its own norm, so angles near 0 come back to full relative precision
(acos of the pivot would lose every angle below about sqrt(eps)).

Reading row j needs only row j itself to be up to date. So the peel walks
the runs of ``blockexp._runs`` (head 2 * _NB) from the last, each as a
panel: each factor of the run is applied at once to the panel's rows alone,
and the rows above the panel take all its factors in one aggregated block,
the adjoint of I + W T W^H (the compact WY form, see ``blockexp``), as
matrix-matrix products. The head's panel is the whole remaining block.

The unitarity gate (defect at most ``unitarity_tol * n``) is the one
acceptance test, and it is decided after the peel, from what the peel leaves:
m = D + R with D = diag(e^{i theta_j}) and u = m Q for the unitary product Q
of the peeled factors, so the defect of u is at most 2 ||R||_F + ||R||_F^2
plus the peel's rounding. ||R||_F costs one pass over m - D. The input is
accepted on that bound when it is at most half the gate, the other half being
the allowance for rounding. Otherwise the exact defect ||u^H u - I||_F is
computed, and it decides, as ``ccsk verify`` does at the same tolerance.

No check of the peel's residues follows, because the gate implies it: m^H m =
Q u^H u Q^H = I + E with ||E||_F = defect(u), and m is upper triangular up to
rounding, so m is the Cholesky-type factor of I + E and, to first order,
||R||_F = ||m - D||_F <= defect / sqrt(2) plus rounding (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 10). Every residue a peeled row and
column keeps is at most ||R||_F.

Only the input is checked. The panel plan ``_panels(n)`` is built once per n,
and the result is built with ``CcskParams._unchecked`` from the arrays the
peel filled, whose shapes and finiteness follow from the checked input.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .blockexp import _NB, _apply_factor, _apply_factors, _runs, compose
from .linalg import _unitarity_defect, frobenius_norm, square_matrix
from .params import CcskParams, z_offset

__all__ = [
    "decompose",
    "roundtrip_error",
]

# At or below this |pivot| the pivot's phase is noise: the convention
# theta_j := 0 fires (see ``decompose``).
ZERO_PIVOT_TOL = 1e-12

# The rounding that the peel adds to the bound 2 ||R||_F + ||R||_F^2 on the
# defect, as a multiple of n^{3/2}: the bound fell below the exact defect by
# at most 0.07 eps n^{3/2} at n = 8 ... 1024. The bound decides alone only
# where half the gate covers this allowance, 14 times the worst seen.
_ROUNDING = 2.0 ** -52  # eps of float64

# Default per-dimension unitarity gate: decompose accepts a defect
# ||u^H u - I||_F up to UNITARITY_TOL * n. Also the default --tol of the CLI.
UNITARITY_TOL = 1e-10


def decompose(u: np.ndarray, *, unitarity_tol: float = UNITARITY_TOL) -> CcskParams:
    """Canonical parameters p with compose(p) == u (up to roundoff).

    Output ranges: theta in (-pi, pi], ||z_j|| in [0, pi/2]. When a pivot
    magnitude vanishes the phase convention theta_j := 0 applies; when the
    off-diagonal part of row j is exactly zero, so is z_j. An input with a
    nan or inf entry is refused (ValueError) before any arithmetic, and so
    is one whose Frobenius norm overflows, as not unitary.

    There is one acceptance test: the defect ||u^H u - I||_F must be at most
    ``unitarity_tol * n``, or ValueError("input is not unitary: ..."), and
    unitarity_tol must be in (0, 1), or ValueError.
    What that admits, the peel inverts: the residue R it leaves has ||R||_F
    <= defect / sqrt(2) to first order, plus rounding (see the module
    docstring), so no residue is checked on its own.
    """
    if not 0.0 < unitarity_tol < 1.0:
        raise ValueError(f"unitarity_tol must be in (0, 1), got {unitarity_tol}")
    u, norm = square_matrix(u, "decompose")
    n = u.shape[0]
    gate = unitarity_tol * n
    if not math.isfinite(norm):
        # Finite entries whose squares sum past the float range. So does the
        # trace of u^H u, which that sum is: the defect overflows, and
        # forming u^H u would only add an overflow warning.
        raise _not_unitary(math.inf, gate)

    m = u.copy()
    thetas = np.zeros(n)
    z_all = np.zeros(z_offset(n + 1), dtype=np.complex128)
    phases = []  # e^{i theta_j} for j = n, n-1, ..., 1
    end = z_all.shape[0]  # z_j is z_all[end - (j - 1):end], walked down from j = n
    for lo, j0, j1 in _panels(n):
        # The panel is rows lo..j1-1. Each peel updates the panel rows at
        # once, so the next row is read in full; the rows above the panel
        # take the run's factors together, as one aggregated block.
        top = end
        for j in range(j1, j0 - 1, -1):
            start = end - (j - 1)
            pivot = m.item(j - 1, j - 1)
            row = m[j - 1, : j - 1]
            c = abs(pivot)
            s = math.sqrt(np.vdot(row, row).real)  # frobenius_norm(row), inline
            rho = math.atan2(s, c)
            theta = cmath.phase(pivot) if c > ZERO_PIVOT_TOL else 0.0
            phase = cmath.exp(1j * theta)
            # _wrap_theta(theta), inline: cmath.phase is in [-pi, pi], and -pi
            # (e.g. a negative real part with a -0.0 imaginary part) is the
            # one angle to wrap, so that output is always canonical.
            thetas[j - 1] = theta if theta > -math.pi else math.pi
            phases.append(phase)
            if s:
                # z_j = kappa conj(row), so conj(z_j) = conj(kappa) row: the
                # kernel takes the row itself and the rho just read.
                kappa = -phase * rho / s
                z = z_all[start:end]
                np.multiply(row.conj(), kappa, out=z)
                _apply_factor(m[lo:j, :j], z, row, kappa.conjugate(), rho, True)
            end = start
        if lo:
            _apply_factors(m[:lo, :j1], z_all[end:top], j0)
    theta = cmath.phase(m[0, 0])
    thetas[0] = _wrap_theta(theta)
    phases.append(cmath.exp(1j * theta))

    # Now m = D + R with D = diag(e^{i theta_j}), and u = m Q for the unitary
    # product Q of the peeled factors. So u^H u - I = Q^H (D^H R + R^H D +
    # R^H R) Q, and defect(u) <= 2 ||R||_F + ||R||_F^2 plus the rounding of
    # the peel. m becomes R in place.
    m.ravel()[:: n + 1] -= phases[::-1]
    r = frobenius_norm(m)
    half = 0.5 * gate
    if not (2.0 * r + r * r <= half and _ROUNDING * n * math.sqrt(n) <= half):
        defect = _unitarity_defect(u)
        if not defect <= gate:
            raise _not_unitary(defect, gate)
    # Both arrays have the shapes allocated above and finite entries: m
    # starts finite and the peel multiplies it by unitary factors, each theta
    # is a phase, and each z entry is at most rho_j <= pi/2 in modulus, as
    # no entry of a row exceeds its norm s. So the result is not re-checked.
    return CcskParams._unchecked(thetas, z_all)


@functools.lru_cache(maxsize=64)
def _panels(n: int) -> tuple[tuple[int, int, int], ...]:
    """The peel plan for dimension n, built once: the runs (j0, j1) of
    ``_runs(n, 2 * _NB)`` from the last, each with the first row lo of its
    panel (0 for the head, whose panel is the whole remaining block)."""
    return tuple((j0 - 1 if j0 > 2 else 0, j0, j1) for j0, j1 in reversed(_runs(n, 2 * _NB)))


def _not_unitary(defect: float, gate: float) -> ValueError:
    return ValueError(f"input is not unitary: defect {defect:.3e} exceeds {gate:.3e}")


def roundtrip_error(u: np.ndarray, *, unitarity_tol: float = UNITARITY_TOL) -> float:
    """||compose(decompose(u)) - u||_F."""
    return frobenius_norm(compose(decompose(u, unitarity_tol=unitarity_tol))
                          - np.asarray(u, dtype=np.complex128))


def _wrap_theta(t: float) -> float:
    w = math.remainder(t, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w

