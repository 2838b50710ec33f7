"""Inverse map: recover canonical parameters from an arbitrary unitary matrix.

The last row of the factor for column j is (-sin(rho) <ztilde|, cos(rho)), and
every earlier factor leaves row/column j untouched apart from the phase
e^{i theta_j}. So row j of the current leading block reads off theta_j, rho_j
and ztilde_j directly. F_j = P_j H_j (see ``blockexp``), with H_j = I - 2
w_j w_j^H and w_j = (-sinc(rho/2)/2 z_j, cos(rho/2), 0, ...), which
``_reflector`` writes from the z_j and rho_j just read. H_j is its own
adjoint, so the one factor kernel ``_apply_factor``, x <- x - 2 (x w_j)
w_j^H in place on the leading j columns, peels F_j away up to the sign
P_j, leaving -e^{i theta_j} on the pivot, and the recursion continues on
the leading (j-1) x (j-1) block. Row i reads no column past i, so no read
meets a sign P_j would flip.

rho_j is read as atan2(||off-diagonal row||, |pivot|) and ztilde_j as the row
over its own norm, so angles near 0 come back to full relative precision
(acos of the pivot would lose every angle below about sqrt(eps)). The floor
is row entries below 2.2e-308, which are subnormal and carry fewer bits;
where ||row||^2 underflows, the norm is rescaled by the largest entry.

Reading row j needs only row j itself to be up to date. So the peel walks
panels of _NB = 32 rows down from row n, each of rows lo + 1 ... j1 with lo
= j1 - _NB, or lo = 0 once j1 < 2 _NB: the last panel, the head, holds the
32 to 63 rows left (all n of them for n <= 63) and reads theta_1 too. Each
factor of a panel is applied at once to the panel's rows alone, and its w_j
is written into row j1 - j of the panel's array vt (left zero where no
factor is applied). The rows above the panel then take all its factors in
one block with ``_apply_block``: H_{j1} ... H_{lo+1} = I - V T V^H with V =
vt^T and T upper triangular, T^{-1} = I/2 + striu(V^H V) (the UT transform
of Joffrain, Low, Quintana-Orti, van de Geijn and Van Zee, ACM TOMS 32,
2006: the compact WY form for rank-1 factors), where a zero column of V is
an identity factor. The panels are the peel's alone: ``compose`` builds the
whole product with one LAPACK call.

The unitarity gate (defect at most ``unitarity_tol * n``) is the one
acceptance test, and it is decided after the peel, from what the peel leaves:
m = D' + R and u = m Q for the unitary product Q of the peeled reflectors,
with -e^{i theta_j} on D' where the kernel ran and e^{i theta_j} where it did
not: row 1, and rows zero off the diagonal (z_j = 0). So the defect of u is
at most 2 ||R||_F + ||R||_F^2 plus the peel's rounding. ||R||_F costs one
pass over m - D'. The input is accepted on that bound when it is at most
half the gate, the other half being the allowance for rounding. Otherwise
the exact defect ||u^H u - I||_F is computed, and it decides, as ``ccsk
verify`` does at the same tolerance.

No check of the peel's residues follows, because the gate implies it: m^H m =
Q u^H u Q^H = I + E with ||E||_F = defect(u), and m is upper triangular up to
rounding, so m is the Cholesky-type factor of I + E and, to first order,
||R||_F = ||m - D'||_F <= defect / sqrt(2) plus rounding (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 10). Every residue a peeled row and
column keeps is at most ||R||_F.

Only the input is checked. The result is built with
``CcskParams._unchecked`` from the arrays the peel filled, whose shapes and
finiteness follow from the checked input.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .blockexp import _sinc, compose
from .linalg import _rescaled_norm, frobenius_norm, square_matrix, unitarity_defect
from .params import CcskParams, z_offset

__all__ = [
    "decompose",
    "roundtrip_error",
]

# At or below this |pivot| the pivot's phase is noise: the convention
# theta_j := 0 fires (see ``decompose``). Discarding the phase leaves a
# residue of up to 2 |pivot| in row j, so the tolerance is at the rounding
# level: 8 eps, above the largest |pivot| read at a column with rho_j = pi/2
# exactly (3.7 eps, 900 draws at n <= 200). A larger pivot, however small, is
# the input's: under columns near pi/2 the chart's conditioning turns such a
# column's pivot into one of 1e-13, whose phase the roundtrip needs.
ZERO_PIVOT_TOL = 8 * 2.0 ** -52

# The rounding that the peel adds to the bound 2 ||R||_F + ||R||_F^2 on the
# defect, as a multiple of n^{3/2}: at n = 8 ... 1024 the bound fell below
# the exact defect by at most 0.10 eps n^{3/2}, at n = 8 on near-identity
# inputs, and by 0.0045 eps n^{3/2} from n = 64 on. The bound decides alone
# only where half the gate covers this allowance, 10 times the worst seen.
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
    ``unitarity_tol * n``, or ValueError("input is not unitary: ...", naming
    the defect, or the norm that overflowed, and the bound), and
    unitarity_tol must be in (0, 1), or ValueError.
    What that admits, the peel inverts: it leaves m = D' + R with ||R||_F <=
    defect / sqrt(2) to first order, plus rounding (see the module
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
        raise _not_unitary(
            "the Frobenius norm of u overflows, so the defect ||u^H u - I||_F = inf", gate)

    m = u.copy()
    thetas = np.zeros(n)
    z_all = np.zeros(z_offset(n + 1), dtype=np.complex128)
    phases = []  # the diagonal of D', +-e^{i theta_j}, for j = n, n-1, ..., 1
    j1 = n
    while j1:
        # The panel is rows lo..j1-1, down to row 1 for the head. Each peel
        # updates the panel rows at once, so the next row is read in full;
        # the rows above take the panel's factors, vt, as one block.
        lo = j1 - _NB if j1 >= 2 * _NB else 0
        vt = np.zeros((j1 - lo, j1), dtype=np.complex128)
        for j in range(j1, lo, -1):
            pivot = m.item(j - 1, j - 1)
            row = m[j - 1, : j - 1]
            c = abs(pivot)
            s = math.sqrt(np.vdot(row, row).real)  # frobenius_norm(row), inline
            if not s and j > 1 and row.any():
                # ||row||^2 underflowed (rho_j below about 1.5e-162): scale it.
                s = _rescaled_norm(row)
            rho = math.atan2(s, c)
            theta = cmath.phase(pivot) if c > ZERO_PIVOT_TOL else 0.0
            phase = cmath.exp(1j * theta)
            # cmath.phase is in [-pi, pi], and -pi (e.g. a negative real part
            # with a -0.0 imaginary part) is the one angle to wrap, so that
            # output is always canonical.
            thetas[j - 1] = theta if theta > -math.pi else math.pi
            if s:
                z = z_all[z_offset(j):z_offset(j + 1)]
                np.multiply(row.conj(), -phase * rho / s, out=z)
                _apply_factor(m[lo:j, :j], _reflector(z, rho, vt[j1 - j, :j]))
                phase = -phase  # the pivot H_j leaves
            phases.append(phase)
        if lo:
            _apply_block(m[:lo, :j1], vt)
        j1 = lo

    # Now m = D' + R, and u = m Q for the unitary product Q of the peeled
    # reflectors. So u^H u - I = Q^H (D'^H R + R^H D' + R^H R) Q, and
    # defect(u) <= 2 ||R||_F + ||R||_F^2 plus the rounding of the peel. m
    # becomes R in place.
    m.ravel()[:: n + 1] -= phases[::-1]
    r = frobenius_norm(m)
    half = 0.5 * gate
    if not (2.0 * r + r * r <= half and _ROUNDING * n * math.sqrt(n) <= half):
        defect = unitarity_defect(u)
        if not defect <= gate:
            raise _not_unitary(f"the defect ||u^H u - I||_F = {defect:.3e}", gate)
    # Both arrays have the shapes allocated above and finite entries: m
    # starts finite and the peel multiplies it by unitary factors, each theta
    # is a phase, and each z entry is at most rho_j <= pi/2 in modulus, as
    # no entry of a row exceeds its norm s. So the result is not re-checked.
    return CcskParams._unchecked(thetas, z_all)


# The panel height: panels of _NB rows are peeled down from row n, and the
# head takes the _NB to 2 _NB - 1 rows left (all of them for n < 2 _NB).
_NB = 32


def _reflector(z: np.ndarray, rho: float, w: np.ndarray) -> np.ndarray:
    """Write w_j, from z = z_j and the rho = ||z|| the peel read, into w (the
    leading j entries of its row of vt) and return it."""
    # _sinc covers rho = 0 with z != 0, where atan2(s, |pivot|) underflows.
    np.multiply(z, -0.5 * _sinc(0.5 * rho), out=w[:-1])
    w[-1] = math.cos(0.5 * rho)
    return w


def _apply_factor(x: np.ndarray, w: np.ndarray) -> None:
    """x <- x @ H_j = x - 2 (x w) w^H, in place: the one factor kernel. x holds
    the rows to update, cut to the leading j columns, and w is w_j."""
    y = x @ w
    y += y
    x -= y[:, None] * w.conj()


def _apply_block(m: np.ndarray, vt: np.ndarray) -> None:
    """m <- m @ H_{j1} ... H_{lo+1} = m - (m V) T V^H, in place: the block
    update. m has j1 columns, and row i of vt (k x j1, k = j1 - lo) is the
    w_j of j = j1 - i, zero-padded. 2 r j1 k + r k^2 complex multiply-adds
    for r rows."""
    vh = vt.conj()
    g = np.triu(vh @ vt.T, 1)
    g.ravel()[:: g.shape[0] + 1] = 0.5
    m -= (m @ vt.T) @ np.linalg.inv(g) @ vh


def _not_unitary(test: str, gate: float) -> ValueError:
    """The gate's refusal, naming the test that decided it and both numbers."""
    return ValueError(f"input is not unitary: {test} exceeds unitarity_tol * n = {gate:.3e}")


def roundtrip_error(u: np.ndarray, *, unitarity_tol: float = UNITARITY_TOL) -> float:
    """||compose(decompose(u)) - u||_F."""
    return frobenius_norm(compose(decompose(u, unitarity_tol=unitarity_tol))
                          - np.asarray(u, dtype=np.complex128))
