"""Two special forms: the n=2 Euler-angle factorisation and the projector
form of the factor's leading block.

For n=2 the product of the diagonal phases with the single column factor
splits into phase * real rotation * phase. For any column vector, the leading
block I - (1 - cos rho)|zt><zt| equals P0 + cos(rho) P1 with P1 = |zt><zt|
and P0 its complement.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _vector_norm, as_cvector

__all__ = ["Euler2Factors", "ProjectorPair", "euler2_factorize", "projector_form"]


@dataclass(frozen=True)
class Euler2Factors:
    left_phase: np.ndarray
    rotation: np.ndarray
    right_phase: np.ndarray

    def product(self) -> np.ndarray:
        return self.left_phase @ self.rotation @ self.right_phase


@dataclass(frozen=True)
class ProjectorPair:
    p0: np.ndarray
    p1: np.ndarray
    rho: float

    def cosine_combination(self) -> np.ndarray:
        """p0 + cos(rho) p1; equals the leading block of the column factor."""
        return self.p0 + math.cos(self.rho) * self.p1


def euler2_factorize(theta1: float, theta2: float, z: complex) -> Euler2Factors:
    """phase * rotation * phase factorisation of the 2x2 product map.

    With alpha = arg(z) (zero for z = 0) and r = |z|:
      left  = diag(e^{i(theta1 + alpha/2)}, e^{i(theta2 - alpha/2)})
      mid   = [[cos r, sin r], [-sin r, cos r]]
      right = diag(e^{-i alpha/2}, e^{i alpha/2})
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
    return Euler2Factors(left, rotation, right)


def projector_form(z) -> ProjectorPair:
    """Orthogonal projectors onto the z direction and its complement. A z
    that is zero or whose norm overflows is refused (ValueError)."""
    z = as_cvector(z)
    rho = _vector_norm(z, "projector_form")
    if rho == 0.0:
        raise ValueError("projector_form requires a nonzero vector")
    zt = z / rho
    p1 = np.outer(zt, zt.conj())
    p0 = np.eye(z.shape[0], dtype=np.complex128) - p1
    return ProjectorPair(p0, p1, rho)
