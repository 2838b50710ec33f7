"""Unitary matrices via canonical coordinates of the second kind.

Compose U(n) elements from phase/column parameters through closed-form block
exponentials, and decompose arbitrary unitaries back into canonical
parameters, with an independent matrix-exponential oracle for verification.
"""

from .blockexp import (Euler2Factors, ProjectorPair, compose, euler2_factorize,
                       exp_column_factor, exp_k, k_matrix, projector_form)
from .decompose import decompose, roundtrip_error
from .linalg import frobenius_norm, unitarity_defect
from .oracle import RngState, expm, random_params
from .params import CcskParams, assemble_generator

__all__ = [
    "CcskParams",
    "Euler2Factors",
    "ProjectorPair",
    "RngState",
    "assemble_generator",
    "compose",
    "decompose",
    "euler2_factorize",
    "exp_column_factor",
    "exp_k",
    "expm",
    "frobenius_norm",
    "k_matrix",
    "projector_form",
    "random_params",
    "roundtrip_error",
    "unitarity_defect",
]

__version__ = "0.1.0"
