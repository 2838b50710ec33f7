import math

import numpy as np
import pytest

from ccsk.linalg import (anti_hermiticity_defect, as_cmatrix, as_cvector,
                         frobenius_norm, unitarity_defect)

from conftest import random_complex_matrix


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_cmatrix([[1.0, float("nan")], [0.0, 1.0]])

    def test_rejects_inf_vector(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_cvector([1.0, complex(0, float("inf"))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_cvector([])


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_identity(self):
        assert frobenius_norm(np.eye(7, dtype=complex)) == pytest.approx(math.sqrt(7))

    def test_hand_sum(self):
        m = np.array([[3, 4j], [0, 0]], dtype=complex)
        assert frobenius_norm(m) == pytest.approx(5.0)

    def test_submultiplicative(self, rng):
        for _ in range(20):
            a = random_complex_matrix(rng, 4, 4)
            b = random_complex_matrix(rng, 4, 4)
            assert (frobenius_norm(a @ b)
                    <= frobenius_norm(a) * frobenius_norm(b) * (1 + 1e-14))


class TestDefects:
    def test_identity_unitary(self):
        assert unitarity_defect(np.eye(5, dtype=complex)) == 0.0

    def test_diagonal_phases_unitary(self):
        u = np.diag(np.exp(1j * np.array([0.7, -1.1])))
        assert unitarity_defect(u) <= 1e-15

    def test_scaled_identity_defect(self):
        # (2I)†(2I) - I = 3I, norm 3*sqrt(2)
        assert unitarity_defect(2 * np.eye(2, dtype=complex)) == pytest.approx(3 * math.sqrt(2))

    def test_unitarity_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            unitarity_defect(np.zeros((2, 3), dtype=complex))

    def test_anti_hermitian_scalar(self):
        assert anti_hermiticity_defect(np.array([[0.9j]])) == 0.0

    def test_identity_anti_hermiticity_defect(self):
        # ||I† + I||_F = ||2 I_2||_F = 2 sqrt(2)
        assert anti_hermiticity_defect(np.eye(2, dtype=complex)) == pytest.approx(2 * math.sqrt(2))

    def test_product_of_unitaries_stays_unitary(self, rng):
        from ccsk.oracle import random_unitary
        u = random_unitary(8, rng)
        v = random_unitary(8, rng)
        assert unitarity_defect(u) <= 1e-14
        assert unitarity_defect(v) <= 1e-14
        assert unitarity_defect(u @ v) <= 1e-13
