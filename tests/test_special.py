import cmath
import math

import numpy as np
import pytest

from ccsk.blockexp import compose, exp_diagonal, exp_k
from ccsk.linalg import frobenius_norm, unitarity_defect
from ccsk.params import CcskParams
from ccsk.special import euler2_factorize, projector_form

from conftest import OVERFLOWING_Z, complex_gaussian_vector, rejects_non_finite


def compose2(theta1, theta2, z):
    return compose(CcskParams(np.array([theta1, theta2]), (np.array([z]),)))


def three_lines(theta1, theta2, z):
    """The three equivalent displayed forms of the 2x2 product map."""
    alpha = cmath.phase(z) if z != 0 else 0.0
    r = abs(z)
    rot_alpha = np.array([
        [math.cos(r), cmath.exp(1j * alpha) * math.sin(r)],
        [-cmath.exp(-1j * alpha) * math.sin(r), math.cos(r)],
    ])
    line1 = exp_diagonal([theta1, theta2]) @ rot_alpha
    rot = np.array([[math.cos(r), math.sin(r)],
                    [-math.sin(r), math.cos(r)]], dtype=complex)
    half = np.diag([cmath.exp(1j * alpha / 2), cmath.exp(-1j * alpha / 2)])
    line2 = (exp_diagonal([theta1, theta2]) @ half @ rot @ half.conj().T)
    line3 = euler2_factorize(theta1, theta2, z).product()
    return line1, line2, line3


class TestEuler2Factorize:
    def test_zero_z_is_pure_phase(self):
        f = euler2_factorize(0.2, -0.5, 0)
        np.testing.assert_array_equal(f.rotation, np.eye(2))
        assert frobenius_norm(f.product() - exp_diagonal([0.2, -0.5])) <= 1e-15

    def test_imaginary_z(self):
        z = 1j * (math.pi / 4)
        f = euler2_factorize(0.0, 0.0, z)
        want = compose2(0.0, 0.0, z)
        s = math.sin(math.pi / 4)
        np.testing.assert_allclose(want[0, 1], 1j * s, atol=1e-15)
        assert frobenius_norm(f.product() - want) <= 1e-15

    def test_factors_unitary(self, rng):
        z = complex(rng.gaussian(), rng.gaussian())
        f = euler2_factorize(rng.uniform(), rng.uniform(), z)
        for m in (f.left_phase, f.rotation, f.right_phase):
            assert unitarity_defect(m) <= 1e-14

    def test_product_matches_compose_sweep(self, rng):
        for _ in range(50):
            t1 = math.pi * (1 - 2 * rng.uniform())
            t2 = math.pi * (1 - 2 * rng.uniform())
            z = complex(rng.gaussian(), rng.gaussian())
            got = euler2_factorize(t1, t2, z).product()
            assert frobenius_norm(got - compose2(t1, t2, z)) <= 1e-14

    def test_three_displayed_lines_agree(self, rng):
        for _ in range(50):
            t1 = math.pi * (1 - 2 * rng.uniform())
            t2 = math.pi * (1 - 2 * rng.uniform())
            z = complex(rng.gaussian(), rng.gaussian())
            l1, l2, l3 = three_lines(t1, t2, z)
            direct = compose2(t1, t2, z)
            for line in (l1, l2, l3):
                assert frobenius_norm(line - direct) <= 1e-14

    # A nan theta gave a nan row, an inf z a bare "math domain error" and a
    # z whose modulus overflows an OverflowError.
    REFUSAL = r"^euler2_factorize requires finite theta1, theta2 and \|z\|, got "

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_theta1(self, value):
        with rejects_non_finite(self.REFUSAL):
            euler2_factorize(value, 0.5, 0.3j)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_theta2(self, value):
        with rejects_non_finite(self.REFUSAL):
            euler2_factorize(0.5, value, 0.3j)

    @pytest.mark.parametrize("value", [complex(math.inf, 0), complex(0, -math.inf),
                                       complex(math.nan, 0), complex(1, math.nan),
                                       complex(1.7e308, 1.7e308)])
    def test_refuses_a_non_finite_z(self, value):
        with rejects_non_finite(self.REFUSAL):
            euler2_factorize(0.5, -0.5, value)


class TestProjectorForm:
    def test_one_dimensional(self):
        pp = projector_form(np.array([1.0 + 0j]))
        np.testing.assert_allclose(pp.p1, [[1.0]], atol=1e-16)
        np.testing.assert_allclose(pp.p0, [[0.0]], atol=1e-16)
        np.testing.assert_allclose(pp.cosine_combination(), [[math.cos(1.0)]],
                                   atol=1e-15)

    def test_completeness_fixed(self):
        z = 0.7 * np.array([1.0, 1j]) / math.sqrt(2)
        pp = projector_form(z)
        assert frobenius_norm(pp.p0 + pp.p1 - np.eye(2)) <= 1e-15
        assert pp.rho == pytest.approx(0.7)

    def test_projector_algebra(self, rng):
        z = complex_gaussian_vector(rng, 4)
        pp = projector_form(z)
        assert frobenius_norm(pp.p0 @ pp.p0 - pp.p0) <= 1e-13
        assert frobenius_norm(pp.p1 @ pp.p1 - pp.p1) <= 1e-13
        assert frobenius_norm(pp.p0 @ pp.p1) <= 1e-13
        assert frobenius_norm(pp.p0 + pp.p1 - np.eye(4)) <= 1e-13

    def test_matches_exp_k_leading_block(self, rng):
        z = complex_gaussian_vector(rng, 4)
        pp = projector_form(z)
        rho = pp.rho
        direct = np.eye(4) - (1 - math.cos(rho)) * pp.p1
        assert frobenius_norm(pp.cosine_combination() - direct) <= 1e-14
        assert frobenius_norm(pp.cosine_combination() - exp_k(z)[:4, :4]) <= 1e-13

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            projector_form(np.zeros(3, dtype=complex))

    # The unscaled norm used to overflow with a warning and give rho = inf,
    # p1 = 0 and p0 = I, which is no projector onto z.
    @pytest.mark.parametrize("name", sorted(OVERFLOWING_Z))
    def test_refuses_a_norm_that_overflows(self, name):
        with rejects_non_finite("^projector_form: the norm of z overflows$"):
            projector_form(OVERFLOWING_Z[name])
