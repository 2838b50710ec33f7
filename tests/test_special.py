import cmath
import math

import numpy as np
import pytest

from ccsk.blockexp import compose, euler2_factorize, exp_k, projector_form
from ccsk.linalg import frobenius_norm, unitarity_defect
from ccsk.params import CcskParams

from conftest import OVERFLOWING_Z, complex_gaussian_vector


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
    phases = np.diag(np.exp(1j * np.array([theta1, theta2])))
    line1 = phases @ rot_alpha
    rot = np.array([[math.cos(r), math.sin(r)],
                    [-math.sin(r), math.cos(r)]], dtype=complex)
    half = np.diag([cmath.exp(1j * alpha / 2), cmath.exp(-1j * alpha / 2)])
    line2 = (phases @ half @ rot @ half.conj().T)
    line3 = euler2_factorize(theta1, theta2, z).product()
    return line1, line2, line3


class TestEuler2Factorize:
    def test_zero_z_is_pure_phase(self):
        f = euler2_factorize(0.2, -0.5, 0)
        np.testing.assert_array_equal(f.rotation, np.eye(2))
        assert frobenius_norm(f.product() - np.diag(np.exp(1j * np.array([0.2, -0.5])))) <= 1e-15

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
        with pytest.raises(ValueError, match=self.REFUSAL):
            euler2_factorize(value, 0.5, 0.3j)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_theta2(self, value):
        with pytest.raises(ValueError, match=self.REFUSAL):
            euler2_factorize(0.5, value, 0.3j)

    @pytest.mark.parametrize("value", [complex(math.inf, 0), complex(0, -math.inf),
                                       complex(math.nan, 0), complex(1, math.nan),
                                       complex(1.7e308, 1.7e308)])
    def test_refuses_a_non_finite_z(self, value):
        with pytest.raises(ValueError, match=self.REFUSAL):
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

    # The squares of entries below about 1.5e-154 are subnormal or underflow
    # to 0: the unscaled norm lost digits at 1e-160 and refused a z of 1e-170
    # as zero. Below 2.2e-308 rho itself is subnormal: 5e-324 is the
    # smallest subnormal u, and sqrt(2) u rounds to u.
    @pytest.mark.parametrize("z, zt, rho", [
        ([1e-170, 2e-170], np.array([1.0, 2.0]) / math.sqrt(5.0), math.sqrt(5.0) * 1e-170),
        ([1e-160 * 0.6, 1e-160 * 0.8j], [0.6, 0.8j], 1e-160),
        ([1e-170 * 0.6, 1e-170 * 0.8j], [0.6, 0.8j], 1e-170),
        ([5e-324 * 3, 5e-324 * 4j], [0.6, 0.8j], 5e-324 * 5),
        ([5e-324, 5e-324j], np.array([1.0, 1j]) / math.sqrt(2.0), 5e-324),
        ([5e-324], [1.0], 5e-324),
    ], ids=["1e-170_and_2e-170", "1e-160", "1e-170", "3u_and_4u", "u_and_u", "u"])
    def test_tiny_entries(self, z, zt, rho):
        pp = projector_form(z)
        zt = np.asarray(zt, dtype=complex)
        assert frobenius_norm(pp.p1 - np.outer(zt, zt.conj())) <= 1e-15
        assert pp.rho == pytest.approx(rho, rel=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            projector_form(np.zeros(3, dtype=complex))

    # The unscaled norm used to overflow with a warning and give rho = inf,
    # p1 = 0 and p0 = I, which is no projector onto z.
    @pytest.mark.parametrize("name", sorted(OVERFLOWING_Z))
    def test_refuses_a_norm_that_overflows(self, name):
        with pytest.raises(ValueError, match="^projector_form: the norm of z overflows$"):
            projector_form(OVERFLOWING_Z[name])


def test_factor_records_compare_and_hash_by_identity():
    # The generated __eq__ compared the ndarray fields and raised.
    f = euler2_factorize(0.1, 0.2, 0.3 + 0.1j)
    g = euler2_factorize(0.1, 0.2, 0.3 + 0.1j)
    pp = projector_form([0.6, 0.8j])
    assert f == f and f != g and pp == pp and pp != projector_form([0.6, 0.8j])
    assert len({f, g, pp}) == 3
