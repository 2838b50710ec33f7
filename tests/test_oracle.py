import math

import numpy as np
import pytest

from ccsk.blockexp import compose
from ccsk.decompose import roundtrip_error
from ccsk.linalg import frobenius_norm, unitarity_defect
from ccsk.oracle import RngState, expm, random_params, random_unitary
from ccsk.params import CcskParams, assemble_generator

from conftest import complex_gaussian_vector


class TestRngState:
    # Reference outputs of the splitmix64 mixing function for seed 0.
    SEED0_VECTORS = [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]

    def test_seed0_reference_vectors(self):
        r = RngState(0)
        assert [r.next_u64() for _ in range(5)] == self.SEED0_VECTORS

    def test_determinism(self):
        a = RngState(987654321)
        b = RngState(987654321)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_uniform_range(self):
        r = RngState(1)
        samples = [r.uniform() for _ in range(1000)]
        assert all(0.0 <= s < 1.0 for s in samples)

    def test_seed0_reference_vectors_in_bulk(self):
        assert RngState(0).next_u64_array(5).tolist() == self.SEED0_VECTORS

    @pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
    @pytest.mark.parametrize("k", [0, 1, 7, 1000])
    def test_bulk_draws_match_scalar_draws(self, seed, k):
        bulk, scalar = RngState(seed), RngState(seed)
        bulk.next_u64()
        scalar.next_u64()
        words = bulk.next_u64_array(k)
        assert words.dtype == np.uint64
        assert words.tolist() == [scalar.next_u64() for _ in range(k)]
        # Both leave the same state behind.
        assert bulk.next_u64_array(3).tolist() == [scalar.next_u64() for _ in range(3)]

    def test_gaussian_moments(self):
        r = RngState(2)
        samples = np.array([r.gaussian() for _ in range(20000)])
        assert abs(samples.mean()) < 0.05
        assert abs(samples.std() - 1.0) < 0.05


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3), dtype=complex)), np.eye(3))

    def test_scalar_euler_identity(self):
        got = expm(np.array([[1j * math.pi]]))
        assert abs(got[0, 0] + 1.0) <= 1e-13

    def test_2x2_rotation(self):
        x = np.array([[0, 1], [-1, 0]], dtype=complex)
        want = np.array([[math.cos(1), math.sin(1)],
                         [-math.sin(1), math.cos(1)]], dtype=complex)
        assert frobenius_norm(expm(x) - want) <= 1e-13

    def test_inverse_pairing(self, rng):
        for n in (2, 6, 12):
            x = assemble_generator(random_params(n, rng))
            assert frobenius_norm(expm(x) @ expm(-x) - np.eye(n)) <= 1e-11 * n

    def test_unitary_for_anti_hermitian(self, rng):
        for scale in (1.0, 10.0, 50.0):
            x = assemble_generator(random_params(6, rng))
            x = x * (scale / frobenius_norm(x))
            assert unitarity_defect(expm(x)) <= 1e-11 * 6

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros((2, 3), dtype=complex))


class TestRandomParams:
    def test_n1(self):
        p = random_params(1, RngState(5))
        assert p.n == 1
        assert len(p.z_columns) == 0

    def test_same_seed_bitwise_identical(self):
        a = random_params(6, RngState(42))
        b = random_params(6, RngState(42))
        np.testing.assert_array_equal(a.thetas, b.thetas)
        for x, y in zip(a.z_columns, b.z_columns):
            np.testing.assert_array_equal(x, y)

    def test_canonical(self, rng):
        assert random_params(8, rng).is_canonical()

    def test_compose_unitary(self):
        p = random_params(6, RngState(42))
        assert unitarity_defect(compose(p)) <= 1e-12 * 6

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            random_params(0, RngState(1))

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 2, 5, 128])
    def test_bulk_stream_matches_scalar_draws(self, seed, n):
        p = random_params(n, RngState(seed))
        q = scalar_random_params(n, RngState(seed))
        assert p.thetas.tobytes() == q.thetas.tobytes()
        assert len(p.z_columns) == len(q.z_columns)
        for a, b in zip(p.z_columns, q.z_columns):
            assert a.tobytes() == b.tobytes()


def scalar_random_params(n: int, rng: RngState) -> CcskParams:
    """random_params drawn one uniform or gaussian at a time."""
    thetas = np.array([math.pi * (1.0 - 2.0 * rng.uniform()) for _ in range(n)])
    cols = []
    for j in range(2, n + 1):
        rho = (math.pi / 2.0) * rng.uniform()
        g = complex_gaussian_vector(rng, j - 1)
        norm = np.linalg.norm(g)
        direction = g / norm if norm > 0 else np.eye(j - 1, dtype=np.complex128)[0]
        cols.append(rho * direction)
    return CcskParams(thetas, tuple(cols))


class TestRandomUnitary:
    def test_n1_unit_modulus(self):
        u = random_unitary(1, RngState(3))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-15

    def test_defect_up_to_n16(self, rng):
        for n in (2, 8, 16):
            assert unitarity_defect(random_unitary(n, rng)) <= 1e-12 * n

    def test_roundtrips_through_decompose(self, rng):
        u = random_unitary(9, rng)
        assert roundtrip_error(u) <= 1e-9 * 9
