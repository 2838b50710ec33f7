import math

import numpy as np
import pytest

from ccsk.linalg import anti_hermiticity_defect
from ccsk.oracle import random_params
from ccsk.params import (CcskParams, _rho_in_chart, assemble_generator,
                         params_from_generator, split_generator)

from conftest import NON_FINITE_MATRICES, rejects_non_finite


class TestCcskParams:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="z columns"):
            CcskParams(np.zeros(3), (np.zeros(1, dtype=complex),))
        with pytest.raises(ValueError, match="length"):
            CcskParams(np.zeros(3), (np.zeros(1, dtype=complex),
                                     np.zeros(3, dtype=complex)))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_real_parameter_count_is_n_squared(self, n, rng):
        p = random_params(n, rng)
        assert p.real_parameter_count() == n * n

    def test_zeros_constructor(self):
        p = CcskParams.zeros(4)
        assert p.n == 4
        assert all(p.rho(j) == 0.0 for j in range(2, 5))


def column_at(rho: float, length: int, seed: int) -> np.ndarray:
    """rho times a random unit direction with length entries."""
    g = np.random.default_rng(seed)
    d = g.standard_normal(length) + 1j * g.standard_normal(length)
    return rho * d / np.linalg.norm(d)


class TestIsCanonical:
    # The norm of a column drawn at rho = pi/2 rounds up by a few ulps, more
    # for longer columns: from length 1426 on, by more than a fixed 1e-15.
    def test_half_pi_column_lengths(self):
        for length in range(1, 4001):
            z = column_at(math.pi / 2, length, length)
            assert _rho_in_chart(z), length
            assert not _rho_in_chart(z * (1 + 1e-12)), length

    def test_long_params(self):
        n = 2048
        cols = [column_at(math.pi / 2, j - 1, j) for j in range(2, n + 1)]
        assert CcskParams(np.full(n, math.pi), tuple(cols)).is_canonical()
        cols[-1] = cols[-1] * (1 + 1e-12)
        assert not CcskParams(np.zeros(n), tuple(cols)).is_canonical()
        assert not CcskParams(np.full(n, -math.pi), tuple(cols[:-1]) + (cols[-1] / 2,)).is_canonical()


class TestAssembleGenerator:
    def test_n1(self):
        x = assemble_generator(CcskParams(np.array([0.3])))
        np.testing.assert_array_equal(x, np.array([[0.3j]]))

    def test_n2_real_antisymmetric(self):
        p = CcskParams(np.zeros(2), (np.array([1.0 + 0j]),))
        np.testing.assert_array_equal(
            assemble_generator(p), np.array([[0, 1], [-1, 0]], dtype=complex))

    def test_anti_hermitian_by_construction(self, rng):
        x = assemble_generator(random_params(3, rng))
        assert anti_hermiticity_defect(x) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    def test_bit_identical_to_column_loop(self, rng, n):
        p = random_params(n, rng)
        want = np.zeros((n, n), dtype=np.complex128)
        want[np.diag_indices(n)] = 1j * p.thetas
        for j in range(2, n + 1):
            want[: j - 1, j - 1] = p.z_column(j)
            want[j - 1, : j - 1] = -p.z_column(j).conj()
        assert assemble_generator(p).tobytes() == want.tobytes()


class TestSplitGenerator:
    def test_diagonal_input(self):
        x = np.diag([0.2j, -0.4j, 1.1j])
        x0, blocks = split_generator(x)
        np.testing.assert_array_equal(x0, x)
        for b in blocks:
            assert np.all(b == 0)

    def test_n2_offdiagonal(self):
        x = np.array([[0, 1], [-1, 0]], dtype=complex)
        x0, blocks = split_generator(x)
        assert np.all(x0 == 0)
        np.testing.assert_array_equal(blocks[0], x)

    def test_reassembly_exact(self, rng):
        x = assemble_generator(random_params(4, rng))
        x0, blocks = split_generator(x)
        np.testing.assert_array_equal(x0 + sum(blocks), x)

    def test_blocks_anti_hermitian_rank_le_2(self, rng):
        x = assemble_generator(random_params(5, rng))
        _, blocks = split_generator(x)
        for b in blocks:
            assert anti_hermiticity_defect(b) <= 1e-15
            assert np.linalg.matrix_rank(b) <= 2

    def test_rejects_non_anti_hermitian(self):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            split_generator(np.eye(3, dtype=complex))


class TestParamsFromGenerator:
    def test_scalar(self):
        p = params_from_generator(np.array([[0.5j]]))
        assert p.n == 1
        assert p.thetas[0] == 0.5

    def test_roundtrip_bitwise(self, rng):
        p = random_params(3, rng)
        q = params_from_generator(assemble_generator(p))
        np.testing.assert_array_equal(q.thetas, p.thetas)
        for a, b in zip(q.z_columns, p.z_columns):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    def test_bit_identical_to_column_loop(self, rng, n):
        # The lower triangle is off by roundoff: only the upper one is read.
        x = assemble_generator(random_params(n, rng))
        x[np.tril_indices(n, -1)] *= 1 + 1e-15
        q = params_from_generator(x)
        assert q.thetas.tobytes() == x.diagonal().imag.tobytes()
        assert len(q.z_columns) == n - 1
        for j in range(2, n + 1):
            assert q.z_column(j).tobytes() == x[: j - 1, j - 1].tobytes()

    def test_generator_roundtrip(self, rng):
        x = assemble_generator(random_params(4, rng))
        np.testing.assert_array_equal(
            assemble_generator(params_from_generator(x)), x)

    def test_rejects_real_diagonal(self):
        # small enough to pass the overall defect gate (1e-12 * n), large
        # enough to trip the diagonal real-part check
        x = np.diag([1.4e-12 + 0.3j, 0.1j, -0.2j])
        with pytest.raises(ValueError, match="real part"):
            params_from_generator(x)


class TestNonFiniteGenerator:
    # nan passed the anti-Hermitian gate `defect > tol` and the diagonal check,
    # and CcskParams then blamed a "vector".
    @pytest.mark.parametrize("name", sorted(NON_FINITE_MATRICES))
    def test_params_from_generator_rejects(self, name):
        with rejects_non_finite("generator contains non-finite entries"):
            params_from_generator(NON_FINITE_MATRICES[name])

    @pytest.mark.parametrize("name", sorted(NON_FINITE_MATRICES))
    def test_split_generator_rejects(self, name):
        with rejects_non_finite("generator contains non-finite entries"):
            split_generator(NON_FINITE_MATRICES[name])
