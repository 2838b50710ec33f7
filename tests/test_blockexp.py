import cmath
import math

import numpy as np
import pytest

from ccsk.blockexp import (_MIN_BLOCK, _NB, _apply_factor, _apply_factors, _compact_form,
                           _grow, _runs, compose, exp_column_factor, exp_diagonal, exp_k,
                           k_matrix)
from ccsk.linalg import frobenius_norm, unitarity_defect
from ccsk.oracle import RngState, expm, random_params, random_unitary
from ccsk.params import CcskParams, assemble_generator

from conftest import complex_gaussian_vector, random_complex_matrix


def random_z(rng, m):
    return complex_gaussian_vector(rng, m)


class TestKAlgebra:
    def test_cube_relation(self, rng):
        for _ in range(20):
            m = 1 + rng.next_u64() % 8
            z = random_z(rng, m)
            k = k_matrix(z)
            zz = float(np.vdot(z, z).real)
            rho = math.sqrt(zz)
            residual = frobenius_norm(k @ k @ k + zz * k)
            assert residual <= 1e-13 * (1 + rho ** 3)

    def test_square_block_structure(self, rng):
        z = random_z(rng, 5)
        k = k_matrix(z)
        zz = float(np.vdot(z, z).real)
        expected = np.zeros_like(k)
        expected[:5, :5] = -np.outer(z, z.conj())
        expected[5, 5] = -zz
        assert frobenius_norm(k @ k - expected) <= 1e-14 * (1 + zz)


class TestExpDiagonal:
    def test_zeros_is_identity(self):
        np.testing.assert_array_equal(exp_diagonal(np.zeros(4)), np.eye(4))

    def test_pi(self):
        assert abs(exp_diagonal([math.pi])[0, 0] + 1.0) <= 1e-15

    def test_unit_magnitudes(self):
        d = np.diag(exp_diagonal([0.3, -0.7]))
        np.testing.assert_allclose(np.abs(d), 1.0, atol=1e-16)


class TestExpK:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(exp_k(np.zeros(1, dtype=complex)), np.eye(2))

    def test_quarter_turn(self):
        got = exp_k(np.array([math.pi / 2 + 0j]))
        want = np.array([[0, 1], [-1, 0]], dtype=complex)
        assert frobenius_norm(got - want) <= 1e-15
        # cross-check against the generic exponential
        assert frobenius_norm(got - expm(k_matrix(np.array([math.pi / 2 + 0j])))) <= 1e-13

    def test_matches_oracle(self, rng):
        z = random_z(rng, 3)
        assert frobenius_norm(exp_k(z) - expm(k_matrix(z))) <= 1e-13

    def test_unitary(self, rng):
        for m in (1, 2, 5):
            u = exp_k(random_z(rng, m))
            assert unitarity_defect(u) <= 1e-12 * (m + 1)

    @pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
    def test_continuity_at_zero(self, rng, eps):
        v = random_z(rng, 3)
        v = v / np.linalg.norm(v)
        assert frobenius_norm(exp_k(eps * v) - np.eye(4)) <= 2 * eps + 1e-14

    def test_tiny_rho_branch(self):
        z = np.array([1e-15 + 0j, 1e-15j])
        u = exp_k(z)
        assert unitarity_defect(u) <= 1e-14
        assert frobenius_norm(u - np.eye(3)) <= 3e-15


class TestExpColumnFactor:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(
            exp_column_factor(np.zeros(3, dtype=complex), 6, 4), np.eye(6))

    def test_embedded_quarter_turn(self):
        got = exp_column_factor(np.array([math.pi / 2 + 0j]), 3, 2)
        want = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=complex)
        assert frobenius_norm(got - want) <= 1e-15

    def test_trailing_identity_block(self, rng):
        u = exp_column_factor(random_z(rng, 3), 5, 4)
        np.testing.assert_array_equal(u[4, :], np.eye(5, dtype=complex)[4])
        np.testing.assert_array_equal(u[:, 4], np.eye(5, dtype=complex)[:, 4])

    def test_matches_oracle_on_embedded_block(self, rng):
        for _ in range(10):
            n = 2 + rng.next_u64() % 11
            j = 2 + rng.next_u64() % (n - 1) if n > 2 else 2
            z = random_z(rng, j - 1)
            xj = np.zeros((n, n), dtype=np.complex128)
            xj[: j - 1, j - 1] = z
            xj[j - 1, : j - 1] = -z.conj()
            assert frobenius_norm(exp_column_factor(z, n, j) - expm(xj)) <= 1e-12

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="length"):
            exp_column_factor(np.zeros(2, dtype=complex), 4, 2)
        with pytest.raises(ValueError, match="2 <= j <= n"):
            exp_column_factor(np.zeros(4, dtype=complex), 4, 5)


class TestApplyFactor:
    # The kernel on the leading j x j block of a larger matrix, as compose
    # calls it: _apply_factor(u[:j, :j], z, conj(z), 1, ||z||, inverse).
    N = 7

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("j", [2, 3, N])
    @pytest.mark.parametrize("rho", [0.0, 1e-15, 1e-8, 1.0, math.pi / 2])
    def test_matches_dense_factor(self, rng, rho, j, inverse):
        u = random_complex_matrix(rng, self.N, self.N)
        v = random_z(rng, j - 1)
        z = rho * v / np.linalg.norm(v)
        factor = exp_column_factor(z, j, j)
        if inverse:
            factor = factor.conj().T
        want = u[:j, :j] @ factor
        got = u.copy()
        _apply_factor(got[:j, :j], z, z.conj(), 1.0, frobenius_norm(z), inverse)
        assert np.max(np.abs(got[:j, :j] - want)) <= 1e-13
        # Everything outside the leading j x j block is untouched, bit for bit.
        outside = np.ones_like(u, dtype=bool)
        outside[:j, :j] = False
        np.testing.assert_array_equal(got[outside], u[outside])


class TestFactorKernel:
    # _apply_factor(x, z, v, c, rho, inverse) takes rho = ||z|| and conj(z) =
    # c v from its caller: compose passes (z.conj(), 1), decompose the row it
    # read z from, z = kappa conj(row), and c = conj(kappa).
    @pytest.mark.parametrize("form", ["compose", "decompose"])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("j", [2, 5, 9])
    @pytest.mark.parametrize("rho", [0.0, 1e-300, 1e-8, 1.0, math.pi / 2])
    def test_matches_dense_factor(self, rng, rho, j, inverse, form):
        rows = j + 3  # more rows than the block has columns
        u = random_complex_matrix(rng, rows, j + 2)
        row = random_z(rng, j - 1)
        s = math.sqrt(np.vdot(row, row).real)
        if form == "compose":
            z = rho * row / s
            v, c = z.conj(), 1.0
        else:
            kappa = -cmath.exp(1j * rng.uniform() * 2 * math.pi) * rho / s
            z = kappa * row.conj()
            v, c = row, kappa.conjugate()
        factor = exp_column_factor(z, j, j)
        if inverse:
            factor = factor.conj().T
        want = u[:, :j] @ factor
        got = u.copy()
        _apply_factor(got[:, :j], z, v, c, rho, inverse)
        assert np.max(np.abs(got[:, :j] - want)) <= 1e-14 * j
        # The columns past the block are untouched, bit for bit.
        assert got[:, j:].tobytes() == u[:, j:].tobytes()

    def test_inverse_undoes_forward(self, rng):
        u = random_complex_matrix(rng, 5, 5)
        z = random_z(rng, 3)
        rho = frobenius_norm(z)
        got = u.copy()
        _apply_factor(got[:, :4], z, z.conj(), 1.0, rho, False)
        _apply_factor(got[:, :4], z, z.conj(), 1.0, rho, True)
        assert np.max(np.abs(got - u)) <= 1e-13


class TestCompactForm:
    # F_{j0} ... F_{j1} = I + W T W^H with W = [Z | E], E the last k unit
    # columns, applied from N, Q and the cores without forming T: forward by
    # _grow (here from blockdiag(I, I)), adjoint by _apply_factors.
    @pytest.mark.parametrize("j0, j1", [(2, 2), (2, 6), (5, 5), (4, 9), (2, 32), (97, 128)])
    def test_matches_dense_product(self, rng, j0, j1):
        zs = [random_z(rng, j - 1) for j in range(j0, j1 + 1)]
        if len(zs) >= 3:
            zs[0] = np.zeros(j0 - 1, dtype=complex)
            zs[-1] *= (math.pi / 2) / np.linalg.norm(zs[-1])
        want = np.eye(j1, dtype=complex)
        for j, z in zip(range(j0, j1 + 1), zs):
            want = want @ exp_column_factor(z, j1, j)
        seg = np.concatenate(zs)
        z = _compact_form(seg, j0, j1)[0]
        padded = np.zeros_like(z)
        for i, zi in enumerate(zs):
            padded[:zi.shape[0], i] = zi
        assert z.tobytes() == padded.tobytes()
        got = _grow(np.eye(j0 - 1, dtype=complex), np.ones(len(zs), dtype=complex), seg, j0, j1)
        assert np.max(np.abs(got - want)) <= 1e-14
        got = np.eye(j1, dtype=complex)
        _apply_factors(got, seg, j0)
        assert np.max(np.abs(got - want.conj().T)) <= 1e-14


class TestGrow:
    # _grow(a, d, seg, j0, j1) = blockdiag(a, diag(d)) F_{j0} ... F_{j1}, with
    # rho = 0, tiny and pi/2 at the first, middle and last factor, a a
    # random unitary and d random phases.
    @pytest.mark.parametrize("j0, j1", [(2, 2), (2, 6), (4, 9), (2, 32), (33, 64), (97, 128)])
    def test_matches_dense_product(self, rng, j0, j1):
        r, k = j0 - 1, j1 - j0 + 1
        a = random_unitary(r, rng)
        d = np.exp(1j * np.array([rng.uniform() * 2 * math.pi for _ in range(k)]))
        zs = [random_z(rng, j - 1) for j in range(j0, j1 + 1)]
        # dict(): where k < 3 puts two of them on one factor, the later wins.
        for i, rho in dict(zip((0, k // 2, k - 1), (0.0, 1e-12, math.pi / 2))).items():
            zs[i] *= rho / np.linalg.norm(zs[i])
        want = np.zeros((j1, j1), dtype=complex)
        want[:r, :r] = a
        want[r:, r:] = np.diag(d)
        for j, z in zip(range(j0, j1 + 1), zs):
            want = want @ exp_column_factor(z, j1, j)
        got = _grow(a, d, np.concatenate(zs), j0, j1)
        assert got.shape == (j1, j1)
        assert np.max(np.abs(got - want)) <= 1e-14 * j1


class TestRuns:
    # F_2 ... F_n as a head, then runs of _NB: compose walks the runs of
    # head 1, decompose those of head 2 * _NB = 64 and peels its head one
    # factor at a time.
    EXPECTED = {
        1: ([(2, 1)], [(2, 1)]),
        2: ([(2, 2)], [(2, 2)]),
        32: ([(2, 32)], [(2, 32)]),
        33: ([(2, 1), (2, 33)], [(2, 33)]),
        34: ([(2, 2), (3, 34)], [(2, 34)]),
        63: ([(2, 31), (32, 63)], [(2, 63)]),
        64: ([(2, 32), (33, 64)], [(2, 64)]),
        65: ([(2, 1), (2, 33), (34, 65)], [(2, 65)]),
        95: ([(2, 31), (32, 63), (64, 95)], [(2, 95)]),
        96: ([(2, 32), (33, 64), (65, 96)], [(2, 64), (65, 96)]),
        97: ([(2, 1), (2, 33), (34, 65), (66, 97)], [(2, 65), (66, 97)]),
        128: ([(2, 32), (33, 64), (65, 96), (97, 128)], [(2, 64), (65, 96), (97, 128)]),
    }

    @pytest.mark.parametrize("n", sorted(EXPECTED))
    def test_table(self, n):
        assert _NB == 32
        assert (_runs(n, 1), _runs(n, 2 * _NB)) == self.EXPECTED[n]

    @pytest.mark.parametrize("head", [1, 2 * _NB])
    def test_partition(self, head):
        # The runs cover 2..n in order, with no gap or overlap; the head ends
        # at F_b with min(n, head) <= b < head + _NB, and every later run
        # has _NB factors.
        for n in range(1, 401):
            runs = _runs(n, head)
            assert runs[0][0] == 2 and runs[-1][1] == n
            assert all(a[1] + 1 == b[0] for a, b in zip(runs, runs[1:]))
            assert min(n, head) <= runs[0][1] < head + _NB
            assert all(j1 - j0 + 1 == _NB for j0, j1 in runs[1:])


def single_factor_compose(p: CcskParams) -> np.ndarray:
    """The ordered product with every factor applied on its own."""
    u = exp_diagonal(p.thetas)
    for j in range(2, p.n + 1):
        z = p.z_column(j)
        _apply_factor(u[:j, :j], z, z.conj(), 1.0, frobenius_norm(z), False)
    return u


def dense_compose(p: CcskParams) -> np.ndarray:
    """The ordered product built from explicit n x n factor matrices."""
    u = exp_diagonal(p.thetas)
    for j in range(2, p.n + 1):
        u = u @ exp_column_factor(p.z_column(j), p.n, j)
    return u


class TestCompose:
    def test_all_zero_is_identity(self):
        np.testing.assert_array_equal(compose(CcskParams.zeros(4)), np.eye(4))

    def test_n2_euler_first_line(self, rng):
        # theta = 0, single column z = |z| e^{i alpha}
        r, alpha = 0.9, 0.4
        z = r * cmath.exp(1j * alpha)
        p = CcskParams(np.zeros(2), (np.array([z]),))
        want = np.array([
            [math.cos(r), cmath.exp(1j * alpha) * math.sin(r)],
            [-cmath.exp(-1j * alpha) * math.sin(r), math.cos(r)],
        ])
        assert frobenius_norm(compose(p) - want) <= 1e-15

    def test_matches_factorwise_oracle_product(self):
        p = random_params(3, RngState(99))
        x = assemble_generator(p)
        x0 = np.diag(np.diag(x))
        factors = expm(x0)
        for j in (2, 3):
            xj = np.zeros((3, 3), dtype=np.complex128)
            xj[: j - 1, j - 1] = p.z_column(j)
            xj[j - 1, : j - 1] = -p.z_column(j).conj()
            factors = factors @ expm(xj)
        assert frobenius_norm(compose(p) - factors) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_matches_dense_product(self, rng, n):
        p = random_params(n, rng)
        if n >= 4:
            # Chart edges inside the product: rho = 0, tiny, pi/2.
            cols = list(p.z_columns)
            for j, rho in zip((2, n // 2 + 1, n), (0.0, 1e-12, math.pi / 2)):
                d = random_z(rng, j - 1)
                cols[j - 2] = rho * d / np.linalg.norm(d)
            p = CcskParams(p.thetas, tuple(cols))
        assert frobenius_norm(compose(p) - dense_compose(p)) <= 1e-13 * n

    @pytest.mark.parametrize("shift", [0, 1, 2])
    @pytest.mark.parametrize("n", [_MIN_BLOCK, _MIN_BLOCK + 1, _MIN_BLOCK + 2,
                                   32, 33, 34, 63, 64, 65, 97, 200])
    def test_aggregated_blocks_match_single_factors(self, rng, n, shift):
        # compose's runs (head 1), the first included, with rho = 0, tiny and
        # pi/2 at the first, middle and last factor of each, in turn. The
        # first three n give a head of _MIN_BLOCK - 1 factors, taken one at a
        # time, and of _MIN_BLOCK and _MIN_BLOCK + 1, each taken as one block.
        p = random_params(n, rng)
        cols = list(p.z_columns)
        for j0, j1 in _runs(n, 1):
            if j0 > j1:
                continue
            for j, rho in zip((j0, (j0 + j1) // 2, j1), np.roll([0.0, 1e-12, math.pi / 2], shift)):
                d = random_z(rng, j - 1)
                cols[j - 2] = rho * d / np.linalg.norm(d)
        p = CcskParams(p.thetas, tuple(cols))
        assert frobenius_norm(compose(p) - single_factor_compose(p)) <= 1e-13 * n

    def test_unitarity_sweep(self, rng):
        for n in (1, 2, 5, 16):
            p = random_params(n, rng)
            assert unitarity_defect(compose(p)) <= 1e-12 * n


class TestNonCommutativity:
    # The ordered product is not the exponential of the summed generator.
    # Distance recorded from the oracle at first build (seed 12345, n=3).
    RECORDED_DISTANCE = 0.2910651412991706

    def test_fixed_seed_witness(self):
        p = random_params(3, RngState(12345))
        d = frobenius_norm(compose(p) - expm(assemble_generator(p)))
        assert d > 0.01
        assert d == pytest.approx(self.RECORDED_DISTANCE, abs=1e-12)
