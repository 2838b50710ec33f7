import cmath
import importlib
import math
import types

import numpy as np
import pytest
from numpy.linalg import lapack_lite

import ccsk.blockexp as blockexp_module
from ccsk.blockexp import compose, exp_column_factor, exp_k, k_matrix
from ccsk.decompose import _apply_block, _apply_factor, _reflector
from ccsk.linalg import frobenius_norm, unitarity_defect
from ccsk.oracle import RngState, expm, random_params
from ccsk.params import CcskParams, assemble_generator

from conftest import (OVERFLOWING_Z, complex_gaussian_vector, panels, random_complex_matrix,
                      record_peel, recorded_panels)


EPS = np.finfo(float).eps

# The module itself: the package exports the function under the same name.
decompose_module = importlib.import_module("ccsk.decompose")


def random_z(rng, m):
    return complex_gaussian_vector(rng, m)


def w_of(z, rho):
    """_reflector's w_j, in a fresh array."""
    return _reflector(z, rho, np.empty(z.shape[0] + 1, dtype=complex))


def reflector(z, rho, n, j):
    """I - 2 w w^H, w = (-sinc(rho/2)/2 z, cos(rho/2), 0, ...) in C^n, built densely."""
    w = np.zeros(n, dtype=complex)
    w[:j - 1] = -0.5 * (math.sin(0.5 * rho) / (0.5 * rho) if rho else 1.0) * z
    w[j - 1] = math.cos(0.5 * rho)
    return np.eye(n) - 2.0 * np.outer(w, w.conj())


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

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_norm_underflow_keeps_z(self, rng, scale):
        # ||z||^2 underflows to 0, so rho = 0; sigma = 1 there, and the last
        # column is z itself, not the identity's zero.
        for m in (1, 3):
            v = random_z(rng, m)
            z = scale * (v / np.linalg.norm(v))
            u = exp_k(z)
            np.testing.assert_array_equal(u[:m, m], z)
            np.testing.assert_array_equal(u[m, :m], -z.conj())
            np.testing.assert_array_equal(u[:m, :m], np.eye(m))
            assert u[m, m] == 1.0

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_small_rho_defect(self, rng, m):
        # At rho = 1e-8, 1 - cos(rho) cancels; a = sinc^2(rho/2)/2 does not,
        # so the unitarity defect stays at rho * eps.
        for _ in range(10):
            v = random_z(rng, m)
            u = exp_k(1e-8 * v / np.linalg.norm(v))
            assert unitarity_defect(u) <= 1e-8 * np.finfo(float).eps


    @pytest.mark.parametrize("name", sorted(OVERFLOWING_Z))
    def test_refuses_a_norm_that_overflows(self, name):
        with pytest.raises(ValueError, match="^exp_k: the norm of z overflows$"):
            exp_k(OVERFLOWING_Z[name])


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

    @pytest.mark.parametrize("j", [2, 5, 6])
    @pytest.mark.parametrize("rho", [0.0, 1e-170, 1e-8, 1.0, math.pi / 2])
    def test_signed_householder_reflector(self, rng, rho, j):
        # F_j = P_j (I - 2 w w^H), P_j the sign flip of coordinate j. Up to a
        # few ulps: the reflector's pivot 1 - 2 cos^2(rho/2) cancels near pi/2
        # (2.7 eps entrywise over 1500 draws).
        v = random_z(rng, j - 1)
        z = rho * v / np.linalg.norm(v)
        want = reflector(z, rho, 6, j)
        want[j - 1] *= -1.0
        assert np.max(np.abs(exp_column_factor(z, 6, j) - want)) <= 4 * EPS

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="length"):
            exp_column_factor(np.zeros(2, dtype=complex), 4, 2)
        with pytest.raises(ValueError, match="2 <= j <= n"):
            exp_column_factor(np.zeros(4, dtype=complex), 4, 5)

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_Z))
    def test_refuses_a_norm_that_overflows(self, name):
        z = OVERFLOWING_Z[name]
        with pytest.raises(ValueError, match="^exp_column_factor: the norm of z overflows$"):
            exp_column_factor(z, len(z) + 2, len(z) + 1)


def signed_factor(z, j, adjoint):
    """H_j = P_j F_j on the leading j x j block, from the reference factor
    exp_column_factor: F_j with row j negated, or, as H_j is its own
    adjoint, F_j^H with column j negated."""
    factor = exp_column_factor(z, j, j)
    if adjoint:
        factor = factor.conj().T
        factor[:, j - 1] *= -1.0
    else:
        factor[j - 1] *= -1.0
    return factor


class TestFactorKernel:
    # _apply_factor(x, w) sets x <- x H_j, with w = _reflector(z, rho, w)
    # built from a given z (rho = ||z||) or as decompose does (z = kappa
    # conj(row), kappa = -e^{i theta} rho / s, with the rho it read), against
    # H_j = P_j F_j and its adjoint. x is the leading j columns of a square
    # matrix, on more rows than the block has columns, or its leading j x j
    # block alone.
    @pytest.mark.parametrize("form", ["given", "decompose"])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("j", [2, 5, 9])
    @pytest.mark.parametrize("rho", [0.0, 1e-300, 1e-15, 1e-8, 1.0, math.pi / 2])
    def test_matches_dense_factor(self, rng, rho, j, adjoint, form):
        u = random_complex_matrix(rng, j + 3, j + 3)
        row = random_z(rng, j - 1)
        s = math.sqrt(np.vdot(row, row).real)
        if form == "given":
            z = rho * row / s
        else:
            z = -cmath.exp(1j * rng.uniform() * 2 * math.pi) * rho / s * row.conj()
        factor = signed_factor(z, j, adjoint)
        w = w_of(z, rho)
        for rows in (j + 3, j):
            got = u.copy()
            _apply_factor(got[:rows, :j], w)
            assert np.max(np.abs(got[:rows, :j] - u[:rows, :j] @ factor)) <= 1e-14 * j
            # Everything outside x is untouched, bit for bit.
            outside = np.ones(u.shape, dtype=bool)
            outside[:rows, :j] = False
            assert got[outside].tobytes() == u[outside].tobytes()

    def test_inverse_undoes_forward(self, rng):
        # H_j is its own inverse: applied twice, the kernel gives x back.
        u = random_complex_matrix(rng, 5, 5)
        z = random_z(rng, 3)
        w = w_of(z, frobenius_norm(z))
        got = u.copy()
        _apply_factor(got[:, :4], w)
        _apply_factor(got[:, :4], w)
        assert np.max(np.abs(got - u)) <= 1e-13


class TestReflectors:
    # A panel's reflectors as decompose writes them, w_j into row j1 - j of a
    # zero-filled vt, and _apply_block's product H_{j1} ... H_{j0} = I - V T
    # V^H with V = vt^T. rho = 0, tiny (its square underflows) and pi/2 sit
    # at the first, middle and last factor, and from k = 4 factors on the
    # second is a zero row, a factor the peel did not apply.
    PAIRS = [(2, 2), (2, 6), (5, 5), (4, 9), (2, 32), (97, 128)]

    @staticmethod
    def panel(rng, j0, j1):
        """The columns z_j, j = j0 ... j1 (None for the zero row), and vt."""
        k = j1 - j0 + 1
        zs = [random_z(rng, j - 1) for j in range(j0, j1 + 1)]
        # dict(): where k < 3 puts two of them on one factor, the later wins.
        for i, rho in dict(zip((0, k // 2, k - 1), (0.0, 1e-170, math.pi / 2))).items():
            zs[i] *= rho / np.linalg.norm(zs[i])
        if k >= 4:
            zs[1] = None
        vt = np.zeros((k, j1), dtype=complex)
        for j, z in zip(range(j0, j1 + 1), zs):
            if z is not None:
                _reflector(z, np.linalg.norm(z), vt[j1 - j, :j])
        return zs, vt

    @pytest.mark.parametrize("j0, j1", PAIRS)
    def test_unit_columns(self, rng, j0, j1):
        # Each written row is a unit w_j, zero past its pivot j; the zero row
        # stays zero. Within the rounding of the norm itself (1.5 eps seen).
        zs, vt = self.panel(rng, j0, j1)
        for j, z in zip(range(j0, j1 + 1), zs):
            w = vt[j1 - j]
            assert not w[j:].any()
            if z is None:
                assert not w.any()
            else:
                assert abs(np.linalg.norm(w) - 1.0) <= 2 * EPS
                assert w[j - 1] == math.cos(0.5 * np.linalg.norm(z))

    @pytest.mark.parametrize("j0, j1", PAIRS)
    def test_t_inverse(self, rng, j0, j1):
        # T^{-1} = I/2 + striu(V^H V) gives T^{-1} + T^{-H} = V^H V, which is
        # what makes I - V T V^H unitary.
        _, vt = self.panel(rng, j0, j1)
        got = np.eye(j1, dtype=complex)
        _apply_block(got, vt)
        assert unitarity_defect(got) <= 1e-14

    @pytest.mark.parametrize("j0, j1", PAIRS)
    def test_columns_are_the_kernel_reflectors(self, rng, j0, j1):
        # The block update of rows m equals the factor kernel applied to them
        # row by row of vt, H_{j1} first, skipping the zero row.
        zs, vt = self.panel(rng, j0, j1)
        m = random_complex_matrix(rng, 5, j1)
        want = m.copy()
        for j in range(j1, j0 - 1, -1):
            if zs[j - j0] is not None:
                _apply_factor(want[:, :j], vt[j1 - j, :j])
        got = m.copy()
        _apply_block(got, vt)
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("j0, j1", PAIRS)
    def test_matches_dense_product(self, rng, j0, j1):
        # _apply_block on the identity gives H_{j1} ... H_{j0}, with H_j = P_j
        # F_j from exp_column_factor and the identity for the zero row.
        zs, vt = self.panel(rng, j0, j1)
        want = np.eye(j1, dtype=complex)
        for j in range(j1, j0 - 1, -1):
            z = zs[j - j0]
            if z is not None:
                h = exp_column_factor(z, j1, j)
                h[j - 1] *= -1.0
                want = want @ h
        got = np.eye(j1, dtype=complex)
        _apply_block(got, vt)
        assert np.max(np.abs(got - want)) <= 1e-14


class TestRuns:
    # decompose's panels, recorded from its kernel calls: runs of _NB
    # factors counted down from H_n, each peeled as a panel of rows lo + 1
    # ... j1 = lo + _NB, and the head, lo = 0, which takes every row left
    # once j1 < 2 _NB: all n up to n = 63, and 32 to 63 rows beyond.
    EXPECTED = {
        1: [(0, 1)],
        2: [(0, 2)],
        32: [(0, 32)],
        33: [(0, 33)],
        34: [(0, 34)],
        63: [(0, 63)],
        64: [(32, 64), (0, 32)],
        65: [(33, 65), (0, 33)],
        95: [(63, 95), (0, 63)],
        96: [(64, 96), (32, 64), (0, 32)],
        97: [(65, 97), (33, 65), (0, 33)],
        127: [(95, 127), (63, 95), (0, 63)],
        128: [(96, 128), (64, 96), (32, 64), (0, 32)],
        129: [(97, 129), (65, 97), (33, 65), (0, 33)],
        200: [(168, 200), (136, 168), (104, 136), (72, 104), (40, 72), (0, 40)],
    }

    @pytest.mark.parametrize("n", sorted(EXPECTED))
    def test_table(self, n, monkeypatch):
        # The table, the closed-form rule panels(n) and the panels recorded
        # from decompose agree; TestPanels::test_aggregated_updates_follow_
        # the_runs checks the kernel-call order within them at the same n.
        assert decompose_module._NB == 32
        calls = record_peel(monkeypatch)
        decompose_module.decompose(compose(random_params(n, RngState(n))))
        assert recorded_panels(calls, n) == self.EXPECTED[n] == panels(n)

    @pytest.mark.parametrize("nb", [1, decompose_module._NB, 2 * decompose_module._NB])
    def test_partition(self, nb, monkeypatch):
        # For any block size _NB, the one in use among them, the panels cover
        # rows 1..n from row n down, with no gap or overlap; the head holds
        # min(n, _NB) to 2 _NB - 1 rows, and every other panel _NB. The
        # identity calls no factor kernel, so its panels are its block
        # calls, and every vt is zero: the blocks are only recorded.
        monkeypatch.setattr(decompose_module, "_NB", nb)
        calls = []
        monkeypatch.setattr(decompose_module, "_apply_block",
                            lambda m, vt: calls.append(("block", *m.shape, vt.any())))
        for n in range(1, 401):
            calls.clear()
            decompose_module.decompose(np.eye(n))
            assert not any(call[-1] for call in calls)
            panels = recorded_panels(calls, n)
            assert panels[0][1] == n and panels[-1][0] == 0
            assert all(a[0] == b[1] for a, b in zip(panels, panels[1:]))
            assert min(n, nb) <= panels[-1][1] < 2 * nb
            assert all(j1 - lo == nb for lo, j1 in panels[:-1])


def single_factor_compose(p: CcskParams) -> np.ndarray:
    """The ordered product D' H_2 ... H_n with every reflector applied on its own."""
    u = np.diag(np.exp(1j * p.thetas))
    u[1:] *= -1.0  # D' = diag(e^{i theta_1}, -e^{i theta_2}, ..., -e^{i theta_n})
    for j in range(2, p.n + 1):
        z = p.z_column(j)
        _apply_factor(u[:j, :j], w_of(z, frobenius_norm(z)))
    return u


def dense_compose(p: CcskParams) -> np.ndarray:
    """The ordered product built from explicit n x n factor matrices."""
    u = np.diag(np.exp(1j * p.thetas))
    for j in range(2, p.n + 1):
        u = u @ exp_column_factor(p.z_column(j), p.n, j)
    return u


class TestCompose:
    def test_all_zero_is_identity(self):
        p = CcskParams(np.zeros(4), np.zeros(6, dtype=complex))
        np.testing.assert_array_equal(compose(p), np.eye(4))

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
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 10, 11, 12, 32, 33, 34, 41, 42,
                                   63, 64, 65, 95, 96, 97, 128, 129, 200])
    def test_aggregated_blocks_match_single_factors(self, rng, n, shift):
        # ZUNGQR's blocks, groups of 32 factors counted from H_n (the last,
        # nearest H_2, may be shorter), with rho = 0, tiny and pi/2 at the
        # first, middle and last factor of each, in turn. ZUNGQR applies up
        # to 128 factors one at a time (n <= 129: n = 1, 2 and 3 hold no
        # factor, one and two) and, from n = 130, the groups nearest H_n as
        # blocks.
        p = random_params(n, rng)
        cols = list(p.z_columns)
        for j1 in range(n, 1, -32):
            j0 = max(2, j1 - 31)
            for j, rho in zip((j0, (j0 + j1) // 2, j1), np.roll([0.0, 1e-12, math.pi / 2], shift)):
                d = random_z(rng, j - 1)
                cols[j - 2] = rho * d / np.linalg.norm(d)
        p = CcskParams(p.thetas, tuple(cols))
        assert frobenius_norm(compose(p) - single_factor_compose(p)) <= 1e-13 * n

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_signed_reflector_product(self, rng, n):
        # compose(p) = D' H_2 ... H_n with D' = diag(e^{i theta_1}, -e^{i
        # theta_2}, ..., -e^{i theta_n}): each P_j commutes with the earlier
        # reflectors, so every flip moves to the phases. rho = 0, tiny and
        # pi/2 sit on three of the columns from n = 4.
        p = random_params(n, rng)
        cols = list(p.z_columns)
        if n >= 4:
            for j, rho in zip((2, n // 2 + 1, n), (0.0, 1e-170, math.pi / 2)):
                d = random_z(rng, j - 1)
                cols[j - 2] = rho * d / np.linalg.norm(d)
        want = np.diag(np.exp(1j * p.thetas))
        want[1:] *= -1.0
        for j, z in zip(range(2, n + 1), cols):
            want = want @ reflector(z, math.sqrt(np.vdot(z, z).real), n, j)
        p = CcskParams(p.thetas, tuple(cols))
        assert frobenius_norm(compose(p) - want) <= 4 * EPS * n

    def test_unitarity_sweep(self, rng):
        for n in (1, 2, 5, 16):
            p = random_params(n, rng)
            assert unitarity_defect(compose(p)) <= 1e-12 * n


class TestFirstRun:
    # compose is one call of LAPACK's ZUNGQR through numpy.linalg.lapack_lite,
    # which numpy ships without an underscore but does not list as public:
    # this pin is the test that fails if numpy changes the call.
    @pytest.mark.parametrize("n", [1, 2, 5, 33, 64])
    def test_zungqr_reproduces_numpy_qr(self, rng, n):
        # The reflectors and tau of numpy's own QR, accumulated by the call
        # compose makes, give numpy's Q (bit for bit on numpy 2.4).
        a = random_complex_matrix(rng, n, n)
        h, tau = np.linalg.qr(a, mode="raw")
        f = np.ascontiguousarray(h)
        work = np.empty(n, dtype=complex)
        assert lapack_lite.zungqr(n, n, n, f, n, tau, work, n, 0)["info"] == 0
        np.testing.assert_allclose(f.T, np.linalg.qr(a)[0], rtol=0, atol=4 * EPS * n)

    @pytest.mark.parametrize("n", [2, 129, 130, 512])
    def test_workspace_meets_the_query(self, monkeypatch, n):
        # With less workspace than its query (lwork = -1) returns, ZUNGQR
        # takes smaller blocks or none: about 2.8x the time at n = 512 with
        # none.
        calls = []

        def zungqr(*args):
            calls.append(args)
            return lapack_lite.zungqr(*args)

        monkeypatch.setattr(blockexp_module, "lapack_lite", types.SimpleNamespace(zungqr=zungqr))
        compose(random_params(n, RngState(n)))
        (m, cols, k, _, lda, _, work, lwork, _), = calls
        query = np.empty(1, dtype=complex)
        f = np.zeros((n, n), dtype=complex)
        tau = np.zeros(n, dtype=complex)
        assert lapack_lite.zungqr(m, cols, k, f, lda, tau, query, -1, 0)["info"] == 0
        assert work.shape[0] >= lwork >= query[0].real

    @pytest.mark.parametrize("every", [False, True])
    @pytest.mark.parametrize("rho", [0.0, 1e-170, 1e-8, math.pi / 2, math.pi - 1e-8,
                                     math.pi, 1.5 * math.pi, 2 * math.pi, 10.0])
    @pytest.mark.parametrize("n", [2, 3, 64, 65, 95, 96, 129, 130, 200])
    def test_beyond_the_chart(self, rng, n, rho, every):
        # v_j = w_j / cos(rho_j/2) grows like 1/cos(rho_j/2), which no double
        # rho_j makes zero: at rho = float(pi) its entries are about 1.6e16
        # and tau_j about 7.5e-33. One column, the last (the longest), or
        # every column is drawn at rho; n = 129 is ZUNGQR's last size with no
        # block, 130 its first with one. Over 20 draws of each case at n = 2
        # and 3, the largest defect was 6.2 eps n (3.8 eps n for
        # single_factor_compose) and the largest distance 6.4 eps n; over 3
        # draws at n = 64 to 96, 1.0 eps n and 0.9 eps n, and at n = 129,
        # 130 and 200, 0.79 eps n and 0.64 eps n.
        p = random_params(n, rng)
        cols = list(p.z_columns)
        for j in range(2, n + 1) if every else (n,):
            d = random_z(rng, j - 1)
            cols[j - 2] = rho * d / np.linalg.norm(d)
        p = CcskParams(p.thetas, tuple(cols))
        u = compose(p)
        assert unitarity_defect(u) <= 8 * EPS * n
        assert frobenius_norm(u - single_factor_compose(p)) <= 1e-13 * n


class TestNonCommutativity:
    # The ordered product is not the exponential of the summed generator.
    # Distance recorded from the oracle at first build (seed 12345, n=3).
    RECORDED_DISTANCE = 0.2910651412991706

    def test_fixed_seed_witness(self):
        p = random_params(3, RngState(12345))
        d = frobenius_norm(compose(p) - expm(assemble_generator(p)))
        assert d > 0.01
        assert d == pytest.approx(self.RECORDED_DISTANCE, abs=1e-12)
