import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsk.blockexp import _NB, _NX_PEEL, compose
from ccsk.decompose import (DecomposeOptions, decompose, normalize_thetas,
                            roundtrip_error)
from ccsk.linalg import frobenius_norm, unitarity_defect
from ccsk.oracle import RngState, expm, random_params, random_unitary
from ccsk.params import CcskParams, assemble_generator, params_from_generator

from conftest import NON_FINITE_MATRICES, rejects_non_finite


def params_close(a: CcskParams, b: CcskParams, tol: float) -> bool:
    if a.n != b.n or np.max(np.abs(a.thetas - b.thetas)) > tol:
        return False
    return all(np.max(np.abs(x - y)) <= tol if len(x) else True
               for x, y in zip(a.z_columns, b.z_columns))


class TestDecompose:
    def test_identity(self):
        p = decompose(np.eye(4, dtype=complex))
        assert np.all(p.thetas == 0)
        assert all(p.rho(j) == 0 for j in range(2, 5))

    def test_diagonal_phases(self):
        u = np.diag(np.exp(1j * np.array([0.4, -1.2])))
        p = decompose(u)
        np.testing.assert_allclose(p.thetas, [0.4, -1.2], atol=1e-15)
        assert p.rho(2) == 0.0

    def test_quarter_turn(self):
        u = np.array([[0, 1], [-1, 0]], dtype=complex)
        p = decompose(u)
        np.testing.assert_allclose(p.thetas, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(p.z_column(2), [math.pi / 2], atol=1e-15)
        assert frobenius_norm(compose(p) - u) <= 1e-15

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            decompose(np.zeros((2, 3), dtype=complex))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            decompose(2 * np.eye(3, dtype=complex))

    def test_canonical_output(self, rng):
        for n in (2, 5, 9):
            p = decompose(random_unitary(n, rng))
            assert p.is_canonical()

    def test_parameter_level_roundtrip_generic_position(self, rng):
        # rho bounded away from both degenerate ends, thetas off the branch cut
        for n in (2, 4, 7):
            p = random_params(n, rng)
            thetas = np.clip(p.thetas, -math.pi + 0.1, math.pi - 0.1)
            cols = tuple(
                (0.1 + (math.pi / 2 - 0.2) * (np.linalg.norm(z) / (math.pi / 2)))
                * z / np.linalg.norm(z)
                for z in p.z_columns)
            p = CcskParams(thetas, cols)
            q = decompose(compose(p))
            assert params_close(p, q, 1e-9)

    def test_idempotent(self, rng):
        u = random_unitary(6, rng)
        p = decompose(u)
        q = decompose(compose(p))
        assert params_close(p, q, 1e-9)


def generic_params(seed: int, n: int) -> CcskParams:
    """Thetas off the branch cut, every rho_j in [0.1, pi/2 - 0.1]."""
    g = np.random.default_rng(seed)
    thetas = g.uniform(-math.pi + 0.1, math.pi - 0.1, n)
    cols = []
    for j in range(2, n + 1):
        d = g.standard_normal(j - 1) + 1j * g.standard_normal(j - 1)
        cols.append(g.uniform(0.1, math.pi / 2 - 0.1) * d / np.linalg.norm(d))
    return CcskParams(thetas, tuple(cols))


def with_rho(p: CcskParams, j: int, rho: float) -> CcskParams:
    """p with column j rescaled to norm rho (direction kept)."""
    cols = list(p.z_columns)
    cols[j - 2] = rho * cols[j - 2] / np.linalg.norm(cols[j - 2])
    return CcskParams(p.thetas, tuple(cols))


def assert_params_back(p: CcskParams, q: CcskParams, tol: float):
    """q recovers p entry by entry.

    Where |cos rho_j| <= zero_tol the convention theta_j := 0 fires and the
    parameters of the columns peeled after j (k < j) are no longer unique, so
    only rho_j and the parameters with k > j are compared. Elsewhere phases
    are read off pivots of size cos rho_j, so the tolerance is scaled by
    1 / min cos rho_j.
    """
    zero_tol = DecomposeOptions().zero_tol
    cos = [math.cos(p.rho(j)) for j in range(2, p.n + 1)]
    j0 = max((j for j in range(2, p.n + 1) if cos[j - 2] <= zero_tol), default=0)
    if j0:
        assert abs(q.rho(j0) - p.rho(j0)) <= tol
    tol /= min(cos[j0 - 1:] if j0 else cos, default=1.0)
    np.testing.assert_allclose(q.thetas[j0:], p.thetas[j0:], rtol=0, atol=tol)
    for j in range(max(j0 + 1, 2), p.n + 1):
        np.testing.assert_allclose(q.z_column(j), p.z_column(j), rtol=0, atol=tol)


def peel_panels(n: int) -> list:
    """(first, last) row that decompose peels in each of its panels."""
    panels, top = [], n
    while top > 1:
        lo = top - _NB if top - _NB >= _NX_PEEL else 0
        panels.append((top, max(lo + 1, 2)))
        top = lo
    return panels


class TestChartEdges:
    # Below about sqrt(eps), cos(rho) rounds to 1, so a rho_j read from the
    # pivot alone is lost. rho_j in (1e-9, 1.5e-8] is where that once made the
    # peel fail on exactly unitary input; it is sampled explicitly.
    @pytest.mark.parametrize("n", [2, 6, 32])
    @pytest.mark.parametrize("rho", np.geomspace(1.0001e-9, 1.5e-8, 6))
    def test_small_rho_window(self, n, rho):
        for j in sorted({2, (n + 2) // 2, n}):
            p = with_rho(generic_params(j, n), j, rho)
            q = decompose(compose(p))
            assert_params_back(p, q, 1e-13 * n)
            assert abs(q.rho(j) - rho) <= 1e-4 * rho

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 8), k=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
           log_rho=st.floats(math.log(1e-16), math.log(math.pi / 2)))
    def test_log_uniform_rho(self, n, k, seed, log_rho):
        j = 2 + k % (n - 1)
        p = with_rho(generic_params(seed, n), j, min(math.exp(log_rho), math.pi / 2))
        u = compose(p)
        q = decompose(u)
        assert q.is_canonical()
        assert frobenius_norm(compose(q) - u) <= 1e-13 * n
        assert_params_back(p, q, 1e-13 * n)

    @pytest.mark.parametrize("n, j", [(2, 2), (5, 3), (5, 5)])
    def test_quarter_turn_column(self, n, j):
        # At rho_j = pi/2 the pivot vanishes and theta_j is undefined: the
        # convention theta_j := 0 fires and z_j absorbs the phase.
        p = with_rho(generic_params(7, n), j, math.pi / 2)
        u = compose(p)
        q = decompose(u)
        assert q.is_canonical()
        assert frobenius_norm(compose(q) - u) <= 1e-13 * n
        assert q.thetas[j - 1] == 0.0
        phase = np.exp(-1j * p.thetas[j - 1])
        np.testing.assert_allclose(q.z_column(j), phase * p.z_column(j), rtol=0, atol=1e-13)
        assert_params_back(p, q, 1e-13 * n)
        # With theta_j = 0 already, nothing is lost: every parameter comes back.
        thetas = p.thetas.copy()
        thetas[j - 1] = 0.0
        p0 = CcskParams(thetas, p.z_columns)
        q0 = decompose(compose(p0))
        assert params_close(p0, q0, 1e-13 * n)

    @pytest.mark.parametrize("first, last", [(math.pi / 2, 0.0), (0.0, math.pi / 2)])
    @pytest.mark.parametrize("n", [_NX_PEEL + _NB - 1, _NX_PEEL + _NB, _NX_PEEL + _NB + 1, 200])
    def test_panel_edge_rows(self, n, first, last):
        # rho = pi/2 (theta_j := 0 fires) and rho = 0 (z_j := 0) on the first
        # and the last row peeled in each panel. theta_j is 0 wherever rho_j
        # is pi/2, so every parameter is defined and must come back.
        p = generic_params(n, n)
        thetas, cols = p.thetas.copy(), list(p.z_columns)
        for top, bottom in peel_panels(n):
            for j, rho in ((top, first), (bottom, last)):
                if rho:
                    cols[j - 2] *= rho / np.linalg.norm(cols[j - 2])
                    thetas[j - 1] = 0.0
                else:
                    cols[j - 2] = np.zeros(j - 1, dtype=complex)
        p = CcskParams(thetas, tuple(cols))
        u = compose(p)
        q = decompose(u)
        assert q.is_canonical()
        assert frobenius_norm(compose(q) - u) <= 1e-13 * n
        assert params_close(p, q, 1e-13 * n)

    def test_near_identity(self):
        # expm(eps X) agrees with the product map to O(eps^2), so its
        # parameters are those of eps X to about 1e-18.
        x = 1e-9 * assemble_generator(random_params(6, RngState(606)))
        u = expm(x)
        q = decompose(u)
        assert params_close(q, params_from_generator(x), 1e-15)
        assert frobenius_norm(compose(q) - u) <= 1e-14


def perturbed(u: np.ndarray, kind: int, size: float, seed: int) -> np.ndarray:
    """u off the unitary group by a perturbation whose defect is at most about size."""
    g = np.random.default_rng(seed)
    n = u.shape[0]
    a = u.copy()
    if kind == 0:  # one row scaled: defect 2e + e^2
        a[g.integers(n)] *= 1 + size / 2
    elif kind == 1:  # one column scaled
        a[:, g.integers(n)] *= 1 + size / 2
    elif kind == 2:  # u (I + e H), H Hermitian: defect about 2 e ||H||
        h = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        h += h.conj().T
        a += u @ h * (size / (2 * frobenius_norm(h)))
    else:  # any additive error; only its Hermitian part counts towards the defect
        e = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        a += e * (size / (2 * frobenius_norm(e)))
    return a


class TestInsideTheGate:
    # decompose accepts every input whose unitarity defect is within
    # unitarity_tol * n; the peel must then not reject it either.
    @pytest.mark.parametrize("n", [128, 200])
    def test_scaled_last_row(self, n):
        u = compose(random_params(n, RngState(1)))
        gate = DecomposeOptions().unitarity_tol * n
        u[-1] *= 1 + 0.2 * gate
        assert 0.39 * gate <= unitarity_defect(u) <= 0.41 * gate
        q = decompose(u)
        assert frobenius_norm(compose(q) - u) <= 1e-9 * n

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 128), kind=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(0.0, 0.9))
    def test_perturbations(self, n, kind, seed, fraction):
        gate = DecomposeOptions().unitarity_tol * n
        a = perturbed(compose(random_params(n, RngState(seed))), kind, fraction * gate, seed)
        assert unitarity_defect(a) <= 0.9 * gate * (1 + 1e-6)
        q = decompose(a)
        assert q.is_canonical()
        assert frobenius_norm(compose(q) - a) <= 1e-9 * n


class TestRoundtripError:
    def test_identity(self):
        assert roundtrip_error(np.eye(5, dtype=complex)) <= 1e-15

    def test_composed_params_n8(self, rng):
        u = compose(random_params(8, rng))
        assert roundtrip_error(u) <= 1e-10

    def test_random_unitary_n16(self, rng):
        assert roundtrip_error(random_unitary(16, rng)) <= 1e-9 * 16


class TestDegenerateInputs:
    def test_signed_permutations_4x4(self):
        n = 4
        count = 0
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1.0, -1.0), repeat=n):
                u = np.zeros((n, n), dtype=complex)
                for i, (j, s) in enumerate(zip(perm, signs)):
                    u[i, j] = s
                assert roundtrip_error(u) <= 1e-9 * n
                count += 1
        assert count == 384

    def test_off_diagonal_phase(self):
        u = np.array([[0, 1j], [1j, 0]], dtype=complex)
        p = decompose(u)
        assert p.is_canonical()
        assert frobenius_norm(compose(p) - u) <= 1e-14


class TestNonFiniteInput:
    # The defect of such a matrix is nan, which passed the gate `defect > gate`;
    # the peel then ran on nan and CcskParams blamed the thetas.
    @pytest.mark.parametrize("name", sorted(NON_FINITE_MATRICES))
    def test_decompose_rejects(self, name):
        with rejects_non_finite("decompose requires finite entries"):
            decompose(NON_FINITE_MATRICES[name])

    @pytest.mark.parametrize("name", sorted(NON_FINITE_MATRICES))
    def test_roundtrip_error_rejects(self, name):
        with rejects_non_finite("decompose requires finite entries"):
            roundtrip_error(NON_FINITE_MATRICES[name])


class TestNormalizeThetas:
    def test_wraps_3pi_to_pi(self):
        p = normalize_thetas(CcskParams(np.array([3 * math.pi])))
        assert p.thetas[0] == pytest.approx(math.pi)

    def test_minus_pi_maps_to_pi(self):
        p = normalize_thetas(CcskParams(np.array([-math.pi])))
        assert p.thetas[0] == pytest.approx(math.pi)

    def test_in_range_unchanged(self):
        p = normalize_thetas(CcskParams(np.array([0.3])))
        assert p.thetas[0] == 0.3

    def test_compose_invariant(self, rng):
        p = random_params(4, rng)
        shifted = CcskParams(p.thetas + 2 * math.pi, p.z_columns)
        q = normalize_thetas(shifted)
        assert frobenius_norm(compose(q) - compose(p)) <= 1e-13


class TestDecomposeOptions:
    def test_tolerances_validated(self):
        with pytest.raises(ValueError):
            DecomposeOptions(unitarity_tol=0.0)
        with pytest.raises(ValueError):
            DecomposeOptions(zero_tol=1.5)
