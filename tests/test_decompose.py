import importlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsk.blockexp import _NB, _runs, compose
from ccsk.decompose import UNITARITY_TOL, _wrap_theta, decompose, roundtrip_error
from ccsk.linalg import _unitarity_defect, frobenius_norm, unitarity_defect
from ccsk.oracle import RngState, expm, random_params, random_unitary
from ccsk.params import CcskParams, assemble_generator, params_from_generator

from conftest import NON_FINITE_MATRICES, rejects_non_finite

# The module itself: the package exports the function under the same name.
decompose_module = importlib.import_module("ccsk.decompose")


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


def last_zero_pivot(p: CcskParams) -> int:
    """The largest j whose pivot |cos rho_j| is at most ZERO_PIVOT_TOL, or 0.

    decompose peels from j = n down, so column j is the first where the
    convention theta_j := 0 fires."""
    zero_tol = decompose_module.ZERO_PIVOT_TOL
    return max((j for j in range(2, p.n + 1) if math.cos(p.rho(j)) <= zero_tol), default=0)


def assert_params_back(p: CcskParams, q: CcskParams, tol: float):
    """q recovers p entry by entry.

    Where |cos rho_j| <= ZERO_PIVOT_TOL the convention theta_j := 0 fires and the
    parameters of the columns peeled after j (k < j) are no longer unique, so
    only rho_j and the parameters with k > j are compared. Elsewhere phases
    are read off pivots of size cos rho_j, so the tolerance is scaled by
    1 / min cos rho_j.
    """
    cos = [math.cos(p.rho(j)) for j in range(2, p.n + 1)]
    j0 = last_zero_pivot(p)
    if j0:
        assert abs(q.rho(j0) - p.rho(j0)) <= tol
    tol /= min(cos[j0 - 1:] if j0 else cos, default=1.0)
    np.testing.assert_allclose(q.thetas[j0:], p.thetas[j0:], rtol=0, atol=tol)
    for j in range(max(j0 + 1, 2), p.n + 1):
        np.testing.assert_allclose(q.z_column(j), p.z_column(j), rtol=0, atol=tol)


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
    @pytest.mark.parametrize("n", [3 * _NB - 1, 3 * _NB, 3 * _NB + 1, 200])
    def test_panel_edge_rows(self, n, first, last):
        # rho = pi/2 (theta_j := 0 fires) and rho = 0 (z_j := 0) on the first
        # and the last row peeled in each panel, the runs of _runs with
        # decompose's head 2 * _NB; n is around the first size with a
        # second run. theta_j is 0 wherever rho_j is pi/2, so every parameter
        # is defined and must come back.
        p = generic_params(n, n)
        thetas, cols = p.thetas.copy(), list(p.z_columns)
        for j0, j1 in _runs(n, 2 * _NB):
            for j, rho in ((j1, first), (j0, last)):
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
        gate = UNITARITY_TOL * n
        u[-1] *= 1 + 0.2 * gate
        assert 0.39 * gate <= unitarity_defect(u) <= 0.41 * gate
        q = decompose(u)
        assert frobenius_norm(compose(q) - u) <= 1e-9 * n

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 128), kind=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(0.0, 0.9))
    def test_perturbations(self, n, kind, seed, fraction):
        gate = UNITARITY_TOL * n
        a = perturbed(compose(random_params(n, RngState(seed))), kind, fraction * gate, seed)
        assert unitarity_defect(a) <= 0.9 * gate * (1 + 1e-6)
        q = decompose(a)
        assert q.is_canonical()
        assert frobenius_norm(compose(q) - a) <= 1e-9 * n


def at_defect(u: np.ndarray, kind: int, defect: float, seed: int) -> np.ndarray:
    """perturbed(u, kind, ..., seed) rescaled so that its unitarity defect is
    defect: the defect is linear in the size to first order."""
    a = perturbed(u, kind, defect, seed)
    return perturbed(u, kind, defect * defect / unitarity_defect(a), seed)


_gaussian = np.random.default_rng(128).standard_normal((2, 128, 128))
FAR_FROM_UNITARY = {
    "two_identity_3": 2 * np.eye(3, dtype=complex),
    "two_identity_200": 2 * np.eye(200, dtype=complex),
    "gaussian_128": _gaussian[0] + 1j * _gaussian[1],
    "entries_1e200": np.full((3, 3), 1e200, dtype=complex),
}


class TestOutsideTheGate:
    # Just outside unitarity_tol * n, in every direction perturbed() knows,
    # the gate must reject: the bound from the peel never accepts alone there.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 200), kind=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(1.05, 3.0))
    def test_perturbations(self, n, kind, seed, fraction):
        gate = UNITARITY_TOL * n
        a = at_defect(compose(random_params(n, RngState(seed))), kind, fraction * gate, seed)
        assert unitarity_defect(a) >= 1.04 * gate
        with pytest.raises(ValueError, match="not unitary"):
            decompose(a)

    # Far from unitary: the peel runs before the gate is decided, but the
    # error must still be the gate's, with no numpy warning on the way.
    @pytest.mark.parametrize("name", sorted(FAR_FROM_UNITARY))
    def test_gross(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="input is not unitary"):
                decompose(FAR_FROM_UNITARY[name])


class TestPanels:
    # decompose walks blockexp._runs(n, 2 * _NB) from the last run: each run
    # after the head is a panel whose rows above take one aggregated update.
    @pytest.mark.parametrize("n", [1, 2, 95, 96, 97, 128, 200])
    def test_aggregated_updates_follow_the_runs(self, n, monkeypatch):
        calls = []
        apply_factors = decompose_module._apply_factors

        def recorded(a, seg, j0):
            calls.append((j0, a.shape[1], a.shape[0]))
            apply_factors(a, seg, j0)

        monkeypatch.setattr(decompose_module, "_apply_factors", recorded)
        u = compose(random_params(n, RngState(n)))
        assert frobenius_norm(compose(decompose(u)) - u) <= 1e-13 * n
        assert calls == [(j0, j1, j0 - 1) for j0, j1 in reversed(_runs(n, 2 * _NB)[1:])]


def panel_rows(n: int) -> dict:
    """The first row the peel of column j updates: its panel's, or 0 in the head."""
    return {j: (j0 - 1 if j0 > 2 else 0)
            for j0, j1 in _runs(n, 2 * _NB) for j in range(j0, j1 + 1)}


class TestPeel:
    # Each peel hands the factor kernel the rho it read and the row itself:
    # z_j = kappa conj(row), so conj(z_j) = conj(kappa) row. A row that is
    # zero off the diagonal gives z_j = 0 and no kernel call.
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = decompose_module._apply_factor

        def recorded(x, z, v, c, rho, inverse):
            j = x.shape[1]
            row, pivot = x[-1, :-1], x[-1, -1]
            assert math.atan2(frobenius_norm(row), abs(pivot)) == rho  # the rho it read
            assert np.shares_memory(v, row) and v.shape == row.shape
            np.testing.assert_allclose(c * v, z.conj(), rtol=1e-15, atol=0)
            assert abs(frobenius_norm(z) - rho) <= 4 * EPS * rho
            calls.append((j, x.shape[0], inverse))
            kernel(x, z, v, c, rho, inverse)

        monkeypatch.setattr(decompose_module, "_apply_factor", recorded)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 8, 96, 128])
    def test_one_call_per_nonzero_row(self, n, kernel_calls):
        u = compose(random_params(n, RngState(n)))
        q = decompose(u)
        assert frobenius_norm(compose(q) - u) <= 1e-13 * n
        lo = panel_rows(n)
        assert kernel_calls == [(j, j - lo[j], True) for j in range(n, 1, -1)]

    @pytest.mark.parametrize("n", [2, 8, 96, 128])
    def test_zero_last_row_skips_its_column(self, n, kernel_calls):
        # z_n = 0: row n of the composed matrix is exactly e^{i theta_n} e_n.
        p = with_rho(random_params(n, RngState(n)), n, 0.0)
        q = decompose(compose(p))
        assert not q.z_column(n).any()
        lo = panel_rows(n)
        assert kernel_calls == [(j, j - lo[j], True) for j in range(n - 1, 1, -1)]

    @pytest.mark.parametrize("n", [1, 2, 8, 96, 128])
    def test_identity_and_phases_call_nothing(self, n, kernel_calls):
        phases = np.exp(1j * np.linspace(-3.0, 3.0, n))
        for u in (np.eye(n, dtype=complex), np.diag(phases)):
            q = decompose(u)
            assert not q.z.any()
        assert kernel_calls == []


@pytest.fixture
def defect_calls(monkeypatch):
    """Count decompose's calls of the exact unitarity defect."""
    calls = []

    def counted(u):
        calls.append(u.shape[0])
        return _unitarity_defect(u)

    monkeypatch.setattr(decompose_module, "_unitarity_defect", counted)
    return calls


class TestGateCertificate:
    # After the peel m = D + R, and defect(u) <= 2 ||R|| + ||R||^2 plus
    # rounding. decompose computes the exact defect only when that bound
    # exceeds half the gate.
    @pytest.mark.parametrize("n", [1, 8, 128, 200])
    def test_unitary_input_takes_the_bound(self, n, defect_calls):
        for seed in range(3):
            decompose(compose(random_params(n, RngState(seed))))
        decompose(random_unitary(n, RngState(n)))
        assert defect_calls == []

    @pytest.mark.parametrize("kind", range(4))
    @pytest.mark.parametrize("n", [2, 8, 33, 128, 200])
    def test_near_the_gate_computes_the_defect(self, n, kind, defect_calls):
        gate = UNITARITY_TOL * n
        a = at_defect(compose(random_params(n, RngState(n + kind))), kind, 0.9 * gate, n)
        q = decompose(a)
        assert defect_calls == [n]
        assert frobenius_norm(compose(q) - a) <= 1e-9 * n

    @pytest.mark.parametrize("n", [8, 200])
    def test_tight_tolerance_computes_the_defect(self, n, defect_calls):
        # Half of a gate of 1e-15 n does not cover the peel's rounding, so
        # the bound is not trusted and the decision is the exact defect's.
        u = compose(random_params(n, RngState(n)))
        if unitarity_defect(u) <= 1e-15 * n:
            decompose(u, unitarity_tol=1e-15)
        else:
            with pytest.raises(ValueError, match="not unitary"):
                decompose(u, unitarity_tol=1e-15)
        assert defect_calls == [n]


EPS = np.finfo(float).eps


def skew_perturbed(u: np.ndarray, size: float, seed: int) -> np.ndarray:
    """u (I + t S) with S anti-Hermitian: unitary to first order in t, and t
    chosen so that the defect, t^2 ||S^2||_F, is size."""
    g = np.random.default_rng(seed)
    n = u.shape[0]
    s = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    s -= s.conj().T
    return u + u @ s * math.sqrt(size / frobenius_norm(s @ s))


class TestAcceptanceImpliesThePeel:
    # The gate is decompose's one acceptance test. Whatever it accepts, the
    # peel inverts to within the defect: the residue R it leaves has ||R||_F
    # <= defect / sqrt(2) + rounding, and the roundtrip error is ||R||_F.
    # The largest ratio seen over these families is 0.71 (defect + eps
    # n^{3/2}).
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 200), kind=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(0.0, 0.99))
    def test_roundtrip_within_the_defect(self, n, kind, seed, fraction):
        gate = UNITARITY_TOL * n
        u = compose(random_params(n, RngState(seed)))
        if kind < 4:
            a = perturbed(u, kind, fraction * gate, seed)
        elif kind == 4:
            a = skew_perturbed(u, fraction * gate, seed)
        else:
            a = u
        defect = unitarity_defect(a)
        assert defect <= gate
        assert roundtrip_error(a) <= defect + 2 * EPS * n ** 1.5


class TestTightTolerance:
    # The defect of a permutation is exactly 0, so it passes every gate; the
    # peel's own rounding (about eps) must not make decompose refuse it.
    @pytest.mark.parametrize("n", [2, 3, 40, 200])
    def test_permutation_accepted(self, n):
        a = np.roll(np.eye(n, dtype=complex), 1, axis=0)
        assert unitarity_defect(a) == 0.0
        assert roundtrip_error(a, unitarity_tol=1e-20) <= 8 * EPS * n


class TestRoundingScale:
    # Accuracy at the scale of rounding, over the chart edges: rho_j = 0,
    # log-uniform down to 1e-16, and pi/2. The largest values seen are 1.33
    # eps n for the defect and 1.45 eps n for the roundtrip error.
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(2, 200), k=st.integers(0, 199), seed=st.integers(0, 2**32 - 1),
           rho=st.one_of(st.just(0.0), st.just(math.pi / 2),
                         st.floats(math.log(1e-16), math.log(math.pi / 2)).map(math.exp)))
    def test_defect_and_roundtrip(self, n, k, seed, rho):
        j = 2 + k % (n - 1)
        u = compose(with_rho(generic_params(seed, n), j, min(rho, math.pi / 2)))
        assert unitarity_defect(u) <= 8 * EPS * n
        assert frobenius_norm(compose(decompose(u)) - u) <= 8 * EPS * n

    # The parameters themselves: theta_j (wrapped) and z_j come back to within
    # 2 eps n kappa_j, where kappa_j = max 1 / cos rho_k over the columns
    # k >= j peeled up to j (kappa_1 over all of them). A phase is read off a
    # pivot of size cos rho_k, and an error made there passes on to every
    # later column, so 1 / cos rho_j of column j alone is not enough: it was
    # exceeded up to 6e8-fold. The largest values seen are 0.29 eps n kappa_j
    # for theta and 0.25 eps n kappa_j for z (2800 draws, n = 2 ... 200). The
    # columns up to the last zero pivot are not unique and are skipped.
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(2, 200), k=st.integers(0, 199), seed=st.integers(0, 2**32 - 1),
           rho=st.one_of(st.just(0.0), st.just(math.pi / 2),
                         st.floats(math.log(1e-16), math.log(math.pi / 2)).map(math.exp),
                         st.floats(math.log(1e-10), math.log(0.1)).map(
                             lambda log_d: math.pi / 2 - math.exp(log_d))))
    def test_parameters(self, n, k, seed, rho):
        p = with_rho(generic_params(seed, n), 2 + k % (n - 1), min(rho, math.pi / 2))
        q = decompose(compose(p))
        kappa = 1.0
        for j in range(n, last_zero_pivot(p), -1):
            if j > 1:
                kappa = max(kappa, 1 / math.cos(p.rho(j)))
                assert frobenius_norm(q.z_column(j) - p.z_column(j)) <= 2 * EPS * n * kappa
            theta_error = abs(math.remainder(q.thetas[j - 1] - p.thetas[j - 1], 2 * math.pi))
            assert theta_error <= 2 * EPS * n * kappa


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


class TestWrapTheta:
    # decompose wraps each theta it reads onto (-pi, pi].
    def test_wraps_3pi_to_pi(self):
        assert _wrap_theta(3 * math.pi) == pytest.approx(math.pi)

    def test_minus_pi_maps_to_pi(self):
        assert _wrap_theta(-math.pi) == pytest.approx(math.pi)

    def test_in_range_unchanged(self):
        assert _wrap_theta(0.3) == 0.3

    def test_compose_invariant(self, rng):
        p = random_params(4, rng)
        wrapped = CcskParams(np.array([_wrap_theta(t) for t in p.thetas + 2 * math.pi]), p.z)
        assert frobenius_norm(compose(wrapped) - compose(p)) <= 1e-13


class TestDecomposeOptions:
    # The one option of decompose and roundtrip_error is the keyword
    # unitarity_tol, a number in (0, 1).
    @pytest.mark.parametrize("f", [decompose, roundtrip_error])
    @pytest.mark.parametrize("tol", [0.0, 1.0, -1e-10, math.nan])
    def test_tolerances_validated(self, f, tol):
        with pytest.raises(ValueError, match=r"unitarity_tol must be in \(0, 1\), got "):
            f(np.eye(2), unitarity_tol=tol)

    @pytest.mark.parametrize("f", [decompose, roundtrip_error])
    def test_keyword_only(self, f):
        with pytest.raises(TypeError):
            f(np.eye(2), 1e-8)
        f(np.eye(2), unitarity_tol=1e-8)
