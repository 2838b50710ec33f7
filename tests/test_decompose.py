import cmath
import importlib
import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ccsk
from ccsk.blockexp import compose
from ccsk.decompose import UNITARITY_TOL, ZERO_PIVOT_TOL, decompose, roundtrip_error
from ccsk.linalg import frobenius_norm, unitarity_defect
from ccsk.oracle import RngState, expm, random_params
from ccsk.params import CcskParams, assemble_generator, z_offset

from conftest import NON_FINITE_MATRICES, panels, record_peel

# The module itself: the package exports the function under the same name.
decompose_module = importlib.import_module("ccsk.decompose")
_NB = decompose_module._NB


def test_package_attribute_stays_the_function():
    # In a fresh interpreter, neither import route to the module (the one
    # perfbench takes and importlib's) may rebind ccsk.decompose to it.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ccsk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import importlib, types\n"
            "import ccsk\n"
            "from ccsk.decompose import decompose\n"
            "importlib.import_module('ccsk.decompose')\n"
            "assert isinstance(ccsk.decompose, types.FunctionType), ccsk.decompose\n"
            "assert ccsk.decompose is decompose\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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
            p = decompose(compose(random_params(n, rng)))
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
        u = compose(random_params(6, rng))
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

    def test_theta_1_takes_the_zero_pivot_convention(self):
        # theta_1 is read as every theta_j is: a pivot of modulus below
        # ZERO_PIVOT_TOL, which only a loose unitarity_tol admits, has a phase
        # of noise, so 0.
        u = np.diag([0.5 * decompose_module.ZERO_PIVOT_TOL * cmath.exp(0.5j), 1.0])
        assert decompose(u, unitarity_tol=0.99).thetas[0] == 0.0

    @pytest.mark.parametrize("n", [2, 5])
    def test_small_pivot_keeps_its_phase(self, n):
        # A pivot of 1e-13 (rho_n = pi/2 - 1e-13) is the input's, not noise:
        # its phase is read, so the matrix round-trips at the rounding level.
        # Setting theta_n := 0 there would leave a residue of about 1e-13.
        p = with_rho(generic_params(11, n), n, math.pi / 2 - 1e-13)
        thetas = p.thetas.copy()
        thetas[n - 1] = 1.0
        p = CcskParams(thetas, p.z_columns)
        u = compose(p)
        q = decompose(u)
        assert frobenius_norm(compose(q) - u) <= 8 * EPS * n
        assert abs(math.remainder(q.thetas[n - 1] - p.thetas[n - 1], 2 * math.pi)) <= 1e-2

    @pytest.mark.parametrize("first, last", [(math.pi / 2, 0.0), (0.0, math.pi / 2)])
    @pytest.mark.parametrize("n", [63, 64, 65, 95, 96, 97, 200])
    def test_panel_edge_rows(self, n, first, last):
        # rho = pi/2 (theta_j := 0 fires) and rho = 0 (z_j := 0) on the first
        # and the last row peeled in each panel (row 2 for the head); n is
        # around the sizes with a second and a third panel. theta_j is 0
        # wherever rho_j is pi/2, so every parameter is defined and must
        # come back.
        p = generic_params(n, n)
        thetas, cols = p.thetas.copy(), list(p.z_columns)
        for lo, j1 in panels(n):
            for j, rho in ((j1, first), (max(lo + 1, 2), last)):
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
        p = random_params(6, RngState(606))
        u = expm(1e-9 * assemble_generator(p))
        q = decompose(u)
        assert params_close(q, CcskParams(1e-9 * p.thetas, 1e-9 * p.z), 1e-15)
        assert frobenius_norm(compose(q) - u) <= 1e-14

    @pytest.mark.parametrize("n", [2, 5, 100])
    @pytest.mark.parametrize("rho", [1e-170, 1e-300])
    def test_row_norm_underflow_keeps_z(self, n, rho):
        # Below rho_j of about 1.5e-162, ||row||^2 underflows to 0 though the
        # row's entries do not; z_j must still come back to relative
        # precision, not as the zero of an exactly zero row. The other
        # columns are zero, so that no rounding of O(eps) reaches the row.
        g = np.random.default_rng(n)
        for j in sorted({2, (n + 2) // 2, n}):
            cols = [np.zeros(k - 1, dtype=complex) for k in range(2, n + 1)]
            d = g.standard_normal(j - 1) + 1j * g.standard_normal(j - 1)
            cols[j - 2] = rho * d / np.linalg.norm(d)
            p = CcskParams(g.uniform(-3.0, 3.0, n), tuple(cols))
            q = decompose(compose(p))
            want = p.z_column(j)
            assert np.max(np.abs(q.z_column(j) - want)) <= 4 * EPS * np.max(np.abs(want))
            np.testing.assert_allclose(q.thetas, p.thetas, rtol=0, atol=4 * EPS)


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
    # rho_2 = atan2(1e-170, 1e154) underflows to 0 while the rescaled s is 1e-170.
    "rho_underflows_2": np.array([[1, 0], [1e-170, 1e154]], dtype=complex),
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

    # The refusal names the test that decided it and both of its numbers:
    # the exact defect, ||(2 I)^H (2 I) - I||_F = 3 sqrt(3) at n = 3, or the
    # norm that overflowed, against the gate 1e-10 * 3.
    @pytest.mark.parametrize("name, test", [
        ("two_identity_3", "the defect ||u^H u - I||_F = 5.196e+00"),
        ("entries_1e200",
         "the Frobenius norm of u overflows, so the defect ||u^H u - I||_F = inf"),
    ])
    def test_message_names_the_deciding_test(self, name, test):
        with pytest.raises(ValueError) as exc:
            decompose(FAR_FROM_UNITARY[name])
        assert str(exc.value) == (f"input is not unitary: {test} exceeds "
                                  f"unitarity_tol * n = 3.000e-10")


class TestPanels:
    # decompose peels _NB rows at a time from row n down, each factor
    # applied at once to its panel's rows; the rows above a panel then take
    # its factors as one block, whose vt holds the panel's w_j.
    # The sizes are TestRuns::test_table's, where panels(n) is pinned to a
    # literal table.
    @pytest.mark.parametrize("n", [1, 2, 32, 33, 34, 63, 64, 65, 95, 96, 97, 127, 128, 129, 200])
    def test_aggregated_updates_follow_the_runs(self, n, monkeypatch):
        calls = record_peel(monkeypatch)
        u = compose(random_params(n, RngState(n)))
        assert frobenius_norm(compose(decompose(u)) - u) <= 1e-13 * n
        # Each panel's factors, j1 down to row 2, each updating the panel's
        # rows from lo, then its block, if rows lie above it.
        want = []
        for lo, j1 in panels(n):
            want += [("factor", lo, j) for j in range(j1, max(lo, 1), -1)]
            want += [("block", lo, j1)] if lo else []
        assert [call[:3] for call in calls] == want

    @pytest.mark.parametrize("n", [64, 96, 128, 200])
    def test_block_rows_are_the_kernel_reflectors(self, n, monkeypatch):
        # Row j1 - j of each block's vt is, bit for bit, the w_j the factor
        # kernel applied, and zero where no kernel ran: rows 2, 40, n - _NB +
        # 1 (the last of the first panel) and n are zero off the diagonal.
        calls = record_peel(monkeypatch)
        skipped = {2, 40, n - _NB + 1, n}
        keep = [i for i in range(n) if i + 1 not in skipped]
        u = np.diag(np.exp(1j * np.arange(n)))
        u[np.ix_(keep, keep)] = compose(random_params(len(keep), RngState(n)))
        assert frobenius_norm(compose(decompose(u)) - u) <= 1e-13 * n
        ws = {j: w for kind, _, j, w in calls if kind == "factor"}
        assert sorted(ws) == [j for j in range(2, n + 1) if j not in skipped]
        blocks = [(lo, j1, vt) for kind, lo, j1, vt in calls if kind == "block"]
        assert [(lo, j1) for lo, j1, _ in blocks] == panels(n)[:-1]
        for lo, j1, vt in blocks:
            assert vt.shape == (j1 - lo, j1)
            for j in range(j1, lo, -1):
                want = np.zeros(j1, dtype=complex)
                if j in ws:
                    want[:j] = ws[j]
                assert vt[j1 - j].tobytes() == want.tobytes()


def panel_rows(n: int) -> dict:
    """The first row the peel of column j updates: lo of its panel."""
    return {j: lo for lo, j1 in panels(n) for j in range(lo + 1, j1 + 1)}


class TestPeel:
    # Each peel hands the factor kernel the rows to update and w_j, the unit
    # vector of the z_j and rho_j it just read from row j: z_j = -e^{i
    # theta_j} rho_j conj(row) / ||row||. A row that is zero off the diagonal
    # gives z_j = 0 and no kernel call.
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = decompose_module._apply_factor

        def recorded(x, w):
            j = x.shape[1]
            row, pivot = x[-1, :-1], x[-1, -1]
            s = frobenius_norm(row)
            rho = math.atan2(s, abs(pivot))  # the rho it read
            theta = cmath.phase(pivot) if abs(pivot) > decompose_module.ZERO_PIVOT_TOL else 0.0
            z = -cmath.exp(1j * theta) * rho / s * row.conj()
            assert w.shape == (j,) and w[-1] == math.cos(0.5 * rho)
            half = 0.5 * rho
            np.testing.assert_allclose(w[:-1], -0.5 * math.sin(half) / half * z,
                                       rtol=4 * EPS, atol=0)
            assert abs(frobenius_norm(w) - 1.0) <= 2 * EPS
            calls.append((j, x.shape[0]))
            kernel(x, w)

        monkeypatch.setattr(decompose_module, "_apply_factor", recorded)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 8, 96, 128])
    def test_one_call_per_nonzero_row(self, n, kernel_calls):
        u = compose(random_params(n, RngState(n)))
        q = decompose(u)
        assert frobenius_norm(compose(q) - u) <= 1e-13 * n
        lo = panel_rows(n)
        assert kernel_calls == [(j, j - lo[j]) for j in range(n, 1, -1)]

    @pytest.mark.parametrize("n", [2, 8, 96, 128])
    def test_zero_last_row_skips_its_column(self, n, kernel_calls):
        # z_n = 0: row n of the composed matrix is exactly e^{i theta_n} e_n.
        p = with_rho(random_params(n, RngState(n)), n, 0.0)
        q = decompose(compose(p))
        assert not q.z_column(n).any()
        lo = panel_rows(n)
        assert kernel_calls == [(j, j - lo[j]) for j in range(n - 1, 1, -1)]

    @pytest.mark.parametrize("n", [1, 2, 8, 96, 128, 200])
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
        return unitarity_defect(u)

    monkeypatch.setattr(decompose_module, "unitarity_defect", counted)
    return calls


class TestGateCertificate:
    # After the peel m = D + R, and defect(u) <= 2 ||R|| + ||R||^2 plus
    # rounding. decompose computes the exact defect only when that bound
    # exceeds half the gate.
    @pytest.mark.parametrize("n", [1, 8, 128, 200])
    def test_unitary_input_takes_the_bound(self, n, defect_calls):
        for seed in range(3):
            decompose(compose(random_params(n, RngState(seed))))
        decompose(compose(random_params(n, RngState(n))))
        assert defect_calls == []

    @pytest.mark.parametrize("n, j", [(8, 5), (128, 100), (200, 150)])
    def test_signed_phases_take_the_bound(self, n, j, defect_calls):
        # The peel leaves m = D' + R with -e^{i theta_k} on D' where the
        # kernel ran and e^{i theta_k} where it did not: row 1 and rows zero
        # off the diagonal. Row j of the last input is zero off the diagonal
        # inside the head (n = 8) or inside an aggregated panel (n = 128,
        # 200), and stays so exactly through the peel. A wrong sign on any
        # such row puts 2 into R, and the exact defect would be computed.
        v = np.eye(n, dtype=complex)
        rest = np.arange(n) != j - 1
        v[np.ix_(rest, rest)] = compose(random_params(n - 1, RngState(n)))
        v[j - 1, j - 1] = cmath.exp(0.7j)
        for u in (np.eye(n), np.diag(np.exp(1j * np.linspace(-3.0, 3.0, n))),
                  np.roll(np.eye(n), 1, axis=0), v):
            q = decompose(u)
            assert frobenius_norm(compose(q) - u) <= 8 * EPS * n
        assert not q.z_column(j).any()
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
    # n^{3/2}). The examples, one column scaled to 0.99 of the gate, read
    # 0.697, 0.702 and 0.704; there an elimination on (J u J)^H gated by the
    # exact defect, the LU form of the same map (TestEliminationIdentity),
    # returns a roundtrip 1.10 to 1.15 times this allowance.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 200), kind=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(0.0, 0.99))
    @example(n=64, kind=1, seed=11, fraction=0.99)
    @example(n=128, kind=1, seed=11, fraction=0.99)
    @example(n=194, kind=1, seed=11, fraction=0.99)
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


def eliminate(u: np.ndarray) -> tuple:
    """README's identity for the peel, as a reference: with B = (J u J)^H, J
    the reversal, column k of B read like row j = n - k of the peel gives
    theta_j and z_j, then B's trailing block takes the rank-1 update with
    multipliers tail e^{i theta_j} / (1 + |pivot|). Returns (thetas, z)."""
    n = u.shape[0]
    b = u[::-1, ::-1].conj().T
    thetas = np.zeros(n)
    z = np.zeros(z_offset(n + 1), dtype=complex)
    for k in range(n):
        j = n - k
        pivot, tail = b[k, k], b[k + 1:, k]
        c, s = abs(pivot), np.linalg.norm(tail)
        thetas[j - 1] = -cmath.phase(pivot) if c > ZERO_PIVOT_TOL else 0.0
        if s:
            phase = cmath.exp(1j * thetas[j - 1])
            z[z_offset(j):z_offset(j + 1)] = tail[::-1] * (-phase * math.atan2(s, c) / s)
            b[k + 1:, k + 1:] -= np.outer(tail * (phase / (1 + c)), b[k, k + 1:])
    return thetas, z


class TestEliminationIdentity:
    # The peel computes the modified LU of Ballard et al. (IPDPS 2014), with
    # phases in place of signs: the reference elimination gives decompose's
    # parameters to rounding, on compose outputs with columns 2, (n + 2) // 2
    # and n at rho = 0 or pi/2.
    @pytest.mark.parametrize("rho", [0.0, math.pi / 2])
    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    def test_matches_the_peel(self, n, rho):
        p = random_params(n, RngState(n))
        z = p.z.copy()
        for j in {2, (n + 2) // 2, n}:
            col = z[z_offset(j):z_offset(j + 1)]
            col *= rho / np.linalg.norm(col)
        u = compose(CcskParams(p.thetas, z))
        q = decompose(u)
        thetas, z = eliminate(u)
        assert np.max(np.abs(np.angle(np.exp(1j * (thetas - q.thetas))))) <= 1e-13
        assert np.max(np.abs(z - q.z)) <= 1e-13


class TestTightTolerance:
    # The defect of a permutation is exactly 0, so it passes every gate; the
    # peel's own rounding (about eps) must not make decompose refuse it.
    @pytest.mark.parametrize("n", [2, 3, 40, 200])
    def test_permutation_accepted(self, n):
        a = np.roll(np.eye(n, dtype=complex), 1, axis=0)
        assert unitarity_defect(a) == 0.0
        assert roundtrip_error(a, unitarity_tol=1e-20) <= 8 * EPS * n


def near_half_turn(p: CcskParams, seed: int) -> CcskParams:
    """p with 2 ... n - 1 of its columns, chosen at random, replaced by random
    directions of norm pi/2 - d, d log-uniform in [1e-10, 0.1] per column; p
    itself where n = 2."""
    if p.n < 3:
        return p
    g = np.random.default_rng([seed, 1])
    cols = list(p.z_columns)
    for i in g.choice(p.n - 1, size=g.integers(2, p.n), replace=False):
        d = math.exp(g.uniform(math.log(1e-10), math.log(0.1)))
        v = g.standard_normal(i + 1) + 1j * g.standard_normal(i + 1)
        cols[i] = (math.pi / 2 - d) * v / np.linalg.norm(v)
    return CcskParams(p.thetas, tuple(cols))


class TestRoundingScale:
    # Accuracy at the scale of rounding, over the chart edges: rho_j = 0,
    # log-uniform down to 1e-16, and pi/2, on one column; and, with
    # ``edge``, also 2 ... n - 1 columns at pi/2 - d, d log-uniform in
    # [1e-10, 0.1]. The largest values seen with compose's first run from
    # LAPACK, over 1500 draws at n = 2 ... 200 (half of them at n <= 12), are
    # 2.01 eps n for the defect and 1.63 eps n for the roundtrip error on one
    # column, and 2.03 and 2.77 eps n with ``near_half_turn``; the same draws
    # gave 1.35, 1.53, 1.96 and 1.99 with single factors and 8-factor
    # blocks. Over another 1500 draws, compose as one LAPACK call at every n
    # gave the same four maxima as that form: 1.96, 2.22, 2.64 and 2.32.
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(n=st.integers(2, 200), k=st.integers(0, 199), seed=st.integers(0, 2**32 - 1),
           rho=st.one_of(st.just(0.0), st.just(math.pi / 2),
                         st.floats(math.log(1e-16), math.log(math.pi / 2)).map(math.exp)),
           edge=st.booleans())
    def test_defect_and_roundtrip(self, n, k, seed, rho, edge):
        j = 2 + k % (n - 1)
        p = with_rho(generic_params(seed, n), j, min(rho, math.pi / 2))
        u = compose(near_half_turn(p, seed) if edge else p)
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
        assert roundtrip_error(compose(random_params(16, rng))) <= 1e-9 * 16


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
        with pytest.raises(ValueError, match="decompose requires finite entries"):
            decompose(NON_FINITE_MATRICES[name])

    @pytest.mark.parametrize("name", sorted(NON_FINITE_MATRICES))
    def test_roundtrip_error_rejects(self, name):
        with pytest.raises(ValueError, match="decompose requires finite entries"):
            roundtrip_error(NON_FINITE_MATRICES[name])


class TestWrapTheta:
    # decompose wraps each theta it reads onto (-pi, pi]: cmath.phase gives
    # [-pi, pi], and a pivot whose phase is exactly -pi comes back as pi.
    def test_wraps_3pi_to_pi(self):
        q = decompose(compose(CcskParams(np.full(3, 3 * math.pi), np.zeros(3, dtype=complex))))
        np.testing.assert_allclose(q.thetas, math.pi, rtol=0, atol=1e-15)
        assert q.is_canonical()

    def test_minus_pi_maps_to_pi(self):
        # -1 - 0j has phase -pi exactly, on theta_1 and on every peeled pivot.
        assert cmath.phase(complex(-1.0, -0.0)) == -math.pi
        for n in (1, 2, 5):
            q = decompose(np.diag(np.full(n, complex(-1.0, -0.0))))
            assert np.all(q.thetas == math.pi)
            assert q.is_canonical()

    def test_in_range_unchanged(self):
        q = decompose(np.diag(np.exp(1j * np.array([0.3, -0.3]))))
        np.testing.assert_allclose(q.thetas, [0.3, -0.3], rtol=0, atol=1e-15)

    def test_compose_invariant(self, rng):
        p = random_params(4, rng)
        shifted = CcskParams(p.thetas + 2 * math.pi, p.z)
        assert frobenius_norm(compose(shifted) - compose(p)) <= 1e-13
        q = decompose(compose(shifted))
        assert q.is_canonical()
        np.testing.assert_allclose(q.thetas, p.thetas, rtol=0, atol=1e-13)


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
