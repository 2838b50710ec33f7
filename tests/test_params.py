import math

import numpy as np
import pytest

from ccsk.blockexp import compose
from ccsk.decompose import decompose
from ccsk.oracle import RngState, random_params
from ccsk.params import CcskParams, _rho_in_chart, assemble_generator, z_offset
from ccsk.serialize import params_from_doc

from conftest import params_doc


class TestCcskParams:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_equal_seeds_compare_equal(self, n):
        assert random_params(n, RngState(0)) == random_params(n, RngState(0))
        assert not random_params(n, RngState(0)) != random_params(n, RngState(0))

    @pytest.mark.parametrize("field", ["thetas", "z"])
    def test_one_changed_entry_compares_unequal(self, field):
        p = random_params(5, RngState(0))
        arrays = {"thetas": p.thetas.copy(), "z": p.z.copy()}
        arrays[field][-1] += 1e-9
        q = CcskParams(arrays["thetas"], arrays["z"])
        assert p != q and not p == q

    def test_other_types_compare_unequal(self):
        p = random_params(2, RngState(0))
        assert p != 0 and p != p.thetas.tolist()
        assert not p == (p.thetas, p.z)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(random_params(2, RngState(0)))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="z columns"):
            CcskParams(np.zeros(3), (np.zeros(1, dtype=complex),))
        with pytest.raises(ValueError, match="length"):
            CcskParams(np.zeros(3), (np.zeros(1, dtype=complex),
                                     np.zeros(3, dtype=complex)))

    @pytest.mark.parametrize("thetas", [np.zeros((2, 2)), np.zeros(0)], ids=["2d", "empty"])
    def test_thetas_must_be_1d_and_non_empty(self, thetas):
        with pytest.raises(ValueError, match="^thetas must be a 1-D array of length >= 1$"):
            CcskParams(thetas, np.zeros(0, dtype=complex))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_real_parameter_count_is_n_squared(self, n, rng):
        p = random_params(n, rng)
        assert p.real_parameter_count() == n * n

    # A column whose squares underflow: decompose reads it back exactly, and
    # rho must not read its norm as 0.
    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_rho_below_the_square_underflow(self, scale):
        p = CcskParams(np.zeros(2), (np.array([(3 + 4j) * scale]),))
        assert p.rho(2) == abs(p.z[0]) == pytest.approx(5 * scale, rel=1e-15)
        q = decompose(compose(p))
        assert q == p and q.rho(2) == p.rho(2)


class TestPackedLayout:
    # z is the strict upper triangle of the generator, read column by column.
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 200])
    def test_z_is_the_generator_upper_triangle(self, rng, n):
        p = random_params(n, rng)
        x = assemble_generator(p)
        assert p.z.tobytes() == x.T[np.tri(n, k=-1, dtype=bool)].tobytes()
        assert z_offset(n + 1) == p.z.shape[0] == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 200])
    def test_columns_and_packed_forms_agree(self, rng, n):
        p = random_params(n, rng)
        cols = tuple(p.z_column(j).copy() for j in range(2, n + 1))
        q = CcskParams(p.thetas, cols)
        assert q.z.tobytes() == p.z.tobytes()
        assert len(q.z_columns) == n - 1
        for j in range(2, n + 1):
            assert q.z_column(j).tobytes() == cols[j - 2].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_columns_are_views_of_z(self, rng, n):
        p = random_params(n, rng)
        for j in range(2, n + 1):
            assert p.z_column(j).shape == (j - 1,)
            assert np.shares_memory(p.z, p.z_column(j))

    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_columns_built_once_on_access(self, rng, n):
        p = random_params(n, rng)
        assert "z_columns" not in vars(p)  # construction builds no views
        cols = p.z_columns
        assert p.z_columns is cols and len(cols) == n - 1
        for j, col in enumerate(cols, start=2):
            assert col.shape == (j - 1,) and np.shares_memory(p.z, col)
            assert p.z_column(j) is col
        for j in (1, n + 1):
            with pytest.raises(ValueError, match=r"j must be in \[2, "):
                p.z_column(j)

    def test_rejects_wrong_column_count(self):
        with pytest.raises(ValueError, match="expected 2 z columns"):
            CcskParams(np.zeros(3), (np.zeros(1, dtype=complex),) * 3)

    def test_rejects_right_total_wrong_column_lengths(self):
        with pytest.raises(ValueError, match="j=2 must have length 1"):
            CcskParams(np.zeros(3), (np.zeros(2, dtype=complex), np.zeros(1, dtype=complex)))

    @pytest.mark.parametrize("length", [2, 4])
    def test_rejects_packed_length_off_by_one(self, length):
        with pytest.raises(ValueError, match="length 3"):
            CcskParams(np.zeros(3), np.zeros(length, dtype=complex))

    def test_rejects_2d_z(self):
        with pytest.raises(ValueError, match="1-D"):
            CcskParams(np.zeros(3), np.zeros((1, 3), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf),
                                     1e200, complex(1e308, 1e308)])
    def test_rejects_non_finite(self, bad):
        # 1e200 and 1e308 + 1e308j are finite, but the norm of their column
        # overflows (past about 1.3e154), and compose takes it unscaled: the
        # refusal names the first such column.
        match = ("non-finite" if not np.isfinite(bad)
                 else "^z column for j={} has a norm that overflows$")
        z = np.array([0.1, 0.2j, 0.3], dtype=complex)
        z[1] = bad
        with pytest.raises(ValueError, match=match.format(3)):
            CcskParams(np.zeros(3), z)
        with pytest.raises(ValueError, match=match.format(3)):
            CcskParams(np.zeros(3), (z[:1], z[1:]))
        for n in (2, 12):  # compose takes one factor at n = 2, a block at 12
            z = np.zeros(n * (n - 1) // 2, dtype=complex)
            z[0] = bad
            with pytest.raises(ValueError, match=match.format(2)):
                CcskParams(np.zeros(n), z)


# Two of the package's own results skip the constructor's checks
# (CcskParams._unchecked): they are built from arrays that come out of
# checked input.
UNCHECKED_RESULTS = {
    "decompose": lambda n: decompose(compose(random_params(n, RngState(n)))),
    "random_params": lambda n: random_params(n, RngState(n)),
}


class ConstructorCheckRan(Exception):
    pass


class TestUncheckedResults:
    @pytest.mark.parametrize("make", sorted(UNCHECKED_RESULTS))
    @pytest.mark.parametrize("n", [1, 2, 3, 33, 65, 128])
    def test_well_formed(self, n, make):
        p = UNCHECKED_RESULTS[make](n)
        assert p == CcskParams(p.thetas, p.z)
        assert p.thetas.dtype == np.float64 and p.thetas.shape == (n,)
        assert p.z.dtype == np.complex128 and p.z.shape == (n * (n - 1) // 2,)
        assert [c.shape for c in p.z_columns] == [(j - 1,) for j in range(2, n + 1)]
        assert np.isfinite(p.thetas).all() and np.isfinite(p.z).all()

    def test_the_checks_run_only_at_the_boundary(self, monkeypatch):
        # With the constructor's checks made to fail, every unchecked result
        # still comes back; a params document, read from outside, still goes
        # through them.
        def check(self):
            raise ConstructorCheckRan

        monkeypatch.setattr(CcskParams, "__post_init__", check)
        results = {name: make(8) for name, make in UNCHECKED_RESULTS.items()}
        assert results["decompose"].n == 8
        with pytest.raises(ConstructorCheckRan):
            params_from_doc(params_doc(results["random_params"]))


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
        x = assemble_generator(CcskParams(np.array([0.3]), ()))
        np.testing.assert_array_equal(x, np.array([[0.3j]]))

    def test_n2_real_antisymmetric(self):
        p = CcskParams(np.zeros(2), (np.array([1.0 + 0j]),))
        np.testing.assert_array_equal(
            assemble_generator(p), np.array([[0, 1], [-1, 0]], dtype=complex))

    def test_anti_hermitian_by_construction(self, rng):
        x = assemble_generator(random_params(3, rng))
        assert np.array_equal(x.conj().T, -x)

    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    def test_bit_identical_to_column_loop(self, rng, n):
        p = random_params(n, rng)
        want = np.zeros((n, n), dtype=np.complex128)
        want[np.diag_indices(n)] = 1j * p.thetas
        for j in range(2, n + 1):
            want[: j - 1, j - 1] = p.z_column(j)
            want[j - 1, : j - 1] = -p.z_column(j).conj()
        assert assemble_generator(p).tobytes() == want.tobytes()

