import cmath
import math

import numpy as np
import pytest

from ccsk.blockexp import compose
from ccsk.decompose import roundtrip_error
from ccsk.linalg import frobenius_norm, unitarity_defect
from ccsk.oracle import (_EXPM_RESCALE_MIN_N, RngState, _expm_plan, _ps_coefficients, expm,
                         random_params)
from ccsk.params import CcskParams, assemble_generator

from conftest import (NON_FINITE_MATRICES, complex_gaussian_vector,
                      random_complex_matrix, rejects_non_finite)


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

    # A tiny x takes the same degree-16 polynomial as any other: e^x =
    # I + x + x^2/2 + ... rounds to I + x exactly, not to I.
    def test_tiny_norm_keeps_the_linear_term(self):
        x = 1e-20 * np.array([[0, 1], [-1, 0]], dtype=complex)
        np.testing.assert_array_equal(expm(x), np.eye(2) + x)

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("name", sorted(NON_FINITE_MATRICES))
    def test_rejects_non_finite_entries(self, name):
        with rejects_non_finite("finite entries"):
            expm(NON_FINITE_MATRICES[name])

    def test_rejects_a_norm_that_overflows(self):
        with rejects_non_finite("overflows"):
            expm(np.full((2, 2), 1e200, dtype=complex))

    # beta J, J = [[0, 1], [-1, 0]], in the leading block: its spectral bound
    # is about beta, past 2^32, where the squarings lost every digit
    # (1e150), overflowed (1e20) or left a unitarity defect of 1.4e-3 (1e12).
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", [1e12, 1e20, 1e150])
    @pytest.mark.parametrize("n", [2, 16])
    def test_refuses_a_spectral_bound_past_2_to_32(self, n, beta):
        x = np.zeros((n, n), dtype=complex)
        x[0, 1], x[1, 0] = beta, -beta
        with pytest.raises(ValueError, match=r"s = \d+ halvings, .* exceeds 2\^32$"):
            expm(x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 16])
    def test_just_inside_2_to_32(self, n):
        # 1e9 J takes s = 32 halvings, the most for which no alpha is formed
        # below n = 16, and a spectral bound below 2^32: it is admitted.
        x = np.zeros((n, n), dtype=complex)
        x[0, 1], x[1, 0] = 1e9, -1e9
        assert unitarity_defect(expm(x)) <= 1e-5


def reference_expm(x: np.ndarray) -> np.ndarray:
    """The term-by-term Taylor sum expm used before Paterson-Stockmeyer: same
    scaling and squaring, but the series runs until a term is below 1e-18
    of the partial sum (at most 40 terms)."""
    x = np.asarray(x, dtype=np.complex128)
    norm = frobenius_norm(x)
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0 else 0
    a = x / (2.0 ** s)
    n = x.shape[0]
    result = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, 41):
        term = term @ a / k
        result = result + term
        if frobenius_norm(term) <= 1e-18 * frobenius_norm(result):
            break
    for _ in range(s):
        result = result @ result
    return result


def with_norm(y: np.ndarray, target: float) -> np.ndarray:
    """y scaled to Frobenius norm target. For a power of two the norm is made
    exact: a diagonal entry's imaginary part takes up the rest of the
    scaling's rounding (the largest first, the next if it cannot)."""
    if target == 0.0:
        return np.zeros_like(y)
    x = y * (target / frobenius_norm(y))
    if math.frexp(target)[0] != 0.5:
        return x
    for k in np.argsort(-np.abs(np.diag(x).imag)):
        for _ in range(50):
            norm = frobenius_norm(x)
            if norm == target:
                return x
            im = x[k, k].imag
            fixed = math.copysign(math.sqrt(max(0.0, im * im + target ** 2 - norm ** 2)), im)
            if fixed == im:  # within rounding: step by an ulp
                fixed = np.nextafter(im, math.copysign(math.inf, im) if norm < target else 0.0)
            x[k, k] = complex(x[k, k].real, fixed)
    raise AssertionError(f"no nudge of y has norm exactly {target}")


ORACLE_DIMS = [1, 2, 3, 8, 33, 128]
# 0.5 * 2^k sits on the scaling boundary: s = k and ||a||_F = 0.5 exactly.
# The norms up to 0.5 take no squaring, and those below about 0.23 (1e-12
# ... 0.2) are where a degree fitted to ||x||_F would drop below 16.
ORACLE_NORMS = [0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.2, 0.5, 0.5 * 2 ** 2, 0.5 * 2 ** 5, 1.0, 50.0,
                1e3]


class TestExpmAgainstReference:
    @pytest.mark.parametrize("norm", ORACLE_NORMS)
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_anti_hermitian(self, n, norm):
        defects = []
        for seed in range(10):
            x = with_norm(assemble_generator(random_params(n, RngState(seed))), norm)
            got, want = expm(x), reference_expm(x)
            # e^x moves by about eps * ||x|| when x is rounded, so past
            # ||x||_F = 100 either method's error grows with ||x||: at 1e3
            # both are 2e-13 to 1.6e-12 away from the eigendecomposition's e^x.
            assert frobenius_norm(got - want) <= 1e-13 * n * max(1.0, norm / 100)
            defects.append([unitarity_defect(got), unitarity_defect(want)])
        # Defects of a few ulps are noise: one input in twenty at n <= 8 has a
        # defect over twice the loop's, either way round. So the means over
        # ten seeds are compared, each defect counted as at least eps.
        ours, loops = np.maximum(defects, np.finfo(float).eps).mean(axis=0)
        assert ours <= 2 * loops

    @pytest.mark.parametrize("norm", ORACLE_NORMS)
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_gaussian(self, n, norm):
        # Shifted so that no eigenvalue has a positive real part: e^x then
        # stays in range at ||x||_F = 1e3 (unshifted, n = 3 overflows).
        g = random_complex_matrix(RngState(1000 + n), n, n)
        g -= np.linalg.eigvals(g).real.max() * np.eye(n)
        x = with_norm(g, norm)
        got, want = expm(x), reference_expm(x)
        assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)

    @pytest.mark.parametrize("scale", [0.3, 1.0, 10.0])
    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    def test_nilpotent_series_ends(self, n, scale):
        g = np.triu(random_complex_matrix(RngState(2000 + n), n, n), 1)
        nil = g * (scale / frobenius_norm(g))
        want = np.eye(n, dtype=complex)
        term = np.eye(n, dtype=complex)
        for k in range(1, n):  # N^n = 0
            term = term @ nil / k
            want = want + term
        got = expm(nil)
        assert np.all(np.tril(got, -1) == 0)
        assert frobenius_norm(got - want) <= 1e-15 * frobenius_norm(want)

    # Each squaring doubles a scalar's relative error, so 1e-15 (4.5 ulps)
    # is checked with at most one squaring, ||D||_F <= 1; larger norms are in
    # the comparisons with the reference above.
    @pytest.mark.parametrize("scale", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 3, 8, 33])
    def test_diagonal_is_scalar_exp(self, n, scale):
        d = random_complex_matrix(RngState(3000 + n), 1, n)[0]
        d *= scale / np.linalg.norm(d)
        got = expm(np.diag(d))
        want = np.diag([cmath.exp(v) for v in d])
        assert np.all(got[~np.eye(n, dtype=bool)] == 0)
        assert frobenius_norm(got - want) <= 1e-15 * frobenius_norm(want)


def tail_bound(t: float, m: int) -> float:
    """The bound on the Taylor tail of exp(a) past degree m, ||a||_F = t."""
    return t ** (m + 1) / math.factorial(m + 1) / (1 - t / (m + 2))


class TestTaylorDegree:
    # expm evaluates the degree-16 Taylor polynomial at every input. Its tail
    # bound meets 1e-18 times both plans' lower bounds on ||e^a||_F:
    # sqrt(n) - expm1(t) where t = ||a||_F, and sqrt(n) e^-t where t is the
    # spectral bound. t = 0.57 covers the few ulps by which the scaling's
    # rounding can leave t above 0.5. At n = 1, degree 15 misses the bound
    # from t = 0.48 on, so no smaller degree serves all of [0, 0.5].
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 128, 10 ** 6])
    @pytest.mark.parametrize("t", [0.0, 1e-300, 1e-12, 1e-3, 0.1, 0.25, 0.3, 0.49, 0.5, 0.57])
    def test_smallest_degree_meeting_the_bound(self, t, n):
        target = 1e-18 * min(math.sqrt(n) - math.expm1(t), math.sqrt(n) * math.exp(-t))
        assert tail_bound(t, 16) <= target
        if n == 1 and t >= 0.49:
            assert tail_bound(t, 15) > target

    @pytest.mark.parametrize("n", [16, 64, 256, 4096])
    def test_meets_the_spectral_bound(self, n):
        for t in np.linspace(0.0, 0.57, 5701).tolist():
            assert tail_bound(t, 16) <= 1e-18 * math.sqrt(n) * math.exp(-t)

    def test_known_degrees(self):
        # The coefficient matrix holds c_k = 2^(dk)/k! for k <= 16, c_16
        # against b^4 in the last block, and nothing else, at every d the
        # norm cap allows; and degree 16 meets the n = 1 bound on all of
        # [0, 0.57].
        for d in range(4):
            c = [math.ldexp(1.0 / math.factorial(k), d * k) for k in range(17)]
            coeffs = _ps_coefficients(d)
            assert coeffs.shape == (4, 5)
            np.testing.assert_array_equal(coeffs[:, :4].ravel(), c[:16])
            np.testing.assert_array_equal(coeffs[:, 4], [0.0, 0.0, 0.0, c[16]])
        for t in np.linspace(0.0, 0.57, 5701).tolist():
            assert tail_bound(t, 16) <= 1e-18 * (1 - math.expm1(t))


def oracle_inputs(n: int, norm: float) -> list[np.ndarray]:
    """The inputs of TestExpmAgainstReference at (n, norm): ten anti-Hermitian
    generators and the shifted Gaussian matrix."""
    xs = [with_norm(assemble_generator(random_params(n, RngState(seed))), norm)
          for seed in range(10)]
    g = random_complex_matrix(RngState(1000 + n), n, n)
    g -= np.linalg.eigvals(g).real.max() * np.eye(n)
    return xs + [with_norm(g, norm)]


def plan_products(x: np.ndarray) -> int:
    """The matrix products of expm(x): b^2 ... b^4, the Horner steps in b^4,
    and the squarings."""
    squarings, d, powers = _expm_plan(x, frobenius_norm(x))
    return (powers.shape[0] - 2) + (_ps_coefficients(d).shape[0] - 1) + squarings


class TestExpmScaling:
    # Taking back all s halvings of x = beta E_01 (b^3 = b^4 = 0, so alpha
    # = 0) would put 2^(sk)/k! in the coefficients, inf at beta = 1e150.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", [1e3, 1e150])
    def test_nilpotent_is_exact(self, beta):
        x = np.zeros((16, 16), dtype=complex)
        x[0, 1] = beta
        np.testing.assert_array_equal(expm(x), np.eye(16) + x)

    # Below _EXPM_RESCALE_MIN_N, alpha is formed only past s = 32 halvings;
    # for a nilpotent x it is 0, so x is not refused and comes out exact.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 8])
    def test_small_nilpotent_past_32_halvings_is_exact(self, n):
        x = np.zeros((n, n), dtype=complex)
        x[0, 1] = 1e150
        assert _expm_plan(x, frobenius_norm(x))[1] == 3
        np.testing.assert_array_equal(expm(x), np.eye(n) + x)

    @pytest.mark.parametrize("norm", ORACLE_NORMS)
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_the_degree_bound_holds(self, n, norm):
        # t, ||a||_F where no halving was taken back and
        # max(||a^3||_F^(1/3), ||a^4||_F^(1/4)) where some were, is at most
        # 0.5 and bounds ||a^k||_F^(1/k) past degree 16 and the spectral
        # radius of a; the slack is the rounding of the k products (about 3
        # ulps seen at n = 1, where ||a^k||_F = t^k).
        for x in oracle_inputs(n, norm):
            squarings, d, _ = _expm_plan(x, frobenius_norm(x))
            a = x / 2.0 ** squarings
            a3 = a @ a @ a
            t = (frobenius_norm(a) if d == 0
                 else max(frobenius_norm(a3) ** (1.0 / 3.0), frobenius_norm(a3 @ a) ** 0.25))
            assert t <= 0.5 * (1 + 1e-13)
            ak = np.linalg.matrix_power(a, 16)
            for k in range(17, 25):
                ak = ak @ a
                assert frobenius_norm(ak) <= t ** k * (1 + 1e-13)
            assert np.abs(np.linalg.eigvals(a)).max() <= t * (1 + 1e-13)

    @pytest.mark.parametrize("norm", ORACLE_NORMS)
    @pytest.mark.parametrize("n", [n for n in ORACLE_DIMS if n < _EXPM_RESCALE_MIN_N])
    def test_below_the_crossover_the_plan_is_the_norm_one(self, n, norm):
        # s is the fewest halvings that bring ||b||_F to 0.5, and none is
        # taken back: the stack holds b = x 2^-s itself.
        for x in oracle_inputs(n, norm):
            squarings, d, powers = _expm_plan(x, frobenius_norm(x))
            assert d == 0
            np.testing.assert_array_equal(powers[1], x * 2.0 ** -squarings)
            assert frobenius_norm(powers[1]) <= 0.5 * (1 + 1e-15)
            assert squarings == 0 or frobenius_norm(2.0 * powers[1]) > 0.5

    # Scaling by ||x||_F took 6 (n = 128) and 7 (n = 256) squarings, 12
    # products in all.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [128, 256])
    def test_ten_products_on_random_generators(self, n, seed):
        assert plan_products(assemble_generator(random_params(n, RngState(seed)))) == 10


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

    # random_params takes Box-Muller's cos from numpy and gaussian from
    # math.cos, so a numpy whose cos differs from libm's fails here.
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 128, 200, 1024])
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
    # The random unitary of `ccsk random --what unitary`: compose(random_params(n, rng)).
    def test_n1_unit_modulus(self):
        u = compose(random_params(1, RngState(3)))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-15

    def test_defect_up_to_n16(self, rng):
        for n in (2, 8, 16):
            assert unitarity_defect(compose(random_params(n, rng))) <= 1e-12 * n

    def test_roundtrips_through_decompose(self, rng):
        u = compose(random_params(9, rng))
        assert roundtrip_error(u) <= 1e-9 * 9
