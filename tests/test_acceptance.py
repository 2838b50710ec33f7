"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all).
Tolerances are fixed here, not configurable.
"""

import itertools
import math

import numpy as np
import pytest

from ccsk.blockexp import compose, exp_column_factor, exp_k, k_matrix, projector_form
from ccsk.cli import main
from ccsk.decompose import decompose, roundtrip_error
from ccsk.linalg import frobenius_norm, unitarity_defect
from ccsk.oracle import RngState, expm, random_params
from ccsk.params import CcskParams, assemble_generator
from ccsk.serialize import read_matrix, write_matrix, write_params

from conftest import complex_gaussian_vector
from test_decompose import params_close
from test_reference_forms import compose2, three_lines


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def embedded_block(z, n, j):
    x = np.zeros((n, n), dtype=np.complex128)
    x[: j - 1, j - 1] = z
    x[j - 1, : j - 1] = -np.conj(z)
    return x


def test_criterion_1_closed_form_vs_oracle():
    rng = RngState(101)
    ok = True
    for _ in range(100):
        n = 2 + rng.next_u64() % 11
        j = 2 + (rng.next_u64() % (n - 1) if n > 2 else 0)
        z = complex_gaussian_vector(rng, j - 1)
        dev = frobenius_norm(exp_column_factor(z, n, j) - expm(embedded_block(z, n, j)))
        ok &= dev <= 1e-12
    report("closed-form factor matches generic exponential (100 cases, n<=12)", ok)


def test_criterion_2_k_algebra():
    rng = RngState(102)
    ok = True
    for _ in range(100):
        m = 1 + rng.next_u64() % 8
        z = complex_gaussian_vector(rng, m)
        k = k_matrix(z)
        zz = float(np.vdot(z, z).real)
        rho = math.sqrt(zz)
        ok &= frobenius_norm(k @ k @ k + zz * k) <= 1e-13 * (1 + rho ** 3)
        want_sq = np.zeros_like(k)
        want_sq[:m, :m] = -np.outer(z, z.conj())
        want_sq[m, m] = -zz
        ok &= frobenius_norm(k @ k - want_sq) <= 1e-14 * (1 + zz)
    report("K-block cube relation and squared block structure (100 cases)", ok)


def test_criterion_3_unitarity():
    rng = RngState(103)
    ok = True
    for _ in range(100):
        n = 1 + rng.next_u64() % 16
        ok &= unitarity_defect(compose(random_params(n, rng))) <= 1e-12 * n
    report("composed unitaries have defect <= 1e-12*n (100 cases, n<=16)", ok)


def test_criterion_4_roundtrip():
    rng = RngState(104)
    ok = True
    for _ in range(100):
        n = 1 + rng.next_u64() % 16
        u = compose(random_params(n, rng))
        ok &= roundtrip_error(u) <= 1e-9 * n
    # parameter-level roundtrip away from the degenerate ends
    for n in (2, 5, 8):
        p = random_params(n, rng)
        thetas = np.clip(p.thetas, -math.pi + 0.1, math.pi - 0.1)
        cols = tuple((0.1 + (math.pi / 2 - 0.2) * np.linalg.norm(z) / (math.pi / 2))
                     * z / np.linalg.norm(z) for z in p.z_columns)
        p = CcskParams(thetas, cols)
        ok &= params_close(p, decompose(compose(p)), 1e-9)
    report("matrix- and parameter-level decompose/compose roundtrips", ok)


def test_criterion_5_degenerate_inputs():
    n = 4
    ok = True
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            u = np.zeros((n, n), dtype=complex)
            for i, (col, s) in enumerate(zip(perm, signs)):
                u[i, col] = s
            ok &= roundtrip_error(u) <= 1e-9 * n
    report("all 384 signed 4x4 permutation matrices decompose and roundtrip", ok)


def test_criterion_6_euler_form():
    rng = RngState(106)
    ok = True
    for _ in range(100):
        t1 = math.pi * (1 - 2 * rng.uniform())
        t2 = math.pi * (1 - 2 * rng.uniform())
        z = complex(rng.gaussian(), rng.gaussian())
        direct = compose2(t1, t2, z)
        for line in three_lines(t1, t2, z):
            ok &= frobenius_norm(line - direct) <= 1e-14
    report("all three 2x2 factorisation forms agree with direct compose", ok)


def test_criterion_7_projector_remark():
    rng = RngState(107)
    ok = True
    for _ in range(50):
        m = 1 + rng.next_u64() % 6
        z = complex_gaussian_vector(rng, m)
        p0, p1, rho = projector_form(z)
        eye = np.eye(m)
        ok &= frobenius_norm(p0 @ p0 - p0) <= 1e-13
        ok &= frobenius_norm(p1 @ p1 - p1) <= 1e-13
        ok &= frobenius_norm(p0 @ p1) <= 1e-13
        ok &= frobenius_norm(p0 + p1 - eye) <= 1e-13
        direct = eye - (1 - math.cos(rho)) * p1
        cosine_form = p0 + math.cos(rho) * p1
        ok &= frobenius_norm(cosine_form - direct) <= 1e-13
        ok &= frobenius_norm(cosine_form - exp_k(z)[:m, :m]) <= 1e-13
    report("projector algebra and cosine form match the factor block (50 cases)", ok)


def test_criterion_8_noncommutativity_witness():
    p = random_params(3, RngState(12345))
    d = frobenius_norm(compose(p) - expm(assemble_generator(p)))
    # regression constant captured from the oracle at first build
    ok = d > 0.01 and abs(d - 0.2910651412991706) <= 1e-12
    report("fixed-seed product map differs from exp of the summed generator", ok)


def test_criterion_9_parameter_count():
    ok = all(random_params(n, RngState(109)).real_parameter_count() == n * n
             for n in range(1, 11))
    report("parameter count is exactly n^2 for n = 1..10", ok)


def test_criterion_10_cli_pipeline(tmp_path):
    u, p, u2 = tmp_path / "u.json", tmp_path / "p.json", tmp_path / "u2.json"
    ok = main(["random", "--n", "8", "--seed", "7", "--what", "unitary",
               "-o", str(u)]) == 0
    ok &= main(["decompose", "-i", str(u), "-o", str(p)]) == 0
    ok &= main(["compose", "-i", str(p), "-o", str(u2)]) == 0
    ok &= frobenius_norm(read_matrix(u) - read_matrix(u2)) <= 1e-9 * 8

    # repeated runs with the same seed are byte-identical
    again = tmp_path / "again.json"
    main(["random", "--n", "8", "--seed", "7", "--what", "unitary", "-o", str(again)])
    ok &= u.read_bytes() == again.read_bytes()

    # error-path fixtures: non-unitary input -> 1; tolerance failure -> 2;
    # usage error -> 64
    bad = tmp_path / "bad.json"
    write_matrix(bad, 2 * np.eye(2, dtype=complex))
    ok &= main(["decompose", "-i", str(bad), "-o", str(tmp_path / "x.json")]) == 1
    ok &= main(["verify", "-i", str(bad)]) == 2
    try:
        main(["random", "--n", "oops", "-o", str(tmp_path / "y.json")])
        ok = False
    except SystemExit as exc:
        ok &= exc.code == 64
    report("CLI pipeline roundtrip, determinism, and exit-code discipline", ok)
