import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ccsk
from ccsk.blockexp import compose
from ccsk.cli import main
from ccsk.decompose import decompose
from ccsk.linalg import frobenius_norm
from ccsk.oracle import RngState, random_params
from ccsk.params import CcskParams, assemble_generator
from ccsk.serialize import ParseError, read_matrix, read_params, write_matrix, write_params


def run(*argv):
    return main([str(a) for a in argv])


class TestCompose:
    def test_zero_params_to_identity(self, tmp_path, capsys):
        pin, mout = tmp_path / "p.json", tmp_path / "m.json"
        write_params(pin, CcskParams(np.zeros(3), np.zeros(3, dtype=complex)))
        assert run("compose", "-i", pin, "-o", mout) == 0
        np.testing.assert_array_equal(read_matrix(mout), np.eye(3))
        assert "unitarity_defect" in capsys.readouterr().out

    def test_parse_error_exit_1(self, tmp_path, capsys):
        pin = tmp_path / "p.json"
        pin.write_text('{"type": "ccsk_params", "n": 2, "thetas": [0], "z": []}')
        assert run("compose", "-i", pin, "-o", tmp_path / "m.json") == 1
        assert "error" in capsys.readouterr().err


class TestDecompose:
    def test_identity_to_zero_params(self, tmp_path):
        min_, pout = tmp_path / "m.json", tmp_path / "p.json"
        write_matrix(min_, np.eye(3, dtype=complex))
        assert run("decompose", "-i", min_, "-o", pout) == 0
        p = read_params(pout)
        assert np.all(p.thetas == 0)

    def test_quarter_turn(self, tmp_path):
        min_, pout = tmp_path / "m.json", tmp_path / "p.json"
        write_matrix(min_, np.array([[0, 1], [-1, 0]], dtype=complex))
        assert run("decompose", "-i", min_, "-o", pout) == 0
        p = read_params(pout)
        np.testing.assert_allclose(p.thetas, [0, 0], atol=1e-15)
        np.testing.assert_allclose(p.z_column(2), [np.pi / 2], atol=1e-15)

    def test_non_unitary_exit_1_reports_defect(self, tmp_path, capsys):
        min_ = tmp_path / "m.json"
        write_matrix(min_, 2 * np.eye(2, dtype=complex))
        assert run("decompose", "-i", min_, "-o", tmp_path / "p.json") == 1
        assert "defect" in capsys.readouterr().err


class TestVerify:
    def test_identity_passes(self, tmp_path, capsys):
        min_ = tmp_path / "m.json"
        write_matrix(min_, np.eye(4, dtype=complex))
        assert run("verify", "-i", min_) == 0
        out = capsys.readouterr().out
        assert "unitarity_defect" in out

    def test_composed_random_passes(self, tmp_path):
        min_ = tmp_path / "m.json"
        write_matrix(min_, compose(random_params(6, RngState(11))))
        assert run("verify", "-i", min_) == 0

    def test_scaled_identity_exit_2(self, tmp_path):
        min_ = tmp_path / "m.json"
        write_matrix(min_, 2 * np.eye(2, dtype=complex))
        assert run("verify", "-i", min_) == 2

    def test_parse_error_exit_1(self, tmp_path):
        min_ = tmp_path / "m.json"
        min_.write_text("[]")
        assert run("verify", "-i", min_) == 1

    def test_norm_overflow_is_an_infinite_defect_exit_2(self, tmp_path, capsys):
        # A finite entry of 1e300: forming u^H u would overflow with a warning.
        min_ = tmp_path / "m.json"
        write_matrix(min_, np.array([[1, 1e300], [0, 1]]))
        assert run("verify", "-i", min_) == 2
        captured = capsys.readouterr()
        assert captured.out == "unitarity_defect inf\n"
        assert captured.err == ""

    def test_integer_out_of_float_range_exit_1(self, tmp_path, capsys):
        min_ = tmp_path / "m.json"
        min_.write_text('{"type": "cmatrix", "n": 1, "rows": [[[1%s, 0]]]}' % ("0" * 400))
        assert run("verify", "-i", min_) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestRandom:
    def test_n1_params(self, tmp_path):
        out = tmp_path / "p.json"
        assert run("random", "--n", 1, "--seed", 3, "-o", out) == 0
        p = read_params(out)
        assert p.n == 1 and len(p.z_columns) == 0

    def test_byte_identical_per_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("random", "--n", 8, "--seed", 7, "-o", a) == 0
        assert run("random", "--n", 8, "--seed", 7, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unitary_verifies(self, tmp_path):
        out = tmp_path / "u.json"
        assert run("random", "--n", 8, "--what", "unitary", "--seed", 1, "-o", out) == 0
        assert run("verify", "-i", out) == 0

    def test_bad_flags_exit_64(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("random", "--n", "eight", "-o", tmp_path / "x.json")
        assert exc.value.code == 64

    def test_n_past_memory_is_one_error_line(self, tmp_path, capsys):
        # The stream at n = 10^8 is 2e16 words (142 PiB): numpy refuses it
        # with a MemoryError before allocating anything.
        out = tmp_path / "x.json"
        assert run("random", "--n", 100000000, "-o", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_non_positive_n_is_a_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            run("random", "--n", n, "-o", out)
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: ccsk random")
        assert f"ccsk random: error: argument --n: must be an integer >= 1, got '{n}'" in err
        assert not out.exists()


class TestExpmCommand:
    def test_generator_exponential(self, tmp_path):
        from ccsk.params import assemble_generator
        x = assemble_generator(random_params(4, RngState(17)))
        xin, uout = tmp_path / "x.json", tmp_path / "u.json"
        write_matrix(xin, x)
        assert run("expm", "-i", xin, "-o", uout) == 0
        assert run("verify", "-i", uout) == 0

    def test_refuses_a_spectral_bound_past_2_to_32(self, tmp_path, capsys):
        xin, uout = tmp_path / "x.json", tmp_path / "u.json"
        write_matrix(xin, np.array([[0, 1e150], [-1e150, 0]]))
        assert run("expm", "-i", xin, "-o", uout) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: expm: x is out of range: ") and err.count("\n") == 1
        assert "s = 500 halvings" in err and "exceeds 2^32" in err
        assert not uout.exists()


class TestCompare:
    def test_zero_params_all_zero(self, tmp_path, capsys):
        pin = tmp_path / "p.json"
        write_params(pin, CcskParams(np.zeros(3), np.zeros(3, dtype=complex)))
        assert run("compare", "-i", pin) == 0
        out = capsys.readouterr().out
        assert "product_vs_expm 0.0" in out

    def test_single_factor_commutes(self, tmp_path, capsys):
        pin = tmp_path / "p.json"
        write_params(pin, CcskParams(np.zeros(2), (np.array([0.4 + 0.2j]),)))
        assert run("compare", "-i", pin) == 0
        out = capsys.readouterr().out
        product_dev = float(out.splitlines()[0].split()[1])
        assert product_dev <= 1e-12

    def test_fixed_seed_n3_deviates(self, tmp_path, capsys):
        pin = tmp_path / "p.json"
        write_params(pin, random_params(3, RngState(12345)))
        assert run("compare", "-i", pin) == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[0].split()[1]) > 0.01
        for line in lines[1:]:
            assert float(line.split()[1]) <= 1e-12


class TestRoundtripCommand:
    def test_pipeline(self, tmp_path, capsys):
        u, p, u2 = tmp_path / "u.json", tmp_path / "p.json", tmp_path / "u2.json"
        assert run("random", "--n", 8, "--seed", 7, "--what", "unitary", "-o", u) == 0
        assert run("decompose", "-i", u, "-o", p) == 0
        assert run("compose", "-i", p, "-o", u2) == 0
        a, b = read_matrix(u), read_matrix(u2)
        assert frobenius_norm(a - b) <= 1e-9 * 8
        assert run("roundtrip", "-i", u) == 0


# Sizes at and around the plan changes of the kernels, then n = 200, 256 and
# 512. compose is one LAPACK ZUNGQR call, which applies each factor on its
# own up to n = 129 and blocks of 32 from n = 130. decompose peels panels of
# 32 rows from row n down, the head taking the 32 to 63 rows left: one panel
# up to n = 63, two from 64, three from 96, four from 128. expm scales by
# ||x||_F alone below n = 16.
BOUNDARY_SIZES = [1, 2, 3, 8, 9, 10, 11, 12, 15, 16, 32, 33, 34, 40, 41, 42, 63, 64, 65,
                  95, 96, 97, 127, 128, 129, 130, 200, 256, 512]


class TestBoundarySizes:
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_chain(self, tmp_path, n):
        u, p, c, r, rc, x, e = (tmp_path / f"{k}.json" for k in "u p c r rc x e".split())
        assert run("random", "--n", n, "--what", "unitary", "-o", u) == 0
        assert run("decompose", "-i", u, "-o", p) == 0
        assert run("compose", "-i", p, "-o", c) == 0
        assert run("roundtrip", "-i", u) == 0
        # The seed-0 params file, composed, is the seed-0 unitary file byte for byte.
        assert run("random", "--n", n, "-o", r) == 0
        assert run("compose", "-i", r, "-o", rc) == 0
        assert rc.read_bytes() == u.read_bytes()
        # The exponential of the params' generator passes verify.
        write_matrix(x, assemble_generator(read_params(r)))
        assert run("expm", "-i", x, "-o", e) == 0
        assert run("verify", "-i", e) == 0
        if n <= 64:  # compare takes one expm per column
            assert run("compare", "-i", r) == 0

    def test_compare_at_rho_0_and_1e_15(self, tmp_path, capsys):
        # exp_k's sigma and a at their limits: ||z_2|| = 0 and ||z_3|| = 1e-15.
        path = tmp_path / "p.json"
        write_params(path, CcskParams(np.zeros(3), ([0j], [6e-16, 8e-16j])))
        assert run("compare", "-i", path) == 0
        # Each deviation is far below ||z_3||^2 = 1e-30.
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and all(float(line.split()[1]) <= 1e-30 for line in lines)

    def test_two_identity_at_200_is_refused(self, tmp_path, capsys):
        # The message README's CLI section quotes.
        path = tmp_path / "u.json"
        write_matrix(path, 2 * np.eye(200))
        assert run("decompose", "-i", path, "-o", tmp_path / "p.json") == 1
        assert capsys.readouterr().err == (
            "error: input is not unitary: the defect ||u^H u - I||_F = 4.243e+01 "
            "exceeds unitarity_tol * n = 2.000e-08\n")


def run_process(*argv):
    """The real entry point, run as a process: ``python -m ccsk.cli``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ccsk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ccsk.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


class TestSubprocessChain:
    def test_random_decompose_compose_n16(self, tmp_path):
        u, p, u2 = tmp_path / "u.json", tmp_path / "p.json", tmp_path / "u2.json"
        for argv in (["random", "--n", "16", "--seed", "3", "--what", "unitary", "-o", u],
                     ["decompose", "-i", u, "-o", p],
                     ["compose", "-i", p, "-o", u2]):
            done = run_process(*argv)
            assert done.returncode == 0, done.stderr
        # The processes wrote what the in-process writers write.
        ref = tmp_path / "ref.json"
        write_matrix(ref, compose(random_params(16, RngState(3))))
        assert u.read_bytes() == ref.read_bytes()
        write_params(ref, decompose(read_matrix(u)))
        assert p.read_bytes() == ref.read_bytes()
        write_matrix(ref, compose(read_params(p)))
        assert u2.read_bytes() == ref.read_bytes()

    def test_verify_of_a_nan_entry_exits_1(self, tmp_path):
        # A refusal's exit status and its one stderr line, across a real process boundary.
        path = tmp_path / "in.json"
        path.write_text('{"type": "cmatrix", "n": 1, "rows": [[[NaN, 0]]]}')
        done = run_process("verify", "-i", path)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: matrix_from_doc requires finite entries; "
                                      "entry (0, 0) is non-finite (")
        assert done.stderr.count("\n") == 1


class TestBoolIsNotANumber:
    # JSON true/false must not pass as numbers (bool subclasses int in Python).
    @pytest.mark.parametrize("command, doc", [
        ("verify", '{"type": "cmatrix", "n": true, "rows": [[[1, 0]]]}'),
        ("verify", '{"type": "cmatrix", "n": 1, "rows": [[[true, false]]]}'),
        ("compose", '{"type": "ccsk_params", "n": true, "thetas": [0], "z": []}'),
        ("compose", '{"type": "ccsk_params", "n": 1, "thetas": [true], "z": []}'),
        ("compose", '{"type": "ccsk_params", "n": 2, "thetas": [0, 0], "z": [[[true, 0]]]}'),
    ])
    def test_exit_1_with_error_line(self, tmp_path, capsys, command, doc):
        path = tmp_path / "in.json"
        path.write_text(doc)
        argv = [command, "-i", path] + (["-o", tmp_path / "out.json"] if command == "compose" else [])
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


class TestNonFiniteEntries:
    # json.load reads NaN, Infinity and -Infinity; every command that reads a
    # matrix file must refuse them with an error line (exit 1).
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", ["verify", "decompose", "roundtrip", "expm"])
    def test_exit_1_with_error_line(self, tmp_path, capsys, command, literal):
        path = tmp_path / "in.json"
        path.write_text('{"type": "cmatrix", "n": 2, "rows": '
                        '[[[1, 0], [0, 0]], [[0, 0], [1, %s]]]}' % literal)
        argv = [command, "-i", path]
        if command in ("decompose", "expm"):
            argv += ["-o", tmp_path / "out.json"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: matrix_from_doc requires finite entries; "
                              "entry (1, 1) is non-finite (") and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()


# Params documents with a NaN, Infinity or -Infinity (which json.load reads)
# in one theta or one z entry.
NON_FINITE_PARAMS = {
    (field, literal): ('{"type": "ccsk_params", "n": 2, "thetas": [0.5, %s], "z": [[[0.1, 0.2]]]}'
                       % literal if field == "thetas" else
                       '{"type": "ccsk_params", "n": 2, "thetas": [0.5, 0.25], "z": [[[0.1, %s]]]}'
                       % literal)
    for field in ("thetas", "z") for literal in ("NaN", "Infinity", "-Infinity")
}


class TestNonFiniteParams:
    # The params file reader keeps the constructor's checks: compose and
    # compare refuse a non-finite theta or z entry with one error line.
    @pytest.mark.parametrize("key", sorted(NON_FINITE_PARAMS))
    @pytest.mark.parametrize("command", ["compose", "compare"])
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, command, key):
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(NON_FINITE_PARAMS[key])
        argv = [command, "-i", path] + (["-o", out] if command == "compose" else [])
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key[0]} contain") and captured.err.count("\n") == 1
        assert "non-finite values" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(NON_FINITE_PARAMS))
    def test_read_params_raises_parse_error(self, tmp_path, key):
        path = tmp_path / "in.json"
        path.write_text(NON_FINITE_PARAMS[key])
        with pytest.raises(ParseError, match="non-finite values"):
            read_params(path)


class TestOverflowingParams:
    # A z column whose entries are finite but whose norm overflows: compose
    # refuses it with one error line naming the column, no RuntimeWarning
    # and no output file, on the single-factor path (n = 2) and the
    # aggregated one (n = 12).
    @pytest.mark.parametrize("n", [2, 12])
    def test_compose_exit_1_naming_the_column(self, tmp_path, capsys, n):
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        z = [[[0.0, 0.0]] * (j - 1) for j in range(2, n + 1)]
        z[0] = [[1e200, 0.0]]
        path.write_text(json.dumps({"type": "ccsk_params", "n": n, "thetas": [0.0] * n, "z": z}))
        assert run("compose", "-i", path, "-o", out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: z column for j=2 has a norm that overflows\n"
        assert not out.exists()


class TestDeeplyNested:
    # json.load recurses once per nesting level; a file nested past the
    # interpreter's recursion limit must still give one error line, exit 1.
    @pytest.mark.parametrize("command", ["verify", "compose"])
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "in.json"
        path.write_text("[" * 200_000)
        argv = [command, "-i", path] + (["-o", tmp_path / "out.json"] if command == "compose" else [])
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: invalid JSON: nesting too deep\n"
        assert not (tmp_path / "out.json").exists()


class TestNotUtf8:
    # Bytes that do not decode as UTF-8 must give one error line that names
    # the file, exit 1, like the other decode failures.
    @pytest.mark.parametrize("command", ["verify", "compose"])
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "in.json"
        path.write_bytes(b"\xff\xfe{")
        argv = [command, "-i", path] + (["-o", tmp_path / "out.json"] if command == "compose" else [])
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: not UTF-8 (")
        assert err.endswith(")\n") and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()


class TestTooManyDigits:
    # json.load refuses an integer past the interpreter's digit limit (4300
    # by default) with a ValueError whose message names no file.
    @pytest.mark.parametrize("command", ["verify", "compose"])
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "in.json"
        path.write_text('{"type": "cmatrix", "n": 1, "rows": [[[1%s, 0]]]}' % ("0" * 4999))
        argv = [command, "-i", path] + (["-o", tmp_path / "out.json"] if command == "compose" else [])
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()


class TestUsageErrors:
    def test_unknown_command_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            run("bogus")
        assert exc.value.code == 64

    def test_missing_required_flag_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            run("verify")
        assert exc.value.code == 64


class TestToleranceOption:
    # --tol must be a finite number in (0, 1): nan once passed every matrix
    # (defect > nan is false) and -1 or 0 failed every one.
    @pytest.mark.parametrize("command", ["verify", "decompose", "roundtrip"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1", "abc"])
    def test_bad_value_exit_64(self, tmp_path, capsys, command, tol):
        path = tmp_path / "u.json"
        write_matrix(path, np.eye(2, dtype=complex))
        argv = [command, "-i", path, "--tol", tol]
        if command == "decompose":
            argv += ["-o", tmp_path / "p.json"]
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "Traceback" not in err
        assert err.endswith(f"ccsk {command}: error: argument --tol: "
                            f"must be a number in (0, 1), got '{tol}'\n")

    # A loose --tol admits a matrix off the unitary group, and no parameters
    # compose back to it: the round trip misses ROUNDTRIP_TOL * n = 3e-9, so
    # both commands exit 2, and decompose names the bound on stderr.
    @pytest.mark.parametrize("command, err", [
        ("decompose", "roundtrip error exceeds 3.000e-09\n"), ("roundtrip", "")])
    def test_loose_value_roundtrip_error_exit_2(self, tmp_path, capsys, command, err):
        u = np.eye(3, dtype=complex)
        u[0, 1] = 1e-3
        path = tmp_path / "u.json"
        write_matrix(path, u)
        argv = [command, "-i", path, "--tol", "0.5"]
        if command == "decompose":
            argv += ["-o", tmp_path / "p.json"]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("roundtrip_error 1.0000000000000000")
        assert captured.err == err

    @pytest.mark.parametrize("command", ["verify", "decompose", "roundtrip"])
    def test_good_value_accepted(self, tmp_path, command):
        path = tmp_path / "u.json"
        write_matrix(path, np.eye(2, dtype=complex))
        argv = [command, "-i", path, "--tol", "1e-8"]
        if command == "decompose":
            argv += ["-o", tmp_path / "p.json"]
        assert run(*argv) == 0

    # decompose and roundtrip accept what verify passes at the same --tol: a
    # permutation has defect exactly 0, and the peel's rounding (about eps)
    # is no reason to refuse it.
    @pytest.mark.parametrize("command", ["verify", "decompose", "roundtrip"])
    def test_permutation_passes_at_1e_20(self, tmp_path, capsys, command):
        path = tmp_path / "u.json"
        write_matrix(path, np.roll(np.eye(3, dtype=complex), 1, axis=0))
        argv = [command, "-i", path, "--tol", "1e-20"]
        if command == "decompose":
            argv += ["-o", tmp_path / "p.json"]
        assert run(*argv) == 0
        assert capsys.readouterr().err == ""
