import functools
import math
import os
import re

import numpy as np
import pytest

from ccsk.decompose import decompose, roundtrip_error
from ccsk.linalg import as_cvector, frobenius_norm, square_matrix, unitarity_defect
from ccsk.oracle import expm
from ccsk.serialize import matrix_from_doc, write_matrix

from conftest import NON_FINITE_MATRICES, matrix_doc, random_complex_matrix


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            square_matrix([[1.0, float("nan")], [0.0, 1.0]], "test")

    def test_rejects_inf_vector(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_cvector([1.0, complex(0, float("inf"))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_cvector([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="^expected a 1-D vector, got ndim=2$"):
            as_cvector([[1.0, 2.0]])


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_identity(self):
        assert frobenius_norm(np.eye(7, dtype=complex)) == pytest.approx(math.sqrt(7))

    def test_hand_sum(self):
        m = np.array([[3, 4j], [0, 0]], dtype=complex)
        assert frobenius_norm(m) == pytest.approx(5.0)

    def test_submultiplicative(self, rng):
        for _ in range(20):
            a = random_complex_matrix(rng, 4, 4)
            b = random_complex_matrix(rng, 4, 4)
            assert (frobenius_norm(a @ b)
                    <= frobenius_norm(a) * frobenius_norm(b) * (1 + 1e-14))


class TestDefects:
    def test_identity_unitary(self):
        assert unitarity_defect(np.eye(5, dtype=complex)) == 0.0

    def test_diagonal_phases_unitary(self):
        u = np.diag(np.exp(1j * np.array([0.7, -1.1])))
        assert unitarity_defect(u) <= 1e-15

    def test_scaled_identity_defect(self):
        # (2I)†(2I) - I = 3I, norm 3*sqrt(2)
        assert unitarity_defect(2 * np.eye(2, dtype=complex)) == pytest.approx(3 * math.sqrt(2))

    # Finite entries whose squares sum past the float range: the defect is
    # inf, as at decompose's gate, with no overflow warning from u^H u.
    @pytest.mark.parametrize("big", [1e155, 1e300])
    def test_norm_overflow_gives_an_infinite_defect(self, big):
        u = np.eye(2, dtype=complex)
        u[0, 1] = big
        assert unitarity_defect(u) == math.inf

    def test_unitarity_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            unitarity_defect(np.zeros((2, 3), dtype=complex))

    def test_product_of_unitaries_stays_unitary(self, rng):
        from ccsk.blockexp import compose
        from ccsk.oracle import random_params
        u = compose(random_params(8, rng))
        v = compose(random_params(8, rng))
        assert unitarity_defect(u) <= 1e-14
        assert unitarity_defect(v) <= 1e-14
        assert unitarity_defect(u @ v) <= 1e-13


# Every public entry point that takes a square matrix, with the name its
# ValueError gives. roundtrip_error hands its input to decompose unchecked;
# write_matrix checks before it opens the file.
SQUARE_ENTRY_POINTS = {
    "decompose": ("decompose", decompose),
    "roundtrip_error": ("decompose", roundtrip_error),
    "expm": ("expm", expm),
    "write_matrix": ("write_matrix", functools.partial(write_matrix, os.devnull)),
    "unitarity_defect": ("unitarity_defect", unitarity_defect),
}

# Inputs that are not a non-empty square matrix of numbers, with the fault
# the ValueError must give after "<function> requires ". numpy's own reason
# follows _NOT_NUMBERS in parentheses; its wording is numpy's, so it is not
# matched.
_NOT_NUMBERS = "a square matrix of numbers ("
NOT_SQUARE = {
    "2x3": (np.zeros((2, 3), dtype=complex), "a non-empty square matrix, got shape (2, 3)"),
    "1-D": (np.ones(3, dtype=complex), "a non-empty square matrix, got shape (3,)"),
    "0x0": (np.zeros((0, 0), dtype=complex), "a non-empty square matrix, got shape (0, 0)"),
    "ragged": ([[1, 2], [3]], _NOT_NUMBERS),
    "malformed_string": ([["a", 1], [1, 1]], _NOT_NUMBERS),
    "dict_entry": ([[{}, 1], [1, 1]], _NOT_NUMBERS),
    "int_past_float": ([[10**400, 0], [0, 1]], _NOT_NUMBERS),
}


def _same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestSquareMatrixBoundary:
    @pytest.mark.parametrize("shape", sorted(NOT_SQUARE))
    @pytest.mark.parametrize("entry", sorted(SQUARE_ENTRY_POINTS))
    def test_refuses_shape(self, entry, shape):
        name, f = SQUARE_ENTRY_POINTS[entry]
        a, fault = NOT_SQUARE[shape]
        with pytest.raises(ValueError, match=re.escape(f"{name} requires {fault}")):
            f(a)

    @pytest.mark.parametrize("matrix", sorted(NON_FINITE_MATRICES))
    @pytest.mark.parametrize("entry", sorted(SQUARE_ENTRY_POINTS) + ["matrix_from_doc"])
    def test_refuses_non_finite_naming_the_entry(self, entry, matrix):
        a = NON_FINITE_MATRICES[matrix]
        if entry == "matrix_from_doc":
            name, f, arg = entry, matrix_from_doc, matrix_doc(a)
        else:
            (name, f), arg = SQUARE_ENTRY_POINTS[entry], a
        i, j = np.argwhere(~np.isfinite(a))[0]  # the first, in row-major order
        with pytest.raises(ValueError, match=re.escape(
                f"{name} requires finite entries; entry ({i}, {j}) is non-finite (")):
            f(arg)

    @pytest.mark.parametrize("entry", sorted(SQUARE_ENTRY_POINTS))
    def test_accepts_nested_list(self, entry):
        _, f = SQUARE_ENTRY_POINTS[entry]
        rows = [[1j, 0], [0, -1j]]  # unitary
        assert _same(f(rows), f(np.array(rows)))

    def test_matrix_from_doc_accepts_its_rows(self):
        m = np.array([[1j, 0], [0, -1j]])
        np.testing.assert_array_equal(matrix_from_doc(matrix_doc(m)), m)

    def test_returns_the_norm(self):
        m, norm = square_matrix([[3, 4j], [0, 0]], "test")
        assert m.dtype == np.complex128 and norm == 5.0

    def test_norm_overflow_is_left_to_the_caller(self):
        # frobenius_norm sums unscaled squares: finite entries of 1e200 give
        # a norm of inf, returned without a warning or an error.
        _, norm = square_matrix(np.full((2, 2), 1e200), "test")
        assert norm == math.inf


class TestCheckedOnce:
    # Each public check runs once per call, also when the caller is inside
    # the package: decompose's exact gate, ccsk verify and ccsk compose each
    # call the public defect once.
    def test_internal_paths_run_each_check_once(self, monkeypatch, tmp_path):
        from ccsk import linalg
        from ccsk.cli import main
        from ccsk.oracle import RngState, random_params
        from ccsk.serialize import write_params

        calls = []
        check = linalg.square_matrix

        def counted(a, what):
            calls.append(what)
            return check(a, what)

        monkeypatch.setattr(linalg, "square_matrix", counted)
        p = random_params(8, RngState(8))
        # At --tol 1e-20 the exact defect decides the gate.
        perm = np.roll(np.eye(8, dtype=complex), 1, axis=0)
        decompose(perm, unitarity_tol=1e-20)
        assert calls == ["unitarity_defect"]
        write_matrix(tmp_path / "u.json", perm)
        write_params(tmp_path / "p.json", p)
        assert calls[1:] == []
        assert main(["verify", "-i", str(tmp_path / "u.json")]) == 0
        assert calls[1:] == ["unitarity_defect"]
        assert main(["compose", "-i", str(tmp_path / "p.json"), "-o", str(tmp_path / "c.json")]) == 0
        assert calls[2:] == ["unitarity_defect"]
