import json

import numpy as np
import pytest

from ccsk.blockexp import compose
from ccsk.oracle import RngState, random_params
from ccsk.params import CcskParams
from ccsk.serialize import (ParseError, matrix_from_doc, params_from_doc,
                            read_matrix, read_params, write_matrix, write_params)

from conftest import matrix_doc, params_doc


class TestMatrixFormat:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        u = compose(random_params(5, rng))
        path = tmp_path / "u.json"
        write_matrix(path, u)
        np.testing.assert_array_equal(read_matrix(path), u)

    def test_doc_shape(self, tmp_path):
        path = tmp_path / "u.json"
        write_matrix(path, np.eye(2, dtype=complex))
        doc = json.loads(path.read_text())
        assert doc["type"] == "cmatrix"
        assert doc["n"] == 2
        assert doc["rows"][0][0] == [1.0, 0.0]

    def test_rejects_wrong_type_tag(self):
        with pytest.raises(ParseError, match="cmatrix"):
            matrix_from_doc({"type": "params", "n": 1, "rows": [[[0, 0]]]})

    def test_rejects_bad_entry(self):
        with pytest.raises(ParseError, match=r"rows\[0\]\[1\]"):
            matrix_from_doc({"type": "cmatrix", "n": 2,
                             "rows": [[[1, 0], "x"], [[0, 0], [1, 0]]]})

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ParseError, match="rows"):
            matrix_from_doc({"type": "cmatrix", "n": 3, "rows": [[[1, 0]]]})

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            read_matrix(path)


class TestParamsFormat:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        p = random_params(6, rng)
        path = tmp_path / "p.json"
        write_params(path, p)
        q = read_params(path)
        np.testing.assert_array_equal(q.thetas, p.thetas)
        for a, b in zip(q.z_columns, p.z_columns):
            np.testing.assert_array_equal(a, b)

    def test_column_lengths_enforced(self):
        with pytest.raises(ParseError, match=r"z\[1\]"):
            params_from_doc({"type": "ccsk_params", "n": 3,
                             "thetas": [0, 0, 0],
                             "z": [[[0, 0]], [[0, 0]]]})

    def test_rejects_wrong_type_tag(self):
        with pytest.raises(ParseError, match='^expected a document with "type": "ccsk_params"$'):
            params_from_doc({"type": "cmatrix", "n": 1, "thetas": [0], "z": []})

    def test_rejects_wrong_column_count(self):
        with pytest.raises(ParseError, match='^field "z" must be a list of 2 columns$'):
            params_from_doc({"type": "ccsk_params", "n": 3, "thetas": [0, 0, 0],
                             "z": [[[0, 0]]]})

    def test_n1_empty_z(self):
        p = params_from_doc({"type": "ccsk_params", "n": 1,
                             "thetas": [0.25], "z": []})
        assert p.n == 1 and p.thetas[0] == 0.25

    def test_doc_roundtrip_through_json_text(self, rng):
        p = random_params(4, rng)
        text = json.dumps(params_doc(p))
        q = params_from_doc(json.loads(text))
        np.testing.assert_array_equal(q.thetas, p.thetas)

    def test_serialized_repeatably(self, tmp_path, rng):
        p = random_params(4, rng)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_params(a, p)
        write_params(b, p)
        assert a.read_bytes() == b.read_bytes()


# Values whose text or bits are easy to get wrong: a negative zero, the
# smallest subnormal, a tiny normal, an integral float, and the points where
# repr changes form (1e-05 and 1e+16 in exponent form, 0.0001 and
# 123456789.0 not).
SPECIAL = [-0.0, 5e-324, 1e-300, 1.0, 1e-05, 0.0001, 1e+16, 123456789.0]


def special_matrix(n: int) -> np.ndarray:
    m = compose(random_params(n, RngState(n)))
    flat = m.reshape(-1)  # a view: writes go into m
    for k, v in enumerate(SPECIAL):
        flat[k % flat.size] = complex(v, -v) if k % 2 else complex(-v, v)
    return m


def special_params(n: int):
    p = random_params(n, RngState(n))
    thetas = p.thetas.copy()
    thetas[: len(SPECIAL)] = SPECIAL[:n]
    cols = [z.copy() for z in p.z_columns]
    for k, z in enumerate(cols):
        z[0] = complex(SPECIAL[k % len(SPECIAL)], -SPECIAL[(k + 1) % len(SPECIAL)])
    return CcskParams(thetas, tuple(cols))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit: -0.0 and 0.0 differ here."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBulkIO:
    # The writers render the indented text themselves; it must be what the
    # standard encoder makes of the same document, byte for byte.
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 33])
    def test_matrix_bytes_and_bits(self, tmp_path, n):
        m = special_matrix(n)
        path = tmp_path / "m.json"
        write_matrix(path, m)
        assert path.read_bytes() == (json.dumps(matrix_doc(m), indent=2) + "\n").encode()
        assert same_bits(read_matrix(path), m)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 33])
    def test_params_bytes_and_bits(self, tmp_path, n):
        p = special_params(n)
        path = tmp_path / "p.json"
        write_params(path, p)
        assert path.read_bytes() == (json.dumps(params_doc(p), indent=2) + "\n").encode()
        q = read_params(path)
        assert same_bits(q.thetas, p.thetas)
        assert len(q.z_columns) == len(p.z_columns)
        assert all(same_bits(a, b) for a, b in zip(q.z_columns, p.z_columns))

    @pytest.mark.parametrize("doc", [
        {"type": "cmatrix", "n": 1, "rows": [[[10 ** 400, 0]]]},
        {"type": "ccsk_params", "n": 2, "thetas": [0, 0], "z": [[[0, -10 ** 400]]]},
        {"type": "ccsk_params", "n": 1, "thetas": [10 ** 400], "z": []},
    ])
    def test_integer_out_of_float_range(self, doc):
        field = "rows" if doc["type"] == "cmatrix" else "z" if doc["z"] else "thetas"
        with pytest.raises(ParseError, match=f'^field "{field}": .*too large'):
            (matrix_from_doc if doc["type"] == "cmatrix" else params_from_doc)(doc)


BAD_ENTRIES = ["x", [True, 0], [None, 0], 5, [1, 2, 3], {}]


class TestMalformedEntries:
    # A document that fails the bulk check is walked to name the first bad entry.
    @pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
    def test_matrix_entry(self, bad):
        doc = {"type": "cmatrix", "n": 2,
               "rows": [[[1, 0], [0, 0]], [bad, "later"]]}
        with pytest.raises(ParseError) as exc:
            matrix_from_doc(doc)
        assert str(exc.value) == f"rows[1][0]: expected a [re, im] number pair, got {bad!r}"

    @pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
    def test_params_entry(self, bad):
        doc = {"type": "ccsk_params", "n": 3, "thetas": [0, 0, 0],
               "z": [[[0, 0]], [[0, 0], bad]]}
        with pytest.raises(ParseError) as exc:
            params_from_doc(doc)
        assert str(exc.value) == f"z[1][1]: expected a [re, im] number pair, got {bad!r}"

    def test_ragged_row(self):
        # Two rows of 3 and 1 hold the right number of entries in all.
        doc = {"type": "cmatrix", "n": 2,
               "rows": [[[1, 0], [0, 0], [0, 0]], [[1, 0]]]}
        with pytest.raises(ParseError) as exc:
            matrix_from_doc(doc)
        assert str(exc.value) == "row 0: expected 2 entries"

    def test_ragged_column(self):
        doc = {"type": "ccsk_params", "n": 3, "thetas": [0, 0, 0],
               "z": [[[0, 0], [0, 0]], [[0, 0]]]}
        with pytest.raises(ParseError) as exc:
            params_from_doc(doc)
        assert str(exc.value) == "z[0]: expected 1 entries (column j=2)"

    def test_first_bad_entry_is_named(self):
        # Row 0's bad entry comes before row 1's wrong length in reading order.
        doc = {"type": "cmatrix", "n": 2,
               "rows": [[[1, 0], [True, 0]], [[0, 0]]]}
        with pytest.raises(ParseError) as exc:
            matrix_from_doc(doc)
        assert str(exc.value) == "rows[0][1]: expected a [re, im] number pair, got [True, 0]"
