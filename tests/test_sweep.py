import importlib.util
import json
import math
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parent.parent / "bench" / "sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("bench_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def numbers(node):
    """Every number in a JSON tree."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


class TestSweep:
    # The sweep at n <= 4, one repeat: the schema, and every timing, ratio
    # and accuracy field finite.
    def test_schema_and_finite_fields(self, sweep, tmp_path):
        assert sweep.main(["--label", "t", "--ns", "2", "3", "4", "--repeats", "1",
                           "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
        assert record["label"] == "t"
        assert record["method"]["repeats"] == 1
        assert "yardstick" in record["method"]
        env = record["environment"]
        assert {"python", "numpy", "blas", "threads", "cpu"} <= set(env)
        assert set(env["threads"]) == set(sweep.THREAD_VARS)
        assert isinstance(env["dont_write_bytecode"], bool)
        # One fresh process of each start-up command per repeat: python
        # alone, with numpy, and with the CLI's imports.
        assert "startup" in record["method"]
        assert set(record["startup"]) == {"python", "numpy", "ccsk_cli"}
        for timing in record["startup"].values():
            assert set(timing) == {"median_s", "q1_s", "q3_s"}
            assert 0 < timing["q1_s"] <= timing["median_s"] <= timing["q3_s"]
        assert [r["n"] for r in record["rows"]] == [2, 3, 4]
        for r in record["rows"]:
            # Every layer, the JSON writers and readers included (n <= JSON_MAX_N).
            assert set(r["layers"]) == set(sweep.LAYERS + sweep.JSON_LAYERS)
            assert set(sweep.JSON_LAYERS) == {"write_matrix", "read_matrix",
                                              "write_params", "read_params"}
            for timing in r["layers"].values():
                assert set(timing) == {"median_s", "q1_s", "q3_s", "calls_per_sample"}
                assert 0 < timing["q1_s"] <= timing["median_s"] <= timing["q3_s"]
                assert timing["calls_per_sample"] >= 1
            # The fixed workload timed in every repeat, and each layer over it.
            assert set(r["yardstick"]) == {"median_s", "q1_s", "q3_s", "calls_per_sample"}
            assert 0 < r["yardstick"]["median_s"]
            assert set(r["over_yardstick"]) == set(r["layers"])
            for layer, ratio in r["over_yardstick"].items():
                assert ratio == r["layers"][layer]["median_s"] / r["yardstick"]["median_s"]
            assert set(r["ratios"]) == {"decompose_over_compose", "compose_over_expm",
                                        "rng_over_compose"}
            assert set(r["accuracy"]) == {"defect_eps_n", "roundtrip_eps_n"}
            # A composed unitary and its roundtrip stay within a few eps n.
            assert 0 <= r["accuracy"]["defect_eps_n"] < 100
            assert 0 <= r["accuracy"]["roundtrip_eps_n"] < 100
        xs = list(numbers([record["rows"], record["startup"]]))
        assert xs
        assert all(math.isfinite(x) for x in xs)
