"""Self-tests of the benchmark. Run from the repository root with

    python -m pytest -q perfbench

They do not time anything; the smoke runs take a few seconds each.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from reference import REF_S, Reference  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402
from workloads import OpResult, known_defect, library_op, param_error  # noqa: E402

from ccsk import CcskParams, compose, decompose  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

E2E_NAMES = ["setup_s", "compose_per_s", "decompose_per_s", "expm_per_s", "chain_p50_s",
             "chain_tail_s", "error_rate", "roundtrip_err_max", "param_err_max",
             "unitarity_defect_max", "wall.compose_per_s", "wall.chain_p50_s",
             "reference.kernel_s"]
LAYER_NAMES = {
    "small-n": ["blockexp.compose.calls", "blockexp.compose.busy_s", "blockexp.compose.flops",
                "decompose.decompose.calls", "decompose.decompose.busy_s",
                "decompose.decompose.flops", "linalg.unitarity_defect.busy_s",
                "params.CcskParams.busy_s", "oracle.expm.busy_s", "cli.interpreter_s",
                "cli.import_s", "blockexp.compose_over_expm.n32",
                "blockexp.compose.scaling_exp", "decompose.decompose.scaling_exp",
                "trace.overhead_s"],
    "cli-chain": ["oracle.random_params.busy_s", "serialize.read_matrix.busy_s",
                  "serialize.write_matrix.busy_s", "serialize.read_params.busy_s",
                  "serialize.write_params.busy_s", "serialize.bytes", "cli.residual_s",
                  "blockexp.compose_over_expm.n128", "trace.overhead_s"],
}


def _fingerprint(seed):
    out = []
    for k in range(40):
        d = inputs.draw(seed, k, 8)
        arrays = (d.unitary,) if d.cls == "foreign" else (d.thetas, *d.cols)
        out.append((d.cls, d.edge_j, d.edge_rho, b"".join(a.tobytes() for a in arrays)))
    return out


def test_generator_is_deterministic_per_seed():
    assert _fingerprint(7) == _fingerprint(7)
    assert _fingerprint(7) != _fingerprint(8)


def test_generator_covers_every_class_and_the_failing_window():
    seen = {inputs.draw(3, k, 4).cls for k in range(400)}
    assert seen == set(inputs.CLASSES)
    assert inputs.RHO_LOG_MIN <= 1e-9 and inputs.RHO_MAX >= 1.5e-8
    u = next(d.unitary for d in (inputs.draw(3, k, 16) for k in range(100))
             if d.cls == "foreign")
    assert np.linalg.norm(u.conj().T @ u - np.eye(16)) < 1e-13


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),   # overlaps a: the union [1, 6] counts once
        Span("a1", 2.0, 3.0, 1, 0),
        Span("c", 9.0, 12.0, 0, 0),  # runs past its parent: clipped to [9, 10]
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    totals = layer_totals(spans + [Span("a", 20.0, 20.5, -1, 1)])
    assert totals["a"] == (2, pytest.approx(2.5))


def test_tracer_records_parents_and_untraced_records_nothing():
    tr = Tracer(True)
    op = OpResult(2, "interior")
    with tr.span("op"):
        assert op.timed(tr, "f", sum, [1, 2], chain=True) == 3
    assert [(s.name, s.parent) for s in tr.spans] == [("op", -1), ("f", 0)]
    assert op.chain == op.times["f"] and op.times["f"][0][1] >= 0.0
    quiet = Tracer(False)
    op.timed(quiet, "f", sum, [1])
    assert quiet.spans == [] and len(op.times["f"]) == 2 and len(op.chain) == 1


def test_reference_scales_a_call_by_the_samples_near_it():
    ref = Reference()
    # The host runs at the reference speed until t=10, then twice as slow.
    ref.at = [float(t) for t in range(20)]
    ref.took = [REF_S] * 10 + [2 * REF_S] * 10
    assert ref.scaled(0.0, 1.0) == pytest.approx(1.0)
    assert ref.scaled(17.0, 1.0) == pytest.approx(0.5)
    # Far from every sample, the nearest one scales the call.
    assert ref.scaled(100.0, 1.0) == pytest.approx(0.5)
    assert ref.scaled(-100.0, 1.0) == pytest.approx(1.0)


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(100))
    value, pct = run.tail(xs)
    assert value == 89 and sum(x > value for x in xs) == 10 and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_param_error_at_a_vanishing_pivot_compares_only_what_is_defined():
    d = next(d for d in (inputs.draw(1, k, 4) for k in range(200))
             if d.cls == "edge_halfpi" and d.edge_j == 4)
    q = decompose(compose(CcskParams(d.thetas, d.cols)))
    assert param_error(d.thetas, d.cols, q) < 1e-12
    assert abs(q.rho(4) - math.pi / 2) < 1e-12


def test_only_the_known_small_rho_failure_is_tolerated():
    d = next(d for d in (inputs.draw(2, k, 8) for k in range(400)) if d.cls == "edge_log")
    d = inputs.OpInput(d.n, d.cls, d.thetas,
                       d.cols[:d.edge_j - 2] + (5e-9 * d.cols[d.edge_j - 2]
                                                / np.linalg.norm(d.cols[d.edge_j - 2]),)
                       + d.cols[d.edge_j - 1:], edge_j=d.edge_j, edge_rho=5e-9)
    op = library_op(Tracer(False), d)
    assert op.cause == "PeelConsistencyError" and known_defect(op)

    def failed(cls, cause, rho):
        op = OpResult(8, cls, rho)
        op.cause = cause
        return op

    assert not known_defect(failed("edge_log", "PeelConsistencyError", 1e-6))
    assert not known_defect(failed("edge_log", "PeelConsistencyError", 1e-10))
    assert not known_defect(failed("edge_log", "roundtrip_gate", 5e-9))
    assert not known_defect(failed("edge_zero", "param_gate", 0.0))
    assert not known_defect(failed("edge_halfpi", "roundtrip_gate", math.pi / 2))
    assert not known_defect(failed("interior", "PeelConsistencyError", None))


def test_a_run_makes_exactly_the_chains_asked_for():
    from workloads import run_library
    run_ = run_library((2, 3), 2, 4, Tracer(False), 3)
    assert len(run_.chains) == 3 and len(run_.ops) == 12


def _run(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "5", "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed(stdout):
    units = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            units[parts[0]] = parts[2]
    return units


@pytest.mark.parametrize("workload", ["small-n", "cli-chain"])
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    for trace in (0, 1):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        printed = _printed(proc.stdout)
        for name in E2E_NAMES + (LAYER_NAMES[workload] if trace else []):
            assert name in printed, name
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        spec = SPEC["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in spec]
        for m in spec:
            assert result["metrics"][m["name"]]["unit"] == m["unit"] == printed[m["name"]]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("small-n", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
