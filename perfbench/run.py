"""Benchmark of the ccsk package: library throughput at small and large n and
the command-line chain, with traced per-layer timings.

Usage, from the root of a checkout that holds ``src/ccsk``::

    python3 perfbench/run.py --workload small-n --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones.
Every metric is printed on its own line with its unit, then the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A full
record (environment, every figure, and the spans of a traced run) is written
under ``.perfbench/`` in the checkout. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("small-n", "large-n", "cli-chain")
# BLAS threads for this process and every process it starts. One thread gives
# steadier timings on a small shared machine; both sides of a comparison run
# with the same value.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed for each set-up figure; the median is reported.
SETUP_REPEATS = 15
# Every run makes a fixed number of chains, round(--seconds x rate), with the
# rate (untraced, traced) of each workload measured on a 2-core Xeon. Both
# sides of a comparison then take the same order statistics of the same number
# of chains, and a traced run's counts repeat exactly for a seed. A cli-chain
# traced run also replays each chain in-process, so it makes fewer.
# The rates also share the run budget out: small-n and large-n need fewer
# chains than cli-chain, whose processes vary most from one to the next.
CHAINS_PER_S = {"small-n": (1.5, 1.5), "large-n": (0.27, 0.27), "cli-chain": (0.60, 0.27)}

E2E_UNITS = {
    "setup_s": "s", "compose_per_s": "1/s", "decompose_per_s": "1/s",
    "expm_per_s": "1/s", "chain_p50_s": "s", "chain_tail_s": "s",
    "error_rate": "ratio", "roundtrip_err_max": "ratio", "param_err_max": "rad",
    "unitarity_defect_max": "ratio",
}
# The timings, which are scaled to the reference host speed; their wall-clock
# values are printed too, as ``wall.<name>``.
TIMED = ("setup_s", "compose_per_s", "decompose_per_s", "expm_per_s", "chain_p50_s",
         "chain_tail_s")


def tail(xs: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which
    percentile that is. With ten samples or fewer, the maximum (100)."""
    xs = sorted(xs)
    i = len(xs) - 11
    if i < 0:
        return xs[-1], 100.0
    return xs[i], 100.0 * (i + 1) / len(xs)


def slope(ns, ts) -> float:
    """Least-squares slope of log t against log n."""
    x = [math.log(n) for n in ns]
    y = [math.log(t) for t in ts]
    mx, my = statistics.fmean(x), statistics.fmean(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))


def per_n_mean(ops, layer: str, ns, scale) -> dict[int, float]:
    """Mean seconds of a ``layer`` call at each n, over the ops that passed.

    ``scale(start, seconds)`` gives the seconds a call counts for.
    """
    out = {}
    for n in ns:
        ts = [scale(*call) for op in ops if op.n == n and op.cause is None
              for call in op.times.get(layer, ())]
        if not ts:
            raise RuntimeError(f"no successful {layer} call at n={n}; cannot measure it")
        out[n] = statistics.fmean(ts)
    return out


def wall(start: float, seconds: float) -> float:
    """A call's wall-clock seconds, as they were measured."""
    return seconds


def environment(seed: int, trace: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(), "cpu": cpu,
        "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown"),
        "commit": commit, "seed": seed, "trace": trace,
    }


def end_to_end(workload: str, run, ns, setup: list, scale) -> tuple[dict, dict]:
    """The end-to-end metrics, and notes that go with them in the report.

    ``setup`` holds the (start, seconds) of each timed ``import ccsk``;
    ``scale(start, seconds)`` gives the seconds a call counts for.
    """
    ops = run.ops
    if workload == "cli-chain":
        rate = {key: 1.0 / statistics.fmean(
                    [scale(*call) for op in ops if op.cause is None
                     for call in op.times["cli." + key]])
                for key in ("compose", "decompose", "expm")}
    else:
        layers = {"compose": "blockexp.compose", "decompose": "decompose.decompose",
                  "expm": "oracle.expm"}
        rate = {key: len(ns) / sum(per_n_mean(ops, layer, ns, scale).values())
                for key, layer in layers.items()}
    ok = [op for op in ops if op.roundtrip is not None]
    failed = sum(op.cause is not None for op in ops)
    chains = [sum(scale(*call) for call in chain) for chain in run.chains]
    tail_s, tail_pct = tail(chains)
    m = {
        "setup_s": statistics.median(scale(*call) for call in setup),
        "compose_per_s": rate["compose"],
        "decompose_per_s": rate["decompose"],
        "expm_per_s": rate["expm"],
        "chain_p50_s": statistics.median(chains),
        "chain_tail_s": tail_s,
        "error_rate": failed / len(ops),
        "roundtrip_err_max": max(op.roundtrip for op in ok),
        "param_err_max": max(op.param for op in ok if op.param is not None),
        "unitarity_defect_max": max(d for op in ok for d in op.defects),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "chain_p50_s": f"{len(chains)} chains",
        "chain_tail_s": f"p{tail_pct:.1f} of {len(chains)} chains",
        "error_rate": f"{failed} of {len(ops)} ops",
    }
    return m, notes


def per_layer(workload: str, run, ns, tr, startup: dict, overhead_s: float) -> dict:
    """Per-layer figures of a traced run, as ``name -> (value, unit)``."""
    from reference import REF
    from spans import layer_totals
    from workloads import compose_flops, decompose_flops

    out = {}
    totals = layer_totals(tr.spans)
    for name, (calls, busy) in sorted(totals.items()):
        if name == "op":
            continue
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
    for layer, flops in (("blockexp.compose", compose_flops),
                         ("decompose.decompose", decompose_flops)):
        out[f"{layer}.flops"] = (sum(c * flops(n) for (name, n), c in run.calls.items()
                                     if name == layer), "flop")
    mean = {layer: per_n_mean(run.ops, layer, ns, REF.scaled)
            for layer in ("blockexp.compose", "decompose.decompose", "oracle.expm")}
    for n in ns:
        out[f"blockexp.compose_over_expm.n{n}"] = (
            mean["blockexp.compose"][n] / mean["oracle.expm"][n], "ratio")
    out["blockexp.compose_over_expm"] = out[f"blockexp.compose_over_expm.n{max(ns)}"]
    if len(ns) > 1:
        for layer, by_n in mean.items():
            out[f"{layer}.scaling_exp"] = (slope(ns, [by_n[n] for n in ns]), "ratio")
    out["cli.interpreter_s"] = (startup["interpreter_s"], "s")
    out["cli.import_s"] = (startup["import_s"], "s")
    if workload == "cli-chain":
        out["serialize.bytes"] = (run.bytes_written, "B")
        out["cli.residual_s"] = (statistics.median(run.residuals), "s")
    out["trace.spans"] = (len(tr.spans), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "ccsk" / "__init__.py").is_file():
        print(f"perfbench: no ccsk source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    # Threads are fixed before numpy loads; ccsk is imported from this checkout.
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from reference import REF, REF_S
    from spans import Tracer, span_cost
    from workloads import (CLI_N, LARGE_NS, SMALL_CHAIN_PASSES, SMALL_NS, Cli, known_defect,
                           run_cli, run_library)
    from inputs import CLASSES

    trace = bool(args.trace)
    env = environment(args.seed, trace)
    cli = Cli(str(SRC), dict(os.environ))
    startup = {}
    if trace:
        startup["interpreter_s"] = statistics.median(
            cli.interpreter() for _ in range(SETUP_REPEATS))
        startup["import_s"] = statistics.median(
            cli.import_time("ccsk.cli")[1] for _ in range(SETUP_REPEATS))
    setup = [cli.import_time("ccsk") for _ in range(SETUP_REPEATS)]

    tr = Tracer(trace)
    chains = max(1, round(args.seconds * CHAINS_PER_S[args.workload][trace]))
    OUT.mkdir(exist_ok=True)
    if args.workload == "cli-chain":
        ns = (CLI_N,)
        workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
        try:
            run = run_cli(args.seed, tr, chains, cli, workdir,
                          startup.get("interpreter_s", 0.0) + startup.get("import_s", 0.0))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        ns, passes = (SMALL_NS, SMALL_CHAIN_PASSES) if args.workload == "small-n" else (LARGE_NS, 1)
        run = run_library(ns, passes, args.seed, tr, chains)

    REF.sample()  # so that the last calls have a sample after them too
    e2e, notes = end_to_end(args.workload, run, ns, setup, REF.scaled)
    report = {name: (value, E2E_UNITS[name]) for name, value in e2e.items()}
    measured, _ = end_to_end(args.workload, run, ns, setup, wall)
    report.update({f"wall.{name}": (measured[name], E2E_UNITS[name]) for name in TIMED})
    report["reference.kernel_s"] = (statistics.median(REF.took), "s")
    notes["reference.kernel_s"] = (f"median of {len(REF.took)} samples; "
                                   f"{REF_S * 1e3:g} ms on the reference host")
    if trace:
        overhead_s = span_cost() * len(tr.spans)
        report.update(per_layer(args.workload, run, ns, tr, startup, overhead_s))

    ops = run.ops
    failures = Counter((op.cls, op.cause) for op in ops if op.cause is not None)
    shares = {c: sum(op.cls == c for op in ops) / len(ops) for c in CLASSES + ("cli",)}
    correct = all(known_defect(op) for op in ops if op.cause is not None)

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env))
    for name, (value, unit) in report.items():
        note = f"  # {notes[name]}" if name in notes else ""
        print(f"{name} {value!r} {unit}{note}")
    print("# input class shares " + json.dumps({c: s for c, s in shares.items() if s}))
    print("# failures by class and cause " + json.dumps(
        {f"{cls}/{cause}": c for (cls, cause), c in sorted(failures.items())}))

    record = {
        "workload": args.workload, "env": env, "correct": correct,
        "attempted": len(ops), "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "notes": notes, "class_shares": shares,
        "failures": [{"class": cls, "cause": cause, "count": c}
                     for (cls, cause), c in sorted(failures.items())],
        "chains": run.chains,
        # Every timed call, as [layer, n, start, seconds], and every reference
        # sample, as [middle, seconds]: enough to recompute each timing.
        "calls": [[layer, op.n, *call] for op in ops for layer, calls in op.times.items()
                  for call in calls],
        "reference": [list(x) for x in zip(REF.at, REF.took)],
    }
    if trace:
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.op] for s in tr.spans]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8")

    missing = [name for name in wanted if name not in report]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": sum(failures.values()),
        "metrics": {name: {"value": report[name][0], "unit": report[name][1]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
