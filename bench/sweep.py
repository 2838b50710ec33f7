"""Per-layer timing sweep of ccsk: compose, decompose, expm and random_params
over n, with the accuracy of each row and the environment, written to
``BENCH_<label>.json``.

Usage, from the root of a checkout::

    PYTHONPATH=src python bench/sweep.py --label <commit>

It imports only ``ccsk`` (from wherever ``PYTHONPATH`` points, so the same
script can time another checkout's ``src``) and numpy. Run as a script, BLAS
threads default to 1, as in perfbench; a thread variable already set is kept.
The record holds the values in force.

Method. Each (layer, n) takes one warm-up call, discarded, so that the
per-n tables built on a first call (``decompose._panels``,
``blockexp._masks``) are not charged to the timings, and one call that sets
how many calls a sample times (enough for ``MIN_SAMPLE_S``). Then every
repeat times one sample of each layer in turn, the order rotating from one
repeat to the next, so that a drift of the host's speed reaches every layer
alike. A row reports, per layer, the median and quartiles of the seconds per
call over the repeats, the ratios decompose/compose and compose/expm of the
medians, and the accuracy of that n's input in units of eps * n: the
unitarity defect of compose(p) and the roundtrip error of
compose(decompose(u)) against u.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _var in THREAD_VARS:  # before numpy loads
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import ccsk  # noqa: E402

NS = (2, 8, 16, 32, 64, 128, 256, 512)
LAYERS = ("compose", "decompose", "expm", "random_params")
REPEATS = 21
MIN_SAMPLE_S = 2e-3
EPS = float(np.finfo(np.float64).eps)


def environment() -> dict:
    """Python, numpy, the BLAS numpy was built with, the thread variables and
    the CPU."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ccsk": ccsk.__version__,
        "blas": {key: blas[key] for key in ("name", "version", "openblas configuration")
                 if key in blas},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _sample(f, calls: int) -> float:
    """Seconds per call of ``calls`` calls of f."""
    t0 = time.perf_counter()
    for _ in range(calls):
        f()
    return (time.perf_counter() - t0) / calls


def row(n: int, repeats: int) -> dict:
    """One n: the timings of every layer, their ratios and the accuracy."""
    p = ccsk.random_params(n, ccsk.RngState(n))
    u = ccsk.compose(p)
    x = ccsk.assemble_generator(p)
    fs = {
        "compose": lambda: ccsk.compose(p),
        "decompose": lambda: ccsk.decompose(u),
        "expm": lambda: ccsk.expm(x),
        "random_params": lambda: ccsk.random_params(n, ccsk.RngState(n)),
    }
    calls = {}
    for layer, f in fs.items():
        f()  # warm-up, discarded
        calls[layer] = max(1, int(MIN_SAMPLE_S / max(_sample(f, 1), 1e-9)))
    times = {layer: [] for layer in LAYERS}
    for r in range(repeats):
        for i in range(len(LAYERS)):
            layer = LAYERS[(i + r) % len(LAYERS)]
            times[layer].append(_sample(fs[layer], calls[layer]))
    layers = {}
    for layer, ts in times.items():
        q1, med, q3 = np.percentile(ts, [25, 50, 75])
        layers[layer] = {"median_s": float(med), "q1_s": float(q1), "q3_s": float(q3),
                         "calls_per_sample": calls[layer]}
    med = {layer: layers[layer]["median_s"] for layer in LAYERS}
    return {
        "n": n,
        "layers": layers,
        "ratios": {"decompose_over_compose": med["decompose"] / med["compose"],
                   "compose_over_expm": med["compose"] / med["expm"]},
        "accuracy": {"defect_eps_n": ccsk.unitarity_defect(u) / (EPS * n),
                     "roundtrip_eps_n": ccsk.roundtrip_error(u) / (EPS * n)},
    }


def sweep(ns=NS, repeats: int = REPEATS, label: str = "") -> dict:
    """The whole record: its label, method, environment and one row per n."""
    return {
        "label": label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "method": {"repeats": repeats, "warmup_calls": 1, "min_sample_s": MIN_SAMPLE_S,
                   "statistic": "median and quartiles of seconds per call over the "
                                "repeats; layers interleaved within each repeat"},
        "environment": environment(),
        "rows": [row(n, repeats) for n in ns],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    ap.add_argument("--ns", type=int, nargs="+", default=NS)
    ap.add_argument("--repeats", type=int, default=REPEATS)
    ap.add_argument("--out", default=".", help="directory to write the file to")
    args = ap.parse_args(argv)
    record = sweep(args.ns, args.repeats, args.label)
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for r in record["rows"]:
        ms = "  ".join(f"{layer} {r['layers'][layer]['median_s'] * 1e3:.3f}"
                       for layer in LAYERS)
        print(f"n={r['n']:4d}  {ms} ms  decompose/compose "
              f"{r['ratios']['decompose_over_compose']:.2f}  compose/expm "
              f"{r['ratios']['compose_over_expm']:.2f}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
