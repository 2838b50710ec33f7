"""Per-layer timing sweep of ccsk: compose, decompose, expm and random_params
over n, and the JSON writers and readers up to ``JSON_MAX_N``, with the
accuracy of each row and the environment, written to ``BENCH_<label>.json``.

Usage, from the root of a checkout::

    PYTHONPATH=src python bench/sweep.py --label <commit>

It imports only ``ccsk`` (from wherever ``PYTHONPATH`` points, so the same
script can time another checkout's ``src``) and numpy. Run as a script, BLAS
threads default to 1, as in perfbench; a thread variable already set is kept.
The record holds the values in force.

Method. Each (layer, n) takes one warm-up call, discarded, so that the
per-n table built on a first call (``params.z_mask``, the mask ``compose``
scatters the z columns with) is not charged to the timings, and
one call that sets how many calls a sample times (enough for
``MIN_SAMPLE_S``). Then every repeat times one sample of each layer in turn,
the order rotating from one repeat to the next, so that a drift of the
host's speed reaches every layer alike. A row reports, per layer, the
median and quartiles of the seconds per call over the repeats, the ratios
decompose/compose, compose/expm and random_params/compose of the medians,
and the accuracy of that n's input in units of eps * n: the unitarity
defect of compose(p) and the roundtrip error of compose(decompose(u))
against u. The JSON layers write u and p to files of one temporary
directory, and read back files written there once before the warm-up.

Start-up. Each repeat also starts one fresh process of each of
``STARTUP`` (``python -c pass``, ``import numpy`` and ``import ccsk.cli``),
in a rotating order, and times it by wall clock from the parent. The record's
``startup`` block holds the median and quartiles of each: the floor under
every CLI command.

Yardstick. Every repeat also times a fixed numpy workload that does not
depend on n or on ccsk (``yardstick_workload``), in the same rotation. A row
records its median and each layer's median over it. A host whose speed
changes between rows (a 2-core VM ran some whole rows about 1.8x faster than
the rest) moves the yardstick with the layers, so rows and records that ran
at different speeds compare by these ratios rather than by seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _var in THREAD_VARS:  # before numpy loads
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import ccsk  # noqa: E402
from ccsk.serialize import read_matrix, read_params, write_matrix, write_params  # noqa: E402

NS = (2, 3, 4, 8, 16, 32, 64, 128, 256, 512)
LAYERS = ("compose", "decompose", "expm", "random_params")
JSON_LAYERS = ("write_matrix", "read_matrix", "write_params", "read_params")
JSON_MAX_N = 256
REPEATS = 21
MIN_SAMPLE_S = 2e-3
EPS = float(np.finfo(np.float64).eps)
STARTUP = {"python": "pass", "numpy": "import numpy", "ccsk_cli": "import ccsk.cli"}
YARDSTICK = ("eight 4 x 4 complex products and sums, then one 32 x 32 complex "
             "product, on fixed matrices")


def yardstick_workload():
    """The yardstick's call, the same in every row and every record: per-call
    overhead (eight small products and sums), as in the small-n layers, and
    one BLAS product, as in the large-n ones. Over 90 s of interleaved
    samples on a 2-core VM it tracked the host's speed better than either
    half alone: the spread of log(layer / yardstick) was 0.12-0.15 for
    compose, decompose and expm at n = 8 and 128, against 0.17-0.19 with the
    32 x 32 product alone and 0.20-0.29 for the raw times."""
    a = np.cos(np.arange(32 * 32, dtype=np.float64)).reshape(32, 32) * (1 + 0.5j)
    b = a.T.copy()
    s = a[:4, :4].copy()

    def call():
        y = s
        for _ in range(8):
            y = np.dot(y, s) * 0.5
            y += s
        return np.dot(a, b)

    return call


def environment() -> dict:
    """Python, numpy, the BLAS numpy was built with, the thread variables,
    whether Python writes bytecode caches, and the CPU."""
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
        # When set, every import compiles ccsk from source, start-up included.
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
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


def quartiles(ts: list) -> dict:
    """The median and quartiles of the seconds ts."""
    q1, med, q3 = np.percentile(ts, [25, 50, 75])
    return {"median_s": float(med), "q1_s": float(q1), "q3_s": float(q3)}


def startup(repeats: int) -> dict:
    """Wall-clock seconds of fresh ``python -c`` processes, one of each of
    STARTUP per repeat, in rotation. The children import the ccsk that this
    process imported."""
    path = [os.path.dirname(os.path.dirname(ccsk.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    names = list(STARTUP)
    times = {name: [] for name in names}
    for r in range(repeats):
        for i in range(len(names)):
            name = names[(i + r) % len(names)]
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", STARTUP[name]], env=env, check=True)
            times[name].append(time.perf_counter() - t0)
    return {name: quartiles(ts) for name, ts in times.items()}


def row(n: int, repeats: int, tmp: str) -> dict:
    """One n: the timings of every layer, their ratios and the accuracy. The
    JSON layers, at n <= JSON_MAX_N, use files in the directory tmp."""
    p = ccsk.random_params(n, ccsk.RngState(n))
    u = ccsk.compose(p)
    x = ccsk.assemble_generator(p)
    fs = {
        "compose": lambda: ccsk.compose(p),
        "decompose": lambda: ccsk.decompose(u),
        "expm": lambda: ccsk.expm(x),
        "random_params": lambda: ccsk.random_params(n, ccsk.RngState(n)),
        "yardstick": yardstick_workload(),
    }
    if n <= JSON_MAX_N:
        out_m, out_p, in_m, in_p = (os.path.join(tmp, name) for name in
                                    ("out_m.json", "out_p.json", "in_m.json", "in_p.json"))
        write_matrix(in_m, u)
        write_params(in_p, p)
        fs.update({"write_matrix": lambda: write_matrix(out_m, u),
                   "read_matrix": lambda: read_matrix(in_m),
                   "write_params": lambda: write_params(out_p, p),
                   "read_params": lambda: read_params(in_p)})
    order = list(fs)
    calls = {}
    for layer, f in fs.items():
        f()  # warm-up, discarded
        calls[layer] = max(1, int(MIN_SAMPLE_S / max(_sample(f, 1), 1e-9)))
    times = {layer: [] for layer in order}
    for r in range(repeats):
        for i in range(len(order)):
            layer = order[(i + r) % len(order)]
            times[layer].append(_sample(fs[layer], calls[layer]))
    layers = {}
    for layer, ts in times.items():
        layers[layer] = dict(quartiles(ts), calls_per_sample=calls[layer])
    yardstick = layers.pop("yardstick")
    med = {layer: layers[layer]["median_s"] for layer in LAYERS}
    return {
        "n": n,
        "layers": layers,
        "yardstick": yardstick,
        "over_yardstick": {layer: t["median_s"] / yardstick["median_s"]
                           for layer, t in layers.items()},
        "ratios": {"decompose_over_compose": med["decompose"] / med["compose"],
                   "compose_over_expm": med["compose"] / med["expm"],
                   "rng_over_compose": med["random_params"] / med["compose"]},
        "accuracy": {"defect_eps_n": ccsk.unitarity_defect(u) / (EPS * n),
                     "roundtrip_eps_n": ccsk.roundtrip_error(u) / (EPS * n)},
    }


def sweep(ns=NS, repeats: int = REPEATS, label: str = "") -> dict:
    """The whole record: its label, method, environment, start-up times and
    one row per n."""
    created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with tempfile.TemporaryDirectory() as tmp:
        rows = [row(n, repeats, tmp) for n in ns]
    return {
        "label": label,
        "created": created,
        "method": {"repeats": repeats, "warmup_calls": 1, "min_sample_s": MIN_SAMPLE_S,
                   "statistic": "median and quartiles of seconds per call over the "
                                "repeats; layers interleaved within each repeat",
                   "yardstick": YARDSTICK + ", timed in every repeat",
                   "startup": "wall clock of one fresh process per command and repeat, "
                              "in rotation",
                   "json_max_n": JSON_MAX_N},
        "environment": environment(),
        "startup": startup(repeats),
        "rows": rows,
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
        ms = "  ".join(f"{layer} {t['median_s'] * 1e3:.3f}" for layer, t in r["layers"].items())
        print(f"n={r['n']:4d}  {ms} ms  yardstick "
              f"{r['yardstick']['median_s'] * 1e6:.2f} us  decompose/compose "
              f"{r['ratios']['decompose_over_compose']:.2f}  compose/expm "
              f"{r['ratios']['compose_over_expm']:.2f}  rng/compose "
              f"{r['ratios']['rng_over_compose']:.2f}")
    print("start-up  " + "  ".join(f"{name} {t['median_s']:.3f}"
                                   for name, t in record["startup"].items()) + " s")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
