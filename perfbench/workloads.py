"""The three workloads: closed loops, one caller, one process.

``small-n`` and ``large-n`` call the library in-process; ``cli-chain`` runs
the ``ccsk`` command line as subprocesses. Every op is checked outside the
timed calls. A raised exception or a missed gate makes the op failed; failed
ops stay in the denominator of the error rate.

Gates, per dimension n (they mirror the command line's own):

- roundtrip ``||compose(decompose(U)) - U||_F <= 1e-9 n``;
- unitarity defect ``||U^H U - I||_F <= 1e-10 n`` of every composed matrix;
- parameters ``max |error| <= 1e-9 n`` wherever the conventions define them.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from inputs import OpInput, draw
from reference import REF
from spans import Tracer, perf_counter

from ccsk.blockexp import compose
from ccsk.decompose import decompose
from ccsk.linalg import frobenius_norm, unitarity_defect
from ccsk.oracle import RngState, expm, random_params
from ccsk.params import CcskParams, assemble_generator
from ccsk.serialize import read_matrix, read_params, write_matrix, write_params

SMALL_NS = (2, 3, 4, 8, 16, 32)
LARGE_NS = (128, 256)
# A small-n pass over SMALL_NS takes about 15 ms. A chain of 16 passes is long
# against a scheduler time slice, and about 45 chains make a run, so the
# tail sits near p78 rather than at a p99.4 set by preemptions.
SMALL_CHAIN_PASSES = 16
CLI_N = 128

# Written out rather than imported so that both sides of a comparison check
# against the same numbers even if the library moves its own constants.
ROUNDTRIP_TOL = 1e-9
DEFECT_TOL = 1e-10
PARAM_TOL = 1e-9
# DecomposeOptions.zero_tol: at or below this |pivot| the convention theta_j := 0 fires.
ZERO_TOL = 1e-12

# The known defect: decompose raises PeelConsistencyError on an exactly unitary
# input with one column of small rho. Measured at n <= 256, the failing rho lie
# in (1e-9, 6e-8]; this window adds a factor of about 2 on each side. A failure
# outside it, of another cause or on another class makes the run incorrect.
KNOWN_FAIL_RHO = (5e-10, 1e-7)

# Warm-up ops draw from op ids the timed loop never reaches.
WARMUP_K = 1 << 40


def compose_flops(n: int) -> int:
    """Real flops of compose: n-1 dense complex n x n products."""
    return 8 * n ** 3 * (n - 1)


def decompose_flops(n: int) -> int:
    """Real flops of decompose: one dense complex j x j product per peel j = 2..n."""
    return sum(8 * j ** 3 for j in range(2, n + 1))


def defect(u: np.ndarray) -> float:
    """||U^H U - I||_F / n, computed here rather than by the library."""
    n = u.shape[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(n))) / n


def param_error(thetas: np.ndarray, cols, q: CcskParams) -> float:
    """Largest error of the recovered parameters against the true ones.

    Where a pivot vanishes (|cos rho_j| <= ZERO_TOL) the input sits on a
    singularity of the chart: theta_j := 0 fires and the parameters of the
    columns peeled after j (k < j) are no longer unique. So the comparison
    covers rho_j and every theta_k, z_k with k > j for the largest such j, and
    everything when no pivot vanishes. Where z_j := 0 fires, the error is rho_j.
    """
    n = len(thetas)
    rho = [float(np.linalg.norm(z)) for z in cols]
    singular = [j for j in range(2, n + 1) if math.cos(rho[j - 2]) <= ZERO_TOL]
    j0 = max(singular, default=0)
    err = abs(rho[j0 - 2] - float(np.linalg.norm(q.z_column(j0)))) if j0 else 0.0
    if j0 < n:
        d = q.thetas[j0:] - thetas[j0:]  # theta_k for k > j0
        err = max(err, float(np.max(np.abs(np.remainder(d + math.pi, 2 * math.pi) - math.pi))))
    for j in range(max(j0 + 1, 2), n + 1):
        err = max(err, float(np.linalg.norm(q.z_column(j) - cols[j - 2])))
    return err


@dataclass
class OpResult:
    n: int
    cls: str
    edge_rho: float | None = None
    times: dict = field(default_factory=dict)  # layer -> list of (start, seconds)
    chain: list = field(default_factory=list)  # the (start, seconds) of the chain's calls
    cause: str | None = None  # None when the op passed every gate
    roundtrip: float | None = None
    param: float | None = None
    defects: list = field(default_factory=list)

    def timed(self, tr: Tracer, layer: str, fn, *args, chain: bool = False):
        """``fn(*args)``, timed under a span named ``layer``.

        A call that raises is timed too. With ``chain``, the call is also one
        of the op's chain calls.
        """
        REF.maybe()
        t0 = perf_counter()
        try:
            with tr.span(layer):
                return fn(*args)
        finally:
            call = (t0, perf_counter() - t0)
            self.times.setdefault(layer, []).append(call)
            if chain:
                self.chain.append(call)

    def gate(self, cause: str, ok: bool) -> None:
        if not ok and self.cause is None:
            self.cause = cause


def known_defect(op: OpResult) -> bool:
    """Whether a failed op is the known small-rho failure of the inverse map."""
    lo, hi = KNOWN_FAIL_RHO
    return (op.cls == "edge_log" and op.cause == "PeelConsistencyError"
            and lo < op.edge_rho <= hi)


@dataclass
class RunResult:
    ops: list = field(default_factory=list)
    chains: list = field(default_factory=list)  # per chain, the (start, seconds) of its calls
    calls: Counter = field(default_factory=Counter)  # (layer, n) -> calls
    residuals: list = field(default_factory=list)  # cli-chain, traced: seconds per chain
    bytes_written: int = 0  # cli-chain, traced: JSON bytes the replay wrote


# ---------------------------------------------------------------- library ops

def library_op(tr: Tracer, inp: OpInput) -> OpResult:
    res = OpResult(inp.n, inp.cls, inp.edge_rho)
    p = None
    try:
        if inp.cls == "foreign":
            u = inp.unitary
        else:
            p = res.timed(tr, "params.CcskParams", CcskParams, inp.thetas, inp.cols)
            u = res.timed(tr, "blockexp.compose", compose, p)
        res.timed(tr, "linalg.unitarity_defect", unitarity_defect, u)
        q = res.timed(tr, "decompose.decompose", decompose, u, chain=True)
        u2 = res.timed(tr, "blockexp.compose", compose, q, chain=True)
        x = res.timed(tr, "params.assemble_generator", assemble_generator, q)
        e = res.timed(tr, "oracle.expm", expm, x)
    except Exception as exc:  # any library failure is a failed op, by its type
        res.cause = type(exc).__name__
        return res

    if p is not None:
        res.defects.append(defect(u))
    res.defects.append(defect(u2))
    res.gate("defect_gate", max(res.defects) <= DEFECT_TOL)
    res.roundtrip = float(np.linalg.norm(u2 - u)) / inp.n
    res.gate("roundtrip_gate", res.roundtrip <= ROUNDTRIP_TOL)
    if p is not None:
        res.param = param_error(inp.thetas, inp.cols, q)
        res.gate("param_gate", res.param <= PARAM_TOL * inp.n)
    res.gate("expm_defect_gate", defect(e) <= DEFECT_TOL)
    return res


def _count_calls(run: RunResult, res: OpResult) -> None:
    for layer, ts in res.times.items():
        run.calls[layer, res.n] += len(ts)


def run_library(ns, passes: int, seed: int, tr: Tracer, chains: int) -> RunResult:
    """Exactly ``chains`` chains.

    A chain is ``passes`` passes over ``ns``, each pass one op at each n in
    turn. Its time is what the roundtrip a user runs on a unitary took in
    those ops: decompose it, then compose the result. Every input class makes
    those two calls.
    """
    library_op(Tracer(False), draw(seed, WARMUP_K, ns[0]))
    run = RunResult()
    k = 0
    for _ in range(chains):
        chain = []
        for _ in range(passes):
            for n in ns:
                inp = draw(seed, k, n)
                tr.op = k
                with tr.span("op"):
                    res = library_op(tr, inp)
                run.ops.append(res)
                _count_calls(run, res)
                chain += res.chain
                k += 1
        run.chains.append(chain)
    return run


# ------------------------------------------------------------------ cli chain

class Cli:
    """Runs ``python -m ccsk.cli`` against the source tree of the checkout."""

    def __init__(self, src: str, env: dict):
        self.env = dict(env, PYTHONPATH=src)

    def run(self, *argv) -> tuple[int, tuple[float, float]]:
        """The exit code, and the process's (start, wall seconds)."""
        REF.maybe()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ccsk.cli", *map(str, argv)],
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode, (t0, dt)

    def interpreter(self) -> float:
        """Wall time of a bare interpreter start and exit."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=120)
        return perf_counter() - t0

    def import_time(self, module: str) -> tuple[float, float]:
        """Seconds ``import module`` takes in a fresh interpreter, as
        ``(start of the process, seconds)``."""
        REF.maybe()
        code = ("import time; t = time.perf_counter(); import " + module
                + "; print(repr(time.perf_counter() - t))")
        t0 = perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        return t0, float(out)


def chain_seed(seed: int, k: int) -> int:
    """The ``ccsk random --seed`` value of chain ``k``."""
    return int(np.random.default_rng([seed, k]).integers(0, 2 ** 63))


def _replay(tr: Tracer, op: OpResult, s: int, d: str) -> tuple[int, float]:
    """The chain's commands in-process, through the functions the CLI calls.

    Returns the bytes written and the seconds the calls of the three chained
    commands took. Output files get an ``r`` prefix and must match the
    subprocess outputs byte for byte.
    """
    path = lambda name: os.path.join(d, "r" + name)  # noqa: E731
    with tr.span("cli.random"):
        p = op.timed(tr, "oracle.random_params", random_params, CLI_N, RngState(s))
        u = op.timed(tr, "blockexp.compose", compose, p)
        op.timed(tr, "serialize.write_matrix", write_matrix, path("a.json"), u)
    with tr.span("cli.decompose"):
        u = op.timed(tr, "serialize.read_matrix", read_matrix, path("a.json"))
        q = op.timed(tr, "decompose.decompose", decompose, u)
        op.timed(tr, "serialize.write_params", write_params, path("p.json"), q)
        u2 = op.timed(tr, "blockexp.compose", compose, q)
        op.timed(tr, "linalg.frobenius_norm", frobenius_norm, u2 - u)
    with tr.span("cli.compose"):
        q = op.timed(tr, "serialize.read_params", read_params, path("p.json"))
        u2 = op.timed(tr, "blockexp.compose", compose, q)
        op.timed(tr, "serialize.write_matrix", write_matrix, path("b.json"), u2)
        op.timed(tr, "linalg.unitarity_defect", unitarity_defect, u2)
    # Until now the op held only its processes' times, under "cli.".
    chained = sum(dt for layer, calls in op.times.items() if not layer.startswith("cli.")
                  for _, dt in calls)
    with tr.span("cli.expm"):
        x = op.timed(tr, "serialize.read_matrix", read_matrix, os.path.join(d, "x.json"))
        e = op.timed(tr, "oracle.expm", expm, x)
        op.timed(tr, "serialize.write_matrix", write_matrix, path("e.json"), e)
    written = 0
    for name in ("a.json", "p.json", "b.json", "e.json"):
        with open(path(name), "rb") as fh, open(os.path.join(d, name), "rb") as gh:
            if fh.read() != gh.read():
                raise RuntimeError(f"in-process replay of {name} differs from the CLI's")
        written += os.path.getsize(path(name))
    return written, chained


def cli_op(tr: Tracer, cli: Cli, s: int, d: str) -> OpResult:
    """One chain ``random -> decompose -> compose``, then ``expm`` on its generator.

    The op's chain calls are the three chained processes.
    """
    res = OpResult(CLI_N, "cli")
    f = lambda name: os.path.join(d, name)  # noqa: E731
    steps = [("random", ("random", "--n", CLI_N, "--seed", s, "--what", "unitary",
                         "-o", f("a.json"))),
             ("decompose", ("decompose", "-i", f("a.json"), "-o", f("p.json"))),
             ("compose", ("compose", "-i", f("p.json"), "-o", f("b.json")))]
    for name, argv in steps:
        with tr.span("cli.process." + name):
            rc, call = cli.run(*argv)
        res.times.setdefault("cli." + name, []).append(call)
        res.chain.append(call)
        if rc != 0:
            res.cause = f"{name}_exit_{rc}"
            return res

    a, b, q = read_matrix(f("a.json")), read_matrix(f("b.json")), read_params(f("p.json"))
    write_matrix(f("x.json"), assemble_generator(q))
    with tr.span("cli.process.expm"):
        rc, call = cli.run("expm", "-i", f("x.json"), "-o", f("e.json"))
    res.times.setdefault("cli.expm", []).append(call)
    if rc != 0:
        res.cause = f"expm_exit_{rc}"
        return res

    truth = random_params(CLI_N, RngState(s))
    res.defects = [defect(a), defect(b)]
    res.gate("defect_gate", max(res.defects) <= DEFECT_TOL)
    res.roundtrip = float(np.linalg.norm(b - a)) / CLI_N
    res.gate("roundtrip_gate", res.roundtrip <= ROUNDTRIP_TOL)
    res.param = param_error(truth.thetas, truth.z_columns, q)
    res.gate("param_gate", res.param <= PARAM_TOL * CLI_N)
    res.gate("expm_defect_gate", defect(read_matrix(f("e.json"))) <= DEFECT_TOL)
    return res


def run_cli(seed: int, tr: Tracer, chains: int, cli: Cli, workdir: str,
            startup_s: float) -> RunResult:
    """Exactly ``chains`` chains.

    Traced runs also replay every chain in-process. A chain's wall time minus
    that replay and three start-ups (``startup_s`` each: interpreter plus
    ``import ccsk.cli``) is its residual.
    """
    cli.import_time("ccsk.cli")  # warm-up: byte-compiles and caches the CLI
    run = RunResult()
    for k in range(chains):
        s = chain_seed(seed, k)
        tr.op = k
        with tr.span("op"):
            res = cli_op(tr, cli, s, workdir)
            if tr.enabled and res.cause is None:
                written, replayed = _replay(tr, res, s, workdir)
                run.bytes_written += written
                run.residuals.append(sum(dt for _, dt in res.chain) - replayed - 3 * startup_s)
        run.ops.append(res)
        run.chains.append(res.chain)
        _count_calls(run, res)
    return run
