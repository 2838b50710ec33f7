"""Command-line interface.

Commands: compose, decompose, verify, random, expm, compare, roundtrip.
Exit codes: 0 success, 1 input/validation error, 2 numerical tolerance
failure, 64 usage error. Commands return (name, value, bound) lines, which
``main`` alone prints (diagnostics go to stderr) and gates: exit 2 past a bound.
"""

from __future__ import annotations

import argparse
import math
import sys

from .blockexp import compose, exp_k, k_matrix
from .decompose import UNITARITY_TOL, decompose, roundtrip_error
from .linalg import frobenius_norm, unitarity_defect
from .oracle import RngState, expm, random_params
from .params import assemble_generator
from .serialize import read_matrix, read_params, write_matrix, write_params

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TOLERANCE = 2
EXIT_USAGE = 64

ROUNDTRIP_TOL = 1e-9


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite number in (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for --n: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    # The flags more than one command takes, each defined once; a command's
    # help names the kinds of file it reads and writes.
    input_ = argparse.ArgumentParser(add_help=False)
    input_.add_argument("-i", "--input", required=True, help="file to read (JSON)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", required=True, help="file to write")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=UNITARITY_TOL,
                     help="per-dimension unitarity tolerance (default %(default)g)")

    p = argparse.ArgumentParser(prog="ccsk",
                                description="Compose and decompose unitary matrices via "
                                            "canonical coordinates of the second kind.")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("compose", parents=[input_, output],
                   help="params file -> unitary matrix file").set_defaults(run=_cmd_compose)
    sub.add_parser("decompose", parents=[input_, output, tol],
                   help="unitary matrix file -> params file").set_defaults(run=_cmd_decompose)
    sub.add_parser("verify", parents=[input_, tol],
                   help="print the unitarity defect of a matrix").set_defaults(run=_cmd_verify)
    # random's own flags come first in its usage line, ahead of -o.
    random_flags = argparse.ArgumentParser(add_help=False)
    random_flags.add_argument("--n", type=_positive_int, required=True, help="dimension (>= 1)")
    random_flags.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    random_flags.add_argument("--what", choices=("params", "unitary"), default="params")
    sub.add_parser("random", parents=[random_flags, output],
                   help="write a seeded random params/matrix file").set_defaults(run=_cmd_random)
    sub.add_parser("expm", parents=[input_, output],
                   help="matrix exponential of a generator file").set_defaults(run=_cmd_expm)
    sub.add_parser("compare", parents=[input_],
                   help="product map of a params file vs. exponential of the summed "
                        "generator, plus per-factor checks").set_defaults(run=_cmd_compare)
    sub.add_parser("roundtrip", parents=[input_, tol],
                   help="decompose-then-compose error of a matrix").set_defaults(run=_cmd_roundtrip)
    return p


def _cmd_compose(args) -> list:
    p = read_params(args.input)
    u = compose(p)
    write_matrix(args.output, u)
    return [("unitarity_defect", unitarity_defect(u), None)]


def _cmd_decompose(args) -> list:
    u = read_matrix(args.input)
    p = decompose(u, unitarity_tol=args.tol)
    write_params(args.output, p)
    return [("roundtrip_error", frobenius_norm(compose(p) - u), ROUNDTRIP_TOL * p.n)]


def _cmd_verify(args) -> list:
    u = read_matrix(args.input)
    return [("unitarity_defect", unitarity_defect(u), args.tol * u.shape[0])]


def _cmd_random(args) -> list:
    p = random_params(args.n, RngState(args.seed))
    if args.what == "params":
        write_params(args.output, p)
    else:
        write_matrix(args.output, compose(p))
    return []


def _cmd_expm(args) -> list:
    write_matrix(args.output, expm(read_matrix(args.input)))
    return []


def _cmd_compare(args) -> list:
    p = read_params(args.input)
    x = assemble_generator(p)
    product = compose(p)
    # F_j is the identity outside its leading j x j block, and so is the
    # exponential of generator block j: compare the j x j blocks alone.
    return [("product_vs_expm", frobenius_norm(product - expm(x)), None)] + [
        (f"factor_{j}_vs_expm", frobenius_norm(exp_k(z) - expm(k_matrix(z))), None)
        for j, z in enumerate(p.z_columns, start=2)]


def _cmd_roundtrip(args) -> list:
    u = read_matrix(args.input)
    err = roundtrip_error(u, unitarity_tol=args.tol)
    return [("roundtrip_error", err, ROUNDTRIP_TOL * u.shape[0])]


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        raise SystemExit(EXIT_USAGE if exc.code == 2 else exc.code) from None
    try:
        lines = args.run(args)
        for name, value, _ in lines:
            print(f"{name} {value:.17e}")
        for name, value, bound in lines:
            if bound is not None and not value <= bound:
                print(f"{name.replace('_', ' ')} exceeds {bound:.3e}", file=sys.stderr)
                return EXIT_TOLERANCE
        return EXIT_OK
    # ParseError is a ValueError; numpy refuses an array too large to
    # allocate, such as random's stream at --n 100000000, with a MemoryError.
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
