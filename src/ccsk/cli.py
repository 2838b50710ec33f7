"""Command-line interface.

Commands: compose, decompose, verify, random, expm, compare, roundtrip.
Exit codes: 0 success, 1 input/validation error, 2 numerical tolerance
failure, 64 usage error. Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

from .blockexp import compose, exp_k, k_matrix
from .decompose import DecomposeOptions, PeelConsistencyError, decompose, roundtrip_error
from .linalg import frobenius_norm, unitarity_defect
from .oracle import RngState, expm, random_params
from .params import assemble_generator
from .serialize import (ParseError, read_matrix, read_params, write_matrix,
                        write_params)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TOLERANCE = 2
EXIT_USAGE = 64

ROUNDTRIP_TOL = 1e-9
VERIFY_TOL = 1e-10


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite number in (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="ccsk",
                description="Compose and decompose unitary matrices via "
                            "canonical coordinates of the second kind.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("compose", help="params file -> unitary matrix file")
    sp.add_argument("-i", "--input", required=True, help="params file (JSON)")
    sp.add_argument("-o", "--output", required=True, help="matrix file to write")

    sp = sub.add_parser("decompose", help="unitary matrix file -> params file")
    sp.add_argument("-i", "--input", required=True, help="matrix file (JSON)")
    sp.add_argument("-o", "--output", required=True, help="params file to write")
    sp.add_argument("--tol", type=_tolerance, default=VERIFY_TOL,
                    help="per-dimension unitarity tolerance (default %(default)g)")

    sp = sub.add_parser("verify", help="print the unitarity defect of a matrix")
    sp.add_argument("-i", "--input", required=True, help="matrix file (JSON)")
    sp.add_argument("--tol", type=_tolerance, default=VERIFY_TOL,
                    help="per-dimension pass threshold (default %(default)g)")

    sp = sub.add_parser("random", help="write a seeded random params/matrix file")
    sp.add_argument("--n", type=int, required=True, help="dimension (>= 1)")
    sp.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    sp.add_argument("--what", choices=("params", "unitary"), default="params")
    sp.add_argument("-o", "--output", required=True)

    sp = sub.add_parser("expm", help="matrix exponential of a generator file")
    sp.add_argument("-i", "--input", required=True, help="matrix file (JSON)")
    sp.add_argument("-o", "--output", required=True, help="matrix file to write")

    sp = sub.add_parser("compare", help="product map vs. exponential of the "
                                        "summed generator, plus per-factor checks")
    sp.add_argument("-i", "--input", required=True, help="params file (JSON)")

    sp = sub.add_parser("roundtrip", help="decompose-then-compose error of a matrix")
    sp.add_argument("-i", "--input", required=True, help="matrix file (JSON)")
    sp.add_argument("--tol", type=_tolerance, default=VERIFY_TOL,
                    help="per-dimension unitarity tolerance (default %(default)g)")
    return p


def _cmd_compose(args) -> int:
    p = read_params(args.input)
    u = compose(p)
    write_matrix(args.output, u)
    print(f"unitarity_defect {unitarity_defect(u):.17e}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    u = read_matrix(args.input)
    opts = DecomposeOptions(unitarity_tol=args.tol)
    p = decompose(u, opts)
    write_params(args.output, p)
    err = frobenius_norm(compose(p) - u)
    print(f"roundtrip_error {err:.17e}")
    if not err <= ROUNDTRIP_TOL * p.n:
        print(f"roundtrip error exceeds {ROUNDTRIP_TOL * p.n:.3e}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_verify(args) -> int:
    u = read_matrix(args.input)
    defect = unitarity_defect(u)
    print(f"unitarity_defect {defect:.17e}")
    if not defect <= args.tol * u.shape[0]:
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_random(args) -> int:
    if args.n < 1:
        print("--n must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    p = random_params(args.n, RngState(args.seed))
    if args.what == "params":
        write_params(args.output, p)
    else:
        write_matrix(args.output, compose(p))
    return EXIT_OK


def _cmd_expm(args) -> int:
    x = read_matrix(args.input)
    write_matrix(args.output, expm(x))
    return EXIT_OK


def _cmd_compare(args) -> int:
    p = read_params(args.input)
    x = assemble_generator(p)
    product = compose(p)
    print(f"product_vs_expm {frobenius_norm(product - expm(x)):.17e}")
    # F_j is the identity outside its leading j x j block, and so is the
    # exponential of generator block j: compare the j x j blocks alone.
    for j in range(2, p.n + 1):
        z = p.z_column(j)
        print(f"factor_{j}_vs_expm {frobenius_norm(exp_k(z) - expm(k_matrix(z))):.17e}")
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    u = read_matrix(args.input)
    err = roundtrip_error(u, DecomposeOptions(unitarity_tol=args.tol))
    print(f"roundtrip_error {err:.17e}")
    if not err <= ROUNDTRIP_TOL * u.shape[0]:
        return EXIT_TOLERANCE
    return EXIT_OK


_DISPATCH = {
    "compose": _cmd_compose,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "random": _cmd_random,
    "expm": _cmd_expm,
    "compare": _cmd_compare,
    "roundtrip": _cmd_roundtrip,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ParseError, PeelConsistencyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
