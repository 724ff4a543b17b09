"""Command-line interface.

Subcommands map one-to-one onto the library's capabilities:

    verify-extremal   certify the attaining 4-by-2 frame
    certify           run the full certificate suite
    pluecker          row minors of a 4-by-2 frame from a matrix file
    cs                thin CS decomposition of a 4-by-2 frame
    best-submatrix    exhaustive best-block report for any frame
    search            multistart worst-case search over frames
    figure-eq3        CSV boundary-surface data for the consistency system

This module only parses arguments, calls the library and writes the
result.

Exit codes: 0 on success (and all checks passed), 1 when a check failed
or the search found a value below the conjectured floor, 2 on usage or
input-parsing errors.
"""

import argparse
import functools
import math
import sys

from . import certify, csdecomp, pluecker, serialize, worstcase
from .exceptions import GoodsubError
from .pluecker import figure_eq3_data
from .stiefel import StiefelMatrix, best_submatrix, load_matrix

__all__ = ["build_parser", "dispatch", "main"]

# Commands that read one frame from --input and write its result as JSON.
_FRAME_COMMANDS = {
    "pluecker": ("row minors of a 4x2 frame", pluecker.pluecker4x2),
    "cs": ("thin CS decomposition of a 4x2 frame", csdecomp.cs_decompose),
    "best-submatrix": ("exhaustive best-block report", best_submatrix),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="goodsub",
        description="Best-conditioned row blocks of orthonormal frames: "
        "selection, worst-case search, and numerical certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-extremal", help="certify the attaining 4x2 frame")
    p.add_argument("--output", help="write the JSON check result to this path")

    p = sub.add_parser("certify", help="run the full certificate suite")
    p.add_argument("--output", help="write the JSON report to this path")

    for name, (help_text, _) in _FRAME_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="matrix file ('n k' header)")
        p.add_argument("--output", help="write the JSON result to this path")

    p = sub.add_parser("search", help="multistart worst-case search")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--k", type=int, required=True, help="number of columns")
    p.add_argument(
        "--restarts",
        type=int,
        default=worstcase.SearchParams.restarts,
        help="random restarts (default %(default)s)",
    )
    p.add_argument(
        "--seed", type=int, default=worstcase.SearchParams.seed, help="base seed for restarts"
    )
    p.add_argument("--output", help="write the JSON result to this path")

    p = sub.add_parser("figure-eq3", help="CSV boundary-surface data")
    p.add_argument("--resolution", type=int, default=101, help="grid points per axis")
    p.add_argument("--output", help="write the CSV to this path")

    return parser


def _write(text, output):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify_extremal(args):
    result = certify.check_extremal_matrix()
    _write(serialize.dumps(result.to_dict()) + "\n", args.output)
    return 0 if result.passed else 1


def _cmd_certify(args):
    report = certify.run_all()
    _write(serialize.dumps(report.to_dict()) + "\n", args.output)
    return 0 if report.all_passed else 1


def _cmd_frame(args):
    # The library function checks the frame's shape (DimensionError).
    frame = StiefelMatrix(load_matrix(args.input))
    result = _FRAME_COMMANDS[args.command][1](frame)
    _write(serialize.dumps(result.to_dict()) + "\n", args.output)
    return 0


def _cmd_search(args):
    params = worstcase.SearchParams(restarts=args.restarts, seed=args.seed)
    result = worstcase.multistart_search(args.n, args.k, params)
    floor = 1.0 / math.sqrt(args.n)
    violated = result.best_value < floor - worstcase.FLOOR_TOL
    payload = result.to_dict()
    payload["hypothesis_floor"] = floor
    payload["floor_violated"] = violated
    _write(serialize.dumps(payload) + "\n", args.output)
    return 1 if violated else 0


def _cmd_figure_eq3(args):
    # Called by its name in this module, so wrapping cli.figure_eq3_data
    # (as a tracing harness does) reaches this call.
    _write(figure_eq3_data(args.resolution), args.output)
    return 0


_COMMANDS = {
    "verify-extremal": _cmd_verify_extremal,
    "certify": _cmd_certify,
    **dict.fromkeys(_FRAME_COMMANDS, _cmd_frame),
    "search": _cmd_search,
    "figure-eq3": _cmd_figure_eq3,
}


@functools.cache
def _parser():
    # Built once per process: parse_args returns a fresh namespace per
    # call and leaves the parser unchanged.
    return build_parser()


def dispatch(argv=None):
    """Parse arguments and run a subcommand; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (GoodsubError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch())
