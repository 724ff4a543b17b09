"""Command-line interface.

Subcommands map one-to-one onto the library's capabilities:

    verify-extremal   certify the attaining 4-by-2 frame
    certify           run the full certificate suite
    pluecker          row minors of a 4-by-2 frame from a matrix file
    cs                thin CS decomposition of a 4-by-2 frame
    best-submatrix    exhaustive best-block report for any frame
    search            multistart worst-case search over frames
    figure-eq3        CSV boundary-surface data for the consistency system

Exit codes: 0 on success (and all checks passed), 1 when a check failed
or the search found a value below the conjectured floor, 2 on usage or
input-parsing errors.
"""

import argparse
import math
import sys

import numpy as np

from . import certify, csdecomp, pluecker, serialize, worstcase
from .exceptions import GoodsubError
from .stiefel import StiefelMatrix, best_submatrix, load_matrix

__all__ = ["build_parser", "dispatch", "main", "figure_eq3_data"]

_THIRD_PI = math.pi / 3.0

# Surfaces must agree this closely in z for a contact row to be emitted.
CONTACT_TOL = 1e-6

# Accept a root whose squared-sine target overshoots the reachable range
# by at most this much (covers rounding at surface edges); emitted points
# then satisfy the consistency equation to well within 1e-9.
_TARGET_SLACK = 1e-10

_BISECT_STEPS = 60


def _solve_plus(target, lo, hi):
    # sin^2(z + pi/3) is strictly decreasing on [pi/3, 2pi/3]; returns the
    # z where it equals target, or NaN when the target is out of reach.
    return _bisect(lambda z: np.sin(z + _THIRD_PI) ** 2, target, lo, hi, decreasing=True)


def _solve_minus(target, lo, hi):
    # sin^2(z - pi/3) is strictly increasing on [pi/3, 2pi/3].
    return _bisect(lambda z: np.sin(z - _THIRD_PI) ** 2, target, lo, hi, decreasing=False)


def _bisect(term, target, lo, hi, decreasing):
    t_lo = float(term(lo))
    t_hi = float(term(hi))
    upper = max(t_lo, t_hi)
    lower = min(t_lo, t_hi)
    target = np.asarray(target, dtype=float)
    valid = (target >= lower - _TARGET_SLACK) & (target <= upper + _TARGET_SLACK)
    clamped = np.clip(target, lower, upper)
    zlo = np.full(target.shape, lo)
    zhi = np.full(target.shape, hi)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (zlo + zhi)
        f = term(mid) - clamped
        if decreasing:
            go_right = f > 0.0
        else:
            go_right = f < 0.0
        zlo = np.where(go_right, mid, zlo)
        zhi = np.where(go_right, zhi, mid)
    root = 0.5 * (zlo + zhi)
    return np.where(valid, root, np.nan)


def _contact_z(x, y, zp, zm):
    # Where one surface's z term is flat the bisection root is poorly
    # conditioned, so the midpoint can spoil the other, well-conditioned
    # equation; pick whichever candidate satisfies both equations best.
    best_z = zp
    best_res = math.inf
    for z in (zp, zm, 0.5 * (zp + zm)):
        res = 0.0
        for sign in (1.0, -1.0):
            total = (
                math.sin(x + sign * _THIRD_PI) ** 2
                + math.sin(y + sign * _THIRD_PI) ** 2
                + math.sin(z + sign * _THIRD_PI) ** 2
            )
            res = max(res, abs(total - 1.0))
        if res < best_res:
            best_res = res
            best_z = z
    return best_z


def figure_eq3_data(resolution):
    """CSV boundary-surface data for the two squared-sine systems.

    For each (x, y) on a resolution^2 grid over [pi/3, 2pi/3]^2, solves
    sin^2(x +/- pi/3) + sin^2(y +/- pi/3) + sin^2(z +/- pi/3) = 1 for z
    in [pi/3, 2pi/3] by bisection (the z term is strictly monotone on
    the cube, so each cell has at most one root).  Rows are
    "surface,x,y,z" with surface in {plus, minus}; grid points where the
    two surfaces agree within 1e-6 in z get an extra "contact" row.
    Cells without a root emit nothing.

    Returns the CSV text with a header line and LF line endings; every
    emitted point satisfies its equation to within 1e-9.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    lo, hi = _THIRD_PI, 2.0 * _THIRD_PI
    ts = np.linspace(lo, hi, resolution)
    xx, yy = np.meshgrid(ts, ts, indexing="ij")
    target_plus = 1.0 - (np.sin(xx + _THIRD_PI) ** 2 + np.sin(yy + _THIRD_PI) ** 2)
    target_minus = 1.0 - (np.sin(xx - _THIRD_PI) ** 2 + np.sin(yy - _THIRD_PI) ** 2)
    z_plus = _solve_plus(target_plus, lo, hi)
    z_minus = _solve_minus(target_minus, lo, hi)

    lines = ["surface,x,y,z"]

    def fmt(v):
        return serialize.format_float(float(v))

    # Each grid coordinate is formatted once and reused by every row.
    coords = [fmt(t) for t in ts]
    for name, zs in (("plus", z_plus), ("minus", z_minus)):
        ii, jj = np.nonzero(~np.isnan(zs))
        for i, j, z in zip(ii.tolist(), jj.tolist(), zs[ii, jj].tolist()):
            lines.append(f"{name},{coords[i]},{coords[j]},{fmt(z)}")
    both = ~(np.isnan(z_plus) | np.isnan(z_minus))
    contact = both & (np.abs(z_plus - z_minus) <= CONTACT_TOL)
    for i, j in zip(*np.nonzero(contact)):
        z = _contact_z(ts[i], ts[j], z_plus[i, j], z_minus[i, j])
        lines.append(f"contact,{coords[i]},{coords[j]},{fmt(z)}")
    return "\n".join(lines) + "\n"


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
    p.add_argument("--grid", type=int, help="override every check's grid size")
    p.add_argument("--bound", type=float, help="quadratic-form constant (default 0.75)")
    p.add_argument("--seed", type=int, default=0, help="echoed in the report")
    p.add_argument("--output", help="write the JSON report to this path")

    for name, help_text in (
        ("pluecker", "row minors of a 4x2 frame"),
        ("cs", "thin CS decomposition of a 4x2 frame"),
        ("best-submatrix", "exhaustive best-block report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="matrix file ('n k' header)")
        p.add_argument("--output", help="write the JSON result to this path")

    p = sub.add_parser("search", help="multistart worst-case search")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--k", type=int, required=True, help="number of columns")
    p.add_argument("--restarts", type=int, help="random restarts (default 64)")
    p.add_argument("--seed", type=int, default=0, help="base seed for restarts")
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


def _load_frame(path, shape=None):
    arr = load_matrix(path)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected a {shape[0]}x{shape[1]} matrix, got {arr.shape[0]}x{arr.shape[1]}")
    return StiefelMatrix(arr)


def _cmd_verify_extremal(args):
    result = certify.check_extremal_matrix()
    _write(serialize.dumps(result.to_dict()) + "\n", args.output)
    return 0 if result.passed else 1


def _cmd_certify(args):
    kwargs = {"seed": args.seed}
    if args.grid is not None:
        kwargs.update(
            ellipse_grid_n=args.grid,
            transform_grid_n=args.grid,
            lemma_grid_n=args.grid,
            implications_grid_n=args.grid,
        )
    if args.bound is not None:
        kwargs["bound"] = args.bound
    report = certify.run_all(certify.CertifyConfig(**kwargs))
    _write(serialize.dumps(report.to_dict()) + "\n", args.output)
    return 0 if report.all_passed else 1


def _cmd_pluecker(args):
    frame = _load_frame(args.input, shape=(4, 2))
    coords = pluecker.pluecker4x2(frame)
    _write(serialize.dumps(coords.to_dict()) + "\n", args.output)
    return 0


def _cmd_cs(args):
    frame = _load_frame(args.input, shape=(4, 2))
    factors = csdecomp.cs_decompose(frame)
    _write(serialize.dumps(factors.to_dict()) + "\n", args.output)
    return 0


def _cmd_best_submatrix(args):
    frame = _load_frame(args.input)
    report = best_submatrix(frame)
    _write(serialize.dumps(report.to_dict()) + "\n", args.output)
    return 0


def _cmd_search(args):
    kwargs = {"seed": args.seed}
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    params = worstcase.SearchParams(**kwargs)
    result = worstcase.multistart_search(args.n, args.k, params)
    floor = 1.0 / math.sqrt(args.n)
    violated = result.best_value < floor - 1e-6
    payload = result.to_dict()
    payload["hypothesis_floor"] = floor
    payload["floor_violated"] = violated
    _write(serialize.dumps(payload) + "\n", args.output)
    return 1 if violated else 0


def _cmd_figure_eq3(args):
    _write(figure_eq3_data(args.resolution), args.output)
    return 0


_COMMANDS = {
    "verify-extremal": _cmd_verify_extremal,
    "certify": _cmd_certify,
    "pluecker": _cmd_pluecker,
    "cs": _cmd_cs,
    "best-submatrix": _cmd_best_submatrix,
    "search": _cmd_search,
    "figure-eq3": _cmd_figure_eq3,
}


def dispatch(argv=None):
    """Parse arguments and run a subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
