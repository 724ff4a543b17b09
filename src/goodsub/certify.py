"""Numerical certificate for the sharp 4-by-2 best-block bound.

The chain being certified: every 4-by-2 frame has a 2-by-2 row block with
smallest singular value at least 1/2, and the bound is attained.  Each
link gets its own check:

1. extremal-matrix: the attaining frame exists (all six blocks <= 1/2,
   five of them exactly 1/2).
2. ellipse-region: over principal angles (alpha, beta) in
   [0, pi/6] x [pi/3, pi/2] the minor pair (u, v) =
   (cos(alpha)cos(beta), sin(alpha)sin(beta)) satisfies both ellipse
   inequalities 4u^2 + (4/3)v^2 <= 1 and (4/3)u^2 + 4v^2 <= 1, with
   maximum exactly 1.
3. transform-bound: pushing (+/-u, +/-v) through the sum/difference
   change of variables, the quadratic forms a^2 +/- ab + b^2 peak at
   exactly 3/4, settling pluecker.DEFAULT_FORM_BOUND, the constant
   eval_system and check 6 hold the forms to.
4. boundary-lemma: sin^2 x' + sin^2 y' + sin^2 z' on the simplex
   x' + y' + z' = pi/2 stays at or below 1 at every grid point and
   equals 1 at the grid points on the simplex boundary.  This is a grid
   scan, not a proof: it says nothing between grid points.
5. implications: on the angle cube [pi/3, 2pi/3]^3 there is no point
   with s_plus >= 1 and angle sum above 3pi/2, and none with
   s_minus >= 1 and angle sum below 3pi/2 (the two directions of the
   consistency argument).  Grid points near violating are re-examined
   on a local 11^3 subgrid, one level deep.
6. feasible-point: unit radii with sector angles (pi/2, pi/3, 2pi/3)
   reconstruct coordinates that satisfy every constraint with equality
   in at least one form per pair and reproduce the extremal frame's
   minor vector.

Checks 2 to 4 sweep their grids in runs of rows, each run small enough
that one temporary holds at most _SWEEP_BLOCK floats (128 KiB) and stays
in cache, so their memory is bounded at any grid.  Checks 2 and 3 call
their public kernels on a run of alpha values as a column and the whole
beta axis as a row.  Check 4 sweeps only the simplex triangle: each run
is as wide as its first row, so runs lengthen as rows shorten.  It keeps
a 1-D squared-sine table and reads its z' term through a strided view of
the reversed table, padded with -inf past the simplex, so every row of a
run is a slice and no entry is gathered.  A run's first maximum replaces
the best so far only if strictly larger, which keeps the first maximum
in C order.  Checks 4 and 5 combine per-axis tables in the order of a
pointwise evaluation: the sums as (f(x) + f(y)) + f(z) and the angle
total as (x + y) + z.  Check 5 also searches each (x, y) row of its
grids along z instead of scanning it: sin^2(z + pi/3) falls and
sin^2(z - pi/3) rises on [pi/3, 2pi/3], so each margin is the minimum of
a falling and a rising sequence, whose largest value a bisection finds
at their crossing.  The tables are checked to be monotone before they
are searched.  The results equal those of evaluating the kernels at
every grid point, and the sample counts still count every grid point
covered.

Checks 4 and 5 remain falsification scans, not proofs: a finite grid
(with one level of refinement in check 5) cannot rule out a violation
between grid points.  Proving the lemma by its exact identity and
reducing the implications to it are still open.

All grids are deterministic, so rerunning a configuration reproduces the
report byte for byte.  Failures are recorded in the report, not thrown.
Each check's pointwise kernel is exposed as a vectorized function so a
recorded witness can be re-evaluated standalone.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import pluecker
from .exceptions import DimensionError
from .pluecker import _THIRD_PI
from .stiefel import _real_array, block_sigmas, extremal_matrix, gram_deviation, row_subsets

__all__ = [
    "CheckResult",
    "CertificateReport",
    "CertifyConfig",
    "check_extremal_matrix",
    "check_ellipse_region",
    "check_transform_bound",
    "check_boundary_lemma",
    "check_implications",
    "check_feasible_point",
    "run_all",
    "ellipse_lhs",
    "transform_form_max",
    "squared_sine_sum",
    "implication_margins",
]

_SUM_THRESHOLD = 1.5 * math.pi
# Default grid sizes of the four sweeps, then each check's tolerance.
ELLIPSE_GRID_N = 1001
TRANSFORM_GRID_N = 1001
LEMMA_GRID_N = 2001
IMPLICATIONS_GRID_N = 201
EXTREMAL_TOL = 1e-14
ELLIPSE_TOL = 1e-12
TRANSFORM_TOL = 1e-12
LEMMA_TOL = 1e-12
IMPLICATIONS_TOL = 0.0
FEASIBLE_TOL = 1e-12
# Entries of one sweep temporary: 2^14 floats, 128 KiB, which stays in
# cache and below glibc's default mmap threshold.
_SWEEP_BLOCK = 2**14


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one certificate check.

    ``max_violation`` is the signed worst violation of the check's
    inequality chain (negative values mean margin to spare), and
    ``passed`` is exactly ``max_violation <= tolerance``.  ``witness``
    holds the grid coordinates where the extremum occurred, when the
    check has a meaningful point to report.
    """

    name: str
    passed: bool
    max_violation: float
    witness: tuple
    samples_used: int
    tolerance: float

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "max_violation": self.max_violation,
            "witness": None if self.witness is None else list(self.witness),
            "samples_used": self.samples_used,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class CertificateReport:
    """Ordered check results plus the configuration that produced them."""

    checks: tuple
    all_passed: bool
    config: dict

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "all_passed": self.all_passed,
            "config": dict(self.config),
        }


@dataclass(frozen=True)
class CertifyConfig:
    """Grid sizes for a full certificate run, and the fixed form bound.

    Every check is a deterministic grid, so the configuration alone
    fixes the report.
    """

    ellipse_grid_n: int = ELLIPSE_GRID_N
    transform_grid_n: int = TRANSFORM_GRID_N
    lemma_grid_n: int = LEMMA_GRID_N
    implications_grid_n: int = IMPLICATIONS_GRID_N
    bound: float = field(default=pluecker.DEFAULT_FORM_BOUND, init=False)


def _result(name, violation, witness, samples, tolerance):
    return CheckResult(
        name=name,
        passed=bool(violation <= tolerance),
        max_violation=float(violation),
        witness=witness,
        samples_used=int(samples),
        tolerance=float(tolerance),
    )


def _blocked_peak(rows, width, block, shrink=0):
    # The first maximum in C order of a rows-by-width array whose row r
    # holds its first width - shrink * r entries, and its (row, column)
    # index.  block(start, stop) gives rows start:stop cut to the width
    # of row start, with -inf past the end of each later row, which can
    # never be a maximum.  Each run holds at most _SWEEP_BLOCK entries
    # (one row at least), so runs lengthen as rows shorten; a later
    # run's maximum wins only if strictly larger.
    best = None
    start = 0
    while start < rows:
        cols = width - shrink * start
        stop = min(start + max(1, _SWEEP_BLOCK // cols), rows)
        values = block(start, stop)
        flat = int(np.argmax(values))
        value = float(values.flat[flat])
        if best is None or value > best[0]:
            i, j = divmod(flat, cols)
            best = (value, (start + i, j))
        start = stop
    return best


def _angle_box(grid_n):
    # The principal-angle box axes [0, pi/6] and [pi/3, pi/2].
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    return np.linspace(0.0, math.pi / 6.0, grid_n), np.linspace(_THIRD_PI, math.pi / 2.0, grid_n)


def _minor_pair(alpha, beta):
    return np.cos(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta)


def check_extremal_matrix(matrix=None):
    """Certify the attaining frame.

    With tol = ``EXTREMAL_TOL``, verifies orthonormality (max
    |A^T A - I| <= tol), that all six 2-by-2 row blocks have smallest
    singular value <= 1/2 + tol, and that the best block attains 1/2
    within tol.  The violation is the worst of the three conditions, so
    each can fail the check.  Row order does not matter.

    Parameters
    ----------
    matrix : array_like, optional
        Alternative 4-by-2 candidate (its entries are accepted
        unvalidated so defects are measured rather than rejected).
        Default: the extremal frame.

    Raises
    ------
    DimensionError
        If ``matrix`` is not 4-by-2.
    TypeError
        If its entries are complex.
    """
    if matrix is None:
        arr = extremal_matrix().values
    else:
        arr = _real_array(getattr(matrix, "values", matrix))
        if arr.shape != (4, 2):
            raise DimensionError(f"expected a 4x2 matrix, got shape {arr.shape}")
    dev = gram_deviation(arr)
    sigmas = block_sigmas(arr, row_subsets(4, 2)).tolist()
    excess = max(s - 0.5 for s in sigmas)
    gap = abs(max(sigmas) - 0.5)
    violation = max(dev, excess, gap)
    return _result("extremal-matrix", violation, None, len(sigmas), EXTREMAL_TOL)


def ellipse_lhs(alpha, beta):
    """Left-hand sides of the two ellipse inequalities at (alpha, beta).

    Vectorized; returns (4u^2 + (4/3)v^2, (4/3)u^2 + 4v^2) for
    u = cos(alpha)cos(beta), v = sin(alpha)sin(beta).
    """
    u, v = _minor_pair(alpha, beta)
    # u and v are fresh products, so they are squared and scaled in place
    # and a call holds four full-size arrays; multiplication commutes, so
    # the floats are those of the formulas above.
    u *= u
    v *= v
    first = 4.0 * u
    first += (4.0 / 3.0) * v
    u *= 4.0 / 3.0
    v *= 4.0
    u += v
    return (first, u)


def check_ellipse_region(grid_n=ELLIPSE_GRID_N):
    """Scan the principal-angle box for the ellipse inequalities.

    Both left-hand sides must stay at or below 1 + ``ELLIPSE_TOL`` over
    [0, pi/6] x [pi/3, pi/2]; the maximum (exactly 1, on the box edges
    through the corner (pi/6, pi/3)) is recorded via the witness.
    """
    alpha, beta = _angle_box(grid_n)
    peak, (ia, ib) = _blocked_peak(
        grid_n, grid_n, lambda lo, hi: np.maximum(*ellipse_lhs(alpha[lo:hi, None], beta[None, :]))
    )
    witness = (float(alpha[ia]), float(beta[ib]))
    return _result("ellipse-region", peak - 1.0, witness, grid_n * grid_n, ELLIPSE_TOL)


def transform_form_max(alpha, beta):
    """Largest quadratic-form value reachable from (alpha, beta).

    Maps the minor pair (u, v) = (cos(alpha)cos(beta), sin(alpha)sin(beta))
    through every sign choice (+/-u, +/-v) to (a, b) = (p + q, p - q) and
    returns the max of a^2 + ab + b^2 and a^2 - ab + b^2 over all choices.
    Vectorized.

    Only the choice (+u, +v) is computed: in IEEE arithmetic the other
    three map (a, b) to (-b, -a), (b, a) or (-a, -b) exactly, since
    rounding commutes with negation, and a*a + b*b and a*b are
    symmetric, so all four give the same floats.  A sweep still counts
    four samples per point.
    """
    u, v = _minor_pair(alpha, beta)
    a = u + v
    b = u - v
    sq = a * a + b * b
    ab = a * b
    return np.maximum(sq + ab, sq - ab)


# Tightness tolerance for the verified transform constant.
_TRANSFORM_TIGHT_TOL = 1e-9


def check_transform_bound(grid_n=TRANSFORM_GRID_N):
    """Settle the constant on the quadratic forms.

    Sweeps the principal-angle box, pushes every minor sign choice
    through the change of variables, and requires the maximum form value
    to equal 3/4 within 1e-9 while never exceeding 3/4 + ``TRANSFORM_TOL``.
    This is the empirical verification of DEFAULT_FORM_BOUND.  The four
    sign choices give identical floats (see transform_form_max), so one
    is computed and four samples are counted per grid point.
    """
    target = pluecker.DEFAULT_FORM_BOUND
    alpha, beta = _angle_box(grid_n)
    peak, (ia, ib) = _blocked_peak(
        grid_n, grid_n, lambda lo, hi: transform_form_max(alpha[lo:hi, None], beta[None, :])
    )
    violation = max(peak - target, (target - _TRANSFORM_TIGHT_TOL) - peak)
    witness = (float(alpha[ia]), float(beta[ib]))
    return _result("transform-bound", violation, witness, 4 * grid_n * grid_n, TRANSFORM_TOL)


def squared_sine_sum(x, y, z):
    """sin^2 x + sin^2 y + sin^2 z, vectorized."""
    return np.sin(x) ** 2 + np.sin(y) ** 2 + np.sin(z) ** 2


def check_boundary_lemma(grid_n=LEMMA_GRID_N):
    """Scan the simplex x' + y' + z' = pi/2 for the squared-sine bound.

    Grid values must stay at or below 1 and boundary points (one
    coordinate zero) must evaluate to exactly 1 within ``LEMMA_TOL``.
    This is a grid scan: it bounds the sum only at the grid points.  On
    the simplex the identity

        sin^2 x' + sin^2 y' + sin^2 z' = 1 - 2 sin x' sin y' sin z'

    holds (the test suite confirms it symbolically), so the sum is at
    most 1 everywhere on the simplex, with equality exactly on its
    boundary.  This check does not use the identity; it only scans the
    grid.

    Row i of the grid holds x' = i * step, y' = j * step and
    z' = (segments - i - j) * step for j up to segments - i, so it has
    grid_n - i points.  The rows are swept in runs of at most
    ``_SWEEP_BLOCK`` entries, each run as wide as its first row, so
    memory stays bounded at any grid and only the shorter rows after a
    run's first reach past the simplex, where they hold -inf.
    The z' term is a strided view of the reversed squared-sine table
    padded with -inf, so row i reads the table from index segments - i
    down without a gather.  The boundary points, the whole row x' = 0
    and the first point of every later row, are checked once after the
    sweep.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    segments = grid_n - 1
    step = (math.pi / 2.0) / segments
    sq = np.sin(np.arange(grid_n) * step) ** 2
    # The x' term stays the scalar expression squared_sine_sum uses: a
    # NumPy scalar's ** 2 calls pow(), which can round an exact tie
    # differently from squaring an array.
    xsq = np.array([np.sin(i * step) ** 2 for i in range(grid_n)])
    zterm = sliding_window_view(np.concatenate([sq[::-1], np.full(segments, -np.inf)]), grid_n)
    worst, peak_at = _blocked_peak(
        grid_n,
        grid_n,
        lambda lo, hi: (xsq[lo:hi, None] + sq[: grid_n - lo]) + zterm[lo:hi, : grid_n - lo],
        shrink=1,
    )
    # Boundary points: the whole row x' = 0, else y' = 0 and z' = 0,
    # which hold the same float since sq[0] is exactly 0.
    row0 = (xsq[0] + sq) + zterm[0]
    col0 = (xsq[1:] + sq[0]) + zterm[1:, 0]
    dev = np.abs(np.concatenate([row0, col0]) - 1.0)
    b = int(np.argmax(dev))
    grid_violation = worst - 1.0
    if dev[b] > max(grid_violation, 0.0):
        violation, (i, j) = float(dev[b]), ((0, b) if b < grid_n else (b - segments, 0))
    else:
        violation, (i, j) = grid_violation, peak_at
    point = (i * step, j * step, (segments - i - j) * step)
    return _result("boundary-lemma", violation, point, grid_n * (grid_n + 1) // 2, LEMMA_TOL)


# Tolerance scales for the two implication conditions: how close the
# squared-sine sum must be to 1, and how far the angle sum must cross
# 3pi/2, for a point to count as violating.
IMPLICATION_VALUE_TOL = 1e-12
IMPLICATION_SUM_TOL = 1e-9
# Near-violation window for local refinement, as a multiple of the above.
_REFINE_FACTOR = 10.0
_REFINE_POINTS = 11


def implication_margins(x, y, z):
    """Signed violation margins of the two implications at (x, y, z).

    For the plus direction the margin is
    min(s_plus - (1 - IMPLICATION_VALUE_TOL),
    (x + y + z) - (3pi/2 + IMPLICATION_SUM_TOL)); a positive value means
    both violation conditions hold at once.  The minus direction mirrors
    the sum condition.  Vectorized; returns (margin_plus, margin_minus).
    """
    s_plus, s_minus = pluecker.eq3_sums(x, y, z)
    total = x + y + z
    return (np.minimum(*_plus_terms(s_plus, total)), np.minimum(*_minus_terms(s_minus, total)))


def _plus_terms(s_plus, total):
    # The value and sum terms whose minimum is the plus margin.
    return s_plus - (1.0 - IMPLICATION_VALUE_TOL), total - (_SUM_THRESHOLD + IMPLICATION_SUM_TOL)


def _minus_terms(s_minus, total):
    # The value and sum terms whose minimum is the minus margin.
    return s_minus - (1.0 - IMPLICATION_VALUE_TOL), (_SUM_THRESHOLD - IMPLICATION_SUM_TOL) - total


def _sine_tables(t):
    # sin^2(t + pi/3) and sin^2(t - pi/3) on the axes along the last
    # dimension of t, after checking the order the row search relies on:
    # t non-decreasing, the plus table non-increasing and the minus table
    # non-decreasing.
    plus = np.sin(t + _THIRD_PI) ** 2
    minus = np.sin(t - _THIRD_PI) ** 2
    if not (
        np.all(t[..., 1:] >= t[..., :-1])
        and np.all(plus[..., 1:] <= plus[..., :-1])
        and np.all(minus[..., 1:] >= minus[..., :-1])
    ):
        raise ValueError("squared-sine tables are not monotone along the axis")
    return plus, minus


class _Rows:
    """Rows of grid points along z, searched by bisection.

    Row r holds the squared-sine sums a_plus[r] + sin^2(z + pi/3) and
    a_minus[r] + sin^2(z - pi/3) and the angle total b[r] + z, where
    a_plus and a_minus are the (x, y) part of the pointwise sums and b is
    x + y, so each point gets the floats of a pointwise evaluation.  The
    z values and their two tables are 1-D, shared by every row, or
    (T, length) with row r reading table row table[r].  They must be
    monotone as _sine_tables checks: along z the plus sum never rises and
    the minus sum and the total never fall, so every margin term and
    near-violation test is monotone along z too.
    """

    def __init__(self, a_plus, a_minus, b, z, plus, minus, table=None):
        self.b = b
        self.length = z.shape[-1]
        # Padded to a power of two past the end with each table's limit
        # in its direction, so every monotone test holds there.
        self.width = 1 << self.length.bit_length()
        self.base = None if table is None else table * self.width
        pad = [(0, 0)] * (z.ndim - 1) + [(0, self.width - self.length)]
        self.z, plus, minus = (
            np.pad(values, pad, constant_values=limit).ravel()
            for values, limit in ((z, np.inf), (plus, -np.inf), (minus, np.inf))
        )
        self.sides = ((a_plus, plus), (a_minus, minus))

    def sums(self, side, k, r=slice(None)):
        # The plus (side 0) or minus (side 1) sum and the total at z
        # index k of rows r, k an integer or an array over r.
        a, values = self.sides[side]
        idx = k if self.base is None else self.base[r] + k
        return a[r] + values[idx], self.b[r] + self.z[idx]

    def first(self, side, holds, r=slice(None)):
        # Per row of r, the first z index where holds(sum, total) is
        # true, or length if none; holds must be false and then true
        # along z.  Branch-free bisection over the padded width.
        k = np.zeros(len(self.b[r]), dtype=np.intp)
        step = self.width // 2
        while step:
            k += ~holds(*self.sums(side, k + (step - 1), r)) * step
            step //= 2
        return k

    def peaks(self):
        # Each row's largest plus and minus margins.  Along z each margin
        # is the minimum of a falling and a rising term (the value and sum
        # terms of the plus margin, the sum and value terms of the minus
        # margin), so its largest value lies on either side of the first
        # index where the rising term reaches the falling one.
        last = self.length - 1
        peaks = []
        for side, terms in enumerate((_plus_terms, _minus_terms)):
            def crossed(*sums):
                value, total = terms(*sums)
                return total >= value if side == 0 else value >= total

            at = self.first(side, crossed)
            before = np.minimum(*terms(*self.sums(side, np.maximum(at - 1, 0))))
            peaks.append(np.maximum(before, np.minimum(*terms(*self.sums(side, np.minimum(at, last))))))
        return peaks

    def peak(self, peaks):
        # The first largest merged margin in (row, z) C order, as
        # (value, row, z index): the first row holding the largest of the
        # peaks, evaluated in full.
        r = int(np.argmax(np.maximum(*peaks)))
        ks = np.arange(self.length)
        merged = np.maximum(
            np.minimum(*_plus_terms(*self.sums(0, ks, r))),
            np.minimum(*_minus_terms(*self.sums(1, ks, r))),
        )
        k = int(np.argmax(merged))
        return float(merged[k]), r, k


def _refine_cells(cells, step):
    """Best merged margin over the 11^3 subgrids around the cell centres.

    ``cells`` is a (C, 3) array of grid points.  Returns (margin, point),
    or None without cells.  Each subgrid is searched as 11^2 (x, y) rows
    along its z axis, clipped to the cube, so non-decreasing with repeats
    at the clip; memory stays bounded by taking whole cells in chunks of
    at most _SWEEP_BLOCK rows.  The winner is the first cell
    holding the largest margin and its first argmax in (x, y, z) order,
    which a cell-by-cell scan with a strict ">" would keep.
    """
    axes = np.linspace(cells - step, cells + step, _REFINE_POINTS, axis=-1)
    axes = np.clip(axes, _THIRD_PI, 2.0 * _THIRD_PI)
    plus, minus = _sine_tables(axes)
    chunk = max(1, _SWEEP_BLOCK // _REFINE_POINTS**2)
    best = None
    for start in range(0, len(axes), chunk):
        part = slice(start, start + chunk)
        x, y, z = axes[part, 0], axes[part, 1], axes[part, 2]
        count = len(z)
        rows = _Rows(
            (plus[part, 0, :, None] + plus[part, 1, None, :]).ravel(),
            (minus[part, 0, :, None] + minus[part, 1, None, :]).ravel(),
            (x[:, :, None] + y[:, None, :]).ravel(),
            z, plus[part, 2], minus[part, 2],
            table=np.repeat(np.arange(count), _REFINE_POINTS**2),
        )
        peak, r, k = rows.peak(rows.peaks())
        if best is None or peak > best[0]:
            c, i, j = np.unravel_index(r, (count, _REFINE_POINTS, _REFINE_POINTS))
            best = (peak, (float(x[c, i]), float(y[c, j]), float(z[c, k])))
    return best


def check_implications(grid_n=IMPLICATIONS_GRID_N):
    """Falsification sweep for the two consistency implications.

    Scans the cube [pi/3, 2pi/3]^3 for a point where a squared-sine sum
    reaches 1 while the angle sum crosses 3pi/2 the wrong way.  Any grid
    point within 10x the condition tolerances of violating spawns an
    11^3 local subgrid (one level deep).  The result reports the
    tightest margin observed and its witness; the check passes iff no
    margin exceeds ``IMPLICATIONS_TOL`` (0, so none is positive).

    The cube is searched as grid_n^2 (x, y) rows along z.  In grid order
    s_plus never rises while s_minus and the angle total never fall,
    since sin^2(t + pi/3) falls and sin^2(t - pi/3) rises on
    [pi/3, 2pi/3] and rounding is monotone.  So each margin peaks where
    its two terms cross, which a bisection over all rows finds, and a
    row's near-violation points form one z interval per direction.  The
    result equals that of evaluating every grid point, and
    ``samples_used`` still counts every grid point covered.

    Raises
    ------
    ValueError
        If ``grid_n < 3``, or if the squared-sine tables are not monotone
        along the axis, which only grids far finer than any that can run
        could cause.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    ts = np.linspace(_THIRD_PI, 2.0 * _THIRD_PI, grid_n)
    step = ts[1] - ts[0]
    plus, minus = _sine_tables(ts)
    # The x terms keep the expression a NumPy scalar x gets in eq3_sums:
    # a scalar's ** 2 calls pow(), which can round an exact tie
    # differently from squaring an array.
    x_plus = np.array([np.sin(x + _THIRD_PI) ** 2 for x in ts])
    x_minus = np.array([np.sin(x - _THIRD_PI) ** 2 for x in ts])
    rows = _Rows(
        (x_plus[:, None] + plus).ravel(),
        (x_minus[:, None] + minus).ravel(),
        (ts[:, None] + ts).ravel(),
        ts, plus, minus,
    )
    peaks = rows.peaks()
    worst, r, k = rows.peak(peaks)
    witness = (float(ts[r // grid_n]), float(ts[r % grid_n]), float(ts[k]))
    near_value = 1.0 - IMPLICATION_VALUE_TOL - _REFINE_FACTOR * IMPLICATION_VALUE_TOL
    near_above = _SUM_THRESHOLD + IMPLICATION_SUM_TOL - _REFINE_FACTOR * IMPLICATION_SUM_TOL
    near_below = _SUM_THRESHOLD - IMPLICATION_SUM_TOL + _REFINE_FACTOR * IMPLICATION_SUM_TOL
    # Near-violation z intervals [lo, hi) per direction.  Rounding is
    # monotone, so a near point's margin is at least the minimum of the
    # margin terms at the near thresholds; only rows peaking there are
    # searched.
    hit = np.flatnonzero(
        (peaks[0] >= min(_plus_terms(near_value, near_above)))
        | (peaks[1] >= min(_minus_terms(near_value, near_below)))
    )
    lo_plus = rows.first(0, lambda s_plus, total: total >= near_above, hit)
    hi_plus = rows.first(0, lambda s_plus, total: s_plus < near_value, hit)
    lo_minus = rows.first(1, lambda s_minus, total: s_minus >= near_value, hit)
    hi_minus = rows.first(1, lambda s_minus, total: total > near_below, hit)
    zs = np.arange(grid_n)
    near = (
        ((zs >= lo_plus[:, None]) & (zs < hi_plus[:, None]))
        | ((zs >= lo_minus[:, None]) & (zs < hi_minus[:, None]))
    )
    row, kz = np.nonzero(near)
    cells = np.stack([ts[hit[row] // grid_n], ts[hit[row] % grid_n], ts[kz]], axis=-1)
    samples = grid_n**3 + len(cells) * _REFINE_POINTS**3
    refined = _refine_cells(cells, step)
    if refined is not None and refined[0] > worst:
        worst, witness = refined
    return _result("implications", worst, witness, samples, IMPLICATIONS_TOL)


_PROOF_RADII = (1.0, 1.0, 1.0)
_PROOF_ANGLES = (math.pi / 2.0, _THIRD_PI, 2.0 * _THIRD_PI)


def _minor_pairs(p):
    # The minors grouped into the three complementary coordinate pairs.
    return ((p.p12, p.p34), (p.p13, p.p24), (p.p14, p.p23))


def _pair_orbit_mismatch(candidate, target):
    # Smallest max-abs difference between the candidate pair and the
    # target pair over sign flips and the swap; these generate the
    # row/column sign symmetries of the frame in minor coordinates.
    # Over a sign flip, min(|a - t|, |-a - t|) rounds to exactly
    # ||a| - |t||.
    a, b = (abs(c) for c in candidate)
    t0, t1 = (abs(t) for t in target)
    return min(max(abs(a - t0), abs(b - t1)), max(abs(b - t0), abs(a - t1)))


def check_feasible_point(radii=_PROOF_RADII, angles=_PROOF_ANGLES):
    """Certify the consistency point of the constraint system.

    Reconstructs sphere coordinates from unit radii and sector angles
    (pi/2, pi/3, 2pi/3), maps them back to minor coordinates, and
    verifies: quadric relation and normalization within ``FEASIBLE_TOL``,
    both sphere equations within it, every quadratic form at most the
    verified bound 3/4 (DEFAULT_FORM_BOUND) with equality in at least
    one form per pair, and agreement with the extremal frame's minor
    vector up to the sign and swap symmetries of each coordinate pair.
    """
    bound = pluecker.DEFAULT_FORM_BOUND
    v = pluecker.from_elliptic(pluecker.EllipticParams(*radii, *angles))
    p = pluecker.from_transformed(v)
    rel, norm = pluecker.invariant_residuals(p)
    report = pluecker.eval_system(v)
    forms = report.qform_values
    form_excess = max(f - bound for f in forms)
    equality_dev = max(
        min(abs(forms[2 * i] - bound), abs(forms[2 * i + 1] - bound)) for i in range(3)
    )
    target = pluecker.pluecker4x2(extremal_matrix())
    orbit_mismatch = max(
        _pair_orbit_mismatch(c, t) for c, t in zip(_minor_pairs(p), _minor_pairs(target))
    )
    violation = max(
        rel, norm, report.sphere1_residual, report.sphere2_residual,
        form_excess, equality_dev, orbit_mismatch,
    )
    return _result("feasible-point", violation, None, 1, FEASIBLE_TOL)


def run_all(config=None):
    """Run every check in fixed order and assemble the report.

    Failures are recorded, never thrown; identical configurations
    produce byte-identical serialized reports.
    """
    cfg = config if config is not None else CertifyConfig()
    checks = (
        check_extremal_matrix(),
        check_ellipse_region(cfg.ellipse_grid_n),
        check_transform_bound(cfg.transform_grid_n),
        check_boundary_lemma(cfg.lemma_grid_n),
        check_implications(cfg.implications_grid_n),
        check_feasible_point(),
    )
    passed = all(c.passed for c in checks)
    return CertificateReport(checks=checks, all_passed=passed, config=asdict(cfg))
