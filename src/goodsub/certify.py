"""Certificate for the sharp 4-by-2 best-block bound.

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
   equals 1 at the grid points on the simplex boundary.
5. implications: on the angle cube [pi/3, 2pi/3]^3 there is no point
   with s_plus >= 1 and angle sum above 3pi/2, and none with
   s_minus >= 1 and angle sum below 3pi/2 (the two directions of the
   consistency argument).
6. feasible-point: unit radii with sector angles (pi/2, pi/3, 2pi/3)
   reconstruct coordinates that satisfy every constraint with equality
   in at least one form per pair and reproduce the extremal frame's
   minor vector.

Checks 2 and 3 are proofs in exact rational arithmetic.  Put
p = cos^2(alpha) in [3/4, 1] and q = cos^2(beta) in [0, 1/4], so that
u^2 = pq and v^2 = (1 - p)(1 - q).  Both ellipse sides are linear in
(u^2, v^2), and so are the forms: every sign choice gives
a^2 + ab + b^2 = 3u^2 + v^2 and a^2 - ab + b^2 = u^2 + 3v^2.  So all four
are bilinear in (p, q), and a bilinear function peaks over a box at one
of its four corners.  The checks evaluate the corners with
fractions.Fraction and find exactly 1 and exactly 3/4 (3u^2 + v^2 is 3/4
of 4u^2 + (4/3)v^2: check 3 is check 2 scaled).  Each reports its first
maximizing corner (alpha, beta), which the public kernels re-evaluate.

Checks 4 and 5 remain grid scans: a finite grid cannot rule out a
violation between grid points.  Check 5 scans one reduced statement.
With x' = 2pi/3 - x, sin(x + pi/3) = sin x' and x + y + z > 3pi/2 becomes
x' + y' + z' < pi/2; with x' = x - pi/3, sin(x - pi/3) = sin x' and
x + y + z < 3pi/2 becomes x' + y' + z' < pi/2.  Both maps take the cube
onto [0, pi/3]^3, so both implications say: no x' in [0, pi/3]^3 with
x' + y' + z' < pi/2 - IMPLICATION_SUM_TOL has
sin^2 x' + sin^2 y' + sin^2 z' >= 1 - IMPLICATION_VALUE_TOL.  Its grid on
[0, pi/3]^3 holds the images of the cube grid's points under either
map, and its witness is reported as (x', y', z').  Grid points near
violating are re-examined on a local 11^3 subgrid, one level deep.

Check 4 sweeps the simplex triangle in runs of rows, each as wide as its
first row and holding at most _SWEEP_BLOCK floats (128 KiB, in cache),
so memory is bounded at any grid.  It reads its z' term through a
strided view of the reversed squared-sine table, padded with -inf past
the simplex, so no entry is gathered, and a run's maximum replaces the
best so far only if strictly larger, which keeps the first maximum in C
order.  Checks 4 and 5 combine per-axis tables in the order of a
pointwise evaluation: the sums as (f(x) + f(y)) + f(z) and the angle
total as (x + y) + z.  Check 5 searches each (x', y') row along z'
instead of scanning it: sin^2 rises on [0, pi/3], so along z' the value
term of the margin rises and the sum term falls, and a bisection finds
their crossing, where the margin peaks.  The table is checked to be
monotone before it is searched.  The results equal those of evaluating
the kernels at every grid point, and the sample counts still count every
grid point covered.

All grids are deterministic, so rerunning a configuration reproduces the
report byte for byte.  Failures are recorded in the report, not thrown.
Each check's pointwise kernel is exposed as a vectorized function so a
recorded witness can be re-evaluated standalone.
"""

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

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

# Default grid sizes of the two sweeps, then each check's tolerance.
LEMMA_GRID_N = 2001
IMPLICATIONS_GRID_N = 201
EXTREMAL_TOL = 1e-14
ELLIPSE_TOL = 0.0
TRANSFORM_TOL = 0.0
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
    holds the grid point or box corner where the extremum occurred, when
    the check has a meaningful point to report.
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

    Checks 2 and 3 are exact and take no grid; every other check is a
    deterministic grid or a single evaluation, so the configuration
    alone fixes the report.
    """

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


def _blocked_peak(rows, block):
    # The first maximum in C order of a triangle whose row r holds its
    # first rows - r entries, and its (row, column) index.
    # block(start, stop) gives rows start:stop cut to the width of row
    # start, with -inf past the end of each later row, which can never
    # be a maximum.  Each run holds at most _SWEEP_BLOCK entries (one row
    # at least), so runs lengthen as rows shorten; a later run's maximum
    # wins only if strictly larger.
    best = None
    start = 0
    while start < rows:
        cols = rows - start
        stop = min(start + max(1, _SWEEP_BLOCK // cols), rows)
        values = block(start, stop)
        flat = int(np.argmax(values))
        value = float(values.flat[flat])
        if best is None or value > best[0]:
            i, j = divmod(flat, cols)
            best = (value, (start + i, j))
        start = stop
    return best


def _ellipse_sides(u2, v2):
    # 4u^2 + (4/3)v^2 and (4/3)u^2 + 4v^2, exact on Fractions.
    return (12 * u2 + 4 * v2) / 3, (4 * u2 + 12 * v2) / 3


def _form_values(u2, v2):
    # a^2 + ab + b^2 and a^2 - ab + b^2 under every sign choice.
    return 3 * u2 + v2, u2 + 3 * v2


def _corner_peak(sides):
    # The largest value of sides(u^2, v^2), exactly, over the corners of
    # the box [0, pi/6] x [pi/3, pi/2], with u^2 = pq and
    # v^2 = (1 - p)(1 - q) for p = cos^2(alpha) and q = cos^2(beta), and
    # the first corner (alpha, beta) in C order reaching it.
    corners = [
        (max(sides(p * q, (1 - p) * (1 - q))), (alpha, beta))
        for alpha, p in ((0.0, Fraction(1)), (math.pi / 6.0, Fraction(3, 4)))
        for beta, q in ((_THIRD_PI, Fraction(1, 4)), (math.pi / 2.0, Fraction(0)))
    ]
    return max(corners, key=lambda corner: corner[0])


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


def check_ellipse_region():
    """Prove the ellipse inequalities over the principal-angle box.

    Both left-hand sides are bilinear in (cos^2(alpha), cos^2(beta)) (see
    the module docstring), so their maximum over [0, pi/6] x [pi/3, pi/2]
    is their exact maximum over the four corners: 1.  The violation is
    that maximum minus 1, and the witness the first corner reaching it.
    """
    peak, witness = _corner_peak(_ellipse_sides)
    return _result("ellipse-region", peak - 1, witness, 4, ELLIPSE_TOL)


def transform_form_max(alpha, beta):
    """Largest quadratic-form value reachable from (alpha, beta).

    Maps the minor pair (u, v) = (cos(alpha)cos(beta), sin(alpha)sin(beta))
    through every sign choice (+/-u, +/-v) to (a, b) = (p + q, p - q) and
    returns the max of a^2 + ab + b^2 and a^2 - ab + b^2 over all choices.
    Vectorized.

    Only the choice (+u, +v) is computed: in IEEE arithmetic the other
    three map (a, b) to (-b, -a), (b, a) or (-a, -b) exactly, since
    rounding commutes with negation, and a*a + b*b and a*b are
    symmetric, so all four give the same floats.
    """
    u, v = _minor_pair(alpha, beta)
    a = u + v
    b = u - v
    sq = a * a + b * b
    ab = a * b
    return np.maximum(sq + ab, sq - ab)


def check_transform_bound():
    """Prove the constant on the quadratic forms.

    Under every sign choice the forms are 3u^2 + v^2 and u^2 + 3v^2,
    bilinear in (cos^2(alpha), cos^2(beta)) (see the module docstring), so
    their maximum over the principal-angle box is their exact maximum
    over the four corners: 3/4.  The violation is its distance from
    DEFAULT_FORM_BOUND, so the check proves the constant sound and sharp,
    and the witness is the first corner reaching it.
    """
    peak, witness = _corner_peak(_form_values)
    violation = abs(peak - Fraction(pluecker.DEFAULT_FORM_BOUND))
    return _result("transform-bound", violation, witness, 4, TRANSFORM_TOL)


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
        grid_n, lambda lo, hi: (xsq[lo:hi, None] + sq[: grid_n - lo]) + zterm[lo:hi, : grid_n - lo]
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
# its threshold, for a point to count as violating.
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
    check_implications scans the reduced statement instead; its witness
    (x', y', z') is the cube point (2pi/3 - x', ...) of the plus
    direction and (x' + pi/3, ...) of the minus direction.
    """
    s_plus, s_minus = pluecker.eq3_sums(x, y, z)
    total = x + y + z
    value = 1.0 - IMPLICATION_VALUE_TOL
    return (
        np.minimum(s_plus - value, total - (1.5 * math.pi + IMPLICATION_SUM_TOL)),
        np.minimum(s_minus - value, (1.5 * math.pi - IMPLICATION_SUM_TOL) - total),
    )


def _terms(s, total):
    # The value and sum terms whose minimum is the reduced margin at a
    # point with squared-sine sum s and angle total.
    return s - (1.0 - IMPLICATION_VALUE_TOL), (0.5 * math.pi - IMPLICATION_SUM_TOL) - total


def _sine_table(t):
    # sin^2 t on the axes along the last dimension of t, after checking
    # the order the row search relies on: t and the table non-decreasing.
    table = np.sin(t) ** 2
    if not (np.all(t[..., 1:] >= t[..., :-1]) and np.all(table[..., 1:] >= table[..., :-1])):
        raise ValueError("squared-sine table is not monotone along the axis")
    return table


class _Rows:
    """Rows of grid points along z', searched by bisection.

    Row r holds the squared-sine sums a[r] + sin^2 z' and the angle
    totals b[r] + z', where a is the (x', y') part of the pointwise sum
    and b is x' + y', so each point gets the floats of a pointwise
    evaluation.  The z' values and their table are 1-D, shared by every
    row, or (T, length) with row r reading table row table[r].  They
    must be monotone as _sine_table checks, so along z' both the sum
    and the total never fall, and every margin term and near-violation
    test is monotone along z' too.
    """

    def __init__(self, a, b, z, sines, table=None):
        self.a = a
        self.b = b
        self.length = z.shape[-1]
        # Padded to a power of two past the end with +inf, so every
        # monotone test holds there.
        self.width = 1 << self.length.bit_length()
        self.base = None if table is None else table * self.width
        pad = [(0, 0)] * (z.ndim - 1) + [(0, self.width - self.length)]
        self.z, self.sines = (np.pad(v, pad, constant_values=np.inf).ravel() for v in (z, sines))

    def sums(self, k, r=slice(None)):
        # The sum and the total at z' index k of rows r, k an integer or
        # an array over r.
        idx = k if self.base is None else self.base[r] + k
        return self.a[r] + self.sines[idx], self.b[r] + self.z[idx]

    def first(self, holds, r=slice(None)):
        # Per row of r, the first z' index where holds(sum, total) is
        # true, or length if none; holds must be false and then true
        # along z'.  Branch-free bisection over the padded width.
        k = np.zeros(len(self.b[r]), dtype=np.intp)
        step = self.width // 2
        while step:
            k += ~holds(*self.sums(k + (step - 1), r)) * step
            step //= 2
        return k

    def peaks(self):
        # Each row's largest margin.  Along z' the margin is the minimum
        # of the rising value term and the falling sum term, so its
        # largest value lies on either side of the first index where the
        # value term reaches the sum term.
        at = self.first(lambda *sums: np.greater_equal(*_terms(*sums)))
        before = np.minimum(*_terms(*self.sums(np.maximum(at - 1, 0))))
        return np.maximum(before, np.minimum(*_terms(*self.sums(np.minimum(at, self.length - 1)))))

    def peak(self, peaks):
        # The first largest margin in (row, z') C order, as
        # (value, row, z' index): the first row holding the largest of
        # the peaks, evaluated in full.
        r = int(np.argmax(peaks))
        margins = np.minimum(*_terms(*self.sums(np.arange(self.length), r)))
        k = int(np.argmax(margins))
        return float(margins[k]), r, k


def _refine_cells(cells, step):
    """Best margin over the 11^3 subgrids around the cell centres.

    ``cells`` is a (C, 3) array of grid points.  Returns (margin, point),
    or None without cells.  Each subgrid is searched as 11^2 (x', y')
    rows along its z' axis, clipped to [0, pi/3], so non-decreasing with
    repeats at the clip; memory stays bounded by taking whole cells in
    chunks of at most _SWEEP_BLOCK rows.  The winner is the first cell
    holding the largest margin and its first argmax in (x', y', z')
    order, which a cell-by-cell scan with a strict ">" would keep.
    """
    axes = np.linspace(cells - step, cells + step, _REFINE_POINTS, axis=-1)
    axes = np.clip(axes, 0.0, _THIRD_PI)
    sines = _sine_table(axes)
    chunk = max(1, _SWEEP_BLOCK // _REFINE_POINTS**2)
    best = None
    for start in range(0, len(axes), chunk):
        part = slice(start, start + chunk)
        x, y, z = axes[part, 0], axes[part, 1], axes[part, 2]
        count = len(z)
        rows = _Rows(
            (sines[part, 0, :, None] + sines[part, 1, None, :]).ravel(),
            (x[:, :, None] + y[:, None, :]).ravel(),
            z, sines[part, 2],
            table=np.repeat(np.arange(count), _REFINE_POINTS**2),
        )
        peak, r, k = rows.peak(rows.peaks())
        if best is None or peak > best[0]:
            c, i, j = np.unravel_index(r, (count, _REFINE_POINTS, _REFINE_POINTS))
            best = (peak, (float(x[c, i]), float(y[c, j]), float(z[c, k])))
    return best


def check_implications(grid_n=IMPLICATIONS_GRID_N):
    """Falsification sweep for the two consistency implications.

    Scans the reduced statement of both implications (see the module
    docstring) on the grid_n^3 grid of [0, pi/3]^3: a point violates it
    when min(s - (1 - IMPLICATION_VALUE_TOL),
    (pi/2 - IMPLICATION_SUM_TOL) - (x' + y' + z')) is positive, where
    s = sin^2 x' + sin^2 y' + sin^2 z'.  Any grid point within 10x the
    condition tolerances of violating spawns an 11^3 local subgrid (one
    level deep).  The result reports the tightest margin observed and
    its witness (x', y', z'); the check passes iff no margin exceeds
    ``IMPLICATIONS_TOL`` (0, so none is positive).

    The grid is searched as grid_n^2 (x', y') rows along z'.  In grid
    order s and the angle total never fall, since sin^2 rises on
    [0, pi/3] and rounding is monotone.  So the margin peaks where its
    two terms cross, which a bisection over all rows finds, and a row's
    near-violation points form one z' interval.  The result equals that
    of evaluating every grid point, and ``samples_used`` still counts
    every grid point covered.

    Raises
    ------
    ValueError
        If ``grid_n < 3``, or if the squared-sine table is not monotone
        along the axis, which only grids far finer than any that can run
        could cause.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    ts = np.linspace(0.0, _THIRD_PI, grid_n)
    step = ts[1] - ts[0]
    sines = _sine_table(ts)
    rows = _Rows((sines[:, None] + sines).ravel(), (ts[:, None] + ts).ravel(), ts, sines)
    peaks = rows.peaks()
    worst, r, k = rows.peak(peaks)
    witness = (float(ts[r // grid_n]), float(ts[r % grid_n]), float(ts[k]))
    near_value = 1.0 - IMPLICATION_VALUE_TOL - _REFINE_FACTOR * IMPLICATION_VALUE_TOL
    near_sum = 0.5 * math.pi - IMPLICATION_SUM_TOL + _REFINE_FACTOR * IMPLICATION_SUM_TOL
    # Near-violation z' intervals [lo, hi).  Rounding is monotone, so a
    # near point's margin is at least the minimum of the margin terms at
    # the near thresholds; only rows peaking there are searched.
    hit = np.flatnonzero(peaks >= min(_terms(near_value, near_sum)))
    lo = rows.first(lambda s, total: s >= near_value, hit)
    hi = rows.first(lambda s, total: total > near_sum, hit)
    zs = np.arange(grid_n)
    row, kz = np.nonzero((zs >= lo[:, None]) & (zs < hi[:, None]))
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
        check_ellipse_region(),
        check_transform_bound(),
        check_boundary_lemma(cfg.lemma_grid_n),
        check_implications(cfg.implications_grid_n),
        check_feasible_point(),
    )
    passed = all(c.passed for c in checks)
    return CertificateReport(checks=checks, all_passed=passed, config=asdict(cfg))
