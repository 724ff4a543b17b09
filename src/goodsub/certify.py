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
   exactly 3/4, settling the constant used by eval_system.
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

Checks 2-5 sweep grids of functions that are sums or products of
one-variable terms, so each sine and cosine is evaluated once per grid
axis value, in a 1-D table, and the grid values are formed by
broadcasting in the same order of operations as a pointwise evaluation:
the minor pair as outer products, the squared-sine sums as
(f(x) + f(y)) + f(z) and the angle total as (x + y) + z.  The results
equal those of evaluating the kernels at every grid point.

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
from dataclasses import asdict, dataclass

import numpy as np

from . import pluecker
from .exceptions import DimensionError
from .pluecker import _THIRD_PI
from .stiefel import extremal_matrix, gram_deviation, sigma_min

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
    """Grid sizes and constants for a full certificate run.

    Every check is a deterministic grid, so the configuration alone
    fixes the report.
    """

    ellipse_grid_n: int = 1001
    transform_grid_n: int = 1001
    lemma_grid_n: int = 2001
    implications_grid_n: int = 201
    bound: float = pluecker.DEFAULT_FORM_BOUND


def _result(name, violation, witness, samples, tolerance):
    return CheckResult(
        name=name,
        passed=bool(violation <= tolerance),
        max_violation=float(violation),
        witness=witness,
        samples_used=int(samples),
        tolerance=float(tolerance),
    )


def check_extremal_matrix(matrix=None, tolerance=1e-14):
    """Certify the attaining frame.

    Verifies orthonormality (max |A^T A - I| <= tol), that all six
    2-by-2 row blocks have smallest singular value <= 1/2 + tol, and
    that the best block attains 1/2 within tol.  The violation is the
    worst of the three conditions, so an orthonormality defect or a
    block past 1/2 both fail the check.  Row order does not matter.

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
    """
    if matrix is None:
        arr = extremal_matrix().values
    else:
        arr = np.asarray(getattr(matrix, "values", matrix), dtype=float)
        if arr.shape != (4, 2):
            raise DimensionError(f"expected a 4x2 matrix, got shape {arr.shape}")
    dev = gram_deviation(arr)
    sigmas = [
        sigma_min(arr[[i, j]]) for i in range(4) for j in range(i + 1, 4)
    ]
    excess = max(s - 0.5 for s in sigmas)
    gap = abs(max(sigmas) - 0.5)
    violation = max(dev, excess, gap)
    return _result("extremal-matrix", violation, None, len(sigmas), tolerance)


def ellipse_lhs(alpha, beta):
    """Left-hand sides of the two ellipse inequalities at (alpha, beta).

    Vectorized; returns (4u^2 + (4/3)v^2, (4/3)u^2 + 4v^2) for
    u = cos(alpha)cos(beta), v = sin(alpha)sin(beta).
    """
    return _ellipse_forms(np.cos(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta))


def _ellipse_forms(u, v):
    u2 = u * u
    v2 = v * v
    return (4.0 * u2 + (4.0 / 3.0) * v2, (4.0 / 3.0) * u2 + 4.0 * v2)


def _minor_pair_grid(grid_n):
    # The principal-angle box axes and the minor pair (u, v) on their
    # product grid, as outer products of 1-D cosine and sine tables.
    alpha = np.linspace(0.0, math.pi / 6.0, grid_n)
    beta = np.linspace(_THIRD_PI, math.pi / 2.0, grid_n)
    u = np.multiply.outer(np.cos(alpha), np.cos(beta))
    v = np.multiply.outer(np.sin(alpha), np.sin(beta))
    return alpha, beta, u, v


def check_ellipse_region(grid_n=1001, tolerance=1e-12):
    """Scan the principal-angle box for the ellipse inequalities.

    Both left-hand sides must stay at or below 1 over
    [0, pi/6] x [pi/3, pi/2]; the maximum (exactly 1, on the box edges
    through the corner (pi/6, pi/3)) is recorded via the witness.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    alpha, beta, u, v = _minor_pair_grid(grid_n)
    lhs1, lhs2 = _ellipse_forms(u, v)
    lhs = np.maximum(lhs1, lhs2)
    flat = int(np.argmax(lhs))
    ia, ib = np.unravel_index(flat, lhs.shape)
    violation = float(lhs[ia, ib]) - 1.0
    witness = (float(alpha[ia]), float(beta[ib]))
    return _result("ellipse-region", violation, witness, grid_n * grid_n, tolerance)


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
    return _form_peak(np.cos(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta))


def _form_peak(u, v):
    a = u + v
    b = u - v
    sq = a * a + b * b
    ab = a * b
    return np.maximum(sq + ab, sq - ab)


# Tightness tolerance for the verified transform constant.
_TRANSFORM_TIGHT_TOL = 1e-9


def check_transform_bound(grid_n=1001, tolerance=1e-12):
    """Settle the constant on the quadratic forms.

    Sweeps the principal-angle box, pushes every minor sign choice
    through the change of variables, and requires the maximum form value
    to equal 3/4 within 1e-9 while never exceeding 3/4 + tolerance.
    This is the empirical verification of DEFAULT_FORM_BOUND.  The four
    sign choices give identical floats (see transform_form_max), so one
    is computed and four samples are counted per grid point.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    target = pluecker.DEFAULT_FORM_BOUND
    alpha, beta, u, v = _minor_pair_grid(grid_n)
    forms = _form_peak(u, v)
    flat = int(np.argmax(forms))
    ia, ib = np.unravel_index(flat, forms.shape)
    peak = float(forms[ia, ib])
    violation = max(peak - target, (target - _TRANSFORM_TIGHT_TOL) - peak)
    witness = (float(alpha[ia]), float(beta[ib]))
    return _result(
        "transform-bound", violation, witness, 4 * grid_n * grid_n, tolerance
    )


def squared_sine_sum(x, y, z):
    """sin^2 x + sin^2 y + sin^2 z, vectorized."""
    return np.sin(x) ** 2 + np.sin(y) ** 2 + np.sin(z) ** 2


def check_boundary_lemma(grid_n=2001, tolerance=1e-12):
    """Scan the simplex x' + y' + z' = pi/2 for the squared-sine bound.

    Grid values must stay at or below 1 and boundary points (one
    coordinate zero) must evaluate to exactly 1 within tolerance.  This
    is a grid scan: it bounds the sum only at the grid points.  The
    exact identity sin^2 x' + sin^2 y' + sin^2 z' = 1 - 2 sin x' sin y'
    sin z' on the simplex, which would prove the bound everywhere, is
    not checked here.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    segments = grid_n - 1
    step = (math.pi / 2.0) / segments
    # sin^2(m * step) for every grid index m; the row of x' = i * step
    # reads y' = j * step from its head and z' = (segments - i - j) * step
    # from its reversed head.
    sq = np.sin(np.arange(grid_n) * step) ** 2
    worst = -math.inf
    witness = None
    boundary_dev = 0.0
    boundary_witness = None
    samples = 0
    for i in range(grid_n):
        xp = i * step
        last = segments - i
        # The x' term stays the scalar expression squared_sine_sum uses:
        # a NumPy scalar's ** 2 calls pow(), which can round an exact tie
        # differently from squaring an array.
        vals = (np.sin(xp) ** 2 + sq[:last + 1]) + sq[last::-1]
        samples += last + 1
        m = int(np.argmax(vals))
        if float(vals[m]) > worst:
            worst = float(vals[m])
            witness = (xp, m * step, (last - m) * step)
        # Boundary points: the whole row x' = 0, else y' = 0 and z' = 0.
        on_boundary = np.arange(last + 1) if i == 0 else np.array([0, last])
        dev = np.abs(vals[on_boundary] - 1.0)
        b = int(np.argmax(dev))
        if float(dev[b]) > boundary_dev:
            idx = int(on_boundary[b])
            boundary_dev = float(dev[b])
            boundary_witness = (xp, idx * step, (last - idx) * step)
    grid_violation = worst - 1.0
    if boundary_dev > grid_violation:
        violation, point = boundary_dev, boundary_witness
    else:
        violation, point = grid_violation, witness
    return _result("boundary-lemma", violation, point, samples, tolerance)


# Tolerance scales for the two implication conditions: how close the
# squared-sine sum must be to 1, and how far the angle sum must cross
# 3pi/2, for a point to count as violating.
IMPLICATION_VALUE_TOL = 1e-12
IMPLICATION_SUM_TOL = 1e-9
# Near-violation window for local refinement, as a multiple of the above.
_REFINE_FACTOR = 10.0
_REFINE_POINTS = 11
# Refinement subgrid points scored at once.
_REFINE_CHUNK_POINTS = 2**18


def implication_margins(x, y, z, value_tol=IMPLICATION_VALUE_TOL, sum_tol=IMPLICATION_SUM_TOL):
    """Signed violation margins of the two implications at (x, y, z).

    For the plus direction the margin is
    min(s_plus - (1 - value_tol), (x + y + z) - (3pi/2 + sum_tol)); a
    positive value means both violation conditions hold at once.  The
    minus direction mirrors the sum condition.  Vectorized; returns
    (margin_plus, margin_minus).
    """
    s_plus, s_minus = pluecker.eq3_sums(x, y, z)
    return _margins(s_plus, s_minus, x + y + z, value_tol, sum_tol)


def _margins(s_plus, s_minus, total, value_tol=IMPLICATION_VALUE_TOL, sum_tol=IMPLICATION_SUM_TOL):
    m_plus = np.minimum(s_plus - (1.0 - value_tol), total - (_SUM_THRESHOLD + sum_tol))
    m_minus = np.minimum(s_minus - (1.0 - value_tol), (_SUM_THRESHOLD - sum_tol) - total)
    return (m_plus, m_minus)


def _refine_cells(cells, step):
    # Best merged margin over the 11^3 subgrids around the (C, 3) cell
    # centres, scored in chunks of whole cells, as (margin, point), or
    # None without cells.  The winner is the first cell holding the
    # largest margin and its first argmax, which a cell-by-cell scan
    # with a strict ">" would keep.
    axes = np.linspace(cells - step, cells + step, _REFINE_POINTS, axis=-1)
    axes = np.clip(axes, _THIRD_PI, 2.0 * _THIRD_PI)
    chunk = max(1, _REFINE_CHUNK_POINTS // _REFINE_POINTS**3)
    best = None
    for start in range(0, len(axes), chunk):
        part = axes[start:start + chunk]
        xs = part[:, 0, :, None, None]
        ys = part[:, 1, None, :, None]
        zs = part[:, 2, None, None, :]
        merged = np.maximum(*implication_margins(xs, ys, zs))
        flat = int(np.argmax(merged))
        c, i, j, k = np.unravel_index(flat, merged.shape)
        if best is None or float(merged[c, i, j, k]) > best[0]:
            point = (float(part[c, 0, i]), float(part[c, 1, j]), float(part[c, 2, k]))
            best = (float(merged[c, i, j, k]), point)
    return best


def check_implications(grid_n=201, tolerance=0.0):
    """Falsification sweep for the two consistency implications.

    Scans the cube [pi/3, 2pi/3]^3 for a point where a squared-sine sum
    reaches 1 while the angle sum crosses 3pi/2 the wrong way.  Any grid
    point within 10x the condition tolerances of violating spawns an
    11^3 local subgrid (one level deep).  The result reports the
    tightest margin observed and its witness; the check passes iff no
    margin is positive.

    The cube is scanned one x slab at a time, with the y and z axes
    entering as a column and a row, so the squared sines are evaluated
    on the axes, not on the slab.  All refinement subgrids are scored
    together, in bounded chunks.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    ts = np.linspace(_THIRD_PI, 2.0 * _THIRD_PI, grid_n)
    step = ts[1] - ts[0]
    ty, tz = ts[:, None], ts[None, :]
    near_value = 1.0 - IMPLICATION_VALUE_TOL - _REFINE_FACTOR * IMPLICATION_VALUE_TOL
    near_above = _SUM_THRESHOLD + IMPLICATION_SUM_TOL - _REFINE_FACTOR * IMPLICATION_SUM_TOL
    near_below = _SUM_THRESHOLD - IMPLICATION_SUM_TOL + _REFINE_FACTOR * IMPLICATION_SUM_TOL
    worst = -math.inf
    witness = None
    samples = 0
    refine_cells = []
    for x in ts:
        s_plus, s_minus = pluecker.eq3_sums(x, ty, tz)
        total = x + ty + tz
        merged = np.maximum(*_margins(s_plus, s_minus, total))
        samples += merged.size
        flat = int(np.argmax(merged))
        i, j = np.unravel_index(flat, merged.shape)
        if float(merged[i, j]) > worst:
            worst = float(merged[i, j])
            witness = (float(x), float(ts[i]), float(ts[j]))
        near_p = (s_plus >= near_value) & (total >= near_above)
        near_m = (s_minus >= near_value) & (total <= near_below)
        for i, j in np.argwhere(near_p | near_m):
            refine_cells.append((float(x), float(ts[i]), float(ts[j])))
    samples += len(refine_cells) * _REFINE_POINTS**3
    refined = _refine_cells(np.array(refine_cells).reshape(-1, 3), step)
    if refined is not None and refined[0] > worst:
        worst, witness = refined
    return _result("implications", worst, witness, samples, tolerance)


_PROOF_RADII = (1.0, 1.0, 1.0)
_PROOF_ANGLES = (math.pi / 2.0, _THIRD_PI, 2.0 * _THIRD_PI)


def _pair_orbit_mismatch(candidate, target):
    # Smallest max-abs difference between the candidate pair and the
    # target pair over sign flips and the swap; these generate the
    # row/column sign symmetries of the frame in minor coordinates.
    a, b = candidate
    best = math.inf
    for first, second in ((a, b), (b, a)):
        for sa in (1.0, -1.0):
            for sb in (1.0, -1.0):
                d = max(abs(sa * first - target[0]), abs(sb * second - target[1]))
                best = min(best, d)
    return best


def check_feasible_point(radii=_PROOF_RADII, angles=_PROOF_ANGLES, bound=None, tolerance=1e-12):
    """Certify the consistency point of the constraint system.

    Reconstructs sphere coordinates from unit radii and sector angles
    (pi/2, pi/3, 2pi/3), maps them back to minor coordinates, and
    verifies: quadric relation and normalization within tolerance, both
    sphere equations within tolerance, every quadratic form at most the
    verified bound with equality in at least one form per pair, and
    agreement with the extremal frame's minor vector up to the sign and
    swap symmetries of each coordinate pair.
    """
    if bound is None:
        bound = pluecker.DEFAULT_FORM_BOUND
    params = pluecker.EllipticParams(
        radius_x=radii[0],
        radius_y=radii[1],
        radius_z=radii[2],
        angle_x=angles[0],
        angle_y=angles[1],
        angle_z=angles[2],
    )
    v = pluecker.from_elliptic(params)
    p = pluecker.from_transformed(v)
    rel, norm = pluecker.invariant_residuals(p)
    report = pluecker.eval_system(v, bound=bound, tol=tolerance)
    forms = report.qform_values
    form_excess = max(f - bound for f in forms)
    equality_dev = max(
        min(abs(forms[2 * i] - bound), abs(forms[2 * i + 1] - bound)) for i in range(3)
    )
    target = pluecker.pluecker4x2(extremal_matrix())
    pair_targets = (
        (target.p12, target.p34),
        (target.p13, target.p24),
        (target.p14, target.p23),
    )
    pair_candidates = (
        (p.p12, p.p34),
        (p.p13, p.p24),
        (p.p14, p.p23),
    )
    orbit_mismatch = max(
        _pair_orbit_mismatch(c, t) for c, t in zip(pair_candidates, pair_targets)
    )
    violation = max(
        rel,
        norm,
        report.sphere1_residual,
        report.sphere2_residual,
        form_excess,
        equality_dev,
        orbit_mismatch,
    )
    return _result("feasible-point", violation, None, 1, tolerance)


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
        check_feasible_point(bound=cfg.bound),
    )
    return CertificateReport(
        checks=checks,
        all_passed=all(c.passed for c in checks),
        config=asdict(cfg),
    )
