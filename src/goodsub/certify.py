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
   x' + y' + z' = pi/2 stays at or below 1, attaining 1 on the simplex
   boundary; a Lipschitz margin (L = 2 per coordinate, mesh diameter h)
   turns the grid scan into a sound everywhere-bound of 1 + L*h.
5. implications: on the angle cube [pi/3, 2pi/3]^3 there is no point
   with s_plus >= 1 and angle sum above 3pi/2, and none with
   s_minus >= 1 and angle sum below 3pi/2 (the two directions of the
   consistency argument).  Grid points near violating are re-examined
   on a local 11^3 subgrid, one level deep.
6. feasible-point: unit radii with sector angles (pi/2, pi/3, 2pi/3)
   reconstruct coordinates that satisfy every constraint with equality
   in at least one form per pair and reproduce the extremal frame's
   minor vector.

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

_THIRD_PI = math.pi / 3.0
_SUM_THRESHOLD = 1.5 * math.pi

# Lipschitz data for the boundary-lemma scan: each coordinate derivative
# |sin(2t)| <= 1, doubled for safety.
LEMMA_LIPSCHITZ = 2.0


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

    The seed is echoed in the report but the default checks are fully
    deterministic grids, so it does not affect any outcome.
    """

    ellipse_grid_n: int = 1001
    transform_grid_n: int = 1001
    lemma_grid_n: int = 2001
    implications_grid_n: int = 201
    bound: float = pluecker.DEFAULT_FORM_BOUND
    seed: int = 0


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
    u = np.cos(alpha) * np.cos(beta)
    v = np.sin(alpha) * np.sin(beta)
    u2 = u * u
    v2 = v * v
    return (4.0 * u2 + (4.0 / 3.0) * v2, (4.0 / 3.0) * u2 + 4.0 * v2)


def check_ellipse_region(grid_n=1001, tolerance=1e-12):
    """Scan the principal-angle box for the ellipse inequalities.

    Both left-hand sides must stay at or below 1 over
    [0, pi/6] x [pi/3, pi/2]; the maximum (exactly 1, on the box edges
    through the corner (pi/6, pi/3)) is recorded via the witness.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    alpha = np.linspace(0.0, math.pi / 6.0, grid_n)
    beta = np.linspace(_THIRD_PI, math.pi / 2.0, grid_n)
    aa, bb = np.meshgrid(alpha, beta, indexing="ij")
    lhs1, lhs2 = ellipse_lhs(aa, bb)
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
    """
    u = np.cos(alpha) * np.cos(beta)
    v = np.sin(alpha) * np.sin(beta)
    best = None
    for su in (1.0, -1.0):
        for sv in (1.0, -1.0):
            p = su * u
            q = sv * v
            a = p + q
            b = p - q
            sq = a * a + b * b
            ab = a * b
            m = np.maximum(sq + ab, sq - ab)
            best = m if best is None else np.maximum(best, m)
    return best


# Tightness tolerance for the verified transform constant.
_TRANSFORM_TIGHT_TOL = 1e-9


def check_transform_bound(grid_n=1001, tolerance=1e-12):
    """Settle the constant on the quadratic forms.

    Sweeps the principal-angle box, pushes every minor sign choice
    through the change of variables, and requires the maximum form value
    to equal 3/4 within 1e-9 while never exceeding 3/4 + tolerance.
    This is the empirical verification of DEFAULT_FORM_BOUND.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    target = pluecker.DEFAULT_FORM_BOUND
    alpha = np.linspace(0.0, math.pi / 6.0, grid_n)
    beta = np.linspace(_THIRD_PI, math.pi / 2.0, grid_n)
    aa, bb = np.meshgrid(alpha, beta, indexing="ij")
    forms = transform_form_max(aa, bb)
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
    coordinate zero) must evaluate to exactly 1 within tolerance.  With
    the Lipschitz constant L = 2 and mesh diameter h = sqrt(2) * pi/2 / N
    this certifies sin^2 x' + sin^2 y' + sin^2 z' <= 1 + L*h over the
    whole simplex, which is the margin the implications check relies on.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    segments = grid_n - 1
    step = (math.pi / 2.0) / segments
    worst = -math.inf
    witness = None
    boundary_dev = 0.0
    boundary_witness = None
    samples = 0
    for i in range(segments + 1):
        j = np.arange(segments - i + 1)
        xp = i * step
        yp = j * step
        kk = segments - i - j
        zp = kk * step
        vals = squared_sine_sum(xp, yp, zp)
        samples += len(j)
        m = int(np.argmax(vals))
        if float(vals[m]) > worst:
            worst = float(vals[m])
            witness = (xp, float(yp[m]), float(zp[m]))
        on_boundary = (j == 0) | (kk == 0) if i != 0 else np.ones_like(j, dtype=bool)
        if on_boundary.any():
            dev = np.abs(vals[on_boundary] - 1.0)
            b = int(np.argmax(dev))
            if float(dev[b]) > boundary_dev:
                idx = np.flatnonzero(on_boundary)[b]
                boundary_dev = float(dev[b])
                boundary_witness = (xp, float(yp[idx]), float(zp[idx]))
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


def implication_margins(x, y, z, value_tol=IMPLICATION_VALUE_TOL, sum_tol=IMPLICATION_SUM_TOL):
    """Signed violation margins of the two implications at (x, y, z).

    For the plus direction the margin is
    min(s_plus - (1 - value_tol), (x + y + z) - (3pi/2 + sum_tol)); a
    positive value means both violation conditions hold at once.  The
    minus direction mirrors the sum condition.  Vectorized; returns
    (margin_plus, margin_minus).
    """
    s_plus, s_minus = pluecker.eq3_sums(x, y, z)
    total = x + y + z
    m_plus = np.minimum(s_plus - (1.0 - value_tol), total - (_SUM_THRESHOLD + sum_tol))
    m_minus = np.minimum(s_minus - (1.0 - value_tol), (_SUM_THRESHOLD - sum_tol) - total)
    return (m_plus, m_minus)


def _refine_cell(x0, y0, z0, step, lo, hi):
    axes = [
        np.clip(np.linspace(c - step, c + step, _REFINE_POINTS), lo, hi)
        for c in (x0, y0, z0)
    ]
    xs, ys, zs = np.meshgrid(*axes, indexing="ij")
    mp, mm = implication_margins(xs, ys, zs)
    merged = np.maximum(mp, mm)
    flat = int(np.argmax(merged))
    i, j, k = np.unravel_index(flat, merged.shape)
    return float(merged[i, j, k]), (float(xs[i, j, k]), float(ys[i, j, k]), float(zs[i, j, k]))


def check_implications(grid_n=201, tolerance=0.0):
    """Falsification sweep for the two consistency implications.

    Scans the cube [pi/3, 2pi/3]^3 for a point where a squared-sine sum
    reaches 1 while the angle sum crosses 3pi/2 the wrong way.  Any grid
    point within 10x the condition tolerances of violating spawns an
    11^3 local subgrid (one level deep).  The result reports the
    tightest margin observed and its witness; the check passes iff no
    margin is positive.
    """
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    ts = np.linspace(_THIRD_PI, 2.0 * _THIRD_PI, grid_n)
    step = ts[1] - ts[0]
    yy, zz = np.meshgrid(ts, ts, indexing="ij")
    worst = -math.inf
    witness = None
    samples = 0
    refine_cells = []
    for x in ts:
        mp, mm = implication_margins(x, yy, zz)
        merged = np.maximum(mp, mm)
        samples += merged.size
        flat = int(np.argmax(merged))
        i, j = np.unravel_index(flat, merged.shape)
        if float(merged[i, j]) > worst:
            worst = float(merged[i, j])
            witness = (float(x), float(ts[i]), float(ts[j]))
        s_plus, s_minus = pluecker.eq3_sums(x, yy, zz)
        total = x + yy + zz
        near_value = _REFINE_FACTOR * IMPLICATION_VALUE_TOL
        near_sum = _REFINE_FACTOR * IMPLICATION_SUM_TOL
        near_p = (s_plus >= 1.0 - IMPLICATION_VALUE_TOL - near_value) & (
            total >= _SUM_THRESHOLD + IMPLICATION_SUM_TOL - near_sum
        )
        near_m = (s_minus >= 1.0 - IMPLICATION_VALUE_TOL - near_value) & (
            total <= _SUM_THRESHOLD - IMPLICATION_SUM_TOL + near_sum
        )
        for i, j in np.argwhere(near_p | near_m):
            refine_cells.append((float(x), float(ts[i]), float(ts[j])))
    lo, hi = _THIRD_PI, 2.0 * _THIRD_PI
    for x0, y0, z0 in refine_cells:
        m, point = _refine_cell(x0, y0, z0, step, lo, hi)
        samples += _REFINE_POINTS**3
        if m > worst:
            worst = m
            witness = point
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
