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
   x' + y' + z' = pi/2 is at most 1, with equality exactly on the
   simplex boundary.
5. implications: on the angle cube [pi/3, 2pi/3]^3 there is no point
   with s_plus >= 1 and angle sum above 3pi/2, and none with
   s_minus >= 1 and angle sum below 3pi/2 (the two directions of the
   consistency argument).
6. feasible-point: unit radii with sector angles (pi/2, pi/3, 2pi/3)
   reconstruct coordinates that satisfy every constraint with equality
   in at least one form per pair and reproduce the extremal frame's
   minor vector.

Checks 2 to 5 are proofs in exact rational arithmetic (stdlib
fractions.Fraction, no grid).  For checks 2 and 3 put p = cos^2(alpha) in
[3/4, 1] and q = cos^2(beta) in [0, 1/4], so that u^2 = pq and
v^2 = (1 - p)(1 - q).  Both ellipse sides are linear in (u^2, v^2), and
so are the forms: every sign choice gives a^2 + ab + b^2 = 3u^2 + v^2 and
a^2 - ab + b^2 = u^2 + 3v^2.  So all four are bilinear in (p, q), and a
bilinear function peaks over a box at one of its four corners.  The
checks evaluate the corners and find exactly 1 and exactly 3/4
(3u^2 + v^2 is 3/4 of 4u^2 + (4/3)v^2: check 3 is check 2 scaled).  Each
reports its first maximizing corner (alpha, beta), which the public
kernels re-evaluate.

Check 4 proves the identity

    sin^2 x' + sin^2 y' + sin^2 z' = 1 - 2 sin x' sin y' sin z'

on the simplex.  Put p = sin^2 x', q = sin^2 y' and
w = sin x' sin y' cos x' cos y'.  Since sin z' = cos x' cos y' -
sin x' sin y', sin^2 z' = (1 - p)(1 - q) - 2w + pq and
sin x' sin y' sin z' = w - pq, so the identity's residual is multilinear
in (p, q, w).  A multilinear function is fixed by its values at the
eight corners of {0, 1}^3, and the check finds all eight exactly zero:
the residual vanishes everywhere.  On the simplex the sines are
nonnegative, so the sum is at most 1, with equality exactly where one
sine vanishes, the simplex boundary.

Check 5 reduces to check 4.  With x' = 2pi/3 - x, sin(x + pi/3) = sin x'
and x + y + z > 3pi/2 becomes x' + y' + z' < pi/2; with x' = x - pi/3,
sin(x - pi/3) = sin x' and x + y + z < 3pi/2 becomes x' + y' + z' < pi/2.
Both maps take the cube onto [0, pi/3]^3, so both implications say: no
x' in [0, pi/3]^3 with x' + y' + z' < pi/2 has
sin^2 x' + sin^2 y' + sin^2 z' >= 1.  At the origin the sum is 0; at
any other such point let lambda = (pi/2) / (x' + y' + z') > 1.  Then
lambda x' lies on the simplex, and sin^2 rises strictly on [0, pi/2],
so the sum at x' is below the sum at lambda x', which check 4 bounds
by 1.  The test suite proves the substitutions symbolically; the one
computed fact the proof uses is check 4's identity, which check 5
re-evaluates.

Checks 1 and 6 remain float evaluations at a single point each, held to
a tolerance.  The checks and run_all take no settings: each check
evaluates its one statement above, and the report's config records the
form bound the forms are held to.  Every check is deterministic, so
rerunning reproduces the report byte for byte.  Failures are recorded
in the report, not thrown.  Each check's pointwise kernel is exposed as
a vectorized function, so a recorded witness can be re-evaluated
standalone, and squared_sine_sum and implication_margins let the tests
cross-check checks 4 and 5 on coarse grids.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import pluecker
from .pluecker import _THIRD_PI
from .stiefel import block_sigmas, extremal_matrix, gram_deviation, row_subsets

__all__ = [
    "CheckResult",
    "CertificateReport",
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

# Each check's tolerance: checks 2 to 5 are exact.
EXTREMAL_TOL = 1e-14
EXACT_TOL = 0.0
FEASIBLE_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one certificate check.

    ``max_violation`` is the signed worst violation of the check's
    inequality chain (negative values mean margin to spare), and
    ``passed`` is exactly ``max_violation <= tolerance``.  ``witness``
    holds the box corner where the extremum occurred, when the check has
    a meaningful point to report, and is None otherwise.
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
    """Ordered check results plus the form bound they were held to."""

    checks: tuple
    all_passed: bool
    config: dict

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "all_passed": self.all_passed,
            "config": dict(self.config),
        }


def _result(name, violation, witness, samples, tolerance):
    return CheckResult(
        name=name,
        passed=bool(violation <= tolerance),
        max_violation=float(violation),
        witness=witness,
        samples_used=int(samples),
        tolerance=float(tolerance),
    )


def _ellipse_sides(u2, v2):
    # 4u^2 + (4/3)v^2 and (4/3)u^2 + 4v^2, exact on Fractions.
    return (12 * u2 + 4 * v2) / 3, (4 * u2 + 12 * v2) / 3


def _form_values(u2, v2):
    # a^2 + ab + b^2 and a^2 - ab + b^2 under every sign choice.
    return 3 * u2 + v2, u2 + 3 * v2


# The corners of the box [0, pi/6] x [pi/3, pi/2] in C order, each as
# its label (alpha, beta) and its exact point (u^2, v^2), with u^2 = pq
# and v^2 = (1 - p)(1 - q) for p = cos^2(alpha) and q = cos^2(beta).
_BOX_CORNERS = tuple(
    ((alpha, beta), (p * q, (1 - p) * (1 - q)))
    for alpha, p in ((0.0, Fraction(1)), (math.pi / 6.0, Fraction(3, 4)))
    for beta, q in ((_THIRD_PI, Fraction(1, 4)), (math.pi / 2.0, Fraction(0)))
)

# The corners of {0, 1}^3 in (p, q, w), each its own label.
_CUBE_CORNERS = tuple((c, c) for c in itertools.product((Fraction(0), Fraction(1)), repeat=3))


def _corner_max(value, corners):
    # The exact maximum of value(*point) over the (label, point) corners,
    # the label of the first corner reaching it, and the number of
    # corners.
    peak, label = max(((value(*point), label) for label, point in corners), key=lambda c: c[0])
    return peak, label, len(corners)


def _minor_pair(alpha, beta):
    return np.cos(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta)


def check_extremal_matrix():
    """Certify the attaining frame.

    With tol = ``EXTREMAL_TOL``, verifies that the extremal frame is
    orthonormal (max |A^T A - I| <= tol), that all six 2-by-2 row blocks
    have smallest singular value <= 1/2 + tol, and that the best block
    attains 1/2 within tol.  The violation is the worst of the three
    conditions, so each can fail the check.
    """
    arr = extremal_matrix().values
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
    u2 = u * u
    v2 = v * v
    return (4.0 * u2 + (4.0 / 3.0) * v2, (4.0 / 3.0) * u2 + 4.0 * v2)


def check_ellipse_region():
    """Prove the ellipse inequalities over the principal-angle box.

    Both left-hand sides are bilinear in (cos^2(alpha), cos^2(beta)) (see
    the module docstring), so their maximum over [0, pi/6] x [pi/3, pi/2]
    is their exact maximum over the four corners: 1.  The violation is
    that maximum minus 1, and the witness the first corner reaching it.
    """
    peak, witness, corners = _corner_max(lambda *c: max(_ellipse_sides(*c)), _BOX_CORNERS)
    return _result("ellipse-region", peak - 1, witness, corners, EXACT_TOL)


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
    peak, witness, corners = _corner_max(lambda *c: max(_form_values(*c)), _BOX_CORNERS)
    violation = abs(peak - Fraction(pluecker.DEFAULT_FORM_BOUND))
    return _result("transform-bound", violation, witness, corners, EXACT_TOL)


def squared_sine_sum(x, y, z):
    """sin^2 x + sin^2 y + sin^2 z, vectorized."""
    return np.sin(x) ** 2 + np.sin(y) ** 2 + np.sin(z) ** 2


def _simplex_terms(p, q, w):
    # sin^2 z' and sin x' sin y' sin z' on x' + y' + z' = pi/2, for
    # p = sin^2 x', q = sin^2 y' and w = sin x' sin y' cos x' cos y'.
    return (1 - p) * (1 - q) - 2 * w + p * q, w - p * q


def _identity_residual(p, q, w):
    # (sin^2 x' + sin^2 y' + sin^2 z') - (1 - 2 sin x' sin y' sin z') on
    # the simplex, multilinear in (p, q, w).
    sin2_z, triple = _simplex_terms(p, q, w)
    return (p + q + sin2_z) - (1 - 2 * triple)


def _identity_result(name):
    # Checks 4 and 5: the largest |residual| over the corners of
    # {0, 1}^3, exactly, with no witness.
    peak, _, corners = _corner_max(lambda *c: abs(_identity_residual(*c)), _CUBE_CORNERS)
    return _result(name, peak, None, corners, EXACT_TOL)


def check_boundary_lemma():
    """Prove the squared-sine bound on the simplex x' + y' + z' = pi/2.

    Proof: with p = sin^2 x', q = sin^2 y' and
    w = sin x' sin y' cos x' cos y', the residual of

        sin^2 x' + sin^2 y' + sin^2 z' = 1 - 2 sin x' sin y' sin z'

    is multilinear in (p, q, w) (see the module docstring), so it
    vanishes everywhere once it vanishes at the eight corners of
    {0, 1}^3, which the check evaluates exactly.  The sines are
    nonnegative on the simplex, so the sum is at most 1, with equality
    exactly on its boundary.  The violation is the largest |residual|,
    and there is no witness.
    """
    return _identity_result("boundary-lemma")


# Tolerance scales for the two implication conditions of
# implication_margins: how close the squared-sine sum must be to 1, and
# how far the angle sum must cross its threshold, for a point to count
# as violating.
IMPLICATION_VALUE_TOL = 1e-12
IMPLICATION_SUM_TOL = 1e-9


def implication_margins(x, y, z):
    """Signed violation margins of the two implications at (x, y, z).

    For the plus direction the margin is
    min(s_plus - (1 - IMPLICATION_VALUE_TOL),
    (x + y + z) - (3pi/2 + IMPLICATION_SUM_TOL)); a positive value means
    both violation conditions hold at once.  The minus direction mirrors
    the sum condition.  Vectorized; returns (margin_plus, margin_minus).
    check_implications proves that no point of the cube has a positive
    margin at zero tolerances; this float oracle lets a grid cross-check
    that proof.
    """
    s_plus, s_minus = pluecker.eq3_sums(x, y, z)
    total = x + y + z
    value = 1.0 - IMPLICATION_VALUE_TOL
    return (
        np.minimum(s_plus - value, total - (1.5 * math.pi + IMPLICATION_SUM_TOL)),
        np.minimum(s_minus - value, (1.5 * math.pi - IMPLICATION_SUM_TOL) - total),
    )


def check_implications():
    """Prove the two consistency implications on the angle cube.

    Proof: x' = 2pi/3 - x (plus direction) and x' = x - pi/3 (minus)
    map the cube onto [0, pi/3]^3, keep each squared sine and turn the
    violating side of the angle sum into x' + y' + z' < pi/2 (see the
    module docstring).  Scaling such a point by
    lambda = (pi/2) / (x' + y' + z') > 1 puts it on the simplex, and
    sin^2 rises strictly on [0, pi/2], so its squared-sine sum is below
    the simplex value, at most 1 by check 4: neither implication is
    violated anywhere.  The check re-evaluates check 4's identity
    exactly, the one computed fact the proof uses; the violation is its
    largest |residual|, and there is no witness.
    """
    return _identity_result("implications")


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


def check_feasible_point():
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
    v = pluecker.from_elliptic(pluecker.EllipticParams(*_PROOF_RADII, *_PROOF_ANGLES))
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


def run_all():
    """Run every check in fixed order and assemble the report.

    Failures are recorded, never thrown; every run produces the same
    serialized report, whose config records the form bound.
    """
    checks = (
        check_extremal_matrix(),
        check_ellipse_region(),
        check_transform_bound(),
        check_boundary_lemma(),
        check_implications(),
        check_feasible_point(),
    )
    passed = all(c.passed for c in checks)
    config = {"bound": pluecker.DEFAULT_FORM_BOUND}
    return CertificateReport(checks=checks, all_passed=passed, config=config)
