"""Certificate for the sharp 4-by-2 best-block bound.

The chain being certified: every 4-by-2 frame has a 2-by-2 row block with
smallest singular value at least 1/2, and the bound is attained.  Each
link gets its own check:

1. extremal-matrix: the attaining frame exists (all six blocks <= 1/2,
   at least one exactly 1/2; five are).
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
   minor vector, with no sign flip or swap.

Checks 2 to 5 are proofs in exact rational arithmetic (stdlib
fractions.Fraction, no grid).  For checks 2 and 3 put p = cos^2(alpha) in
[3/4, 1] and q = cos^2(beta) in [0, 1/4], so that u^2 = pq and
v^2 = (1 - p)(1 - q).  Both ellipse sides are linear in (u^2, v^2), and
so are the forms: every sign choice gives a^2 + ab + b^2 = 3u^2 + v^2 and
a^2 - ab + b^2 = u^2 + 3v^2.  So all four are bilinear in (p, q), and a
bilinear function peaks over a box at one of its four corners.  The
checks evaluate the corners and find exactly 1 and exactly 3/4
(3u^2 + v^2 is 3/4 of 4u^2 + (4/3)v^2: check 3 is check 2 scaled).  Each
reports its first maximizing corner (alpha, beta) as its witness.

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

Checks 1 and 6 are proofs in Z[sqrt 3], each a + b sqrt(3) a pair
(a, b) of Python ints, whose sign is exact: that of a when a^2 > 3b^2,
else that of b.  2 sqrt(2) times the extremal frame and twice the
contact point's sphere coordinates have their entries there.

The checks and run_all take no settings: each check evaluates its one
statement above, and the report's config records the form bound the
forms are held to.  Every check is deterministic, so rerunning
reproduces the report byte for byte.  Failures are recorded in the
report, not thrown.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import pluecker
from .pluecker import _SQRT3, _THIRD_PI

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
]

# Every check is an exact proof, held to this tolerance.
EXACT_TOL = 0.0


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


def _result(name, violation, witness, samples):
    return CheckResult(
        name=name,
        passed=bool(violation <= EXACT_TOL),
        max_violation=float(violation),
        witness=witness,
        samples_used=int(samples),
        tolerance=float(EXACT_TOL),
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


# Arithmetic in Z[sqrt 3] for checks 1 and 6: (a, b) is a + b sqrt(3).
def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _mul(x, y):
    return (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _dot(xs, ys):
    terms = [_mul(x, y) for x, y in zip(xs, ys)]
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def _det(r, s):
    return _sub(_mul(r[0], s[1]), _mul(r[1], s[0]))


def _sign(x):
    # sqrt 3 is irrational, so a^2 = 3b^2 only at a = b = 0.
    s = x[0] if x[0] * x[0] > 3 * x[1] * x[1] else x[1]
    return (s > 0) - (s < 0)


def _float(x):
    # Of exact sign: for a, b of opposite signs, (a^2 - 3b^2) / (a - b sqrt(3)).
    a, b = x
    return a + b * _SQRT3 if a * b >= 0 else float(a * a - 3 * b * b) / (a - b * _SQRT3)


def _field_result(name, zeros, nonpositive, samples):
    # Each of zeros must vanish and each of nonpositive be <= 0, by exact
    # signs; the violation is the largest offending residual, or 0.
    offending = [abs(_float(r)) for r in zeros if _sign(r)]
    offending += [_float(r) for r in nonpositive if _sign(r) > 0]
    return _result(name, max(offending, default=0.0), None, samples)


# B = 2 sqrt(2) times the extremal frame: rows (2, 1), (-2, 1), (0, sqrt 3), (0, sqrt 3).
_EXTREMAL_ROWS = (((2, 0), (1, 0)), ((-2, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (0, 1)))


def check_extremal_matrix():
    """Prove that the extremal frame attains the bound 1/2.

    Works on B = 2 sqrt(2) A, exact in Z[sqrt 3]: A is orthonormal iff
    B^T B = 8I.  A block of B has squared singular values the roots of
    l^2 - F l + D (F its squared Frobenius norm, D its squared
    determinant), so the block of A has sigma_min <= 1/2 iff
    q = 4 - 2F + D <= 0 or F <= 4, and = 1/2 iff q = 0 and F >= 4.  The
    check proves B^T B = 8I, every block <= 1/2, and some block = 1/2:
    the product of q over the blocks with F >= 4 is 0 (five blocks have
    q = 0; block (2, 3) is singular).
    """
    c0, c1 = zip(*_EXTREMAL_ROWS)
    zeros = [_sub(_dot(c0, c0), (8, 0)), _sub(_dot(c1, c1), (8, 0)), _dot(c0, c1)]
    nonpositive, attained = [], (1, 0)
    blocks = list(itertools.combinations(_EXTREMAL_ROWS, 2))
    for r, s in blocks:
        f, d = _dot(r + s, r + s), _det(r, s)
        q = _add((4 - 2 * f[0], -2 * f[1]), _mul(d, d))
        over = _sub(f, (4, 0))
        nonpositive.append(q if _sign(over) > 0 else over)
        if _sign(over) >= 0:
            attained = _mul(attained, q)
    zeros.append(attained)
    return _field_result("extremal-matrix", zeros, nonpositive, len(blocks))


def check_ellipse_region():
    """Prove the ellipse inequalities over the principal-angle box.

    Both left-hand sides are bilinear in (cos^2(alpha), cos^2(beta)) (see
    the module docstring), so their maximum over [0, pi/6] x [pi/3, pi/2]
    is their exact maximum over the four corners: 1.  The violation is
    that maximum minus 1, and the witness the first corner reaching it.
    """
    peak, witness, corners = _corner_max(lambda *c: max(_ellipse_sides(*c)), _BOX_CORNERS)
    return _result("ellipse-region", peak - 1, witness, corners)


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
    return _result("transform-bound", violation, witness, corners)


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
    return _result(name, peak, None, corners)


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


# Twice sin(m pi/6) for m = 0, ..., 6, and the contact point: unit radii
# and sector angles (pi/2, pi/3, 2pi/3) in sixths of pi, each in [2, 4].
_TWICE_SINES = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 1), (1, 0), (0, 0))
_PROOF_RADII = (1, 1, 1)
_PROOF_ANGLES = (3, 2, 4)


def check_feasible_point():
    """Prove that the contact point solves the constraint system.

    Twice its sphere coordinates, w = 2R sin(t +/- pi/3) =
    (1, 1, sqrt 3, 0, 0, sqrt 3), and four times its minors, 4p, lie in
    Z[sqrt 3].  The check proves both spheres |w1|^2 = |w2|^2 = 4; every
    form of w at most 4 DEFAULT_FORM_BOUND, with equality in one form
    per pair (Z[sqrt 3] has no zero divisors, so the product of the
    pair's excesses is 0); the quadric relation and |4p|^2 = 16 on 4p;
    and 2 (4p) equal to the minors of check 1's B, with no sign flip or
    swap.
    """
    # The bound unrounded, as an int when integral, to keep to ints.
    bound = 4 * Fraction(pluecker.DEFAULT_FORM_BOUND)
    bound = (bound.numerator if bound.denominator == 1 else bound, 0)
    w = [
        tuple((r * a, r * b) for a, b in (_TWICE_SINES[t + 2], _TWICE_SINES[t - 2]))
        for r, t in zip(_PROOF_RADII, _PROOF_ANGLES)
    ]
    firsts, seconds = zip(*w)
    zeros = [_sub(_dot(firsts, firsts), (4, 0)), _sub(_dot(seconds, seconds), (4, 0))]
    nonpositive = []
    for a, b in w:
        sq, ab = _dot((a, b), (a, b)), _mul(a, b)
        excess = (_sub(_add(sq, ab), bound), _sub(_sub(sq, ab), bound))
        nonpositive += excess
        zeros.append(_mul(*excess))
    (x1, x2), (y1, y2), (z1, z2) = w
    p = (_add(x1, x2), _add(y1, y2), _add(z1, z2), _sub(z1, z2), _sub(y2, y1), _sub(x1, x2))
    # p12 p34 - p13 p24 + p14 p23, the normalization and the minors.
    zeros.append(_sub(_add(_mul(p[0], p[5]), _mul(p[2], p[3])), _mul(p[1], p[4])))
    zeros.append(_sub(_dot(p, p), (16, 0)))
    minors = (_det(r, s) for r, s in itertools.combinations(_EXTREMAL_ROWS, 2))
    zeros += [_sub(_add(c, c), m) for c, m in zip(p, minors)]
    return _field_result("feasible-point", zeros, nonpositive, 1)


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
