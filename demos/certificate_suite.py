"""Run the numerical certificate for the sharp 4-by-2 bound.

Six checks together certify: the attaining frame exists, the minor pair
lives in an ellipse region, the quadratic-form constant is exactly 3/4,
the squared-sine sum on the simplex stays at or below 1, the two
consistency implications have no counterexample on the angle cube, and
the contact configuration is feasible with the right equalities.  The
ellipse and form checks are exact proofs over the four corners of the
principal-angle box; the simplex and implication checks are exact
proofs of one identity at the eight corners of {0, 1}^3; the frame and
contact-point checks are exact proofs in Z[sqrt 3], where the extremal
frame (scaled by 2 sqrt 2) and the contact point have their entries.
Every check is held to tolerance 0.
"""
import math

import numpy as np

from goodsub import ellipse_lhs, run_all, squared_sine_sum

# 1. The full suite.  Violations are signed: negative means margin to
#    spare, and a check passes iff its violation is at or below its
#    tolerance.
report = run_all()

print(f"{'check':<18} {'passed':<7} {'violation':>12} {'tolerance':>10} {'samples':>9}")
for check in report.checks:
    print(
        f"{check.name:<18} {str(check.passed):<7} "
        f"{check.max_violation:>12.3e} {check.tolerance:>10.1e} "
        f"{check.samples_used:>9d}"
    )
print(f"all passed: {report.all_passed}")

# 2. Witnesses locate each check's extremum; re-evaluating the ellipse
#    check's corner through the public kernel reproduces the exact
#    maximum 1 to rounding.
ellipse = report.checks[1]
print()
print(f"ellipse-region witness (alpha, beta): {ellipse.witness}")
lhs1, lhs2 = ellipse_lhs(np.array(ellipse.witness[0]), np.array(ellipse.witness[1]))
print(f"re-evaluated max lhs - 1: {max(float(lhs1), float(lhs2)) - 1.0:.3e}")
print(f"reported violation      : {ellipse.max_violation:.3e}")

# 3. The proofs take no grid, but a coarse grid of the public kernel
#    cross-checks the boundary lemma: on the simplex x + y + z = pi/2
#    the squared-sine sum stays at or below 1, with equality on the
#    boundary.
step = (math.pi / 2.0) / 200
i, j = np.nonzero(np.add.outer(np.arange(201), np.arange(201)) <= 200)
total = squared_sine_sum(i * step, j * step, (200 - i - j) * step)
print()
print(f"simplex grid (201 per side): max sum - 1 = {total.max() - 1.0:.3e}")
