"""Run the certificate for the sharp 4-by-2 bound.

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
Every check is held to tolerance 0.  The demo prints the report, then
re-evaluates the ellipse check's witness corner in floats.
"""
import math

from goodsub import run_all

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

# 2. Witnesses locate each check's extremum.  At the ellipse check's
#    corner (alpha, beta) the minor pair is u = cos(alpha)cos(beta),
#    v = sin(alpha)sin(beta); both ellipse sides, evaluated in floats
#    there, reproduce the exact maximum 1 to rounding.
ellipse = report.checks[1]
alpha, beta = ellipse.witness
u = math.cos(alpha) * math.cos(beta)
v = math.sin(alpha) * math.sin(beta)
lhs = max(4.0 * u * u + (4.0 / 3.0) * v * v, (4.0 / 3.0) * u * u + 4.0 * v * v)
print()
print(f"ellipse-region witness (alpha, beta): {ellipse.witness}")
print(f"re-evaluated max lhs - 1: {lhs - 1.0:.3e}")
print(f"reported violation      : {ellipse.max_violation:.3e}")
