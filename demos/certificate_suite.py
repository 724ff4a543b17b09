"""Run the numerical certificate for the sharp 4-by-2 bound.

Six checks together certify: the attaining frame exists, the minor pair
lives in an ellipse region, the quadratic-form constant is exactly 3/4,
the squared-sine sum on the simplex stays at or below 1, the two
consistency implications have no counterexample on the angle cube, and
the contact configuration is feasible with the right equalities.  The
ellipse and form checks are exact proofs over the four corners of the
principal-angle box; the simplex and implication checks are
deterministic grid scans; the other two are single evaluations.
"""
import numpy as np

from goodsub import CertifyConfig, ellipse_lhs, run_all

# 1. Default grids.  Violations are signed: negative means margin to
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

# 3. Coarser grids finish faster and still pass.  Every grid check is a
#    scan, evidence at its grid points, not a proof between them.
small = run_all(CertifyConfig(lemma_grid_n=201, implications_grid_n=51))
print()
print(f"coarse grids all passed: {small.all_passed}")
