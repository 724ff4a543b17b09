"""
End-to-end acceptance criteria.

Eight independent criteria, each asserted at its stated tolerance and
reported as one PASS/FAIL line in the terminal summary:

1. The attaining frame verifies: best block exactly 1/2 within 1e-14,
   re-checked warm in under 1 ms.
2. 100000 seeded random frames (4, 2) all have best block >= 1/2 - 1e-9,
   in under 30 s.
3. Multistart search at (4, 2) with default parameters and seed 7 lands
   in [1/2 - 1e-6, 1/2 + 1e-4], in under 60 s.
4. Multistart search at (n, 1) recovers 1/sqrt(n) within 1e-4 for
   n = 2..5, in under 60 s total.
5. The full certificate suite passes: all six checks are exact proofs,
   each reporting violation exactly 0.0 at tolerance 0.0, in under 1 s.
6. For 10000 seeded random frames the whole analysis chain holds:
   quadric/norm residuals < 1e-12, sphere residuals < 1e-12, CS
   reconstruction < 1e-10, the minor identities |p12| = cos(a) cos(b)
   and |p34| = sin(a) sin(b) < 1e-10, and right-rotation invariance of
   the objective < 1e-10, in under 30 s.
7. The sector identity a^2 + ab + b^2 = (3/4) R^2 holds to 1e-12 over
   10000 random (R, theta) draws.
8. figure_eq3_data(101) emits only points satisfying the consistency
   equation to 1e-9, with exactly six contact rows at the permutations
   of (pi/2, pi/3, 2pi/3).
"""
import math
from time import perf_counter

import numpy as np

from goodsub import (
    SearchParams,
    StiefelMatrix,
    best_submatrix,
    block_sigmas,
    check_extremal_matrix,
    cs_decompose,
    eval_system,
    extremal_matrix,
    figure_eq3_data,
    haar_sample,
    haar_samples,
    invariant_residuals,
    minors_from_cs,
    multistart_search,
    objective,
    pluecker4x2,
    row_subsets,
    run_all,
    to_transformed,
)

THIRD_PI = math.pi / 3.0

RESULTS = []


def _report(index, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    RESULTS.append(f"{verdict} criterion {index} ({name}): {detail}")
    assert passed, f"criterion {index} ({name}): {detail}"


def test_criterion_1_extremal_frame():
    check_extremal_matrix()  # warm
    t0 = perf_counter()
    result = check_extremal_matrix()
    elapsed = perf_counter() - t0
    assert result.tolerance == 0.0
    sigma = best_submatrix(extremal_matrix()).sigma_min
    ok = result.passed and abs(sigma - 0.5) <= 1e-14 and elapsed < 1e-3
    _report(
        1,
        "extremal frame",
        ok,
        f"best block {sigma:.17f}, violation {result.max_violation:.2e}, "
        f"{elapsed * 1e3:.3f} ms warm",
    )


def test_criterion_2_random_frames_above_floor():
    # The stacked path: each frame's best value equals
    # best_submatrix(haar_sample(4, 2, seed)).sigma_min bit for bit
    # (tests/test_stiefel.py::TestHaarSamples).
    t0 = perf_counter()
    frames = haar_samples(4, 2, range(100_000))
    worst = float(block_sigmas(frames, row_subsets(4, 2)).max(-1).min())
    elapsed = perf_counter() - t0
    ok = worst >= 0.5 - 1e-9 and elapsed < 30.0
    _report(
        2,
        "random frames above floor",
        ok,
        f"min over 100000 frames {worst:.12f} >= 0.5 - 1e-9, {elapsed:.1f} s",
    )


def test_criterion_3_multistart_4_2():
    t0 = perf_counter()
    result = multistart_search(4, 2, SearchParams(seed=7))
    elapsed = perf_counter() - t0
    ok = 0.5 - 1e-6 <= result.best_value <= 0.5 + 1e-4 and elapsed < 60.0
    _report(
        3,
        "multistart (4, 2)",
        ok,
        f"best value {result.best_value:.12f} in [0.5 - 1e-6, 0.5 + 1e-4], "
        f"{elapsed:.1f} s",
    )


def test_criterion_4_multistart_k1():
    t0 = perf_counter()
    worst_err = 0.0
    for n in (2, 3, 4, 5):
        result = multistart_search(n, 1, SearchParams())
        worst_err = max(worst_err, abs(result.best_value - 1.0 / math.sqrt(n)))
    elapsed = perf_counter() - t0
    ok = worst_err <= 1e-4 and elapsed < 60.0
    _report(
        4,
        "multistart k = 1",
        ok,
        f"max |best - 1/sqrt(n)| = {worst_err:.2e} over n = 2..5, {elapsed:.1f} s",
    )


def test_criterion_5_certificate_suite():
    t0 = perf_counter()
    report = run_all()
    elapsed = perf_counter() - t0
    proved = [
        c.passed and c.max_violation == 0.0 and c.tolerance == 0.0 for c in report.checks
    ]
    ok = (
        report.all_passed
        and len(proved) == 6
        and all(proved)
        and report.config["bound"] == 0.75
        and elapsed < 1.0
    )
    _report(
        5,
        "certificate suite",
        ok,
        f"{sum(proved)} of {len(proved)} checks proved with violation 0.0 at "
        f"tolerance 0.0, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_6_analysis_chain():
    t0 = perf_counter()
    worst_invariant = 0.0
    worst_sphere = 0.0
    worst_recon = 0.0
    worst_minors = 0.0
    worst_invariance = 0.0
    golden_angle = math.pi * (3.0 - math.sqrt(5.0))
    for seed in range(10_000):
        a = haar_sample(4, 2, seed=seed)
        p = pluecker4x2(a)
        rel, norm = invariant_residuals(p)
        worst_invariant = max(worst_invariant, rel, norm)
        system = eval_system(to_transformed(p))
        worst_sphere = max(
            worst_sphere, system.sphere1_residual, system.sphere2_residual
        )
        factors = cs_decompose(a)
        worst_recon = max(
            worst_recon, float(np.max(np.abs(factors.reconstruct() - a.values)))
        )
        m_top, m_bottom = minors_from_cs(factors)
        worst_minors = max(
            worst_minors,
            abs(m_top - abs(p.p12)),
            abs(m_bottom - abs(p.p34)),
        )
        theta = golden_angle * (seed + 1)
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        worst_invariance = max(
            worst_invariance,
            abs(objective(StiefelMatrix(a.values @ rot)) - objective(a)),
        )
    elapsed = perf_counter() - t0
    ok = (
        worst_invariant < 1e-12
        and worst_sphere < 1e-12
        and worst_recon < 1e-10
        and worst_minors < 1e-10
        and worst_invariance < 1e-10
        and elapsed < 30.0
    )
    _report(
        6,
        "analysis chain",
        ok,
        f"10000 frames: quadric/norm {worst_invariant:.1e}, spheres "
        f"{worst_sphere:.1e}, reconstruction {worst_recon:.1e}, minors "
        f"{worst_minors:.1e}, invariance {worst_invariance:.1e}, {elapsed:.1f} s",
    )


def test_criterion_7_sector_identity():
    rng = np.random.default_rng(0)
    radii = rng.uniform(0.0, 3.0, size=10_000)
    angles = rng.uniform(THIRD_PI, 2.0 * THIRD_PI, size=10_000)
    a = radii * np.sin(angles + THIRD_PI)
    b = radii * np.sin(angles - THIRD_PI)
    residual = float(np.max(np.abs(a * a + a * b + b * b - 0.75 * radii * radii)))
    ok = residual < 1e-12
    _report(
        7,
        "sector identity",
        ok,
        f"max |a^2 + ab + b^2 - (3/4) R^2| = {residual:.2e} over 10000 draws",
    )


def test_criterion_8_figure_data():
    text = figure_eq3_data(101)
    worst = 0.0
    contacts = []
    for line in text.splitlines()[1:]:
        surface, xs, ys, zs = line.split(",")
        x, y, z = float(xs), float(ys), float(zs)
        if surface in ("plus", "contact"):
            total = (
                math.sin(x + THIRD_PI) ** 2
                + math.sin(y + THIRD_PI) ** 2
                + math.sin(z + THIRD_PI) ** 2
            )
            worst = max(worst, abs(total - 1.0))
        if surface in ("minus", "contact"):
            total = (
                math.sin(x - THIRD_PI) ** 2
                + math.sin(y - THIRD_PI) ** 2
                + math.sin(z - THIRD_PI) ** 2
            )
            worst = max(worst, abs(total - 1.0))
        if surface == "contact":
            contacts.append((x, y, z))
    target = sorted([math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI])
    perm_dev = (
        max(
            max(abs(u - v) for u, v in zip(sorted(point), target))
            for point in contacts
        )
        if contacts
        else math.inf
    )
    ok = worst <= 1e-9 and len(contacts) == 6 and perm_dev < 1e-9
    _report(
        8,
        "figure data",
        ok,
        f"max |equation - 1| = {worst:.2e} <= 1e-9, {len(contacts)} contact "
        f"rows, permutation deviation {perm_dev:.2e}",
    )
