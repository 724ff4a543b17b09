"""Output checks for the benchmark's workloads.

Each checker takes one op's outputs and returns a list of problems; an
empty list means the op's output is correct.  The references here are
the benchmark's own (an SVD of every row block, the squared-sine
equations evaluated directly), so they do not share code with the
program under test.  Checkers never raise on a wrong answer.
"""

import itertools
import json
import math

import numpy as np

# Criterion 6 of the acceptance suite: bounds on the analysis-chain residuals.
INVARIANT_TOL = 1e-12
SPHERE_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
MINOR_IDENTITY_TOL = 1e-10

# The best 4x2 block never falls below 1/2 (criterion 2's tolerance).
FLOOR_4X2 = 0.5
FLOOR_4X2_TOL = 1e-9

# A search result below 1/sqrt(n) by more than this refutes the conjecture.
SEARCH_FLOOR_TOL = 1e-6

# Agreement with the SVD reference for best values, and ties between blocks.
REFERENCE_TOL = 1e-12

FRAME_TOL = 1e-10

CERTIFY_CHECK_NAMES = (
    "extremal-matrix",
    "ellipse-region",
    "transform-bound",
    "boundary-lemma",
    "implications",
    "feasible-point",
)
CONTACT_ROWS = 6
EQUATION_TOL = 1e-9

_THIRD_PI = math.pi / 3.0


def reference_best(values):
    """(row_set, sigma_min) of the best block, from an SVD of every block.

    Blocks within REFERENCE_TOL of the best count as tied, and ties go to
    the lexicographically smallest row set.
    """
    arr = np.asarray(values, dtype=float)
    n, k = arr.shape
    subsets = list(itertools.combinations(range(n), k))
    sigmas = np.linalg.svd(arr[np.array(subsets)], compute_uv=False)[:, -1]
    best = float(sigmas.max())
    first = int(np.flatnonzero(sigmas >= best - REFERENCE_TOL)[0])
    return subsets[first], float(sigmas[first])


def check_frame_chain(values, row_set, sigma_min, invariant, sphere, reconstruction, minors):
    """Check one 4x2 frame's best block and analysis-chain residuals.

    ``invariant``, ``sphere`` and ``minors`` are pairs of residuals;
    ``reconstruction`` is the reassembled CS factorization.
    """
    problems = []
    ref_rows, ref_sigma = reference_best(values)
    if tuple(row_set) != ref_rows:
        problems.append(f"row_set {tuple(row_set)} != reference {ref_rows}")
    if not abs(sigma_min - ref_sigma) <= REFERENCE_TOL:
        problems.append(f"sigma_min {sigma_min!r} != reference {ref_sigma!r}")
    if not sigma_min >= FLOOR_4X2 - FLOOR_4X2_TOL:
        problems.append(f"best block {sigma_min!r} below 1/2")
    if not np.max(invariant) < INVARIANT_TOL:
        problems.append(f"quadric/norm residuals {invariant}")
    if not np.max(sphere) < SPHERE_TOL:
        problems.append(f"sphere residuals {sphere}")
    recon = float(np.max(np.abs(np.asarray(reconstruction) - np.asarray(values))))
    if not recon < RECONSTRUCTION_TOL:
        problems.append(f"CS reconstruction residual {recon:.3e}")
    if not np.max(minors) < MINOR_IDENTITY_TOL:
        problems.append(f"minor identity residuals {minors}")
    return problems


def check_search_result(values, best_value):
    """Check a worst-case search result: a frame whose value is recomputed."""
    arr = np.asarray(values, dtype=float)
    n, k = arr.shape
    problems = []
    dev = float(np.abs(arr.T @ arr - np.eye(k)).max())
    if not dev <= FRAME_TOL:
        problems.append(f"not a frame: max |A^T A - I| = {dev:.3e}")
    _, ref_sigma = reference_best(arr)
    if not abs(best_value - ref_sigma) <= REFERENCE_TOL:
        problems.append(f"best_value {best_value!r} != reference {ref_sigma!r}")
    floor = 1.0 / math.sqrt(n)
    if not best_value >= floor - SEARCH_FLOOR_TOL:
        problems.append(f"best_value {best_value!r} below 1/sqrt({n})")
    return problems


def check_cli_outputs(exit_codes, report_text, csv_text):
    """Check the exit codes, the certify report and the figure CSV."""
    problems = [f"exit code {code}" for code in exit_codes if code != 0]
    try:
        report = json.loads(report_text)
        names = tuple(c["name"] for c in report["checks"])
        passed = report["all_passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"malformed certify report: {exc!r}"]
    if passed is not True:
        problems.append("certify report: all_passed is not true")
    if names != CERTIFY_CHECK_NAMES:
        problems.append(f"certify report check names {names}")
    problems.extend(_csv_problems(csv_text))
    return problems


def _csv_problems(csv_text):
    lines = csv_text.splitlines()
    if not lines or lines[0] != "surface,x,y,z":
        return ["figure CSV: missing header"]
    surfaces = []
    points = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 4:
            return [f"figure CSV: malformed row {line!r}"]
        surfaces.append(fields[0])
        try:
            points.append([float(v) for v in fields[1:]])
        except ValueError:
            return [f"figure CSV: non-numeric row {line!r}"]
    surfaces = np.array(surfaces)
    pts = np.array(points, dtype=float).reshape(-1, 3)
    problems = []
    unknown = set(surfaces.tolist()) - {"plus", "minus", "contact"}
    if unknown:
        problems.append(f"figure CSV: unknown surfaces {sorted(unknown)}")
    contacts = int(np.count_nonzero(surfaces == "contact"))
    if contacts != CONTACT_ROWS:
        problems.append(f"figure CSV: {contacts} contact rows, expected {CONTACT_ROWS}")
    for sign, members in ((1.0, ("plus", "contact")), (-1.0, ("minus", "contact"))):
        rows = pts[np.isin(surfaces, members)]
        total = np.sum(np.sin(rows + sign * _THIRD_PI) ** 2, axis=1)
        worst = float(np.max(np.abs(total - 1.0), initial=0.0))
        if not worst <= EQUATION_TOL:
            problems.append(f"figure CSV: equation residual {worst:.3e} on {members[0]} rows")
    return problems
