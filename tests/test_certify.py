"""
Certificate suite: each check passes, reports honest witnesses, and
actually detects violations when the claim is broken.

Ground truth: the exact corner maxima of checks 2 and 3 against coarse
grids of their public kernels (ellipse_lhs, transform_form_max), the
exact identity of checks 4 and 5 against coarse grids of
squared_sine_sum on the simplex and of implication_margins on the
reduced and the original cube, symbolic identities behind the proofs,
planted faults, and hand-picked infeasible inputs.  The feasible-point
check must equal its earlier 8-way sign loop, kept below as a
reference.
"""
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import goodsub
from goodsub import (
    CertificateReport,
    CheckResult,
    StiefelMatrix,
    best_submatrix,
    check_boundary_lemma,
    check_ellipse_region,
    check_extremal_matrix,
    check_feasible_point,
    check_implications,
    check_transform_bound,
    dispatch,
    dumps,
    ellipse_lhs,
    extremal_matrix,
    implication_margins,
    row_subsets,
    run_all,
    squared_sine_sum,
    transform_form_max,
)
from goodsub import certify, pluecker
from goodsub.certify import _pair_orbit_mismatch
from goodsub.pluecker import (
    DEFAULT_FORM_BOUND,
    EllipticParams,
    eval_system,
    from_elliptic,
    from_transformed,
    invariant_residuals,
    pluecker4x2,
    to_transformed,
)

THIRD_PI = math.pi / 3.0


class TestExtremalCheck:
    def test_passes(self):
        result = check_extremal_matrix()
        assert result.passed
        assert result.max_violation <= 1e-14

    # Planted faults replace the frame the check evaluates; _adopt skips
    # the orthonormality test that the perturbed frame would fail.

    def test_detects_perturbation(self, monkeypatch):
        vals = extremal_matrix().values.copy()
        vals[0, 0] += 1e-6
        monkeypatch.setattr(certify, "extremal_matrix", lambda: StiefelMatrix._adopt(vals))
        result = check_extremal_matrix()
        assert not result.passed
        assert result.max_violation > 1e-7

    def test_detects_wrong_sigma(self, monkeypatch):
        # A frame whose best block is 1, far above 1/2.
        vals = np.eye(4)[:, :2]
        monkeypatch.setattr(certify, "extremal_matrix", lambda: StiefelMatrix._adopt(vals))
        result = check_extremal_matrix()
        assert not result.passed


class TestEllipseRegion:
    def test_passes_default(self):
        # An exact proof over the four corners: the maximum is 1, so the
        # violation is exactly 0.
        result = check_ellipse_region()
        assert result.passed
        assert result.max_violation == 0.0
        assert result.witness == (0.0, THIRD_PI)
        assert result.samples_used == 4

    def test_witness_honest(self):
        # Re-evaluating the reported corner through the public kernel
        # reproduces the exact maximum in floats.
        result = check_ellipse_region()
        alpha, beta = result.witness
        lhs1, lhs2 = ellipse_lhs(np.array(alpha), np.array(beta))
        assert max(lhs1, lhs2) - 1.0 == pytest.approx(result.max_violation, abs=1e-15)

    def test_boundary_attained(self):
        # Both ellipse inequalities are tight at the box corner
        # (alpha, beta) = (pi/6, pi/3).
        lhs1, lhs2 = ellipse_lhs(np.array(math.pi / 6.0), np.array(THIRD_PI))
        assert lhs1 == pytest.approx(1.0, abs=1e-15)
        assert lhs2 == pytest.approx(1.0, abs=1e-15)

    @staticmethod
    def _formula_lhs(alpha, beta):
        # The formulas as written, each product a new array.
        u = np.cos(alpha) * np.cos(beta)
        v = np.sin(alpha) * np.sin(beta)
        u2 = u * u
        v2 = v * v
        return (4.0 * u2 + (4.0 / 3.0) * v2, (4.0 / 3.0) * u2 + 4.0 * v2)

    @pytest.mark.parametrize(
        "shapes", [((1000,), (1000,)), ((37, 1), (1, 53)), ((41, 1), (41,)), ((), (29,))]
    )
    def test_lhs_floats_equal_formulas(self, shapes):
        # The kernel gives the floats of the formulas, on equal and on
        # broadcast shapes.
        rng = np.random.default_rng(7)
        alpha = rng.uniform(-4.0, 4.0, shapes[0])
        beta = rng.uniform(-4.0, 4.0, shapes[1])
        for got, want in zip(ellipse_lhs(alpha, beta), self._formula_lhs(alpha, beta)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_lhs_python_floats(self):
        for alpha, beta in [(0.3, 1.2), (math.pi / 6.0, THIRD_PI), (0.0, 0.0), (-2.5, 7.0)]:
            got = ellipse_lhs(alpha, beta)
            want = self._formula_lhs(alpha, beta)
            assert [float(g) for g in got] == [float(w) for w in want]

    def test_lhs_leaves_arguments_unchanged(self):
        alpha = np.linspace(0.0, 1.0, 17)
        beta = np.linspace(1.0, 2.0, 17)[:, None]
        before = (alpha.copy(), beta.copy())
        ellipse_lhs(alpha, beta)
        ellipse_lhs(alpha, alpha)
        ellipse_lhs(alpha[0], beta[0, 0])
        assert np.array_equal(alpha, before[0]) and np.array_equal(beta, before[1])


class TestTransformBound:
    def test_passes_default(self):
        result = check_transform_bound()
        assert result.passed
        assert result.max_violation == 0.0
        assert result.samples_used == 4
        assert float(transform_form_max(*result.witness)) == pytest.approx(0.75, abs=1e-15)

    def test_detects_wrong_bound(self, monkeypatch):
        # The check proves the constant sharp, not just sound: a bound
        # below or above 3/4 fails by its distance from 3/4.
        for bound in (0.7, 0.8):
            monkeypatch.setattr(pluecker, "DEFAULT_FORM_BOUND", bound)
            result = check_transform_bound()
            assert not result.passed
            assert result.max_violation == pytest.approx(0.05, abs=1e-15)

    def test_constant_attained(self):
        # The 3/4 constant is exact: the box corner (0, pi/3) gives the
        # minor pair (1/2, 0), whose forms evaluate to exactly 3/4.
        peak = transform_form_max(np.array(0.0), np.array(THIRD_PI))
        assert float(peak) == pytest.approx(0.75, abs=1e-13)

    def test_negative_tolerance_fails(self, monkeypatch):
        # A negative tolerance demands the peak sit strictly below the
        # constant, impossible since 3/4 is attained; guards against a
        # check that would pass vacuously.  The constant is read at call
        # time.
        monkeypatch.setattr(certify, "EXACT_TOL", -0.1)
        result = check_transform_bound()
        assert not result.passed
        assert result.tolerance == -0.1


def _assert_exact_proof(result, name):
    assert result == CheckResult(name, True, 0.0, None, 8, 0.0)


class TestBoundaryLemma:
    def test_passes_default(self):
        # An exact proof: eight corners, no residual, no witness.
        _assert_exact_proof(check_boundary_lemma(), "boundary-lemma")

    def test_boundary_identity(self):
        # With one coordinate zero on x + y + z = pi/2 the sum collapses
        # to sin^2 t + cos^2 t = 1 for every t.
        rng = np.random.default_rng(21)
        for _ in range(100):
            t = rng.uniform(0.0, math.pi / 2.0)
            total = squared_sine_sum(t, math.pi / 2.0 - t, 0.0)
            assert float(total) == pytest.approx(1.0, abs=1e-15)

    def test_identity_on_simplex_symbolic(self):
        # The identity stated in check_boundary_lemma: on
        # x + y + z = pi/2, sin^2 x + sin^2 y + sin^2 z =
        # 1 - 2 sin x sin y sin z, so the sum is at most 1 there.
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        z = sympy.pi / 2 - x - y
        lhs = sympy.sin(x) ** 2 + sympy.sin(y) ** 2 + sympy.sin(z) ** 2
        rhs = 1 - 2 * sympy.sin(x) * sympy.sin(y) * sympy.sin(z)
        assert sympy.simplify(sympy.expand_trig(lhs - rhs)) == 0

    def test_simplex_terms_symbolic(self):
        # The (p, q, w) expressions the check evaluates equal sin^2 z' and
        # sin x' sin y' sin z' on the simplex, for p = sin^2 x',
        # q = sin^2 y' and w = sin x' sin y' cos x' cos y'.
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        z = sympy.pi / 2 - x - y
        p, q = sympy.sin(x) ** 2, sympy.sin(y) ** 2
        w = sympy.sin(x) * sympy.sin(y) * sympy.cos(x) * sympy.cos(y)
        sin2_z, triple = certify._simplex_terms(p, q, w)
        assert sympy.simplify(sympy.expand_trig(sin2_z - sympy.sin(z) ** 2)) == 0
        want = sympy.sin(x) * sympy.sin(y) * sympy.sin(z)
        assert sympy.simplify(sympy.expand_trig(triple - want)) == 0

    def test_residual_multilinear_symbolic(self):
        # The premise of the corner evaluation: the residual has degree
        # at most 1 in each of p, q and w.
        sympy = pytest.importorskip("sympy")
        p, q, w = sympy.symbols("p q w")
        residual = sympy.Poly(sympy.expand(certify._identity_residual(p, q, w)), p, q, w)
        assert all(max(exps) <= 1 for exps in residual.monoms())

    def test_corner_residuals_exact(self):
        # Stdlib only: all eight corner residuals are exactly zero.
        corners = list(itertools.product((Fraction(0), Fraction(1)), repeat=3))
        assert [certify._identity_residual(*c) for c in corners] == [0] * 8
        residual = lambda *c: abs(certify._identity_residual(*c))  # noqa: E731
        assert certify._corner_max(residual, certify._CUBE_CORNERS) == (Fraction(0), corners[0], 8)

    @pytest.mark.parametrize(
        "terms",
        [
            # sin^2 z' with -w for -2w, and the triple product with +pq.
            lambda p, q, w: ((1 - p) * (1 - q) - w + p * q, w - p * q),
            lambda p, q, w: ((1 - p) * (1 - q) - 2 * w + p * q, w + p * q),
        ],
        ids=["sin2_z", "triple"],
    )
    def test_planted_wrong_term_fails_both(self, monkeypatch, terms):
        # A wrong identity term leaves a nonzero residual at some corner,
        # and checks 4 and 5 both read it.
        monkeypatch.setattr(certify, "_simplex_terms", terms)
        for check in (check_boundary_lemma, check_implications):
            result = check()
            assert result.passed is False
            assert result.max_violation > 0.0

    def test_box_sides_bilinear_symbolic(self):
        # Checks 2 and 3: with p = cos^2 alpha and q = cos^2 beta, the
        # ellipse sides and, under every sign choice, both forms equal
        # the expressions the corner evaluation uses, which are linear in
        # u^2 = pq and v^2 = (1 - p)(1 - q), so bilinear in (p, q).
        sympy = pytest.importorskip("sympy")
        alpha, beta = sympy.symbols("alpha beta")
        u = sympy.cos(alpha) * sympy.cos(beta)
        v = sympy.sin(alpha) * sympy.sin(beta)
        p, q = sympy.cos(alpha) ** 2, sympy.cos(beta) ** 2
        u2, v2 = p * q, (1 - p) * (1 - q)
        four_thirds = sympy.Rational(4, 3)
        sides = (4 * u**2 + four_thirds * v**2, four_thirds * u**2 + 4 * v**2)
        for got, want in zip(sides, certify._ellipse_sides(u2, v2)):
            assert sympy.simplify(got - want) == 0
        for su, sv in itertools.product((1, -1), repeat=2):
            a, b = su * u + sv * v, su * u - sv * v
            forms = (a**2 + a * b + b**2, a**2 - a * b + b**2)
            for got, want in zip(forms, certify._form_values(u2, v2)):
                assert sympy.simplify(got - want) == 0

    def test_reduction_sines_symbolic(self):
        # Check 5's substitutions: x' = 2pi/3 - x keeps the plus term and
        # x' = x - pi/3 the minus term, and both map [pi/3, 2pi/3] onto
        # [0, pi/3].
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        third = sympy.pi / 3
        plus, minus = 2 * third - x, x - third
        assert sympy.simplify(sympy.sin(x + third) ** 2 - sympy.sin(plus) ** 2) == 0
        assert sympy.simplify(sympy.sin(x - third) ** 2 - sympy.sin(minus) ** 2) == 0
        for image in (plus, minus):
            assert {image.subs(x, third), image.subs(x, 2 * third)} == {0, third}

    def test_reduction_thresholds_symbolic(self):
        # Both violating sides become x' + y' + z' < pi/2: for plus,
        # (x + y + z) - 3pi/2 = pi/2 - sum x'; for minus,
        # 3pi/2 - (x + y + z) = pi/2 - sum x'.
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x y z")
        third = sympy.pi / 3
        for image, excess in (
            (lambda t: 2 * third - t, lambda total: total - 3 * sympy.pi / 2),
            (lambda t: t - third, lambda total: 3 * sympy.pi / 2 - total),
        ):
            reduced = sum(image(t) for t in xs)
            assert sympy.simplify(excess(sum(xs)) - (sympy.pi / 2 - reduced)) == 0

    def test_corner_maxima_exact(self):
        # Stdlib only: the corner maxima over the four box corners are
        # exactly 1 and 3/4, both first reached at (alpha, beta) =
        # (0, pi/3), and 3/4 is the form bound exactly.
        for sides, peak in (
            (certify._ellipse_sides, Fraction(1)),
            (certify._form_values, Fraction(3, 4)),
        ):
            got = certify._corner_max(lambda *c: max(sides(*c)), certify._BOX_CORNERS)
            assert got == (peak, (0.0, THIRD_PI), 4)
        assert DEFAULT_FORM_BOUND == Fraction(3, 4)

    def test_interior_below_one(self):
        # Simplex centroid: 3 sin^2(pi/6) = 3/4 < 1.
        total = squared_sine_sum(math.pi / 6.0, math.pi / 6.0, math.pi / 6.0)
        assert float(total) == pytest.approx(0.75, abs=1e-15)

    def test_detects_violation_off_simplex(self):
        # The kernel itself is unconstrained; off the simplex it can
        # exceed 1, which the grid cross-checks would flag.
        total = squared_sine_sum(math.pi / 2.0, math.pi / 2.0, 0.0)
        assert float(total) == pytest.approx(2.0, abs=1e-15)


class TestImplications:
    def test_passes_default(self):
        # The same exact identity as check 4, re-evaluated.
        _assert_exact_proof(check_implications(), "implications")

    def test_margin_sign_at_contact(self):
        # The contact configuration satisfies both sums = 1 with angle
        # total exactly 3 pi/2; margins there must not be positive.
        m_plus, m_minus = implication_margins(
            np.array(math.pi / 2.0),
            np.array(THIRD_PI),
            np.array(2.0 * THIRD_PI),
        )
        assert float(m_plus) <= 0.0
        assert float(m_minus) <= 0.0

    def test_margin_negative_inside(self):
        # Center of the cube: both sums are 3/4 < 1, so the hypotheses
        # fail and margins are strongly negative.
        m_plus, m_minus = implication_margins(
            np.array(math.pi / 2.0),
            np.array(math.pi / 2.0),
            np.array(math.pi / 2.0),
        )
        assert float(m_plus) < -0.2
        assert float(m_minus) < -0.2

    # Planted oracle tolerances that make part of the cube violate: a
    # value floor of 0.95 and a sum threshold 1e-3 past its limit.  The
    # coarse grid cross-check must see them (it could not fail
    # otherwise), while the exact check, which reads neither tolerance,
    # is unchanged.
    @pytest.mark.parametrize("grid_n", [21, 51])
    @pytest.mark.parametrize(
        "name, value",
        [("IMPLICATION_VALUE_TOL", 5e-2), ("IMPLICATION_SUM_TOL", -1e-3)],
    )
    def test_planted_violation_found(self, monkeypatch, grid_n, name, value):
        monkeypatch.setattr(certify, name, value)
        assert _cube_peak(grid_n) > 0.0
        assert _reduced_peak(grid_n) > 0.0
        _assert_exact_proof(check_implications(), "implications")

    @pytest.mark.parametrize("grid_n", [3, 21, 51])
    def test_matches_original_cube(self, grid_n):
        # The coarse grid cross-check of check 5 on the original cube,
        # both directions: no positive margin anywhere, as proved.
        assert _cube_peak(grid_n) <= 0.0
        assert check_implications().passed

    @pytest.mark.parametrize("grid_n", [3, 4, 21, 201, 2001, 20001])
    def test_tables_monotone_on_cube_axes(self, grid_n):
        # The premise of the scaling step, in floats: sin^2 rises
        # strictly along the reduced cube's axis [0, pi/3] and on to
        # pi/2, where the scaled points lie.
        ts = np.linspace(0.0, math.pi / 2.0, grid_n)
        table = np.sin(ts) ** 2
        assert np.all(ts[1:] > ts[:-1])
        assert np.all(table[1:] > table[:-1])


def _cube_peak(grid_n):
    # The largest margin of either implication over the original cube
    # grid, one x plane at a time.
    ts = np.linspace(THIRD_PI, 2.0 * THIRD_PI, grid_n)
    yy, zz = np.meshgrid(ts, ts, indexing="ij")
    return max(float(np.maximum(*implication_margins(x, yy, zz)).max()) for x in ts)


def _reduced_peak(grid_n):
    # The largest margin of the reduced statement over the grid of
    # [0, pi/3]^3: positive where sin^2 x' + sin^2 y' + sin^2 z' reaches
    # 1 - IMPLICATION_VALUE_TOL while x' + y' + z' stays below
    # pi/2 - IMPLICATION_SUM_TOL.  The tolerances are read at call time.
    ts = np.linspace(0.0, THIRD_PI, grid_n)
    yy, zz = np.meshgrid(ts, ts, indexing="ij")
    value = 1.0 - certify.IMPLICATION_VALUE_TOL
    limit = math.pi / 2.0 - certify.IMPLICATION_SUM_TOL
    return max(
        float(np.minimum(squared_sine_sum(x, yy, zz) - value, limit - ((x + yy) + zz)).max())
        for x in ts[:, None, None]
    )


def _plant_proof_point(monkeypatch, radii, angles):
    # Planted faults move the point check 6 evaluates.
    monkeypatch.setattr(certify, "_PROOF_RADII", radii)
    monkeypatch.setattr(certify, "_PROOF_ANGLES", angles)


class TestFeasiblePoint:
    def test_extremal_configuration_passes(self, monkeypatch):
        _plant_proof_point(
            monkeypatch, (1.0, 1.0, 1.0), (math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI)
        )
        assert check_feasible_point().passed

    def test_detects_off_configuration(self, monkeypatch):
        _plant_proof_point(
            monkeypatch, (1.0, 1.0, 1.0), (math.pi / 2.0, math.pi / 2.0, math.pi / 2.0)
        )
        assert not check_feasible_point().passed

    def test_detects_wrong_radius(self, monkeypatch):
        _plant_proof_point(
            monkeypatch, (0.9, 1.0, 1.0), (math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI)
        )
        assert not check_feasible_point().passed


class TestRunAll:
    def test_default_config_green(self):
        report = run_all()
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert names == [
            "extremal-matrix",
            "ellipse-region",
            "transform-bound",
            "boundary-lemma",
            "implications",
            "feasible-point",
        ]

    def test_report_dict_shape(self):
        d = run_all().to_dict()
        assert set(d) == {"checks", "all_passed", "config"}
        assert d["config"] == {"bound": 0.75}
        for check in d["checks"]:
            assert set(check) == {
                "name",
                "passed",
                "max_violation",
                "witness",
                "samples_used",
                "tolerance",
            }

    def test_bound_is_the_verified_constant(self):
        assert run_all().config == {"bound": DEFAULT_FORM_BOUND}
        assert "CertifyConfig" not in goodsub.__all__
        assert not hasattr(certify, "CertifyConfig")
        with pytest.raises(TypeError):
            check_feasible_point(bound=0.75)


class TestFixedSettings:
    def test_tolerances_in_report(self):
        tolerances = {c["name"]: c["tolerance"] for c in run_all().to_dict()["checks"]}
        assert tolerances == {
            "extremal-matrix": 1e-14,
            "ellipse-region": 0.0,
            "transform-bound": 0.0,
            "boundary-lemma": 0.0,
            "implications": 0.0,
            "feasible-point": 1e-12,
        }

    @pytest.mark.parametrize(
        "call",
        [
            lambda: row_subsets(4, 2, max_subsets=10),
            lambda: best_submatrix(extremal_matrix(), max_subsets=10),
            lambda: check_extremal_matrix(tolerance=1e-14),
            lambda: check_ellipse_region(tolerance=1e-12),
            lambda: check_transform_bound(tolerance=1e-12),
            lambda: check_boundary_lemma(tolerance=1e-12),
            lambda: check_implications(tolerance=0.0),
            lambda: check_feasible_point(tolerance=1e-12),
            lambda: eval_system(to_transformed(pluecker4x2(extremal_matrix())), bound=0.75),
            lambda: eval_system(to_transformed(pluecker4x2(extremal_matrix())), tol=1e-12),
            lambda: check_boundary_lemma(201),
            lambda: check_implications(51),
            lambda: check_boundary_lemma(grid_n=2001),
            lambda: check_implications(grid_n=201),
            lambda: run_all(None),
            lambda: check_extremal_matrix(extremal_matrix().values),
            lambda: check_feasible_point((1.0, 1.0, 1.0), certify._PROOF_ANGLES),
        ],
        ids=[
            "row_subsets-max_subsets",
            "best_submatrix-max_subsets",
            "check_extremal_matrix-tolerance",
            "check_ellipse_region-tolerance",
            "check_transform_bound-tolerance",
            "check_boundary_lemma-tolerance",
            "check_implications-tolerance",
            "check_feasible_point-tolerance",
            "eval_system-bound",
            "eval_system-tol",
            "check_boundary_lemma-grid",
            "check_implications-grid",
            "check_boundary_lemma-grid_n",
            "check_implications-grid_n",
            "run_all-config",
            "check_extremal_matrix-matrix",
            "check_feasible_point-point",
        ],
    )
    def test_retired_keyword_rejected(self, call):
        # Neither the checks nor run_all take a setting, positional or
        # not: checks 4 and 5 lost their grid, run_all its config and
        # checks 1 and 6 their test-only inputs.
        with pytest.raises(TypeError, match="unexpected keyword argument|takes 0 positional"):
            call()


class TestPassedConsistency:
    def test_passed_iff_violation_within_tolerance(self):
        for check in run_all().checks:
            assert check.passed == (check.max_violation <= check.tolerance)


# References: the transform kernel's four-sign loop and the feasible-point
# check as they were before their closed forms, and the default report
# with checks 4 and 5 spelled out.


def _ref_result(name, violation, witness, samples, tolerance):
    return CheckResult(
        name=name,
        passed=bool(violation <= tolerance),
        max_violation=float(violation),
        witness=witness,
        samples_used=int(samples),
        tolerance=float(tolerance),
    )


def _ref_transform_form_max(alpha, beta):
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


# The feasible-point check as it was before its closed-form pair
# mismatch and its pair grouping helper.


def _ref_pair_orbit_mismatch(candidate, target):
    a, b = candidate
    best = math.inf
    for first, second in ((a, b), (b, a)):
        for sa in (1.0, -1.0):
            for sb in (1.0, -1.0):
                d = max(abs(sa * first - target[0]), abs(sb * second - target[1]))
                best = min(best, d)
    return best


def _ref_check_feasible_point(radii, angles, tolerance=1e-12):
    bound = DEFAULT_FORM_BOUND
    params = EllipticParams(
        radius_x=radii[0],
        radius_y=radii[1],
        radius_z=radii[2],
        angle_x=angles[0],
        angle_y=angles[1],
        angle_z=angles[2],
    )
    v = from_elliptic(params)
    p = from_transformed(v)
    rel, norm = invariant_residuals(p)
    report = eval_system(v)
    forms = report.qform_values
    form_excess = max(f - bound for f in forms)
    equality_dev = max(
        min(abs(forms[2 * i] - bound), abs(forms[2 * i + 1] - bound)) for i in range(3)
    )
    target = pluecker4x2(extremal_matrix())
    pair_targets = ((target.p12, target.p34), (target.p13, target.p24), (target.p14, target.p23))
    pair_candidates = ((p.p12, p.p34), (p.p13, p.p24), (p.p14, p.p23))
    orbit_mismatch = max(
        _ref_pair_orbit_mismatch(c, t) for c, t in zip(pair_candidates, pair_targets)
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
    return _ref_result("feasible-point", violation, None, 1, tolerance)


def _ref_run_all():
    checks = (
        check_extremal_matrix(),
        check_ellipse_region(),
        check_transform_bound(),
        CheckResult("boundary-lemma", True, 0.0, None, 8, 0.0),
        CheckResult("implications", True, 0.0, None, 8, 0.0),
        check_feasible_point(),
    )
    return CertificateReport(
        checks=checks,
        all_passed=all(c.passed for c in checks),
        config={"bound": 0.75},
    )


@pytest.fixture(scope="module")
def reference_report():
    return _ref_run_all()


class TestSweepsMatchReference:
    # Coarse grid cross-checks of the exact checks 2 to 5, and references
    # run in the same process, not stored hashes: sin and cos may round
    # differently on another machine.

    @pytest.mark.parametrize("grid_n", [2, 3, 7, 51, 101])
    def test_ellipse_region(self, grid_n):
        # A coarse grid cross-check of the exact corner maximum: no grid
        # point exceeds it beyond rounding, and grid 2 is the corners.
        peak = 1.0 + check_ellipse_region().max_violation
        grid = np.maximum(*ellipse_lhs(*_box_grid(grid_n)))
        assert grid.max() <= peak + 1e-12
        assert abs(grid[[0, 0, -1, -1], [0, -1, 0, -1]].max() - peak) <= 1e-15

    @pytest.mark.parametrize("grid_n", [2, 3, 7, 51, 101])
    def test_transform_bound(self, grid_n):
        # The same cross-check of the exact form maximum 3/4.
        peak = DEFAULT_FORM_BOUND + check_transform_bound().max_violation
        grid = transform_form_max(*_box_grid(grid_n))
        assert grid.max() <= peak + 1e-12
        assert abs(grid[[0, 0, -1, -1], [0, -1, 0, -1]].max() - peak) <= 1e-15

    @pytest.mark.parametrize("grid_n", [3, 4, 7, 51, 201, 250])
    def test_boundary_lemma(self, grid_n):
        # The cross-check of check 4: on the simplex grid the sum stays
        # at most 1 beyond rounding, equals 1 on the boundary and falls
        # below it inside.
        x, y, z, boundary = _simplex_grid(grid_n)
        total = squared_sine_sum(x, y, z)
        assert total.max() <= 1.0 + 1e-15
        assert np.all(np.abs(total[boundary] - 1.0) <= 1e-15)
        assert np.all(total[~boundary] < 1.0)
        assert check_boundary_lemma().passed

    @pytest.mark.parametrize("grid_n", [3, 4, 7, 21, 51, 101, 250])
    def test_implications(self, grid_n):
        # The cross-check of check 5's reduced statement on [0, pi/3]^3:
        # no grid point has a positive margin.
        assert _reduced_peak(grid_n) <= 0.0
        assert check_implications().passed

    def test_default_grids(self, reference_report):
        assert run_all() == reference_report
        assert [c.samples_used for c in reference_report.checks[1:5]] == [4, 4, 8, 8]

    def test_certify_command_bytes(self, reference_report, tmp_path):
        out = tmp_path / "certify.json"
        assert dispatch(["certify", "--output", str(out)]) == 0
        expected = dumps(reference_report.to_dict()) + "\n"
        assert out.read_bytes() == expected.encode("utf-8")

    def test_pair_orbit_mismatch_closed_form(self):
        # The closed form against the 8-way sign and swap loop, bit for
        # bit, on random pairs, on targets a few ulps from a signed or
        # swapped candidate, and on signed zeros, subnormals and tiny and
        # huge magnitudes.
        rng = np.random.default_rng(31)
        pairs = rng.standard_normal((20_000, 4)) * 10.0 ** rng.integers(-300, 300, (20_000, 4))
        near = rng.standard_normal((20_000, 4))
        swap = rng.random((20_000, 1)) < 0.5
        signs = rng.choice([-1.0, 1.0], (20_000, 2))
        near[:, 2:] = np.where(swap, near[:, 1::-1], near[:, :2]) * signs
        near[:, 2:] *= 1.0 + 1e-15 * rng.standard_normal((20_000, 2))
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.5e-308, 1.0, -1.0, 1e300]
        corners = itertools.product(special, repeat=4)
        for a, b, t0, t1 in itertools.chain(pairs.tolist(), near.tolist(), corners):
            got = _pair_orbit_mismatch((a, b), (t0, t1))
            ref = _ref_pair_orbit_mismatch((a, b), (t0, t1))
            assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)

    @pytest.mark.parametrize(
        "radii, angles",
        [
            ((1.0, 1.0, 1.0), (math.pi / 2.0, math.pi / 2.0, math.pi / 2.0)),
            ((0.9, 1.0, 1.0), (math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI)),
            ((0.3, 0.0, 1.7), (1.1, math.pi / 2.0, 2.0)),
        ],
    )
    def test_feasible_point(self, monkeypatch, radii, angles):
        _plant_proof_point(monkeypatch, radii, angles)
        assert check_feasible_point() == _ref_check_feasible_point(radii, angles)

    def test_feasible_point_default(self):
        expected = _ref_check_feasible_point(
            (1.0, 1.0, 1.0), (math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI)
        )
        assert check_feasible_point() == expected
        assert expected.passed

    def test_single_sign_case_transform(self):
        rng = np.random.default_rng(11)
        alpha = rng.uniform(-4.0, 4.0, 200_000)
        beta = rng.uniform(-4.0, 4.0, 200_000)
        np.testing.assert_array_equal(
            transform_form_max(alpha, beta), _ref_transform_form_max(alpha, beta)
        )
        corners = [0.0, -0.0, math.pi / 6.0, THIRD_PI, math.pi / 2.0, -math.pi / 2.0]
        aa, bb = np.meshgrid(corners, corners, indexing="ij")
        got = transform_form_max(aa, bb)
        ref = _ref_transform_form_max(aa, bb)
        np.testing.assert_array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestSweepBlocks:
    # The public kernels give each grid point the float of a whole-grid
    # call when a grid is evaluated in runs of rows, so a caller may cut
    # a grid anywhere and a point re-evaluated alone reproduces its grid
    # value.  A run of 1 takes one row at a time, 7 a few rows at the
    # small grids, and 1000 splits grids 51 to 250 into runs that do not
    # divide them evenly.

    @pytest.fixture(params=[1, 7, 1000])
    def sweep_block(self, request):
        return request.param

    @pytest.mark.parametrize("grid_n", [2, 3, 7, 51, 101])
    def test_ellipse_region(self, sweep_block, grid_n):
        alpha, beta = _box_grid(grid_n)
        whole = np.maximum(*ellipse_lhs(alpha, beta))
        kernel = lambda a: np.maximum(*ellipse_lhs(a, beta))  # noqa: E731
        assert np.array_equal(_in_runs(kernel, alpha, sweep_block), whole)

    @pytest.mark.parametrize("grid_n", [2, 3, 7, 51, 101])
    def test_transform_bound(self, sweep_block, grid_n):
        alpha, beta = _box_grid(grid_n)
        whole = transform_form_max(alpha, beta)
        kernel = lambda a: transform_form_max(a, beta)  # noqa: E731
        assert np.array_equal(_in_runs(kernel, alpha, sweep_block), whole)

    @pytest.mark.parametrize("grid_n", [3, 4, 7, 51, 201, 250])
    def test_boundary_lemma(self, sweep_block, grid_n):
        # squared_sine_sum over the simplex grid's points, flattened, in
        # runs of sweep_block points.
        x, y, z, _ = _simplex_grid(grid_n)
        whole = squared_sine_sum(x, y, z)
        cuts = range(0, len(x), sweep_block)
        runs = [squared_sine_sum(*(t[c : c + sweep_block] for t in (x, y, z))) for c in cuts]
        assert np.array_equal(np.concatenate(runs), whole)

    @pytest.mark.parametrize("grid_n", [51, 101])
    def test_implications(self, sweep_block, grid_n):
        # implication_margins over one plane of the original cube.
        ts = np.linspace(THIRD_PI, 2.0 * THIRD_PI, grid_n)
        yy, zz = np.meshgrid(ts, ts, indexing="ij")
        x = ts[grid_n // 3]
        whole = np.maximum(*implication_margins(x, yy, zz))
        kernel = lambda rows: np.maximum(*implication_margins(x, yy[rows], zz[rows]))  # noqa: E731
        assert np.array_equal(_in_runs(kernel, np.arange(grid_n), sweep_block), whole)

    @pytest.mark.parametrize("grid_n", [51, 101])
    def test_ellipse_ties_span_runs(self, grid_n):
        # The ellipse maximum of 1 holds along the whole box edges
        # alpha = pi/6 and beta = pi/3 (on them one side is p + (1 - p) or
        # q + (1 - q)), so a grid reaches it within rounding on every row
        # and the corner witness is one of many maximizers: the first
        # corner in (alpha, beta) order.
        alpha, beta = _box_grid(grid_n)
        lhs = np.maximum(*ellipse_lhs(alpha, beta))
        assert np.all(np.abs(lhs[:, 0] - 1.0) <= 1e-15)
        assert np.all(np.abs(lhs[-1, :] - 1.0) <= 1e-15)


class TestSweepMemory:
    # Checks 2 to 5 are exact and hold no arrays at all.

    @pytest.mark.parametrize(
        "check",
        [check_ellipse_region, check_transform_bound, check_boundary_lemma, check_implications],
    )
    def test_traced_peak_below_4_mb(self, check):
        tracemalloc.start()
        try:
            check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def _box_grid(grid_n):
    # The principal-angle box [0, pi/6] x [pi/3, pi/2] as a column of
    # alpha values and a row of beta values.
    alpha = np.linspace(0.0, math.pi / 6.0, grid_n)
    beta = np.linspace(THIRD_PI, math.pi / 2.0, grid_n)
    return alpha[:, None], beta[None, :]


def _simplex_grid(grid_n):
    # The points (i, j, segments - i - j) * step of the simplex
    # x' + y' + z' = pi/2 as flat arrays, and a mask of those on its
    # boundary (a coordinate zero).
    segments = grid_n - 1
    step = (math.pi / 2.0) / segments
    i, j = np.nonzero(np.add.outer(np.arange(grid_n), np.arange(grid_n)) <= segments)
    k = segments - i - j
    return i * step, j * step, k * step, (i == 0) | (j == 0) | (k == 0)


def _in_runs(kernel, column, run):
    # kernel over a column of values in runs of rows, each run holding at
    # most run entries of a square grid (one row at least).
    rows = max(1, run // len(column))
    return np.concatenate([kernel(column[i : i + rows]) for i in range(0, len(column), rows)])
