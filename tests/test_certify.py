"""
Certificate suite: each check passes at its default grid, reports honest
witnesses, and actually detects violations when the claim is broken.

Ground truth: grid maxima recomputed through the same public kernels the
checks use (ellipse_lhs, transform_form_max, squared_sine_sum,
implication_margins), plus hand-picked infeasible inputs.
"""
import dataclasses
import math

import numpy as np
import pytest

from goodsub import (
    CertifyConfig,
    DimensionError,
    StiefelMatrix,
    check_boundary_lemma,
    check_ellipse_region,
    check_extremal_matrix,
    check_feasible_point,
    check_implications,
    check_transform_bound,
    ellipse_lhs,
    extremal_matrix,
    implication_margins,
    run_all,
    squared_sine_sum,
    transform_form_max,
)

THIRD_PI = math.pi / 3.0


class TestExtremalCheck:
    def test_passes(self):
        result = check_extremal_matrix()
        assert result.passed
        assert result.max_violation <= 1e-14

    def test_detects_perturbation(self):
        vals = extremal_matrix().values.copy()
        vals[0, 0] += 1e-6
        result = check_extremal_matrix(matrix=vals)
        assert not result.passed
        assert result.max_violation > 1e-7

    def test_detects_wrong_sigma(self):
        # A frame whose best block is 1, far above 1/2.
        result = check_extremal_matrix(matrix=np.eye(4)[:, :2])
        assert not result.passed

    def test_rejects_extra_rows(self):
        # The extremal frame plus a zero fifth row is orthonormal and its
        # first four rows pass, but it is not a 4x2 candidate.
        vals = np.vstack([extremal_matrix().values, np.zeros((1, 2))])
        with pytest.raises(DimensionError):
            check_extremal_matrix(matrix=vals)


class TestEllipseRegion:
    def test_passes_default(self):
        result = check_ellipse_region()
        assert result.passed
        assert result.samples_used == 1001 * 1001

    def test_witness_honest(self):
        # Re-evaluating the reported witness through the public kernel
        # reproduces the reported violation.
        result = check_ellipse_region(grid_n=101)
        alpha, beta = result.witness
        lhs1, lhs2 = ellipse_lhs(np.array(alpha), np.array(beta))
        assert max(lhs1, lhs2) - 1.0 == pytest.approx(result.max_violation, abs=1e-15)

    def test_boundary_attained(self):
        # Both ellipse inequalities are tight at the box corner
        # (alpha, beta) = (pi/6, pi/3).
        lhs1, lhs2 = ellipse_lhs(np.array(math.pi / 6.0), np.array(THIRD_PI))
        assert lhs1 == pytest.approx(1.0, abs=1e-15)
        assert lhs2 == pytest.approx(1.0, abs=1e-15)


class TestTransformBound:
    def test_passes_default(self):
        result = check_transform_bound()
        assert result.passed

    def test_constant_attained(self):
        # The 3/4 constant is exact: the box corner (0, pi/3) gives the
        # minor pair (1/2, 0), whose forms evaluate to exactly 3/4.
        peak = transform_form_max(np.array(0.0), np.array(THIRD_PI))
        assert float(peak) == pytest.approx(0.75, abs=1e-13)

    def test_negative_tolerance_fails(self):
        # A negative tolerance demands the peak sit strictly below the
        # constant, impossible since 3/4 is attained; guards against a
        # check that would pass vacuously.
        result = check_transform_bound(grid_n=51, tolerance=-0.1)
        assert not result.passed


class TestBoundaryLemma:
    def test_passes_default(self):
        result = check_boundary_lemma()
        assert result.passed

    def test_boundary_identity(self):
        # With one coordinate zero on x + y + z = pi/2 the sum collapses
        # to sin^2 t + cos^2 t = 1 for every t.
        rng = np.random.default_rng(21)
        for _ in range(100):
            t = rng.uniform(0.0, math.pi / 2.0)
            total = squared_sine_sum(t, math.pi / 2.0 - t, 0.0)
            assert float(total) == pytest.approx(1.0, abs=1e-15)

    def test_interior_below_one(self):
        # Simplex centroid: 3 sin^2(pi/6) = 3/4 < 1.
        total = squared_sine_sum(math.pi / 6.0, math.pi / 6.0, math.pi / 6.0)
        assert float(total) == pytest.approx(0.75, abs=1e-15)

    def test_detects_violation_off_simplex(self):
        # The kernel itself is unconstrained; off the simplex it can
        # exceed 1, which is what the scan would flag.
        total = squared_sine_sum(math.pi / 2.0, math.pi / 2.0, 0.0)
        assert float(total) == pytest.approx(2.0, abs=1e-15)

    def test_witness_on_simplex(self):
        result = check_boundary_lemma(grid_n=101)
        x, y, z = result.witness
        assert x + y + z == pytest.approx(math.pi / 2.0, abs=1e-12)
        total = squared_sine_sum(x, y, z)
        # Witness re-evaluation reproduces the reported extremum.
        assert abs(float(total) - 1.0) == pytest.approx(
            result.max_violation, abs=1e-15
        )


class TestImplications:
    def test_passes_default(self):
        result = check_implications()
        assert result.passed
        assert result.max_violation <= 0.0

    def test_margin_sign_at_contact(self):
        # The contact configuration satisfies both sums = 1 with angle
        # total exactly 3 pi/2; margins there must not be positive.
        m_plus, m_minus = implication_margins(
            np.array(math.pi / 2.0),
            np.array(THIRD_PI),
            np.array(2.0 * THIRD_PI),
            1e-12,
            1e-9,
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
            1e-12,
            1e-9,
        )
        assert float(m_plus) < -0.2
        assert float(m_minus) < -0.2


class TestFeasiblePoint:
    def test_extremal_configuration_passes(self):
        result = check_feasible_point(
            (1.0, 1.0, 1.0), (math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI)
        )
        assert result.passed

    def test_detects_off_configuration(self):
        result = check_feasible_point(
            (1.0, 1.0, 1.0), (math.pi / 2.0, math.pi / 2.0, math.pi / 2.0)
        )
        assert not result.passed

    def test_detects_wrong_radius(self):
        result = check_feasible_point(
            (0.9, 1.0, 1.0), (math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI)
        )
        assert not result.passed


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

    def test_small_grid_also_green(self):
        cfg = CertifyConfig(
            ellipse_grid_n=101,
            transform_grid_n=101,
            lemma_grid_n=201,
            implications_grid_n=41,
        )
        report = run_all(cfg)
        assert report.all_passed

    def test_report_dict_shape(self):
        cfg = CertifyConfig(
            ellipse_grid_n=51,
            transform_grid_n=51,
            lemma_grid_n=51,
            implications_grid_n=21,
        )
        d = run_all(cfg).to_dict()
        assert set(d) == {"checks", "all_passed", "config"}
        assert d["config"]["ellipse_grid_n"] == 51
        for check in d["checks"]:
            assert set(check) == {
                "name",
                "passed",
                "max_violation",
                "witness",
                "samples_used",
                "tolerance",
            }

    def test_config_immutable(self):
        cfg = CertifyConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.bound = 0.5


class TestPassedConsistency:
    def test_passed_iff_violation_within_tolerance(self):
        report = run_all(
            CertifyConfig(
                ellipse_grid_n=51,
                transform_grid_n=51,
                lemma_grid_n=51,
                implications_grid_n=21,
            )
        )
        for check in report.checks:
            assert check.passed == (check.max_violation <= check.tolerance)
