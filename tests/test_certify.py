"""
Certificate suite: each check passes, reports honest witnesses, and
actually detects violations when the claim is broken.

Ground truth: the exact corner maxima of checks 2 and 3 against coarse
grids of the float oracles ellipse_lhs and transform_form_max, the
exact identity of checks 4 and 5 against coarse grids of the float
oracles squared_sine_sum on the simplex and implication_margins on the
reduced and the original cube, symbolic identities behind the proofs,
planted faults, and hand-derived results at hand-picked points.  Each
oracle is defined once, below, from its formula.  Checks 1 and 6 prove the exact extremal frame
and contact point in Z[sqrt 3]; the float bridge tests tie them to the
float frame and the float minor chain.
"""
import decimal
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import goodsub
from goodsub import (
    CertificateReport,
    CheckResult,
    best_submatrix,
    check_boundary_lemma,
    check_ellipse_region,
    check_extremal_matrix,
    check_feasible_point,
    check_implications,
    check_transform_bound,
    dispatch,
    dumps,
    extremal_matrix,
    row_subsets,
    run_all,
)
from goodsub import certify, pluecker
from goodsub.pluecker import (
    DEFAULT_FORM_BOUND,
    EllipticParams,
    eval_system,
    from_elliptic,
    from_transformed,
    pluecker4x2,
    to_transformed,
)

THIRD_PI = math.pi / 3.0
SQRT3 = math.sqrt(3.0)


# Float oracles for the grid cross-checks of checks 2 to 5, one per
# check family.  The exact proofs need none of them.


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
    for su, sv in itertools.product((1.0, -1.0), repeat=2):
        a = su * u + sv * v
        b = su * u - sv * v
        sq = a * a + b * b
        ab = a * b
        m = np.maximum(sq + ab, sq - ab)
        best = m if best is None else np.maximum(best, m)
    return best


def squared_sine_sum(x, y, z):
    """sin^2 x + sin^2 y + sin^2 z, vectorized."""
    return np.sin(x) ** 2 + np.sin(y) ** 2 + np.sin(z) ** 2


# Tolerance scales for the two implication conditions of
# implication_margins: how close the squared-sine sum must be to 1, and
# how far the angle sum must cross its threshold, for a point to count
# as violating.  Read at call time, so a test may plant others.
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
    margin at zero tolerances; this oracle lets a grid cross-check that
    proof.
    """
    s_plus, s_minus = pluecker.eq3_sums(x, y, z)
    total = x + y + z
    value = 1.0 - IMPLICATION_VALUE_TOL
    return (
        np.minimum(s_plus - value, total - (1.5 * math.pi + IMPLICATION_SUM_TOL)),
        np.minimum(s_minus - value, (1.5 * math.pi - IMPLICATION_SUM_TOL) - total),
    )


def _block_terms(rows):
    # F, D and q = 4 - 2F + D of each 2-by-2 block of B, in Z[sqrt 3].
    terms = []
    for r, s in itertools.combinations(rows, 2):
        f, d = certify._dot(r + s, r + s), certify._det(r, s)
        terms.append((f, d, certify._add((4 - 2 * f[0], -2 * f[1]), certify._mul(d, d))))
    return terms


class TestExtremalCheck:
    def test_passes(self):
        assert check_extremal_matrix() == CheckResult("extremal-matrix", True, 0.0, None, 6, 0.0)

    def test_block_terms(self):
        # Five blocks sit exactly at 1/2 (q = 0 with F >= 4); block (2, 3)
        # is singular, with q = -8.
        terms = _block_terms(certify._EXTREMAL_ROWS)
        assert [t[0] for t in terms] == [(10, 0), (8, 0), (8, 0), (8, 0), (8, 0), (6, 0)]
        assert [t[1] for t in terms] == [(4, 0), (0, 2), (0, 2), (0, -2), (0, -2), (0, 0)]
        assert [t[2] for t in terms] == [(0, 0)] * 5 + [(-8, 0)]

    # Planted faults replace the rows of B the check evaluates.

    def test_detects_perturbation(self, monkeypatch):
        # Exact arithmetic sees any perturbation: 2 + 1e-6 in the first
        # entry leaves (B^T B)_11 - 8 = 4e-6 + 1e-12.
        rows = list(certify._EXTREMAL_ROWS)
        rows[0] = ((2 + Fraction(1, 10**6), 0), (1, 0))
        monkeypatch.setattr(certify, "_EXTREMAL_ROWS", tuple(rows))
        result = check_extremal_matrix()
        assert not result.passed
        assert result.max_violation >= 4e-6

    def test_detects_non_orthonormal(self, monkeypatch):
        # Rows (1, 0), (0, 1), (0, 0), (0, 0): every block has F <= 2, so
        # sigma <= 1/2 everywhere, but B^T B = I, 7 short of 8I.  No block
        # has F >= 4, so the attainment product is the empty one, 1.
        one, zero = (1, 0), (0, 0)
        rows = ((one, zero), (zero, one), (zero, zero), (zero, zero))
        monkeypatch.setattr(certify, "_EXTREMAL_ROWS", rows)
        assert check_extremal_matrix() == CheckResult("extremal-matrix", False, 7.0, None, 6, 0.0)

    def test_detects_wrong_sigma(self, monkeypatch):
        # Rows (2, 0), (0, 2), (2, 0), (0, 2): B^T B = 8I, but four blocks
        # are 2I, with sigma 1/sqrt(2) in A (q = 4 > 0 at F = 8), and no
        # block attains 1/2.  The largest residual is the attainment
        # product 4 * (-12) * 4 * 4 * (-12) * 4.
        two, zero = (2, 0), (0, 0)
        rows = ((two, zero), (zero, two)) * 2
        qs = [t[2] for t in _block_terms(rows)]
        assert qs == [(4, 0), (-12, 0), (4, 0), (4, 0), (-12, 0), (4, 0)]
        monkeypatch.setattr(certify, "_EXTREMAL_ROWS", rows)
        assert check_extremal_matrix() == CheckResult(
            "extremal-matrix", False, 36864.0, None, 6, 0.0
        )


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
        # Re-evaluating the reported corner through the float oracle
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
        monkeypatch.setitem(globals(), name, value)
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
    value = 1.0 - IMPLICATION_VALUE_TOL
    limit = math.pi / 2.0 - IMPLICATION_SUM_TOL
    return max(
        float(np.minimum(squared_sine_sum(x, yy, zz) - value, limit - ((x + yy) + zz)).max())
        for x in ts[:, None, None]
    )


def _plant_proof_point(monkeypatch, radii, angles):
    # Planted faults move the point check 6 evaluates; angles are in
    # sixths of pi.
    monkeypatch.setattr(certify, "_PROOF_RADII", radii)
    monkeypatch.setattr(certify, "_PROOF_ANGLES", angles)


class TestFeasiblePoint:
    def test_extremal_configuration_passes(self, monkeypatch):
        _plant_proof_point(monkeypatch, (1, 1, 1), (3, 2, 4))
        assert check_feasible_point().passed

    def test_detects_off_configuration(self, monkeypatch):
        _plant_proof_point(monkeypatch, (1, 1, 1), (3, 3, 3))
        assert not check_feasible_point().passed

    def test_detects_wrong_radius(self, monkeypatch):
        _plant_proof_point(monkeypatch, (2, 1, 1), (3, 2, 4))
        assert not check_feasible_point().passed

    def test_detects_wrong_bound(self, monkeypatch):
        # Every form stays below 4 * 0.8, so none is tight: the x pair's
        # excesses multiply to about (-0.2)(-2.2).  The bound is not
        # rounded to 4/5.
        monkeypatch.setattr(pluecker, "DEFAULT_FORM_BOUND", 0.8)
        result = check_feasible_point()
        assert not result.passed
        excess = 4 * Fraction(0.8)
        assert result.max_violation == float((3 - excess) * (1 - excess))


# The exact contact point, written out: v = w / 2 and p = (2 (4p)) / 8.
EXACT_V = (0.5, 0.5, SQRT3 / 2.0, 0.0, 0.0, SQRT3 / 2.0)
EXACT_MINORS = (0.5, SQRT3 / 4.0, SQRT3 / 4.0, -SQRT3 / 4.0, -SQRT3 / 4.0, 0.0)


class TestFloatBridge:
    # Checks 1 and 6 prove the exact frame and point; these tests tie them
    # to the floats the rest of the package computes with.

    def test_extremal_matrix_correctly_rounded(self):
        # Every entry of extremal_matrix() lies within half an ulp of the
        # exact entry e = (a + b sqrt 3) / (2 sqrt 2) of B / (2 sqrt 2).
        # Each exact entry has a = 0 or b = 0, so e^2 = (a^2 + 3b^2) / 8
        # is rational and the test compares squares in Fractions.
        floats = extremal_matrix().values.tolist()
        for row, exact_row in zip(floats, certify._EXTREMAL_ROWS):
            for f, (a, b) in zip(row, exact_row):
                assert a * b == 0
                assert (f > 0) - (f < 0) == certify._sign((a, b))
                e2 = Fraction(a * a + 3 * b * b, 8)
                half_ulp = Fraction(math.ulp(f)) / 2
                low, high = Fraction(abs(f)) - half_ulp, Fraction(abs(f)) + half_ulp
                assert max(low, 0) ** 2 <= e2 <= high**2

    def test_tables_hold_the_contact_point(self):
        # The exact tables behind check 6 give w = 2v and the minors of B
        # = 8 p, with v and p as written out above.
        w = [certify._TWICE_SINES[t + s] for t in certify._PROOF_ANGLES for s in (2, -2)]
        assert [(a + b * SQRT3) / 2.0 for a, b in w] == list(EXACT_V)
        minors = [
            certify._det(r, s) for r, s in itertools.combinations(certify._EXTREMAL_ROWS, 2)
        ]
        assert [(a + b * SQRT3) / 8.0 for a, b in minors] == list(EXACT_MINORS)
        assert certify._PROOF_RADII == (1, 1, 1)
        assert [t * math.pi / 6.0 for t in certify._PROOF_ANGLES] == pytest.approx(
            [math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI], abs=1e-15
        )

    def test_float_chain_matches_exact_point(self):
        # from_elliptic -> from_transformed at the contact point, and the
        # float frame's minors, match the exact v and minors to 1e-15,
        # entry by entry, with no sign flip or swap.
        params = EllipticParams(1.0, 1.0, 1.0, math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI)
        v = from_elliptic(params)
        assert v.as_tuple() == pytest.approx(EXACT_V, abs=1e-15)
        assert from_transformed(v).as_tuple() == pytest.approx(EXACT_MINORS, abs=1e-15)
        assert pluecker4x2(extremal_matrix()).as_tuple() == pytest.approx(EXACT_MINORS, abs=1e-15)

    def test_sign_rule(self):
        # The exact sign of a + b sqrt(3) agrees with the float's on every
        # int pair in [-30, 30]^2 (none is within 0.01 of 0 but (0, 0)),
        # and the reported float is the value to 1e-15, against 40 digits.
        root3 = decimal.Context(prec=40).sqrt(3)
        for a, b in itertools.product(range(-30, 31), repeat=2):
            value = a + b * SQRT3
            assert certify._sign((a, b)) == (value > 0) - (value < 0)
            exact = float(a + b * root3)
            assert certify._float((a, b)) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_float_keeps_sign_under_cancellation(self):
        # a^2 - 3b^2 = 1, so a - b sqrt(3) = 1 / (a + b sqrt(3)), about
        # 2.6e-9.  a - b * sqrt(3) in floats reads 0.0, which would report
        # an offending residual as no violation; the conjugate form keeps
        # the sign and the digits.
        a, b = 189750626, 109552575
        assert a * a - 3 * b * b == 1 and a - b * SQRT3 == 0.0
        assert certify._sign((a, -b)) == 1
        assert certify._float((a, -b)) == pytest.approx(1.0 / (a + b * SQRT3), rel=1e-15)


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
        # The float kernels left the package for the test oracles above.
        for name in ("ellipse_lhs", "squared_sine_sum"):
            assert name not in goodsub.__all__
            assert not hasattr(certify, name)
        with pytest.raises(TypeError):
            check_feasible_point(bound=0.75)


class TestFixedSettings:
    def test_tolerances_in_report(self):
        # Every check is an exact proof, held to tolerance 0.
        tolerances = {c["name"]: c["tolerance"] for c in run_all().to_dict()["checks"]}
        assert tolerances == {
            "extremal-matrix": 0.0,
            "ellipse-region": 0.0,
            "transform-bound": 0.0,
            "boundary-lemma": 0.0,
            "implications": 0.0,
            "feasible-point": 0.0,
        }
        assert not hasattr(certify, "EXTREMAL_TOL") and not hasattr(certify, "FEASIBLE_TOL")

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


# Reference: the default report spelled out.


def _ref_run_all():
    checks = (
        CheckResult("extremal-matrix", True, 0.0, None, 6, 0.0),
        check_ellipse_region(),
        check_transform_bound(),
        CheckResult("boundary-lemma", True, 0.0, None, 8, 0.0),
        CheckResult("implications", True, 0.0, None, 8, 0.0),
        CheckResult("feasible-point", True, 0.0, None, 1, 0.0),
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

    # Hand-derived exact results at planted points, by (radii, angles).
    PLANTED_VIOLATIONS = {
        # Spheres at 3, |4p|^2 at 12: the normalization is off by 4.
        ((1, 1, 1), (3, 3, 3)): 4.0,
        # The x pair doubled: |4p|^2 = 28, 12 over 16.
        ((2, 1, 1), (3, 2, 4)): 12.0,
        # The x and z pairs swapped: every constraint holds, but the
        # minors are those of another frame, 2 sqrt(3) off in p23.
        ((1, 1, 1), (4, 2, 3)): 2.0 * SQRT3,
        # Every pair (0, sqrt 3): spheres at 0 and 9, so the quadric
        # relation on 4p, |w1|^2 - |w2|^2 = -9, is the largest residual.
        ((1, 1, 1), (4, 4, 4)): 9.0,
    }

    @pytest.mark.parametrize("radii, angles", list(PLANTED_VIOLATIONS))
    def test_feasible_point(self, monkeypatch, radii, angles):
        _plant_proof_point(monkeypatch, radii, angles)
        violation = self.PLANTED_VIOLATIONS[radii, angles]
        assert check_feasible_point() == CheckResult(
            "feasible-point", False, violation, None, 1, 0.0
        )

    def test_feasible_point_default(self):
        assert check_feasible_point() == CheckResult("feasible-point", True, 0.0, None, 1, 0.0)


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

