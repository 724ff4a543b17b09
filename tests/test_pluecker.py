"""
Row minors, the quadric relation, coordinate changes, and the elliptic
parametrization.

Ground truth: the attaining frame's minor vector
(1/2, sqrt(3)/4, sqrt(3)/4, -sqrt(3)/4, -sqrt(3)/4, 0), its transformed
image (1/2, 1/2, sqrt(3)/2, 0, 0, sqrt(3)/2), and the algebraic identity
a^2 + a*b + b^2 = (3/4) R^2 for a = R sin(t + pi/3), b = R sin(t - pi/3).
"""
import math

import numpy as np
import pytest

from goodsub import (
    DimensionError,
    EllipticParams,
    NegativeComponent,
    PlueckerCoords,
    TransformedVars,
    elliptic_pair,
    elliptic_params,
    eq3_sums,
    eval_system,
    extremal_matrix,
    from_elliptic,
    from_transformed,
    haar_sample,
    invariant_residuals,
    nonnegative_representative,
    pluecker4x2,
    to_transformed,
)
from goodsub.pluecker import DEFAULT_FORM_BOUND

THIRD_PI = math.pi / 3.0


def random_coords(seed):
    return pluecker4x2(haar_sample(4, 2, seed=seed))


class TestPluecker4x2:
    def test_extremal_values(self):
        p = pluecker4x2(extremal_matrix())
        s34 = math.sqrt(3.0) / 4.0
        expected = (0.5, s34, s34, -s34, -s34, 0.0)
        np.testing.assert_allclose(p.as_tuple(), expected, atol=1e-15)

    def test_identity_embedding(self):
        from goodsub import StiefelMatrix

        p = pluecker4x2(StiefelMatrix(np.eye(4)[:, :2]))
        assert p.as_tuple() == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_quadric_and_norm_on_samples(self):
        for seed in range(50):
            rel, norm = invariant_residuals(random_coords(seed))
            assert rel < 1e-14
            assert norm < 1e-14

    def test_right_invariance(self):
        # Minors of a frame are determined by its column span up to the
        # determinant of the mixing rotation, so a rotation fixes them.
        a = haar_sample(4, 2, seed=7)
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        from goodsub import StiefelMatrix

        b = StiefelMatrix(a.values @ rot)
        np.testing.assert_allclose(
            pluecker4x2(a).as_tuple(), pluecker4x2(b).as_tuple(), atol=1e-14
        )

    def test_rejects_wrong_shape(self):
        from goodsub import StiefelMatrix

        with pytest.raises(DimensionError):
            pluecker4x2(StiefelMatrix(np.eye(3)[:, :2]))

    def test_requires_stiefel_matrix(self):
        with pytest.raises(TypeError):
            pluecker4x2(np.eye(4)[:, :2])

    def test_to_dict_key_order(self):
        # Keys in field order, values as as_tuple gives them.
        keys = ["p12", "p13", "p14", "p23", "p24", "p34"]
        for frame in (extremal_matrix(), haar_sample(4, 2, seed=5)):
            p = pluecker4x2(frame)
            assert list(p.to_dict().items()) == list(zip(keys, p.as_tuple()))


class TestTransformedVars:
    def test_extremal_values(self):
        v = to_transformed(pluecker4x2(extremal_matrix()))
        h = math.sqrt(3.0) / 2.0
        np.testing.assert_allclose(v.as_tuple(), (0.5, 0.5, h, 0.0, 0.0, h), atol=1e-15)

    def test_roundtrip(self):
        for seed in range(25):
            p = random_coords(seed)
            q = from_transformed(to_transformed(p))
            np.testing.assert_allclose(q.as_tuple(), p.as_tuple(), atol=1e-15)

    def test_two_spheres(self):
        # Unit norm plus/minus twice the quadric relation become two unit
        # spheres: x1^2+y1^2+z1^2 = 1 and x2^2+y2^2+z2^2 = 1.
        for seed in range(25):
            v = to_transformed(random_coords(seed))
            assert v.x1**2 + v.y1**2 + v.z1**2 == pytest.approx(1.0, abs=1e-13)
            assert v.x2**2 + v.y2**2 + v.z2**2 == pytest.approx(1.0, abs=1e-13)

    def test_pairs(self):
        v = TransformedVars(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert v.pairs() == ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))


class TestEvalSystem:
    def test_extremal_is_feasible(self):
        v = to_transformed(pluecker4x2(extremal_matrix()))
        report = eval_system(v)
        assert report.satisfied
        np.testing.assert_allclose(
            report.qform_values, (0.75, 0.25, 0.75, 0.75, 0.75, 0.75), atol=1e-15
        )

    def test_spheres_hold_for_all_frames(self):
        # The sphere equations are identities of genuine frames; the form
        # constraints are not (they encode "every block is bad", which a
        # frame with a good block must violate).
        for seed in range(50):
            report = eval_system(to_transformed(random_coords(seed)))
            assert report.sphere1_residual < 1e-13
            assert report.sphere2_residual < 1e-13

    def test_good_block_violates_forms(self):
        # Identity embedding: block {0, 1} has sigma 1, and indeed the
        # x-pair form evaluates to 3 > 3/4.
        from goodsub import StiefelMatrix

        v = to_transformed(pluecker4x2(StiefelMatrix(np.eye(4)[:, :2])))
        report = eval_system(v)
        assert not report.satisfied
        assert max(report.qform_values) == pytest.approx(3.0, abs=1e-14)

    def test_sphere_residual_detected(self):
        v = TransformedVars(1.1, 0.0, 0.0, 0.0, 0.0, 0.0)
        report = eval_system(v)
        assert not report.satisfied
        assert report.sphere1_residual > 0.1

    def test_form_violation_detected(self):
        # Unit-sphere point whose x-pair form exceeds 3/4.
        v = TransformedVars(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        report = eval_system(v)
        assert max(report.qform_values) > 0.75 + 1e-6
        assert not report.satisfied

    def test_to_dict_keys(self):
        report = eval_system(to_transformed(pluecker4x2(extremal_matrix())))
        assert list(report.to_dict()) == [
            "sphere1_residual",
            "sphere2_residual",
            "qform_values",
            "satisfied",
        ]

    def test_satisfied_consistent_with_fields(self):
        for seed in range(50):
            report = eval_system(to_transformed(random_coords(seed)))
            expected = (
                report.sphere1_residual <= 1e-12
                and report.sphere2_residual <= 1e-12
                and all(f <= DEFAULT_FORM_BOUND + 1e-12 for f in report.qform_values)
            )
            assert report.satisfied == expected

    def test_form_identity_in_minors(self):
        # The x-pair form a^2 + ab + b^2 equals 3 p12^2 + p34^2 exactly.
        for seed in range(25):
            p = random_coords(seed)
            v = to_transformed(p)
            a, b = v.x1, v.x2
            assert a * a + a * b + b * b == pytest.approx(
                3.0 * p.p12**2 + p.p34**2, abs=1e-14
            )


class TestEllipticParametrization:
    def test_pair_roundtrip_identity(self):
        # a = R sin(t + pi/3), b = R sin(t - pi/3) recovers (R, t).
        rng = np.random.default_rng(12)
        for _ in range(200):
            radius = rng.uniform(0.01, 2.0)
            angle = rng.uniform(THIRD_PI, 2.0 * THIRD_PI)
            a = radius * math.sin(angle + THIRD_PI)
            b = radius * math.sin(angle - THIRD_PI)
            r, t = elliptic_pair(max(a, 0.0), max(b, 0.0))
            if a >= 0.0 and b >= 0.0:
                assert r == pytest.approx(radius, abs=1e-12)
                assert t == pytest.approx(angle, abs=1e-12)

    def test_quadratic_identity(self):
        # a^2 + a b + b^2 = (3/4) R^2 along the whole parametrization.
        rng = np.random.default_rng(13)
        for _ in range(500):
            radius = rng.uniform(0.0, 3.0)
            angle = rng.uniform(THIRD_PI, 2.0 * THIRD_PI)
            a = radius * math.sin(angle + THIRD_PI)
            b = radius * math.sin(angle - THIRD_PI)
            assert a * a + a * b + b * b == pytest.approx(
                0.75 * radius * radius, abs=1e-12
            )

    def test_zero_pair(self):
        r, t = elliptic_pair(0.0, 0.0)
        assert r == 0.0
        assert t == math.pi / 2.0

    def test_axis_points(self):
        s32 = math.sqrt(3.0) / 2.0
        r, t = elliptic_pair(s32, 0.0)  # b = 0 forces t = pi/3
        assert r == pytest.approx(1.0, abs=1e-15)
        assert t == pytest.approx(THIRD_PI, abs=1e-15)
        r, t = elliptic_pair(0.0, s32)  # a = 0 forces t = 2 pi/3
        assert r == pytest.approx(1.0, abs=1e-15)
        assert t == pytest.approx(2.0 * THIRD_PI, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(NegativeComponent):
            elliptic_pair(-0.1, 0.2)
        with pytest.raises(NegativeComponent):
            elliptic_pair(0.2, -0.1)

    @pytest.mark.parametrize(
        "a, b", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (0.5, math.inf)]
    )
    def test_rejects_nonfinite(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            elliptic_pair(a, b)

    def test_angle_range(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            a, b = rng.uniform(0.0, 1.0, size=2)
            _, t = elliptic_pair(a, b)
            assert THIRD_PI <= t <= 2.0 * THIRD_PI

    def test_extremal_params(self):
        v = nonnegative_representative(to_transformed(pluecker4x2(extremal_matrix())))
        params = elliptic_params(v)
        np.testing.assert_allclose(params.radii(), (1.0, 1.0, 1.0), atol=1e-15)
        np.testing.assert_allclose(
            params.angles(), (math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI), atol=1e-15
        )

    def test_from_elliptic_roundtrip(self):
        for seed in range(25):
            v = nonnegative_representative(to_transformed(random_coords(seed)))
            back = from_elliptic(elliptic_params(v))
            np.testing.assert_allclose(back.as_tuple(), v.as_tuple(), atol=1e-12)

    def test_from_elliptic_sector_edges(self):
        # Both ends of [pi/3, 2pi/3] and radius zero are in the domain.
        v = from_elliptic(EllipticParams(0.0, 1.0, 1.0, math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI))
        assert v.x1 == 0.0 and v.x2 == 0.0
        assert min(v.as_tuple()) >= 0.0

    def test_from_elliptic_rejects_negative_radius(self):
        # Radius -1 at angle 1.5 read as radius 1 at angle 1.5 + pi.
        with pytest.raises(NegativeComponent):
            from_elliptic(EllipticParams(-1.0, 1.0, 1.0, 1.5, 1.5, 1.5))

    @pytest.mark.parametrize(
        "params",
        [
            (math.nan, 1.0, 1.0, 1.5, 1.5, 1.5),
            (1.0, math.inf, 1.0, 1.5, 1.5, 1.5),
            (1.0, 1.0, 1.0, 1.5, math.nan, 1.5),
            (1.0, 1.0, 1.0, 1.5, 1.5, -math.inf),
        ],
    )
    def test_from_elliptic_rejects_non_finite(self, params):
        with pytest.raises(ValueError, match="must be finite"):
            from_elliptic(EllipticParams(*params))

    @pytest.mark.parametrize("angle", [0.0, THIRD_PI - 1e-12, 2.0 * THIRD_PI + 1e-12, 4.0])
    def test_from_elliptic_rejects_angle_outside_sector(self, angle):
        # Angle 0 gave a negative coordinate x2 = -sqrt(3)/2.
        with pytest.raises(ValueError, match=r"angles must lie in \[pi/3, 2pi/3\]"):
            from_elliptic(EllipticParams(1.0, 1.0, 1.0, angle, 1.5, 1.5))


class TestNonnegativeRepresentative:
    def test_componentwise_abs(self):
        v = TransformedVars(-1.0, 2.0, -3.0, 4.0, -5.0, 6.0)
        assert nonnegative_representative(v).as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_preserves_forms(self):
        # Sign flips leave both spheres and all six form values invariant
        # up to the pair swap a^2+ab+b^2 <-> a^2-ab+b^2.
        for seed in range(25):
            v = to_transformed(random_coords(seed))
            w = nonnegative_representative(v)
            assert sorted(eval_system(v).qform_values) == pytest.approx(
                sorted(eval_system(w).qform_values), abs=1e-13
            )


class TestEq3Sums:
    def test_contact_point(self):
        sp, sm = eq3_sums(math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI)
        assert sp == pytest.approx(1.0, abs=1e-15)
        assert sm == pytest.approx(1.0, abs=1e-15)

    def test_cube_center(self):
        sp, sm = eq3_sums(math.pi / 2.0, math.pi / 2.0, math.pi / 2.0)
        assert sp == pytest.approx(0.75, abs=1e-15)
        assert sm == pytest.approx(0.75, abs=1e-15)

    def test_corner(self):
        sp, sm = eq3_sums(2.0 * THIRD_PI, 2.0 * THIRD_PI, 2.0 * THIRD_PI)
        assert sp == pytest.approx(0.0, abs=1e-15)
        assert sm == pytest.approx(9.0 / 4.0, abs=1e-15)

    def test_vectorized(self):
        xs = np.linspace(THIRD_PI, 2.0 * THIRD_PI, 7)
        sp, sm = eq3_sums(xs, xs, xs)
        assert sp.shape == (7,)
        for i, x in enumerate(xs):
            esp, esm = eq3_sums(float(x), float(x), float(x))
            assert sp[i] == pytest.approx(esp, abs=1e-15)
            assert sm[i] == pytest.approx(esm, abs=1e-15)

    def test_swap_symmetry(self):
        # Reflecting every angle through pi/2 swaps the two sums.
        rng = np.random.default_rng(15)
        for _ in range(100):
            x, y, z = rng.uniform(THIRD_PI, 2.0 * THIRD_PI, size=3)
            sp, sm = eq3_sums(x, y, z)
            sp2, sm2 = eq3_sums(math.pi - x, math.pi - y, math.pi - z)
            assert sp == pytest.approx(sm2, abs=1e-13)
            assert sm == pytest.approx(sp2, abs=1e-13)


class TestCoordsContainer:
    def test_as_tuple_order(self):
        p = PlueckerCoords(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert p.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_frozen(self):
        p = PlueckerCoords(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            p.p12 = 2.0
