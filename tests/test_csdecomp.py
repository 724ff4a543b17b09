"""
Thin CS decomposition of 4-by-2 frames under the 2+2 row split.

Ground truth: reconstruction against the input, orthogonality of each
factor, the minor identities det(top) = cos(alpha) cos(beta) and
det(bottom) = sin(alpha) sin(beta), and the attaining frame's angles
(0, pi/3).
"""
import math

import numpy as np
import pytest

from goodsub import (
    DimensionError,
    StiefelMatrix,
    cs_decompose,
    extremal_matrix,
    haar_sample,
    minors_from_cs,
)


def assert_orthogonal(q, atol=1e-13):
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=atol)


def _orthogonal(rng):
    # A random 2x2 rotation, or a reflection with probability 1/2.
    t = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return rot @ np.diag([1.0, rng.choice([-1.0, 1.0])])


def frame_with_angles(alpha, beta, seed):
    """The frame [[q1, 0], [0, q2]] @ CS(alpha, beta) @ q3 for random q's."""
    rng = np.random.default_rng(seed)
    q1, q2, q3 = (_orthogonal(rng) for _ in range(3))
    ca, cb, sa, sb = math.cos(alpha), math.cos(beta), math.sin(alpha), math.sin(beta)
    top = q1 @ np.diag([ca, cb]) @ q3
    bottom = q2 @ np.diag([sa, sb]) @ q3
    return StiefelMatrix(np.vstack([top, bottom]))


class TestCSDecompose:
    def test_reconstructs_extremal(self):
        a = extremal_matrix()
        f = cs_decompose(a)
        np.testing.assert_allclose(f.reconstruct(), a.values, atol=1e-14)

    def test_extremal_angles(self):
        f = cs_decompose(extremal_matrix())
        assert f.alpha == pytest.approx(0.0, abs=1e-14)
        assert f.beta == pytest.approx(math.pi / 3.0, abs=1e-14)

    def test_reconstructs_random_frames(self):
        for seed in range(50):
            a = haar_sample(4, 2, seed=seed)
            f = cs_decompose(a)
            np.testing.assert_allclose(f.reconstruct(), a.values, atol=1e-13)

    def test_factors_orthogonal(self):
        for seed in range(50):
            f = cs_decompose(haar_sample(4, 2, seed=seed))
            assert_orthogonal(f.q1)
            assert_orthogonal(f.q2)
            assert_orthogonal(f.q3)

    def test_angles_ordered_in_quarter_turn(self):
        for seed in range(50):
            f = cs_decompose(haar_sample(4, 2, seed=seed))
            assert 0.0 <= f.alpha <= f.beta <= math.pi / 2.0 + 1e-15

    def test_identity_embedding(self):
        f = cs_decompose(StiefelMatrix(np.eye(4)[:, :2]))
        assert f.alpha == 0.0
        assert f.beta == 0.0
        np.testing.assert_allclose(f.reconstruct(), np.eye(4)[:, :2], atol=1e-15)

    def test_bottom_identity(self):
        # Frame supported on the bottom half: both angles are pi/2.
        vals = np.zeros((4, 2))
        vals[2, 0] = 1.0
        vals[3, 1] = 1.0
        f = cs_decompose(StiefelMatrix(vals))
        assert f.alpha == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert f.beta == pytest.approx(math.pi / 2.0, abs=1e-15)
        np.testing.assert_allclose(f.reconstruct(), vals, atol=1e-14)

    def test_one_vanishing_sine(self):
        # First column lives entirely in the top half, second is mixed:
        # the bottom factor needs an orthogonal completion.
        c, s = math.cos(0.4), math.sin(0.4)
        vals = np.array([[1.0, 0.0], [0.0, c], [0.0, s], [0.0, 0.0]])
        f = cs_decompose(StiefelMatrix(vals))
        assert f.alpha == pytest.approx(0.0, abs=1e-12)
        assert f.beta == pytest.approx(0.4, abs=1e-12)
        assert_orthogonal(f.q2)
        np.testing.assert_allclose(f.reconstruct(), vals, atol=1e-13)
        assert np.linalg.det(f.q2) >= 0.0

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (5e-9, 5e-9),
            (5e-9, 0.7),
            (0.0, 5e-9),
            (3e-9, 8e-9),
            (1e-9, 3e-8),
            (2e-8, 3e-8),
            (1e-6, 2e-6),
        ],
    )
    def test_small_sines(self, alpha, beta):
        # Tiny or close small sines: the bottom factor must stay
        # orthogonal and the reconstruction exact to rounding.
        for seed in range(20):
            a = frame_with_angles(alpha, beta, seed)
            f = cs_decompose(a)
            np.testing.assert_allclose(f.reconstruct(), a.values, rtol=0, atol=1e-15)
            assert_orthogonal(f.q1, atol=1e-15)
            assert_orthogonal(f.q2, atol=1e-15)
            assert f.alpha == pytest.approx(alpha, abs=1e-15)
            assert f.beta == pytest.approx(beta, abs=1e-15)

    @pytest.mark.parametrize("t", [0.3, 0.7, math.pi / 4.0, 1.2])
    def test_coincident_interior_angles(self, t):
        for seed in range(20):
            a = frame_with_angles(t, t, seed)
            f = cs_decompose(a)
            np.testing.assert_allclose(f.reconstruct(), a.values, rtol=0, atol=1e-14)
            assert f.alpha == pytest.approx(t, abs=1e-15)
            assert f.beta == pytest.approx(t, abs=1e-15)

    def test_zero_bottom_gives_identity_q2(self):
        f = cs_decompose(StiefelMatrix(np.eye(4)[:, :2]))
        np.testing.assert_array_equal(f.q2, np.eye(2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            cs_decompose(StiefelMatrix(np.eye(3)[:, :2]))

    def test_requires_stiefel_matrix(self):
        with pytest.raises(TypeError):
            cs_decompose(np.eye(4)[:, :2])

    def test_middle_factor_structure(self):
        f = cs_decompose(haar_sample(4, 2, seed=1))
        mid = f.middle_factor()
        ca, cb = math.cos(f.alpha), math.cos(f.beta)
        sa, sb = math.sin(f.alpha), math.sin(f.beta)
        expected = np.array([[ca, 0.0], [0.0, cb], [sa, 0.0], [0.0, sb]])
        np.testing.assert_allclose(mid, expected, atol=1e-15)

    def test_arrays_read_only(self):
        f = cs_decompose(haar_sample(4, 2, seed=2))
        with pytest.raises(ValueError):
            f.q1[0, 0] = 9.0


class TestMinorsFromCS:
    def test_extremal_products(self):
        m_top, m_bottom = minors_from_cs(cs_decompose(extremal_matrix()))
        assert m_top == pytest.approx(0.5, abs=1e-14)
        assert m_bottom == pytest.approx(0.0, abs=1e-14)

    def test_matches_block_determinants(self):
        # |det(top)| = cos(alpha) cos(beta), |det(bottom)| = sin(alpha) sin(beta).
        for seed in range(50):
            a = haar_sample(4, 2, seed=seed)
            m_top, m_bottom = minors_from_cs(cs_decompose(a))
            assert m_top == pytest.approx(abs(np.linalg.det(a.values[:2])), abs=1e-12)
            assert m_bottom == pytest.approx(abs(np.linalg.det(a.values[2:])), abs=1e-12)

    def test_pythagorean_pair(self):
        # cos^2 products and sin^2 products never exceed 1 jointly.
        for seed in range(25):
            m_top, m_bottom = minors_from_cs(cs_decompose(haar_sample(4, 2, seed=seed)))
            assert 0.0 <= m_top <= 1.0 + 1e-15
            assert 0.0 <= m_bottom <= 1.0 + 1e-15
