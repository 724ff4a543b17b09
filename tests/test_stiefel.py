"""
Frame container, submatrix selection, sampling, and matrix file format.

Ground truth: numpy.linalg.svd for singular values, itertools-style
exhaustive enumeration for the best block, and hand-computed values for
the attaining 4-by-2 frame (five blocks at 1/2, the {2,3} block singular).
"""
import io
import math
import itertools

import numpy as np
import pytest

from goodsub import stiefel
from goodsub import (
    DimensionError,
    EnumerationCapExceeded,
    RankDeficient,
    SearchParams,
    StiefelMatrix,
    best_submatrix,
    block_sigmas,
    cs_decompose,
    extremal_matrix,
    format_matrix,
    gram_deviation,
    haar_sample,
    haar_samples,
    load_matrix,
    local_descent,
    objective,
    orthonormalize,
    parse_matrix,
    pluecker4x2,
    principal_angle,
    row_subsets,
    save_matrix,
    sigma_min,
)
from frame_checks import assert_frame_values, assert_package_frame
from sigma_reference import all_values, subset_sigma


class TestStiefelMatrix:
    def test_accepts_orthonormal_columns(self):
        a = StiefelMatrix(np.eye(4)[:, :2])
        assert a.n == 4
        assert a.k == 2

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            StiefelMatrix(np.ones((4, 2)))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DimensionError):
            StiefelMatrix(np.ones(4))

    def test_rejects_wide(self):
        with pytest.raises(DimensionError):
            StiefelMatrix(np.eye(2, 4))

    def test_rejects_nonfinite(self):
        a = np.eye(4)[:, :2]
        a[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            StiefelMatrix(a)

    def test_values_read_only(self):
        a = StiefelMatrix(np.eye(3)[:, :2])
        with pytest.raises(ValueError):
            a.values[0, 0] = 2.0

    def test_defensive_copy(self):
        raw = np.eye(3)[:, :2].copy()
        a = StiefelMatrix(raw)
        raw[0, 0] = 5.0
        assert a.values[0, 0] == 1.0

    def test_submatrix(self):
        a = extremal_matrix()
        block = a.submatrix((0, 1))
        np.testing.assert_array_equal(block, a.values[[0, 1]])

    def test_submatrix_rejects_bad_rows(self):
        a = extremal_matrix()
        with pytest.raises(IndexError):
            a.submatrix((0, 4))
        with pytest.raises(IndexError):
            a.submatrix((1, 1))
        with pytest.raises(IndexError):
            a.submatrix((0,))

    @pytest.mark.parametrize("rows", [[0.9, 1.7], ["0", 2.5], (0.0, 1.0)])
    def test_non_integer_rows_rejected(self, rows):
        # Truncating them with int() would read [0.9, 1.7] as rows (0, 1).
        a = extremal_matrix()
        for call in (a.submatrix, lambda r: principal_angle(a, r)):
            with pytest.raises(IndexError, match="row_set must be a collection of integers"):
                call(rows)

    def test_numpy_integer_rows_accepted(self):
        a = extremal_matrix()
        np.testing.assert_array_equal(a.submatrix(np.array([0, 2])), a.submatrix((0, 2)))
        assert principal_angle(a, np.arange(2)) == principal_angle(a, (0, 1))

    @pytest.mark.parametrize("rows", [(True, False), (False, True), [0, True], (np.bool_(True), 0)])
    def test_bool_rows_rejected(self, rows):
        # operator.index reads True and False as rows 1 and 0.
        a = extremal_matrix()
        for call in (a.submatrix, lambda r: principal_angle(a, r)):
            with pytest.raises(IndexError, match="row_set must be a collection of integers"):
                call(rows)


# The public entry points that read an array of real entries.
_ARRAY_CALLS = [
    lambda m: StiefelMatrix(m),
    lambda m: orthonormalize(m),
    lambda m: sigma_min(m[:2]),
    lambda m: gram_deviation(m),
    lambda m: block_sigmas(m, [(0, 1)]),
    lambda m: format_matrix(m),
]


class TestFrameGate:
    @pytest.mark.parametrize(
        "function, args",
        [
            (best_submatrix, ()),
            (principal_angle, ((0, 1),)),
            (objective, ()),
            (local_descent, ()),
            (pluecker4x2, ()),
            (cs_decompose, ()),
        ],
    )
    def test_rejects_plain_array(self, function, args):
        with pytest.raises(TypeError) as info:
            function(np.eye(4)[:, :2], *args)
        assert str(info.value) == f"{function.__name__} expects a StiefelMatrix"

    @pytest.mark.parametrize("function", [pluecker4x2, cs_decompose])
    def test_4x2_only(self, function):
        with pytest.raises(DimensionError) as info:
            function(StiefelMatrix(np.eye(5)[:, :2]))
        assert str(info.value) == "expected a 4x2 frame, got 5x2"

    @pytest.mark.parametrize(
        "call",
        [
            lambda: haar_sample(2, 3, 0),
            lambda: row_subsets(2, 3),
            lambda: block_sigmas(np.ones((2, 3)), [(0, 1, 2)]),
            lambda: haar_samples(2, 3, [0]),
            lambda: haar_samples(2, 3, []),
        ],
    )
    def test_shape_rule(self, call):
        with pytest.raises(DimensionError) as info:
            call()
        assert str(info.value) == "need 1 <= k <= n, got n=2, k=3"

    @pytest.mark.parametrize(
        "n, k, name",
        [(4, True, "k"), (True, 1, "n"), (4.0, 2, "n"), (4, 2.0, "k"), ("4", 2, "n"), (4, None, "k")],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda n, k: row_subsets(n, k),
            lambda n, k: haar_sample(n, k, 0),
            lambda n, k: haar_samples(n, k, [0]),
            lambda n, k: stiefel._subset_array(n, k),
        ],
    )
    def test_shape_must_be_integers(self, call, n, k, name):
        # True would read as 1: row_subsets(4, True) gave the 1-subsets
        # and haar_sample(3, True, 0) failed inside numpy.
        with pytest.raises(TypeError) as info:
            call(n, k)
        assert str(info.value) == f"{name} must be an integer, got {(n, k)[name == 'k']!r}"

    def test_numpy_integer_shape_accepted(self):
        assert row_subsets(np.int64(4), np.int32(2)) == row_subsets(4, 2)

    @pytest.mark.parametrize("call", _ARRAY_CALLS)
    def test_rejects_complex_entries(self, call):
        # A cast to float would keep only the real part: the extremal
        # frame times 1 + 1j has real part the extremal frame itself.
        m = extremal_matrix().values * (1 + 1j)
        with pytest.raises(TypeError) as info:
            call(m)
        assert str(info.value) == "expected real entries, got dtype complex128"

    @pytest.mark.parametrize("call", _ARRAY_CALLS)
    @pytest.mark.parametrize(
        "m",
        [
            # Strings and bytes were parsed as numbers, timedeltas read as
            # their tick counts and objects cast one by one.
            extremal_matrix().values.astype(str),
            extremal_matrix().values.astype(bytes),
            np.eye(4, 2, dtype="m8[s]"),
            extremal_matrix().values.astype(object),
        ],
        ids=["str", "bytes", "timedelta", "object"],
    )
    def test_rejects_non_numeric_entries(self, call, m):
        with pytest.raises(TypeError) as info:
            call(m)
        assert str(info.value) == f"expected real entries, got dtype {m.dtype}"


class TestGramDeviation:
    def test_exact_frame_is_zero(self):
        assert gram_deviation(np.eye(5)[:, :3]) == 0.0

    def test_scaled_column(self):
        a = np.eye(4)[:, :2] * np.array([1.0, 2.0])
        assert gram_deviation(a) == pytest.approx(3.0)

    @pytest.mark.parametrize("values", [[[[1.0]]], [1.0, 0.0], 1.0])
    def test_rejects_non_2d(self, values):
        with pytest.raises(DimensionError, match="expected a 2-d array"):
            gram_deviation(values)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
    def test_rejects_no_columns(self, shape):
        # A norm over an empty A^T A has no maximum: reject the input, as
        # for non-2-d input, rather than leak numpy's reduction error.
        with pytest.raises(DimensionError, match="expected at least one column"):
            gram_deviation(np.zeros(shape))

    def test_no_rows_is_far_from_orthonormal(self):
        # Zero rows give A^T A = 0: every column misses unit norm by 1.
        assert gram_deviation(np.zeros((0, 3))) == 1.0


class TestSigmaMin:
    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.standard_normal((4, 4))
            assert sigma_min(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[-1], abs=1e-12)

    def test_2x2_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = rng.standard_normal((2, 2))
            assert sigma_min(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[-1], abs=1e-12)

    def test_singular_matrix(self):
        assert sigma_min(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-15)
        assert sigma_min(np.zeros((2, 2))) == 0.0

    def test_2x2_near_singular_relative_accuracy(self):
        # The smaller Gram eigenvalue cancels to 0 here; |det| / sigma_max
        # keeps the value to relative accuracy.
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]]) / math.sqrt(2.0)
        expected = np.linalg.svd(m, compute_uv=False)[-1]
        assert sigma_min(m) == pytest.approx(expected, rel=1e-6)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            sigma_min(np.ones((3, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            sigma_min(np.zeros((0, 0)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, k, bad):
        m = np.eye(k)
        m[0, 0] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            sigma_min(m)

    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 4):
            for _ in range(100):
                m = rng.standard_normal((k, k))
                assert sigma_min(m) == subset_sigma(m, range(k), k)


class TestOrthonormalize:
    def test_result_is_frame(self):
        rng = np.random.default_rng(0)
        a = orthonormalize(rng.standard_normal((6, 3)))
        assert gram_deviation(a.values) < 1e-14
        assert_package_frame(a)

    @pytest.mark.parametrize("n, k", [(4, 2), (6, 3), (5, 1), (3, 3)])
    def test_near_rank_threshold_is_frame(self, n, k):
        # Smallest singular value 1e-9, ten times RANK_TOL: accepted, and
        # the Q factor of so ill-conditioned an input is still a frame.
        rng = np.random.default_rng(n * 10 + k)
        u = np.linalg.qr(rng.standard_normal((n, k)))[0]
        v = np.linalg.qr(rng.standard_normal((k, k)))[0]
        m = (u * np.r_[np.ones(k - 1), 1e-9]) @ v.T
        smallest = np.linalg.svd(m, compute_uv=False)[-1]
        assert smallest == pytest.approx(1e-9, rel=1e-3)
        assert smallest > stiefel.RANK_TOL
        assert_package_frame(orthonormalize(m))

    def test_positive_diagonal_convention(self):
        # QR sign fix makes the factor of an already-orthonormal input itself.
        q = orthonormalize(np.eye(4)[:, :2]).values
        np.testing.assert_allclose(q, np.eye(4)[:, :2], atol=1e-15)
        # On a general input, R = Q^T M has a positive diagonal.
        m = np.random.default_rng(2).standard_normal((6, 4))
        assert (np.diagonal(orthonormalize(m).values.T @ m) > 0.0).all()

    def test_span_preserved(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 2))
        q = orthonormalize(m).values
        # Residual of projecting m onto span(q) must vanish.
        resid = m - q @ (q.T @ m)
        assert np.max(np.abs(resid)) < 1e-12

    def test_rank_deficient_rejected(self):
        m = np.ones((4, 2))
        with pytest.raises(RankDeficient):
            orthonormalize(m)

    @pytest.mark.parametrize(
        "values, error, message",
        [
            (np.ones(4), DimensionError, "expected a 2-d array, got ndim=1"),
            (np.ones((2, 3)), DimensionError, "need 1 <= k <= n, got n=2, k=3"),
            (np.ones((3, 0)), DimensionError, "need 1 <= k <= n, got n=3, k=0"),
            (np.array([[np.nan], [1.0]]), ValueError, "matrix entries must be finite"),
        ],
    )
    def test_rejects_like_constructor(self, values, error, message):
        for build in (orthonormalize, StiefelMatrix):
            with pytest.raises(error) as info:
                build(values)
            assert str(info.value) == message


FRAME_SHAPES = [(1, 1), (5, 1), (4, 2), (7, 3), (3, 3), (6, 6), (10, 4), (12, 11)]


class TestHaarSample:
    def test_shape_and_orthonormality(self):
        for n, k in FRAME_SHAPES:
            for seed in range(20):
                a = haar_sample(n, k, seed=seed)
                assert (a.n, a.k) == (n, k)
                assert gram_deviation(a.values) < 1e-14
                assert_package_frame(a)

    def test_seed_reproducible(self):
        a = haar_sample(5, 2, seed=42)
        b = haar_sample(5, 2, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seeds_differ(self):
        a = haar_sample(5, 2, seed=0)
        b = haar_sample(5, 2, seed=1)
        assert np.max(np.abs(a.values - b.values)) > 1e-3

    def test_equals_orthonormalized_draw(self):
        # haar_sample skips orthonormalize's rank test, not its arithmetic:
        # the frames agree bit for bit, sign bits included.
        cases = [((4, 2), 2000)] + [
            (shape, 300) for shape in [(5, 3), (6, 1), (6, 6), (3, 3), (10, 4), (7, 2), (1, 1)]
        ]
        for (n, k), seeds in cases:
            for seed in range(seeds):
                draw = np.random.default_rng(seed).standard_normal((n, k))
                expected = orthonormalize(draw).values.tobytes()
                assert haar_sample(n, k, seed).values.tobytes() == expected, (n, k, seed)


class TestHaarSamples:
    @pytest.mark.parametrize(
        "n, k, seeds",
        [(4, 2, range(2000))]
        + [(n, k, range(25)) for n, k in [(5, 3), (6, 3), (8, 4), (10, 1), (3, 3)]],
    )
    def test_equals_haar_sample_bitwise(self, n, k, seeds):
        # The stacked path that criterion 2 takes: each row is the one-seed
        # frame byte for byte, and each stacked maximum is its best value.
        frames = haar_samples(n, k, seeds)
        assert frames.shape == (len(seeds), n, k)
        best = block_sigmas(frames, row_subsets(n, k)).max(-1)
        for i, seed in enumerate(seeds):
            frame = haar_sample(n, k, seed)
            assert frames[i].tobytes() == frame.values.tobytes(), seed
            assert best[i] == best_submatrix(frame).sigma_min, seed

    @pytest.mark.parametrize("n, k", FRAME_SHAPES)
    def test_rows_are_frames(self, n, k):
        frames = haar_samples(n, k, range(20))
        for values in frames:
            assert_frame_values(values)
        # Each frame's R = Q^T (draw) has a positive diagonal.
        draws = np.array([np.random.default_rng(s).standard_normal((n, k)) for s in range(20)])
        assert (np.diagonal(frames.swapaxes(-1, -2) @ draws, axis1=-2, axis2=-1) > 0.0).all()

    def test_seeds_may_be_any_iterable(self):
        expected = haar_samples(4, 2, [3, 1, 4])
        assert haar_samples(4, 2, (s for s in (3, 1, 4))).tobytes() == expected.tobytes()
        assert haar_samples(4, 2, np.array([3, 1, 4])).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, k", [(1, 1), (4, 2), (6, 6)])
    def test_no_seeds(self, n, k):
        frames = haar_samples(n, k, [])
        assert frames.shape == (0, n, k)
        assert frames.dtype == np.float64

    @pytest.mark.parametrize(
        "seed, error",
        [
            (-1, ValueError),
            (-(2**70), ValueError),
            (1.5, TypeError),
            ("7", TypeError),
            (None, TypeError),
            (True, TypeError),
            ([1, 2], TypeError),
        ],
    )
    def test_rejects_seeds_like_haar_sample(self, seed, error):
        with pytest.raises(error) as single:
            haar_sample(4, 2, seed)
        for seeds in ([seed], [0, 1, seed]):
            with pytest.raises(error) as stacked:
                haar_samples(4, 2, seeds)
            assert str(stacked.value) == str(single.value)


class TestBestSubmatrix:
    def test_extremal_frame_values(self):
        rep = best_submatrix(extremal_matrix())
        assert rep.sigma_min == pytest.approx(0.5, abs=1e-14)
        assert rep.row_set == (0, 1)
        sigmas = sorted(entry["sigma_min"] for entry in rep.to_dict()["all_values"])
        assert sigmas[0] == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(sigmas[1:], 0.5, atol=1e-14)

    def test_identity_embedding(self):
        rep = best_submatrix(StiefelMatrix(np.eye(5)[:, :2]))
        assert rep.sigma_min == pytest.approx(1.0)
        assert rep.row_set == (0, 1)

    def test_matches_exhaustive_svd(self):
        rng_seeds = range(10)
        for seed in rng_seeds:
            a = haar_sample(6, 3, seed=seed)
            rep = best_submatrix(a)
            best = max(
                itertools.combinations(range(6), 3),
                key=lambda rows: np.linalg.svd(a.values[list(rows)], compute_uv=False)[-1],
            )
            expected = np.linalg.svd(a.values[list(best)], compute_uv=False)[-1]
            assert rep.sigma_min == pytest.approx(expected, abs=1e-12)

    def test_determinant_consistent(self):
        a = haar_sample(5, 2, seed=3)
        rep = best_submatrix(a)
        det = np.linalg.det(a.values[list(rep.row_set)])
        assert rep.determinant == pytest.approx(det, abs=1e-14)
        assert abs(rep.determinant) >= rep.sigma_min ** 2 - 1e-14

    def test_requires_stiefel_matrix(self):
        with pytest.raises(TypeError):
            best_submatrix(np.eye(4)[:, :2])

    def test_enumeration_cap(self):
        a = haar_sample(40, 20, seed=0)
        with pytest.raises(EnumerationCapExceeded):
            best_submatrix(a)

    def test_k1_uses_abs_entries(self):
        a = haar_sample(6, 1, seed=9)
        rep = best_submatrix(a)
        assert rep.sigma_min == pytest.approx(np.max(np.abs(a.values)), abs=1e-15)

    def test_lower_bound_holds_on_samples(self):
        # Conjectured floor 1/sqrt(n); random frames sit well above it.
        for seed in range(25):
            a = haar_sample(4, 2, seed=seed)
            assert best_submatrix(a).sigma_min >= 0.5 - 1e-9

    @pytest.mark.parametrize("n, k", [(5, 1), (5, 4), (6, 3), (7, 2), (8, 4), (6, 6)])
    def test_max_volume_bound(self, n, k):
        # The maximum-volume block has sigma_min >= 1/sqrt(k(n - k) + 1)
        # (Goreinov, Tyrtyshnikov, Zamarashkin 1997), so the best block
        # does too; at k = n every block is orthogonal and attains it.
        bound = 1.0 / math.sqrt(k * (n - k) + 1)
        for seed in range(50):
            best = best_submatrix(haar_sample(n, k, seed=seed)).sigma_min
            assert best >= bound - 1e-12
            if k == n:
                assert best == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "values, row_set, tied",
        [
            (np.ones((3, 1)) / math.sqrt(3.0), (0,), 3),
            (np.vstack([np.eye(2), np.eye(2)]) / math.sqrt(2.0), (0, 1), 4),
            (np.vstack([np.eye(3), np.eye(3)]) / math.sqrt(2.0), (0, 1, 2), 8),
        ],
    )
    def test_ties_go_to_first_subset(self, values, row_set, tied):
        rep = best_submatrix(StiefelMatrix(values))
        assert rep.row_set == row_set
        assert sum(s == rep.sigma_min for _, s in rep.all_values) == tied

    @pytest.mark.parametrize("n, k", [(5, 1), (5, 2), (6, 3), (7, 4), (6, 5), (6, 6)])
    def test_all_values_equal_reference(self, n, k):
        for seed in range(5):
            a = haar_sample(n, k, seed=seed)
            assert best_submatrix(a).all_values == all_values(a)

    def test_near_singular_descent_endpoints_equal_reference(self):
        # Descent endpoints hold near-singular blocks, which take the SVD
        # fallback; the kernel must still give the reference floats.
        params = SearchParams(restarts=1, max_iters=300)
        near = 0
        for seed in range(4):
            a, _ = local_descent(haar_sample(5, 3, seed=seed), params)
            values = all_values(a)
            assert best_submatrix(a).all_values == values
            near += sum(s < 1e-3 for _, s in values)
        assert near > 0


    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_k_is_n_minus_1_gives_max_complement_entry(self, n):
        # Deleting row i leaves B with B^T B = I - a_i a_i^T, whose smallest
        # eigenvalue is 1 - |a_i|^2 = u_i^2 for the unit complement u.
        for seed in range(50):
            a = haar_sample(n, n - 1, seed=seed)
            u = np.linalg.svd(a.values)[0][:, -1]
            best = best_submatrix(a).sigma_min
            assert best == pytest.approx(np.max(np.abs(u)), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_k1_gives_max_abs_entry(self, n):
        for seed in range(50):
            a = haar_sample(n, 1, seed=seed)
            assert best_submatrix(a).sigma_min == np.max(np.abs(a.values))


# Seed 5760 is the first 4x2 Haar frame on which a math.hypot float loop
# and the kernel's np.hypot rounded one ulp apart.
ONE_VALUE_SEEDS = [*range(2000), 5760]


class TestOneValuePerBlockAtK2:
    # best_submatrix's k = 2 float loop gives the kernel's floats bit for
    # bit, and its determinant is the Pluecker minor of the winning rows.
    def test_objective_equals_best_value(self):
        for seed in ONE_VALUE_SEEDS:
            a = haar_sample(4, 2, seed=seed)
            assert objective(a) == best_submatrix(a).sigma_min

    def test_all_values_equal_kernel_4x2(self):
        subsets = row_subsets(4, 2)
        for seed in ONE_VALUE_SEEDS:
            a = haar_sample(4, 2, seed=seed)
            got = [s for _, s in best_submatrix(a).all_values]
            assert got == block_sigmas(a.values, subsets).tolist()

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_all_values_equal_kernel(self, n):
        subsets = row_subsets(n, 2)
        for seed in range(200):
            a = haar_sample(n, 2, seed=seed)
            got = [s for _, s in best_submatrix(a).all_values]
            assert got == block_sigmas(a.values, subsets).tolist()

    def test_determinant_is_pluecker_minor(self):
        subsets = row_subsets(4, 2)
        for seed in ONE_VALUE_SEEDS:
            a = haar_sample(4, 2, seed=seed)
            rep = best_submatrix(a)
            minors = pluecker4x2(a).as_tuple()
            assert rep.determinant == minors[subsets.index(rep.row_set)]


class TestRowSubsets:
    def test_lexicographic(self):
        assert row_subsets(4, 2) == list(itertools.combinations(range(4), 2))

    @pytest.mark.parametrize("n, k", [(3, 5), (3, 0), (0, 0), (3, -1)])
    def test_rejects_k_outside_1_to_n(self, n, k):
        with pytest.raises(DimensionError, match="need 1 <= k <= n"):
            row_subsets(n, k)
        with pytest.raises(DimensionError, match="need 1 <= k <= n"):
            stiefel._subset_array(n, k)

    @pytest.mark.parametrize("n, k", [(1, 1), (4, 4), (6, 1), (7, 3), (9, 4)])
    def test_index_array_is_the_list(self, n, k):
        # objective and the descent take the (S, k) array straight from
        # the combinations, with no list of tuples in between.
        got = stiefel._subset_array(n, k)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, np.array(row_subsets(n, k)))

    def test_index_array_cap(self):
        # C(1415, 2) is just over the cap, so the array is refused.
        with pytest.raises(EnumerationCapExceeded, match=r"C\(1415, 2\) = 1000405 exceeds"):
            stiefel._subset_array(1415, 2)


def _svd_sigmas(frames, subsets):
    blocks = frames[..., np.array(subsets), :]
    return np.linalg.svd(blocks, compute_uv=False)[..., -1]


class TestBlockSigmas:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_svd(self, k):
        # k = 1, the closed form at 2, eigvalsh at 3 and k = n - 1, on a
        # (2, 3) stack of frames.
        frames = np.stack([haar_sample(6, k, seed=s).values for s in range(6)])
        frames = frames.reshape(2, 3, 6, k)
        subsets = row_subsets(6, k)
        got = block_sigmas(frames, subsets)
        assert got.shape == (2, 3, len(subsets))
        np.testing.assert_allclose(got, _svd_sigmas(frames, subsets), rtol=0, atol=1e-12)

    def test_equals_scalar_path_at_k3(self):
        # Same Gram product and eigvalsh per block: identical floats.
        a = haar_sample(6, 3, seed=2)
        expected = [s for _, s in all_values(a)]
        np.testing.assert_array_equal(block_sigmas(a.values, row_subsets(6, 3)), expected)

    def test_near_singular_blocks(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9], [1.0, -1.0]]) / math.sqrt(2.0)
        subsets = row_subsets(3, 2)
        got = block_sigmas(m, subsets)
        expected = _svd_sigmas(m, subsets)
        np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-12)
        assert got[0] > 0.0
        assert block_sigmas(np.zeros((3, 2)), subsets).tolist() == [0.0, 0.0, 0.0]

    def test_nan_block_is_nan(self):
        # A NaN entry must not read as a singular block.
        m = np.array([[np.nan, 0.0], [0.0, 1.0], [1.0, 0.0]])
        got = block_sigmas(m, row_subsets(3, 2))
        assert np.isnan(got[:2]).all()
        assert got[2] == 1.0

    def test_near_singular_k3_matches_svd(self):
        # Third row = row 0 + row 1 + 1e-10 noise: the square root of the
        # smallest Gram eigenvalue errs by up to ~1e-7 here, so these
        # blocks must come from the SVD.  Interleaved with well-conditioned
        # blocks, which keep the eigenvalue path.
        rng = np.random.default_rng(17)
        near = rng.standard_normal((200, 3, 3))
        near[:, 2] = near[:, 0] + near[:, 1] + 1e-10 * rng.standard_normal((200, 3))
        mats = np.stack([near, rng.standard_normal((200, 3, 3))], axis=1).reshape(400, 3, 3)
        expected = np.linalg.svd(mats, compute_uv=False)[:, -1]
        stacked = block_sigmas(mats, [(0, 1, 2)])[:, 0]
        scalar = np.array([subset_sigma(m, (0, 1, 2), 3) for m in mats])
        np.testing.assert_allclose(stacked, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(stacked, scalar)

    def test_chunked_equals_whole(self, monkeypatch):
        frames = np.stack([haar_sample(6, 3, seed=s).values for s in range(4)])
        subsets = row_subsets(6, 3)
        whole = block_sigmas(frames, subsets)
        monkeypatch.setattr(stiefel, "KERNEL_CHUNK_ENTRIES", 7 * 4 * 9)
        np.testing.assert_array_equal(block_sigmas(frames, subsets), whole)

    @pytest.mark.parametrize("n, k", [(5, 1), (7, 2), (6, 3), (8, 4)])
    def test_block_floats_independent_of_subset_list(self, n, k):
        # The descent's Weyl pruning scores only some blocks and must get
        # the same floats: a block's value may not depend on which other
        # blocks share the call.  Single frames and stacks of rotation
        # proposals, with near-singular blocks (the SVD fallback at
        # k >= 3: row k - 1 is nearly the sum of the rows above it, and
        # the QR factor keeps that relation).
        rng = np.random.default_rng(10 * n + k)
        subsets = np.array(row_subsets(n, k))
        frames = [haar_sample(n, k, seed=s).values for s in range(2)]
        for s in range(2):
            draw = rng.standard_normal((n, k))
            draw[k - 1] = draw[: k - 1].sum(axis=0) + 1e-9 * rng.standard_normal(k)
            frames.append(orthonormalize(draw).values)
        if k >= 3:
            assert block_sigmas(frames[-1], subsets).min() < 1e-6
        c, s = math.cos(0.3), math.sin(0.3)
        proposals = []
        for frame in frames:
            for i, j in itertools.combinations(range(n), 2):
                rotated = frame.copy()
                rotated[i] = c * frame[i] - s * frame[j]
                rotated[j] = s * frame[i] + c * frame[j]
                proposals.append(rotated)
        stacks = [np.stack(proposals), np.stack(proposals).reshape(len(frames), -1, n, k)]
        for arr in [*frames, *stacks]:
            whole = block_sigmas(arr, subsets)
            for _ in range(6):
                mask = rng.random(len(subsets)) < rng.random()
                np.testing.assert_array_equal(block_sigmas(arr, subsets[mask]), whole[..., mask])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ragged_gather_equals_per_frame(self, k):
        # The descent scores a ragged selection of blocks from many
        # proposal frames in one _chunk_sigmas call: each block's float
        # must equal block_sigmas on its own frame, whatever blocks share
        # the call and in whatever order.  Block 0 of the last two frames
        # is near singular (its row k - 1 is nearly the sum of the rows
        # above), which takes the SVD at k >= 3.
        n = k + 3
        rng = np.random.default_rng(k)
        subsets = np.array(row_subsets(n, k))
        frames = [haar_sample(n, k, seed=s).values for s in range(3)]
        for _ in range(2):
            draw = rng.standard_normal((n, k))
            draw[k - 1] = draw[: k - 1].sum(axis=0) + 1e-9 * rng.standard_normal(k)
            frames.append(orthonormalize(draw).values)
        per_frame = np.array([block_sigmas(frame, subsets) for frame in frames])
        chosen = rng.random(per_frame.shape) < 0.6
        chosen[-2:, 0] = True
        which, blocks = np.nonzero(chosen)
        order = rng.permutation(len(which))
        which, blocks = which[order], blocks[order]
        gathered = np.array(frames)[which[:, None], subsets[blocks]]
        got = stiefel._chunk_sigmas(gathered)
        assert got.tobytes() == per_frame[which, blocks].tobytes()
        if k >= 3:
            lam = np.linalg.eigvalsh(gathered.swapaxes(-1, -2) @ gathered)
            assert (lam[:, 0] <= stiefel.GRAM_RATIO_FLOOR * lam[:, -1]).sum() >= 2

    def test_rejects_bad_input(self):
        frame = haar_sample(4, 2, seed=0).values
        with pytest.raises(DimensionError):
            block_sigmas(frame, [(0, 1, 2)])
        with pytest.raises(DimensionError):
            block_sigmas(frame[0], [(0,)])
        with pytest.raises(IndexError):
            block_sigmas(frame, [(0, 4)])
        with pytest.raises(IndexError):
            block_sigmas(frame, [(-1, 0)])
        with pytest.raises(IndexError):
            block_sigmas(frame, [(0.5, 1.0)])


class TestPrincipalAngle:
    def test_identity_block_is_zero(self):
        a = StiefelMatrix(np.eye(4)[:, :2])
        assert principal_angle(a, (0, 1)) == pytest.approx(0.0, abs=1e-7)

    def test_matches_sigma(self):
        a = haar_sample(5, 2, seed=5)
        for rows in itertools.combinations(range(5), 2):
            s = np.linalg.svd(a.values[list(rows)], compute_uv=False)[-1]
            assert principal_angle(a, rows) == pytest.approx(math.acos(min(1.0, s)), abs=1e-12)


class TestExtremalMatrix:
    def test_exact_entries(self):
        e = extremal_matrix().values
        expected = np.array(
            [
                [math.sqrt(0.5), math.sqrt(0.125)],
                [-math.sqrt(0.5), math.sqrt(0.125)],
                [0.0, math.sqrt(0.375)],
                [0.0, math.sqrt(0.375)],
            ]
        )
        np.testing.assert_array_equal(e, expected)

    def test_orthonormal_to_machine_precision(self):
        assert gram_deviation(extremal_matrix().values) < 1e-15


# Characters other than LF, space and tab at which str.splitlines breaks
# lines or str.split splits tokens; a CR is stripped only where it ends a
# line.
_FOREIGN_SEPARATORS = "\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


class TestMatrixFormat:
    def test_roundtrip_exact(self):
        a = haar_sample(6, 3, seed=2).values
        again = parse_matrix(format_matrix(a))
        np.testing.assert_array_equal(again, a)

    def test_header(self):
        text = format_matrix(np.eye(3)[:, :2])
        assert text.splitlines()[0] == "3 2"
        assert text.endswith("\n")

    def test_entries_are_serialize_floats(self):
        # The same ".17e" text as the JSON reports, signed zero included.
        text = format_matrix(np.array([[0.5, -0.0], [5e-324, -1.0 / 3.0]]))
        assert text == (
            "2 2\n"
            "5.00000000000000000e-01 -0.00000000000000000e+00\n"
            "4.94065645841246544e-324 -3.33333333333333315e-01\n"
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # Such a file would hold no frame; it was written as "nan" or "inf".
        with pytest.raises(ValueError, match="non-finite"):
            format_matrix(np.array([[1.0, bad]]))

    def test_file_roundtrip(self, tmp_path):
        a = haar_sample(4, 2, seed=8).values
        path = tmp_path / "m.mat"
        save_matrix(path, a)
        np.testing.assert_array_equal(load_matrix(path), a)
        # A file reads as parse_matrix reads its text: CRLF line ends are
        # read, and a lone CR is no line break.
        path.write_bytes(format_matrix(a).replace("\n", "\r\n").encode())
        np.testing.assert_array_equal(load_matrix(path), a)
        path.write_bytes(b"2 1\n1\r0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_matrix(path)

    def test_stream_roundtrip(self):
        a = haar_sample(3, 1, seed=6).values
        buf = io.StringIO()
        save_matrix(buf, a)
        buf.seek(0)
        np.testing.assert_array_equal(load_matrix(buf), a)

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_matrix("x y\n1 2\n")

    def test_parse_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 0\n")

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            parse_matrix("1 2\nfoo bar\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            # The right number of entries, flowed into the wrong rows.
            ("2 2\n1 0 0\n1\n", "line 2"),
            # Everything on the header line.
            ("2 2 1 0 0 1", "line 1"),
            # One row too many.
            ("2 2\n1 0\n0 1\n1 1\n", "line 4"),
            ("2 2\n1 0\nfoo 1\n", "line 3"),
            # Spellings Python's int and float read but format_matrix never
            # writes: "1_0" read as 10, a fullwidth 0 and an Arabic-Indic 1.
            ("1_0 1\n" + "1\n" * 10, "line 1"),
            ("1 1\n\uff10\n", "line 2"),
            ("1 1\n\u0661\n", "line 2"),
            ("1 2\n1 nan\n", "line 2"),
            # Separators other than LF, ASCII space and tab stay inside the
            # token: a no-break space in the header, an ideographic space in
            # a row, and the other characters str.splitlines or str.split
            # break at.
            ("1\xa01\n1\n", "line 1"),
            ("1 2\n1\u30000\n", "line 2"),
            *(("2 1\n1" + sep + "2\n", "line 2") for sep in _FOREIGN_SEPARATORS),
        ],
        ids=[
            "misflowed",
            "one-line",
            "extra-row",
            "non-numeric-row",
            "underscore-header",
            "fullwidth-digit",
            "arabic-indic-digit",
            "nan-entry",
            "nbsp-header",
            "ideographic-space",
            *(f"separator-{ord(sep):04x}" for sep in _FOREIGN_SEPARATORS),
        ],
    )
    def test_parse_rejects_row_structure(self, text, line):
        # The text is read line by line: a header, then n lines of k
        # entries, and the error names the offending line.
        with pytest.raises(ValueError, match=line):
            parse_matrix(text)

    def test_parse_reads_ascii_spellings(self):
        text = "2 2\n+1 0.\n-.5 1.25E+0\n"
        np.testing.assert_array_equal(parse_matrix(text), [[1.0, 0.0], [-0.5, 1.25]])
        crlf = text.replace("\n", "\r\n")
        np.testing.assert_array_equal(parse_matrix(crlf), [[1.0, 0.0], [-0.5, 1.25]])

    def test_parse_skips_blank_lines(self):
        text = "\n2 2\n\n1 0\n  \n0 1\n\n"
        np.testing.assert_array_equal(parse_matrix(text), np.eye(2))
