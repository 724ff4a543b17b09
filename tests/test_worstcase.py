"""
Worst-case search over frames: objective invariance, descent
monotonicity, and multistart convergence to known minima.

Ground truth: the k = 1 minimum is exactly 1/sqrt(n) (some row of a unit
vector has |entry| >= 1/sqrt(n), with equality at the flat vector), and
the (4, 2) minimum is 1/2 at the attaining frame.
"""
import itertools
import math

import numpy as np
import pytest

from goodsub import (
    DimensionError,
    SearchParams,
    StiefelMatrix,
    WorstCaseResult,
    best_submatrix,
    extremal_matrix,
    haar_sample,
    local_descent,
    multistart_search,
    objective,
    parse_matrix,
    sigma_min,
)

FAST = SearchParams(restarts=4, max_iters=200, stop_step=1e-5)


class TestObjective:
    def test_matches_best_submatrix(self):
        for seed in range(10):
            a = haar_sample(5, 2, seed=seed)
            assert objective(a) == pytest.approx(best_submatrix(a).sigma_min, abs=1e-15)

    def test_rotation_invariant(self):
        a = haar_sample(4, 2, seed=3)
        theta = 1.1
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        b = StiefelMatrix(a.values @ rot)
        assert objective(a) == pytest.approx(objective(b), abs=1e-13)

    def test_equals_scalar_path_at_k3(self):
        for seed in range(20):
            a = haar_sample(5, 3, seed=seed)
            assert objective(a) == best_submatrix(a).sigma_min

    def test_scalar_path_agreement_at_k1_k2(self):
        # Equal at k = 1 (k = 3 above); at k = 2 np.hypot in the kernel and
        # math.hypot in best_submatrix may round apart by one ulp (the
        # first such 4x2 Haar frame among seeds 0-19999 is 5760).
        for seed in range(20):
            a = haar_sample(5, 1, seed=seed)
            assert objective(a) == best_submatrix(a).sigma_min
        for seed in [*range(200), 5760]:
            a = haar_sample(4, 2, seed=seed)
            ref = best_submatrix(a).sigma_min
            assert abs(objective(a) - ref) <= np.spacing(ref)

    def test_extremal_value(self):
        assert objective(extremal_matrix()) == pytest.approx(0.5, abs=1e-15)

    def test_requires_stiefel_matrix(self):
        with pytest.raises(TypeError):
            objective(np.eye(4)[:, :2])


class TestSearchParams:
    def test_defaults(self):
        p = SearchParams()
        assert p.restarts == 64
        assert p.max_iters == 2000
        assert p.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchParams(restarts=0)
        with pytest.raises(ValueError):
            SearchParams(initial_step=0.0)
        with pytest.raises(ValueError):
            SearchParams(step_shrink=1.0)
        with pytest.raises(ValueError):
            SearchParams(stop_step=0.0)
        with pytest.raises(ValueError):
            SearchParams(max_iters=-1)


class TestLocalDescent:
    def test_never_increases(self):
        a = haar_sample(4, 2, seed=5)
        start_val = objective(a)
        final, val = local_descent(a, FAST)
        assert val <= start_val + 1e-15
        assert objective(final) == pytest.approx(val, abs=1e-15)

    def test_callback_strictly_decreasing(self):
        seen = []
        a = haar_sample(4, 2, seed=6)
        local_descent(a, FAST, callback=lambda it, v: seen.append((it, v)))
        values = [v for _, v in seen]
        assert all(b < a for a, b in zip(values, values[1:]))
        iters = [it for it, _ in seen]
        assert all(b > a for a, b in zip(iters, iters[1:]))

    def test_result_is_frame(self):
        final, _ = local_descent(haar_sample(5, 3, seed=7), FAST)
        assert isinstance(final, StiefelMatrix)

    def test_deterministic(self):
        a = haar_sample(4, 2, seed=8)
        r1 = local_descent(a, FAST)
        r2 = local_descent(a, FAST)
        np.testing.assert_array_equal(r1[0].values, r2[0].values)
        assert r1[1] == r2[1]

    def test_zero_iters_returns_start(self):
        a = haar_sample(4, 2, seed=9)
        p = SearchParams(restarts=1, max_iters=0)
        final, val = local_descent(a, p)
        np.testing.assert_array_equal(final.values, a.values)
        assert val == pytest.approx(objective(a), abs=1e-15)

    def test_requires_stiefel_matrix(self):
        with pytest.raises(TypeError):
            local_descent(np.eye(4)[:, :2], FAST)


def _reference_descent(a0, p, callback):
    # The descent as a loop over proposals and blocks, one scalar
    # sigma_min per block, in (pair, +sign then -sign) order.
    def value(arr):
        subsets = itertools.combinations(range(arr.shape[0]), arr.shape[1])
        return max(sigma_min(arr[list(rows)]) for rows in subsets)

    def qr_fix(arr):
        q, r = np.linalg.qr(arr)
        d = np.sign(np.diagonal(r)).copy()
        d[d == 0] = 1.0
        return q * d

    arr = np.array(a0.values)
    val = value(arr)
    step = p.initial_step
    it = 0
    while it < p.max_iters and step >= p.stop_step:
        it += 1
        c = math.cos(step)
        s = math.sin(step)
        best_val = val
        best_arr = None
        for i, j in itertools.combinations(range(arr.shape[0]), 2):
            for sign in (1.0, -1.0):
                cand = arr.copy()
                cand[i] = c * arr[i] - sign * s * arr[j]
                cand[j] = sign * s * arr[i] + c * arr[j]
                v = value(cand)
                if v < best_val:
                    best_val = v
                    best_arr = cand
        if best_arr is None:
            step *= p.step_shrink
            continue
        fixed = qr_fix(best_arr)
        fval = value(fixed)
        if fval < val:
            arr = fixed
            val = fval
            callback(it, val)
        else:
            step *= p.step_shrink
    return arr, val


class TestStackedDescent:
    @pytest.mark.parametrize("n, k, seed", [(5, 3, 0), (5, 3, 1), (5, 3, 2), (6, 3, 0), (6, 3, 1)])
    def test_matches_reference_loop(self, n, k, seed):
        # At k >= 3 the batched kernel does the per-block arithmetic of
        # the loop, so the trajectories agree bit for bit.
        params = SearchParams(restarts=1, max_iters=80)
        a = haar_sample(n, k, seed=seed)
        seen, ref_seen = [], []
        final, val = local_descent(a, params, callback=lambda it, v: seen.append((it, v)))
        ref_arr, ref_val = _reference_descent(a, params, lambda it, v: ref_seen.append((it, v)))
        np.testing.assert_array_equal(final.values, ref_arr)
        assert val == ref_val
        assert seen == ref_seen
        assert len(seen) > 10

    def test_first_of_tied_proposals_wins(self):
        # From e1 at k = 1, the rotations of pairs (0, 1) and (0, 2) with
        # either sign all score cos(step); the first, (0, 1) with +sign,
        # is taken.
        a = StiefelMatrix([[1.0], [0.0], [0.0]])
        final, val = local_descent(a, SearchParams(restarts=1, max_iters=1))
        step = SearchParams().initial_step
        np.testing.assert_allclose(final.values[:, 0], [math.cos(step), math.sin(step), 0.0], atol=1e-15)
        assert val == pytest.approx(math.cos(step), abs=1e-15)


class TestMultistart:
    def test_converges_4_2(self):
        # Light configuration: enough to get within 1e-3 of 1/2.
        params = SearchParams(restarts=8, seed=7)
        result = multistart_search(4, 2, params)
        assert result.best_value == pytest.approx(0.5, abs=1e-3)
        assert result.best_value >= 0.5 - 1e-6

    def test_k1_flat_vector(self):
        # k = 1 minimum is the flat vector with |entries| = 1/sqrt(n).
        params = SearchParams(restarts=4, seed=1)
        result = multistart_search(3, 1, params)
        assert result.best_value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)
        np.testing.assert_allclose(
            np.abs(result.best_matrix.values), 1.0 / math.sqrt(3.0), atol=1e-3
        )

    def test_reproducible(self):
        params = SearchParams(restarts=3, max_iters=100, seed=11)
        r1 = multistart_search(4, 2, params)
        r2 = multistart_search(4, 2, params)
        assert r1.best_value == r2.best_value
        assert r1.per_restart_values == r2.per_restart_values
        np.testing.assert_array_equal(r1.best_matrix.values, r2.best_matrix.values)

    def test_best_is_min_of_restarts(self):
        result = multistart_search(4, 2, SearchParams(restarts=5, max_iters=50, seed=2))
        assert result.best_value == min(result.per_restart_values)
        assert len(result.per_restart_values) == 5
        assert len(result.iterations_used) == 5

    def test_iteration_counts_bounded(self):
        params = SearchParams(restarts=2, max_iters=30, seed=4)
        result = multistart_search(4, 2, params)
        assert all(0 <= used <= 30 for used in result.iterations_used)

    def test_best_matrix_consistent(self):
        result = multistart_search(4, 2, SearchParams(restarts=3, max_iters=100, seed=5))
        assert objective(result.best_matrix) == pytest.approx(result.best_value, abs=1e-15)

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            multistart_search(4, 4)
        with pytest.raises(DimensionError):
            multistart_search(4, 0)

    def test_to_dict_roundtrip(self):
        result = multistart_search(4, 2, SearchParams(restarts=2, max_iters=50, seed=6))
        d = result.to_dict()
        assert isinstance(result, WorstCaseResult)
        assert set(d) == {
            "best_value",
            "best_matrix",
            "per_restart_values",
            "iterations_used",
        }
        np.testing.assert_array_equal(
            parse_matrix(d["best_matrix"]), result.best_matrix.values
        )
