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
    EnumerationCapExceeded,
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
)
from goodsub import stiefel, worstcase
from goodsub.stiefel import block_sigmas, row_subsets
from goodsub.worstcase import INITIAL_STEP, STEP_SHRINK
from descent_reference import full_descent
from frame_checks import assert_package_frame
from sigma_reference import all_values, subset_sigma

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
            assert objective(a) == max(s for _, s in all_values(a))

    def test_scalar_path_agreement_at_k1_k2(self):
        # Equal at k = 1 and k = 2 (k = 3 above).  Seed 5760 is the first
        # 4x2 Haar frame on which a math.hypot float loop and the kernel's
        # np.hypot rounded one ulp apart.
        for seed in range(20):
            a = haar_sample(5, 1, seed=seed)
            assert objective(a) == best_submatrix(a).sigma_min
        for seed in [*range(200), 5760]:
            a = haar_sample(4, 2, seed=seed)
            assert objective(a) == best_submatrix(a).sigma_min

    @pytest.mark.parametrize("n, k", [(5, 1), (5, 2), (6, 2), (6, 3), (7, 3)])
    def test_complement_duality(self, n, k):
        # By the CS decomposition the block of A on rows S and the block
        # of its orthogonal complement on the other rows share their
        # singular values below 1, so the objectives agree.
        for seed in range(100):
            a = haar_sample(n, k, seed=seed)
            q = np.linalg.qr(a.values, mode="complete")[0]
            assert objective(StiefelMatrix(q[:, k:])) == pytest.approx(objective(a), abs=1e-12)

    def test_extremal_value(self):
        assert objective(extremal_matrix()) == pytest.approx(0.5, abs=1e-15)

    def test_requires_stiefel_matrix(self):
        with pytest.raises(TypeError):
            objective(np.eye(4)[:, :2])

    def test_just_under_enumeration_cap(self):
        # C(1414, 2) = 998,991 blocks, under the 10^6 cap: the kernel
        # scores them all in chunks, and the best block clears the
        # maximum-volume bound 1/sqrt(k(n - k) + 1).
        n, k = 1414, 2
        assert math.comb(n, k) == 998_991
        assert objective(haar_sample(n, k, 0)) >= 1.0 / math.sqrt(k * (n - k) + 1)

    def test_just_over_enumeration_cap(self, monkeypatch):
        # C(1415, 2) = 1,000,405 blocks: refused before any block is scored.
        assert math.comb(1415, 2) == 1_000_405
        a = haar_sample(1415, 2, 0)

        def no_work(*args, **kwargs):
            raise AssertionError("block_sigmas ran past the cap")

        monkeypatch.setattr(worstcase, "block_sigmas", no_work)
        with pytest.raises(EnumerationCapExceeded):
            objective(a)


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
            SearchParams(stop_step=0.0)
        with pytest.raises(ValueError):
            SearchParams(max_iters=-1)

    @pytest.mark.parametrize(
        "field, value", [("restarts", 1.5), ("max_iters", 1.5), ("max_iters", 2.0), ("seed", "0")]
    )
    def test_counts_must_be_integers(self, field, value):
        # A float max_iters would run ceil(max_iters) iterations, and a
        # float restarts would fail only inside the restart loop.
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            SearchParams(**{field: value})

    @pytest.mark.parametrize("field", ["restarts", "max_iters", "seed"])
    def test_bool_is_not_a_count(self, field):
        # bool passes the numbers.Integral test: restarts=True ran one
        # restart.
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            SearchParams(**{field: True})

    def test_negative_seed_rejected_at_construction(self):
        # numpy refuses a negative seed only when the first restart
        # draws its frame.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SearchParams(seed=-1)

    def test_stop_step_is_not_a_bool(self):
        # True passed the > 0 test and ran as a step floor of 1.0, so
        # the descent returned its start frame.
        with pytest.raises(TypeError, match="stop_step must be a real number"):
            SearchParams(stop_step=True)
        with pytest.raises(TypeError, match="stop_step must be a real number"):
            SearchParams(stop_step="1e-7")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_stop_step_must_be_finite(self, value):
        # An infinite floor stopped the descent before its first iteration.
        with pytest.raises(ValueError, match="stop_step must be positive and finite"):
            SearchParams(stop_step=value)

    @pytest.mark.parametrize("field", ["initial_step", "step_shrink"])
    def test_step_schedule_is_not_settable(self, field):
        with pytest.raises(TypeError):
            SearchParams(**{field: 0.3})


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
        for n, k, seed in [(5, 3, 7), (4, 2, 5), (4, 1, 3), (6, 5, 2)]:
            final, _ = local_descent(haar_sample(n, k, seed=seed), FAST)
            assert_package_frame(final)

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
        assert_package_frame(final)
        assert final.values is not a.values
        assert val == pytest.approx(objective(a), abs=1e-15)

    def test_requires_stiefel_matrix(self):
        with pytest.raises(TypeError):
            local_descent(np.eye(4)[:, :2], FAST)

    def test_single_row_has_no_proposals(self):
        # At n = 1 there is no pair of rows to rotate: every iteration
        # shrinks the step, and the start frame is returned unchanged.
        seen = []
        a = StiefelMatrix([[1.0]])
        final, val = local_descent(a, callback=lambda it, v: seen.append((it, v)))
        assert final.values.tobytes() == a.values.tobytes()
        assert val == 1.0
        assert seen == []
        p = SearchParams()
        shrinks = math.ceil(math.log(INITIAL_STEP / p.stop_step, 1 / STEP_SHRINK))
        assert worstcase._descent(a.values, 1, 1, p, None)[2] == shrinks


def _reference_descent(a0, p, callback):
    # The descent as a loop over proposals and blocks, one scalar
    # sigma_min per block, in (pair, +sign then -sign) order.
    def value(arr):
        subsets = itertools.combinations(range(arr.shape[0]), arr.shape[1])
        return max(subset_sigma(arr, rows, arr.shape[1]) for rows in subsets)

    def qr_fix(arr):
        q, r = np.linalg.qr(arr)
        d = np.sign(np.diagonal(r)).copy()
        d[d == 0] = 1.0
        return q * d

    arr = np.array(a0.values)
    val = value(arr)
    step = INITIAL_STEP
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
            step *= STEP_SHRINK
            continue
        fixed = qr_fix(best_arr)
        fval = value(fixed)
        if fval < val:
            arr = fixed
            val = fval
            callback(it, val)
        else:
            step *= STEP_SHRINK
    return arr, val


class TestStackedDescent:
    @pytest.mark.parametrize("n, k, seed", [(5, 3, 0), (5, 3, 1), (5, 3, 2), (6, 3, 0), (6, 3, 1)])
    def test_matches_reference_loop(self, n, k, seed):
        # At k >= 3 the batched kernel does the per-block arithmetic of
        # the loop, so the trajectories agree bit for bit.  _descent is the
        # direct path; local_descent runs (5, 3) on the complement.
        params = SearchParams(restarts=1, max_iters=80)
        a = haar_sample(n, k, seed=seed)
        seen, ref_seen = [], []
        final, val, _ = worstcase._descent(
            a.values, n, k, params, lambda it, v: seen.append((it, v))
        )
        ref_arr, ref_val = _reference_descent(a, params, lambda it, v: ref_seen.append((it, v)))
        np.testing.assert_array_equal(final, ref_arr)
        assert val == ref_val
        assert seen == ref_seen
        assert len(seen) > 10

    @pytest.mark.parametrize(
        "n, k, seeds",
        [
            (4, 2, (0, 1, 2)),
            (5, 2, (0, 1, 2)),
            (5, 3, (0, 1, 2)),
            (6, 3, (0, 1)),
            (7, 3, (0, 1)),
            (8, 4, (0, 1)),
            (3, 1, (0, 1, 2)),
            (6, 4, (0, 1)),
            (7, 4, (0, 1)),
        ],
    )
    def test_pruned_matches_full_scoring(self, n, k, seeds):
        # Whole descents at the default settings, down to the step floor:
        # reusing the floats of blocks a proposal leaves alone and scoring
        # only the touched blocks that Weyl's inequality leaves open
        # changes no score, so frames, values, iteration counts and accepted steps
        # equal those of the descent that scores every block, bit for bit.
        p = SearchParams()
        for seed in seeds:
            start = haar_sample(n, k, seed=seed).values
            seen, ref_seen = [], []
            arr, val, used = worstcase._descent(
                start, n, k, p, lambda it, v: seen.append((it, v))
            )
            ref_arr, ref_val, ref_used = full_descent(
                start, n, k, p, lambda it, v: ref_seen.append((it, v))
            )
            assert arr.tobytes() == ref_arr.tobytes()
            assert val == ref_val
            assert used == ref_used < p.max_iters
            assert seen == ref_seen
            assert len(seen) > 10

    @staticmethod
    def _check_pruned_scores(monkeypatch):
        # Make every scoring of the proposals assert that each score is,
        # bit for bit, the maximum over all C(n, k) blocks of that
        # proposal.  Trajectories alone cannot show this: an accepted step
        # is re-scored on every block, so a wrong proposal score is often
        # hidden.  Returns a list of (blocks scored, P C(n, k)) pairs, one
        # per iteration, filled as the descent runs.
        counts, scored = [], []
        chunk_sigmas = worstcase._chunk_sigmas
        proposal_scores = worstcase._proposal_scores

        def counting(blocks):
            scored.append(len(blocks))
            return chunk_sigmas(blocks)

        def checked(frames, cur, reach, moves):
            scored.clear()
            got = proposal_scores(frames, cur, reach, moves)
            count, n, k = frames.shape
            full = block_sigmas(frames, np.array(row_subsets(n, k))).max(axis=-1)
            assert got.tobytes() == full.tobytes()
            counts.append((sum(scored), count * math.comb(n, k)))
            return got

        monkeypatch.setattr(worstcase, "_chunk_sigmas", counting)
        monkeypatch.setattr(worstcase, "_proposal_scores", checked)
        return counts

    @pytest.mark.parametrize("n, k, seed", [(4, 2, 0), (4, 2, 1), (5, 3, 0), (5, 3, 1), (6, 3, 0), (8, 4, 0)])
    def test_pruned_scores_are_full_scores(self, monkeypatch, n, k, seed):
        counts = self._check_pruned_scores(monkeypatch)
        local_descent(haar_sample(n, k, seed=seed))
        assert counts
        assert any(scored < total for scored, total in counts)

    @pytest.mark.parametrize("n, k", [(4, 1), (5, 2), (6, 3)])
    def test_proposal_frames_rotate_two_rows(self, monkeypatch, n, k):
        # Replays a descent's first iterations: proposal m's frame is the
        # current frame with rows i and j of pair m // 2 rotated by +step
        # (even m) or -step (odd m) into the rows full_descent writes, bit
        # for bit, and every other row is the current frame's, though the
        # frames share one buffer across iterations.
        log = []
        proposal_scores = worstcase._proposal_scores

        def recording(frames, *args):
            got = proposal_scores(frames, *args)
            log.append((frames.copy(), int(np.argmin(got))))
            return got

        monkeypatch.setattr(worstcase, "_proposal_scores", recording)
        accepted = set()
        start = haar_sample(n, k, seed=n).values
        worstcase._descent(start, n, k, SearchParams(max_iters=30), lambda it, v: accepted.add(it))
        pairs = list(itertools.combinations(range(n), 2))
        arr, step = start, INITIAL_STEP
        for it, (frames, best) in enumerate(log, start=1):
            assert frames.shape == (2 * len(pairs), n, k)
            c = math.cos(step)
            for m, frame in enumerate(frames):
                i, j = pairs[m // 2]
                s = (-1.0 if m % 2 else 1.0) * math.sin(step)
                rest = [r for r in range(n) if r not in (i, j)]
                assert frame[rest].tobytes() == arr[rest].tobytes()
                assert frame[i].tobytes() == (c * arr[i] - s * arr[j]).tobytes()
                assert frame[j].tobytes() == (s * arr[i] + c * arr[j]).tobytes()
            if it in accepted:
                arr = stiefel._qr_signfixed(frames[best])
            else:
                step *= STEP_SHRINK
        assert len(log) == 30
        assert 0 < len(accepted) < 30

    @pytest.mark.parametrize("frac", [0.75, 0.8, 0.9, 0.95])
    def test_near_tie_keeps_the_rising_block(self, monkeypatch, frac):
        # The column (cos th, sin th) with pi/4 - th = frac * t: the lower
        # block sits between delta = 2 sin(t / 2) and 2 delta below the
        # upper one, and the +t rotation makes it the maximum.  A prune of
        # width delta drops it and scores that proposal too low.
        t = INITIAL_STEP
        th = math.pi / 4 - frac * t
        delta = 2 * math.sin(t / 2)
        assert delta < math.cos(th) - math.sin(th) < 2 * delta
        assert math.sin(th + t) > math.cos(th + t)
        self._check_pruned_scores(monkeypatch)
        final, val = local_descent(StiefelMatrix([[math.cos(th)], [math.sin(th)]]))
        assert val == objective(final)

    @pytest.mark.parametrize("seed, sign", [(26, -1.0), (104, 1.0), (313, 1.0), (313, -1.0)])
    def test_near_tie_within_the_rotated_block(self, monkeypatch, seed, sign):
        # Two orthogonal 3x3 matrices scaled by 1/sqrt(2), stacked into a
        # 6x3 frame: blocks (0, 1, 2) and (3, 4, 5) both have sigma_min
        # 1/sqrt(2), every other block less.  Their floats differ by
        # rounding, (0, 1, 2) the lower, and the rotation of rows 0 and 1,
        # which keeps that block orthogonal, rounds its float above the
        # other's.  Only WEYL_MARGIN keeps the block in that proposal's
        # selection: reusing its old float, or selecting without the
        # margin, scores the proposal too low.
        h = math.sqrt(0.5)
        a = h * np.vstack([haar_sample(3, 3, 2 * seed).values, haar_sample(3, 3, 2 * seed + 1).values])
        subsets = np.array(row_subsets(6, 3))
        c, s = math.cos(INITIAL_STEP), sign * math.sin(INITIAL_STEP)
        rotated = a.copy()
        rotated[0] = c * a[0] - s * a[1]
        rotated[1] = s * a[0] + c * a[1]
        cur = block_sigmas(a, subsets)
        after = block_sigmas(rotated, subsets)
        assert cur[0] < cur[-1] < after[0] == after.max()
        counts = self._check_pruned_scores(monkeypatch)
        final, val = local_descent(StiefelMatrix(a), SearchParams(max_iters=20))
        assert val == objective(final)
        assert counts

    @pytest.mark.parametrize("n, k, seed", [(6, 3, 0), (6, 3, 1), (7, 3, 0), (7, 3, 1)])
    def test_chunked_gather_matches_one_gather(self, monkeypatch, n, k, seed):
        # The selected blocks are gathered in runs of at most
        # KERNEL_CHUNK_ENTRIES block entries.  Runs of three blocks give
        # every proposal score, and so every accepted step, of one gather
        # per iteration, bit for bit.
        def descend():
            # runs: the kernel calls' block counts within each scoring of
            # the proposals (the accepted frame's rescoring is not one).
            scores, steps, runs, inside = [], [], [], []
            proposal_scores = worstcase._proposal_scores
            chunk_sigmas = worstcase._chunk_sigmas

            def counting(blocks):
                if inside:
                    inside[-1].append(len(blocks))
                return chunk_sigmas(blocks)

            def recording(*args):
                inside.append([])
                got = proposal_scores(*args)
                runs.append(inside.pop())
                scores.append(got.tobytes())
                return got

            with monkeypatch.context() as patch:
                patch.setattr(worstcase, "_chunk_sigmas", counting)
                patch.setattr(worstcase, "_proposal_scores", recording)
                local_descent(
                    haar_sample(n, k, seed),
                    SearchParams(max_iters=60),
                    callback=lambda it, v: steps.append((it, v)),
                )
            return scores, steps, runs

        whole, whole_steps, whole_runs = descend()
        monkeypatch.setattr(stiefel, "KERNEL_CHUNK_ENTRIES", 3 * k * k)
        chunked, chunked_steps, chunked_runs = descend()
        assert chunked == whole
        assert chunked_steps == whole_steps and len(whole_steps) > 10
        assert all(len(runs) <= 1 for runs in whole_runs)
        assert max(max(runs, default=0) for runs in chunked_runs) == 3
        assert [sum(runs) for runs in chunked_runs] == [sum(runs) for runs in whole_runs]

    def test_first_of_tied_proposals_wins(self):
        # From e1 at k = 1, the rotations of pairs (0, 1) and (0, 2) with
        # either sign all score cos(step); the first, (0, 1) with +sign,
        # is taken.
        a = StiefelMatrix([[1.0], [0.0], [0.0]])
        final, val = local_descent(a, SearchParams(restarts=1, max_iters=1))
        step = INITIAL_STEP
        np.testing.assert_allclose(final.values[:, 0], [math.cos(step), math.sin(step), 0.0], atol=1e-15)
        assert val == pytest.approx(math.cos(step), abs=1e-15)


class TestComplementRoute:
    # For n/2 < k < n the descent runs at (n, n - k) on the complement.
    ROUTED = [(5, 3), (5, 4), (3, 2), (6, 4), (7, 4)]

    @staticmethod
    def _by_hand(a, p, callback):
        # Complete the frame, descend on the complement, and take the
        # sign-fixed complement of the end frame.
        n, k = a.n, a.k
        q = np.linalg.qr(a.values, mode="complete")[0]
        end, _, _ = worstcase._descent(q[:, k:], n, n - k, p, callback)
        return stiefel._qr_signfixed(np.linalg.qr(end, mode="complete")[0][:, n - k :])

    @pytest.mark.parametrize("n, k", ROUTED)
    def test_equals_complement_descent(self, n, k):
        p = SearchParams(max_iters=300)
        for seed in range(3):
            a = haar_sample(n, k, seed=seed)
            seen, ref_seen = [], []
            final, val = local_descent(a, p, callback=lambda it, v: seen.append((it, v)))
            ref = self._by_hand(a, p, lambda it, v: ref_seen.append((it, v)))
            assert final.values.tobytes() == ref.tobytes()
            assert seen == ref_seen and len(seen) > 10
            # The value is the returned frame's objective, bit for bit, and
            # the complement's last value to rounding.
            assert val == objective(final)
            assert val == pytest.approx(seen[-1][1], abs=1e-12)
            assert val < objective(a)
            assert_package_frame(final)

    @pytest.mark.parametrize("n, k", [(5, 3), (5, 4), (3, 2)])
    @pytest.mark.parametrize("params", [SearchParams(max_iters=0), SearchParams(stop_step=1.0)])
    def test_no_step_returns_start(self, n, k, params):
        # A routed descent that accepts no step returns the start frame
        # and its direct objective, not a round trip through the
        # complement.
        seen = []
        a = haar_sample(n, k, seed=9)
        final, val = local_descent(a, params, callback=lambda it, v: seen.append((it, v)))
        assert final.values.tobytes() == a.values.tobytes()
        assert final.values is not a.values
        assert val == objective(a)
        assert seen == []
        assert_package_frame(final)

    @pytest.mark.parametrize("n, k", [(1, 1), (3, 3), (2, 1), (4, 2), (6, 3), (5, 2), (5, 1)])
    def test_unrouted_shapes_run_direct(self, n, k):
        # k = n and every k <= n/2 run _descent itself.
        p = SearchParams(max_iters=100)
        a = haar_sample(n, k, seed=4)
        seen, ref_seen = [], []
        final, val = local_descent(a, p, callback=lambda it, v: seen.append((it, v)))
        arr, ref_val, _ = worstcase._descent(
            a.values, n, k, p, lambda it, v: ref_seen.append((it, v))
        )
        assert final.values.tobytes() == arr.tobytes()
        assert val == ref_val
        assert seen == ref_seen

    def test_multistart_restarts_are_routed_descents(self):
        p = SearchParams(restarts=8)
        result = multistart_search(5, 3, p)
        assert result.best_value == min(result.per_restart_values) == objective(result.best_matrix)
        assert result.best_value >= 1.0 / math.sqrt(5) - worstcase.FLOOR_TOL
        assert_package_frame(result.best_matrix)
        for i, value in enumerate(result.per_restart_values[:2]):
            final, val = local_descent(haar_sample(5, 3, p.seed + i), p)
            assert value == val == objective(final)


class TestDescentCap:
    # The descent at (8, 3) holds n(n - 1) C(n, k) = 56 * 56 = 3,136
    # table entries; a cap one below refuses it before _moves allocates.

    @pytest.fixture
    def capped(self, monkeypatch):
        monkeypatch.setattr(worstcase, "MAX_DESCENT_ENTRIES", 3_135)
        worstcase._moves.cache_clear()

        def no_work(*args, **kwargs):
            raise AssertionError("_moves allocated past the cap")

        monkeypatch.setattr(worstcase, "_subset_array", no_work)

    def test_local_descent_refused(self, capped):
        with pytest.raises(EnumerationCapExceeded, match="3136"):
            local_descent(haar_sample(8, 3, seed=0), FAST)

    def test_complement_route_refused(self, capped):
        # (8, 5) descends on the complement, at (8, 3).
        with pytest.raises(EnumerationCapExceeded, match="3136"):
            local_descent(haar_sample(8, 5, seed=0), FAST)

    def test_multistart_refused(self, capped):
        with pytest.raises(EnumerationCapExceeded, match="3136"):
            multistart_search(8, 3, SearchParams(restarts=1, max_iters=1))

    def test_at_cap_runs(self, monkeypatch):
        monkeypatch.setattr(worstcase, "MAX_DESCENT_ENTRIES", 3_136)
        worstcase._moves.cache_clear()
        final, val = local_descent(haar_sample(8, 3, seed=0), SearchParams(max_iters=1))
        assert val == objective(final)


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
        assert_package_frame(result.best_matrix)
        for n, k in [(3, 1), (5, 3), (5, 4)]:
            assert_package_frame(multistart_search(n, k, FAST).best_matrix)

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
