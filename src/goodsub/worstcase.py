"""Search for subspaces whose best row block is as ill-conditioned as possible.

The objective of a frame is the smallest singular value of its
best-conditioned k-by-k row block; minimizing it over all n-by-k frames
probes the conjectured sharp lower bound 1/sqrt(n).  Right-multiplying by
an orthogonal k-by-k matrix does not move the column span, so the
objective is a function of the subspace alone and the search only needs
to explore left rotations.

The local step is derivative-free: at step size t, try every plane
rotation G(i, j, +/-t) applied to the rows, accept the best strict
decrease, and halve t when nothing improves.  Each iteration stacks its
2 C(n, 2) proposals into one array and scores them in one batched call
to :func:`goodsub.stiefel.block_sigmas`, on only the blocks that Weyl's
inequality leaves able to be some proposal's maximum: a rotation by t
moves every block's sigma_min by at most 2 sin(t / 2), so a block more
than twice that below the current best cannot win.  The pruning is
exact: every score is the float that scoring all C(n, k) blocks gives,
and so is the trajectory.  The proposal set and the accept rule are
deterministic, so a restart's trajectory depends only on its starting
frame.  Multistart from seeded random frames takes the minimum over
restarts.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .stiefel import (
    StiefelMatrix,
    _qr_signfixed,
    _require_frame,
    _subset_array,
    block_sigmas,
    format_matrix,
    haar_sample,
)

__all__ = ["SearchParams", "WorstCaseResult", "objective", "local_descent", "multistart_search"]

# Every descent starts at this rotation angle (radians) and multiplies it
# by STEP_SHRINK whenever no proposal improves.
INITIAL_STEP = 0.3
STEP_SHRINK = 0.5

# Slack in the descent's Weyl pruning.  A rotation G by t moves every row
# block of a frame A by at most ||G - I||_2 ||A||_2 = 2 sin(t / 2) ||A||_2
# in the 2-norm, and by Weyl's inequality no block's sigma_min moves
# further, so a block more than twice that below the current maximum
# cannot be any proposal's maximum.  That rule compares four kernel
# values (that block and the best one, now and in the proposal), each off
# by at most about 3e-13 (see GRAM_RATIO_FLOOR; less where the SVD takes
# over), and the rotated rows round at about 1e-16: 1e-10 covers
# 4 x 3e-13 with room to spare.
WEYL_MARGIN = 1e-10


@dataclass(frozen=True)
class SearchParams:
    """Settings of the descent and the multistart loop.

    The step schedule is fixed (``INITIAL_STEP``, ``STEP_SHRINK``);
    ``restarts``, ``max_iters`` and ``seed`` must be integers, not
    ``bool``, and ``seed`` must be >= 0; ``stop_step`` must be a
    positive finite real number, not ``bool``.
    """

    restarts: int = 64
    max_iters: int = 2000
    stop_step: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if isinstance(self.stop_step, bool) or not isinstance(self.stop_step, numbers.Real):
            raise TypeError(f"stop_step must be a real number, got {self.stop_step!r}")
        if not 0.0 < self.stop_step < math.inf:
            raise ValueError(f"stop_step must be positive and finite, got {self.stop_step}")


@dataclass(frozen=True)
class WorstCaseResult:
    """Multistart outcome: the worst frame found and per-restart detail."""

    best_matrix: StiefelMatrix
    best_value: float
    per_restart_values: tuple
    iterations_used: tuple

    def to_dict(self):
        return {
            "best_value": self.best_value,
            "best_matrix": format_matrix(self.best_matrix),
            "per_restart_values": list(self.per_restart_values),
            "iterations_used": list(self.iterations_used),
        }


def _best_block(frames, subsets):
    # Objective of each stacked frame: its largest block sigma_min.
    return block_sigmas(frames, subsets).max(axis=-1)


def objective(a):
    """Smallest singular value of the best-conditioned row block.

    Computed by the batched kernel ``block_sigmas``; equal to
    ``best_submatrix(a).sigma_min`` bit for bit.  Invariant under right
    multiplication by orthogonal k-by-k matrices.
    """
    _require_frame(a, "objective")
    return float(_best_block(a.values, _subset_array(a.n, a.k)))


def local_descent(a0, params=None, callback=None):
    """Deterministic plane-rotation descent from a starting frame.

    At each iteration, stacks G(i, j, +/-step) applied to the rows of
    the current frame for every index pair, scores all proposals in one
    batched call (on only the blocks that Weyl's inequality leaves open,
    which gives the same scores and trajectory as scoring every block),
    takes the one with the lowest objective (the first in
    (pair, +sign then -sign) order among equals) if it strictly
    decreases, re-orthonormalizes it, and confirms the decrease on the
    re-orthonormalized frame (so the accepted objective sequence is
    strictly decreasing).  When no proposal improves, the step shrinks;
    the loop stops when the step falls below ``stop_step`` or after
    ``max_iters`` iterations.

    Parameters
    ----------
    a0 : StiefelMatrix
        Starting frame.
    params : SearchParams, optional
    callback : callable, optional
        Called as ``callback(iteration, value)`` after each accepted step.

    Returns
    -------
    (StiefelMatrix, float)
        Final frame and its objective value.
    """
    _require_frame(a0, "local_descent")
    p = params if params is not None else SearchParams()
    arr, val, _ = _descent(a0.values, a0.n, a0.k, p, callback)
    return StiefelMatrix._adopt(arr), val


def _descent(values, n, k, p, callback):
    subsets = _subset_array(n, k)
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
    # Proposal m rotates rows rows_i[m], rows_j[m] by signs[m] * step, in
    # (pair, +sign then -sign) order; argmin keeps the first of equal
    # values, so ties go to the earliest proposal.
    rows_i, rows_j = np.repeat(pairs, 2, axis=0).T
    signs = np.tile([1.0, -1.0], len(pairs))[:, None]
    which = np.arange(len(rows_i))
    arr = np.array(values)
    cur = block_sigmas(arr, subsets)
    val = float(cur.max())
    # The start frame may miss orthonormality by ORTHONORMALITY_TOL; every
    # later frame is a Householder Q factor, of norm 1 to rounding.
    norm = max(1.0, float(np.linalg.norm(arr, 2)))
    step = INITIAL_STEP
    it = 0
    while it < p.max_iters and step >= p.stop_step:
        it += 1
        # The blocks that can still be some proposal's maximum (see
        # WEYL_MARGIN); a block's float does not depend on which other
        # blocks share the kernel call, so the scores are unchanged.
        reach = 2.0 * math.sin(step / 2.0) * norm
        live = subsets[cur >= val - 2.0 * reach - WEYL_MARGIN]
        c = math.cos(step)
        s = signs * math.sin(step)
        ai = arr[rows_i]
        aj = arr[rows_j]
        proposals = np.repeat(arr[None], len(which), axis=0)
        proposals[which, rows_i] = c * ai - s * aj
        proposals[which, rows_j] = s * ai + c * aj
        scores = _best_block(proposals, live)
        best = int(np.argmin(scores)) if scores.size else None
        if best is None or not scores[best] < val:
            step *= STEP_SHRINK
            continue
        fixed = _qr_signfixed(proposals[best])
        fixed_sigmas = block_sigmas(fixed, subsets)
        fval = float(fixed_sigmas.max())
        if fval < val:
            arr = fixed
            cur = fixed_sigmas
            val = fval
            if callback is not None:
                callback(it, val)
        else:
            # Re-orthonormalization ate the gain; treat as a failed step.
            step *= STEP_SHRINK
    # arr is the start frame's copy or a sign-fixed Q factor, held by no
    # caller, so callers adopt it as a StiefelMatrix unchecked.
    return arr, val, it


def multistart_search(n, k, params=None):
    """Minimize the objective over seeded random restarts.

    Restart i descends from ``haar_sample(n, k, seed + i)``.  The best
    value is the minimum over restarts; ties keep the lowest restart
    index.  Identical parameters reproduce identical results.

    Parameters
    ----------
    n, k : int
        Frame shape with 1 <= k <= n - 1 (at k = n the only block is the
        whole frame and the objective is constant).
    params : SearchParams, optional

    Returns
    -------
    WorstCaseResult
    """
    if not 1 <= k <= n - 1:
        raise DimensionError(f"need 1 <= k <= n - 1, got n={n}, k={k}")
    p = params if params is not None else SearchParams()
    values = []
    iterations = []
    best_matrix = None
    best_value = math.inf
    for i in range(p.restarts):
        start = haar_sample(n, k, p.seed + i)
        arr, val, used = _descent(start.values, n, k, p, None)
        values.append(val)
        iterations.append(used)
        if val < best_value:
            best_value = val
            best_matrix = StiefelMatrix._adopt(arr)
    return WorstCaseResult(
        best_matrix=best_matrix,
        best_value=best_value,
        per_restart_values=tuple(values),
        iterations_used=tuple(iterations),
    )
