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
2 C(n, 2) proposals into one array and scores all of their C(n, k)
blocks in one batched call to :func:`goodsub.stiefel.block_sigmas`.
The proposal set and the accept rule are deterministic, so a restart's
trajectory depends only on its starting frame.  Multistart from seeded
random frames takes the minimum over restarts.
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
    block_sigmas,
    format_matrix,
    haar_sample,
    row_subsets,
)

__all__ = ["SearchParams", "WorstCaseResult", "objective", "local_descent", "multistart_search"]

# Every descent starts at this rotation angle (radians) and multiplies it
# by STEP_SHRINK whenever no proposal improves.
INITIAL_STEP = 0.3
STEP_SHRINK = 0.5


@dataclass(frozen=True)
class SearchParams:
    """Settings of the descent and the multistart loop.

    The step schedule is fixed (``INITIAL_STEP``, ``STEP_SHRINK``);
    ``restarts``, ``max_iters`` and ``seed`` must be integers, not
    ``bool``, and ``seed`` must be >= 0.
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
        if not self.stop_step > 0.0:
            raise ValueError(f"stop_step must be positive, got {self.stop_step}")


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
    return float(_best_block(a.values, row_subsets(a.n, a.k)))


def local_descent(a0, params=None, callback=None):
    """Deterministic plane-rotation descent from a starting frame.

    At each iteration, stacks G(i, j, +/-step) applied to the rows of
    the current frame for every index pair, scores all proposals in one
    batched call, takes the one with the lowest objective (the first in
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
    return StiefelMatrix(arr), val


def _descent(values, n, k, p, callback):
    subsets = np.array(row_subsets(n, k))
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
    # Proposal m rotates rows rows_i[m], rows_j[m] by signs[m] * step, in
    # (pair, +sign then -sign) order; argmin keeps the first of equal
    # values, so ties go to the earliest proposal.
    rows_i, rows_j = np.repeat(pairs, 2, axis=0).T
    signs = np.tile([1.0, -1.0], len(pairs))[:, None]
    which = np.arange(len(rows_i))
    arr = np.array(values)
    val = float(_best_block(arr, subsets))
    step = INITIAL_STEP
    it = 0
    while it < p.max_iters and step >= p.stop_step:
        it += 1
        c = math.cos(step)
        s = signs * math.sin(step)
        ai = arr[rows_i]
        aj = arr[rows_j]
        proposals = np.repeat(arr[None], len(which), axis=0)
        proposals[which, rows_i] = c * ai - s * aj
        proposals[which, rows_j] = s * ai + c * aj
        scores = _best_block(proposals, subsets)
        best = int(np.argmin(scores)) if scores.size else None
        if best is None or not scores[best] < val:
            step *= STEP_SHRINK
            continue
        fixed = _qr_signfixed(proposals[best])
        fval = float(_best_block(fixed, subsets))
        if fval < val:
            arr = fixed
            val = fval
            if callback is not None:
                callback(it, val)
        else:
            # Re-orthonormalization ate the gain; treat as a failed step.
            step *= STEP_SHRINK
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
            best_matrix = StiefelMatrix(arr)
    return WorstCaseResult(
        best_matrix=best_matrix,
        best_value=best_value,
        per_restart_values=tuple(values),
        iterations_used=tuple(iterations),
    )
