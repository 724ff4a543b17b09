"""Search for subspaces whose best row block is as ill-conditioned as possible.

The objective of a frame is the smallest singular value of its
best-conditioned k-by-k row block; minimizing it over all n-by-k frames
probes the conjectured sharp lower bound 1/sqrt(n).  Right-multiplying by
an orthogonal k-by-k matrix does not move the column span, so the
objective is a function of the subspace alone and the search only needs
to explore left rotations.

The local step is derivative-free: at step size t, try every plane
rotation G(i, j, +/-t) applied to the rows, accept the best strict
decrease, and halve t when nothing improves.  A proposal changes only
rows i and j, so each iteration writes every proposal's frame into one
buffer, rewritten in place, and sorts each proposal's blocks by how
many rotated rows they hold.  A block with none has the frame's
entries, so its float is the frame's, bit for bit: it is reused, never
rescored.  A block with both is the frame's block left-multiplied by an
orthogonal matrix, so its sigma_min moves only by rounding; a block
with one moves by at most 2 sin(t / 2) (Weyl's inequality).  Those
bounds give each proposal a floor under its maximum, and only the
touched blocks that can reach that floor are scored, all proposals'
together in cache-bounded runs.  The selection is exact: every score is
the float that scoring all C(n, k) blocks gives, and so is the
trajectory.  The proposal set and the accept rule are deterministic, so
a restart's trajectory depends only on its starting frame.  Multistart
from seeded random frames takes the minimum over restarts.

For n/2 < k < n the descent runs on the complement: with [A B]
orthogonal, sigma_min(A_S) = sigma_min(B_T) for every row set S and its
complement T (CS decomposition), and a row rotation moves A and B at
once.  B's blocks are smaller (at (5, 3) the k = 2 closed form instead
of the k = 3 eigenvalue path).  The search returns the complement of B's
end frame with that frame's own objective; the values the descent saw
are B's, within about 1e-13 of it.  Ties between proposals round
differently on the two sides, so the trajectory is not the one the
descent on A takes.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stiefel
from .exceptions import DimensionError, EnumerationCapExceeded
from .stiefel import (
    StiefelMatrix,
    _chunk_sigmas,
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

# Slack in the descent's block selection.  For proposal m, a block that
# holds neither rotated row has the frame's entries, so it keeps its
# float cur exactly.  One that holds both is the frame's block
# left-multiplied by a k x k rotation, so its sigma_min is unchanged but
# for rounding.  One that holds one differs from the frame's block in
# that row only, by a row of (G - I) [A_i; A_j], of 2-norm at most
# 2 sin(t / 2) ||A||_2 = reach, so by Weyl's inequality its sigma_min
# moves by at most reach.  With move = reach on those blocks and 0 on
# the rest, the proposal's maximum is at least lower = max over blocks
# of (cur - move), and a block with cur + move < lower - 2 WEYL_MARGIN
# cannot be it.  The rule compares four kernel values (that block and
# the one setting lower, now and in the proposal), each off by at most
# about 3e-13 (see GRAM_RATIO_FLOOR; less where the SVD takes over), and
# the rotated rows round at about 1e-16: 2 x 1e-10 covers 4 x 3e-13 with
# room to spare.
WEYL_MARGIN = 1e-10

# Cap on n(n - 1) C(n, k), the entries of each (proposal, block) table a
# descent at (n, k) holds.  One iteration peaked at 42, 33 and 31 bytes
# per entry at (20, 3), (30, 3) and (24, 4) (tracemalloc): 2^24 ~ 0.55 GB.
MAX_DESCENT_ENTRIES = 2**24

# A search value below the conjectured floor 1/sqrt(n) by more than this
# refutes the hypothesis (the CLI's floor_violated); the kernel's error
# on a block is far smaller.
FLOOR_TOL = 1e-6


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
            stiefel._check_integer(name, getattr(self, name))
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


def objective(a):
    """Smallest singular value of the best-conditioned row block.

    Computed by the batched kernel ``block_sigmas``; equal to
    ``best_submatrix(a).sigma_min`` bit for bit.  Invariant under right
    multiplication by orthogonal k-by-k matrices.
    """
    _require_frame(a, "objective")
    return float(block_sigmas(a.values, _subset_array(a.n, a.k)).max())


def local_descent(a0, params=None, callback=None):
    """Deterministic plane-rotation descent from a starting frame.

    At each iteration, applies G(i, j, +/-step) to the rows of the
    current frame for every index pair and scores every proposal: a
    block holding neither rotated row keeps the current frame's float,
    and of the others only those that the bounds in ``WEYL_MARGIN``
    leave able to be the proposal's maximum are scored, batched in runs
    of at most ``KERNEL_CHUNK_ENTRIES`` block entries, which gives the
    same scores and trajectory as scoring every block.  Takes the
    proposal with the lowest objective (the first in (pair, +sign
    then -sign) order among equals) if it strictly decreases,
    re-orthonormalizes it, and confirms the decrease on the
    re-orthonormalized frame (so the accepted objective sequence is
    strictly decreasing).  When no proposal improves, the step shrinks;
    the loop stops when the step falls below ``stop_step`` or after
    ``max_iters`` iterations.  For n/2 < k < n the descent runs on the
    orthogonal complement (see the module docstring): the callback sees
    the complement's values, within about 1e-13 of the returned frame's
    objective, which is the value returned.  With no accepted step the
    start frame and its objective are returned.

    Parameters
    ----------
    a0 : StiefelMatrix
        Starting frame.
    params : SearchParams, optional
        Only ``max_iters`` and ``stop_step`` are read; ``restarts`` and
        ``seed`` are ``multistart_search``'s.
    callback : callable, optional
        Called as ``callback(iteration, value)`` after each accepted step.

    Returns
    -------
    (StiefelMatrix, float)
        Final frame and its objective value.

    Raises
    ------
    EnumerationCapExceeded
        If the descent's tables would hold more than
        ``MAX_DESCENT_ENTRIES`` entries; raised before they are built.
    """
    _require_frame(a0, "local_descent")
    p = params if params is not None else SearchParams()
    arr, val, _ = _search(a0.values, a0.n, a0.k, p, callback)
    return StiefelMatrix._adopt(arr), val


def _search(values, n, k, p, callback):
    # _descent, or for n/2 < k < n _descent at (n, n - k) on the
    # complement; the value is the returned frame's, scored directly.
    if 2 * k <= n or k == n:
        return _descent(values, n, k, p, callback)
    start = np.linalg.qr(values, mode="complete")[0][:, k:]
    end, _, it = _descent(start, n, n - k, p, callback)
    if np.array_equal(end, start):
        # No accepted step: an accepted step strictly lowers the value.
        arr = np.array(values)
    else:
        arr = _qr_signfixed(np.linalg.qr(end, mode="complete")[0][:, n - k :])
    return arr, float(_chunk_sigmas(arr[_subset_array(n, k)]).max()), it


class _Moves(NamedTuple):
    # Index maps of the descent at one (n, k), built once per shape.
    # Proposal m rotates rows i, j = rows[m] of pair m // 2 (pairs in
    # lexicographic order) by +step for even m and -step for odd m, row i
    # to cos(step) A_i + sin(step) sign[m, 0] A_j and row j likewise; argmin
    # keeps the first of equal values, so ties go to the earliest proposal.
    subsets: np.ndarray  # (S, k) row subsets, lexicographic
    rows: np.ndarray  # (P, 2)
    sign: np.ndarray  # (P, 2)
    touched: np.ndarray  # (P, S) the block holds a rotated row
    one: np.ndarray  # (P, S) 1.0 where it holds exactly one, else 0.0


@functools.lru_cache(maxsize=1)
def _moves(n, k):
    entries = n * (n - 1) * math.comb(n, k)
    if entries > MAX_DESCENT_ENTRIES:
        raise EnumerationCapExceeded(
            f"the descent at ({n}, {k}) needs {entries} table entries, "
            f"over the cap {MAX_DESCENT_ENTRIES}"
        )
    subsets = _subset_array(n, k)
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
    rows = np.repeat(pairs, 2, axis=0)
    signs = np.tile([1.0, -1.0], len(pairs))[:, None]
    holds = np.zeros((n, len(subsets)), dtype=np.intp)  # [r, s]: block s holds row r
    holds[subsets, np.arange(len(subsets))[:, None]] = 1
    touch = holds[rows].sum(axis=1)
    moves = _Moves(
        subsets=subsets,
        rows=rows,
        sign=np.hstack([-signs, signs]),
        touched=touch > 0,
        one=(touch == 1).astype(float),
    )
    for table in moves:
        table.setflags(write=False)
    return moves


def _proposal_scores(frames, cur, reach, moves):
    # Each proposal's objective, equal bit for bit to the maximum over
    # all its blocks: untouched blocks keep their floats cur, and only
    # the touched blocks that WEYL_MARGIN's rule leaves able to be the
    # maximum are scored, every proposal's together, gathered in runs of
    # at most KERNEL_CHUNK_ENTRIES block entries as block_sigmas splits
    # its requests.  A block's float does not depend on the other blocks
    # in the call.
    move = reach * moves.one
    lower = (cur - move).max(axis=-1)
    select = moves.touched & (cur + move >= (lower - 2.0 * WEYL_MARGIN)[:, None])
    blocks = np.where(moves.touched, -math.inf, cur)
    proposal, block = np.nonzero(select)
    run = max(1, stiefel.KERNEL_CHUNK_ENTRIES // frames.shape[-1] ** 2)
    for start in range(0, len(block), run):
        m, s = proposal[start : start + run], block[start : start + run]
        blocks[m, s] = _chunk_sigmas(frames[m[:, None], moves.subsets[s]])
    return blocks.max(axis=-1)


def _descent(values, n, k, p, callback):
    moves = _moves(n, k)
    arr = np.array(values)
    # frames[m] is proposal m's frame, rewritten in place each iteration.
    frames = np.empty((len(moves.rows), n, k))
    which = np.arange(len(moves.rows))[:, None]
    cur = block_sigmas(arr, moves.subsets)
    val = float(cur.max())
    # The start frame may miss orthonormality by ORTHONORMALITY_TOL; every
    # later frame is a Householder Q factor, of norm 1 to rounding.
    norm = max(1.0, float(np.linalg.norm(arr, 2)))
    step = INITIAL_STEP
    it = 0
    while it < p.max_iters and step >= p.stop_step:
        it += 1
        s = (math.sin(step) * moves.sign)[..., None]
        frames[:] = arr
        frames[which, moves.rows] = math.cos(step) * arr[moves.rows] + s * arr[moves.rows[:, ::-1]]
        reach = 2.0 * math.sin(step / 2.0) * norm
        scores = _proposal_scores(frames, cur, reach, moves)
        best = int(np.argmin(scores)) if scores.size else None
        if best is None or not scores[best] < val:
            step *= STEP_SHRINK
            continue
        fixed = _qr_signfixed(frames[best])
        fixed_sigmas = _chunk_sigmas(fixed[moves.subsets])
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
    index.  Identical parameters reproduce identical results.  For
    n/2 < k < n each restart descends on the orthogonal complement, as
    ``local_descent`` does.

    Parameters
    ----------
    n, k : int
        Frame shape with 1 <= k <= n - 1 (at k = n the only block is the
        whole frame and the objective is constant).
    params : SearchParams, optional

    Returns
    -------
    WorstCaseResult

    Raises
    ------
    EnumerationCapExceeded
        As ``local_descent`` raises it, before the first restart descends.
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
        arr, val, used = _search(start.values, n, k, p, None)
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
