"""
The worst-case descent scoring every block of every proposal.

An independent reference for ``goodsub.worstcase._descent``, which
reuses the floats of the blocks a proposal leaves alone and scores only
the touched blocks that Weyl's inequality leaves able to be its maximum:
the same proposals, accept rule and step schedule, with one full
``block_sigmas`` call per iteration.  The two must agree bit for bit.
"""
import itertools
import math

import numpy as np

from goodsub.stiefel import _qr_signfixed, block_sigmas, row_subsets
from goodsub.worstcase import INITIAL_STEP, STEP_SHRINK


def _best_block(frames, subsets):
    return block_sigmas(frames, subsets).max(axis=-1)


def full_descent(values, n, k, p, callback):
    """Return (frame, value, iterations), calling ``callback(it, value)``
    after each accepted step."""
    subsets = np.array(row_subsets(n, k))
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
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
            callback(it, val)
        else:
            step *= STEP_SHRINK
    return arr, val, it
