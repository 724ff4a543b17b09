"""
Per-block smallest singular values, one block at a time.

An independent reference for ``goodsub.stiefel.block_sigmas`` and
``best_submatrix``: the same closed forms and the same
``GRAM_RATIO_FLOOR`` SVD fallback, written as a scalar path without the
stacked kernel.
"""
import itertools
import math

import numpy as np

from goodsub.stiefel import GRAM_RATIO_FLOOR


def sigma_min_2x2(a, b, c, d):
    # Smallest singular value of [[a, b], [c, d]] as |det| / sigma_max,
    # with the package's np.hypot (math.hypot rounds differently on about
    # 0.6% of inputs).
    g00 = a * a + c * c
    g11 = b * b + d * d
    g01 = a * b + c * d
    smax = math.sqrt(0.5 * (g00 + g11 + np.hypot(g00 - g11, 2.0 * g01)))
    return abs(a * d - b * c) / smax if smax > 0.0 else 0.0


def subset_sigma(arr, rows, k):
    """Smallest singular value of the k-by-k block of ``arr`` on ``rows``."""
    if k == 1:
        return abs(float(arr[rows[0], 0]))
    if k == 2:
        i, j = rows
        return sigma_min_2x2(*arr[i].tolist(), *arr[j].tolist())
    block = arr[list(rows)]
    lam = np.linalg.eigvalsh(block.T @ block)
    if lam[0] <= GRAM_RATIO_FLOOR * lam[-1]:
        return float(np.linalg.svd(block, compute_uv=False)[-1])
    return math.sqrt(lam[0])


def all_values(a):
    """Every (row_set, sigma) of a frame, in lexicographic subset order."""
    arr = np.asarray(a.values)
    subsets = itertools.combinations(range(a.n), a.k)
    return tuple((rows, subset_sigma(arr, rows, a.k)) for rows in subsets)
