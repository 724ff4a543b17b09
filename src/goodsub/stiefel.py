"""Frames with orthonormal columns and their best-conditioned row submatrices.

An n-by-k real matrix A with A^T A = I spans a k-dimensional subspace of
R^n.  Selecting k of its rows gives a square block whose smallest singular
value measures how well the subspace projects onto those coordinates; the
block with the largest such value is the best-conditioned one, and its
smallest singular value is the quantity the rest of the package searches,
transforms and certifies.  Everything here targets small frames (n up to a
few dozen), where exhaustive enumeration of the C(n, k) row subsets is the
reference algorithm.

A frame from outside the package, ``StiefelMatrix(values)`` or a file
read by the CLI, is copied and checked for finiteness and orthonormality.
Frames the package builds itself from the sign-fixed Householder Q factor
of a finite input (:func:`haar_sample`, :func:`orthonormalize`, and the
worst-case search's descents) skip that check: such a factor is
orthonormal to rounding by construction, so the check could not fail.

Smallest singular values come from one kernel, :func:`block_sigmas`,
which scores every listed row block of a whole stack of frames in one
vectorized call: the absolute entry at k = 1, |det| / sigma_max in
closed form at k = 2, and above that the square root of the smallest
eigenvalue of the k x k Gram matrix (one stacked Gram product and one
stacked ``eigvalsh``), except that a near-singular block (smallest Gram
eigenvalue at most ``GRAM_RATIO_FLOOR`` times the largest) is recomputed
by SVD.  :func:`sigma_min`, :func:`principal_angle`, the objective and
the worst-case search all call it.  The one other path is
:func:`best_submatrix` at k = 2, a Python float loop over the same 2x2
closed form: it costs less than the kernel call on a small frame, and
it returns the kernel's floats bit for bit.
"""

import itertools
import math
import numbers
import operator
import re
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, EnumerationCapExceeded, RankDeficient
from .serialize import format_float

__all__ = [
    "StiefelMatrix",
    "SubmatrixReport",
    "orthonormalize",
    "haar_sample",
    "haar_samples",
    "sigma_min",
    "row_subsets",
    "block_sigmas",
    "best_submatrix",
    "principal_angle",
    "extremal_matrix",
    "gram_deviation",
    "load_matrix",
    "save_matrix",
    "format_matrix",
    "parse_matrix",
]

# Max-norm tolerance on A^T A - I accepted by the StiefelMatrix constructor.
ORTHONORMALITY_TOL = 1e-10

# Numerical full-rank threshold for orthonormalize.
RANK_TOL = 1e-10

# Cap on C(n, k) in row-subset enumeration.
MAX_SUBSETS = 10**6

# At k >= 3 a block whose smallest Gram eigenvalue is at most this
# fraction of its largest (sigma_min / sigma_max <= 1e-3) gets its value
# from an SVD.  The square root of the eigenvalue errs by about
# eps * sigma_max^2 / sigma_min: above the floor up to about
# 3e-13 * sigma_max (2.3e-13 measured over 20000 3x3 blocks at the
# floor), growing to about sqrt(eps) * sigma_max at a singular block.
GRAM_RATIO_FLOOR = 1e-6

# Block entries block_sigmas gathers at once; larger requests are split
# along the subset axis, so memory stays bounded at any C(n, k).
KERNEL_CHUNK_ENTRIES = 2**20


def _check_integer(name, value):
    # bool is an Integral too, and True would read as 1.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_shape(n, k):
    _check_integer("n", n)
    _check_integer("k", k)
    if not 1 <= k <= n:
        raise DimensionError(f"need 1 <= k <= n, got n={n}, k={k}")


def _real_array(values, copy=False):
    # values as a float array.  Only booleans, integers and floats are
    # read: a cast from complex would keep only the real part (numpy
    # merely warns), and one from strings, bytes, timedeltas or objects
    # would parse or reinterpret them, so those are refused.
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise TypeError(f"expected real entries, got dtype {arr.dtype}")
    return arr.astype(float, copy=copy)


def _check_frame_array(arr):
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={arr.ndim}")
    _check_shape(*arr.shape)
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")


def _require_frame(a, caller, shape=None):
    if not isinstance(a, StiefelMatrix):
        raise TypeError(f"{caller} expects a StiefelMatrix")
    if shape is not None and (a.n, a.k) != shape:
        raise DimensionError(f"expected a {shape[0]}x{shape[1]} frame, got {a.n}x{a.k}")


def gram_deviation(values):
    """Max-norm of A^T A - I for a dense matrix A.

    Raises
    ------
    DimensionError
        If the input is not 2-d or has no columns.
    TypeError
        If the entries are complex.
    """
    arr = _real_array(values)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={arr.ndim}")
    if arr.shape[1] == 0:
        raise DimensionError(f"expected at least one column, got shape {arr.shape}")
    g = arr.T @ arr
    return float(np.abs(g - np.eye(arr.shape[1])).max())


class StiefelMatrix:
    """Real n-by-k matrix with orthonormal columns.

    The constructor validates the shape (1 <= k <= n), finiteness, and
    orthonormality: max |A^T A - I| must not exceed 1e-10.  Instances are
    immutable; the backing array is a read-only copy of the input.  Only
    frames the package builds itself skip the copy and the checks: a
    sign-fixed Householder Q factor of a finite input is orthonormal to
    rounding by construction.

    Parameters
    ----------
    values : array_like
        The n-by-k matrix entries.

    Raises
    ------
    DimensionError
        If the input is not 2-d with 1 <= k <= n.
    TypeError
        If the entries are complex.
    ValueError
        If entries are not finite or the columns are not orthonormal
        within tolerance.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = _real_array(values, copy=True)
        _check_frame_array(arr)
        dev = gram_deviation(arr)
        if dev > ORTHONORMALITY_TOL:
            raise ValueError(
                f"columns are not orthonormal: max |A^T A - I| = {dev:.3e} "
                f"exceeds {ORTHONORMALITY_TOL:.0e}"
            )
        arr.setflags(write=False)
        self._values = arr

    @classmethod
    def _adopt(cls, arr):
        # A frame the package built: a fresh float array that no caller
        # holds, from _qr_signfixed of a finite input or copied from a
        # frame that passed the checks.  Taken over read-only, unchecked.
        arr.setflags(write=False)
        frame = cls.__new__(cls)
        frame._values = arr
        return frame

    @property
    def n(self):
        return self._values.shape[0]

    @property
    def k(self):
        return self._values.shape[1]

    @property
    def values(self):
        """Read-only view of the underlying n-by-k array."""
        return self._values

    def submatrix(self, row_set):
        """The k-by-k block on the given rows, as a plain array."""
        rows = _validated_rows(row_set, self.n, self.k)
        return np.array(self._values[list(rows)])

    def __repr__(self):
        return f"StiefelMatrix(n={self.n}, k={self.k})"


@dataclass(frozen=True)
class SubmatrixReport:
    """Result of exhaustive row-subset enumeration.

    Attributes
    ----------
    row_set : tuple of int
        Sorted 0-based row indices of the winning block.
    sigma_min : float
        Smallest singular value of the winning block (the best value).
    determinant : float
        Determinant of the winning block; at k = 2 the minor
        ``a*d - b*c`` of its rows, as ``pluecker.pluecker4x2`` computes it.
    all_values : tuple of (tuple of int, float)
        Every subset with its smallest singular value, in lexicographic
        subset order.
    """

    row_set: tuple
    sigma_min: float
    determinant: float
    all_values: tuple

    def to_dict(self):
        return {
            "row_set": list(self.row_set),
            "sigma_min": self.sigma_min,
            "determinant": self.determinant,
            "all_values": [
                {"row_set": list(rows), "sigma_min": s} for rows, s in self.all_values
            ],
        }


def _row_index(i):
    # operator.index reads a Python bool as 0 or 1; np.bool_ it refuses.
    if isinstance(i, bool):
        raise TypeError(f"a bool is not a row index, got {i!r}")
    return operator.index(i)


def _validated_rows(row_set, n, k):
    try:
        rows = tuple(_row_index(i) for i in row_set)
    except TypeError as exc:
        raise IndexError(f"row_set must be a collection of integers: {exc}") from None
    if len(rows) != k:
        raise IndexError(f"row_set must have exactly k={k} entries, got {len(rows)}")
    if len(set(rows)) != k:
        raise IndexError(f"row_set entries must be distinct, got {rows}")
    for i in rows:
        if not 0 <= i < n:
            raise IndexError(f"row index {i} out of range for n={n}")
    return rows


def _det_smax_2x2(a, b, c, d, sqrt):
    # The signed minor a*d - b*c (pluecker4x2's expression) and sigma_max
    # of [[a, b], [c, d]]; the smallest singular value is |minor| /
    # sigma_max.  Works on floats (math.sqrt) and arrays (np.sqrt): both
    # square roots are correctly rounded and np.hypot runs one loop on
    # either, so the two evaluations agree bit for bit.  sigma_max^2 is
    # the larger Gram eigenvalue, a sum of nonnegative terms with no
    # cancellation; the smaller one, g00 + g11 - hypot, cancels to 0 near
    # singularity and loses all relative accuracy.  hypot, not
    # sqrt(x*x + y*y), which underflows on tiny blocks.
    g00 = a * a + c * c
    g11 = b * b + d * d
    g01 = a * b + c * d
    smax = sqrt(0.5 * (g00 + g11 + np.hypot(g00 - g11, 2.0 * g01)))
    return a * d - b * c, smax


def sigma_min(m):
    """Smallest singular value of a square dense matrix.

    Computed by :func:`block_sigmas` as one block: the absolute entry at
    k = 1, |det| / sigma_max at k = 2 (accurate relative to the result
    near singularity), and above, the square root of the smallest
    eigenvalue of M^T M, or the SVD's smallest singular value when that
    eigenvalue is at most ``GRAM_RATIO_FLOOR`` times the largest.

    Parameters
    ----------
    m : array_like
        Square k-by-k matrix.

    Returns
    -------
    float
        The smallest singular value, always >= 0.

    Raises
    ------
    DimensionError
        If the input is not a nonempty square 2-d array.
    TypeError
        If the entries are complex.
    ValueError
        If entries are not finite.
    """
    arr = _real_array(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    _check_frame_array(arr)
    return float(block_sigmas(arr, [range(arr.shape[0])])[0])


def orthonormalize(m):
    """Orthonormal basis of the column span of a full-rank matrix.

    QR factorization with the sign convention that the triangular factor
    has nonnegative diagonal, which makes the output deterministic and
    leaves an already-orthonormal input unchanged up to rounding.

    Parameters
    ----------
    m : array_like
        n-by-k matrix, n >= k >= 1, numerically full column rank.

    Returns
    -------
    StiefelMatrix
        Frame with the same column span as ``m``.

    Raises
    ------
    DimensionError
        If the input is not 2-d with 1 <= k <= n.
    RankDeficient
        If the smallest singular value of ``m`` is <= ``RANK_TOL``.
    TypeError
        If the entries are complex.
    ValueError
        If entries are not finite.
    """
    arr = _real_array(m)
    _check_frame_array(arr)
    smallest = np.linalg.svd(arr, compute_uv=False)[-1]
    if smallest <= RANK_TOL:
        raise RankDeficient(
            f"smallest singular value {smallest:.3e} is at or below the "
            f"rank threshold {RANK_TOL:.0e}"
        )
    return StiefelMatrix._adopt(_qr_signfixed(arr))


def _qr_signfixed(arr):
    # Q factor of an (..., n, k) frame or stack, signed so that each R has
    # a nonnegative diagonal.
    q, r = np.linalg.qr(arr)
    return q * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[..., None, :]


def _normal_draw(n, k, seed):
    # The n-by-k standard normal draw of one seed: the stream of
    # default_rng(seed), without default_rng's wrapper.  numpy.random is
    # looked up here, not imported at module level, so importing the
    # package does not load it.  SeedSequence would also take None (OS
    # entropy), bool and sequences of integers; only integers >= 0 pass.
    _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed)).standard_normal((n, k))


def haar_sample(n, k, seed):
    """Frame drawn from the rotation-invariant distribution.

    The sign-fixed QR factor of an n-by-k standard normal draw from the
    generator ``Generator(PCG64(seed))``, which gives the same stream as
    ``numpy.random.default_rng(seed)``: :func:`orthonormalize` of the draw
    bit for bit, less its rank test, which a Householder Q factor does not
    need.  Identical seeds give identical matrices.

    Parameters
    ----------
    n, k : int
        Frame shape, 1 <= k <= n.
    seed : int
        Nonnegative seed of the generator: a Python or numpy integer, not
        ``bool``.

    Returns
    -------
    StiefelMatrix

    Raises
    ------
    DimensionError
        If not 1 <= k <= n.
    ValueError
        If the seed is negative.
    TypeError
        If n, k or the seed is not an integer or is a ``bool``: ``None``,
        which would draw fresh OS entropy, a float and a sequence are
        refused.
    """
    _check_shape(n, k)
    return StiefelMatrix._adopt(_qr_signfixed(_normal_draw(n, k, seed)))


def haar_samples(n, k, seeds):
    """Stack of :func:`haar_sample` frames, one per seed.

    Draws each seed's matrix as :func:`haar_sample` does and
    orthonormalizes the whole stack in one QR call.  Entry i equals
    ``haar_sample(n, k, seeds[i]).values`` bit for bit, so the stack can
    go straight to :func:`block_sigmas`.

    Parameters
    ----------
    n, k : int
        Frame shape, 1 <= k <= n.
    seeds : iterable of int
        Nonnegative seeds, one per frame.

    Returns
    -------
    ndarray
        Shape (S, n, k) for S seeds; (0, n, k) when there are none.

    Raises
    ------
    DimensionError, ValueError, TypeError
        As :func:`haar_sample` raises them for the shape or any seed.
    """
    _check_shape(n, k)
    draws = [_normal_draw(n, k, seed) for seed in seeds]
    return _qr_signfixed(np.array(draws).reshape(len(draws), n, k))


def row_subsets(n, k):
    """All k-element row subsets of range(n), in lexicographic order.

    Parameters
    ----------
    n, k : int
        Frame shape, 1 <= k <= n.

    Returns
    -------
    list of tuple of int
        The C(n, k) sorted subsets; ``np.array`` of it is the (S, k)
        index array :func:`block_sigmas` takes.

    Raises
    ------
    DimensionError
        If not 1 <= k <= n.
    TypeError
        If n or k is not an integer or is a ``bool``.
    EnumerationCapExceeded
        If C(n, k) exceeds ``MAX_SUBSETS``.
    """
    _subset_count(n, k)
    return list(itertools.combinations(range(n), k))


def _subset_count(n, k):
    # C(n, k), after the shape and enumeration-cap checks of row_subsets.
    _check_shape(n, k)
    total = math.comb(n, k)
    if total > MAX_SUBSETS:
        raise EnumerationCapExceeded(
            f"C({n}, {k}) = {total} exceeds the enumeration cap {MAX_SUBSETS}"
        )
    return total


def _subset_array(n, k):
    # np.array(row_subsets(n, k)) without the list of tuples, which at
    # C(1414, 2) took over half of objective's time and memory.
    total = _subset_count(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype=np.intp, count=total * k).reshape(total, k)


def block_sigmas(frames, subsets):
    """Smallest singular value of every listed row block of stacked frames.

    The batched kernel behind the objective and the worst-case search.
    At k = 1 a block's value is its absolute entry; at k = 2 it is
    |det| / sigma_max in closed form; at k >= 3 it is the square root of
    the smallest eigenvalue of the block's Gram matrix, from one stacked
    Gram product and one stacked ``eigvalsh`` call; blocks whose
    smallest eigenvalue is at most ``GRAM_RATIO_FLOOR`` times the largest
    are recomputed by one stacked SVD.  Requests holding more than
    ``KERNEL_CHUNK_ENTRIES`` block entries are split along the subset
    axis.

    A block's float depends only on its own entries: not on which other
    blocks, or how many, share the call, nor on their order.  Scoring
    some of a frame's blocks, or blocks gathered from several frames,
    gives each the float that scoring all of its frame's blocks gives;
    the worst-case descent's block selection rests on this.

    Parameters
    ----------
    frames : array_like
        Shape (..., n, k): one n-by-k frame or a stack of them.
    subsets : array_like of int
        Shape (S, k): the rows of each block, for instance from
        :func:`row_subsets`.

    Returns
    -------
    ndarray
        Shape (..., S); entry [..., s] is the smallest singular value of
        the block on rows ``subsets[s]`` of that frame.

    Raises
    ------
    DimensionError
        If the frames are not (..., n, k) with 1 <= k <= n, or the
        subsets not (S, k).
    IndexError
        If a row index is not an integer or lies outside [0, n).
    TypeError
        If the frames' entries are complex.
    """
    arr = _real_array(frames)
    if arr.ndim < 2:
        raise DimensionError(f"expected frames of shape (..., n, k), got {arr.shape}")
    n, k = arr.shape[-2:]
    _check_shape(n, k)
    idx = np.asarray(subsets)
    if idx.ndim != 2 or idx.shape[1] != k:
        raise DimensionError(f"subsets must have shape (S, {k}), got {idx.shape}")
    if idx.dtype.kind not in "iu":
        raise IndexError(f"subset row indices must be integers, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"subset row indices must lie in [0, {n})")
    stack = arr.shape[:-2]
    out = np.empty(stack + (len(idx),))
    step = max(1, KERNEL_CHUNK_ENTRIES // max(1, math.prod(stack) * k * k))
    for start in range(0, len(idx), step):
        out[..., start:start + step] = _chunk_sigmas(arr[..., idx[start:start + step], :])
    return out


def _chunk_sigmas(blocks):
    # blocks has shape (..., S, k, k); returns (..., S).
    k = blocks.shape[-1]
    if k == 1:
        return np.abs(blocks[..., 0, 0])
    if k == 2:
        # A zero block divides to 0; a NaN entry stays NaN.
        a, b, c, d = (blocks[..., i, j] for i in (0, 1) for j in (0, 1))
        minor, smax = _det_smax_2x2(a, b, c, d, np.sqrt)
        det = np.abs(minor)
        return np.divide(det, smax, out=np.zeros_like(det), where=smax != 0.0)
    lam = np.linalg.eigvalsh(np.matmul(blocks.swapaxes(-1, -2), blocks))
    smallest = lam[..., 0]
    near = smallest <= GRAM_RATIO_FLOOR * lam[..., -1]
    if not near.any():
        return np.sqrt(smallest)
    out = np.sqrt(np.where(near, 0.0, smallest))
    out[near] = np.linalg.svd(blocks[near], compute_uv=False)[..., -1]
    return out


def best_submatrix(a):
    """Exhaustive search for the best-conditioned k-by-k row block.

    Enumerates all C(n, k) row subsets in lexicographic order, scores
    them with :func:`block_sigmas` (at k = 2 with the same closed form in
    a Python float loop, which gives the same floats) and keeps the one
    whose block has the largest smallest singular value.  Ties are broken
    toward the lexicographically smallest subset (the first maximum wins).

    Parameters
    ----------
    a : StiefelMatrix
        The frame to search.

    Returns
    -------
    SubmatrixReport

    Raises
    ------
    EnumerationCapExceeded
        If C(n, k) exceeds ``MAX_SUBSETS``.
    """
    _require_frame(a, "best_submatrix")
    arr = a.values
    subsets = row_subsets(a.n, a.k)
    if a.k == 2:
        # A float loop, not the kernel: on one 4x2 frame the kernel call
        # costs about 2.5x the six blocks' arithmetic, and routing k = 2
        # through it cut frames-4x2 benchmark throughput by 15-23%.  Its
        # floats are the kernel's bit for bit, and the winner's minor is
        # the determinant, so no LAPACK call is needed.
        entries = arr.tolist()
        minors, sigmas = [], []
        for i, j in subsets:
            minor, smax = _det_smax_2x2(*entries[i], *entries[j], math.sqrt)
            minors.append(minor)
            sigmas.append(abs(minor) / smax if smax != 0.0 else 0.0)
    else:
        sigmas = block_sigmas(arr, subsets).tolist()
    best = sigmas.index(max(sigmas))
    if a.k == 2:
        det = minors[best]
    else:
        det = float(np.linalg.det(arr[list(subsets[best])]))
    return SubmatrixReport(
        row_set=subsets[best],
        sigma_min=sigmas[best],
        determinant=det,
        all_values=tuple(zip(subsets, sigmas)),
    )


def principal_angle(a, row_set):
    """Largest principal angle between span(A) and a coordinate subspace.

    Equals arccos of the smallest singular value of the block on
    ``row_set``, hence lies in [0, pi/2]; 0 means the subspace projects
    isometrically onto those coordinates.

    Parameters
    ----------
    a : StiefelMatrix
    row_set : collection of int
        Exactly k distinct valid row indices.

    Returns
    -------
    float
        Angle in radians.

    Raises
    ------
    IndexError
        If ``row_set`` is not k distinct integer indices in range (a
        ``bool`` is not an index).
    """
    _require_frame(a, "principal_angle")
    rows = _validated_rows(row_set, a.n, a.k)
    s = float(block_sigmas(a.values, [rows])[0])
    return math.acos(min(1.0, s))


def extremal_matrix():
    """The 4-by-2 frame whose best row block is as ill-conditioned as possible.

    Every 2-by-2 row block has smallest singular value at most 1/2, five
    of the six attain it, and the remaining block (rows 2 and 3) is
    singular.  This is the worst case over all 4-by-2 frames: the bound
    1/2 = 1/sqrt(4) is sharp.
    """
    c = math.sqrt(0.5)
    e = math.sqrt(0.125)
    t = math.sqrt(0.375)
    return StiefelMatrix([[c, e], [-c, e], [0.0, t], [0.0, t]])


def format_matrix(a):
    """Text form of a matrix: 'n k' header, then one row per line.

    Entries are written by :func:`serialize.format_float`, with 17
    significant digits after the leading one, which round-trips float64
    exactly.

    Raises
    ------
    TypeError
        If the entries are complex.
    ValueError
        If an entry is NaN or infinite; no frame holds one, so
        :class:`StiefelMatrix` could never load the file.
    """
    arr = a.values if isinstance(a, StiefelMatrix) else _real_array(a)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got ndim={arr.ndim}")
    n, k = arr.shape
    lines = [f"{n} {k}"]
    for row in arr.tolist():
        lines.append(" ".join(format_float(x) for x in row))
    return "\n".join(lines) + "\n"


# Number spellings parse_matrix reads, in ASCII only: Python's int and
# float also read underscores, non-ASCII digits, "inf" and "nan", which
# format_matrix never writes.
_INTEGER_TOKEN = re.compile(r"[+-]?[0-9]+")
_FLOAT_TOKEN = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def parse_matrix(text):
    """Inverse of :func:`format_matrix`; returns a plain dense array.

    The text is an 'n k' header line, then n lines of k entries each;
    blank lines are skipped.  Header tokens are ASCII integers; entries
    are ASCII decimals: sign, digits, point and exponent.

    Raises
    ------
    ValueError
        If the header is not two integers n, k >= 1, or the rows are not
        n lines of k numbers each; the message names the offending line.
    """
    lines = [(i, line.split()) for i, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ValueError("matrix text must start with 'n k'")
    (at, header), rows = lines[0], lines[1:]
    if len(header) != 2 or not all(_INTEGER_TOKEN.fullmatch(t) for t in header):
        raise ValueError(f"line {at}: malformed header {header!r}: expected two integers")
    n, k = (int(t) for t in header)
    if n < 1 or k < 1:
        raise ValueError(f"header must have n >= 1 and k >= 1, got n={n}, k={k}")
    if len(rows) < n:
        raise ValueError(f"expected {n} rows for a {n}x{k} matrix, found {len(rows)}")
    if len(rows) > n:
        raise ValueError(f"line {rows[n][0]}: more than the {n} rows of a {n}x{k} matrix")
    values = []
    for at, row in rows:
        if len(row) != k:
            raise ValueError(f"line {at}: expected {k} entries, found {len(row)}")
        bad = [t for t in row if not _FLOAT_TOKEN.fullmatch(t)]
        if bad:
            raise ValueError(f"line {at}: non-numeric matrix entry {bad[0]!r}")
        values.append([float(t) for t in row])
    return np.array(values, dtype=float)


def save_matrix(path_or_file, a):
    """Write a matrix in text form to a path or writable file object."""
    text = format_matrix(a)
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


def load_matrix(path_or_file):
    """Read a matrix in text form; returns a plain dense array.

    Wrap in :class:`StiefelMatrix` (or pass through :func:`orthonormalize`)
    to validate orthonormality.
    """
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = path_or_file.read()
    return parse_matrix(text)
