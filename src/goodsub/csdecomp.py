"""Thin CS decomposition of 4-by-2 frames under the 2+2 row split.

Every 4-by-2 frame A factors as

    A = [[q1, 0], [0, q2]] @ [[cos(a), 0], [0, cos(b)], [sin(a), 0], [0, sin(b)]] @ q3

with q1, q2, q3 orthogonal 2-by-2 and principal angles 0 <= a <= b <= pi/2.
The middle factor ties the top and bottom 2-by-2 blocks together: the top
block's singular values are (cos(a), cos(b)) and the bottom's are
(sin(b), sin(a)), so |det(top)| = cos(a)*cos(b) and
|det(bottom)| = sin(a)*sin(b).

The right factor q3 comes from an SVD.  When beta > pi/4 it is the top
block's.  When both angles are at most pi/4 it is the bottom block's: the
cosines are then the close pair (two small angles' cosines differ by about
(sin^2 b - sin^2 a) / 2), the top SVD fixes q3 only to rounding over that
gap, and the bottom block's columns in its basis can lose orthogonality
entirely (by 0.38 at sines 2e-8 and 3e-8).  q1 is the top SVD's left factor, or in the
second case the top block's columns over the cosines, both at least
1/sqrt(2).  q2 keeps the direction of the bottom block's column with the
larger sine; its other column is the orthogonal completion, signed toward
the bottom block's column, so q2 is orthogonal to rounding whatever the
sines, and a sine of zero gives the completion with determinant +1.  q2
is the identity only for a zero bottom block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .stiefel import _require_frame

__all__ = ["CSFactors", "cs_decompose", "minors_from_cs"]

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class CSFactors:
    """Factors (q1, q2, q3, alpha, beta) of the thin CS decomposition.

    q1, q2 act on the top and bottom row pairs, q3 mixes the columns;
    alpha <= beta are the principal angles in radians.
    """

    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    alpha: float
    beta: float

    def middle_factor(self):
        """The 4-by-2 cosine-sine matrix diag-stacked from the angles."""
        ca, cb = math.cos(self.alpha), math.cos(self.beta)
        sa, sb = math.sin(self.alpha), math.sin(self.beta)
        return np.array([[ca, 0.0], [0.0, cb], [sa, 0.0], [0.0, sb]])

    def reconstruct(self):
        """The 4-by-2 matrix assembled from the factors."""
        mid = self.middle_factor()
        top = self.q1 @ mid[:2] @ self.q3
        bottom = self.q2 @ mid[2:] @ self.q3
        return np.concatenate([top, bottom])

    def to_dict(self):
        return {
            "q1": self.q1.tolist(),
            "q2": self.q2.tolist(),
            "q3": self.q3.tolist(),
            "alpha": self.alpha,
            "beta": self.beta,
        }


def _completion(col, target):
    # Unit vector orthogonal to col, on target's side of col's line; when
    # target has no side (orthogonal to col's normal, or zero), the one
    # with det([perp, col]) = +1.
    perp = np.array([col[1], -col[0]])
    return -perp if perp @ target < 0.0 else perp


def cs_decompose(a):
    """Thin CS decomposition of a 4-by-2 frame under the 2+2 row split.

    Parameters
    ----------
    a : StiefelMatrix
        Must be 4-by-2.

    Returns
    -------
    CSFactors
        With 0 <= alpha <= beta <= pi/2 and orthogonal 2-by-2 factors;
        ``reconstruct()`` matches the input to ~1e-15 for inputs
        orthonormal to machine precision.
    """
    _require_frame(a, "cs_decompose", (4, 2))
    top = a.values[:2]
    bottom = a.values[2:]

    q1, cosines, q3 = np.linalg.svd(top)
    if cosines[1] >= _SQRT_HALF:
        # beta <= pi/4: take q3 from the bottom block, sines ascending.
        q3 = np.linalg.svd(bottom)[2][::-1]
        t = top @ q3.T
        cosines = np.linalg.norm(t, axis=0)
        q1 = t / cosines
    b = bottom @ q3.T
    sines = np.linalg.norm(b, axis=0)

    alpha = math.atan2(sines[0], cosines[0])
    beta = math.atan2(sines[1], cosines[1])
    # Rounding can flip the ordering when the two angles coincide.
    beta = max(alpha, beta)

    if sines[1] == 0.0:
        q2 = np.eye(2)
    else:
        # Column 1 has the larger sine, to rounding.  The array's rows are
        # q2's columns; the transposed copy is C-ordered like the SVD factors.
        u = b[:, 1] / sines[1]
        q2 = np.array([_completion(u, b[:, 0]), u]).T.copy()

    for m in (q1, q2, q3):
        m.setflags(write=False)
    return CSFactors(q1=q1, q2=q2, q3=q3, alpha=alpha, beta=beta)


def minors_from_cs(factors):
    """Absolute top and bottom 2-by-2 minors implied by the angles.

    Returns
    -------
    (float, float)
        (cos(alpha)*cos(beta), sin(alpha)*sin(beta)), which equal
        |det(top block)| and |det(bottom block)| of the decomposed frame.
    """
    ca, cb = math.cos(factors.alpha), math.cos(factors.beta)
    sa, sb = math.sin(factors.alpha), math.sin(factors.beta)
    return (ca * cb, sa * sb)
