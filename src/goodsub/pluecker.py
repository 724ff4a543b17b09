"""Row-minor coordinates of 4-by-2 frames and the flat-case coordinate changes.

A 4-by-2 frame A has six 2-by-2 row minors p12, p13, p14, p23, p24, p34
(pij = det of the block on rows i-1 and j-1).  For orthonormal columns
they satisfy

    p12*p34 - p13*p24 + p14*p23 = 0        (quadric relation)
    p12^2 + ... + p34^2         = 1        (normalization)

and determine the column span of A up to an overall sign.  The linear
change of variables

    x1 = p12 + p34    y1 = p13 - p24    z1 = p14 + p23
    x2 = p12 - p34    y2 = p13 + p24    z2 = p14 - p23

turns normalization +/- twice the relation into two unit spheres,

    x1^2 + y1^2 + z1^2 = 1    and    x2^2 + y2^2 + z2^2 = 1,

and the best-block bound for 4-by-2 frames becomes the six quadratic-form
constraints  x1^2 +/- x1*x2 + x2^2 <= 3/4  (same for the y and z pairs).
Each nonnegative pair (a, b) is finally written in elliptic-sector form

    a = R * sin(t + pi/3),    b = R * sin(t - pi/3),

with radius R >= 0 and sector angle t in [pi/3, 2pi/3]; the forms collapse
to a^2 + a*b + b^2 = (3/4) R^2, so the constraint pair is exactly R <= 1.
The sums of squared sines of the three sector angles shifted by +/- pi/3
(eq3_sums) drive the final consistency argument in the certificate module.
Their level sets s_plus = 1 and s_minus = 1 on the cube [pi/3, 2pi/3]^3
are the two surfaces figure_eq3_data exports; each z term is monotone on
the cube and inverts in closed form, so every surface point is an arcsine.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import NegativeComponent
from .serialize import _unit_float_texts
from .stiefel import _check_integer, _require_frame

__all__ = [
    "PlueckerCoords",
    "TransformedVars",
    "EllipticParams",
    "SystemReport",
    "pluecker4x2",
    "invariant_residuals",
    "to_transformed",
    "from_transformed",
    "eval_system",
    "nonnegative_representative",
    "elliptic_pair",
    "elliptic_params",
    "from_elliptic",
    "eq3_sums",
    "figure_eq3_data",
    "DEFAULT_FORM_BOUND",
]

_THIRD_PI = math.pi / 3.0
_SQRT3 = math.sqrt(3.0)

# Sharp constant for the six quadratic forms in the transformed variables.
# The certificate's transform-bound check proves it exactly, over the four
# corners of the principal-angle box.
DEFAULT_FORM_BOUND = 0.75
# eval_system's acceptance tolerance for sphere residuals and form excess.
SYSTEM_TOL = 1e-12

# Surfaces must agree this closely in z for a contact row to be emitted.
CONTACT_TOL = 1e-6

# Accept a root whose squared-sine target overshoots the reachable range
# by at most this much (covers rounding at surface edges); emitted points
# then satisfy the consistency equation to well within 1e-9.
_TARGET_SLACK = 1e-10


@dataclass(frozen=True)
class PlueckerCoords:
    """The six 2-by-2 row minors of a 4-by-2 frame, in index order."""

    p12: float
    p13: float
    p14: float
    p23: float
    p24: float
    p34: float

    def as_tuple(self):
        return (self.p12, self.p13, self.p14, self.p23, self.p24, self.p34)

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class TransformedVars:
    """Sphere coordinates (x1, x2, y1, y2, z1, z2) of a minor vector."""

    x1: float
    x2: float
    y1: float
    y2: float
    z1: float
    z2: float

    def as_tuple(self):
        return (self.x1, self.x2, self.y1, self.y2, self.z1, self.z2)

    def pairs(self):
        """The three coordinate pairs ((x1, x2), (y1, y2), (z1, z2))."""
        return ((self.x1, self.x2), (self.y1, self.y2), (self.z1, self.z2))


@dataclass(frozen=True)
class EllipticParams:
    """Radii and sector angles of the three coordinate pairs.

    Radii are >= 0; angles are in radians and lie in [pi/3, 2pi/3]
    whenever the corresponding radius is positive (angle pi/2 by
    convention at radius zero).
    """

    radius_x: float
    radius_y: float
    radius_z: float
    angle_x: float
    angle_y: float
    angle_z: float

    def radii(self):
        return (self.radius_x, self.radius_y, self.radius_z)

    def angles(self):
        return (self.angle_x, self.angle_y, self.angle_z)


@dataclass(frozen=True)
class SystemReport:
    """Residuals and form values of the sphere-and-forms system.

    qform_values holds the six quadratic forms in the fixed order
    (x plus, x minus, y plus, y minus, z plus, z minus), where "plus"
    is a^2 + a*b + b^2 on the pair (a, b) and "minus" flips the cross
    term.  ``satisfied`` is True iff the sphere residuals and each form's
    excess over ``DEFAULT_FORM_BOUND`` are all within ``SYSTEM_TOL``.
    """

    sphere1_residual: float
    sphere2_residual: float
    qform_values: tuple
    satisfied: bool

    def to_dict(self):
        return {
            "sphere1_residual": self.sphere1_residual,
            "sphere2_residual": self.sphere2_residual,
            "qform_values": list(self.qform_values),
            "satisfied": self.satisfied,
        }


def pluecker4x2(a):
    """The six row minors of a 4-by-2 frame.

    Parameters
    ----------
    a : StiefelMatrix
        Must be 4-by-2.

    Returns
    -------
    PlueckerCoords
    """
    _require_frame(a, "pluecker4x2", (4, 2))
    # Python floats: the same IEEE products and differences as numpy
    # scalars, without 24 scalar indexings.
    r = a.values.tolist()

    def minor(i, j):
        return r[i][0] * r[j][1] - r[i][1] * r[j][0]

    return PlueckerCoords(
        p12=minor(0, 1),
        p13=minor(0, 2),
        p14=minor(0, 3),
        p23=minor(1, 2),
        p24=minor(1, 3),
        p34=minor(2, 3),
    )


def invariant_residuals(p):
    """Absolute residuals of the quadric relation and the normalization.

    Returns
    -------
    (float, float)
        (|p12*p34 - p13*p24 + p14*p23|, |sum of squares - 1|).
    """
    rel = p.p12 * p.p34 - p.p13 * p.p24 + p.p14 * p.p23
    norm = sum(v * v for v in p.as_tuple())
    return (abs(rel), abs(norm - 1.0))


def to_transformed(p):
    """Sphere coordinates of a minor vector (sums and differences of pairs)."""
    return TransformedVars(
        x1=p.p12 + p.p34,
        x2=p.p12 - p.p34,
        y1=p.p13 - p.p24,
        y2=p.p13 + p.p24,
        z1=p.p14 + p.p23,
        z2=p.p14 - p.p23,
    )


def from_transformed(v):
    """Exact linear inverse of :func:`to_transformed`."""
    return PlueckerCoords(
        p12=(v.x1 + v.x2) / 2.0,
        p13=(v.y1 + v.y2) / 2.0,
        p14=(v.z1 + v.z2) / 2.0,
        p23=(v.z1 - v.z2) / 2.0,
        p24=(v.y2 - v.y1) / 2.0,
        p34=(v.x1 - v.x2) / 2.0,
    )


def eval_system(v):
    """Evaluate the sphere equations and the six quadratic forms.

    The forms are held to the sharp constant ``DEFAULT_FORM_BOUND``
    (3/4) and the residuals to 0, both within ``SYSTEM_TOL``.

    Parameters
    ----------
    v : TransformedVars

    Returns
    -------
    SystemReport
    """
    s1 = v.x1 * v.x1 + v.y1 * v.y1 + v.z1 * v.z1
    s2 = v.x2 * v.x2 + v.y2 * v.y2 + v.z2 * v.z2
    forms = []
    for a, b in v.pairs():
        sq = a * a + b * b
        forms.append(sq + a * b)
        forms.append(sq - a * b)
    forms = tuple(forms)
    r1 = abs(s1 - 1.0)
    r2 = abs(s2 - 1.0)
    limit = DEFAULT_FORM_BOUND + SYSTEM_TOL
    satisfied = r1 <= SYSTEM_TOL and r2 <= SYSTEM_TOL and all(f <= limit for f in forms)
    return SystemReport(
        sphere1_residual=r1,
        sphere2_residual=r2,
        qform_values=forms,
        satisfied=satisfied,
    )


def nonnegative_representative(v):
    """Map to the nonnegative orthant by sign flips.

    Negating any single coordinate swaps the plus and minus forms of its
    pair and leaves the sphere equations unchanged, so the constraint
    system cannot tell representatives apart; componentwise absolute
    value picks the canonical one.
    """
    return TransformedVars(*(abs(c) for c in v.as_tuple()))


def elliptic_pair(a, b):
    """Radius and sector angle of one nonnegative pair.

    Solves a = R*sin(t + pi/3), b = R*sin(t - pi/3) exactly:
    R*sin(t) = a + b and sqrt(3)*R*cos(t) = a - b, so atan2 recovers t
    and the hypotenuse recovers R.  For a, b >= 0 the angle always lands
    in [pi/3, 2pi/3] (clamped against rounding at the sector edges);
    the zero pair maps to (0, pi/2) by convention.

    Raises
    ------
    NegativeComponent
        If either input is negative (inputs are rejected, not clamped).
    ValueError
        If either input is NaN or infinite.
    """
    if a < 0.0 or b < 0.0:
        raise NegativeComponent(f"pair components must be >= 0, got ({a}, {b})")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"pair components must be finite, got ({a}, {b})")
    u = a + b
    w = (a - b) / _SQRT3
    radius = math.hypot(u, w)
    if radius == 0.0:
        return (0.0, math.pi / 2.0)
    angle = math.atan2(u, w)
    angle = min(max(angle, _THIRD_PI), 2.0 * _THIRD_PI)
    return (radius, angle)


def elliptic_params(v):
    """Elliptic-sector parameters of nonnegative sphere coordinates.

    Parameters
    ----------
    v : TransformedVars
        All six components must be >= 0; apply
        :func:`nonnegative_representative` first if needed.

    Returns
    -------
    EllipticParams

    Raises
    ------
    NegativeComponent
        If any component is negative.
    """
    (rx, ax), (ry, ay), (rz, az) = (elliptic_pair(a, b) for a, b in v.pairs())
    return EllipticParams(
        radius_x=rx, radius_y=ry, radius_z=rz, angle_x=ax, angle_y=ay, angle_z=az
    )


def from_elliptic(params):
    """Sphere coordinates from radii and sector angles (inverse map).

    Raises
    ------
    NegativeComponent
        If a radius is negative.
    ValueError
        If a radius or angle is NaN or infinite, or an angle lies outside
        [pi/3, 2pi/3].
    """
    radii, angles = params.radii(), params.angles()
    if min(radii) < 0.0:
        raise NegativeComponent(f"radii must be >= 0, got {radii}")
    if not all(math.isfinite(t) for t in radii + angles):
        raise ValueError(f"radii and angles must be finite, got {params}")
    if not all(_THIRD_PI <= t <= 2.0 * _THIRD_PI for t in angles):
        raise ValueError(f"angles must lie in [pi/3, 2pi/3], got {angles}")
    (rx, ry, rz), (ax, ay, az) = radii, angles
    return TransformedVars(
        x1=rx * math.sin(ax + _THIRD_PI),
        x2=rx * math.sin(ax - _THIRD_PI),
        y1=ry * math.sin(ay + _THIRD_PI),
        y2=ry * math.sin(ay - _THIRD_PI),
        z1=rz * math.sin(az + _THIRD_PI),
        z2=rz * math.sin(az - _THIRD_PI),
    )


def eq3_sums(x, y, z):
    """Sums of squared sines of the angles shifted by plus and minus pi/3.

    Accepts scalars or broadcastable arrays; returns (s_plus, s_minus)
    where s_plus = sin^2(x + pi/3) + sin^2(y + pi/3) + sin^2(z + pi/3)
    and s_minus uses the minus shift.
    """
    s_plus = (
        np.sin(x + _THIRD_PI) ** 2
        + np.sin(y + _THIRD_PI) ** 2
        + np.sin(z + _THIRD_PI) ** 2
    )
    s_minus = (
        np.sin(x - _THIRD_PI) ** 2
        + np.sin(y - _THIRD_PI) ** 2
        + np.sin(z - _THIRD_PI) ** 2
    )
    return (s_plus, s_minus)


def _eq3_root(target, shift):
    # The z in [pi/3, 2pi/3] with sin^2(z + shift) = target, shift = +/- pi/3,
    # or NaN where the target is out of reach.  z + pi/3 runs over
    # [2pi/3, pi], where sin falls from sqrt(3)/2 to 0, and z - pi/3 over
    # [0, pi/3], where it rises from 0 to sqrt(3)/2; so the root is
    # 2pi/3 - asin(sqrt(target)) or pi/3 + asin(sqrt(target)).
    lo, hi = _THIRD_PI, 2.0 * _THIRD_PI
    lower, upper = sorted(float(np.sin(end + shift) ** 2) for end in (lo, hi))
    valid = (target >= lower - _TARGET_SLACK) & (target <= upper + _TARGET_SLACK)
    arc = np.arcsin(np.sqrt(np.clip(target, lower, upper)))
    root = hi - arc if shift > 0.0 else lo + arc
    return np.where(valid, np.clip(root, lo, hi), np.nan)


def figure_eq3_data(resolution):
    """CSV boundary-surface data for the two squared-sine systems.

    For each (x, y) on a resolution^2 grid over [pi/3, 2pi/3]^2, solves
    sin^2(x +/- pi/3) + sin^2(y +/- pi/3) + sin^2(z +/- pi/3) = 1 for z
    in [pi/3, 2pi/3] in closed form (the z term is strictly monotone on
    the cube, so each cell has at most one root).  Rows are
    "surface,x,y,z" with surface in {plus, minus}; grid points where the
    two surfaces agree within ``CONTACT_TOL`` in z get an extra
    "contact" row.  Cells without a root emit nothing.

    The targets 1 - (f(x) + f(y)) are symmetric in (x, y) bit for bit,
    since float addition commutes, and the roots are computed
    elementwise, so every root table is symmetric too (the test suite
    checks this).  Each distinct root is therefore formatted once, for
    the cell with x index <= y index, and its mirror cell reuses the text.
    Every number lies in [pi/3, 2pi/3], so all of them are formatted
    together by an exact integer-digit kernel whose text equals
    ``serialize.format_float``'s byte for byte, and the rows are filled
    into one ASCII buffer by array indexing.

    ``resolution`` must be an integer (not bool) of at least 2.  Returns
    the CSV text with a header line and LF line endings; every emitted
    point satisfies its equation to within 1e-9.
    """
    _check_integer("resolution", resolution)
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    ts = np.linspace(_THIRD_PI, 2.0 * _THIRD_PI, resolution)
    targets, roots = {}, {}
    for name, shift in (("plus", _THIRD_PI), ("minus", -_THIRD_PI)):
        sq = np.sin(ts + shift) ** 2
        targets[name] = 1.0 - (sq[:, None] + sq[None, :])
        roots[name] = _eq3_root(targets[name], shift)
    # Where the surfaces touch, take the root whose target is larger.
    # dz/dt = 1 / (2 sqrt(t (1 - t))) with t <= 3/4 blows up only as
    # t -> 0, so that root is the well-conditioned one.  The smaller
    # target is the one near 0, where its surface is flat in z, so the
    # chosen z satisfies that equation as well.
    pick = np.where(targets["plus"] > targets["minus"], roots["plus"], roots["minus"])
    # NaN (no root) never compares within CONTACT_TOL.
    contact = np.abs(roots["plus"] - roots["minus"]) <= CONTACT_TOL
    roots["contact"] = np.where(contact, pick, np.nan)

    # Each grid coordinate and each root with i <= j is formatted once;
    # cell (i, j) reads its root's text through slot[i, j] (-1: no root).
    coords = _unit_float_texts(ts)
    surfaces = []
    for name, zs in roots.items():
        iu, ju = np.nonzero(np.triu(~np.isnan(zs)))
        slot = np.full((resolution, resolution), -1)
        slot[iu, ju] = slot[ju, iu] = np.arange(iu.size)
        ii, jj = np.nonzero(slot >= 0)
        # Each row "name,x,y,z\n" is this template with the three
        # 23-byte numbers written over its blanks.
        row = np.frombuffer(f"{name},{' ' * 23},{' ' * 23},{' ' * 23}\n".encode(), np.uint8)
        surfaces.append((row, ii, jj, _unit_float_texts(zs[iu, ju]), slot[ii, jj]))
    # The whole CSV is one ASCII buffer, decoded once.
    header = np.frombuffer(b"surface,x,y,z\n", np.uint8)
    buf = np.empty(header.size + sum(row.size * ii.size for row, ii, *_ in surfaces), np.uint8)
    buf[: header.size] = header
    at = header.size
    for row, ii, jj, texts, k in surfaces:
        rows = buf[at : at + row.size * ii.size].reshape(ii.size, row.size)
        rows[:] = row
        rows[:, -72:-49] = coords[ii]
        rows[:, -48:-25] = coords[jj]
        rows[:, -24:-1] = texts[k]
        at += rows.size
    return str(buf, "ascii")
