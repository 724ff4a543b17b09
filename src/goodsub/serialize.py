"""Deterministic JSON emission with full-precision floats.

The stock json module prints floats with repr, which is exact but not
fixed-width; reports here promise 17 significant digits after the leading
one, so floats are written in scientific notation with a fixed mantissa
length.  Key order follows dict insertion order, making serialized
reports byte-identical across repeated runs.
"""

import json
import math

import numpy as np

__all__ = ["dumps", "format_float"]


def format_float(x):
    """Fixed-precision text for a finite float; round-trips float64 exactly."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17e")


# Veltkamp's constant splits a float into two halves of at most 26 bits.
_VELTKAMP = 2.0**27 + 1.0
# 5**17 < 2**40 is an exact float; split once here.
_FIVE17 = 5.0**17
_FIVE17_HI = _FIVE17 * _VELTKAMP - (_FIVE17 * _VELTKAMP - _FIVE17)
_FIVE17_LO = _FIVE17 - _FIVE17_HI
# Entry g is the four ASCII digits of g, zero-padded, read as one uint32.
# uint16 keeps every temporary under glibc's 128 KiB mmap threshold: freeing
# a larger block raises that threshold for the rest of the process, which
# raised the certify-cli benchmark's peak RSS by about 1.4 MB.
_DIGIT_GROUPS = (
    (np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16))
    % 10
    + ord("0")
).astype(np.uint8).view(np.uint32).ravel()
_EXPONENT = np.frombuffer(b"e+00", dtype=np.uint8)


def _unit_float_texts(values):
    """The bytes of ``format_float`` for every float in [1, 10), as one array.

    Returns an (N, 23) uint8 array whose row i is the ASCII text of
    ``format_float(values[i])``, "d.ddddddddddddddddde+00".  Raises
    ValueError unless every value lies in [1, 10) (NaN and infinities
    do not).

    Exactness.  That text is D = v * 10**17 rounded half to even to an
    integer, which ``format`` computes correctly rounded.  With
    10**17 = 5**17 * 2**17, Dekker's product of v and the exact float
    5**17 (Veltkamp splits, constant 2**27 + 1) gives floats p and e
    with p + e = v * 5**17 exactly, and scaling both by 2**17 is exact.
    v is a multiple of 2**-52 and v * 5**17 lies in [2**39, 2**43), so
    p has an ulp of at least 2**-13: P = p * 2**17 is an integer of at
    most 10**18, and E = e * 2**17 a multiple of 2**-35 with
    |E| <= ulp(P) / 2 <= 64.  floor(E) and E - floor(E) are multiples
    of 2**-35 below 2**7, so they are exact too, and D is the base
    P + floor(E), plus one when the fraction exceeds 1/2 or is 1/2 with
    the base odd.  v >= 1 gives D >= 10**17 and v <= 10 - 2**-49 gives
    D <= 10**18 - 178, so D always has 18 digits.  The argument needs
    each numpy operation rounded to nearest binary64 on its own, with no
    fused multiply-add; the test suite compares this with
    ``format_float`` on seeded floats, exact ties and the binade edges.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    inside = (v >= 1.0) & (v < 10.0)
    if not inside.all():
        raise ValueError(f"expected floats in [1, 10), got {float(v[~inside][0])!r}")
    c = v * _VELTKAMP
    hi = c - (c - v)
    lo = v - hi
    p = v * _FIVE17
    e = ((hi * _FIVE17_HI - p) + hi * _FIVE17_LO + lo * _FIVE17_HI) + lo * _FIVE17_LO
    e *= 2.0**17
    floor = np.floor(e)
    frac = e - floor
    d = (p * 2.0**17).astype(np.int64) + floor.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & (d % 2 == 1))
    groups = np.stack([d // 10**k % 10_000 for k in (12, 8, 4, 0)], axis=1)
    head = d // 10**16
    out = np.empty((v.size, 23), dtype=np.uint8)
    out[:, 0] = head // 10 + ord("0")
    out[:, 1] = ord(".")
    out[:, 2] = head % 10 + ord("0")
    out[:, 3:19] = _DIGIT_GROUPS[groups].view(np.uint8)
    out[:, 19:] = _EXPONENT
    return out


def _emit(obj, level, out):
    if isinstance(obj, np.generic):
        obj = obj.item()
    pad = "  " * level
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            out.append(inner)
            out.append(json.dumps(key))
            out.append(": ")
            _emit(value, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(inner)
            _emit(value, level + 1, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj):
    """Nested dicts/lists/scalars as JSON text, two-space indented, no trailing newline."""
    out = []
    _emit(obj, 0, out)
    return "".join(out)
