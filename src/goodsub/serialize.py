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
