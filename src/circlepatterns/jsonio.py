"""Deterministic JSON emission with fixed float formatting.

All numbers are written with 17 significant digits so that reports are
byte-identical across repeated runs and round-trip exactly.  ``dumps``
dispatches on ``type(obj)`` for the built-in JSON types and formats a list
of plain floats in one ``map``; None, bools, NumPy values and subclasses go
through an ``isinstance`` chain to the same output.  ``join`` lays out a
list or object as ``dumps`` does, so a large document can be written from
row templates with ``FLOAT_FORMAT`` slots, which ``fill`` fills.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

FLOAT_FORMAT = "%.17g"
_FLOATS = {float}


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return FLOAT_FORMAT % x


def fill(template, values) -> str:
    """A row template filled with ``values`` in order; a non-finite number
    raises the ValueError of ``dumps``."""
    values = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        _format_float(float(values[bad[0]]))   # raises
    return template % tuple(values.tolist())


def join(opening, items, closing, indent, level):
    """A JSON list or object of rendered items as ``dumps`` lays it out at
    depth ``level``; also builds the row templates of larger documents."""
    if not indent:
        return opening + ", ".join(items) + closing
    pad = "\n" + " " * (indent * (level + 1))
    return opening + pad + ("," + pad).join(items) + "\n" + " " * (indent * level) + closing


def dumps(obj, indent=0, _level=0) -> str:
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is int:
        return str(obj)
    if kind is str:
        return _quote(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if set(map(type, obj)) == _FLOATS:
            return join("[", map(_format_float, obj), "]", indent, _level)
        return join("[", [dumps(v, indent, _level + 1) for v in obj], "]", indent, _level)
    if kind is dict:
        if not obj:
            return "{}"
        return join("{", [_quote(str(k)) + ": " + dumps(v, indent, _level + 1)
                          for k, v in obj.items()], "}", indent, _level)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, np.ndarray) and obj.ndim:
        return dumps(obj.tolist(), indent, _level)
    if isinstance(obj, (list, tuple)):
        return dumps(list(obj), indent, _level)
    if isinstance(obj, dict):
        return dumps(dict(obj), indent, _level)
    raise TypeError(f"cannot serialize {type(obj)!r}")
