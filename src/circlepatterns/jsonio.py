"""Deterministic JSON emission with fixed float formatting.

All numbers are written with 17 significant digits so that reports are
byte-identical across repeated runs and round-trip exactly.  ``dumps``
dispatches on ``type(obj)`` for the built-in JSON types; None, bools, NumPy
values and subclasses go through an ``isinstance`` chain to the same output.

Large lists are written from row templates.  A template is a literal
document whose numbers are the slots ``FLOAT`` and ``INT``, for example
``{"face": INT, "center": [FLOAT, FLOAT], "radius": FLOAT}``; ``dumps``
writes a slot as its %-format.  ``Rows(templates, values)`` is the list
with one template per row, its slots filled in order from ``values``, one
number per slot.  ``dumps`` renders each distinct template once, at the
depth where the ``Rows`` stands, and fills the whole list with one %
operation.  A 1-D float array is written as ``Rows([FLOAT] * n, array)``,
so it reads as the list of its floats.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


class _Slot:
    """A number in a row template, written as its %-format."""

    def __init__(self, fmt):
        self.format = fmt


FLOAT = _Slot("%.17g")
INT = _Slot("%d")


class Rows:
    """A JSON list of row templates whose slots ``values`` fills, in order."""

    def __init__(self, templates, values):
        self.templates = templates
        self.values = values


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return FLOAT.format % x


def _template_quote(s):
    """A string of a template: a literal % would read as a format."""
    return _quote(s).replace("%", "%%")


def _fill(template, values) -> str:
    """A rendered template filled with ``values`` in order; a non-finite
    number raises the ValueError of ``dumps``."""
    values = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        _format_float(float(values[bad[0]]))   # raises
    return template % tuple(values.tolist())


def _join(opening, items, closing, indent, level):
    """A JSON list or object of rendered items laid out at depth ``level``."""
    if not indent:
        return opening + ", ".join(items) + closing
    pad = "\n" + " " * (indent * (level + 1))
    return opening + pad + ("," + pad).join(items) + "\n" + " " * (indent * level) + closing


def _rows(rows, indent, level):
    if not len(rows.templates):
        return "[]"
    rendered = {}
    for t in rows.templates:
        if id(t) not in rendered:
            rendered[id(t)] = dumps(t, indent, level + 1, _template_quote)
    items = [rendered[id(t)] for t in rows.templates]
    return _fill(_join("[", items, "]", indent, level), rows.values)


def dumps(obj, indent=0, _level=0, _quote=_quote) -> str:
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
        return _join("[", [dumps(v, indent, _level + 1, _quote) for v in obj], "]",
                     indent, _level)
    if kind is dict:
        if not obj:
            return "{}"
        return _join("{", [_quote(str(k)) + ": " + dumps(v, indent, _level + 1, _quote)
                           for k, v in obj.items()], "}", indent, _level)
    if kind is Rows:
        return _rows(obj, indent, _level)
    if kind is _Slot:
        return obj.format
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
        if obj.ndim == 1 and obj.dtype.kind == "f":
            return _rows(Rows([FLOAT] * len(obj), obj), indent, _level)
        return dumps(obj.tolist(), indent, _level, _quote)
    if isinstance(obj, (list, tuple)):
        return dumps(list(obj), indent, _level, _quote)
    if isinstance(obj, dict):
        return dumps(dict(obj), indent, _level, _quote)
    raise TypeError(f"cannot serialize {type(obj)!r}")
