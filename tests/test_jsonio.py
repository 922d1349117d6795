"""The JSON emitter against its isinstance-chain reference, byte for byte."""

import numpy as np
import pytest

from circlepatterns.jsonio import FLOAT, INT, Rows, dumps
from oracles import dumps_reference

FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1e300, -1e300, 1e-300, -1e-300,
          5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308,
          123456789.123456789, -np.pi]
KEYS = ["a", "", "naïve", "ключ", "quote\" back\\ tab\t nl\n", " ", "emoji \U0001F600",
        "\x00\x1f control", "/slash", 7, -3, 2.5, True, None]


def _scalar(rng):
    pick = int(rng.integers(14))
    if pick == 0:
        return FLOATS[int(rng.integers(len(FLOATS)))]
    if pick == 1:
        return float(rng.standard_normal() * 10.0 ** int(rng.integers(-30, 30)))
    if pick == 2:
        return int(rng.integers(-10**6, 10**6)) * 10 ** int(rng.integers(0, 15))
    if pick == 3:
        return bool(rng.integers(2))
    if pick == 4:
        return None
    if pick == 5:
        return KEYS[int(rng.integers(9))]
    if pick == 6:
        return np.float64(FLOATS[int(rng.integers(len(FLOATS)))])
    if pick == 7:
        return np.float32(rng.standard_normal())
    if pick == 8:
        return np.int64(rng.integers(-2**62, 2**62))
    if pick == 9:
        return np.int32(rng.integers(-2**31, 2**31))
    if pick == 10:
        return np.bool_(rng.integers(2))
    if pick == 11:
        return rng.standard_normal(int(rng.integers(0, 4)))
    if pick == 12:
        return rng.integers(-5, 5, (2, int(rng.integers(0, 3))))
    return -(2 ** 70)


# row templates: a bare slot, nested lists and objects, constants, and
# strings with a literal % in a key and a value
TEMPLATES = [
    FLOAT,
    [INT, FLOAT],
    {"face": INT, "center": [FLOAT, FLOAT], "radius": FLOAT},
    {"vertex": INT, "%d 100%": {"edges": [INT, [FLOAT]], "none": []}, "tag": "50%s",
     "on": True, "off": None, "two": 2},
]


def _filled(template, rng, values):
    """The template with each slot replaced by a random number, which is
    also appended to ``values``."""
    if template is FLOAT:
        values.append(FLOATS[int(rng.integers(len(FLOATS)))])
        return values[-1]
    if template is INT:
        values.append(float(rng.integers(-10**6, 10**6)))
        return int(values[-1])
    if isinstance(template, list):
        return [_filled(t, rng, values) for t in template]
    if isinstance(template, dict):
        return {k: _filled(t, rng, values) for k, t in template.items()}
    return template


def _document(rng, depth=0):
    """A random document and the same document in plain values: a Rows
    written out as the list it stands for."""
    pick = int(rng.integers(7 if depth < 4 else 1))
    if pick == 0:
        doc = _scalar(rng)
        return doc, doc
    size = int(rng.integers(0, 5))
    if pick in (1, 2):
        pairs = [_document(rng, depth + 1) for _ in range(size)]
        kind = list if pick == 1 else tuple
        return kind(doc for doc, _ in pairs), kind(plain for _, plain in pairs)
    if pick == 3:
        doc = [float(x) for x in rng.choice(FLOATS, size)]
        return doc, doc
    if pick == 4:
        doc = [FLOATS[0], np.float64(1.5), 2.0][:size]        # floats and a NumPy scalar
        return doc, doc
    if pick == 5:
        # one or two templates, each object shared by the rows that use it
        shared = [TEMPLATES[int(i)] for i in rng.choice(len(TEMPLATES), 2)]
        templates = [shared[int(i)] for i in rng.integers(len(shared), size=size)]
        values = []
        plain = [_filled(t, rng, values) for t in templates]
        return Rows(templates, np.array(values)), plain
    keys = [KEYS[int(rng.integers(len(KEYS)))] for _ in range(size)]
    docs = [_document(rng, depth + 1) for _ in range(size)]
    return ({k: doc for k, (doc, _) in zip(keys, docs)},
            {k: plain for k, (_, plain) in zip(keys, docs)})


@pytest.mark.parametrize("indent", [0, 2])
def test_dumps_matches_reference(indent):
    rng = np.random.default_rng(40 + indent)
    rows = 0
    for _ in range(400):
        doc, plain = _document(rng)
        assert dumps(doc, indent=indent) == dumps_reference(plain, indent=indent)
        rows += "Rows" in repr(doc)
    assert rows > 50
    for doc in ([], (), {}, [[]], {"": {}}, [[], {}, ()], FLOATS, [1.0, 2],
                np.zeros(0), np.arange(3), np.eye(2), np.array([True, False])):
        assert dumps(doc, indent=indent) == dumps_reference(doc, indent=indent)


def test_rows_edge_cases():
    for indent in (0, 2):
        assert dumps(Rows([], np.zeros(0)), indent=indent) == "[]"
        assert dumps({"x": Rows([], [])}, indent=indent) == dumps({"x": []}, indent=indent)
        for a in (np.zeros(0), np.array(FLOATS), np.float32([0.1, -2.5]), np.arange(4.0)):
            assert dumps(a, indent=indent) == dumps(a.tolist(), indent=indent)
            assert dumps([a, {"a": a}], indent=indent) == dumps([a.tolist(), {"a": a.tolist()}],
                                                                indent=indent)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 np.float64("nan"), [1.0, float("inf")],
                                 {"x": [float("-inf"), 2]}, np.array([0.0, np.nan]),
                                 Rows([[INT, FLOAT]] * 2, [0, 1.0, 1, np.inf]),
                                 {"x": Rows([FLOAT], [float("nan")])}])
def test_dumps_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        dumps(bad)
    with pytest.raises(ValueError):
        dumps(bad, indent=2)


@pytest.mark.parametrize("bad", [object(), {1, 2}, 1 + 2j, b"bytes", np.array(1.0)])
def test_dumps_rejects_unknown_types(bad):
    with pytest.raises(TypeError):
        dumps({"x": [bad]})
