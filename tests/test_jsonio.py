"""The JSON emitter against its isinstance-chain reference, byte for byte."""

import numpy as np
import pytest

from circlepatterns.jsonio import dumps
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


def _document(rng, depth=0):
    pick = int(rng.integers(6 if depth < 4 else 1))
    if pick == 0:
        return _scalar(rng)
    size = int(rng.integers(0, 5))
    if pick == 1:
        return [_document(rng, depth + 1) for _ in range(size)]
    if pick == 2:
        return tuple(_document(rng, depth + 1) for _ in range(size))
    if pick == 3:
        return [float(x) for x in rng.choice(FLOATS, size)]   # the all-float path
    if pick == 4:
        return [FLOATS[0], np.float64(1.5), 2.0][:size]        # floats and a NumPy scalar
    return {KEYS[int(rng.integers(len(KEYS)))]: _document(rng, depth + 1) for _ in range(size)}


@pytest.mark.parametrize("indent", [0, 2])
def test_dumps_matches_reference(indent):
    rng = np.random.default_rng(40 + indent)
    for _ in range(400):
        doc = _document(rng)
        assert dumps(doc, indent=indent) == dumps_reference(doc, indent=indent)
    for doc in ([], (), {}, [[]], {"": {}}, [[], {}, ()], FLOATS, [1.0, 2],
                np.zeros(0), np.arange(3), np.eye(2), np.array([True, False])):
        assert dumps(doc, indent=indent) == dumps_reference(doc, indent=indent)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 np.float64("nan"), [1.0, float("inf")],
                                 {"x": [float("-inf"), 2]}, np.array([0.0, np.nan])])
def test_dumps_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        dumps(bad)
    with pytest.raises(ValueError):
        dumps(bad, indent=2)


@pytest.mark.parametrize("bad", [object(), {1, 2}, 1 + 2j, b"bytes", np.array(1.0)])
def test_dumps_rejects_unknown_types(bad):
    with pytest.raises(TypeError):
        dumps({"x": [bad]})
