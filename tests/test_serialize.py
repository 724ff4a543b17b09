"""
Deterministic JSON emission: fixed float format, insertion-order keys,
and numpy scalar support.

Ground truth: python's json module must parse everything back, and the
float grammar is checked against format(x, '.17e') which roundtrips any
double exactly.  The array formatter for floats in [1, 10) is checked
row for row against format_float.
"""
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from goodsub import dumps, format_float
from goodsub.serialize import _unit_float_texts


class TestFormatFloat:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
            assert float(format_float(x)) == x

    def test_known_values(self):
        assert format_float(0.5) == "5.00000000000000000e-01"
        assert format_float(0.0) == "0.00000000000000000e+00"
        assert format_float(-1.0) == "-1.00000000000000000e+00"

    def test_rejects_nan_inf(self):
        with pytest.raises(ValueError):
            format_float(math.nan)
        with pytest.raises(ValueError):
            format_float(math.inf)


def _assert_texts_match(values):
    got = _unit_float_texts(values)
    assert got.dtype == np.uint8 and got.shape == (values.size, 23)
    want = np.array([format_float(x) for x in values.tolist()], dtype="S23")
    bad = np.flatnonzero(got.view("S23").ravel() != want)
    assert bad.size == 0, [(values[i], got[i].tobytes(), want[i]) for i in bad[:5]]


class TestUnitFloatTexts:
    def test_seeded_uniform(self):
        values = np.random.default_rng(27).uniform(1.0, 10.0, 1_000_000)
        _assert_texts_match(values)

    @pytest.mark.parametrize("low, high", [(1, 2), (2, 4), (4, 8), (8, 10)])
    def test_exact_ties(self, low, high):
        # v = m / 2**18 with m odd makes v * 10**17 = m * 5**17 / 2 a
        # half-integer in every binade.  5**17 = 1 (mod 4), so the base
        # floor(v * 10**17) is even for m = 1 (mod 4) and odd for m = 3:
        # the tie rounds down for the first and up for the second.
        m = np.random.default_rng(low).integers(low * 2**16, high * 2**16, 10_000) * 4
        values = np.concatenate([m + 1, m + 3]) / 2.0**18
        scaled = [Fraction(x) * 10**17 for x in values.tolist()]
        assert all(t.denominator == 2 for t in scaled)
        assert {math.floor(t) % 2 for t in scaled} == {0, 1}
        assert low <= values.min() and values.max() < high
        _assert_texts_match(values)

    def test_binade_edges(self):
        values = np.array(
            [1.0, np.nextafter(2.0, 0.0), 2.0, 4.0, 8.0, np.nextafter(10.0, 0.0)]
        )
        _assert_texts_match(values)
        assert _unit_float_texts(values)[-1].tobytes() == b"9.99999999999999822e+00"

    @pytest.mark.parametrize("bad", [np.nextafter(1.0, 0.0), 10.0, -1.5, math.nan, math.inf])
    def test_rejects_outside_unit_decade(self, bad):
        with pytest.raises(ValueError, match=r"\[1, 10\)"):
            _unit_float_texts(np.array([2.0, bad]))


class TestDumps:
    def test_parses_back(self):
        obj = {
            "name": "x",
            "ok": True,
            "count": 3,
            "value": 0.25,
            "items": [1.0, 2.0],
            "nothing": None,
        }
        parsed = json.loads(dumps(obj))
        assert parsed == obj

    def test_key_order_preserved(self):
        obj = {"zebra": 1, "apple": 2, "mango": 3}
        text = dumps(obj)
        assert text.index("zebra") < text.index("apple") < text.index("mango")

    def test_floats_in_fixed_format(self):
        text = dumps({"v": 0.5})
        assert "5.00000000000000000e-01" in text

    def test_bool_not_int(self):
        assert json.loads(dumps({"flag": True}))["flag"] is True
        assert json.loads(dumps({"n": 1}))["n"] == 1

    def test_numpy_scalars(self):
        obj = {
            "i": np.int64(7),
            "f": np.float64(0.5),
            "b": np.bool_(True),
        }
        parsed = json.loads(dumps(obj))
        assert parsed == {"i": 7, "f": 0.5, "b": True}

    def test_tuples_as_lists(self):
        assert json.loads(dumps({"t": (1, 2)}))["t"] == [1, 2]

    def test_nested(self):
        obj = {"a": [{"b": [0.125, None]}, []]}
        assert json.loads(dumps(obj)) == {"a": [{"b": [0.125, None]}, []]}

    def test_string_escaping(self):
        text = dumps({"s": 'quote " and \\ backslash'})
        assert json.loads(text)["s"] == 'quote " and \\ backslash'

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            dumps({1: "x"})

    def test_deterministic(self):
        obj = {"a": [0.1, 0.2], "b": {"c": 3}}
        assert dumps(obj) == dumps(obj)

    def test_numpy_array_elements_via_item(self):
        # Arrays themselves are not supported; callers convert first.
        with pytest.raises(TypeError):
            dumps({"arr": np.zeros(3)})
