"""The package's one JSON writer, ``core._json_text``, and
``JsonCodec.to_dict``, which passes scalar fields through unencoded."""

import enum
import json
import math
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from hpcbench import report, roofline, rules, simulator, store
from hpcbench.core import (
    JsonCodec,
    NineLayerDeclaration,
    PrecisionMode,
    _field_order,
    _json_text,
)
from hpcbench.metrics import score_run


class Tag(str, enum.Enum):
    A = "a"


class Level(enum.IntEnum):
    ONE = 1


class Ratio(float):
    pass


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, Tag.A, Level.ONE,
            Ratio(2.5), Ratio(math.nan), True, False, None]

scalars = st.one_of(st.integers(), st.floats(), st.text(),
                    st.sampled_from(_SPECIAL))
keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(),
                 st.none(), st.sampled_from([Tag.A, Level.ONE, Ratio(-0.0)]))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=30)


def _stdlib(value):
    return json.dumps(value, indent=2)


class TestSameBytes:
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == _stdlib(value)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], {"a": {}}, [(), [{}]], {"a": [1, {"b": []}]},
        {1: 1, 1.5: 2, True: 3, None: 4, math.nan: 5, -math.inf: 6},
        [math.nan, math.inf, -math.inf, -0.0], Tag.A, "x", 3, None,
    ])
    def test_edge_cases(self, value):
        assert _json_text(value) == _stdlib(value)


def _refusal(write, value):
    with pytest.raises((TypeError, ValueError)) as info:
        write(value)
    return type(info.value), str(info.value)


def _self_containing():
    items = [1]
    items.append(items)
    return items


class TestSameRefusals:
    @pytest.mark.parametrize("make", [
        lambda: {"a": {1, 2}},
        lambda: [1, {2}],
        lambda: {(1, 2): 1},
        lambda: {"a": [{(1,): 2}]},
        _self_containing,
    ], ids=["set-value", "set-in-flat-list", "tuple-key", "nested-tuple-key",
            "self-containing-list"])
    def test_raises_as_json_dumps(self, make):
        assert _refusal(_json_text, make()) == _refusal(_stdlib, make())

    def test_a_cycle_is_a_value_error(self):
        with pytest.raises(ValueError, match="Circular reference detected"):
            _json_text(_self_containing())


def _generic(value):
    """The codec's encoding with no shortcut: every field, key, value and
    item is encoded on its own."""
    if isinstance(value, JsonCodec):
        return {name: _generic(getattr(value, name))
                for name in _field_order(type(value))}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {_generic(k): _generic(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_generic(v) for v in value]
    return value


def _one_of_each(ranking_runs, system, ic):
    runs, reference = ranking_runs
    layers = [dict(layer) for layer in runs[0].declaration.layers]
    layers[4]["framework"] = "other"
    deviant = NineLayerDeclaration(layers=tuple(layers))
    violation = rules.validate_declaration(runs[0], deviant)[0]
    options = simulator.SimulationOptions(
        achieved_quality=0.75, extra_declaration={"5.framework": "x"})
    topology = simulator.TopologySpec.ring(1e-6)
    result = simulator.simulate_training(
        system, ic, 16, 2048, PrecisionMode.FP32, topology,
        simulator.OverlapModel(0.5), options)
    return [system, system.node, system.node.accelerator, ic,
            ic.target_quality, reference, runs[0], score_run(runs[0]),
            report.rank(runs[:10])[0], violation,
            roofline.Ceiling("dgemm", "computation", 1e12),
            store.Diagnostic("a.json", "bad", "parse"),
            topology, result.timeline, options]


def test_to_dict_matches_the_generic_encoder(ranking_runs, system, ic):
    objects = _one_of_each(ranking_runs, system, ic)
    covered = {type(obj) for obj in objects}
    assert covered == set(JsonCodec.__subclasses__())
    for obj in objects:
        # repr, not ==: an enum member equals its value
        assert repr(obj.to_dict()) == repr(_generic(obj))
        assert _json_text(obj.to_dict()) == _stdlib(_generic(obj))
