import json
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from hpcbench import core
from hpcbench.core import (
    AcceleratorSpec,
    BenchLevel,
    NineLayerDeclaration,
    NodeSpec,
    PrecisionMode,
    RunRecord,
    SystemConfig,
    TargetQuality,
    WorkloadSpec,
    derive_peaks,
    dumps,
    loads,
)
from hpcbench.errors import MissingPrecision, ParseError, SchemaError
from hpcbench.presets import case_study_system, ewa_workload, reference_declaration
from hpcbench.units import TERA


def make_system(num_nodes=1, per_node=1, fp32=1e12, intra=1e9,
                inter=1e8, effective=None):
    acc = AcceleratorSpec(name="acc", peak_flops={PrecisionMode.FP32: fp32},
                          memory_bandwidth=5e11, memory_capacity=1.6e10)
    node = NodeSpec(accelerators_per_node=per_node, accelerator=acc,
                    intra_node_bandwidth=intra, system_memory=1e12,
                    storage=1e13)
    return SystemConfig(num_nodes=num_nodes, node=node,
                        inter_node_bandwidth_nominal=inter,
                        inter_node_bandwidth_effective=effective)


class TestDerivePeaks:
    def test_single_node_eight_accelerators(self):
        single, _ = derive_peaks(case_study_system(), PrecisionMode.FP32)
        assert single == 120 * TERA

    def test_distributed_eight_nodes(self):
        _, dist = derive_peaks(case_study_system(), PrecisionMode.FP32)
        assert dist == 960 * TERA

    def test_identity_scale(self):
        system = make_system(num_nodes=1, per_node=1, fp32=7.5e12)
        assert derive_peaks(system, PrecisionMode.FP32) == (7.5e12, 7.5e12)

    @pytest.mark.parametrize("nodes,per_node", [(1, 1), (2, 4), (3, 8), (16, 2)])
    def test_linear_in_both_counts(self, nodes, per_node):
        base = 3.3e12
        single, dist = derive_peaks(
            make_system(num_nodes=nodes, per_node=per_node, fp32=base),
            PrecisionMode.FP32)
        assert single == per_node * base
        assert dist == nodes * per_node * base

    def test_missing_precision_names_mode(self):
        with pytest.raises(MissingPrecision, match="int4"):
            derive_peaks(make_system(), PrecisionMode.INT4)


class StrKey(str):
    """A ``str`` subclass, as a caller may pass for a layer key."""


class TestInvariants:
    def test_effective_bandwidth_capped_at_nominal(self):
        with pytest.raises(SchemaError, match="effective"):
            make_system(inter=1e8, effective=2e8)

    def test_effective_defaults_to_nominal(self):
        assert make_system(inter=1e8).inter_node_bandwidth_effective == 1e8

    def test_target_quality_rejects_percentages(self):
        with pytest.raises(SchemaError, match="fraction"):
            TargetQuality(metric="top1", value=76.3)

    def test_fp32_peak_required(self):
        with pytest.raises(SchemaError, match="fp32"):
            AcceleratorSpec(name="x", peak_flops={PrecisionMode.FP16: 1e12},
                            memory_bandwidth=1e9, memory_capacity=1e9)

    def test_nine_layers_required(self):
        with pytest.raises(SchemaError, match="nine"):
            NineLayerDeclaration(layers=({},) * 8)

    @pytest.mark.parametrize("key", ["", 1, StrKey("")],
                             ids=["empty", "int", "empty-str-subclass"])
    def test_layer_keys_must_be_non_empty_strings(self, key):
        layers = [{} for _ in range(9)]
        layers[4] = {"framework": "x", key: "y"}
        with pytest.raises(SchemaError,
                           match="^layer 5 keys must be non-empty strings$"):
            NineLayerDeclaration(layers=tuple(layers))

    def test_str_subclass_layer_key_is_accepted(self):
        declaration = NineLayerDeclaration(
            layers=({StrKey("framework"): "x"},) + ({},) * 8)
        assert declaration.layer(1) == {"framework": "x"}

    def test_workload_positive_flops(self):
        with pytest.raises(SchemaError, match="flops_per_sample"):
            WorkloadSpec(name="w", flops_per_sample=0, params_count=1,
                         target_quality=TargetQuality("m", 0.5),
                         quality_exponent_n=1, epochs=1, dataset_samples=1,
                         min_runs=1)


def make_run(**overrides):
    system = case_study_system()
    workload = ewa_workload()
    fields = dict(
        run_id="r1", workload=workload, system=system, scale=8,
        precision=PrecisionMode.FP32, global_batchsize=8,
        achieved_quality=0.35, wall_time=3600.0, epochs_to_quality=50,
        samples_per_second_per_rank=5.75, num_ranks=8,
        level=BenchLevel.HARDWARE,
        declaration=reference_declaration(workload),
        average_power=2500.0,
    )
    fields.update(overrides)
    return RunRecord(**fields)


class TestRunRecord:
    def test_quality_bounds(self):
        with pytest.raises(SchemaError, match="achieved_quality"):
            make_run(achieved_quality=1.5)

    def test_scale_within_system(self):
        with pytest.raises(SchemaError, match="exceeds"):
            make_run(scale=65)

    def test_wall_time_positive(self):
        with pytest.raises(SchemaError, match="wall_time"):
            make_run(wall_time=0)


class TestJsonRoundTrip:
    def test_system(self):
        system = case_study_system()
        assert loads(dumps(system), "system") == system

    def test_workload(self):
        workload = ewa_workload()
        assert loads(dumps(workload), "workload") == workload

    def test_declaration(self):
        decl = reference_declaration(ewa_workload())
        assert loads(dumps(decl), "declaration") == decl

    def test_run(self):
        run = make_run()
        assert loads(dumps(run), "run") == run

    def test_run_without_power(self):
        run = make_run(average_power=None)
        parsed = loads(dumps(run), "run")
        assert parsed.average_power is None
        assert parsed == run


class TestStrictParsing:
    def test_unknown_field_rejected(self):
        doc = json.loads(dumps(case_study_system()))
        doc["vendor"] = "acme"
        with pytest.raises(SchemaError, match="vendor"):
            loads(json.dumps(doc), "system")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            loads('{"num_nodes": 1,,}', "system", path="bad.json")
        assert err.value.line == 1
        assert err.value.offset is not None
        assert "bad.json" in str(err.value)

    def test_unknown_precision_rejected(self):
        doc = json.loads(dumps(case_study_system()))
        doc["node"]["accelerator"]["peak_flops"]["fp128"] = 1e12
        with pytest.raises(SchemaError, match="precision"):
            loads(json.dumps(doc), "system")


class TestCodec:
    def test_workload_key_order(self):
        assert list(ewa_workload().to_dict()) == [
            "name", "flops_per_sample", "params_count", "bytes_per_param",
            "comp_per_step", "comm_per_step", "target_quality",
            "quality_exponent_n", "epochs", "dataset_samples", "min_runs"]

    @pytest.mark.parametrize("kind, path", [
        ("system", ("num_nodes",)),
        ("system", ("node", "accelerators_per_node")),
        ("workload", ("epochs",)),
        ("workload", ("bytes_per_param",)),
        ("run", ("scale",)),
        ("run", ("global_batchsize",)),
    ])
    def test_bool_is_not_an_integer(self, kind, path):
        obj = {"system": case_study_system(), "workload": ewa_workload(),
               "run": make_run(scale=1, global_batchsize=1)}[kind]
        doc = json.loads(dumps(obj))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = True
        with pytest.raises(SchemaError, match=path[-1]):
            loads(json.dumps(doc), kind)

    @pytest.mark.parametrize("value", [None, [1], "system", 3])
    def test_non_object_document_rejected(self, value):
        with pytest.raises(SchemaError, match="must be an object"):
            SystemConfig.from_dict(value)

    def test_bad_enum_names_its_field(self):
        doc = json.loads(dumps(make_run()))
        doc["level"] = "unlimited"
        with pytest.raises(SchemaError, match="level: 'unlimited'"):
            loads(json.dumps(doc), "run")


class TestInterning:
    """``loads`` with one intern table, as ``ingest`` calls it."""

    def test_int_float_and_key_order_give_equal_records(self):
        doc = json.loads(dumps(make_run()))
        as_int = json.loads(json.dumps(doc))
        as_int["system"]["node"]["storage"] = int(
            doc["system"]["node"]["storage"])
        reordered = json.loads(json.dumps(doc))
        reordered["system"] = dict(reversed(list(doc["system"].items())))
        table = {}
        parsed = [loads(json.dumps(d), "run", _intern=table)
                  for d in (doc, as_int, reordered)]
        assert parsed[0] == parsed[1] == parsed[2] == make_run()

    def test_float_never_reuses_the_int_entry(self):
        doc = json.loads(dumps(make_run()))
        table = {}
        loads(json.dumps(doc), "run", _intern=table)
        doc["system"]["num_nodes"] = 8.0
        with pytest.raises(SchemaError, match="num_nodes"):
            loads(json.dumps(doc), "run", _intern=table)

    @pytest.mark.parametrize("path, values", [
        (("node", "accelerator", "name"), (True, 1, 1.0)),
        (("node", "storage"), (0.0, -0.0)),
    ], ids=["bool-int-float", "signed-zero"])
    def test_equal_values_of_other_types_never_share(self, path, values):
        table = {}
        texts, parsed = [], []
        for value in values:
            doc = json.loads(dumps(make_run()))
            parent = doc["system"]
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            texts.append(json.dumps(doc))
            parsed.append(loads(texts[-1], "run", _intern=table))
        assert len({id(run.system) for run in parsed}) == len(values)
        assert [json.dumps(run.to_dict()) for run in parsed] == texts

    def test_each_declaration_text_is_built_once(self, monkeypatch):
        texts = []
        for i in range(2 * core._PROBES + 1):
            doc = json.loads(_RECORD)
            doc["declaration"]["layers"][4]["framework"] = f"tf-{i}"
            texts.append(json.dumps(doc, indent=2))
        table = {}
        first = [loads(text, "run", _intern=table) for text in texts]
        assert len(table) == 2 + len(texts)
        built = []
        monkeypatch.setattr(NineLayerDeclaration, "__post_init__",
                            lambda self: built.append(self))
        again = [loads(text, "run", _intern=table) for text in texts]
        assert (built, again) == ([], first)
        assert len(table) == 2 + len(texts)

    def test_invalid_sub_document_is_never_stored(self):
        doc = json.loads(dumps(make_run()))
        doc["system"]["num_nodes"] = 0
        table = {}
        for _ in range(2):
            with pytest.raises(SchemaError, match="num_nodes"):
                loads(json.dumps(doc), "run", _intern=table)
        assert [key[0] for key in table] == [WorkloadSpec]


_DOC = json.loads(dumps(make_run()))
_RECORD = dumps(make_run())

#: Ways to write a document: ``json.dumps`` keyword arguments.
_FORMATS = [{"indent": 2}, {}, {"separators": (",", ":")}, {"indent": "\t"}]


def _outcome(text, **kwargs):
    """What ``loads`` makes of ``text``: the record's type and JSON text,
    or the refusal's type, message, line and column."""
    try:
        record = loads(text, "run", **kwargs)
    except (SchemaError, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "offset", None))
    return type(record), dumps(record)


def _seeded() -> dict:
    """A table holding the record's ``workload`` and ``system`` in every
    format of :data:`_FORMATS`."""
    table = {}
    for fmt in _FORMATS:
        loads(json.dumps(_DOC, **fmt), "run", _intern=table)
    return table


def _same(text, table) -> None:
    assert _outcome(text, _intern=table) == _outcome(text)


def _sub_text(name) -> str:
    """The text of the record's ``name`` sub-document in
    :data:`_RECORD`."""
    start = _RECORD.index(f'"{name}": ') + len(name) + 4
    return _RECORD[start:json.JSONDecoder().raw_decode(_RECORD, start)[1]]


def _field_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _field_paths(value, prefix + (key,))


_FIELD_PATHS = list(_field_paths(_DOC))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)
_KEYS = st.sampled_from(["system", "workload", "zzz", "run_id", "scale"])

_SHARED_TABLE = _seeded()


@st.composite
def _documents(draw):
    """The record with one field replaced by any JSON value, its
    top-level keys in any order, written in any format of
    :data:`_FORMATS`, with a member that may repeat a key added first or
    last."""
    doc = json.loads(_RECORD)
    if draw(st.booleans()):
        path = draw(st.sampled_from(_FIELD_PATHS))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(_JSON_VALUES)
    order = draw(st.permutations(list(doc)))
    fmt = draw(st.sampled_from(_FORMATS))
    text = json.dumps({key: doc[key] for key in order}, **fmt)
    if draw(st.booleans()):
        key = draw(_KEYS)
        value = (_DOC[key] if key in _DOC and draw(st.booleans())
                 else draw(_JSON_VALUES))
        member = json.dumps({key: value}, **fmt).strip()[1:-1].strip()
        text = (text[0] + member + "," + text[1:] if draw(st.booleans())
                else text[:-1].rstrip() + "," + member + text[-1])
    return text


class TestSharedParse:
    """The ingest parse path, ``loads(text, "run", _intern=table)``,
    against ``loads(text, "run")``: for every document and a table shared
    between documents, the same record or the same refusal (type,
    message, line and column)."""

    @settings(max_examples=300, deadline=None)
    @given(_documents())
    @example(_RECORD)
    def test_mutated_records(self, text):
        _same(text, _SHARED_TABLE)

    def test_shared_objects_come_from_the_table(self):
        table = _seeded()
        first = loads(_RECORD, "run", _intern=table)
        again = loads(_RECORD.encode("utf-8"), "run", _intern=table)
        assert again.system is first.system
        assert again.workload is first.workload
        assert again == first == make_run()

    def test_duplicate_system_last_valid_wins(self):
        # (a) the first value is invalid, the last valid: accepted
        bad = json.loads(json.dumps(_DOC["system"]))
        bad["num_nodes"] = 0
        text = '{"system": ' + json.dumps(bad) + "," + _RECORD[1:]
        for table in ({}, _seeded()):
            _same(text, table)
            assert loads(text, "run", _intern=table) == make_run()

    def test_duplicate_system_last_invalid_refused(self):
        bad = json.loads(json.dumps(_DOC["system"]))
        bad["num_nodes"] = 0
        text = _RECORD[:-1].rstrip() + ',\n  "system": ' + json.dumps(bad) + "}"
        for table in ({}, _seeded()):
            _same(text, table)
            with pytest.raises(SchemaError, match="num_nodes"):
                loads(text, "run", _intern=table)

    def test_unknown_field_reported_before_invalid_system(self):
        # (b) the unknown-field check comes before any sub-document
        doc = json.loads(_RECORD)
        doc["system"]["num_nodes"] = 0
        doc["zzz"] = 1
        text = json.dumps(doc, indent=2)
        for table in ({}, _seeded()):
            _same(text, table)
            with pytest.raises(SchemaError) as err:
                loads(text, "run", _intern=table)
            assert str(err.value) == "unknown fields for RunRecord: zzz"

    @pytest.mark.parametrize("value", ["3", "[]", "null", '"x"'])
    def test_duplicate_system_last_not_an_object(self, value):
        # the valid, cached system first, before the walk has seen both
        # shared keys
        text = ('{"run_id": "r1", "system": ' + _sub_text("system")
                + ', "system": ' + value + ', "workload": '
                + _sub_text("workload") + ","
                + _RECORD[_RECORD.index('\n  "scale"'):])
        for table in ({}, _seeded()):
            _same(text, table)
            with pytest.raises(SchemaError, match="^system must be an object"):
                loads(text, "run", _intern=table)

    def test_swapped_sub_documents(self):
        text = (_RECORD.replace(_sub_text("workload"), "@")
                .replace(_sub_text("system"), _sub_text("workload"))
                .replace("@", _sub_text("system")))
        table = {}
        loads(_RECORD, "run", _intern=table)
        _same(text, table)
        with pytest.raises(SchemaError, match="unknown fields for WorkloadSpec"):
            loads(text, "run", _intern=table)

    @pytest.mark.parametrize("last", [False, True], ids=["only", "repeated"])
    def test_escaped_key(self, last):
        # (c) "system" is the key "system"
        table = _seeded()
        if last:
            bad = json.loads(json.dumps(_DOC["system"]))
            bad["num_nodes"] = 0
            text = (_RECORD[:-1].rstrip() + ',\n  "\\u0073ystem": '
                    + json.dumps(bad) + "}")
        else:
            text = _RECORD.replace('"system"', '"\\u0073ystem"', 1)
        _same(text, table)
        if last:
            with pytest.raises(SchemaError, match="num_nodes"):
                loads(text, "run", _intern=table)
        else:
            assert loads(text, "run", _intern=table) == make_run()

    def test_system_before_workload(self):
        # (d)
        order = ["system", "workload"] + [k for k in _DOC
                                          if k not in ("system", "workload")]
        text = json.dumps({key: _DOC[key] for key in order}, indent=2)
        table = _seeded()
        _same(text, table)
        record = loads(text, "run", _intern=table)
        shared = loads(_RECORD, "run", _intern=table)
        assert record.system is shared.system
        assert record.workload is shared.workload

    def test_cached_text_inside_a_declaration_layer(self):
        # (e) only the value of the top-level key can reuse an entry
        table = _seeded()
        cached = _sub_text("system")
        doc = json.loads(_RECORD)
        doc["system"]["num_nodes"] = 0
        text = json.dumps(doc, indent=2)
        layer = '"layers": [\n      {"copy": ' + cached + ", "
        text = text.replace('"layers": [\n      {', layer, 1)
        assert cached in text
        _same(text, table)
        with pytest.raises(SchemaError, match="num_nodes"):
            loads(text, "run", _intern=table)
        missing = json.loads(text)
        del missing["system"]
        text = json.dumps(missing, indent=2).replace(
            '"layers": [\n      {', layer, 1)
        _same(text, table)

    @pytest.mark.parametrize("text", [
        _RECORD + "x",
        _RECORD + "\n{}",
        "\ufeff" + _RECORD,
        _RECORD[:len(_RECORD) // 2],
        _RECORD[:-2],
        _RECORD.replace('"run_id": "r1"', '"run_id": ' + "[" * 100000, 1),
        _RECORD.replace('"os": "linux"', '"os": ' + "[" * 100000, 1),
        _RECORD.replace('"scale": 8', '"scale": ' + "[" * 100000, 1),
    ], ids=["trailing-data", "second-document", "bom", "truncated-half",
            "truncated-end", "deep-first-member", "deep-layer", "deep-tail"])
    def test_refused_documents_keep_their_parse_error(self, text):
        # (f)
        for data in (text, text.encode("utf-8")):
            table = _seeded()
            _same(data, table)
            with pytest.raises(ParseError):
                loads(data, "run", _intern=table)

    @pytest.mark.parametrize("field", ["run_id", "scale"])
    def test_nesting_at_the_recursion_limit(self, field):
        # the walk parses some values a few frames shallower than
        # json.loads: around the shallowest nesting json.loads refuses,
        # it must refuse too
        def text(n):
            return _RECORD.replace(f'"{field}": {json.dumps(_DOC[field])}',
                                   f'"{field}": ' + "[" * n + "]" * n, 1)

        def refused(n):
            return _outcome(text(n))[0] is ParseError

        low, high = 1, sys.getrecursionlimit()
        assert not refused(low) and refused(high)
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (low, middle) if refused(middle) else (middle, high)
        table = _seeded()
        for n in range(high - 8, high + 8):
            _same(text(n), table)

    def test_run_in_other_kinds_and_types(self):
        table = _seeded()
        for text in ("[]", "1", "", " ", "{}", '{"run_id": "r1"}',
                     bytearray(_RECORD.encode("utf-8"))):
            _same(text, table)

    @pytest.mark.parametrize("where", ["first", "before-system", "last"])
    def test_declaration_anywhere(self, where):
        order = [key for key in _DOC if key != "declaration"]
        at = {"first": 0, "before-system": order.index("system"),
              "last": len(order)}[where]
        order.insert(at, "declaration")
        text = json.dumps({key: _DOC[key] for key in order}, indent=2)
        table = _seeded()
        _same(text, table)
        assert loads(text, "run", _intern=table) == make_run()

    @pytest.mark.parametrize("first_at", ["start", "in-place"])
    @pytest.mark.parametrize("valid", ["first", "last"])
    def test_repeated_declaration(self, valid, first_at):
        good, bad = _sub_text("declaration"), '{"layers": [{}, {}]}'
        first, last = (good, bad) if valid == "first" else (bad, good)
        text = _RECORD.replace(good, first, 1)
        if first_at == "start":
            text = (text[0] + '"declaration": ' + first + ","
                    + text[1:].replace('"declaration": ' + first + ",", "", 1))
        text = text[:-1].rstrip() + ',\n  "declaration": ' + last + "}"
        assert text.count('"declaration"') == 2
        for table in ({}, _seeded()):
            _same(text, table)
            if valid == "last":
                assert loads(text, "run", _intern=table) == make_run()
            else:
                with pytest.raises(SchemaError, match="exactly nine layers"):
                    loads(text, "run", _intern=table)

    @pytest.mark.parametrize("earlier", [
        '"level": "declaration"',
        '"level": {"a": 1, "declaration": ' + _sub_text("declaration") + "}",
        '"level": ["declaration", 1]',
        '"level": [1, "declaration"]',
    ], ids=["string", "nested-object", "list-first", "list-later"])
    def test_declaration_text_before_the_key(self, earlier):
        # an earlier "level", which the record's own "level" overrides,
        # holds the key's text; and the same text as the record's level
        at = _RECORD.index('\n  "scale"')
        valid = _RECORD[:at] + " " + earlier + "," + _RECORD[at:]
        refused = _RECORD.replace('"level": "hardware"', earlier, 1)
        for table in ({}, _seeded()):
            _same(valid, table)
            assert loads(valid, "run", _intern=table) == make_run()
            _same(refused, table)
            with pytest.raises(SchemaError):
                loads(refused, "run", _intern=table)

    @pytest.mark.parametrize("last", [False, True], ids=["only", "repeated"])
    def test_escaped_declaration_key(self, last):
        table = _seeded()
        if last:
            text = (_RECORD[:-1].rstrip() + ',\n  "\\u0064eclaration": '
                    + '{"layers": []}}')
        else:
            text = _RECORD.replace('"declaration"', '"\\u0064eclaration"', 1)
        _same(text, table)
        if last:
            with pytest.raises(SchemaError, match="exactly nine layers"):
                loads(text, "run", _intern=table)
        else:
            assert loads(text, "run", _intern=table) == make_run()

    @pytest.mark.parametrize("value", ["3", "[]", "null", '"x"', "{}"])
    def test_declaration_not_an_object(self, value):
        text = _RECORD.replace(_sub_text("declaration"), value, 1)
        for table in ({}, _seeded()):
            _same(text, table)
            with pytest.raises(SchemaError):
                loads(text, "run", _intern=table)

    def test_many_declaration_texts_in_one_table(self):
        # more declaration texts than probes: workload and system are
        # still matched by their texts
        texts = []
        for i in range(2 * core._PROBES + 1):
            doc = json.loads(_RECORD)
            doc["declaration"]["layers"][4]["framework"] = f"tf-{i}"
            texts.append(json.dumps(doc, indent=2))
        table = _seeded()
        first = loads(_RECORD, "run", _intern=table)
        for text in texts + texts:
            _same(text, table)
            data, _ = core._walk_run(text, table)
            assert data["workload"] is None and data["system"] is None
            record = loads(text, "run", _intern=table)
            assert record.system is first.system
            assert record.workload is first.workload

    @pytest.mark.parametrize("nested", [False, True], ids=["scalars", "list"])
    def test_records_from_one_text_share_no_layer(self, nested):
        doc = json.loads(_RECORD)
        if nested:
            doc["declaration"]["layers"][7]["schedule"] = [1, 2]
        text = json.dumps(doc, indent=2)
        table = {}
        a, b = (loads(text, "run", _intern=table) for _ in range(2))
        assert a.declaration is not b.declaration
        assert all(x is not y for x, y in zip(a.declaration.layers,
                                               b.declaration.layers))
        a.declaration.layers[4]["framework"] = "changed"
        if nested:
            a.declaration.layers[7]["schedule"].append(3)
        assert b == loads(text, "run")
        assert loads(text, "run", _intern=table) == loads(text, "run")
