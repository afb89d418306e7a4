import json

import pytest

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

    def test_lenient_accepts_unknown(self):
        doc = json.loads(dumps(case_study_system()))
        doc["vendor"] = "acme"
        assert loads(json.dumps(doc), "system", lenient=True) == case_study_system()

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

    def test_lenient_parse_never_admits_unknown_fields_strictly(self):
        doc = json.loads(dumps(make_run()))
        doc["system"]["vendor"] = "acme"
        text = json.dumps(doc)
        table = {}
        assert loads(text, "run", lenient=True, _intern=table) == make_run()
        with pytest.raises(SchemaError, match="vendor"):
            loads(text, "run", _intern=table)

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

    def test_invalid_sub_document_is_never_stored(self):
        doc = json.loads(dumps(make_run()))
        doc["system"]["num_nodes"] = 0
        table = {}
        for _ in range(2):
            with pytest.raises(SchemaError, match="num_nodes"):
                loads(json.dumps(doc), "run", _intern=table)
        assert [key[0] for key in table] == [WorkloadSpec]
