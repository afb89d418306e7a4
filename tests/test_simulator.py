import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hpcbench.cli import main
from hpcbench.core import PrecisionMode, loads
from hpcbench.errors import BatchShardError, DegenerateBand, SchemaError
from hpcbench.presets import (
    COMPUTE_EFFICIENCY,
    case_study_system,
    ewa_workload,
    image_classification_workload,
)
from hpcbench.roofline import RooflineMode, RooflineModel, RooflinePoint, attained_bound
from hpcbench.simulator import (
    OverlapModel,
    SimulationOptions,
    TopologyKind,
    TopologySpec,
    allreduce_time,
    allreduce_traffic,
    phase_breakdown,
    run_scenario,
    simulate_training,
    step_time,
    sweep_csv,
)

RING = TopologySpec.ring()
ALL_KINDS = [TopologySpec(kind=k, groups=4 if k is TopologyKind.HIERARCHICAL_RING else 1)
             for k in TopologyKind]


def ring_phase_oracle(message_bytes, participants):
    """Explicit enumeration of ring reduce-scatter + allgather phases:
    each of the 2(p-1) phases moves one message chunk per participant."""
    p = participants
    if p == 1:
        return 0.0, 0.0
    chunk = message_bytes / p
    per_participant = 0.0
    for _phase in range(p - 1):       # reduce-scatter
        per_participant += chunk
    for _phase in range(p - 1):       # allgather
        per_participant += chunk
    return per_participant, per_participant * p


class TestAllreduceTraffic:
    def test_four_participants(self):
        per, total = allreduce_traffic(100e6, 4)
        assert per == pytest.approx(150e6)
        assert total == pytest.approx(600e6)

    def test_single_participant_moves_nothing(self):
        assert allreduce_traffic(123e6, 1) == (0.0, 0.0)

    def test_64_participants_total(self):
        _, total = allreduce_traffic(164e6, 64)
        assert total == pytest.approx(2 * 63 * 164e6)
        assert total == pytest.approx(20.664e9)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16, 31, 64])
    def test_matches_phase_oracle(self, p):
        message = 41e6 * 4
        per_oracle, total_oracle = ring_phase_oracle(message, p)
        per, total = allreduce_traffic(message, p)
        assert per == pytest.approx(per_oracle, rel=1e-12)
        assert total == pytest.approx(total_oracle, rel=1e-12)

    def test_total_is_participants_times_per(self):
        for p in (2, 5, 48):
            per, total = allreduce_traffic(3e7, p)
            assert total == pytest.approx(p * per, rel=1e-12)


class TestAllreduceTime:
    def test_single_participant_is_free(self):
        for topo in ALL_KINDS:
            assert allreduce_time(1e9, 1, topo, 1e9) == 0.0

    def test_bandwidth_term(self):
        assert allreduce_time(100e6, 4, RING, 1e9) == pytest.approx(0.15)

    def test_large_scale_asymptote(self):
        # fixed message and bandwidth: ring time approaches 2M/B
        message, band = 1e8, 1e9
        limit = 2 * message / band
        times = [allreduce_time(message, p, RING, band)
                 for p in (64, 256, 1024, 8192)]
        assert all(t < limit for t in times)
        assert times[-1] == pytest.approx(limit, rel=1e-3)
        assert times == sorted(times)

    def test_latency_terms_by_topology(self):
        lat = 1e-3
        p = 16
        base = allreduce_traffic(1e8, p).per_participant / 1e9
        ring = allreduce_time(1e8, p, TopologySpec.ring(latency=lat), 1e9)
        assert ring == pytest.approx(base + 2 * 15 * lat)
        tree = allreduce_time(
            1e8, p, TopologySpec(kind=TopologyKind.DOUBLE_BINARY_TREE,
                                 per_message_latency=lat), 1e9)
        assert tree == pytest.approx(base + 2 * 4 * lat)
        butterfly = allreduce_time(
            1e8, p, TopologySpec(kind=TopologyKind.BUTTERFLY,
                                 per_message_latency=lat), 1e9)
        assert butterfly == pytest.approx(tree)
        hier = allreduce_time(
            1e8, p, TopologySpec(kind=TopologyKind.HIERARCHICAL_RING,
                                 per_message_latency=lat, groups=4), 1e9)
        assert hier == pytest.approx(base + (2 * 3 + 2 * 3) * lat)

    def test_hierarchical_groups_must_divide(self):
        topo = TopologySpec(kind=TopologyKind.HIERARCHICAL_RING,
                            per_message_latency=1e-3, groups=5)
        with pytest.raises(SchemaError):
            allreduce_time(1e8, 16, topo, 1e9)

    def test_zero_bandwidth(self):
        with pytest.raises(DegenerateBand):
            allreduce_time(1e8, 4, RING, 0.0)


class TestStepTime:
    def test_full_overlap(self):
        assert step_time(0.1, 0.05, OverlapModel(1.0)) == pytest.approx(0.1)

    def test_serial(self):
        assert step_time(0.1, 0.05, OverlapModel(0.0)) == pytest.approx(0.15)

    def test_blend(self):
        assert step_time(0.1, 0.05, OverlapModel(0.5)) == pytest.approx(0.125)

    @given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 1))
    def test_bounded_between_max_and_sum(self, compute, comm, alpha):
        t = step_time(compute, comm, OverlapModel(alpha))
        assert max(compute, comm) - 1e-12 <= t <= compute + comm + 1e-12

    @given(st.floats(0.01, 10), st.floats(0.01, 10),
           st.floats(0, 1), st.floats(0, 1))
    def test_monotone_non_increasing_in_alpha(self, compute, comm, a1, a2):
        lo, hi = sorted((a1, a2))
        assert (step_time(compute, comm, OverlapModel(hi))
                <= step_time(compute, comm, OverlapModel(lo)) + 1e-12)


def options(workload, precision=PrecisionMode.FP32, **overrides):
    fields = dict(
        achieved_quality=workload.target_quality.value,
        compute_efficiency=COMPUTE_EFFICIENCY.get(
            (workload.name, precision), 1.0),
        negotiation_skew=0.0,
        skew_seed=11,
    )
    fields.update(overrides)
    return SimulationOptions(**fields)


def simulate(workload, scale, per_rank_batch, alpha=0.8, topo=RING,
             precision=PrecisionMode.FP32, system=None, **overrides):
    system = system or case_study_system()
    return simulate_training(
        system, workload, scale, per_rank_batch * scale, precision, topo,
        OverlapModel(alpha), options(workload, precision, **overrides))


class TestSimulateTraining:
    def test_efficiency_one_at_baseline(self, ewa):
        result = simulate(ewa, 8, 1)
        assert result.efficiency == 1.0

    def test_ewa_scales_worse_than_ic(self, ewa, ic):
        for scale in (16, 32, 64):
            ewa_eff = simulate(ewa, scale, 1, alpha=0.8).efficiency
            ic_eff = simulate(ic, scale, 128, alpha=0.8).efficiency
            assert ewa_eff < ic_eff

    def test_efficiency_non_increasing_in_scale(self, ewa, ic):
        for workload, batch in ((ewa, 1), (ic, 128)):
            effs = [simulate(workload, s, batch).efficiency
                    for s in (8, 16, 32, 64)]
            assert all(a >= b - 1e-12 for a, b in zip(effs, effs[1:]))
            assert all(e <= 1.0 + 1e-12 for e in effs)

    def test_compression_helps_when_communication_bound(self, ewa):
        plain = simulate(ewa, 64, 1, alpha=0.8)
        squeezed = simulate(ewa, 64, 1, alpha=0.8, compress_factor=2.0)
        assert squeezed.throughput_flops > plain.throughput_flops

    def test_compression_noop_when_compute_hides_comm(self, ic):
        # full overlap and compute-dominated: compression changes nothing
        plain = simulate(ic, 32, 128, alpha=1.0)
        squeezed = simulate(ic, 32, 128, alpha=1.0, compress_factor=2.0)
        assert plain.step.compute_time > plain.step.comm_processing
        assert squeezed.throughput_flops == pytest.approx(
            plain.throughput_flops, rel=1e-12)

    def test_batch_shard_error(self, ewa):
        with pytest.raises(BatchShardError):
            simulate_training(case_study_system(), ewa, 16, 100,
                              PrecisionMode.FP32, RING, OverlapModel(1.0),
                              options(ewa))

    def test_partial_node_scale_rejected(self, ewa):
        with pytest.raises(SchemaError, match="whole nodes"):
            simulate(ewa, 12, 1)

    def test_determinism(self, ewa):
        a = simulate(ewa, 16, 1, negotiation_skew=0.004, skew_seed=3)
        b = simulate(ewa, 16, 1, negotiation_skew=0.004, skew_seed=3)
        assert a.run == b.run
        assert a.timeline == b.timeline
        assert a.throughput_flops == b.throughput_flops

    def test_quality_is_declared_not_invented(self, ewa):
        result = simulate(ewa, 8, 1, achieved_quality=0.31)
        assert result.run.achieved_quality == 0.31

    def test_wall_time_consistent_with_rates(self, ic):
        result = simulate(ic, 16, 128)
        run = result.run
        steps_per_epoch = math.ceil(ic.dataset_samples / run.global_batchsize)
        expected = run.epochs_to_quality * steps_per_epoch * result.step.step_seconds
        assert run.wall_time == pytest.approx(expected, rel=1e-12)

    def test_run_record_round_trips(self, ewa):
        result = simulate(ewa, 16, 1, negotiation_skew=0.002)
        text = json.dumps(result.run.to_dict())
        assert loads(text, "run") == result.run

    def test_string_precision_is_coerced(self, ewa):
        result = simulate(ewa, 16, 1, precision="fp32")
        assert result.run.precision is PrecisionMode.FP32
        assert result.run == simulate(ewa, 16, 1).run

    @pytest.mark.parametrize("name", ["compress_factor", "negotiation_skew"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_options_rejected(self, name, value):
        with pytest.raises(SchemaError, match=name):
            SimulationOptions(achieved_quality=0.76, **{name: value})


class TestPhaseTimeline:
    def test_no_waits_at_full_overlap_without_skew(self, ewa):
        result = simulate(ewa, 16, 1, alpha=1.0, negotiation_skew=0.0)
        t = result.timeline
        assert t.wait_for_data == 0.0
        assert t.wait_for_other_data == 0.0
        assert t.queuing == 0.0
        assert t.negotiation == 0.0

    def test_components_sum_to_comm_wall_time(self, ewa, ic):
        for workload, batch, alpha, skew in ((ewa, 1, 0.5, 0.003),
                                             (ic, 128, 0.9, 0.001)):
            result = simulate(workload, 32, batch, alpha=alpha,
                              negotiation_skew=skew)
            wall = (result.step.comm_processing
                    + (1 - alpha) * result.step.compute_time)
            assert result.timeline.total() == pytest.approx(wall, rel=1e-12)

    def test_memcpy_phases_use_accelerator_memory(self, ewa):
        result = simulate(ewa, 16, 1)
        system = case_study_system()
        expected = ewa.gradient_bytes / system.node.accelerator.memory_bandwidth
        assert result.timeline.memcpy_in == pytest.approx(expected)
        assert result.timeline.memcpy_out == pytest.approx(expected)

    def test_negotiation_share_tracks_skew(self, ewa, ic):
        # many small tensors and high readiness skew versus a smooth,
        # low-skew pipeline: the first spends a visibly larger share of
        # its communication wall time negotiating
        chatty = simulate(ewa, 32, 1, alpha=0.5, negotiation_skew=0.05,
                          gradient_tensors=100)
        smooth = simulate(ic, 32, 128, alpha=0.9, negotiation_skew=0.005)
        share = lambda r: r.timeline.negotiation / r.timeline.total()
        assert share(chatty) > share(smooth)


class TestCrossModuleBound:
    def test_simulated_throughput_below_matching_roofline(self, ewa, ic):
        # matching model: flat roof is the aggregate peak at the scale,
        # slant is the aggregate of the per-participant links the
        # simulator charges traffic to
        system = case_study_system()
        for workload, batch in ((ewa, 1), (ic, 128)):
            for scale in (2, 8, 16, 32, 64):
                for alpha in (0.0, 0.5, 1.0):
                    result = simulate(workload, scale, batch, alpha=alpha)
                    peak = scale * system.node.accelerator.peak_for(
                        PrecisionMode.FP32)
                    band = scale * result.step.bandwidth
                    model = RooflineModel(mode=RooflineMode.DISTRIBUTED,
                                          peak_flops=peak, peak_band=band)
                    point = RooflinePoint.from_traffic(
                        "sim", workload.flops_per_sample * batch * scale,
                        allreduce_traffic(result.step.message_bytes,
                                          scale).total)
                    bound = attained_bound(model, point.coi)
                    assert result.throughput_flops <= bound * (1 + 1e-9)


class TestExtraDeclaration:
    def test_key_names_a_layer(self, ewa):
        run = simulate(ewa, 8, 1, extra_declaration={"5.framework": "x"}).run
        assert run.declaration.layer(5)["framework"] == "x"

    @pytest.mark.parametrize("extra", [
        {"x.y": 1}, {"0.note": "z"}, {"10.a": 1}, {"5.": 1}, {"5": 1},
        {5: 1}, [("5.a", 1)]])
    def test_bad_keys_are_schema_errors(self, extra):
        with pytest.raises(SchemaError, match="extra_declaration"):
            SimulationOptions(achieved_quality=0.35, extra_declaration=extra)


class TestScenario:
    def scenario_doc(self, tmp_path, ewa):
        system = case_study_system()
        return {
            "system": system.to_dict(),
            "workload": ewa.to_dict(),
            "sweep": [8, 16, 32],
            "per_rank_batch": 1,
            "precision": "fp32",
            "alpha": 0.7,
            "topology": {"kind": "ring", "per_message_latency": 1e-5},
            "options": {"achieved_quality": 0.35,
                        "compute_efficiency": 0.26},
        }

    def test_scenario_writes_records_and_sweep(self, tmp_path, ewa):
        doc = self.scenario_doc(tmp_path, ewa)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        results = run_scenario(path, out_dir=out)
        assert [r.run.scale for r in results] == [8, 16, 32]
        files = sorted(out.glob("*.json"))
        assert len(files) == 3
        for f in files:
            record = loads(f.read_text(), "run")
            assert record.achieved_quality == 0.35
        csv_text = (out / "sweep.csv").read_text()
        assert csv_text.splitlines()[0] == "scale,throughput_flops,efficiency"
        assert csv_text == sweep_csv(results)

    def test_unsafe_run_id_writes_nothing(self, tmp_path, ewa):
        doc = self.scenario_doc(tmp_path, ewa)
        doc["sweep"] = [8]
        doc["options"]["run_id"] = "../escaped"
        out = tmp_path / "a" / "out"
        with pytest.raises(SchemaError, match="safe path component"):
            run_scenario(doc, out_dir=out)
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("sweep, run_id, match", [
        ([8, 16, 32], "mine", "scales 8 and 16 both write run_id 'mine'"),
        ([8, 8], None, "scales 8 and 8 both write run_id "
                       "'sim-extreme_weather-8x-fp32-b8-s0'"),
    ], ids=["fixed-run-id", "repeated-scale"])
    def test_shared_run_id_writes_nothing(self, tmp_path, ewa, sweep, run_id,
                                          match):
        doc = self.scenario_doc(tmp_path, ewa)
        doc["sweep"] = sweep
        if run_id:
            doc["options"]["run_id"] = run_id
        with pytest.raises(SchemaError, match=match):
            run_scenario(doc, out_dir=tmp_path / "out")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("key, value, name", [
        ("per_rank_batch", "abc", "per_rank_batch"),
        ("per_rank_batch", True, "per_rank_batch"),
        ("sweep", [8, "16"], "sweep scale"),
        ("alpha", "x", "alpha"),
        ("alpha", math.nan, "alpha"),
        ("topology", {"kind": "ring", "per_message_latency": math.nan},
         "per_message_latency"),
        ("topology", {"kind": "ring", "groups": True}, "groups"),
        ("topology", {"kind": "torus"}, "kind"),
        ("topology", {"kind": "ring", "hops": 2}, "hops"),
        ("options", {"achieved_quality": "high"}, "achieved_quality"),
        ("options", {"achieved_quality": 0.35, "level": "max"}, "level"),
        ("options", {"achieved_quality": 0.35, "gradient_tensors": 1.5},
         "gradient_tensors"),
        ("options", [1], "options"),
        ("aplha", 0.9, "aplha"),
        ("options_by_scale", {"eight": {}}, "options_by_scale"),
    ])
    def test_bad_scenario_values_are_schema_errors(self, tmp_path, ewa, key,
                                                   value, name):
        doc = self.scenario_doc(tmp_path, ewa)
        doc[key] = value
        with pytest.raises(SchemaError, match=name):
            run_scenario(doc)

    def test_scenario_requires_sweep(self, tmp_path, ewa):
        doc = self.scenario_doc(tmp_path, ewa)
        doc["sweep"] = []
        with pytest.raises(SchemaError):
            run_scenario(doc)


class TestSweepSharesWork:
    """``run_scenario`` costs each step and draws each skew sequence once
    per call; every result must equal a lone ``simulate_training``."""

    SKEW, SEED = 4e-4, 31

    def scenario(self, ewa, seed=SEED):
        return {
            "system": case_study_system().to_dict(),
            "workload": ewa.to_dict(),
            "sweep": [2, 4, 8, 16, 32, 64],
            "per_rank_batch": 2,
            "precision": "fp32",
            "alpha": 0.7,
            "topology": {"kind": "ring", "per_message_latency": 5e-6},
            "options": {"achieved_quality": 0.35, "compute_efficiency": 0.26,
                        "negotiation_skew": self.SKEW, "skew_seed": seed,
                        "gradient_tensors": 16, "baseline_scale": 2},
            "options_by_scale": {"16": {"negotiation_skew": 9e-4,
                                        "skew_seed": seed + 1,
                                        "compute_efficiency": 0.2}},
        }

    def lone(self, doc, scale):
        options = {**doc["options"], **doc["options_by_scale"].get(str(scale), {})}
        return simulate_training(
            case_study_system(), ewa_workload(), scale,
            doc["per_rank_batch"] * scale, doc["precision"],
            TopologySpec.from_dict(doc["topology"]), OverlapModel(doc["alpha"]),
            SimulationOptions(**options))

    def assert_each_scale_is_lone(self, doc, results):
        assert [r.run.scale for r in results] == doc["sweep"]
        for r in results:
            lone = self.lone(doc, r.run.scale)
            assert r.run == lone.run
            assert r.throughput_flops == lone.throughput_flops
            assert r.efficiency == lone.efficiency
            assert r.timeline == lone.timeline
            assert r.step == lone.step

    @pytest.mark.parametrize("sweep", [[2, 4, 8, 16, 32, 64], [64, 8, 16, 2]],
                             ids=["ascending", "unsorted"])
    def test_each_scale_equals_a_lone_simulation(self, ewa, sweep):
        doc = {**self.scenario(ewa), "sweep": sweep}
        self.assert_each_scale_is_lone(doc, run_scenario(doc))

    def test_calls_in_a_row_share_nothing(self, ewa):
        first, second = self.scenario(ewa), self.scenario(ewa, seed=32)
        a, b = run_scenario(first), run_scenario(second)
        assert a[-1].timeline != b[-1].timeline
        self.assert_each_scale_is_lone(first, a)
        self.assert_each_scale_is_lone(second, b)

    def test_base_options_unused_when_every_scale_overrides(self, ewa):
        doc = self.scenario(ewa)
        doc["sweep"] = [8, 16]
        doc["options_by_scale"] = {"8": doc["options"],
                                   "16": {**doc["options"], "skew_seed": 5}}
        doc["options"] = {"achieved_quality": 2.0}
        assert [r.run.scale for r in run_scenario(doc)] == [8, 16]

    def test_skew_is_a_fresh_draw_per_participant_count(self, ewa):
        doc = self.scenario(ewa)
        for r in run_scenario(doc):
            p = r.run.scale
            options = {**doc["options"], **doc["options_by_scale"].get(str(p), {})}
            rng = random.Random(options["skew_seed"])
            offsets = [rng.uniform(0.0, options["negotiation_skew"])
                       for _ in range(p)]
            latest = max(offsets)
            assert r.step.negotiation == latest - min(offsets)
            assert r.step.queuing == sum(latest - o for o in offsets) / p


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["skewed", "overridden"])
def test_simulate_json_matches_golden(name, capsys):
    """``simulate --format json`` stdout, recorded before sweeps shared
    their steps and skew draws."""
    scenario = GOLDEN / f"simulate_{name}.scenario.json"
    assert main(["simulate", str(scenario), "--format", "json"]) == 0
    expected = (GOLDEN / f"simulate_{name}.stdout.json").read_text()
    assert capsys.readouterr().out == expected
