"""Acceptance suite: one test per criterion, one pass/fail line each.

Golden values are checked at their stated tolerances; property suites
draw at least 10^4 random cases from seeded generators.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hpcbench.cli import main as cli_main
from hpcbench.core import PrecisionMode
from hpcbench.errors import InsufficientRuns
from hpcbench.metrics import (
    flops_per_sample_from_profile,
    penalty_coefficient,
    scaling_ratio,
    throughput_flops,
    vflops,
)
from hpcbench.presets import (
    COMPUTE_EFFICIENCY,
    case_study_system,
    distributed_ceilings,
    ewa_workload,
    image_classification_workload,
    reference_declaration,
    single_node_ceilings,
)
from hpcbench.roofline import (
    Boundedness,
    Ceiling,
    Compress,
    Fabric,
    RooflineMode,
    RooflineModel,
    RooflinePoint,
    apply_whatif,
    attained_bound,
    build_model,
    classify,
    place_run,
    ridge_point,
    validate_point,
)
from hpcbench.rules import (
    Severity,
    aggregate_runs,
    repeatability_report,
    validate_declaration,
)
from hpcbench.simulator import (
    OverlapModel,
    SimulationOptions,
    TopologySpec,
    allreduce_traffic,
    simulate_training,
    step_time,
)
from hpcbench.units import GIGA, TERA

from conftest import build_ranking_runs
from test_roofline import make_run as make_roofline_run
from test_rules import make_run as make_rules_run, mutate
from test_simulator import ring_phase_oracle


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({description}): FAIL",
                      flush=True)
                raise
            print(f"[acceptance] criterion {number} ({description}): PASS",
                  flush=True)
        return wrapper
    return decorate


@criterion(1, "metric golden values")
def test_criterion_1_metric_golden_values():
    assert round(scaling_ratio(691 * GIGA, 41_000_000), 2) == 16.85
    assert round(scaling_ratio(2944 * GIGA, 25_000_000), 2) == 117.76

    per_sample = flops_per_sample_from_profile(345.66 * TERA, 500)
    assert per_sample == pytest.approx(691.32 * GIGA, abs=0.01 * GIGA)

    sustained = throughput_flops(46 / 8, 8, 691 * GIGA)
    assert sustained == pytest.approx(31 * TERA, rel=0.03)


@criterion(2, "VFLOPS consistency")
def test_criterion_2_vflops_consistency():
    def penalty_oracle(achieved, target, n):
        ratio = achieved / target
        out = 1.0
        for _ in range(n):
            out *= ratio
        return out

    # invert the penalty on the published score pair, then run it forward
    implied = 0.763 * (642 / 939) ** (1 / 5)
    assert 0.70 <= implied <= 0.72
    forward = vflops(939 * TERA, implied, 0.763, 5)
    assert forward == pytest.approx(642 * TERA, rel=0.01)

    # score ratios of the normalization weight-decay study: the ratio of
    # two equal-FLOPS scores is the penalty ratio of the accuracy pair
    pairs = [(0.7580, 0.7625), (0.7580, 0.7625), (0.7170, 0.7308)]
    expected = [1.03, 1.03, 1.10]
    for (base_q, opt_q), want in zip(pairs, expected):
        got = (vflops(100 * TERA, opt_q, 0.763, 5)
               / vflops(100 * TERA, base_q, 0.763, 5))
        oracle = penalty_oracle(opt_q, 0.763, 5) / penalty_oracle(
            base_q, 0.763, 5)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(want, abs=0.01)


@criterion(3, "roofline case studies")
def test_criterion_3_roofline_case_studies():
    system = case_study_system()

    single = build_model(system, RooflineMode.SINGLE_NODE,
                         precision=PrecisionMode.FP32)
    assert single.peak_flops == 120 * TERA and single.peak_band == 300 * GIGA
    assert single.ridge == pytest.approx(120e12 / 300e9, rel=1e-9)
    assert single.ridge == pytest.approx(400.0, rel=1e-9)

    distributed = build_model(system, RooflineMode.DISTRIBUTED,
                              distributed_ceilings(),
                              precision=PrecisionMode.MIXED)
    assert distributed.peak_flops == 8320 * TERA
    assert distributed.ridge == pytest.approx(8320e12 / 1.2e9, rel=1e-9)
    assert distributed.ridge == pytest.approx(6.9333333e6, rel=1e-3)

    # 16-GPU split: traffic referred to the fabric the step crosses
    ewa, ic = ewa_workload(), image_classification_workload()
    model16 = build_model(case_study_system(num_nodes=2),
                          RooflineMode.DISTRIBUTED)
    ewa_point = place_run(make_roofline_run(ewa, 16, sps_per_rank=2.35))
    ic_point = place_run(make_roofline_run(ic, 16, sps_per_rank=300.0))
    assert classify(model16, ewa_point) is Boundedness.COMMUNICATION_BOUND
    assert classify(model16, ic_point) is Boundedness.COMPUTE_BOUND

    # bound shift between 32 and 64 GPUs: at 32 the declared dominant
    # fabric is still the intra-node interconnect (flat roof); at 64 the
    # inter-node network dominates and the point falls onto the slant
    point32 = place_run(make_roofline_run(ic, 32, sps_per_rank=250.0),
                        fabric=Fabric.INTRA)
    model32 = RooflineModel(mode=RooflineMode.DISTRIBUTED,
                            peak_flops=32 * 15 * TERA, peak_band=300 * GIGA)
    point64 = place_run(make_roofline_run(ic, 64, sps_per_rank=230.0))
    model64 = build_model(system, RooflineMode.DISTRIBUTED)
    assert classify(model32, point32) is Boundedness.COMPUTE_BOUND
    assert classify(model64, point64) is Boundedness.COMMUNICATION_BOUND


@criterion(4, "what-if transforms")
def test_criterion_4_whatif_transforms():
    ewa, ic = ewa_workload(), image_classification_workload()
    model16 = build_model(case_study_system(num_nodes=2),
                          RooflineMode.DISTRIBUTED)

    ewa_point = replace(
        place_run(make_roofline_run(ewa, 16, sps_per_rank=1.0)),
        attained=25.99 * TERA)
    compressed = apply_whatif(ewa_point, Compress(2))
    assert compressed.coi == ewa_point.coi * 2  # exactly doubled

    before = attained_bound(model16, ewa_point.coi)
    after = attained_bound(model16, compressed.coi)
    assert classify(model16, ewa_point) is Boundedness.COMMUNICATION_BOUND
    assert after > before  # strictly raised while on the slant

    ic_point = place_run(make_roofline_run(ic, 16, sps_per_rank=300.0))
    assert classify(model16, ic_point) is Boundedness.COMPUTE_BOUND
    ic_compressed = apply_whatif(ic_point, Compress(2))
    assert attained_bound(model16, ic_compressed.coi) == \
        attained_bound(model16, ic_point.coi)

    # both measured values respect their bounds (no warning emitted)
    compressed = replace(compressed, attained=36.97 * TERA)
    assert validate_point(model16, ewa_point)
    assert validate_point(model16, compressed)
    assert ewa_point.attained <= attained_bound(model16, ewa_point.coi)
    assert compressed.attained <= attained_bound(model16, compressed.coi)


@criterion(5, "rules engine")
def test_criterion_5_rules_engine():
    ewa, ic = ewa_workload(), image_classification_workload()
    reference = reference_declaration(ic)

    bn_change = mutate(reference, 8,
                       weight_decay="disabled-on-normalization-layers")
    run = make_rules_run(bn_change, workload=ic, scale=16, batch=2048,
                         sps=100.0)
    violations = validate_declaration(run, reference)
    assert [(v.layer, v.severity) for v in violations] == [(8, Severity.ERROR)]

    lr_change = mutate(reference, 8, lr_policy="layerwise_adaptive")
    run = make_rules_run(lr_change, workload=ic, scale=16, batch=2048,
                         sps=100.0)
    assert validate_declaration(run, reference) == []

    async_decl = mutate(reference, 6, sync_mode="asynchronous")
    run = make_rules_run(async_decl, workload=ic, scale=16, batch=2048,
                         sps=100.0)
    violations = validate_declaration(run, reference)
    assert any(v.layer == 6 and v.severity is Severity.ERROR
               for v in violations)

    # drop-extremes aggregation and the per-workload minimum run counts
    def runs(epochs, workload, **kw):
        return [make_rules_run(reference_declaration(workload),
                               workload=workload, epochs=e, run_id=f"t{i}",
                               **kw)
                for i, e in enumerate(epochs)]

    agg = aggregate_runs(runs([10, 12, 11, 13, 11], ewa))
    assert agg.mean_scores["epochs_to_quality"] == pytest.approx(11.33,
                                                                 abs=0.005)
    with pytest.raises(InsufficientRuns) as err:
        aggregate_runs(runs([10, 11, 12, 13], ewa))
    assert err.value.required == 5
    with pytest.raises(InsufficientRuns) as err:
        aggregate_runs(runs([10] * 9, ic, scale=16, batch=2048, sps=100.0))
    assert err.value.required == 10

    # repeatability variation against an independent population-stddev
    # oracle, to 1e-12
    epochs = [98.7478, 98.7478, 100.0, 101.2522, 101.2522]
    arr = np.asarray(epochs)
    oracle = math.sqrt(float(np.mean((arr - arr.mean()) ** 2))) / arr.mean()
    report = repeatability_report(runs(epochs, ewa))
    assert abs(report.variation - oracle) <= 1e-12
    assert report.variation == pytest.approx(0.0112, abs=1e-4)


@criterion(6, "roofline function properties")
def test_criterion_6_roofline_properties():
    rng = np.random.default_rng(20200630)
    cases = 10_000

    peaks = rng.uniform(1e12, 1e16, cases)
    bands = rng.uniform(1e6, 1e12, cases)
    cois = rng.uniform(1e-3, 1e9, cases)
    for peak, band, x in zip(peaks, bands, cois):
        model = RooflineModel(mode=RooflineMode.DISTRIBUTED,
                              peak_flops=peak, peak_band=band)
        bound = attained_bound(model, x)
        assert bound == min(peak, band * x)

        # continuity at the ridge
        ridge = ridge_point(peak, band)
        below = attained_bound(model, ridge * (1 - 1e-9))
        above = attained_bound(model, ridge * (1 + 1e-9))
        assert abs(below - above) <= 1e-6 * peak

        # monotone in COI
        x2 = x * (1 + rng.uniform(0.0, 1.0))
        assert attained_bound(model, x2) >= bound - 1e-9

        # a sub-peak ceiling never outruns the peak roof
        ceiling_model = RooflineModel(
            mode=RooflineMode.DISTRIBUTED, peak_flops=peak, peak_band=band,
            ceilings=(Ceiling("c", "computation",
                              peak * rng.uniform(0.05, 1.0)),))
        assert attained_bound(ceiling_model, x, compute_ceiling="c") <= bound

        # classification is invariant under common scaling
        flops = x * 1e6
        point = RooflinePoint.from_traffic("p", flops, 1e6)
        factor = 2.0 ** int(rng.integers(-4, 5))
        scaled = RooflinePoint.from_traffic("p", flops * factor, 1e6 * factor)
        assert classify(model, point) is classify(model, scaled)


@criterion(7, "simulator properties")
def test_criterion_7_simulator_properties():
    ring = TopologySpec.ring()
    # traffic against the phase-enumeration oracle for p in [1, 64]
    for p in range(1, 65):
        per_oracle, total_oracle = ring_phase_oracle(164e6, p)
        per, total = allreduce_traffic(164e6, p)
        assert per == pytest.approx(per_oracle, rel=1e-12, abs=1e-9)
        assert total == pytest.approx(total_oracle, rel=1e-12, abs=1e-9)

    # step time bounded and monotone in alpha
    rng = np.random.default_rng(7)
    for _ in range(2_000):
        compute, comm = rng.uniform(0, 1, 2)
        alphas = sorted(rng.uniform(0, 1, 2))
        hi = step_time(compute, comm, OverlapModel(alphas[1]))
        lo = step_time(compute, comm, OverlapModel(alphas[0]))
        assert max(compute, comm) - 1e-12 <= hi <= lo <= compute + comm + 1e-12

    system = case_study_system()
    ewa, ic = ewa_workload(), image_classification_workload()

    def run_sim(workload, scale, batch, alpha, compress=1.0):
        precision = PrecisionMode.FP32
        options = SimulationOptions(
            achieved_quality=workload.target_quality.value,
            compute_efficiency=COMPUTE_EFFICIENCY[(workload.name, precision)],
            compress_factor=compress, negotiation_skew=0.001, skew_seed=5,
            baseline_scale=1)
        return simulate_training(system, workload, scale, batch * scale,
                                 precision, ring, OverlapModel(alpha), options)

    scales = (8, 16, 32, 64)
    for alpha in (0.5, 0.8):
        ewa_effs = [run_sim(ewa, s, 1, alpha).efficiency for s in scales]
        ic_effs = [run_sim(ic, s, 128, alpha).efficiency for s in scales]
        assert all(a >= b - 1e-12 for a, b in zip(ewa_effs, ewa_effs[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(ic_effs, ic_effs[1:]))
        # against a single-accelerator baseline the communication-heavy
        # workload scales strictly worse at every common scale
        for e, i in zip(ewa_effs, ic_effs):
            assert e < i

    # timeline conservation and the roofline cross-check on a scenario grid
    for workload, batch in ((ewa, 1), (ic, 128)):
        for scale in scales:
            for alpha in (0.0, 0.5, 1.0):
                for compress in (1.0, 2.0):
                    result = run_sim(workload, scale, batch, alpha, compress)
                    wall = (result.step.comm_processing
                            + (1 - alpha) * result.step.compute_time)
                    assert result.timeline.total() == pytest.approx(
                        wall, rel=1e-12, abs=1e-15)

                    peak = scale * system.node.accelerator.peak_for(
                        PrecisionMode.FP32)
                    band = scale * result.step.bandwidth
                    model = RooflineModel(mode=RooflineMode.DISTRIBUTED,
                                          peak_flops=peak, peak_band=band)
                    traffic = allreduce_traffic(result.step.message_bytes,
                                                scale).total
                    point = RooflinePoint.from_traffic(
                        "sim", workload.flops_per_sample * batch * scale,
                        traffic)
                    bound = attained_bound(model, point.coi)
                    assert result.throughput_flops <= bound * (1 + 1e-9)


@criterion(8, "end-to-end pipeline")
def test_criterion_8_end_to_end(ranking_store, tmp_path, capsys):
    root = str(ranking_store["root"])
    reference = str(ranking_store["reference"])

    assert cli_main(["validate", "--store", root,
                     "--reference", reference]) == 0
    assert cli_main(["score", "--store", root]) == 0
    assert cli_main(["aggregate", "--store", root,
                     "--select", "ic-mixed-64-*"]) == 0
    assert cli_main(["rank", "--store", root, "--reference", reference,
                     "--format", "json"]) == 0
    rank_out = capsys.readouterr().out
    rows = json.loads(rank_out[rank_out.index("["):])
    top = rows[0]
    assert top["rank"] == 1
    assert top["precision"] == "mixed" and top["scale"] == 64
    assert top["run_id"].startswith("ic-mixed-64")

    report_path = tmp_path / "report.md"
    assert cli_main(["report", "--store", root, "--select", "ic-mixed-64-*",
                     "--reference", reference, "--out",
                     str(report_path)]) == 0
    assert report_path.exists()
    assert report_path.with_suffix(".json").exists()
