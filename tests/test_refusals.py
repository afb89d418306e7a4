"""Bad input is refused once, by the function that owns the value: a
constructor checks its own ranges, ``core._parse_json`` decodes every
input file, ``rules.aggregate_runs`` guards the configuration and
``report.rank`` the workload definition, and the Python API refuses
what the command line refuses."""

import json
import math
from dataclasses import replace

import pytest

from conftest import build_ranking_runs

from hpcbench.cli import main
from hpcbench.core import dumps
from hpcbench.errors import (
    DegenerateTarget,
    IncomparableWorkloads,
    InvalidScaleOrder,
    InvalidSchedule,
    NotReplicable,
    ParseError,
    SchemaError,
)
from hpcbench.metrics import (
    check_profiled_flops_per_sample,
    flops_per_sample_from_profile,
    Score,
    parallel_efficiency,
    penalty_coefficient,
    scaling_ratio,
    throughput_flops,
    vflops,
    vflops_per_watt,
)
from hpcbench.presets import (
    case_study_system,
    image_classification_workload,
)
from hpcbench.report import rank, vflops_ratio
from hpcbench.roofline import (
    Ceiling,
    Compress,
    PrecisionShift,
    RooflinePoint,
    apply_whatif,
    attained_bound,
    build_model,
    ridge_point,
    validate_point,
)
from hpcbench.rules import (
    LearningRateSchedule,
    aggregate_runs,
    lr_schedule,
    replicability_check,
)
from hpcbench.simulator import (
    OverlapModel,
    SimulationOptions,
    TopologySpec,
    allreduce_time,
    allreduce_traffic,
    run_scenario,
    step_time,
)
from hpcbench.store import ResultsStore

POINT = RooflinePoint.from_traffic("p", 1e12, 1e6)
RING = TopologySpec.ring(5e-6)
NOT_UTF8 = b'{"run_id": "\xff"}'


def _load_not_utf8(tmp_path):
    (tmp_path / "ewa").mkdir()
    (tmp_path / "ewa" / "r1.json").write_bytes(NOT_UTF8)
    ResultsStore(tmp_path).load("r1")


def _scenario_not_utf8(tmp_path):
    (tmp_path / "scenario.json").write_bytes(NOT_UTF8)
    run_scenario(str(tmp_path / "scenario.json"))


def _aggregate_two_configurations(tmp_path):
    runs, _ = build_ranking_runs()
    aggregate_runs(runs[:20])


def _two_definitions():
    """Ten runs of one configuration; every second one embeds the same
    workload name with a target of 0.05."""
    ic = image_classification_workload()
    loose = replace(ic, target_quality=replace(ic.target_quality, value=0.05))
    runs, _ = build_ranking_runs()
    return [replace(r, workload=loose) if i % 2 else r
            for i, r in enumerate(runs[:10])]


def _replicate_at_nan_tolerance(tmp_path):
    runs, _ = build_ranking_runs()
    agg = aggregate_runs(runs[:10])
    replicability_check(agg, agg, math.nan)


def _replicate_at_two_targets(tmp_path):
    """Aggregates of the same ten runs, scored at the workload's target
    and at 0.05 under the same workload name."""
    runs, _ = build_ranking_runs()
    ic = runs[0].workload
    loose = replace(ic, target_quality=replace(ic.target_quality, value=0.05))
    replicability_check(
        aggregate_runs(runs[:10]),
        aggregate_runs([replace(r, workload=loose) for r in runs[:10]]),
        tolerance=0.05)


@pytest.mark.parametrize("call, error, match", [
    (lambda _: LearningRateSchedule(0.1, 1, 10, 10, "cosine").at(10),
     InvalidSchedule, r"warmup \(10\) must be shorter than the schedule"),
    (lambda _: lr_schedule(math.nan, 1, 0, 10), SchemaError,
     "base_lr must be finite"),
    (lambda _: apply_whatif(POINT, Compress(math.nan)), SchemaError,
     "compression factor must be finite"),
    (lambda _: apply_whatif(POINT, Compress("2")), SchemaError,
     "compression factor must be a number"),
    (lambda _: apply_whatif(POINT, PrecisionShift("mixed", math.nan)),
     SchemaError, "batch scale must be finite"),
    (_load_not_utf8, ParseError, "can't decode byte 0xff .* in .*r1.json"),
    (_scenario_not_utf8, ParseError,
     "can't decode byte 0xff .* in .*scenario.json"),
    (_aggregate_two_configurations, SchemaError,
     "runs span 2 configurations: "),
    (lambda _: lr_schedule(0.1, 1, 0, 10).at(math.nan), InvalidSchedule,
     r"epoch nan outside \[0, 10\]"),
    (lambda _: attained_bound(build_model(case_study_system(), "distributed"),
                              math.nan),
     SchemaError, "coi must be non-negative, got nan"),
    (lambda _: attained_bound(build_model(case_study_system(), "distributed"),
                              -math.inf),
     SchemaError, "coi must be non-negative, got -inf"),
    (lambda _: aggregate_runs(_two_definitions()),
     SchemaError, r"runs span 2 configurations: image_classification "
     r"\(target 0\.763\) on .*; image_classification \(target 0\.05\) on "),
    (lambda _: aggregate_runs([]), SchemaError, "^no runs to aggregate$"),
    (_replicate_at_two_targets, NotReplicable,
     "aggregates describe different workloads or systems"),
    (lambda _: rank(_two_definitions()), IncomparableWorkloads,
     r"cannot rank across workloads: image_classification \(target 0\.763\), "
     r"image_classification \(target 0\.05\)$"),
    (lambda _: penalty_coefficient(math.nan, 0.7, 10), SchemaError,
     "achieved quality must be finite, got nan"),
    (lambda _: vflops(math.nan, 0.7, 0.7, 10), SchemaError,
     "flops must be finite, got nan"),
    (lambda _: throughput_flops(math.nan, 4, 1e9), SchemaError,
     "samples per second per rank must be finite, got nan"),
    (lambda _: parallel_efficiency(math.nan, 1, 1e3, 4), SchemaError,
     "baseline throughput must be finite, got nan"),
    (lambda _: step_time(math.nan, 1.0, OverlapModel(0.5)), SchemaError,
     "compute time must be finite, got nan"),
    (lambda _: allreduce_traffic(math.nan, 4), SchemaError,
     "message_bytes must be finite, got nan"),
    (lambda _: throughput_flops(1.0, math.nan, 1e9), SchemaError,
     "num_ranks must be an integer, got nan"),
    (lambda _: parallel_efficiency(1e3, 1, 1e3, math.nan), SchemaError,
     "scale must be an integer, got nan"),
    (lambda _: parallel_efficiency(1e3, 0, 1e3, 4), InvalidScaleOrder,
     "baseline throughput and scale must be positive"),
    (lambda _: allreduce_traffic(1e6, math.nan), SchemaError,
     "participants must be an integer >= 1, got nan"),
    (lambda _: Ceiling("peak", "computation", 50e12), SchemaError,
     "ceiling name 'peak' is reserved for the theoretical peak"),
    (lambda _: SimulationOptions(achieved_quality=0.5, skew_seed=[1]),
     SchemaError, r"skew_seed must be an integer >= 0, got \[1\]"),
    (lambda _: vflops_per_watt(1e14, math.nan), SchemaError,
     "average power must be finite, got nan"),
    (lambda _: vflops_per_watt(math.nan, 300.0), SchemaError,
     "vflops must be finite, got nan"),
    (lambda _: scaling_ratio(math.nan, 1), SchemaError,
     "comp_per_step must be finite, got nan"),
    (lambda _: flops_per_sample_from_profile(math.nan, 1), SchemaError,
     "total flops must be finite, got nan"),
    (_replicate_at_nan_tolerance, SchemaError,
     "tolerance must be finite, got nan"),
    (lambda _: check_profiled_flops_per_sample(1e12, 4, math.nan), SchemaError,
     "declared flops per sample must be finite, got nan"),
    (lambda _: check_profiled_flops_per_sample(1e12, 4, 2.5e11, math.nan),
     SchemaError, "^tolerance must be finite, got nan$"),
    (lambda _: vflops_ratio(Score(1.0, 1.0, time_to_quality=1.0, penalty=1.0),
                            Score(0.0, 0.0, time_to_quality=1.0, penalty=1.0)),
     SchemaError, "^baseline vflops must be positive, got 0.0$"),
    (lambda _: ridge_point(1.0, math.nan), SchemaError,
     "^peak_band must be finite, got nan$"),
    (lambda _: ridge_point(math.nan, 1.0), SchemaError,
     "^peak_flops must be finite, got nan$"),
    (lambda _: allreduce_time(1e6, 8, RING, math.nan), SchemaError,
     "^bandwidth must be finite, got nan$"),
    (lambda _: allreduce_time(1e6, 8, RING, "1e9"), SchemaError,
     "^bandwidth must be a number, got '1e9'$"),
    (lambda _: validate_point(build_model(case_study_system(), "distributed"),
                              POINT, tolerance=math.nan),
     SchemaError, "^tolerance must be finite, got nan$"),
    (lambda _: validate_point(build_model(case_study_system(), "distributed"),
                              POINT, tolerance=-0.05),
     SchemaError, "^tolerance must be non-negative$"),
    (lambda _: penalty_coefficient(0.5, 1.0, True), DegenerateTarget,
     "^quality exponent must be an integer >= 1, got True$"),
], ids=["schedule-warmup", "lr_schedule-nan", "compress-nan",
        "compress-string", "precision-shift-nan", "store-load-not-utf8",
        "scenario-not-utf8", "aggregate-two-configurations", "schedule-at-nan",
        "attained-bound-nan", "attained-bound-minus-inf",
        "aggregate-two-definitions", "aggregate-no-runs",
        "replicability-two-definitions", "rank-two-definitions",
        "penalty-nan", "vflops-nan", "throughput-nan", "efficiency-nan",
        "step-time-nan", "allreduce-traffic-nan", "throughput-nan-ranks",
        "efficiency-nan-scale", "efficiency-zero-baseline-scale",
        "allreduce-traffic-nan-participants", "ceiling-named-peak",
        "skew-seed-list", "per-watt-nan-power", "per-watt-nan-vflops",
        "scaling-ratio-nan", "profile-nan", "replicability-nan-tolerance",
        "profile-check-nan-declared", "profile-check-nan-tolerance",
        "vflops-ratio-zero-baseline", "ridge-point-nan-band",
        "ridge-point-nan-peak", "allreduce-time-nan-bandwidth",
        "allreduce-time-string-bandwidth", "validate-point-nan-tolerance",
        "validate-point-negative-tolerance", "penalty-bool-exponent"])
def test_the_owner_refuses_bad_input(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


def test_unknown_point_key_is_refused(tmp_path, capsys):
    (tmp_path / "system.json").write_text(dumps(case_study_system()))
    (tmp_path / "points.json").write_text(json.dumps([
        {"label": "a", "flops_total": 1e12, "comm_traffic": 1e6,
         "atained": 1e9}]))
    argv = ["roofline", "--system", str(tmp_path / "system.json"),
            "--points", str(tmp_path / "points.json")]
    assert main(argv) == 3
    assert "unexpected keyword argument 'atained'" in capsys.readouterr().err
