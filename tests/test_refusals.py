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
    IncomparableWorkloads,
    InvalidSchedule,
    NotReplicable,
    ParseError,
    SchemaError,
)
from hpcbench.presets import (
    case_study_system,
    image_classification_workload,
)
from hpcbench.report import rank
from hpcbench.roofline import (
    Compress,
    PrecisionShift,
    RooflinePoint,
    apply_whatif,
    attained_bound,
    build_model,
)
from hpcbench.rules import (
    LearningRateSchedule,
    aggregate_runs,
    lr_schedule,
    replicability_check,
)
from hpcbench.simulator import run_scenario
from hpcbench.store import ResultsStore

POINT = RooflinePoint.from_traffic("p", 1e12, 1e6)
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
], ids=["schedule-warmup", "lr_schedule-nan", "compress-nan",
        "compress-string", "precision-shift-nan", "store-load-not-utf8",
        "scenario-not-utf8", "aggregate-two-configurations", "schedule-at-nan",
        "attained-bound-nan", "attained-bound-minus-inf",
        "aggregate-two-definitions", "aggregate-no-runs",
        "replicability-two-definitions", "rank-two-definitions"])
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
