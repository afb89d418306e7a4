"""Bad input is refused once, by the function that owns the value: a
constructor checks its own ranges, ``core._parse_json`` decodes every
input file, ``rules.aggregate_runs`` guards the configuration, and the
Python API refuses what the command line refuses."""

import json
import math

import pytest

from conftest import build_ranking_runs

from hpcbench.cli import main
from hpcbench.core import dumps
from hpcbench.errors import InvalidSchedule, ParseError, SchemaError
from hpcbench.presets import case_study_system, image_classification_workload
from hpcbench.roofline import Compress, PrecisionShift, RooflinePoint, apply_whatif
from hpcbench.rules import LearningRateSchedule, aggregate_runs, lr_schedule
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
    aggregate_runs(runs[:20], image_classification_workload())


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
], ids=["schedule-warmup", "lr_schedule-nan", "compress-nan",
        "compress-string", "precision-shift-nan", "store-load-not-utf8",
        "scenario-not-utf8", "aggregate-two-configurations"])
def test_the_owner_refuses_bad_input(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


def test_unknown_point_key_is_refused_unless_lenient(tmp_path, capsys):
    (tmp_path / "system.json").write_text(dumps(case_study_system()))
    (tmp_path / "points.json").write_text(json.dumps([
        {"label": "a", "flops_total": 1e12, "comm_traffic": 1e6,
         "atained": 1e9}]))
    argv = ["roofline", "--system", str(tmp_path / "system.json"),
            "--points", str(tmp_path / "points.json")]
    assert main(argv) == 3
    assert "unexpected keyword argument 'atained'" in capsys.readouterr().err
    assert main(argv + ["--lenient"]) == 0
