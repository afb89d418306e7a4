"""Every enum value becomes a member in one place, ``core._coerce``:
on direct construction, through the public functions and in decoding,
a string the enum defines becomes its member and any other value is a
:class:`SchemaError` naming the field."""

from dataclasses import replace

import pytest

from conftest import build_ranking_runs

from hpcbench.core import AcceleratorSpec, BenchLevel, PrecisionMode
from hpcbench.errors import SchemaError
from hpcbench.presets import case_study_system, ewa_workload
from hpcbench.roofline import (
    Ceiling,
    CeilingKind,
    Fabric,
    PrecisionShift,
    RooflineMode,
    RooflineModel,
    RooflinePoint,
    apply_whatif,
    build_model,
    place_run,
)
from hpcbench.rules import (
    Decay,
    LearningRateSchedule,
    Severity,
    Violation,
    check_equivalence,
    lr_schedule,
)
from hpcbench.simulator import (
    OverlapModel,
    SimulationOptions,
    TopologyKind,
    TopologySpec,
    run_scenario,
    simulate_training,
)

SYSTEM = case_study_system()
EWA = ewa_workload()
RUN = build_ranking_runs(trials=1)[0][0]
POINT = RooflinePoint.from_traffic("p", 1e12, 1e9)


def _simulated_precision(value):
    return simulate_training(
        SYSTEM, EWA, 8, 8, value, TopologySpec.ring(), OverlapModel(1.0),
        SimulationOptions(achieved_quality=0.35)).run.precision


def _scenario_precision(value):
    return run_scenario({
        "system": SYSTEM.to_dict(), "workload": EWA.to_dict(), "sweep": [8],
        "precision": value, "options": {"achieved_quality": 0.35},
    })[0].run.precision


#: (field named in the error, a member of the enum, call coercing a value)
CASES = {
    "AcceleratorSpec.peak_flops": ("peak_flops", PrecisionMode.BF16, lambda v: [
        *AcceleratorSpec("a", {v: 1.0, "fp32": 1.0}, 1.0, 1.0).peak_flops][0]),
    "RunRecord.precision": ("precision", PrecisionMode.MIXED,
                            lambda v: replace(RUN, precision=v).precision),
    "RunRecord.level": ("level", BenchLevel.SYSTEM,
                        lambda v: replace(RUN, level=v).level),
    "Ceiling.kind": ("kind", CeilingKind.COMMUNICATION,
                     lambda v: Ceiling("c", v, 1.0).kind),
    "RooflineModel.mode": ("mode", RooflineMode.SINGLE_NODE,
                           lambda v: RooflineModel(v, 1.0, 1.0).mode),
    "TopologySpec.kind": ("kind", TopologyKind.BUTTERFLY,
                          lambda v: TopologySpec(v).kind),
    "Violation.severity": ("severity", Severity.WARNING,
                           lambda v: Violation(1, "k", v, "m").severity),
    "SimulationOptions.level": ("level", BenchLevel.HARDWARE, lambda v:
                                SimulationOptions(0.5, level=v).level),
    "LearningRateSchedule.decay": ("decay", Decay.NONE, lambda v:
                                   LearningRateSchedule(1, 1, 0, 9, v).decay),
    "simulate_training": ("precision", PrecisionMode.FP32,
                          _simulated_precision),
    "run_scenario": ("precision", PrecisionMode.FP32, _scenario_precision),
    "build_model": ("mode", RooflineMode.SINGLE_NODE,
                    lambda v: build_model(SYSTEM, v).mode),
    "place_run": ("fabric", Fabric.INTRA,
                  lambda v: place_run(RUN, fabric=v).comm_traffic),
    "apply_whatif": ("mode", PrecisionMode.MIXED,
                     lambda v: apply_whatif(POINT, PrecisionShift(v)).label),
    "check_equivalence": ("level", BenchLevel.FREE, lambda v: check_equivalence(
        RUN.declaration, RUN.declaration, v).level),
    "lr_schedule": ("decay", Decay.STEP,
                    lambda v: lr_schedule(0.1, 1, 0, 10, v).decay),
}


@pytest.mark.parametrize("name, member, call", CASES.values(), ids=CASES)
def test_unknown_value_is_a_schema_error_naming_the_field(name, member, call):
    enum = type(member).__name__
    with pytest.raises(SchemaError, match=(
            rf"^unknown [a-z ]+ in {name}: 'bogus' is not a valid {enum}$")):
        call("bogus")


@pytest.mark.parametrize("name, member, call", CASES.values(), ids=CASES)
def test_string_value_becomes_the_member(name, member, call):
    by_value, by_member = call(member.value), call(member)
    assert (type(by_value), by_value) == (type(by_member), by_member)


def test_message_spells_out_the_enum():
    with pytest.raises(SchemaError) as info:
        replace(RUN, precision="fp64")
    assert str(info.value) == ("unknown precision mode in precision: "
                               "'fp64' is not a valid PrecisionMode")


def test_peak_flops_must_be_a_mapping():
    with pytest.raises(SchemaError, match="^peak_flops must be an object$"):
        AcceleratorSpec("a", [("fp32", 1.0)], 1.0, 1.0)


class _Str(str):
    """A ``str`` subclass, which the member map does not look up."""


@pytest.mark.parametrize("value", [_Str("fp32"), _Str("fp64"), "fp64", 32,
                                   True, None, ["fp32"], {"fp32": 1}])
def test_other_values_go_through_the_enum(value):
    try:
        expected = PrecisionMode(value)
    except ValueError as exc:
        expected = f"unknown precision mode in precision: {exc}"
    try:
        got = replace(RUN, precision=value).precision
    except SchemaError as exc:
        got = str(exc)
    assert (type(got), got) == (type(expected), expected)
