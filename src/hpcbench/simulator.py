"""Analytical model of synchronous data-parallel training.

First-order cost model, deliberately free of packet-level or kernel
scheduling detail: per step, each rank computes its batch shard at a
declared fraction of the accelerator's peak rate, then the gradient
message is allreduced over the binding fabric (the intra-node
interconnect while the run fits in one node, the effective inter-node
bandwidth beyond).  Compute and communication blend through an overlap
factor alpha: ``alpha * max(compute, comm) + (1 - alpha) * (compute +
comm)``.

All four allreduce topologies move the bandwidth-optimal volume,
``2 * (p - 1) / p`` message sizes per participant; they differ only in
the per-message latency term.  Communication wall time is split into a
seven-phase timeline (negotiation, two data waits, queuing, copy in,
allreduce, copy out) whose parts sum exactly to the communication wall
time by construction.

Quality is never synthesized: every scenario must declare the achieved
quality of the run records it emits.  Identical inputs (including the
skew seed) give identical outputs.
"""

import csv
import io
import math
import random
import re
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .core import (
    BenchLevel,
    JsonCodec,
    NineLayerDeclaration,
    PrecisionMode,
    RunRecord,
    SystemConfig,
    WorkloadSpec,
    _coerce,
    _int,
    _is_mapping,
    _num,
    _parse_json,
    _require,
    dumps,
)
from .errors import BatchShardError, DegenerateBand, SchemaError
from .metrics import throughput_flops
from .store import _check_name, _write_atomic

__all__ = [
    "TopologyKind",
    "TopologySpec",
    "OverlapModel",
    "PhaseTimeline",
    "Traffic",
    "allreduce_traffic",
    "allreduce_time",
    "step_time",
    "SimulationOptions",
    "StepBreakdown",
    "simulate_step",
    "phase_breakdown",
    "SimulationResult",
    "simulate_training",
    "run_scenario",
    "sweep_csv",
]


class TopologyKind(str, Enum):
    RING = "ring"
    DOUBLE_BINARY_TREE = "double_binary_tree"
    HIERARCHICAL_RING = "hierarchical_ring"
    BUTTERFLY = "butterfly"


@dataclass(frozen=True)
class TopologySpec(JsonCodec):
    """Allreduce topology plus its latency parameters.

    ``groups`` only applies to the hierarchical ring and must divide the
    participant count.
    """

    kind: TopologyKind
    per_message_latency: float = 0.0  # seconds
    groups: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kind", _coerce(TopologyKind, self.kind, "kind"))
        if _num(self.per_message_latency, "per_message_latency") < 0:
            raise SchemaError("per_message_latency must be non-negative")
        _int(self.groups, "groups", 1)

    @classmethod
    def ring(cls, latency: float = 0.0) -> "TopologySpec":
        return cls(kind=TopologyKind.RING, per_message_latency=latency)


@dataclass(frozen=True)
class OverlapModel:
    """Compute/communication overlap quality; 1 is perfect overlap."""

    alpha: float

    def __post_init__(self):
        if not (0.0 <= _num(self.alpha, "alpha") <= 1.0):
            raise SchemaError(f"alpha must be in [0, 1], got {self.alpha}")


class Traffic(NamedTuple):
    per_participant: float  # bytes sent by each participant
    total: float            # bytes across all participants


def allreduce_traffic(message_bytes: float, participants: int) -> Traffic:
    """Bytes moved by one allreduce of ``message_bytes`` per participant.

    Every supported topology is bandwidth-optimal, so the volume does
    not depend on it: each participant sends ``2 * (p - 1) / p``
    message sizes, for a total of ``2 * (p - 1)`` across the group.  A
    single participant moves nothing.
    """
    if participants < 1:
        raise SchemaError("participants must be >= 1")
    if message_bytes < 0:
        raise SchemaError("message_bytes must be non-negative")
    p = participants
    if p == 1:
        return Traffic(0.0, 0.0)
    per = 2.0 * (p - 1) / p * message_bytes
    return Traffic(per, per * p)


def _latency_term(participants: int, topology: TopologySpec) -> float:
    p, lat = participants, topology.per_message_latency
    if p == 1 or lat == 0:
        return 0.0
    if topology.kind is TopologyKind.RING:
        return 2.0 * (p - 1) * lat
    if topology.kind in (TopologyKind.DOUBLE_BINARY_TREE,
                         TopologyKind.BUTTERFLY):
        return 2.0 * math.ceil(math.log2(p)) * lat
    # hierarchical ring: a ring inside each group, then a ring of groups
    g = topology.groups
    if p % g:
        raise SchemaError(
            f"hierarchical ring groups ({g}) must divide participants ({p})")
    return 2.0 * (p // g - 1) * lat + 2.0 * (g - 1) * lat


def allreduce_time(message_bytes: float, participants: int,
                   topology: TopologySpec, bandwidth: float) -> float:
    """Wall time of one allreduce over a fabric of the given bandwidth.

    Bandwidth term: per-participant traffic over the per-participant
    link rate (links run concurrently).  Latency term: per-message
    latency times the topology's phase count.
    """
    if bandwidth <= 0:
        raise DegenerateBand("bandwidth must be positive")
    traffic = allreduce_traffic(message_bytes, participants)
    return traffic.per_participant / bandwidth + _latency_term(participants,
                                                               topology)


def step_time(compute: float, comm: float, overlap: OverlapModel) -> float:
    """Blend compute and communication through the overlap factor.

    Bounded by ``max(compute, comm)`` (perfect overlap) and
    ``compute + comm`` (fully serial); monotone non-increasing in alpha.
    """
    if compute < 0 or comm < 0:
        raise SchemaError("compute and comm times must be non-negative")
    a = overlap.alpha
    return a * max(compute, comm) + (1.0 - a) * (compute + comm)


@dataclass(frozen=True)
class PhaseTimeline(JsonCodec):
    """Per-step communication wall time split into seven phases."""

    negotiation: float
    wait_for_data: float
    wait_for_other_data: float
    queuing: float
    memcpy_in: float
    allreduce: float
    memcpy_out: float

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise SchemaError(f"phase {f.name} must be non-negative")

    def total(self) -> float:
        return (self.negotiation + self.wait_for_data
                + self.wait_for_other_data + self.queuing
                + self.memcpy_in + self.allreduce + self.memcpy_out)


@dataclass(frozen=True)
class SimulationOptions(JsonCodec):
    """Scenario knobs the model never invents on its own.

    ``achieved_quality`` is mandatory: quality is a measured property of
    training, so scenarios must declare it.  ``compute_efficiency`` is
    the empirical fraction of peak the workload's kernels sustain.
    ``negotiation_skew`` bounds the uniform per-rank readiness offsets
    (seconds) drawn from ``skew_seed``; ``gradient_tensors`` splits the
    gradient message into that many allreduce calls (latency scales,
    volume does not).
    """

    achieved_quality: float
    compute_efficiency: float = 1.0
    compress_factor: float = 1.0
    negotiation_skew: float = 0.0
    skew_seed: int = 0
    gradient_tensors: int = 1
    baseline_scale: Optional[int] = None
    epochs_to_quality: Optional[float] = None
    average_power: Optional[float] = None
    level: BenchLevel = BenchLevel.FREE
    run_id: Optional[str] = None
    extra_declaration: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "level", _coerce(BenchLevel, self.level, "level"))
        if not (0.0 <= _num(self.achieved_quality, "achieved_quality") <= 1.0):
            raise SchemaError("achieved_quality must be declared in [0, 1]")
        if not (0.0 < _num(self.compute_efficiency, "compute_efficiency") <= 1.0):
            raise SchemaError("compute_efficiency must be in (0, 1]")
        if _num(self.compress_factor, "compress_factor") < 1.0:
            raise SchemaError("compress_factor must be >= 1")
        if _num(self.negotiation_skew, "negotiation_skew") < 0:
            raise SchemaError("negotiation_skew must be non-negative")
        _int(self.gradient_tensors, "gradient_tensors", 1)
        if self.baseline_scale is not None:
            _int(self.baseline_scale, "baseline_scale", 1)
        if self.epochs_to_quality is not None:
            _num(self.epochs_to_quality, "epochs_to_quality")
        if not _is_mapping(self.extra_declaration):
            raise SchemaError("extra_declaration must be an object")
        for key in self.extra_declaration:
            if not (isinstance(key, str) and re.fullmatch(r"[1-9]\..+", key)):
                raise SchemaError(
                    f"extra_declaration key {key!r} must be a layer 1-9, a "
                    f"dot and a key, as in '5.framework'")


@dataclass(frozen=True)
class StepBreakdown:
    """Internals of one simulated training step."""

    compute_time: float
    comm_processing: float   # active communication: negotiation..memcpy_out
    step_seconds: float
    alpha: float
    negotiation: float
    queuing: float
    memcpy_each: float
    allreduce_seconds: float
    message_bytes: float
    participants: int
    bandwidth: float


def _skew_components(participants: int, skew: float,
                     seed: int) -> tuple[float, float]:
    """(negotiation, queuing) from seeded uniform readiness offsets.

    Negotiation spans from the first ready rank to the last; queuing is
    the mean backlog the stragglers impose on the group's coordinator.
    Zero skew gives zero for both.
    """
    if skew == 0 or participants == 1:
        return 0.0, 0.0
    rng = random.Random(seed)
    offsets = [rng.uniform(0.0, skew) for _ in range(participants)]
    latest = max(offsets)
    negotiation = latest - min(offsets)
    queuing = sum(latest - o for o in offsets) / participants
    return negotiation, queuing


def simulate_step(system: SystemConfig, workload: WorkloadSpec, scale: int,
                  per_rank_batch: int, precision: PrecisionMode,
                  topology: TopologySpec, overlap: OverlapModel,
                  options: SimulationOptions) -> StepBreakdown:
    """Cost one training step at the given scale."""
    node = system.node
    apn = node.accelerators_per_node
    if scale < 1 or scale > system.total_accelerators:
        raise SchemaError(
            f"scale {scale} outside [1, {system.total_accelerators}]")
    if scale > apn and scale % apn:
        raise SchemaError(
            f"multi-node scale {scale} must fill whole nodes of {apn}")

    peak = node.accelerator.peak_for(precision)
    compute = (per_rank_batch * workload.flops_per_sample
               / (peak * options.compute_efficiency))

    bandwidth = (node.intra_node_bandwidth if scale <= apn
                 else system.inter_node_bandwidth_effective)
    message = workload.gradient_bytes / options.compress_factor
    tensors = options.gradient_tensors
    ar = tensors * allreduce_time(message / tensors, scale, topology, bandwidth)

    negotiation, queuing = _skew_components(scale, options.negotiation_skew,
                                            options.skew_seed)
    memcpy_each = (message / node.accelerator.memory_bandwidth
                   if scale > 1 else 0.0)
    comm_processing = negotiation + queuing + 2 * memcpy_each + ar
    seconds = step_time(compute, comm_processing, overlap)
    return StepBreakdown(
        compute_time=compute, comm_processing=comm_processing,
        step_seconds=seconds, alpha=overlap.alpha, negotiation=negotiation,
        queuing=queuing, memcpy_each=memcpy_each, allreduce_seconds=ar,
        message_bytes=message, participants=scale, bandwidth=bandwidth)


def phase_breakdown(step: StepBreakdown) -> PhaseTimeline:
    """Allocate a step's communication wall time across the seven phases.

    The wait phases carry the idle time implied by the overlap
    shortfall, ``(1 - alpha) * compute``, split evenly between waiting
    for the first tensor and for the remainder.  The parts sum exactly
    to the communication wall time ``comm_processing + waits``.
    """
    wait_total = (1.0 - step.alpha) * step.compute_time
    return PhaseTimeline(
        negotiation=step.negotiation,
        wait_for_data=wait_total / 2.0,
        wait_for_other_data=wait_total / 2.0,
        queuing=step.queuing,
        memcpy_in=step.memcpy_each,
        allreduce=step.allreduce_seconds,
        memcpy_out=step.memcpy_each,
    )


@dataclass(frozen=True)
class SimulationResult:
    run: RunRecord
    throughput_flops: float
    efficiency: float
    timeline: PhaseTimeline
    step: StepBreakdown


def _declaration(system: SystemConfig, workload: WorkloadSpec,
                 global_batchsize: int, precision: PrecisionMode,
                 topology: TopologySpec,
                 options: SimulationOptions) -> NineLayerDeclaration:
    node = system.node
    layers = [
        {"cpu": "modeled-host", "network": "inter-node-fabric",
         "nodes": system.num_nodes},
        {"os": "linux"},
        {"allreduce": topology.kind.value, "collectives": "modeled"},
        {"accelerator": node.accelerator.name,
         "precision": precision.value, "kernel_library": "modeled"},
        {"framework": "analytical-model"},
        {"parallel_mode": "data_parallel", "sync_mode": "synchronous"},
        {"algorithm": workload.name},
        {"batchsize": global_batchsize, "lr_policy": "linear_scaling_warmup",
         "weight_decay": "reference", "momentum": "reference"},
        {"dataset": f"{workload.name}-dataset",
         "target_quality": workload.target_quality.value,
         "epochs": workload.epochs},
    ]
    for key, value in options.extra_declaration.items():
        layer_idx, _, subkey = key.partition(".")
        layers[int(layer_idx) - 1][subkey] = value
    return NineLayerDeclaration(layers=tuple(layers))


def simulate_training(system: SystemConfig, workload: WorkloadSpec,
                      scale: int, global_batchsize: int,
                      precision: PrecisionMode, topology: TopologySpec,
                      overlap: OverlapModel,
                      options: SimulationOptions) -> SimulationResult:
    """Simulate a full training run and emit a synthetic run record.

    The per-rank batch is ``global_batchsize / scale`` (which must
    divide evenly), steps per epoch cover the dataset, and the wall time
    is steps times the blended step time over the epochs the scenario
    declares it took to reach quality.  Parallel efficiency is measured
    against ``options.baseline_scale`` (default: the single-node scale)
    at the same per-rank batch.
    """
    precision = _coerce(PrecisionMode, precision, "precision")
    if global_batchsize % scale:
        raise BatchShardError(
            f"global batch {global_batchsize} does not shard over "
            f"{scale} ranks")
    per_rank_batch = global_batchsize // scale

    step = simulate_step(system, workload, scale, per_rank_batch, precision,
                         topology, overlap, options)
    timeline = phase_breakdown(step)

    epochs_run = (options.epochs_to_quality if options.epochs_to_quality
                  is not None else float(workload.epochs))
    steps_per_epoch = math.ceil(workload.dataset_samples / global_batchsize)
    wall_time = epochs_run * steps_per_epoch * step.step_seconds

    samples_per_second_per_rank = per_rank_batch / step.step_seconds
    throughput = throughput_flops(samples_per_second_per_rank, scale,
                                  workload.flops_per_sample)

    baseline_scale = options.baseline_scale
    if baseline_scale is None:
        baseline_scale = min(scale, system.node.accelerators_per_node)
    if baseline_scale > scale:
        raise SchemaError("baseline_scale must not exceed scale")
    if baseline_scale == scale:
        efficiency = 1.0
    else:
        base = simulate_step(system, workload, baseline_scale, per_rank_batch,
                             precision, topology, overlap, options)
        base_rate = per_rank_batch / base.step_seconds
        efficiency = samples_per_second_per_rank / base_rate

    run_id = options.run_id or (
        f"sim-{workload.name}-{scale}x-{precision.value}-b{global_batchsize}"
        f"-s{options.skew_seed}")
    run = RunRecord(
        run_id=run_id,
        workload=workload,
        system=system,
        scale=scale,
        precision=precision,
        global_batchsize=global_batchsize,
        achieved_quality=options.achieved_quality,
        wall_time=wall_time,
        epochs_to_quality=epochs_run,
        samples_per_second_per_rank=samples_per_second_per_rank,
        num_ranks=scale,
        level=options.level,
        declaration=_declaration(system, workload, global_batchsize,
                                 precision, topology, options),
        average_power=options.average_power,
    )
    return SimulationResult(run=run, throughput_flops=throughput,
                            efficiency=efficiency, timeline=timeline,
                            step=step)


def sweep_csv(results: Sequence[SimulationResult]) -> str:
    """Render a scale sweep as ``scale,throughput_flops,efficiency``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scale", "throughput_flops", "efficiency"])
    for r in results:
        writer.writerow([r.run.scale, f"{r.throughput_flops:.9g}",
                         f"{r.efficiency:.9g}"])
    return buf.getvalue()


_SCENARIO_KEYS = frozenset({"system", "workload", "sweep", "per_rank_batch",
                            "precision", "topology", "alpha", "options",
                            "options_by_scale"})


def run_scenario(scenario, out_dir=None) -> list[SimulationResult]:
    """Run a JSON scenario: a system, a workload, and a scale sweep.

    ``scenario`` is a mapping or a path to a JSON document::

        {"system": {...}, "workload": {...}, "sweep": [8, 16, 32, 64],
         "per_rank_batch": 128, "precision": "fp32", "topology": {...},
         "alpha": 0.9, "options": {...}}

    Per-scale option overrides may be given as ``options_by_scale``, keyed
    by a swept scale as a string.  Any other key there or at the top level
    is a :class:`SchemaError`.  When ``out_dir`` is set, one run record JSON
    per scale plus a ``sweep.csv`` summary are written there; run ids must
    be safe file names, as in the results store.
    """
    if not isinstance(scenario, dict):
        scenario = _parse_json(Path(scenario).read_bytes(), scenario)
    if (not _is_mapping(scenario) or "system" not in scenario
            or "workload" not in scenario):
        raise SchemaError("scenario needs 'system' and 'workload' objects")
    unknown = sorted(map(str, set(scenario) - _SCENARIO_KEYS))
    _require(not unknown, f"unknown scenario keys: {', '.join(unknown)}")
    system = SystemConfig.from_dict(scenario["system"])
    workload = WorkloadSpec.from_dict(scenario["workload"])
    sweep = scenario.get("sweep")
    if not sweep or not isinstance(sweep, (list, tuple)):
        raise SchemaError("scenario must list at least one scale in 'sweep'")
    per_rank_batch = _int(scenario.get("per_rank_batch", 1), "per_rank_batch", 1)
    precision = _coerce(PrecisionMode, scenario.get("precision", "fp32"),
                        "precision")
    topology = TopologySpec.from_dict(scenario.get("topology", {"kind": "ring"}))
    overlap = OverlapModel(alpha=scenario.get("alpha", 1.0))
    base_options = scenario.get("options", {})
    by_scale = scenario.get("options_by_scale", {})
    _require(_is_mapping(base_options) and _is_mapping(by_scale),
             "scenario options and options_by_scale must be objects")
    sweep = [_int(scale, "sweep scale", 1) for scale in sweep]
    unknown = sorted(map(str, set(by_scale) - set(map(str, sweep))))
    _require(not unknown, f"options_by_scale keys name no swept scale: "
                          f"{', '.join(unknown)}")

    results = []
    for scale in sweep:
        override = by_scale.get(str(scale), {})
        _require(_is_mapping(override),
                 f"scenario options_by_scale[{scale}] must be an object")
        options = SimulationOptions.from_dict({**base_options, **override})
        results.append(simulate_training(
            system, workload, scale, per_rank_batch * scale,
            precision, topology, overlap, options))

    if out_dir is not None:
        for r in results:
            _check_name(r.run.run_id, "run_id")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for r in results:
            _write_atomic(out / f"{r.run.run_id}.json", dumps(r.run) + "\n")
        _write_atomic(out / "sweep.csv", sweep_csv(results))
    return results
