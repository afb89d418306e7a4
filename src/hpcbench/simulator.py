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

One ``run_scenario`` sweep does its shared work once: one options object
serves every scale without an ``options_by_scale`` override, each
``(scale, per-rank batch, options)`` step is costed once (so the
single-node step is also the efficiency baseline of the larger scales),
and each ``(skew_seed, negotiation_skew)`` offset sequence is drawn once,
as far as the largest scale reached, and sliced per scale.  Nothing is
kept between calls.
"""

import csv
import io
import math
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import add
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
    _field_order,
    _int,
    _is_mapping,
    _num,
    _parse_json,
    _require,
    dumps,
)
from .errors import BatchShardError, DegenerateBand, SchemaError
from .metrics import throughput_flops
from .store import _check_name, _read, _refuse_overwrite, _write_atomic

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
    _int(participants, "participants", 1)
    if _num(message_bytes, "message_bytes") < 0:
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
    if _num(bandwidth, "bandwidth") <= 0:
        raise DegenerateBand("bandwidth must be positive")
    traffic = allreduce_traffic(message_bytes, participants)
    return traffic.per_participant / bandwidth + _latency_term(participants,
                                                               topology)


def step_time(compute: float, comm: float, overlap: OverlapModel) -> float:
    """Blend compute and communication through the overlap factor.

    Bounded by ``max(compute, comm)`` (perfect overlap) and
    ``compute + comm`` (fully serial); monotone non-increasing in alpha.
    """
    if _num(compute, "compute time") < 0 or _num(comm, "comm time") < 0:
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
        for name in _field_order(PhaseTimeline):
            if getattr(self, name) < 0:
                raise SchemaError(f"phase {name} must be non-negative")

    def total(self) -> float:
        # Left to right, as listed: ``sum`` compensates its rounding on
        # Python 3.12+, which can move the last bit.
        return reduce(add, [getattr(self, name)
                            for name in _field_order(PhaseTimeline)])


@dataclass(frozen=True, eq=False)
class SimulationOptions(JsonCodec):
    """Scenario knobs the model never invents on its own.

    ``achieved_quality`` is mandatory: quality is a measured property of
    training, so scenarios must declare it.  ``compute_efficiency`` is
    the empirical fraction of peak the workload's kernels sustain.
    ``negotiation_skew`` bounds the uniform per-rank readiness offsets
    (seconds) drawn from ``skew_seed``; ``gradient_tensors`` splits the
    gradient message into that many allreduce calls (latency scales,
    volume does not).  Options compare and hash by identity, so a sweep
    keys its steps by the options object.
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
        _int(self.skew_seed, "skew_seed", 0)
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
    bandwidth: float


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


class _Sweep:
    """The work one ``simulate_training`` or ``run_scenario`` call shares
    across its scales.  Each call makes its own; nothing outlives it.

    ``step`` costs each ``(options, scale, per-rank batch)`` step once,
    so one scale's step is also the efficiency baseline of the larger
    ones.  ``_skew`` keeps each ``(skew_seed, negotiation_skew)`` pair's
    ``Random(seed)`` and extends its offsets on demand, so the first
    ``p`` offsets are those a fresh draw of ``p`` gives.
    """

    def __init__(self, system: SystemConfig, workload: WorkloadSpec,
                 precision: PrecisionMode, topology: TopologySpec,
                 overlap: OverlapModel):
        self.system, self.workload, self.precision = system, workload, precision
        self.topology, self.overlap = topology, overlap
        self._draws: dict = {}  # (seed, skew) -> (Random, offsets)
        self._steps: dict = {}  # (options, scale, batch) -> step

    def _skew(self, participants: int,
              options: SimulationOptions) -> tuple[float, float]:
        """(negotiation, queuing) from seeded uniform readiness offsets.

        Negotiation spans from the first ready rank to the last; queuing
        is the mean backlog the stragglers impose on the group's
        coordinator.  Zero skew gives zero for both.
        """
        skew, seed = options.negotiation_skew, options.skew_seed
        if skew == 0 or participants == 1:
            return 0.0, 0.0
        draw = self._draws.get((seed, skew))
        if draw is None:
            draw = self._draws[seed, skew] = (random.Random(seed), [])
        rng, drawn = draw
        drawn.extend(rng.uniform(0.0, skew)
                     for _ in range(participants - len(drawn)))
        offsets = drawn[:participants]
        latest = max(offsets)
        negotiation = latest - min(offsets)
        queuing = sum(latest - o for o in offsets) / participants
        return negotiation, queuing

    def _cost(self, scale: int, per_rank_batch: int,
              options: SimulationOptions) -> StepBreakdown:
        system = self.system
        node = system.node
        apn = node.accelerators_per_node
        if scale < 1 or scale > system.total_accelerators:
            raise SchemaError(
                f"scale {scale} outside [1, {system.total_accelerators}]")
        if scale > apn and scale % apn:
            raise SchemaError(
                f"multi-node scale {scale} must fill whole nodes of {apn}")

        peak = node.accelerator.peak_for(self.precision)
        compute = (per_rank_batch * self.workload.flops_per_sample
                   / (peak * options.compute_efficiency))

        bandwidth = (node.intra_node_bandwidth if scale <= apn
                     else system.inter_node_bandwidth_effective)
        message = self.workload.gradient_bytes / options.compress_factor
        tensors = options.gradient_tensors
        ar = tensors * allreduce_time(message / tensors, scale, self.topology,
                                      bandwidth)

        negotiation, queuing = self._skew(scale, options)
        memcpy_each = (message / node.accelerator.memory_bandwidth
                       if scale > 1 else 0.0)
        comm_processing = negotiation + queuing + 2 * memcpy_each + ar
        seconds = step_time(compute, comm_processing, self.overlap)
        return StepBreakdown(
            compute_time=compute, comm_processing=comm_processing,
            step_seconds=seconds, alpha=self.overlap.alpha,
            negotiation=negotiation, queuing=queuing, memcpy_each=memcpy_each,
            allreduce_seconds=ar, message_bytes=message, bandwidth=bandwidth)

    def step(self, scale: int, per_rank_batch: int,
             options: SimulationOptions) -> StepBreakdown:
        key = (options, scale, per_rank_batch)
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = self._cost(scale, per_rank_batch,
                                                 options)
        return step

    def simulate(self, scale: int, global_batchsize: int,
                 options: SimulationOptions) -> SimulationResult:
        system, workload, precision = self.system, self.workload, self.precision
        if global_batchsize % scale:
            raise BatchShardError(
                f"global batch {global_batchsize} does not shard over "
                f"{scale} ranks")
        per_rank_batch = global_batchsize // scale

        step = self.step(scale, per_rank_batch, options)
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
            base = self.step(baseline_scale, per_rank_batch, options)
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
                                     precision, self.topology, options),
            average_power=options.average_power,
        )
        return SimulationResult(run=run, throughput_flops=throughput,
                                efficiency=efficiency, timeline=timeline,
                                step=step)


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
    at the same per-rank batch.  A one-scale sweep: ``run_scenario``
    gives each scale the same result.
    """
    precision = _coerce(PrecisionMode, precision, "precision")
    return _Sweep(system, workload, precision, topology,
                  overlap).simulate(scale, global_batchsize, options)


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
    be safe file names, as in the results store, and no file written may
    be the scenario file (``store._refuse_overwrite``).
    """
    path = None
    if not isinstance(scenario, dict):
        path, scenario = scenario, _parse_json(_read(scenario), scenario)
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

    sim = _Sweep(system, workload, precision, topology, overlap)
    # Built on first use: when every scale has an override, the base
    # options alone need not be valid.
    shared = None
    results = []
    for scale in sweep:
        if str(scale) not in by_scale:
            if shared is None:
                shared = SimulationOptions.from_dict(base_options)
            options = shared
        else:
            override = by_scale[str(scale)]
            _require(_is_mapping(override),
                     f"scenario options_by_scale[{scale}] must be an object")
            options = SimulationOptions.from_dict({**base_options, **override})
        results.append(sim.simulate(scale, per_rank_batch * scale, options))

    if out_dir is not None:
        written: dict[str, int] = {}
        for r in results:
            _check_name(r.run.run_id, "run_id")
            if r.run.run_id in written:
                raise SchemaError(
                    f"scales {written[r.run.run_id]} and {r.run.scale} both "
                    f"write run_id {r.run.run_id!r} under {out_dir}")
            written[r.run.run_id] = r.run.scale
        out = Path(out_dir)
        _refuse_overwrite(
            [*((f"the scale {r.run.scale} record", out / f"{r.run.run_id}.json")
               for r in results), ("the sweep summary", out / "sweep.csv")],
            [("scenario", path)])
        out.mkdir(parents=True, exist_ok=True)
        for r in results:
            _write_atomic(out / f"{r.run.run_id}.json", dumps(r.run) + "\n")
        _write_atomic(out / "sweep.csv", sweep_csv(results))
    return results
