"""Nine-layer equivalence rules, level policies, and run aggregation.

Three benchmarking levels open progressively more layers to change
while layer 9 (problem domain: dataset, target quality, epochs) stays
fixed everywhere:

* hardware: layers 1-4 free; the framework (5) and workload (7) must
  match the reference, the programming model (6) may change parallel
  mode only, and hyper-parameters (8) may change only ``batchsize`` and
  ``lr_policy``.
* system: hardware allowances plus a free framework layer.
* free: layers 1-8 free.

Synchronous SGD is mandatory at every level: a declaration whose
``sync_mode`` is not synchronous is never a valid submission.

Aggregation follows the reporting procedure: trials are sorted by
epochs-to-quality, the single highest and lowest are dropped, and the
remaining scores are arithmetically averaged; run-to-run variation is
the population standard deviation over the mean of epochs-to-quality
across all submitted trials.
"""

import marshal
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .core import (
    BenchLevel,
    JsonCodec,
    NineLayerDeclaration,
    RunRecord,
    WorkloadSpec,
    _coerce,
    _int,
    _num,
)
from .errors import (
    DuplicateRun,
    IncomparableWorkloads,
    InsufficientRuns,
    InvalidSchedule,
    NotARepetition,
    NotReplicable,
    SchemaError,
)
from .metrics import score_run

__all__ = [
    "Severity",
    "Violation",
    "LevelPolicy",
    "POLICIES",
    "LayerVerdict",
    "EquivalenceReport",
    "validate_declaration",
    "audit",
    "check_equivalence",
    "Decay",
    "LearningRateSchedule",
    "lr_schedule",
    "AggregateResult",
    "aggregate_runs",
    "RepeatabilityReport",
    "repeatability_report",
    "ReplicabilityReport",
    "replicability_check",
]


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Violation(JsonCodec):
    """One rule breach located at a layer/key."""

    layer: int
    key: str
    severity: Severity
    message: str

    def __post_init__(self):
        object.__setattr__(self, "severity",
                           _coerce(Severity, self.severity, "severity"))
        if not (1 <= self.layer <= 9):
            raise SchemaError("violation layer must be in [1, 9]")


#: Marker meaning every key of the layer may change.
ALL_KEYS = None


@dataclass(frozen=True)
class LevelPolicy:
    """Which layers (and keys) a level opens to change."""

    mutable_layers: Mapping[int, Optional[frozenset]]

    def allowed_keys(self, layer: int) -> Optional[frozenset]:
        """Keys changeable at ``layer``; ALL_KEYS if unrestricted, empty
        frozenset if the layer is immutable."""
        return self.mutable_layers.get(layer, frozenset())

    def forbidden(self, layer: int, keys) -> list[str]:
        """The ``keys`` of ``layer`` this level does not open to change."""
        allowed = self.allowed_keys(layer)
        return [k for k in keys if allowed is not ALL_KEYS and k not in allowed]


POLICIES: dict[BenchLevel, LevelPolicy] = {
    BenchLevel.HARDWARE: LevelPolicy({
        1: ALL_KEYS, 2: ALL_KEYS, 3: ALL_KEYS, 4: ALL_KEYS,
        6: frozenset({"parallel_mode"}),
        8: frozenset({"batchsize", "lr_policy"}),
    }),
    BenchLevel.SYSTEM: LevelPolicy({
        1: ALL_KEYS, 2: ALL_KEYS, 3: ALL_KEYS, 4: ALL_KEYS, 5: ALL_KEYS,
        6: frozenset({"parallel_mode"}),
        8: frozenset({"batchsize", "lr_policy"}),
    }),
    BenchLevel.FREE: LevelPolicy({
        i: ALL_KEYS for i in range(1, 9)
    }),
}

_ENUM_KEYS = {"sync_mode", "parallel_mode"}


def _canon_value(key: str, value):
    if isinstance(value, str):
        value = value.strip()
        if key in _ENUM_KEYS:
            value = value.lower()
    return value


def _canon_layer(layer: Mapping) -> dict:
    return {k.strip(): _canon_value(k.strip(), v) for k, v in layer.items()}


def _layer_diffs(a: NineLayerDeclaration,
                 b: NineLayerDeclaration) -> dict[int, list[str]]:
    """``{layer: sorted keys whose canonical values differ}`` for each
    layer where ``a`` and ``b`` differ, in ascending layer order."""
    diffs = {}
    for layer_idx, (la, lb) in enumerate(zip(a.layers, b.layers), 1):
        ca, cb = _canon_layer(la), _canon_layer(lb)
        keys = [k for k in sorted(ca.keys() | cb.keys())
                if ca.get(k) != cb.get(k)]
        if keys:
            diffs[layer_idx] = keys
    return diffs


def _sync_violations(decl: NineLayerDeclaration) -> list[Violation]:
    sync = _canon_value("sync_mode", decl.sync_mode)
    if sync == "synchronous":
        return []
    return [Violation(
        layer=6, key="sync_mode", severity=Severity.ERROR,
        message=f"training must be synchronous SGD, declared {sync!r}")]


def validate_declaration(run: RunRecord,
                         reference: NineLayerDeclaration) -> list[Violation]:
    """Audit a run's declaration against the reference at the run's level.

    Every deviation outside the level's allowance becomes an ERROR
    violation; a clean declaration returns the empty list.  A
    declaration compared against itself is always clean (provided it is
    a valid submission, i.e. synchronous).
    """
    decl = run.declaration
    if not isinstance(reference, NineLayerDeclaration):
        raise SchemaError("reference must be a NineLayerDeclaration")
    policy = POLICIES[run.level]
    violations = _sync_violations(decl)
    for layer_idx, keys in _layer_diffs(decl, reference).items():
        violations += [Violation(
            layer=layer_idx, key=key, severity=Severity.ERROR,
            message=(f"layer {layer_idx} key {key!r} differs from the "
                     f"reference and is immutable at {run.level.value} level"))
            for key in policy.forbidden(layer_idx, keys)]
    return violations


def audit(runs: Sequence[RunRecord],
          reference: NineLayerDeclaration) -> list[list[Violation]]:
    """``validate_declaration`` of each run, in run order.  The audit
    depends only on the run's declaration and level, so it runs once per
    distinct pair and runs that share one share its result.  The layers
    are keyed by ``marshal.dumps(layers, 2)``, not by ``==``: ``True ==
    1``, but a violation message quotes the declared value, and those
    bytes keep each value's type, as ``repr`` would, at a fraction of its
    cost.  The bytes are only compared, never loaded."""
    audits: dict = {}
    out = []
    for run in runs:
        key = (marshal.dumps(run.declaration.layers, 2), run.level)
        if key not in audits:
            audits[key] = validate_declaration(run, reference)
        out.append(audits[key])
    return out


class LayerVerdict(str, Enum):
    EQUIVALENT = "equivalent"
    DIFFERS_ALLOWED = "differs_allowed"
    DIFFERS_FORBIDDEN = "differs_forbidden"


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-layer comparison of two declarations under a level policy."""

    level: BenchLevel
    layers: Mapping[int, LayerVerdict]
    differing_keys: Mapping[int, tuple]

    @property
    def comparable(self) -> bool:
        return all(v is not LayerVerdict.DIFFERS_FORBIDDEN
                   for v in self.layers.values())


def check_equivalence(a: NineLayerDeclaration, b: NineLayerDeclaration,
                      level: BenchLevel) -> EquivalenceReport:
    """Compare two declarations layer by layer under a level's policy.

    The verdict is symmetric in the operands.  Two declarations naming
    different workloads cannot be meaningfully compared below the free
    level and raise :class:`IncomparableWorkloads`.
    """
    level = _coerce(BenchLevel, level, "level")
    policy = POLICIES[level]
    ids = (_canon_value("id", a.workload_id), _canon_value("id", b.workload_id))
    if ids[0] != ids[1] and level is not BenchLevel.FREE:
        raise IncomparableWorkloads(
            f"workload ids differ: {ids[0]!r} vs {ids[1]!r}")
    diffs = _layer_diffs(a, b)
    layers = {i: LayerVerdict.EQUIVALENT if i not in diffs
              else LayerVerdict.DIFFERS_FORBIDDEN if policy.forbidden(i, diffs[i])
              else LayerVerdict.DIFFERS_ALLOWED for i in range(1, 10)}
    return EquivalenceReport(level=level, layers=layers, differing_keys={
        i: tuple(keys) for i, keys in diffs.items()})


class Decay(str, Enum):
    COSINE = "cosine"
    STEP = "step"
    NONE = "none"


# STEP decay divides the rate by 10 at these fractions of the total
# epoch budget (30/60/80 for a 90-epoch run).
_STEP_MILESTONES = (1 / 3, 2 / 3, 8 / 9)


@dataclass(frozen=True)
class LearningRateSchedule:
    """Epoch -> learning rate curve: linear warmup, then decay.

    Linear scaling: when the batch grows by a factor ``k`` the base rate
    is multiplied by ``k``.  The warmup ramps linearly from the base rate
    to ``base_lr * k`` over ``[0, warmup_epochs)`` and the decay starts
    exactly at ``base_lr * k``, so the curve is continuous at the
    boundary and never exceeds ``base_lr * k``.
    """

    base_lr: float
    k: float
    warmup_epochs: int
    total_epochs: int
    decay: Decay = Decay.COSINE

    def __post_init__(self):
        object.__setattr__(self, "decay", _coerce(Decay, self.decay, "decay"))
        if not _num(self.base_lr, "base_lr") > 0:
            raise InvalidSchedule("base_lr must be positive")
        if not _num(self.k, "k") >= 1:
            raise InvalidSchedule(
                f"batch multiplier k must be >= 1, got {self.k}")
        if not (_int(self.warmup_epochs, "warmup_epochs", 0)
                < _int(self.total_epochs, "total_epochs", 1)):
            raise InvalidSchedule(
                f"warmup ({self.warmup_epochs}) must be shorter than the "
                f"schedule ({self.total_epochs})")

    def at(self, epoch: float) -> float:
        if not 0 <= epoch <= self.total_epochs:
            raise InvalidSchedule(
                f"epoch {epoch} outside [0, {self.total_epochs}]")
        peak = self.base_lr * self.k
        if self.warmup_epochs > 0 and epoch < self.warmup_epochs:
            frac = epoch / self.warmup_epochs
            return self.base_lr + (peak - self.base_lr) * frac
        if self.decay is Decay.NONE:
            return peak
        span = self.total_epochs - self.warmup_epochs
        progress = (epoch - self.warmup_epochs) / span
        if self.decay is Decay.COSINE:
            return peak * 0.5 * (1.0 + math.cos(math.pi * progress))
        drops = sum(1 for m in _STEP_MILESTONES if progress >= m)
        return peak * (0.1 ** drops)

    def per_epoch(self) -> list[float]:
        return [self.at(e) for e in range(self.total_epochs)]


lr_schedule = LearningRateSchedule


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _variation(values: Sequence[float]) -> float:
    mean = _mean(values)
    if mean == 0:
        return 0.0
    # population standard deviation over the mean
    return math.sqrt(_mean([(v - mean) ** 2 for v in values])) / mean


def configuration_key(run: RunRecord) -> tuple:
    """Workload definition, system, scale, precision and global batch
    size: repeats and the drop-extremes aggregate are defined per key."""
    return (run.workload, run.system, run.scale, run.precision,
            run.global_batchsize)


def _workload_label(workload: WorkloadSpec) -> str:
    """Name and target quality: two definitions of one name read apart."""
    return f"{workload.name} (target {workload.target_quality.value:g})"


@dataclass(frozen=True)
class AggregateResult:
    """Drop-extremes aggregate over one configuration's trials."""

    retained_runs: tuple
    dropped: tuple           # (highest, lowest) by epochs_to_quality
    mean_scores: Mapping[str, float]
    variation: float         # epochs-to-quality, over all submitted runs
    wall_time_variation: float


def aggregate_runs(runs: Sequence[RunRecord]) -> AggregateResult:
    """Aggregate repeated trials of one workload configuration.

    The trials must share one :func:`configuration_key`, and are scored
    against its workload; declarations may differ (the rule audit
    reports that).  Each trial must have its own run id
    (:class:`DuplicateRun` names the first repeated one).  Requires at
    least the workload's ``min_runs`` trials.  Trials are sorted by
    (epochs_to_quality, run_id) and the single highest and lowest are
    dropped before averaging scores; ties drop the first encountered in
    that stable order.  Variation is
    reported over all submitted trials.
    """
    if not runs:
        raise SchemaError("no runs to aggregate")
    seen = set()
    for run in runs:
        if run.run_id in seen:
            raise DuplicateRun(f"run_id {run.run_id!r} appears twice "
                               "among the runs to aggregate")
        seen.add(run.run_id)
    configs = []
    for key in map(configuration_key, runs):
        if key not in configs:
            configs.append(key)
    if len(configs) > 1:
        raise SchemaError(
            f"runs span {len(configs)} configurations: " + "; ".join(
                f"{_workload_label(w)} on {s.num_nodes}x"
                f"{s.node.accelerators_per_node} {s.node.accelerator.name}, "
                f"scale {n}, {p.value}, batch {b}"
                for w, s, n, p, b in configs)
            + "; narrow with --workload or --select")
    workload = configs[0][0]
    if len(runs) < workload.min_runs:
        raise InsufficientRuns(workload.min_runs, len(runs))
    ordered = sorted(runs, key=lambda r: (r.epochs_to_quality, r.run_id))
    if len(ordered) >= 3:
        lowest, highest = ordered[0], ordered[-1]
        retained = tuple(ordered[1:-1])
        dropped = (highest, lowest)
    else:
        retained = tuple(ordered)
        dropped = ()

    scores = {r.run_id: score_run(r) for r in retained}
    mean_scores = {
        "flops": _mean([s.flops for s in scores.values()]),
        "vflops": _mean([s.vflops for s in scores.values()]),
        "time_to_quality": _mean([s.time_to_quality for s in scores.values()]),
        "epochs_to_quality": _mean([r.epochs_to_quality for r in retained]),
    }
    per_watt = [s.vflops_per_watt for s in scores.values()]
    if all(v is not None for v in per_watt):
        mean_scores["vflops_per_watt"] = _mean(per_watt)

    return AggregateResult(
        retained_runs=retained,
        dropped=dropped,
        mean_scores=mean_scores,
        variation=_variation([r.epochs_to_quality for r in runs]),
        wall_time_variation=_variation([r.wall_time for r in runs]),
    )


@dataclass(frozen=True)
class RepeatabilityReport:
    """Same-team repeat trials: mean, variation, and the raw data."""

    mean_epochs_to_quality: float
    variation: float
    runs: tuple


def repeatability_report(runs: Sequence[RunRecord]) -> RepeatabilityReport:
    """Quantify run-to-run variation of identically configured trials.

    All trials must share the system, configuration, and declaration;
    heterogeneous submissions raise :class:`NotARepetition`.  The raw
    trial list is part of the report.
    """
    if len(runs) < 2:
        raise NotARepetition("need at least two trials")
    head = runs[0]
    for other in runs[1:]:
        if (configuration_key(other) != configuration_key(head)
                or other.level != head.level
                or _layer_diffs(head.declaration, other.declaration)):
            raise NotARepetition(
                f"run {other.run_id!r} is not configured like {head.run_id!r}")
    epochs = [r.epochs_to_quality for r in runs]
    return RepeatabilityReport(
        mean_epochs_to_quality=_mean(epochs),
        variation=_variation(epochs),
        runs=tuple(runs),
    )


@dataclass(frozen=True)
class ReplicabilityReport:
    """Cross-team verification: per-metric relative deltas and verdict."""

    passed: bool
    tolerance: float
    deltas: Mapping[str, float]
    failed_metrics: tuple


def replicability_check(team_a: AggregateResult, team_b: AggregateResult,
                        tolerance: float) -> ReplicabilityReport:
    """Verify a second team's aggregate against the first within tolerance.

    Passes when every shared mean metric agrees within the relative
    tolerance ``|a - b| / a``.  Aggregates of different workloads (by
    value, so two target qualities of one name differ) or systems raise
    :class:`NotReplicable`.
    """
    if _num(tolerance, "tolerance") < 0:
        raise SchemaError("tolerance must be non-negative")
    ref_a = team_a.retained_runs[0] if team_a.retained_runs else None
    ref_b = team_b.retained_runs[0] if team_b.retained_runs else None
    if ref_a is None or ref_b is None:
        raise NotReplicable("aggregates carry no runs to compare")
    if ref_a.workload != ref_b.workload or ref_a.system != ref_b.system:
        raise NotReplicable("aggregates describe different workloads or systems")
    deltas = {}
    failed = []
    for metric in sorted(set(team_a.mean_scores) & set(team_b.mean_scores)):
        a, b = team_a.mean_scores[metric], team_b.mean_scores[metric]
        rel = abs(a - b) / a if a != 0 else (0.0 if b == 0 else math.inf)
        deltas[metric] = rel
        if rel > tolerance:
            failed.append(metric)
    return ReplicabilityReport(passed=not failed, tolerance=tolerance,
                               deltas=deltas, failed_metrics=tuple(failed))
