"""Canonical domain types shared by every other module.

Defines the hardware description (accelerator, node, system), the
benchmark workload definition, the nine-layer system declaration, and
the per-trial run record, together with strict JSON (de)serialization
and the derived hardware peak rates.

All types are immutable after construction and safe to share across
threads.  Construction validates invariants and raises
:class:`~hpcbench.errors.SchemaError` naming the offending field.
Because they are frozen, records parsed by one
:func:`~hpcbench.store.ingest` call may share one ``system`` or
``workload`` object when their JSON sub-documents are identical: equal
as values, with the same types and the same key order, so that ``1``,
``1.0`` and ``True`` (or ``0.0`` and ``-0.0``) never share an object.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
import json
import marshal
import math
import re
from typing import Any, Optional, get_args, get_origin, get_type_hints

from .errors import MissingPrecision, ParseError, SchemaError

__all__ = [
    "PrecisionMode",
    "BenchLevel",
    "TargetQuality",
    "AcceleratorSpec",
    "NodeSpec",
    "SystemConfig",
    "WorkloadSpec",
    "NineLayerDeclaration",
    "RunRecord",
    "derive_peaks",
    "loads",
    "dumps",
]


class PrecisionMode(str, Enum):
    """Numeric formats a run may declare.

    MIXED denotes half-precision compute with single-precision
    accumulation.
    """

    FP32 = "fp32"
    FP16 = "fp16"
    BF16 = "bf16"
    MIXED = "mixed"
    INT8 = "int8"
    INT4 = "int4"


class BenchLevel(str, Enum):
    """Benchmarking level: which layer group is under test."""

    HARDWARE = "hardware"
    SYSTEM = "system"
    FREE = "free"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _is_mapping(value: Any) -> bool:
    return type(value) is dict or isinstance(value, Mapping)


def _num(value: Any, name: str) -> float:
    kind = type(value)
    if kind is float and math.isfinite(value):
        return value
    if kind is int:
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{name} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"{name} must be finite, got {value!r}")
    return float(value)


def _int(value: Any, name: str, minimum: int) -> int:
    """``value`` if it is an integer (not a ``bool``) ``>= minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise SchemaError(f"{name} must be an integer >= {minimum}, "
                          f"got {value!r}")
    return value


def _coerce(enum: type, value: Any):
    """``enum(value)``, without the enum call when ``value`` is a member."""
    return value if type(value) is enum else enum(value)


@cache
def _field_names(cls) -> frozenset:
    """The field plan of a dataclass: its field names, computed once."""
    return frozenset(f.name for f in fields(cls))


def _check_known_fields(data: Mapping[str, Any], cls, lenient: bool) -> dict:
    known = _field_names(cls)
    if known.issuperset(data):
        return dict(data)
    if not lenient:
        raise SchemaError(
            f"unknown fields for {cls.__name__}: "
            f"{', '.join(sorted(set(data) - known))}"
        )
    return {k: v for k, v in data.items() if k in known}


# -- the JSON codec -----------------------------------------------------

_NESTED, _ENUM, _ENUM_KEYS = "nested", "enum", "enum keys"


def _is_enum(tp) -> bool:
    return isinstance(tp, type) and issubclass(tp, Enum)


@cache
def _field_order(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


@cache
def _plan(cls) -> tuple:
    """The decode plan of ``cls``: ``(field, case, type)`` for each field
    whose JSON value is built before construction, read from the type
    hints.  A nested dataclass is built from an object, an enum is
    coerced from its value, and a mapping keyed by an enum has its keys
    coerced; any other value reaches ``__post_init__`` as decoded."""
    hints = get_type_hints(cls)
    plan = []
    for name in _field_order(cls):
        tp = hints[name]
        if isinstance(tp, type) and is_dataclass(tp):
            plan.append((name, _NESTED, tp))
        elif _is_enum(tp):
            plan.append((name, _ENUM, tp))
        elif get_origin(tp) is Mapping and _is_enum(get_args(tp)[0]):
            plan.append((name, _ENUM_KEYS, get_args(tp)[0]))
    return tuple(plan)


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _encode(value: Any) -> Any:
    if type(value) in _SCALARS:
        return value
    if isinstance(value, JsonCodec):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if _is_mapping(value):
        return {_encode(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


class JsonCodec:
    """JSON encoding and decoding of a dataclass, driven by its fields.

    ``to_dict`` writes the fields in declaration order and enums as
    their values.  ``from_dict`` rejects unknown fields unless
    ``lenient`` and builds the fields named by the class's plan (see
    :func:`_plan`); every failure is a
    :class:`~hpcbench.errors.SchemaError`.
    """

    def to_dict(self) -> dict:
        return {name: _encode(getattr(self, name))
                for name in _field_order(type(self))}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], lenient: bool = False, *,
                  _intern: Optional[dict] = None):
        """Build an instance from decoded JSON.

        ``_intern`` is the table :func:`loads` passes for one ingest:
        a valid ``workload`` or ``system`` is built once per distinct
        sub-document and reused, see :func:`_interned`.
        """
        if not _is_mapping(data):
            raise SchemaError(f"{cls.__name__} must be an object")
        kwargs = _check_known_fields(data, cls, lenient)
        for name, case, tp in _plan(cls):
            if name not in kwargs:
                continue  # the constructor reports a missing field
            raw = kwargs[name]
            if case is not _ENUM and not _is_mapping(raw):
                raise SchemaError(f"{name} must be an object")
            if case is _NESTED:
                kwargs[name] = _interned(_intern if tp in _SHARED else None,
                                         tp, raw, lenient)
                continue
            try:
                kwargs[name] = (_coerce(tp, raw) if case is _ENUM else
                                {_coerce(tp, k): v for k, v in raw.items()})
            except ValueError as exc:
                # "PrecisionMode" -> "unknown precision mode in peak_flops"
                what = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", tp.__name__).lower()
                raise SchemaError(f"unknown {what} in {name}: {exc}") from None
        try:
            return cls(**kwargs)
        except TypeError as exc:  # missing required fields
            raise SchemaError(f"{cls.__name__}: {exc}") from None


@dataclass(frozen=True)
class TargetQuality(JsonCodec):
    """Quality bar a run is scored against, as a fraction in (0, 1]."""

    metric: str
    value: float

    def __post_init__(self):
        _require(isinstance(self.metric, str) and self.metric != "",
                 "target_quality.metric must be a non-empty string")
        v = _num(self.value, "target_quality.value")
        if not 0.0 < v <= 1.0:
            raise SchemaError(
                f"target_quality.value must be a fraction in (0, 1], got {v} "
                "(percentages are rejected; write 0.763, not 76.3)")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class AcceleratorSpec(JsonCodec):
    """One AI accelerator: peak rates per precision plus local memory."""

    name: str
    peak_flops: Mapping[PrecisionMode, float]
    memory_bandwidth: float  # bytes/s
    memory_capacity: float   # bytes

    def __post_init__(self):
        peaks = {}
        for mode, rate in dict(self.peak_flops).items():
            mode = _coerce(PrecisionMode, mode)
            rate = _num(rate, f"peak_flops[{mode.value}]")
            if not rate > 0:
                raise SchemaError(f"peak_flops[{mode.value}] must be positive")
            peaks[mode] = rate
        _require(PrecisionMode.FP32 in peaks, "peak_flops must include fp32")
        object.__setattr__(self, "peak_flops", peaks)
        _require(_num(self.memory_bandwidth, "memory_bandwidth") > 0,
                 "memory_bandwidth must be positive")
        _require(_num(self.memory_capacity, "memory_capacity") > 0,
                 "memory_capacity must be positive")

    def peak_for(self, precision: PrecisionMode) -> float:
        try:
            return self.peak_flops[PrecisionMode(precision)]
        except (KeyError, ValueError):
            raise MissingPrecision(
                f"accelerator {self.name!r} declares no peak for "
                f"{getattr(precision, 'value', precision)}"
            ) from None


@dataclass(frozen=True)
class NodeSpec(JsonCodec):
    """One node of the system: accelerators and their interconnect."""

    accelerators_per_node: int
    accelerator: AcceleratorSpec
    intra_node_bandwidth: float  # bytes/s, accelerator interconnect
    system_memory: float         # bytes
    storage: float               # bytes

    def __post_init__(self):
        _int(self.accelerators_per_node, "accelerators_per_node", 1)
        _require(_num(self.intra_node_bandwidth, "intra_node_bandwidth") > 0,
                 "intra_node_bandwidth must be positive")
        _num(self.system_memory, "system_memory")
        _num(self.storage, "storage")


@dataclass(frozen=True)
class SystemConfig(JsonCodec):
    """Hardware description of the system under test.

    Bandwidths are bytes/s.  ``inter_node_bandwidth_effective`` is the
    achievable rate of one inter-node link (defaults to the nominal
    rate); it is kept separate because quoted link speeds are usually
    optimistic and often given in bits.
    """

    num_nodes: int
    node: NodeSpec
    inter_node_bandwidth_nominal: float
    inter_node_bandwidth_effective: Optional[float] = None

    def __post_init__(self):
        _int(self.num_nodes, "num_nodes", 1)
        nominal = _num(self.inter_node_bandwidth_nominal,
                       "inter_node_bandwidth_nominal")
        _require(nominal > 0, "inter_node_bandwidth_nominal must be positive")
        if self.inter_node_bandwidth_effective is None:
            object.__setattr__(self, "inter_node_bandwidth_effective", nominal)
        eff = _num(self.inter_node_bandwidth_effective,
                   "inter_node_bandwidth_effective")
        _require(0 < eff <= nominal,
                 "inter_node_bandwidth_effective must be positive and <= nominal")

    @property
    def total_accelerators(self) -> int:
        return self.num_nodes * self.node.accelerators_per_node


@dataclass(frozen=True)
class WorkloadSpec(JsonCodec):
    """Benchmark definition: per-sample work, gradient size, quality bar.

    ``comp_per_step`` and ``comm_per_step`` describe one training step of
    one rank at the reference per-rank batch: FLOPs of compute and the
    number of parameters exchanged.  ``bytes_per_param`` defaults to 4
    (single-precision gradients) and is declarable per workload.  The
    three fields with defaults are keyword-only.
    """

    name: str
    flops_per_sample: float      # FLOPs, work per sample (not a rate)
    params_count: int
    bytes_per_param: int = field(default=4, kw_only=True)
    comp_per_step: float = field(default=0.0, kw_only=True)
    comm_per_step: int = field(default=0, kw_only=True)
    target_quality: TargetQuality
    quality_exponent_n: int
    epochs: int
    dataset_samples: int
    min_runs: int

    def __post_init__(self):
        _require(isinstance(self.name, str) and self.name != "",
                 "workload name must be a non-empty string")
        _require(_num(self.flops_per_sample, "flops_per_sample") > 0,
                 "flops_per_sample must be positive")
        for name in ("quality_exponent_n", "min_runs", "epochs",
                     "dataset_samples"):
            _int(getattr(self, name), name, 1)
        for name in ("params_count", "comm_per_step", "bytes_per_param"):
            _int(getattr(self, name), name, 0)
        _require(_num(self.comp_per_step, "comp_per_step") >= 0,
                 "comp_per_step must be non-negative")

    @property
    def gradient_bytes(self) -> int:
        """Size of one rank's gradient message in bytes."""
        return self.params_count * self.bytes_per_param


#: 1-based layer indices of the nine-layer system decomposition.
LAYER_NAMES = {
    1: "hardware",
    2: "os",
    3: "communication_libraries",
    4: "accelerators_and_libraries",
    5: "ai_framework",
    6: "programming_model",
    7: "workload",
    8: "hyper_parameters",
    9: "problem_domain",
}


@dataclass(frozen=True)
class NineLayerDeclaration(JsonCodec):
    """Full-stack declaration of a run, one key/value map per layer.

    Layers, bottom up: 1 hardware, 2 OS, 3 communication libraries,
    4 accelerators and their libraries, 5 AI framework, 6 programming
    model (``parallel_mode``, ``sync_mode``), 7 workload/algorithm id,
    8 hyper-parameters (``batchsize``, ``lr_policy``, others),
    9 problem domain (``dataset``, ``target_quality``, ``epochs``).
    """

    layers: tuple

    def __post_init__(self):
        _require(isinstance(self.layers, (tuple, list)) and len(self.layers) == 9,
                 "declaration must contain exactly nine layers")
        frozen = []
        for i, layer in enumerate(self.layers, start=1):
            if not _is_mapping(layer):
                raise SchemaError(f"layer {i} must be a key/value mapping")
            for key in layer:
                if not isinstance(key, str) or key == "":
                    raise SchemaError(f"layer {i} keys must be non-empty strings")
            frozen.append(dict(layer))
        object.__setattr__(self, "layers", tuple(frozen))

    def layer(self, index: int) -> Mapping[str, Any]:
        """Return layer ``index`` (1-based)."""
        _require(1 <= index <= 9, "layer index must be in [1, 9]")
        return self.layers[index - 1]

    @property
    def workload_id(self) -> Any:
        l7 = self.layer(7)
        return l7.get("algorithm", l7.get("id"))

    @property
    def sync_mode(self) -> Any:
        return self.layer(6).get("sync_mode")


@dataclass(frozen=True)
class RunRecord(JsonCodec):
    """One benchmarking trial.

    ``wall_time`` is the time-to-quality clock: it starts when the
    workload reads its first batch and stops when the reported epochs
    are reached.  ``achieved_quality`` is always a measured input,
    never derived.
    """

    run_id: str
    workload: WorkloadSpec
    system: SystemConfig
    scale: int                      # accelerators used
    precision: PrecisionMode
    global_batchsize: int
    achieved_quality: float
    wall_time: float                # seconds
    epochs_to_quality: float
    samples_per_second_per_rank: float
    num_ranks: int
    level: BenchLevel
    declaration: NineLayerDeclaration
    average_power: Optional[float] = None  # watts

    def __post_init__(self):
        _require(isinstance(self.run_id, str) and self.run_id != "",
                 "run_id must be a non-empty string")
        try:
            self.run_id.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, e.g. JSON "\ud800"
            raise SchemaError(f"run_id must encode as UTF-8, "
                              f"got {self.run_id!r}") from None
        _require(_num(self.wall_time, "wall_time") > 0, "wall_time must be positive")
        q = _num(self.achieved_quality, "achieved_quality")
        if not 0.0 <= q <= 1.0:
            raise SchemaError(f"achieved_quality must be in [0, 1], got {q}")
        _int(self.scale, "scale", 1)
        if self.scale > self.system.total_accelerators:
            raise SchemaError(f"scale {self.scale} exceeds the system's "
                              f"{self.system.total_accelerators} accelerators")
        _int(self.num_ranks, "num_ranks", 1)
        _int(self.global_batchsize, "global_batchsize", 1)
        _require(_num(self.epochs_to_quality, "epochs_to_quality") > 0,
                 "epochs_to_quality must be positive")
        _require(_num(self.samples_per_second_per_rank,
                      "samples_per_second_per_rank") >= 0,
                 "samples_per_second_per_rank must be non-negative")
        if self.average_power is not None:
            _require(_num(self.average_power, "average_power") > 0,
                     "average_power must be positive when present")
        object.__setattr__(self, "precision",
                           _coerce(PrecisionMode, self.precision))
        object.__setattr__(self, "level", _coerce(BenchLevel, self.level))


#: Sub-documents of a run that one ingest may share between records.
_SHARED = (WorkloadSpec, SystemConfig)


def _interned(table: Optional[dict], cls, raw: Mapping[str, Any],
              lenient: bool):
    """``cls.from_dict(raw, lenient)``, built once per distinct ``raw``
    in ``table``.

    The key is ``marshal.dumps(raw, 2)`` of the JSON-decoded
    sub-document, computed in C.  It is exact, like ``repr`` but without
    formatting floats: it writes each value's type and bits, so it keeps
    ``1``, ``1.0`` and ``True`` apart, and ``0.0`` and ``-0.0``.  Format
    2 writes no back-references, so the bytes depend on the values and
    not on which objects are shared.  The key is only compared, never
    loaded, and lives as long as the table.  The same keys in another
    order miss the table, which costs a rebuild and nothing else.  A
    sub-document that fails validation raises and is never stored.
    """
    if table is None or type(raw) is not dict:
        return cls.from_dict(raw, lenient)
    key = (cls, lenient, marshal.dumps(raw, 2))
    obj = table.get(key)
    if obj is None:
        obj = table[key] = cls.from_dict(raw, lenient)
    return obj


def derive_peaks(system: SystemConfig,
                 precision: PrecisionMode) -> tuple[float, float]:
    """Theoretical peak rates of one node and of the full system.

    Both are linear aggregates of the per-accelerator peak: the
    single-node peak is ``accelerators_per_node`` times the accelerator
    rate, the distributed peak is ``num_nodes`` times the single-node
    peak.

    Raises :class:`MissingPrecision` if the accelerator declares no
    peak for ``precision``.
    """
    per_accelerator = system.node.accelerator.peak_for(precision)
    single_node = system.node.accelerators_per_node * per_accelerator
    return single_node, system.num_nodes * single_node


_TYPE_BY_KIND = {
    "system": SystemConfig,
    "workload": WorkloadSpec,
    "run": RunRecord,
    "declaration": NineLayerDeclaration,
}


def _parse_json(text: str, path=None):
    """``json.loads`` of an input document.  Invalid JSON raises
    :class:`ParseError`, and so does JSON the parser refuses to build:
    nesting deeper than the recursion limit, an integer literal longer
    than the interpreter converts."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=path, line=exc.lineno, offset=exc.colno) from None
    except (RecursionError, ValueError) as exc:
        raise ParseError(str(exc), path=path) from None


def loads(text: str, kind: str, lenient: bool = False, path=None, *,
          _intern: Optional[dict] = None):
    """Parse a JSON document into the named domain type.

    ``kind`` is one of ``system``, ``workload``, ``run``,
    ``declaration``.  Unknown fields are rejected unless ``lenient``.
    ``_intern`` is private to :func:`~hpcbench.store.ingest`, which
    passes one fresh table per call so that its ``run`` records share
    identical ``system``/``workload`` objects.
    """
    data = _parse_json(text, path)
    if not _is_mapping(data):
        raise SchemaError(f"top-level JSON value must be an object ({path or kind})")
    try:
        cls = _TYPE_BY_KIND[kind]
    except KeyError:
        raise ValueError(f"unknown document kind {kind!r}") from None
    return cls.from_dict(data, lenient, _intern=_intern)


def dumps(obj, indent: int = 2) -> str:
    """Serialize a domain object to JSON (inverse of :func:`loads`)."""
    return json.dumps(obj.to_dict(), indent=indent, sort_keys=False)
