"""Canonical domain types shared by every other module.

Defines the hardware description (accelerator, node, system), the
benchmark workload definition, the nine-layer system declaration, and
the per-trial run record, together with strict JSON (de)serialization
and the derived hardware peak rates.  One encoder, :func:`_json_text`,
writes every JSON document the package emits, with the same bytes as
``json.dumps(value, indent=2)``.

All types are immutable after construction and safe to share across
threads.  Construction validates invariants and raises
:class:`~hpcbench.errors.SchemaError` naming the offending field.
Because they are frozen, records parsed by one
:func:`~hpcbench.store.ingest` call share one ``system`` or ``workload``
object when the JSON texts of those sub-documents are byte-identical
within that call, so that ``1``, ``1.0`` and ``true`` (or ``0.0`` and
``-0.0``) never share an object.  Such a text is parsed and validated
once per call; a later copy is matched by its text and not parsed again
(:func:`_walk_run`).  A declaration's layers are plain dicts, so its
object is never shared: a declaration text whose layers hold scalars
alone is also parsed and validated once per call, and each record gets
its own copy with new layer dicts (:func:`_interned`).  ``json.loads``
still judges every document that this path refuses, so a refused file
gets the same error either way.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
import json
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
import math
import re
import sys
from typing import Any, Optional

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


def _int(value: Any, name: str, minimum: Optional[int] = None) -> int:
    """``value`` if it is an integer (not a ``bool``), ``>= minimum`` when
    one is given."""
    if type(value) is int and (minimum is None or value >= minimum):
        return value
    if (not isinstance(value, int) or isinstance(value, bool)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise SchemaError(f"{name} must be an integer{bound}, got {value!r}")
    return value


@cache
def _members(enum: type) -> dict:
    """``{member.value: member}`` of ``enum``, built once."""
    return {member.value: member for member in enum}


def _coerce(enum: type, value: Any, name: str):
    """``enum(value)`` for field ``name``: the one place an enum value
    becomes a member.  An undefined value is a :class:`SchemaError`.
    A value of exact type ``str`` is looked up in :func:`_members`; any
    other (a ``str`` subclass, a number, an unhashable value) goes
    through ``enum(value)``."""
    if type(value) is str:
        member = _members(enum).get(value)
        if member is not None:
            return member
    elif type(value) is enum:
        return value
    try:
        return enum(value)
    except ValueError as exc:  # "unknown precision mode in precision: ..."
        what = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", enum.__name__).lower()
        raise SchemaError(f"unknown {what} in {name}: {exc}") from None


@cache
def _field_names(cls) -> frozenset:
    """The field plan of a dataclass: its field names, computed once."""
    return frozenset(f.name for f in fields(cls))


# -- the JSON codec -----------------------------------------------------

@cache
def _field_order(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


@cache
def _nested(cls) -> tuple:
    """``(field, type)`` of each field of ``cls`` whose type is a
    dataclass: its JSON object is built before construction.  Any other
    value, enums included, reaches ``__post_init__`` as decoded."""
    return tuple((f.name, f.type) for f in fields(cls)
                 if isinstance(f.type, type) and is_dataclass(f.type))


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _encode(value: Any) -> Any:
    if type(value) in _SCALARS:
        return value
    if isinstance(value, JsonCodec):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if _is_mapping(value):
        return {k if type(k) in _SCALARS else _encode(k):
                v if type(v) in _SCALARS else _encode(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _SCALARS else _encode(v) for v in value]
    return value


class JsonCodec:
    """JSON encoding and decoding of a dataclass, driven by its fields.

    ``to_dict`` writes the fields in declaration order and enums as
    their values.  ``from_dict`` rejects unknown fields and builds the
    nested dataclass fields (see :func:`_nested`); each class's
    ``__post_init__`` checks the rest and coerces its enums.  Every
    failure is a :class:`~hpcbench.errors.SchemaError`.
    """

    def to_dict(self) -> dict:
        return {name: value if type(value := getattr(self, name)) in _SCALARS
                else _encode(value) for name in _field_order(type(self))}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *,
                  _intern: Optional[dict] = None,
                  _keys: Optional[dict] = None):
        """Build an instance from decoded JSON.

        ``_intern`` and ``_keys`` are private to :func:`loads`:
        ``_keys`` maps a nested field to its key in the table
        ``_intern``, and that field is built once per key and reused,
        see :func:`_interned`.
        """
        if not _is_mapping(data):
            raise SchemaError(f"{cls.__name__} must be an object")
        known = _field_names(cls)
        if not known.issuperset(data):
            raise SchemaError(f"unknown fields for {cls.__name__}: "
                              f"{', '.join(sorted(set(data) - known))}")
        kwargs = dict(data)
        for name, tp in _nested(cls):
            if name not in kwargs:
                continue  # the constructor reports a missing field
            if _keys and name in _keys:
                kwargs[name] = _interned(_intern, _keys[name], kwargs[name])
                continue
            raw = kwargs[name]
            if not _is_mapping(raw):
                raise SchemaError(f"{name} must be an object")
            kwargs[name] = tp.from_dict(raw)
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
        _require(_is_mapping(self.peak_flops), "peak_flops must be an object")
        peaks = {_coerce(PrecisionMode, mode, "peak_flops"): rate
                 for mode, rate in self.peak_flops.items()}
        for mode, rate in peaks.items():
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

    def _copy(self) -> "NineLayerDeclaration":
        """A new declaration with a new dict of each layer, not checked
        again.  Layer values are shared, so the copy is independent only
        of a declaration whose layers hold scalars alone."""
        copy = object.__new__(NineLayerDeclaration)
        object.__setattr__(copy, "layers", tuple(map(dict.copy, self.layers)))
        return copy

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
        object.__setattr__(self, "precision",
                           _coerce(PrecisionMode, self.precision, "precision"))
        object.__setattr__(self, "level",
                           _coerce(BenchLevel, self.level, "level"))
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


def _interned(table: dict, key: tuple, raw: Any):
    """The object ``table`` holds under ``key``, ``(cls, text)``; built
    as ``cls.from_dict(raw)`` and stored if the key is new.  A
    :class:`NineLayerDeclaration` is not shared: each call returns a copy
    of the stored one (:meth:`NineLayerDeclaration._copy`).

    ``text`` is the exact JSON text of the sub-document and ``raw`` its
    decoded value.  One text always decodes to one value, so the key is
    exact: ``1``, ``1.0`` and ``true`` (or ``0.0`` and ``-0.0``) are
    different texts and never share an object.  Equal values written
    differently (other whitespace, key order or escapes) miss the table,
    which costs a rebuild and nothing else.  A sub-document that fails
    validation raises and is never stored.
    """
    obj = table.get(key)
    if obj is None:
        obj = table[key] = key[0].from_dict(raw)
    return obj._copy() if key[0] is NineLayerDeclaration else obj


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


def _parse_json(text, path=None):
    """``json.loads`` of an input document: text, or the bytes of a file,
    decoded as strict UTF-8 (given bytes, ``json.loads`` would also accept
    UTF-16/32, a byte-order mark and encoded surrogates).  Bytes that are
    not UTF-8, invalid JSON and JSON the parser refuses to build (nesting
    deeper than the recursion limit, an integer literal longer than the
    interpreter converts) raise :class:`ParseError`."""
    try:
        if type(text) is bytes:
            text = text.decode("utf-8")
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=path, line=exc.lineno, offset=exc.colno) from None
    except (RecursionError, ValueError) as exc:  # bytes not UTF-8 too
        raise ParseError(str(exc), path=path) from None


#: The run fields one ingest may share between records, by JSON key.
_SHARED = {"workload": WorkloadSpec, "system": SystemConfig}

#: How many table entries of the class a value is built as, most
#: recently used first, the value is compared with before it is parsed.
_PROBES = 4

_scan_once = json.JSONDecoder().scan_once


@cache
def _matchers() -> tuple:
    """The ``match`` methods of three patterns: a document's opening
    brace through its first key's colon, a member's comma through its
    key's colon, and the closing brace through the end of the text; a
    key has no escape or control character.  Compiled on first use, not
    at import."""
    ws = r"[ \t\n\r]*"
    key = r'"([^"\\\x00-\x1f]*)"' + ws + ":" + ws
    return (re.compile(ws + r"\{" + ws + key).match,
            re.compile(ws + "," + ws + key).match,
            re.compile(ws + r"\}" + ws + r"\Z").match)


def _scalar_layers(value) -> bool:
    """Whether decoded JSON ``value`` holds a ``layers`` list of objects
    whose values are all scalars, so that a copy of each layer dict
    shares nothing mutable."""
    layers = value.get("layers")
    return type(layers) is list and all(
        type(layer) is dict and _SCALARS.issuperset(map(type, layer.values()))
        for layer in layers)


def _member_value(s: str, i: int, name: str, cls, table: dict, data: dict,
                  keys: dict, deep: int) -> Optional[int]:
    """Where the value of member ``name`` at ``s[i:]`` ends, with
    ``data[name]`` and ``keys[name]`` set (see :func:`_walk_run`); ``None``
    if the value nests too deep to parse on its own.  ``cls`` is the
    class the value is shared as, or ``None``: then it is only parsed.

    A value to share is first compared with the texts of the last
    :data:`_PROBES` entries of ``cls`` in ``table``: an object's JSON
    text is prefix-free, so a text that starts at the value is the whole
    value, which is then neither parsed nor kept (``data[name]`` is
    ``None``).  Any other object, a declaration only if its layers hold
    scalars alone (:func:`_scalar_layers`), is parsed and keyed by its
    text; if the table holds that key, the entry moves to the end, as
    the most recently used."""
    if cls is not None:
        probes = _PROBES
        for entry in reversed(table):
            if entry[0] is cls:
                if s.startswith(entry[1], i):
                    data[name], keys[name] = None, entry
                    return i + len(entry[1])
                probes -= 1
                if not probes:
                    break
    data[name], end = _scan_once(s, i)
    if end - i > deep and (s.count("{", i, end) + s.count("[", i, end)) > deep:
        return None
    value = data[name]
    if cls is not None and type(value) is dict and (
            cls is not NineLayerDeclaration or _scalar_layers(value)):
        key = keys[name] = (cls, s[i:end])
        if key in table:
            table[key] = table.pop(key)
    else:
        keys.pop(name, None)
    return end


def _walk_run(text, table: dict) -> Optional[tuple]:
    """``(data, keys)`` of a run record document, for
    ``RunRecord.from_dict(data, _intern=table, _keys=keys)``, or ``None``
    where ``json.loads`` must judge the document.

    The top-level object is walked with ``json``'s own scanner, one
    member at a time (:func:`_member_value`), until both shared keys
    (:data:`_SHARED`) hold objects.  Then the first ``"declaration"``
    after them is found by its text.  The members before it must parse
    as one object, which they do only if that text is a top-level key
    (not one inside a nested value or a string), and the member pattern
    must match the key at the comma before it.  Its value is taken as a
    shared value is, as a :class:`NineLayerDeclaration`; the members
    after it are parsed as one object.  With no ``"declaration"`` text
    after the shared keys, all the members after them are parsed as one
    object.  The last of duplicate keys wins, as in ``json.loads``.

    ``None`` is returned for whatever the walk does not accept: bytes
    that are not UTF-8, a document that is not one object, a key with an
    escape, a ``"declaration"`` text that is not a top-level key, a key
    among the members parsed as one object that a member walked before
    has, and any JSON error.  So is a member value parsed on its own
    that holds more ``{`` and ``[`` than a quarter of the recursion
    limit: ``json.loads`` would parse it a few frames deeper and might
    give up on its nesting.  The members parsed as one object are parsed
    by ``json.loads`` at the depth it would parse them at, so they nest
    as far.
    """
    try:
        s = text.decode("utf-8") if type(text) is bytes else text
        opening, member, closing = _matchers()
        m = opening(s) if type(s) is str else None
        if m is None:
            return None
        data, keys = {}, {}
        deep = sys.getrecursionlimit() // 4
        while len(keys) < len(_SHARED):
            end = _member_value(s, m.end(), m[1], _SHARED.get(m[1]), table,
                                data, keys, deep)
            if end is None:
                return None
            m = member(s, end)
            if m is None:
                return (data, keys) if closing(s, end) else None
        start = m.start(1) - 1  # the opening quote of the next key
        at = s.find('"declaration"', start)
        if at < 0:
            rest = json.loads("{" + s[start:])
        else:
            rest = {}
            if at > start:
                comma = s.rfind(",", start, at)
                m = member(s, comma) if comma > start else None
                if m is None or m.start(1) - 1 != at:
                    return None
                rest = json.loads("{" + s[start:comma] + "}")
            end = _member_value(s, m.end(), "declaration",
                                NineLayerDeclaration, table, data, keys, deep)
            if end is None:
                return None
            m = member(s, end)
            if m is not None:
                rest.update(json.loads("{" + s[m.start(1) - 1:]))
            elif not closing(s, end):
                return None
        if not data.keys().isdisjoint(rest.keys()):
            return None
        rest.update(data)
        return rest, keys
    except (StopIteration, ValueError, RecursionError):
        return None


def loads(text, kind: str, path=None, *, _intern: Optional[dict] = None):
    """Parse a JSON document (text or file bytes) into the named type.

    ``kind`` is one of ``system``, ``workload``, ``run``,
    ``declaration``.  Unknown fields are rejected.
    ``_intern`` is private to :func:`~hpcbench.store.ingest`, which
    passes one fresh table per call so that its ``run`` records share
    the ``system``/``workload`` objects of byte-identical sub-documents
    and build each record's declaration by copying the one parsed from
    the same text (see :func:`_walk_run`); ``json.loads`` still judges
    every document the walk does not accept, so each refusal is the
    same.
    """
    if _intern is not None and kind == "run":
        walked = _walk_run(text, _intern)
        if walked is not None:
            return RunRecord.from_dict(walked[0], _intern=_intern,
                                       _keys=walked[1])
    data = _parse_json(text, path)
    if not _is_mapping(data):
        raise SchemaError(f"top-level JSON value must be an object ({path or kind})")
    try:
        cls = _TYPE_BY_KIND[kind]
    except KeyError:
        raise ValueError(f"unknown document kind {kind!r}") from None
    return cls.from_dict(data)


def dumps(obj) -> str:
    """Serialize a domain object to JSON (inverse of :func:`loads`)."""
    return _json_text(obj.to_dict())


# -- the JSON writer ----------------------------------------------------

@cache
def _flat_encoder(depth: int):
    """The C encoder of ``json`` writing a container's items ``depth``
    levels in, two spaces a level.  Given a container that holds no
    non-empty container, it writes everything between the brackets as
    ``json.dumps(indent=2)`` does; a value ``json`` cannot write goes to
    the stdlib ``default``, which raises its ``TypeError``."""
    return c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii,
                          None, ": ", ",\n" + "  " * depth, False, False, True)


_FLAT_TYPES = _SCALARS | {list, tuple, dict}


def _flat(values) -> bool:
    """Whether every one of ``values`` has an exact scalar type or is an
    empty list, tuple or dict (of exact type), as :func:`_flat_encoder`
    needs.  Once every type is known, truth is safe to test: an empty
    container is falsy, and every truthy value must be a scalar."""
    return (_FLAT_TYPES.issuperset(map(type, values))
            and _SCALARS.issuperset(map(type, filter(None, values))))


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, refusals included.

    With ``indent``, ``json`` on Python 3.11 writes through its
    pure-Python encoder.  Here a container whose keys and values pass
    :func:`_flat` is written by one call of the C encoder, and only
    containers holding other containers (or subclass instances) are
    walked in Python, the way the pure-Python encoder walks them."""
    return _text(value, 1, {})


def _text(value, depth: int, markers: dict) -> str:
    """``value`` written with its items ``depth`` levels in; ``markers``
    holds the containers being walked, to refuse a cycle."""
    kind = type(value)
    if kind is dict:
        flat = _flat(value.values()) and _SCALARS.issuperset(map(type, value))
    elif kind is list or kind is tuple:
        flat = _flat(value)
    elif isinstance(value, (list, tuple, dict)):
        flat = False
    else:
        return "".join(_flat_encoder(depth)(value, 0))
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    encode = _flat_encoder(depth)
    newline = "\n" + "  " * depth
    if flat:
        text = "".join(encode(value, 0))
        return text[0] + newline + text[1:-1] + newline[:-2] + text[-1]
    if id(value) in markers:
        raise ValueError("Circular reference detected")
    markers[id(value)] = value
    # a scalar item is written here, saving a call of _text
    if isinstance(value, dict):
        items = [_key_text(k) + ": " + ("".join(encode(v, 0))
                                        if type(v) in _SCALARS
                                        else _text(v, depth + 1, markers))
                 for k, v in value.items()]
        brackets = "{}"
    else:
        items = ["".join(encode(v, 0)) if type(v) in _SCALARS
                 else _text(v, depth + 1, markers) for v in value]
        brackets = "[]"
    del markers[id(value)]
    return (brackets[0] + newline + ("," + newline).join(items)
            + newline[:-2] + brackets[1])


def _key_text(key) -> str:
    """An object key as ``json.dumps`` writes it: a number, ``true``,
    ``false`` or ``null`` key becomes a string of its JSON text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + "".join(_flat_encoder(1)(key, 0)) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")
