"""Communication rooflines for single-node and distributed systems.

The model bounds attainable FLOPS by ``min(peak_flops, peak_band * COI)``
where COI (communication operation intensity) is total FLOPs per step
divided by CT, the total bytes of communication traffic per step across
all participants.  The peak compute rate forms the flat part of the
roof, the communication bandwidth the slanted part, and the ridge point
``peak_flops / peak_band`` separates communication-bound workloads
(below) from compute-bound ones (at or above).

Measured sub-peak ceilings (kernel rates per precision, alternate
fabrics) refine the roof.  Ceilings are always supplied, never
synthesized: measured kernel rates depend on input shapes and sparsity,
so there is no analytic formula for them.  Communication ceilings may
sit above the peak band: a single-node model slants on the accelerator
interconnect with the memory bandwidth as a ceiling above it, and a
distributed model slants on the inter-node fabric with the intra-node
interconnect as a ceiling above it.

All functions are pure over immutable models; points can be evaluated
concurrently without coordination.
"""

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from .core import (
    JsonCodec,
    PrecisionMode,
    RunRecord,
    SystemConfig,
    _coerce,
    _num,
    derive_peaks,
)
from .errors import (
    CeilingAbovePeak,
    DegenerateBand,
    IncompletePoint,
    InvalidTransform,
    NothingToPlot,
    SchemaError,
    UnknownCeiling,
)
from .metrics import throughput_flops
from .simulator import allreduce_traffic

__all__ = [
    "INFINITE_COI",
    "PEAK",
    "CeilingKind",
    "Ceiling",
    "RooflineMode",
    "RooflineModel",
    "RooflinePoint",
    "Boundedness",
    "BoundExceededWarning",
    "Fabric",
    "Compress",
    "PrecisionShift",
    "coi",
    "ridge_point",
    "attained_bound",
    "classify",
    "build_model",
    "place_run",
    "apply_whatif",
    "validate_point",
    "export_plot",
    "PlotArtifact",
]

#: Sentinel COI of a point with zero communication traffic; such a point
#: sits on the flat part of the roof.
INFINITE_COI = math.inf

#: Ceiling selector meaning "use the theoretical peak".
PEAK = "peak"

#: COI values in each exported series.
_SAMPLES = 256


class CeilingKind(str, Enum):
    COMPUTATION = "computation"      # FLOPS
    COMMUNICATION = "communication"  # bytes/s


@dataclass(frozen=True)
class Ceiling(JsonCodec):
    """A measured sub-peak bound layered under (or beside) the roof."""

    name: str
    kind: CeilingKind
    value: float

    def __post_init__(self):
        object.__setattr__(self, "kind", _coerce(CeilingKind, self.kind, "kind"))
        if not isinstance(self.name, str) or not self.name:
            raise SchemaError("ceiling name must be a non-empty string")
        if _num(self.value, f"ceiling {self.name!r} value") <= 0:
            raise SchemaError(f"ceiling {self.name!r} must be positive")


class RooflineMode(str, Enum):
    SINGLE_NODE = "single_node"
    DISTRIBUTED = "distributed"


class Boundedness(str, Enum):
    COMPUTE_BOUND = "compute_bound"
    COMMUNICATION_BOUND = "communication_bound"


class BoundExceededWarning(UserWarning):
    """A measured point sits above its roof beyond tolerance."""


@dataclass(frozen=True)
class RooflineModel:
    """Peak flat/slant bounds plus ordered measured ceilings.

    Computation ceilings must not exceed ``peak_flops``.  Communication
    ceilings are unconstrained relative to ``peak_band`` (a faster
    fabric drawn above the slant is legitimate).  Ceilings are kept
    sorted by kind and descending value.
    """

    mode: RooflineMode
    peak_flops: float
    peak_band: float
    ceilings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "mode", _coerce(RooflineMode, self.mode, "mode"))
        if _num(self.peak_flops, "peak_flops") <= 0:
            raise SchemaError("peak_flops must be positive")
        if _num(self.peak_band, "peak_band") <= 0:
            raise DegenerateBand("peak_band must be positive")
        seen = set()
        for c in self.ceilings:
            if c.name in seen:
                raise SchemaError(f"duplicate ceiling name {c.name!r}")
            seen.add(c.name)
            if c.kind is CeilingKind.COMPUTATION and c.value > self.peak_flops:
                raise CeilingAbovePeak(
                    f"computation ceiling {c.name!r} ({c.value:g}) exceeds "
                    f"peak_flops ({self.peak_flops:g})")
        ordered = tuple(sorted(self.ceilings,
                               key=lambda c: (c.kind.value, -c.value)))
        object.__setattr__(self, "ceilings", ordered)

    def ceiling(self, name: str) -> Ceiling:
        for c in self.ceilings:
            if c.name == name:
                return c
        raise UnknownCeiling(f"no ceiling named {name!r} in model")

    @property
    def ridge(self) -> float:
        return ridge_point(self.peak_flops, self.peak_band)


@dataclass(frozen=True)
class RooflinePoint:
    """A workload step placed on the roofline.

    ``flops_total`` and ``comm_traffic`` are per step, summed over all
    participants; ``coi`` is their quotient (infinite when there is no
    traffic).  ``attained`` is the measured sustained FLOPS, when known.
    """

    label: str
    flops_total: float
    comm_traffic: float
    coi: float
    attained: Optional[float] = None

    @classmethod
    def from_traffic(cls, label: str, flops_total: float, comm_traffic: float,
                     attained: Optional[float] = None) -> "RooflinePoint":
        if not isinstance(label, str):
            raise SchemaError(f"point label must be a string, got {label!r}")
        if attained is not None:
            _num(attained, "attained")
        return cls(label=label, flops_total=flops_total,
                   comm_traffic=comm_traffic,
                   coi=coi(flops_total, comm_traffic), attained=attained)


def coi(flops_total: float, comm_traffic: float) -> float:
    """Communication operation intensity: FLOPs over traffic bytes.

    Zero traffic yields :data:`INFINITE_COI` (the point renders on the
    flat roof) rather than an error.
    """
    if (_num(flops_total, "flops_total") < 0
            or _num(comm_traffic, "comm_traffic") < 0):
        raise SchemaError("flops and traffic must be non-negative")
    if comm_traffic == 0:
        return INFINITE_COI
    return flops_total / comm_traffic


def ridge_point(peak_flops: float, peak_band: float) -> float:
    """COI where the slant meets the flat roof.

    Points with ``coi >= ridge`` are compute-bound; below it they are
    communication-bound.
    """
    if peak_band <= 0:
        raise DegenerateBand("peak_band must be positive")
    return peak_flops / peak_band


def _select(model: RooflineModel, selector: Union[str, None],
            kind: CeilingKind, peak: float) -> float:
    if selector is None or selector == PEAK:
        return peak
    c = model.ceiling(selector)
    if c.kind is not kind:
        raise UnknownCeiling(
            f"ceiling {selector!r} is a {c.kind.value} ceiling, "
            f"not {kind.value}")
    return c.value


def attained_bound(model: RooflineModel, point_coi: float,
                   compute_ceiling: Union[str, None] = PEAK,
                   comm_ceiling: Union[str, None] = PEAK) -> float:
    """Attainable FLOPS at a COI: ``min(compute rate, bandwidth * COI)``.

    Ceiling names select measured sub-peak bounds; ``PEAK`` (or None)
    selects the theoretical peaks.  A COI of +inf returns the compute
    term (flat roof); a negative or NaN COI is a SchemaError.
    """
    flat = _select(model, compute_ceiling, CeilingKind.COMPUTATION,
                   model.peak_flops)
    band = _select(model, comm_ceiling, CeilingKind.COMMUNICATION,
                   model.peak_band)
    if not point_coi >= 0:
        raise SchemaError(f"coi must be non-negative, got {point_coi}")
    if math.isinf(point_coi):
        return flat
    return min(flat, band * point_coi)


def classify(model: RooflineModel, point: RooflinePoint) -> Boundedness:
    """Which side of the ridge a point falls on.

    A tie (COI exactly at the ridge) classifies compute-bound.  The
    verdict depends only on the COI, so it is invariant under scaling
    FLOPs and traffic by a common factor.
    """
    if point.coi < model.ridge:
        return Boundedness.COMMUNICATION_BOUND
    return Boundedness.COMPUTE_BOUND


def build_model(system: SystemConfig, mode: RooflineMode,
                measured_ceilings: Iterable[Ceiling] = (),
                precision: PrecisionMode = PrecisionMode.FP32) -> RooflineModel:
    """Build the roofline of a system at the given precision.

    Single-node mode slants on the intra-node accelerator interconnect
    with the single-node peak as the flat roof; distributed mode slants
    on the effective inter-node bandwidth with the full-system peak.
    Measured ceilings are attached verbatim.
    """
    mode = _coerce(RooflineMode, mode, "mode")
    single, distributed = derive_peaks(system, precision)
    if mode is RooflineMode.SINGLE_NODE:
        peak_flops, peak_band = single, system.node.intra_node_bandwidth
    else:
        peak_flops, peak_band = distributed, system.inter_node_bandwidth_effective
    return RooflineModel(mode=mode, peak_flops=peak_flops, peak_band=peak_band,
                         ceilings=tuple(measured_ceilings))


class Fabric(str, Enum):
    """Which interconnect a point's traffic is referred to.

    AUTO picks the fabric the step's gradient exchange crosses: the
    inter-node network once a run spans nodes, otherwise the intra-node
    interconnect.  Traffic on the inter-node fabric is modelled
    hierarchically, with each node reducing internally first and the
    node-level messages circulating between nodes, so CT counts the
    bytes that actually cross the slant's fabric.
    """

    AUTO = "auto"
    INTRA = "intra"
    INTER = "inter"


def place_run(run: RunRecord, fabric: Fabric = Fabric.AUTO) -> RooflinePoint:
    """Place a measured run on the roofline.

    Per-step FLOPs are the per-rank step compute of the run's workload
    times the rank count; traffic is the total allreduce volume of the
    gradient message over the referred fabric's participant group (see
    :class:`Fabric`).  The measured sustained FLOPS becomes the point's
    ``attained`` value when throughput was recorded.
    """
    wl = run.workload
    if wl.comp_per_step <= 0:
        raise IncompletePoint(
            f"workload {wl.name!r} declares no per-step compute")
    if wl.params_count <= 0 or wl.bytes_per_param <= 0:
        raise IncompletePoint(
            f"workload {wl.name!r} declares no gradient traffic")

    apn = run.system.node.accelerators_per_node
    nodes_used = math.ceil(run.scale / apn)
    fabric = _coerce(Fabric, fabric, "fabric")
    if fabric is Fabric.AUTO:
        fabric = Fabric.INTER if nodes_used > 1 else Fabric.INTRA
    participants = nodes_used if fabric is Fabric.INTER else run.scale

    traffic = allreduce_traffic(wl.gradient_bytes, participants).total
    flops_total = wl.comp_per_step * run.num_ranks
    attained = None
    if run.samples_per_second_per_rank > 0:
        attained = throughput_flops(run.samples_per_second_per_rank,
                                    run.num_ranks, wl.flops_per_sample)
    return RooflinePoint.from_traffic(
        label=f"{wl.name}@{run.scale}x{run.precision.value}",
        flops_total=flops_total, comm_traffic=traffic, attained=attained)


@dataclass(frozen=True)
class Compress:
    """Gradient compression by ``factor``: traffic shrinks, COI grows.

    Compressing the payload f-fold divides the bytes on the wire by f,
    which is equivalent to multiplying the fabric bandwidth by f; the
    compute per step is unchanged.
    """

    factor: float

    def __post_init__(self):
        if not _num(self.factor, "compression factor") > 1:
            raise InvalidTransform(
                f"compression factor must exceed 1, got {self.factor}")


@dataclass(frozen=True)
class PrecisionShift:
    """Move a point to another precision's roof with a larger batch.

    Lower-precision compute frees memory, which lets the batch grow by
    ``batch_scale``; per-step FLOPs scale with the batch while the
    gradient message (exchanged at full width) is unchanged, so COI
    scales by ``batch_scale``.
    """

    mode: PrecisionMode
    batch_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mode",
                           _coerce(PrecisionMode, self.mode, "mode"))
        if not _num(self.batch_scale, "batch scale") > 0:
            raise InvalidTransform(
                f"batch scale must be positive, got {self.batch_scale}")


def apply_whatif(point: RooflinePoint,
                 transform: Union[Compress, PrecisionShift]) -> RooflinePoint:
    """Apply a what-if transform, returning the transformed point."""
    if isinstance(transform, Compress):
        if math.isinf(point.coi):
            return replace(point, label=f"{point.label}+compress")
        return replace(point,
                       label=f"{point.label}+compress",
                       comm_traffic=point.comm_traffic / transform.factor,
                       coi=point.coi * transform.factor)
    if isinstance(transform, PrecisionShift):
        new_coi = point.coi if math.isinf(point.coi) else point.coi * transform.batch_scale
        return replace(point,
                       label=f"{point.label}->{transform.mode.value}",
                       flops_total=point.flops_total * transform.batch_scale,
                       coi=new_coi,
                       attained=None)
    raise InvalidTransform(f"unknown transform {transform!r}")


def validate_point(model: RooflineModel, point: RooflinePoint,
                   tolerance: float = 0.05) -> bool:
    """Check a measured point against the peak roof.

    Returns True when the attained value respects the bound within
    ``tolerance`` (or no attained value is present).  A violation emits
    a :class:`BoundExceededWarning` rather than failing silently or
    rejecting the point.
    """
    if point.attained is None:
        return True
    bound = attained_bound(model, point.coi)
    if point.attained <= bound * (1.0 + tolerance):
        return True
    warnings.warn(
        f"point {point.label!r} attains {point.attained:g} FLOPS, above its "
        f"roof bound {bound:g} by more than {tolerance:.0%}",
        BoundExceededWarning, stacklevel=2)
    return False


@dataclass(frozen=True)
class PlotArtifact:
    """Rendered roofline chart: a CSV series and a standalone SVG."""

    csv: str
    svg: str


def _coi_grid(model: RooflineModel) -> list[float]:
    # Span [1, 10 * ridge] so the kink is always inside the frame, in
    # equal steps of the exponent; the last point is exactly the top.
    top = math.log10(max(10.0 * model.ridge, 10.0))
    step = top / (_SAMPLES - 1)
    return [10.0 ** (i * step) for i in range(_SAMPLES - 1)] + [10.0 ** top]


def export_plot(model: Optional[RooflineModel],
                points: Sequence[RooflinePoint] = ()) -> PlotArtifact:
    """Render a model and its points as a CSV series plus an SVG chart.

    The CSV holds ``_SAMPLES`` log-spaced COI values with the peak-roof
    bound and one column per ceiling (each ceiling paired with the
    opposite peak).  The SVG is a self-contained log-log chart, no
    scripts or external fonts, viewBox 960x540.
    """
    if model is None:
        raise NothingToPlot("no model to plot")

    grid = _coi_grid(model)
    columns = {"bound_flops": [attained_bound(model, x) for x in grid]}
    for c in model.ceilings:
        if c.kind is CeilingKind.COMPUTATION:
            series = [attained_bound(model, x, compute_ceiling=c.name)
                      for x in grid]
        else:
            series = [attained_bound(model, x, comm_ceiling=c.name)
                      for x in grid]
        columns[f"ceiling_{c.name}"] = series

    header = ["coi"] + list(columns)
    rows = [",".join(header)]
    for i, x in enumerate(grid):
        rows.append(",".join([f"{x:.9g}"] + [f"{columns[k][i]:.9g}"
                                             for k in columns]))
    csv_text = "\n".join(rows) + "\n"

    svg_text = _render_svg(model, points, grid, columns)
    return PlotArtifact(csv=csv_text, svg=svg_text)


# -- SVG rendering --------------------------------------------------------

_VIEW_W, _VIEW_H = 960, 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 40, 40, 60
_SERIES_COLORS = ["#888888", "#c0392b", "#2980b9", "#27ae60", "#8e44ad",
                  "#d35400", "#16a085", "#7f8c8d"]
# Escapes labels and ceiling names as ``xml.sax.saxutils.escape`` does;
# importing saxutils loads urllib.request and ssl (about 6 MiB).
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _render_svg(model, points, grid, columns) -> str:
    finite_points = [p for p in points if not math.isinf(p.coi)]
    xs = [grid[0], grid[-1]]
    ys = [v for series in columns.values() for v in series]
    for p in finite_points:
        xs.append(p.coi)
    for p in points:
        if p.attained:
            ys.append(p.attained)
    x_lo, x_hi = min(xs), max(xs) * 1.2
    y_hi = max(ys) * 2.0
    y_lo = min(v for v in ys if v > 0) / 2.0

    lx_lo, lx_hi = math.log10(x_lo), math.log10(x_hi)
    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)
    plot_w = _VIEW_W - _MARGIN_L - _MARGIN_R
    plot_h = _VIEW_H - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (math.log10(x) - lx_lo) / (lx_hi - lx_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (ly_hi - math.log10(y)) / (ly_hi - ly_lo) * plot_h

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" '
               f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">')
    out.append(f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" '
               'fill="white"/>')
    title = f"{model.mode.value} roofline"
    out.append(f'<text x="{_VIEW_W / 2:.0f}" y="24" font-family="sans-serif" '
               f'font-size="16" text-anchor="middle">{title}</text>')

    # decade grid lines and labels
    for d in range(math.ceil(lx_lo), math.floor(lx_hi) + 1):
        x = sx(10.0 ** d)
        out.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" '
                   f'y2="{_VIEW_H - _MARGIN_B}" stroke="#eeeeee"/>')
        out.append(f'<text x="{x:.1f}" y="{_VIEW_H - _MARGIN_B + 18}" '
                   'font-family="sans-serif" font-size="11" '
                   f'text-anchor="middle">1e{d}</text>')
    for d in range(math.ceil(ly_lo), math.floor(ly_hi) + 1):
        y = sy(10.0 ** d)
        out.append(f'<line x1="{_MARGIN_L}" y1="{y:.1f}" '
                   f'x2="{_VIEW_W - _MARGIN_R}" y2="{y:.1f}" stroke="#eeeeee"/>')
        out.append(f'<text x="{_MARGIN_L - 6}" y="{y + 4:.1f}" '
                   'font-family="sans-serif" font-size="11" '
                   f'text-anchor="end">1e{d}</text>')

    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#333333"/>')
    out.append(f'<text x="{_VIEW_W / 2:.0f}" y="{_VIEW_H - 16}" '
               'font-family="sans-serif" font-size="13" text-anchor="middle">'
               'communication operation intensity (FLOPs/byte)</text>')
    out.append(f'<text x="20" y="{_VIEW_H / 2:.0f}" font-family="sans-serif" '
               f'font-size="13" text-anchor="middle" '
               f'transform="rotate(-90 20 {_VIEW_H / 2:.0f})">'
               'attainable FLOPS</text>')

    # roof first (thick), then ceilings
    for idx, (name, series) in enumerate(columns.items()):
        pts = " ".join(f"{sx(x):.1f},{sy(max(v, y_lo)):.1f}"
                       for x, v in zip(grid, series))
        color = "#111111" if idx == 0 else _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        width = 2.5 if idx == 0 else 1.2
        dash = "" if idx == 0 else ' stroke-dasharray="6,4"'
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="{width}"{dash}/>')
        label_y = sy(max(series[-1], y_lo))
        out.append(f'<text x="{_VIEW_W - _MARGIN_R - 4}" y="{label_y - 4:.1f}" '
                   'font-family="sans-serif" font-size="10" '
                   f'text-anchor="end" fill="{color}">'
                   f'{name.translate(_XML_TEXT)}</text>')

    # ridge marker
    ridge = model.ridge
    if x_lo <= ridge <= x_hi:
        x = sx(ridge)
        out.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" '
                   f'y2="{_VIEW_H - _MARGIN_B}" stroke="#999999" '
                   'stroke-dasharray="2,3"/>')
        out.append(f'<text x="{x + 4:.1f}" y="{_MARGIN_T + 14}" '
                   'font-family="sans-serif" font-size="11" fill="#555555">'
                   f'ridge {ridge:.4g}</text>')

    # measured points
    for i, p in enumerate(points):
        px = sx(min(max(p.coi, x_lo), x_hi)) if not math.isinf(p.coi) \
            else _VIEW_W - _MARGIN_R
        py = sy(min(max(p.attained, y_lo), y_hi)) if p.attained else \
            sy(attained_bound(model, p.coi))
        color = _SERIES_COLORS[(i + 1) % len(_SERIES_COLORS)]
        out.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="5" fill="{color}" '
                   'stroke="#333333"/>')
        out.append(f'<text x="{px + 8:.1f}" y="{py - 6:.1f}" '
                   'font-family="sans-serif" font-size="11" '
                   'fill="#333333">'
                   f'{str(p.label).translate(_XML_TEXT)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
