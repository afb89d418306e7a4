import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from hpcbench.core import BenchLevel, PrecisionMode, RunRecord
from hpcbench.errors import (
    CeilingAbovePeak,
    IncompletePoint,
    InvalidTransform,
    NothingToPlot,
    SchemaError,
    UnknownCeiling,
)
from hpcbench.presets import (
    case_study_system,
    distributed_ceilings,
    ewa_workload,
    image_classification_workload,
    reference_declaration,
    single_node_ceilings,
)
from hpcbench.roofline import (
    INFINITE_COI,
    Boundedness,
    BoundExceededWarning,
    Ceiling,
    CeilingKind,
    Compress,
    Fabric,
    PrecisionShift,
    RooflineMode,
    RooflineModel,
    RooflinePoint,
    _coi_grid,
    apply_whatif,
    attained_bound,
    build_model,
    classify,
    coi,
    export_plot,
    place_run,
    ridge_point,
    validate_point,
)
from hpcbench.units import GIGA, TERA


def ring_traffic_oracle(message_bytes, participants):
    """Total allreduce bytes by explicit phase enumeration: a ring
    reduce-scatter then allgather, each phase moving one chunk per
    participant."""
    p = participants
    if p == 1:
        return 0.0
    chunk = message_bytes / p
    total = 0.0
    for _phase in range(2 * (p - 1)):
        total += chunk * p
    return total


def single_node_model(ceilings=()):
    return RooflineModel(mode=RooflineMode.SINGLE_NODE, peak_flops=120 * TERA,
                         peak_band=300 * GIGA, ceilings=tuple(ceilings))


def mixed_case_study_model():
    return build_model(case_study_system(), RooflineMode.SINGLE_NODE,
                       single_node_ceilings(), precision=PrecisionMode.MIXED)


class TestCoi:
    def test_quotient(self):
        assert coi(1.2e14, 3e11) == 400.0

    def test_unit(self):
        assert coi(7.0, 7.0) == 1.0

    def test_zero_traffic_is_infinite(self):
        assert coi(1e12, 0.0) is INFINITE_COI

    def test_ewa_ring_large_scale(self):
        # Per-step FLOPs p*691e9 against the full-ring traffic
        # 2(p-1)*164e6 bytes approaches ~2107 FLOPs/byte for large p.
        p = 4096
        message = 41e6 * 4
        traffic = ring_traffic_oracle(message, p)
        got = coi(p * 691 * GIGA, traffic)
        assert got == pytest.approx(2107, rel=1e-3)
        assert traffic == pytest.approx(2 * (p - 1) * message, rel=1e-12)


class TestNumericInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, "1e12", True])
    def test_ceiling_value(self, value):
        with pytest.raises(SchemaError, match="value"):
            Ceiling("c", CeilingKind.COMPUTATION, value)

    @pytest.mark.parametrize("field", ["peak_flops", "peak_band"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "1e12"])
    def test_model_peaks(self, field, value):
        kwargs = {"peak_flops": 1e15, "peak_band": 1e9, field: value}
        with pytest.raises(SchemaError, match=field):
            RooflineModel(mode=RooflineMode.DISTRIBUTED, **kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"flops_total": "1e9"}, "flops_total"),
        ({"comm_traffic": math.nan}, "comm_traffic"),
        ({"attained": "fast"}, "attained"),
        ({"attained": math.nan}, "attained"),
        ({"label": 5}, "label"),
    ])
    def test_point_inputs(self, kwargs, name):
        point = {"label": "p", "flops_total": 1e9, "comm_traffic": 1e6,
                 **kwargs}
        with pytest.raises(SchemaError, match=name):
            RooflinePoint.from_traffic(**point)


class TestPointDerivesItsCoi:
    """A point computes its COI and checks its inputs however it is
    built: directly, through ``from_traffic`` or by ``replace``."""

    @pytest.mark.parametrize("kwargs", [
        {"flops_total": math.nan},
        {"comm_traffic": -1.0},
        {"label": 5},
        {"attained": math.inf},
    ])
    def test_direct_construction_refuses_as_from_traffic(self, kwargs):
        point = {"label": "p", "flops_total": 1e9, "comm_traffic": 1e6,
                 **kwargs}
        with pytest.raises(SchemaError) as named:
            RooflinePoint.from_traffic(**point)
        with pytest.raises(SchemaError) as direct:
            RooflinePoint(**point)
        assert str(direct.value) == str(named.value)

    @pytest.mark.parametrize("traffic", [3.0, 7e8, 0.0])
    def test_replace_recomputes_coi(self, traffic):
        point = RooflinePoint.from_traffic("p", 1e12, 1e9, attained=1e11)
        moved = replace(point, comm_traffic=traffic)
        assert moved.coi == coi(point.flops_total, traffic)
        if traffic:
            assert moved.coi == point.flops_total / traffic

    def test_coi_is_not_an_argument(self):
        with pytest.raises(TypeError):
            RooflinePoint("p", 1.0, 1.0, -5.0)
        with pytest.raises(TypeError):
            RooflinePoint("p", 1.0, 1.0, coi=-5.0)
        assert RooflinePoint("p", 1.0, 4.0, attained=2.0).coi == 0.25


class TestRidgePoint:
    def test_single_node_case(self):
        assert ridge_point(120 * TERA, 300 * GIGA) == pytest.approx(
            400.0, rel=1e-9)

    def test_distributed_case(self):
        assert ridge_point(8320 * TERA, 1.2 * GIGA) == pytest.approx(
            8320e12 / 1.2e9, rel=1e-9)

    def test_unit(self):
        assert ridge_point(5e9, 5e9) == 1.0


class TestAttainedBound:
    def test_at_ridge_both_terms_equal(self):
        model = single_node_model()
        assert attained_bound(model, 400.0) == 120 * TERA

    def test_slant_branch(self):
        model = single_node_model()
        assert attained_bound(model, 100.0) == pytest.approx(30 * TERA)

    def test_infinite_coi_hits_flat_roof(self):
        model = single_node_model()
        assert attained_bound(model, INFINITE_COI) == 120 * TERA

    def test_named_ceilings(self):
        model = mixed_case_study_model()
        assert attained_bound(model, 1e9, compute_ceiling="gemm_fp32") == \
            115 * TERA
        assert attained_bound(model, 10.0, comm_ceiling="memory_bandwidth") \
            == pytest.approx(1134 * GIGA * 10)

    def test_unknown_ceiling(self):
        model = single_node_model()
        with pytest.raises(UnknownCeiling):
            attained_bound(model, 10.0, compute_ceiling="nope")

    def test_kind_mismatch(self):
        model = mixed_case_study_model()
        with pytest.raises(UnknownCeiling):
            attained_bound(model, 10.0, compute_ceiling="memory_bandwidth")

    @given(st.floats(1e9, 1e16), st.floats(1e6, 1e12),
           st.floats(0.001, 1e9))
    def test_is_min_of_flat_and_slant(self, peak, band, x):
        model = RooflineModel(mode=RooflineMode.DISTRIBUTED, peak_flops=peak,
                              peak_band=band)
        assert attained_bound(model, x) == min(peak, band * x)

    @given(st.floats(1e9, 1e15), st.floats(1e6, 1e11),
           st.lists(st.floats(0.01, 1e8), min_size=2, max_size=6))
    def test_monotone_in_coi(self, peak, band, xs):
        model = RooflineModel(mode=RooflineMode.DISTRIBUTED, peak_flops=peak,
                              peak_band=band)
        xs = sorted(xs)
        bounds = [attained_bound(model, x) for x in xs]
        assert all(b1 <= b2 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))

    def test_ceiling_bound_never_above_peak_bound(self):
        model = mixed_case_study_model()
        for x in (1.0, 50.0, 400.0, 1e4, 1e7):
            peak_bound = attained_bound(model, x)
            assert attained_bound(model, x, compute_ceiling="conv_fp32") \
                <= peak_bound + 1e-9


class TestClassify:
    def test_tie_is_compute_bound(self):
        model = single_node_model()
        point = RooflinePoint.from_traffic("p", 400.0 * 300 * GIGA, 300 * GIGA)
        assert point.coi == 400.0
        assert classify(model, point) is Boundedness.COMPUTE_BOUND

    def test_scale_invariance(self):
        model = single_node_model()
        base = RooflinePoint.from_traffic("p", 3.3e12, 2.5e9)
        for factor in (0.5, 2.0, 4.0, 64.0):
            scaled = RooflinePoint.from_traffic(
                "p", base.flops_total * factor, base.comm_traffic * factor)
            assert classify(model, scaled) is classify(model, base)


class TestBuildModel:
    def test_single_node_case_study(self):
        model = build_model(case_study_system(), RooflineMode.SINGLE_NODE,
                            single_node_ceilings(),
                            precision=PrecisionMode.MIXED)
        assert model.peak_flops == 1040 * TERA
        assert model.peak_band == 300 * GIGA
        assert model.ceiling("gemm_mixed").value == 636 * TERA
        assert model.ceiling("conv_mixed").value == 176 * TERA
        assert model.ceiling("gemm_fp32").value == 115 * TERA
        assert model.ceiling("conv_fp32").value == 112 * TERA
        assert model.ceiling("memory_bandwidth").value == 1134 * GIGA

    def test_distributed_case_study(self):
        model = build_model(case_study_system(), RooflineMode.DISTRIBUTED,
                            distributed_ceilings(),
                            precision=PrecisionMode.MIXED)
        assert model.peak_flops == 8320 * TERA
        assert model.peak_band == 1.2 * GIGA
        assert model.ceiling("gemm_mixed").value == 5091 * TERA
        # the intra-node fabric ceiling legitimately exceeds the slant
        assert model.ceiling("intra_node_interconnect").value > model.peak_band

    def test_single_accelerator_modes_coincide(self):
        system = case_study_system(num_nodes=1)
        single = build_model(system, RooflineMode.SINGLE_NODE)
        distributed = build_model(system, RooflineMode.DISTRIBUTED)
        assert single.peak_flops == distributed.peak_flops

    def test_computation_ceiling_above_peak_rejected(self):
        with pytest.raises(CeilingAbovePeak):
            build_model(case_study_system(), RooflineMode.SINGLE_NODE,
                        (Ceiling("too_high", CeilingKind.COMPUTATION,
                                 200 * TERA),))


def make_run(workload, scale, sps_per_rank, precision=PrecisionMode.FP32,
             quality=None):
    system = case_study_system()
    return RunRecord(
        run_id=f"run-{workload.name}-{scale}",
        workload=workload, system=system, scale=scale, precision=precision,
        global_batchsize=scale * 128 if workload.name.startswith("image")
        else scale,
        achieved_quality=quality if quality is not None
        else workload.target_quality.value,
        wall_time=1000.0, epochs_to_quality=workload.epochs,
        samples_per_second_per_rank=sps_per_rank, num_ranks=scale,
        level=BenchLevel.HARDWARE,
        declaration=reference_declaration(workload))


class TestPlaceRun:
    def test_ewa_16gpu_point_on_slant(self):
        # Two nodes exchange one 164 MB gradient message over the
        # inter-node fabric: CT = 2 * (2-1) * 164e6 bytes against
        # 16 * 691 GFLOPs of step work.
        workload = ewa_workload()
        run = make_run(workload, 16, sps_per_rank=25.99e12 / 16 / 691e9)
        point = place_run(run)
        assert point.comm_traffic == pytest.approx(2 * 164e6)
        assert point.coi == pytest.approx(16 * 691e9 / (2 * 164e6))
        model = build_model(case_study_system(num_nodes=2),
                            RooflineMode.DISTRIBUTED)
        assert classify(model, point) is Boundedness.COMMUNICATION_BOUND
        assert point.attained == pytest.approx(25.99e12, rel=1e-9)
        assert point.attained <= attained_bound(model, point.coi)

    def test_single_rank_at_flat_roof(self):
        workload = ewa_workload()
        run = make_run(workload, 1, sps_per_rank=20.0)
        point = place_run(run)
        assert point.comm_traffic == 0.0
        assert point.coi is INFINITE_COI

    def test_intra_fabric_referral(self):
        # Referred to the intra-node interconnect, the 16-GPU group is a
        # flat ring of 16 and CT grows accordingly.
        workload = image_classification_workload()
        run = make_run(workload, 16, sps_per_rank=300.0)
        point = place_run(run, fabric=Fabric.INTRA)
        assert point.comm_traffic == pytest.approx(2 * 15 * 1e8)
        assert point.coi == pytest.approx(16 * 2944e9 / 3e9)

    def test_incomplete_point(self):
        workload = replace(ewa_workload(), params_count=0)
        run = make_run(workload, 8, sps_per_rank=5.0)
        with pytest.raises(IncompletePoint):
            place_run(run)

    def test_ic_64gpu_measured_point_warns_not_rejected(self, ic):
        # a well-overlapped 64-GPU run can sustain more than the
        # first-order slant predicts; the point keeps its class but the
        # bound check flags it instead of silently accepting
        run = make_run(ic, 64, sps_per_rank=345e12 / (64 * 23e9))
        point = place_run(run)
        model = build_model(case_study_system(), RooflineMode.DISTRIBUTED)
        assert classify(model, point) is Boundedness.COMMUNICATION_BOUND
        with pytest.warns(BoundExceededWarning):
            assert not validate_point(model, point)


class TestWhatIf:
    def test_compress_doubles_coi_exactly(self):
        point = RooflinePoint.from_traffic("p", 691e9 * 16, 2 * 164e6)
        compressed = apply_whatif(point, Compress(2))
        assert compressed.coi == point.coi * 2
        assert compressed.comm_traffic == point.comm_traffic / 2
        assert compressed.flops_total == point.flops_total

    def test_compress_raises_bound_when_communication_bound(self):
        model = build_model(case_study_system(num_nodes=2),
                            RooflineMode.DISTRIBUTED)
        point = RooflinePoint.from_traffic("ewa", 16 * 691e9, 2 * 164e6)
        assert classify(model, point) is Boundedness.COMMUNICATION_BOUND
        before = attained_bound(model, point.coi)
        after = attained_bound(model, apply_whatif(point, Compress(2)).coi)
        assert after == pytest.approx(2 * before)

    def test_compress_leaves_compute_bound_bound_unchanged(self):
        model = build_model(case_study_system(num_nodes=2),
                            RooflineMode.DISTRIBUTED)
        point = RooflinePoint.from_traffic("ic", 16 * 2944e9, 2 * 1e8)
        assert classify(model, point) is Boundedness.COMPUTE_BOUND
        before = attained_bound(model, point.coi)
        after = attained_bound(model, apply_whatif(point, Compress(2)).coi)
        assert after == before == model.peak_flops

    def test_precision_shift_scales_coi_by_batch(self):
        point = RooflinePoint.from_traffic("p", 1e12, 1e9)
        shifted = apply_whatif(point, PrecisionShift(PrecisionMode.MIXED, 2))
        assert shifted.coi == pytest.approx(point.coi * 2)
        assert shifted.flops_total == pytest.approx(point.flops_total * 2)
        assert shifted.comm_traffic == point.comm_traffic

    def test_invalid_factor(self):
        point = RooflinePoint.from_traffic("p", 1e12, 1e9)
        with pytest.raises(InvalidTransform):
            apply_whatif(point, Compress(1.0))


class TestValidatePoint:
    def test_within_bound_passes_silently(self):
        model = single_node_model()
        point = RooflinePoint.from_traffic("ok", 1e12, 1e10, attained=1e12)
        assert validate_point(model, point)

    def test_violation_warns(self):
        model = single_node_model()
        point = RooflinePoint.from_traffic("hot", 1e12, 1e10,
                                           attained=200 * TERA)
        with pytest.warns(BoundExceededWarning):
            assert not validate_point(model, point)

    def test_tolerance_respected(self):
        model = single_node_model()
        bound = attained_bound(model, 1e9)
        point = RooflinePoint.from_traffic("close", 1e12, 1e3,
                                           attained=bound * 1.04)
        assert validate_point(model, point, tolerance=0.05)

    def test_point_without_attained_passes_silently(self, recwarn):
        point = RooflinePoint.from_traffic("unmeasured", 1e12, 1e10)
        assert validate_point(single_node_model(), point, tolerance=0.0)
        assert len(recwarn) == 0


class TestExportPlot:
    def test_csv_kinks_at_ridge(self):
        model = single_node_model()
        artifact = export_plot(model)
        lines = artifact.csv.strip().splitlines()
        assert lines[0] == "coi,bound_flops"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 256
        for x, bound in rows:
            expected = min(120 * TERA, 300 * GIGA * x)
            assert bound == pytest.approx(expected, rel=1e-6)
        # grid spans [1, 10*ridge] so the kink is visible
        assert rows[0][0] == pytest.approx(1.0)
        assert rows[-1][0] == pytest.approx(4000.0, rel=1e-6)
        assert any(x < 400 for x, _ in rows) and any(x > 400 for x, _ in rows)

    def test_ceiling_columns(self):
        model = mixed_case_study_model()
        artifact = export_plot(model)
        header = artifact.csv.splitlines()[0].split(",")
        assert header[:2] == ["coi", "bound_flops"]
        assert "ceiling_gemm_fp32" in header
        assert "ceiling_memory_bandwidth" in header

    def test_ceiling_equal_to_peak_coincides_with_roof(self):
        model = single_node_model(
            (Ceiling("at_peak", CeilingKind.COMPUTATION, 120 * TERA),))
        artifact = export_plot(model)
        lines = artifact.csv.strip().splitlines()
        for line in lines[1:]:
            _, roof, ceil = map(float, line.split(","))
            assert ceil == pytest.approx(roof, rel=1e-9)

    def test_series_match_the_scalar_bound(self):
        model = mixed_case_study_model()
        kinds = {c.kind for c in model.ceilings}
        assert kinds == {CeilingKind.COMPUTATION, CeilingKind.COMMUNICATION}
        lines = export_plot(model).csv.splitlines()
        header = lines[0].split(",")
        selectors = {"bound_flops": {}}
        for c in model.ceilings:
            key = ("compute_ceiling" if c.kind is CeilingKind.COMPUTATION
                   else "comm_ceiling")
            selectors[f"ceiling_{c.name}"] = {key: c.name}
        assert header == ["coi", *selectors]
        grid = _coi_grid(model)
        assert len(lines) == len(grid) + 1
        for x, line in zip(grid, lines[1:]):
            assert line.split(",") == [f"{x:.9g}", *(
                f"{attained_bound(model, x, **kw):.9g}"
                for kw in selectors.values())]

    def test_svg_is_self_contained(self):
        model = build_model(case_study_system(num_nodes=2),
                            RooflineMode.DISTRIBUTED)
        ewa_point = RooflinePoint.from_traffic("ewa", 16 * 691e9, 2 * 164e6,
                                               attained=25.99e12)
        ic_point = RooflinePoint.from_traffic("ic", 16 * 2944e9, 2 * 1e8)
        artifact = export_plot(model, [ewa_point, ic_point])
        svg = artifact.svg
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 960 540"' in svg
        assert "<script" not in svg
        assert "@font-face" not in svg
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
        assert svg.count("<circle") == 2
        assert "ewa" in svg and "ic" in svg

    def test_svg_text_is_escaped(self):
        import xml.etree.ElementTree as ET
        model = single_node_model(
            (Ceiling("a&b", CeilingKind.COMPUTATION, 100 * TERA),))
        point = RooflinePoint.from_traffic("resnet<v2>&co", 1e12, 1e9)
        svg = export_plot(model, [point]).svg
        texts = [t.text for t in ET.fromstring(svg).iter(
            "{http://www.w3.org/2000/svg}text")]
        assert "resnet<v2>&co" in texts and "ceiling_a&b" in texts
        assert ">resnet&lt;v2&gt;&amp;co</text>" in svg

    def test_point_topology_straddles_ridge(self):
        # 16-GPU chart: the detection point renders left of the ridge
        # marker (slant), the classification point right of it (flat)
        import re
        model = build_model(case_study_system(num_nodes=2),
                            RooflineMode.DISTRIBUTED)
        ewa_point = RooflinePoint.from_traffic("ewa", 16 * 691e9, 2 * 164e6,
                                               attained=25.99e12)
        ic_point = RooflinePoint.from_traffic("ic", 16 * 2944e9, 2 * 1e8)
        svg = export_plot(model, [ewa_point, ic_point]).svg
        ridge_line = re.search(
            r'<line x1="([\d.]+)".*?stroke-dasharray="2,3"', svg)
        circles = re.findall(r'<circle cx="([\d.]+)"', svg)
        assert ridge_line and len(circles) == 2
        ridge_x = float(ridge_line.group(1))
        ewa_x, ic_x = map(float, circles)
        assert ewa_x < ridge_x < ic_x

    def test_infinite_coi_point_sits_at_the_right_edge(self):
        import re
        model = single_node_model()
        point = RooflinePoint.from_traffic("local", 1e12, 0.0)
        assert point.coi == INFINITE_COI
        svg = export_plot(model, [point]).svg
        assert re.findall(r'<circle cx="([\d.]+)"', svg) == ["920.0"]
        assert '<text x="928.0"' in svg

    def test_nothing_to_plot(self):
        with pytest.raises(NothingToPlot):
            export_plot(None)

    # SHA-256 of the CSV and SVG of each preset case-study model at mixed
    # precision with its measured ceilings, over three points: one
    # measured, one unmeasured (drawn on its roof) and one with zero
    # traffic (infinite COI, drawn at the right edge).
    GOLDEN = {
        RooflineMode.SINGLE_NODE: (
            single_node_ceilings,
            "fe6d1dfc7f9c754a25ed339436141c7927f8a9ff2c7c177f81b9cbee48e38a13",
            "731002c0802f24d986b98f260b0117b25def8f7a6b9ec36655ebc9001f2cd1c8"),
        RooflineMode.DISTRIBUTED: (
            distributed_ceilings,
            "6657cd867006d338f92f9e6ce02dcb2049aba24bc45d25375c2d6eafb24450fc",
            "feb7038c258870f9eb4d867255227f8bf1fe6a4da05a9c4fe37356024ee41180"),
    }

    @pytest.mark.parametrize("mode", list(GOLDEN))
    def test_golden_bytes(self, mode):
        import hashlib
        ceilings, csv_sha, svg_sha = self.GOLDEN[mode]
        model = build_model(case_study_system(), mode, ceilings(),
                            precision=PrecisionMode.MIXED)
        points = [
            RooflinePoint.from_traffic("ewa", 16 * 691e9, 2 * 164e6,
                                       attained=25.99e12),
            RooflinePoint.from_traffic("ic", 16 * 2944e9, 2 * 1e8),
            RooflinePoint.from_traffic("local", 1e12, 0.0, attained=5e12)]
        assert points[1].attained is None and points[2].coi == INFINITE_COI
        artifact = export_plot(model, points)
        assert artifact.svg.count("<circle") == 3
        assert hashlib.sha256(artifact.csv.encode()).hexdigest() == csv_sha
        assert hashlib.sha256(artifact.svg.encode()).hexdigest() == svg_sha

    @given(st.data())
    def test_every_cell_is_the_scalar_bound(self, data):
        peak = data.draw(st.floats(1e3, 1e18), "peak_flops")
        band = data.draw(st.floats(1e3, 1e15), "peak_band")
        kinds = data.draw(st.lists(st.sampled_from(list(CeilingKind)),
                                   max_size=5), "ceiling kinds")
        ceilings = []
        for i, kind in enumerate(kinds):
            value = (data.draw(st.floats(1e-6, 1.0)) * peak
                     if kind is CeilingKind.COMPUTATION
                     else data.draw(st.floats(1e3, 1e15)))
            ceilings.append(Ceiling(f"c{i}", kind, value))
        model = RooflineModel(mode=RooflineMode.DISTRIBUTED, peak_flops=peak,
                              peak_band=band, ceilings=tuple(ceilings))
        selectors = [{}] + [
            {"compute_ceiling" if c.kind is CeilingKind.COMPUTATION
             else "comm_ceiling": c.name} for c in model.ceilings]
        lines = export_plot(model).csv.splitlines()
        assert lines[0].split(",") == ["coi", "bound_flops", *(
            f"ceiling_{c.name}" for c in model.ceilings)]
        grid = _coi_grid(model)
        assert len(lines) == len(grid) + 1
        for x, line in zip(grid, lines[1:]):
            assert line.split(",") == [format(x, ".9g"), *(
                format(attained_bound(model, x, **kw), ".9g")
                for kw in selectors)]


class TestCaseStudyClassification:
    """The published 16-GPU bottleneck split and the 32->64 GPU shift."""

    def test_16_gpu_split(self, ewa, ic):
        model = build_model(case_study_system(num_nodes=2),
                            RooflineMode.DISTRIBUTED)
        ewa_run = make_run(ewa, 16, sps_per_rank=2.35)
        ic_run = make_run(ic, 16, sps_per_rank=300.0)
        assert classify(model, place_run(ewa_run)) is \
            Boundedness.COMMUNICATION_BOUND
        assert classify(model, place_run(ic_run)) is \
            Boundedness.COMPUTE_BOUND

    def test_bound_shift_between_32_and_64(self, ic):
        # At 32 GPUs the dominant fabric is still the intra-node
        # interconnect: referred there, the workload sits on the flat
        # roof.  At 64 GPUs the inter-node network dominates and the
        # same workload falls onto the slant.
        run32 = make_run(ic, 32, sps_per_rank=250.0)
        model32 = RooflineModel(mode=RooflineMode.DISTRIBUTED,
                                peak_flops=32 * 15 * TERA,
                                peak_band=300 * GIGA)
        point32 = place_run(run32, fabric=Fabric.INTRA)
        assert classify(model32, point32) is Boundedness.COMPUTE_BOUND

        run64 = make_run(ic, 64, sps_per_rank=230.0)
        model64 = build_model(case_study_system(), RooflineMode.DISTRIBUTED)
        assert model64.peak_flops == 960 * TERA
        point64 = place_run(run64)  # inter-node fabric by default
        assert classify(model64, point64) is Boundedness.COMMUNICATION_BOUND
