import math
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from hpcbench.core import BenchLevel, NineLayerDeclaration, PrecisionMode, RunRecord
from hpcbench.errors import (
    IncomparableWorkloads,
    InsufficientRuns,
    InvalidSchedule,
    NotARepetition,
    NotReplicable,
)
from hpcbench.presets import (
    case_study_system,
    ewa_workload,
    image_classification_workload,
    reference_declaration,
)
from hpcbench.rules import (
    Decay,
    LayerVerdict,
    Severity,
    aggregate_runs,
    check_equivalence,
    lr_schedule,
    repeatability_report,
    replicability_check,
    validate_declaration,
)


def mutate(declaration, layer, **changes):
    layers = [dict(l) for l in declaration.layers]
    layers[layer - 1].update(changes)
    return NineLayerDeclaration(layers=tuple(layers))


def make_run(declaration, level=BenchLevel.HARDWARE, workload=None,
             epochs=50.0, run_id="r1", wall_time=1000.0, power=None,
             quality=None, sps=5.75, scale=8, batch=8):
    workload = workload or ewa_workload()
    return RunRecord(
        run_id=run_id, workload=workload, system=case_study_system(),
        scale=scale, precision=PrecisionMode.FP32, global_batchsize=batch,
        achieved_quality=workload.target_quality.value if quality is None
        else quality,
        wall_time=wall_time, epochs_to_quality=epochs,
        samples_per_second_per_rank=sps, num_ranks=scale, level=level,
        declaration=declaration, average_power=power)


@pytest.fixture
def reference(ewa):
    return reference_declaration(ewa)


class TestValidateDeclaration:
    def test_self_validation_is_clean_at_every_level(self, reference):
        for level in BenchLevel:
            run = make_run(reference, level=level)
            assert validate_declaration(run, reference) == []

    def test_allowed_changes_at_hardware_level(self, reference):
        # new accelerator library version (layer 4) and a bigger batch
        # (layer 8) are both inside the hardware-level allowance
        decl = mutate(reference, 4, kernel_library="cudnn-8.9")
        decl = mutate(decl, 8, batchsize=2048)
        run = make_run(decl, level=BenchLevel.HARDWARE)
        assert validate_declaration(run, reference) == []

    def test_weight_decay_change_is_error_at_layer_8(self, reference):
        decl = mutate(reference, 8, weight_decay="skip-on-normalization")
        run = make_run(decl, level=BenchLevel.HARDWARE)
        violations = validate_declaration(run, reference)
        assert [(v.layer, v.key, v.severity) for v in violations] == \
            [(8, "weight_decay", Severity.ERROR)]

    def test_asynchronous_training_is_error_at_layer_6(self, reference):
        decl = mutate(reference, 6, sync_mode="asynchronous")
        for level in BenchLevel:
            run = make_run(decl, level=level)
            violations = validate_declaration(run, reference)
            assert any(v.layer == 6 and v.key == "sync_mode"
                       and v.severity is Severity.ERROR for v in violations)

    def test_framework_change_needs_system_level(self, reference):
        decl = mutate(reference, 5, framework="pytorch")
        hardware = validate_declaration(
            make_run(decl, level=BenchLevel.HARDWARE), reference)
        assert [(v.layer, v.key) for v in hardware] == [(5, "framework")]
        assert validate_declaration(
            make_run(decl, level=BenchLevel.SYSTEM), reference) == []

    def test_problem_domain_immutable_even_at_free_level(self, reference):
        decl = mutate(reference, 9, epochs=30)
        run = make_run(decl, level=BenchLevel.FREE)
        violations = validate_declaration(run, reference)
        assert [(v.layer, v.key) for v in violations] == [(9, "epochs")]

    def test_parallel_mode_change_allowed(self, reference):
        decl = mutate(reference, 6, parallel_mode="model_parallel")
        run = make_run(decl, level=BenchLevel.HARDWARE)
        assert validate_declaration(run, reference) == []

    def test_policy_monotonicity(self, reference):
        # anything clean at hardware level stays clean at system and free
        variants = [
            mutate(reference, 1, cpu="epyc"),
            mutate(reference, 8, lr_policy="layerwise_adaptive"),
            mutate(mutate(reference, 3, collectives="custom"), 8,
                   batchsize=4096),
        ]
        for decl in variants:
            assert validate_declaration(
                make_run(decl, level=BenchLevel.HARDWARE), reference) == []
            assert validate_declaration(
                make_run(decl, level=BenchLevel.SYSTEM), reference) == []
            assert validate_declaration(
                make_run(decl, level=BenchLevel.FREE), reference) == []

    def test_canonicalization_ignores_case_and_whitespace(self, reference):
        decl = mutate(reference, 6, sync_mode="  Synchronous ")
        run = make_run(decl, level=BenchLevel.HARDWARE)
        assert validate_declaration(run, reference) == []

    def test_policy_table_nested_and_layer_9_frozen(self):
        from hpcbench.rules import ALL_KEYS, POLICIES
        hardware = POLICIES[BenchLevel.HARDWARE]
        system = POLICIES[BenchLevel.SYSTEM]
        free = POLICIES[BenchLevel.FREE]
        for layer in range(1, 10):
            for tighter, looser in ((hardware, system), (system, free)):
                a, b = tighter.allowed_keys(layer), looser.allowed_keys(layer)
                if b is not ALL_KEYS:
                    assert a is not ALL_KEYS and a <= b
        for policy in (hardware, system, free):
            assert policy.allowed_keys(9) == frozenset()


class TestCheckEquivalence:
    def test_identical_declarations(self, reference):
        report = check_equivalence(reference, reference, BenchLevel.HARDWARE)
        assert all(v is LayerVerdict.EQUIVALENT for v in report.layers.values())
        assert report.comparable

    def test_lr_policy_differs_allowed(self, reference):
        other = mutate(reference, 8, lr_policy="layerwise_adaptive")
        report = check_equivalence(reference, other, BenchLevel.HARDWARE)
        assert report.layers[8] is LayerVerdict.DIFFERS_ALLOWED
        assert report.comparable

    def test_framework_differs_forbidden_at_hardware(self, reference):
        other = mutate(reference, 5, framework="pytorch")
        report = check_equivalence(reference, other, BenchLevel.HARDWARE)
        assert report.layers[5] is LayerVerdict.DIFFERS_FORBIDDEN
        assert not report.comparable

    def test_symmetry(self, reference):
        other = mutate(mutate(reference, 5, framework="pytorch"), 8,
                       batchsize=1024)
        ab = check_equivalence(reference, other, BenchLevel.HARDWARE)
        ba = check_equivalence(other, reference, BenchLevel.HARDWARE)
        assert ab.layers == ba.layers

    def test_mismatched_workloads(self, reference):
        other = mutate(reference, 7, algorithm="transformer")
        with pytest.raises(IncomparableWorkloads):
            check_equivalence(reference, other, BenchLevel.HARDWARE)

    def test_free_level_allows_algorithm_change(self, reference):
        other = mutate(reference, 7, algorithm="transformer")
        report = check_equivalence(reference, other, BenchLevel.FREE)
        assert report.layers[7] is LayerVerdict.DIFFERS_ALLOWED


class TestLrSchedule:
    def test_no_scaling_starts_at_base(self):
        schedule = lr_schedule(0.25, 1, 0, 90, Decay.COSINE)
        assert schedule.at(0) == 0.25

    def test_warmup_ramp_endpoint(self):
        schedule = lr_schedule(0.1, 32, 5, 90)
        assert schedule.at(5) == pytest.approx(3.2)
        assert schedule.at(0) == pytest.approx(0.1)

    def test_continuous_at_warmup_boundary(self):
        schedule = lr_schedule(0.1, 32, 5, 90, Decay.COSINE)
        eps = 1e-9
        assert schedule.at(5 - eps) == pytest.approx(schedule.at(5), rel=1e-6)

    def test_never_exceeds_scaled_rate(self):
        schedule = lr_schedule(0.1, 32, 5, 90, Decay.COSINE)
        peak = 3.2
        for e in range(90):
            assert schedule.at(e) <= peak + 1e-12

    def test_large_batch_shape(self):
        # ramp up then monotone cosine decay to zero
        schedule = lr_schedule(0.1, 32, 5, 90, Decay.COSINE)
        curve = schedule.per_epoch()
        assert all(a <= b + 1e-12 for a, b in zip(curve[:5], curve[1:6]))
        tail = curve[5:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        assert schedule.at(90) == pytest.approx(0.0, abs=1e-12)

    def test_step_decay_drops_by_ten(self):
        schedule = lr_schedule(0.1, 1, 0, 90, Decay.STEP)
        assert schedule.at(10) == pytest.approx(0.1)
        assert schedule.at(31) == pytest.approx(0.01)
        assert schedule.at(61) == pytest.approx(0.001)
        assert schedule.at(81) == pytest.approx(0.0001)

    def test_none_decay_holds_rate(self):
        schedule = lr_schedule(0.1, 4, 2, 10, Decay.NONE)
        assert schedule.at(9) == pytest.approx(0.4)

    def test_invalid_warmup(self):
        with pytest.raises(InvalidSchedule):
            lr_schedule(0.1, 2, 90, 90)

    @given(st.floats(0.001, 1.0), st.floats(1, 64), st.integers(1, 20),
           st.integers(30, 120), st.sampled_from(list(Decay)))
    def test_warmup_boundary_continuity_everywhere(self, base_lr, k, warmup,
                                                   total, decay):
        schedule = lr_schedule(base_lr, k, warmup, total, decay)
        peak = base_lr * k
        eps = 1e-9
        assert schedule.at(warmup - eps) == pytest.approx(
            schedule.at(warmup), rel=1e-6)
        assert schedule.at(warmup) == pytest.approx(peak, rel=1e-12)
        assert schedule.at(0) <= peak + 1e-12


def runs_with_epochs(epochs, workload, **kwargs):
    return [make_run(reference_declaration(workload), workload=workload,
                     epochs=e, run_id=f"t{i}", **kwargs)
            for i, e in enumerate(epochs)]


class TestAggregateRuns:
    def test_drop_extremes_and_mean(self, ewa):
        runs = runs_with_epochs([10, 12, 11, 13, 11], ewa)
        agg = aggregate_runs(runs)
        assert sorted(r.epochs_to_quality for r in agg.retained_runs) == \
            [11, 11, 12]
        assert agg.mean_scores["epochs_to_quality"] == pytest.approx(11.33,
                                                                     abs=0.005)
        highest, lowest = agg.dropped
        assert highest.epochs_to_quality == 13
        assert lowest.epochs_to_quality == 10
        assert len(agg.retained_runs) == len(runs) - 2

    def test_variation_over_all_submitted_runs(self, ewa):
        runs = runs_with_epochs([10, 12, 11, 13, 11], ewa)
        agg = aggregate_runs(runs)
        oracle = statistics.pstdev([10, 12, 11, 13, 11]) / statistics.fmean(
            [10, 12, 11, 13, 11])
        assert agg.variation == pytest.approx(oracle, abs=1e-12)

    def test_identical_runs(self, ewa):
        runs = runs_with_epochs([11] * 5, ewa)
        agg = aggregate_runs(runs)
        assert agg.variation == 0.0
        assert agg.mean_scores["epochs_to_quality"] == 11

    def test_min_runs_enforced_per_workload(self, ewa, ic):
        with pytest.raises(InsufficientRuns) as err:
            aggregate_runs(runs_with_epochs([10, 11, 12, 13], ic,
                                            scale=16, batch=2048,
                                            sps=100.0))
        assert err.value.required == 10
        assert aggregate_runs(
            runs_with_epochs([10, 11, 12, 13, 14], ewa)) is not None
        with pytest.raises(InsufficientRuns):
            aggregate_runs(runs_with_epochs([10, 11, 12, 13], ewa))

    def test_permutation_invariance(self, ewa):
        epochs = [10, 12, 11, 13, 11]
        a = aggregate_runs(runs_with_epochs(epochs, ewa))
        b = aggregate_runs(list(reversed(runs_with_epochs(epochs, ewa))))
        assert a.mean_scores == b.mean_scores
        assert [r.run_id for r in a.retained_runs] == \
            [r.run_id for r in b.retained_runs]

    def test_mean_within_retained_range(self, ewa):
        runs = runs_with_epochs([10, 29, 17, 23, 11, 14, 18], ewa)
        agg = aggregate_runs(runs)
        epochs = [r.epochs_to_quality for r in agg.retained_runs]
        assert min(epochs) <= agg.mean_scores["epochs_to_quality"] <= max(epochs)

    def test_per_watt_mean_present_when_power_recorded(self, ewa):
        runs = runs_with_epochs([10, 11, 12, 13, 14], ewa, power=2500.0)
        agg = aggregate_runs(runs)
        assert "vflops_per_watt" in agg.mean_scores


class TestRepeatability:
    def test_equal_epochs_zero_variation(self, ewa):
        report = repeatability_report(runs_with_epochs([12] * 5, ewa))
        assert report.variation == 0.0

    def test_two_runs(self, ewa):
        report = repeatability_report(runs_with_epochs([10, 12], ewa))
        assert report.variation == pytest.approx(1 / 11, abs=1e-12)

    def test_low_variation_fixture(self, ewa):
        # five trials constructed to land at 1.12% population
        # stddev-over-mean
        epochs = [98.7478, 98.7478, 100.0, 101.2522, 101.2522]
        oracle = statistics.pstdev(epochs) / statistics.fmean(epochs)
        report = repeatability_report(runs_with_epochs(epochs, ewa))
        assert report.variation == pytest.approx(oracle, abs=1e-12)
        assert report.variation == pytest.approx(0.0112, abs=1e-4)
        assert len(report.runs) == 5  # raw trial data included

    def test_heterogeneous_rejected(self, ewa):
        runs = runs_with_epochs([10, 12], ewa)
        other = replace(runs[1], global_batchsize=64)
        with pytest.raises(NotARepetition):
            repeatability_report([runs[0], other])


class TestReplicability:
    def aggregate_pair(self, ewa, epochs_a, epochs_b, sps_b=5.75):
        a = aggregate_runs(runs_with_epochs(epochs_a, ewa))
        b = aggregate_runs(runs_with_epochs(epochs_b, ewa, sps=sps_b))
        return a, b

    def test_identical_aggregates_pass(self, ewa):
        a, b = self.aggregate_pair(ewa, [10, 11, 12, 13, 14],
                                   [10, 11, 12, 13, 14])
        assert replicability_check(a, b, tolerance=0.0).passed

    def test_three_percent_delta_passes_at_five(self, ewa):
        a, b = self.aggregate_pair(ewa, [10, 11, 12, 13, 14],
                                   [10, 11, 12, 13, 14], sps_b=5.75 * 1.03)
        report = replicability_check(a, b, tolerance=0.05)
        assert report.passed
        assert report.deltas["flops"] == pytest.approx(0.03, abs=1e-9)

    def test_eight_percent_delta_fails_at_five(self, ewa):
        a, b = self.aggregate_pair(ewa, [10, 11, 12, 13, 14],
                                   [10, 11, 12, 13, 14], sps_b=5.75 * 1.08)
        report = replicability_check(a, b, tolerance=0.05)
        assert not report.passed
        assert "flops" in report.failed_metrics

    def test_different_workloads_not_replicable(self, ewa, ic):
        a = aggregate_runs(runs_with_epochs([10, 11, 12, 13, 14], ewa))
        b = aggregate_runs(runs_with_epochs(
            [10, 11, 12, 13, 14, 15, 16, 17, 18, 19], ic, scale=16,
            batch=2048, sps=100.0))
        with pytest.raises(NotReplicable):
            replicability_check(a, b, tolerance=0.05)
