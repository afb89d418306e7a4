"""The nine-layer rulebook in practice.

Submissions declare their whole stack as nine layers (hardware up to
problem domain); the benchmarking level decides which layers may differ
from the reference.  This script audits a few declarations, renders the
default learning-rate policy, and aggregates repeat trials.
"""

import csv
from pathlib import Path

from hpcbench.core import BenchLevel, NineLayerDeclaration, PrecisionMode, RunRecord
from hpcbench.presets import case_study_system, ewa_workload, reference_declaration
from hpcbench.rules import (
    Decay,
    aggregate_runs,
    check_equivalence,
    lr_schedule,
    repeatability_report,
    validate_declaration,
)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

workload = ewa_workload()
reference = reference_declaration(workload)


def submit(declaration, level):
    return RunRecord(
        run_id="demo", workload=workload, system=case_study_system(),
        scale=8, precision=PrecisionMode.FP32, global_batchsize=8,
        achieved_quality=0.35, wall_time=3600.0, epochs_to_quality=50,
        samples_per_second_per_rank=5.75, num_ranks=8, level=level,
        declaration=declaration)


def edit(declaration, layer, **changes):
    layers = [dict(l) for l in declaration.layers]
    layers[layer - 1].update(changes)
    return NineLayerDeclaration(layers=tuple(layers))


# -- three submissions audited at the hardware level ------------------------
cases = [
    ("bigger batch + new kernel lib",
     edit(edit(reference, 8, batchsize=2048), 4, kernel_library="cudnn-8.9")),
    ("weight decay tweaked",
     edit(reference, 8, weight_decay="disabled-on-normalization-layers")),
    ("asynchronous updates",
     edit(reference, 6, sync_mode="asynchronous")),
]
for label, declaration in cases:
    violations = validate_declaration(
        submit(declaration, BenchLevel.HARDWARE), reference)
    verdict = "accepted" if not violations else "REJECTED"
    print(f"{label:35s} -> {verdict}")
    for v in violations:
        print(f"    layer {v.layer} / {v.key}: {v.message}")

# the same framework swap is forbidden at hardware level, fine at system
swap = edit(reference, 5, framework="pytorch")
for level in (BenchLevel.HARDWARE, BenchLevel.SYSTEM):
    report = check_equivalence(reference, swap, level)
    print(f"framework swap at {level.value:8s} level -> "
          f"{report.layers[5].value}")

# -- the default learning-rate policy ---------------------------------------
# batch grows 32x, so the rate ramps to 32 * 0.1 over five epochs and
# then follows a half-cosine down to zero at epoch 90
schedule = lr_schedule(base_lr=0.1, k=32, warmup_epochs=5, total_epochs=90,
                       decay=Decay.COSINE)
print(f"\nlearning rate: start {schedule.at(0):.3f}, "
      f"peak {schedule.at(5):.3f} at epoch 5, "
      f"mid {schedule.at(45):.3f}, end {schedule.at(90):.6f}")
with open(OUT / "lr_schedule.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["epoch", "learning_rate"])
    for epoch in range(91):
        writer.writerow([epoch, f"{schedule.at(epoch):.6f}"])
print(f"wrote {OUT / 'lr_schedule.csv'}")

# -- repeat trials: drop the extremes, report the variation -----------------
epochs_per_trial = [10, 12, 11, 13, 11]
trials = [RunRecord(
    run_id=f"trial-{i}", workload=workload, system=case_study_system(),
    scale=8, precision=PrecisionMode.FP32, global_batchsize=8,
    achieved_quality=0.35, wall_time=3600.0 + 60 * e, epochs_to_quality=e,
    samples_per_second_per_rank=5.75, num_ranks=8,
    level=BenchLevel.HARDWARE, declaration=reference)
    for i, e in enumerate(epochs_per_trial)]

agg = aggregate_runs(trials)
print(f"\n{len(trials)} trials with epochs-to-quality {epochs_per_trial}")
print(f"dropped extremes: "
      f"{[r.epochs_to_quality for r in agg.dropped]}, "
      f"mean over the rest: {agg.mean_scores['epochs_to_quality']:.2f}")
print(f"run-to-run variation: {repeatability_report(trials).variation:.2%}")
