"""The whole pipeline: simulate, store, audit, score, rank, report.

Generates a small ranking study with the analytical simulator (quality
declared per configuration, never invented), stores the run records,
then drives the same steps the command line exposes.
"""

from pathlib import Path

from hpcbench.cli import main as hpcbench
from hpcbench.core import BenchLevel, PrecisionMode, dumps
from hpcbench.presets import (
    COMPUTE_EFFICIENCY,
    case_study_system,
    image_classification_workload,
    reference_declaration,
)
from hpcbench.simulator import (
    OverlapModel,
    SimulationOptions,
    TopologySpec,
    simulate_training,
)
from hpcbench.store import ResultsStore

OUT = Path(__file__).parent / "output" / "pipeline"
STORE = OUT / "store"

system = case_study_system()
workload = image_classification_workload()
reference = reference_declaration(workload)

# -- generate ten trials per configuration -----------------------------------
# Achieved quality is a declared input per configuration: larger batches
# land a little short of the 0.763 bar, mixed precision costs a bit more.
CONFIGS = [
    # (precision, scale, declared quality)
    (PrecisionMode.FP32, 16, 0.7630),
    (PrecisionMode.FP32, 64, 0.7585),
    (PrecisionMode.MIXED, 16, 0.7596),
    (PrecisionMode.MIXED, 64, 0.7071),
]
EPOCH_JITTER = [0, 1, -1, 0, 2, -2, 0, 1, -1, 0]

store = ResultsStore(STORE)
for precision, scale, quality in CONFIGS:
    for trial in range(10):
        options = SimulationOptions(
            achieved_quality=quality,
            compute_efficiency=COMPUTE_EFFICIENCY.get(
                (workload.name, precision), 0.3),
            epochs_to_quality=90 + EPOCH_JITTER[trial],
            negotiation_skew=0.001,
            skew_seed=trial,
            level=BenchLevel.FREE,
            average_power=350.0 * scale,
            run_id=f"sim-{precision.value}-{scale}-t{trial:02d}",
        )
        result = simulate_training(
            system, workload, scale, 128 * scale, precision,
            TopologySpec.ring(latency=5e-6), OverlapModel(0.9), options)
        store.add(result.run, overwrite=True)
print(f"stored {len(store.index())} simulated runs under {STORE}")

reference_path = OUT / "reference.json"
reference_path.write_text(dumps(reference))

# -- the same steps the CLI exposes -------------------------------------------
steps = [
    ["validate", "--store", str(STORE), "--reference", str(reference_path)],
    ["score", "--store", str(STORE), "--select", "sim-mixed-64-*"],
    ["aggregate", "--store", str(STORE), "--select", "sim-mixed-64-*"],
    ["rank", "--store", str(STORE)],
    ["report", "--store", str(STORE), "--select", "sim-mixed-64-*",
     "--reference", str(reference_path),
     "--out", str(OUT / "report.md")],
]
for argv in steps:
    print(f"\n$ hpcbench {' '.join(argv)}")
    code = hpcbench(argv)
    if code != 0:
        raise SystemExit(f"step failed with exit code {code}")
print(f"\nreport written to {OUT / 'report.md'} (JSON twin alongside)")
