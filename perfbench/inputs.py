"""Seeded input generator for the three benchmark workloads.

Every input is built from ``hpcbench.simulator.simulate_training`` and
``hpcbench.presets``; nothing comes from the repository's test suite.
The same seed gives byte-identical files.  Run ids use only
``[A-Za-z0-9._-]``.

The read-side store is written straight into the documented
``root/<workload>/<run_id>.json`` layout (the format ``ResultsStore.add``
writes), because building 2000 records through ``add`` costs quadratic
time.  Records are written one at a time, so the generator's memory
stays small next to the workload's own peak.
"""

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from hpcbench.core import BenchLevel, PrecisionMode, SystemConfig
from hpcbench.presets import (
    COMPUTE_EFFICIENCY,
    case_study_system,
    distributed_ceilings,
    ewa_workload,
    image_classification_workload,
    single_node_ceilings,
)
from hpcbench.roofline import place_run
from hpcbench.simulator import (
    OverlapModel,
    SimulationOptions,
    TopologySpec,
    simulate_training,
)

READ_RECORDS = 2000
READ_PLANTED = 100
WRITE_RECORDS = 200

#: (tag, scale, precision, global batch, quality centre) of the six
#: image_classification configurations in the read-side store.
READ_CONFIGS = (
    ("fp32-16", 16, PrecisionMode.FP32, 2048, 0.7632),
    ("fp32-32", 32, PrecisionMode.FP32, 4096, 0.7631),
    ("fp32-64", 64, PrecisionMode.FP32, 8192, 0.7590),
    ("mixed-16", 16, PrecisionMode.MIXED, 4096, 0.7600),
    ("mixed-32", 32, PrecisionMode.MIXED, 8192, 0.7575),
    ("mixed-64", 64, PrecisionMode.MIXED, 16384, 0.7080),
)

#: Layer-5 value that breaks the hardware-level rules on planted records.
PLANTED_FRAMEWORK = "pytorch-unreviewed"

SWEEP_SCALES = (1, 2, 4, 8, 16, 32, 64)
SWEEP_TOPOLOGIES = (
    {"kind": "ring", "per_message_latency": 5e-6},
    {"kind": "double_binary_tree", "per_message_latency": 5e-6},
    {"kind": "hierarchical_ring", "per_message_latency": 5e-6, "groups": 2},
    {"kind": "butterfly", "per_message_latency": 5e-6},
)
SWEEP_PRECISIONS = (PrecisionMode.FP32, PrecisionMode.MIXED)
SWEEP_SKEW_SEEDS = 3
ROOFLINE_MODES = ("single_node", "distributed")


def _dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class Fact:
    """What the oracle needs to know about one stored record, taken
    from the record's JSON document rather than from the code under
    test."""

    run_id: str
    config: str
    planted: bool
    samples_per_second_per_rank: float
    num_ranks: int
    flops_per_sample: float
    achieved_quality: float
    target_quality: float
    quality_exponent_n: int
    epochs_to_quality: float
    wall_time: float

    @classmethod
    def from_doc(cls, doc: dict, config: str = "",
                 planted: bool = False) -> "Fact":
        wl = doc["workload"]
        return cls(
            run_id=doc["run_id"], config=config, planted=planted,
            samples_per_second_per_rank=doc["samples_per_second_per_rank"],
            num_ranks=doc["num_ranks"],
            flops_per_sample=wl["flops_per_sample"],
            achieved_quality=doc["achieved_quality"],
            target_quality=wl["target_quality"]["value"],
            quality_exponent_n=wl["quality_exponent_n"],
            epochs_to_quality=doc["epochs_to_quality"],
            wall_time=doc["wall_time"])


@dataclass
class ReadStore:
    root: Path
    reference: Path
    facts: list
    bytes: int
    distinct_subdocs: int
    subdocs: int


def build_read_store(base: Path, seed: int, n: int = READ_RECORDS,
                     planted: int = READ_PLANTED) -> ReadStore:
    """Write ``n`` image_classification records over six configurations,
    ``planted`` of them with a layer-5 rule violation, plus a reference
    declaration under which exactly the planted records violate."""
    rng = random.Random(f"read_shared/{seed}")
    system = case_study_system()
    workload = image_classification_workload()
    root = base / "store"
    shutil.rmtree(root, ignore_errors=True)
    (root / workload.name).mkdir(parents=True)
    planted_idx = set(rng.sample(range(n), planted))
    facts, total_bytes, reference = [], 0, None
    subdocs = set()
    for i in range(n):
        tag, scale, precision, batch, quality = READ_CONFIGS[i % len(READ_CONFIGS)]
        bad = i in planted_idx
        options = SimulationOptions(
            achieved_quality=round(quality + rng.uniform(-2e-3, 2e-3), 6),
            compute_efficiency=(COMPUTE_EFFICIENCY[(workload.name, precision)]
                                * rng.uniform(0.97, 1.0)),
            negotiation_skew=rng.uniform(1e-4, 1e-3),
            skew_seed=rng.randrange(2 ** 31),
            epochs_to_quality=round(90.0 + rng.uniform(-3.0, 3.0), 6),
            level=BenchLevel.HARDWARE,
            run_id=f"rs-{tag}-t{i // len(READ_CONFIGS):04d}",
            extra_declaration={"5.framework": PLANTED_FRAMEWORK} if bad else {},
        )
        result = simulate_training(system, workload, scale, batch, precision,
                                   TopologySpec.ring(5e-6),
                                   OverlapModel(alpha=0.8), options)
        doc = result.run.to_dict()
        if reference is None and not bad:
            reference = doc["declaration"]
        text = _dump(doc)
        (root / workload.name / f"{options.run_id}.json").write_text(
            text, encoding="utf-8")
        total_bytes += len(text.encode("utf-8"))
        subdocs.add(json.dumps(doc["system"], sort_keys=True))
        subdocs.add(json.dumps(doc["workload"], sort_keys=True))
        facts.append(Fact.from_doc(doc, tag, bad))
    ref_path = base / "reference.json"
    ref_path.write_text(_dump(reference), encoding="utf-8")
    return ReadStore(root=root, reference=ref_path, facts=facts,
                     bytes=total_bytes, distinct_subdocs=len(subdocs),
                     subdocs=2 * n)


@dataclass
class WriteBatch:
    runs: list          # RunRecord objects, in write order
    docs: dict          # run_id -> expected JSON document
    facts: dict         # run_id -> Fact
    duplicate: object   # a RunRecord from the first half
    distinct_subdocs: int
    subdocs: int


def build_write_batch(seed: int, n: int = WRITE_RECORDS) -> WriteBatch:
    """``n`` records over both preset workloads, each on its own system
    variant (node count and inter-node bandwidth drawn per record), so
    their system sub-documents differ."""
    rng = random.Random(f"write_distinct/{seed}")
    base_system = case_study_system()
    workloads = (image_classification_workload(), ewa_workload())
    runs, docs, facts, subdocs = [], {}, {}, set()
    for i in range(n):
        wl = workloads[i % 2]
        nodes = rng.choice((2, 4, 8))
        nominal = rng.choice((1.25e9, 12.5e9))
        system = SystemConfig(
            num_nodes=nodes, node=base_system.node,
            inter_node_bandwidth_nominal=nominal,
            inter_node_bandwidth_effective=nominal * rng.uniform(0.5, 0.98))
        scale = 8 * rng.randint(1, nodes)
        precision = PrecisionMode.FP32
        per_rank = 128 if wl.name == "image_classification" else 2
        quality = wl.target_quality.value * rng.uniform(0.98, 1.01)
        options = SimulationOptions(
            achieved_quality=round(min(quality, 1.0), 6),
            compute_efficiency=COMPUTE_EFFICIENCY[(wl.name, precision)],
            negotiation_skew=rng.uniform(1e-4, 1e-3),
            skew_seed=rng.randrange(2 ** 31),
            epochs_to_quality=round(wl.epochs * rng.uniform(0.95, 1.05), 6),
            level=BenchLevel.SYSTEM,
            run_id=f"wd-{i:03d}-{wl.name}-n{nodes}-s{scale}",
        )
        run = simulate_training(system, wl, scale, per_rank * scale, precision,
                                TopologySpec.ring(5e-6),
                                OverlapModel(alpha=0.7), options).run
        doc = run.to_dict()
        runs.append(run)
        docs[run.run_id] = doc
        facts[run.run_id] = Fact.from_doc(doc)
        subdocs.add(json.dumps(doc["system"], sort_keys=True))
        subdocs.add(json.dumps(doc["workload"], sort_keys=True))
    duplicate = runs[rng.randrange(n // 2)]
    return WriteBatch(runs=runs, docs=docs, facts=facts, duplicate=duplicate,
                      distinct_subdocs=len(subdocs), subdocs=2 * n)


@dataclass
class Scenario:
    path: Path
    per_rank_batch: int
    alpha: float
    flops_per_sample: float
    peak_per_accelerator: float
    compute_efficiency: float


@dataclass
class Roofline:
    mode: str
    precision: str
    system: Path
    ceilings: Path
    points: Path
    peak_flops: float
    point_runs: list    # RunRecords the points were placed from


@dataclass
class SweepInputs:
    scenarios: list
    rooflines: list


def _peak(system_doc: dict, precision: str, mode: str) -> float:
    node = system_doc["node"]
    per_node = node["accelerators_per_node"] * node["accelerator"]["peak_flops"][precision]
    return per_node if mode == "single_node" else per_node * system_doc["num_nodes"]


def build_sweep_inputs(base: Path, seed: int) -> SweepInputs:
    """Scenario files over topologies x precisions x workloads x skew
    seeds (scales 1 to 64), and one system/ceilings/points triple per
    roofline (mode, precision) pair."""
    rng = random.Random(f"simulate_sweep/{seed}")
    base.mkdir(parents=True, exist_ok=True)
    system = case_study_system()
    system_doc = system.to_dict()
    workloads = (image_classification_workload(), ewa_workload())
    scenarios = []
    for wl in workloads:
        per_rank = 128 if wl.name == "image_classification" else 2
        for precision in SWEEP_PRECISIONS:
            # The presets publish no mixed-precision efficiency for the
            # weather workload; 0.15 is this benchmark's stand-in.
            efficiency = COMPUTE_EFFICIENCY.get((wl.name, precision), 0.15)
            for topo in SWEEP_TOPOLOGIES:
                for _ in range(SWEEP_SKEW_SEEDS):
                    alpha = rng.choice((0.5, 0.7, 0.9))
                    doc = {
                        "system": system_doc,
                        "workload": wl.to_dict(),
                        "sweep": list(SWEEP_SCALES),
                        "per_rank_batch": per_rank,
                        "precision": precision.value,
                        "topology": topo,
                        "alpha": alpha,
                        "options": {
                            "achieved_quality": wl.target_quality.value,
                            "compute_efficiency": efficiency,
                            "negotiation_skew": rng.uniform(1e-4, 1e-3),
                            "skew_seed": rng.randrange(2 ** 31),
                            "gradient_tensors": rng.choice((1, 4, 16)),
                        },
                    }
                    path = base / f"scenario-{len(scenarios):03d}.json"
                    path.write_text(_dump(doc), encoding="utf-8")
                    scenarios.append(Scenario(
                        path=path, per_rank_batch=per_rank, alpha=alpha,
                        flops_per_sample=wl.flops_per_sample,
                        peak_per_accelerator=(system_doc["node"]["accelerator"]
                                              ["peak_flops"][precision.value]),
                        compute_efficiency=efficiency))

    system_path = base / "system.json"
    system_path.write_text(_dump(system_doc), encoding="utf-8")
    ic = workloads[0]
    rooflines = []
    for mode in ROOFLINE_MODES:
        measured = (single_node_ceilings() if mode == "single_node"
                    else distributed_ceilings())
        for precision in SWEEP_PRECISIONS:
            peak = _peak(system_doc, precision.value, mode)
            ceilings = [{"name": c.name, "kind": c.kind.value, "value": c.value}
                        for c in measured
                        if c.kind.value == "communication" or c.value <= peak]
            scales = [s for s in SWEEP_SCALES
                      if mode == "distributed" or s <= 8]
            runs = []
            for scale in scales:
                options = SimulationOptions(
                    achieved_quality=ic.target_quality.value * rng.uniform(0.99, 1.0),
                    compute_efficiency=COMPUTE_EFFICIENCY[(ic.name, precision)],
                    run_id=f"roof-{mode}-{precision.value}-{scale}")
                runs.append(simulate_training(
                    system, ic, scale, 128 * scale, precision,
                    TopologySpec.ring(5e-6), OverlapModel(alpha=0.8),
                    options).run)
            points = []
            for run in runs:
                p = place_run(run)
                points.append({"label": p.label, "flops_total": p.flops_total,
                               "comm_traffic": p.comm_traffic,
                               "attained": p.attained})
            tag = f"{mode}-{precision.value}"
            ceilings_path = base / f"ceilings-{tag}.json"
            points_path = base / f"points-{tag}.json"
            ceilings_path.write_text(_dump(ceilings), encoding="utf-8")
            points_path.write_text(_dump(points), encoding="utf-8")
            rooflines.append(Roofline(
                mode=mode, precision=precision.value, system=system_path,
                ceilings=ceilings_path, points=points_path, peak_flops=peak,
                point_runs=runs))
    return SweepInputs(scenarios=scenarios, rooflines=rooflines)

