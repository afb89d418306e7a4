"""Ranking and report generation.

Rankings order runs by VFLOPS descending with time-to-quality as the
auxiliary tie-break; rule-violating runs stay in the table but are
flagged ineligible so audits remain possible.  Reports carry three
mandatory parts: the system under test, the benchmark configuration,
and the scores with raw per-trial data.  ``rank`` and ``emit_report``
take the runs and a reference declaration and score
(``metrics.score_run``) and audit (``rules.audit``) each run
themselves, so every number traces to an input record.  A report
follows run-id order, so its bytes do not depend on input order.
Nothing is fabricated; missing power is marked "not measured".
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    JsonCodec,
    NineLayerDeclaration,
    RunRecord,
    SystemConfig,
    _json_text,
    _num,
)
from .errors import IncomparableWorkloads, IncompleteReport, SchemaError
from .metrics import Score, score_run
from .rules import AggregateResult, Severity, _workload_label, audit
from .units import fmt_bytes_per_s, fmt_flops, fmt_seconds

__all__ = ["RankingRow", "rank", "vflops_ratio", "ReportDocument", "emit_report"]

_NOT_MEASURED = "not measured"


@dataclass(frozen=True)
class RankingRow(JsonCodec):
    rank: int
    label: str
    run_id: str
    scale: int
    precision: str
    flops: float
    vflops: float
    vflops_per_watt: Optional[float] = field(default=None, kw_only=True)
    time_to_quality: float
    rule_status: str           # "CLEAN" or "VIOLATIONS(n)"
    eligible: bool


def rank(runs: Sequence[RunRecord],
         reference: Optional[NineLayerDeclaration] = None
         ) -> list[RankingRow]:
    """Rank runs of one workload definition by VFLOPS.

    Rows sort by VFLOPS descending, then time-to-quality ascending, then
    run_id; the order is total and deterministic under input
    permutation.  Given a ``reference``, each run is audited against it
    (``rules.audit``) and runs with ERROR violations keep their position
    but are flagged ineligible; without one nothing is audited.  Runs
    whose workloads differ in any field, the target quality included,
    raise :class:`IncomparableWorkloads`.
    """
    first = runs[0].workload if runs else None
    # ingested runs share one workload object: ``is`` spares the ``==``
    if any(r.workload is not first and r.workload != first for r in runs):
        labels = map(_workload_label, dict.fromkeys(r.workload for r in runs))
        raise IncomparableWorkloads(
            "cannot rank across workloads: " + ", ".join(labels))
    audits = (audit(runs, reference) if reference is not None
              else [[]] * len(runs))

    scored = sorted(zip(runs, map(score_run, runs), audits),
                    key=lambda rsa: (-rsa[1].vflops, rsa[1].time_to_quality,
                                     rsa[0].run_id))
    rows = []
    for position, (run, score, violations) in enumerate(scored, start=1):
        errors = [v for v in violations if v.severity is Severity.ERROR]
        status = "CLEAN" if not errors else f"VIOLATIONS({len(errors)})"
        label = (f"{run.system.node.accelerator.name} "
                 f"x{run.scale} {run.precision.value}")
        rows.append(RankingRow(
            rank=position, label=label, run_id=run.run_id, scale=run.scale,
            precision=run.precision.value, flops=score.flops,
            vflops=score.vflops, vflops_per_watt=score.vflops_per_watt,
            time_to_quality=score.time_to_quality, rule_status=status,
            eligible=not errors))
    return rows


def vflops_ratio(optimized: Score, baseline: Score) -> float:
    """Score ratio of an optimization study pair."""
    if _num(baseline.vflops, "baseline vflops") <= 0:
        raise SchemaError(
            f"baseline vflops must be positive, got {baseline.vflops}")
    return optimized.vflops / baseline.vflops


@dataclass(frozen=True)
class ReportDocument:
    """A rendered report: Markdown plus its machine-readable twin."""

    markdown: str
    data: dict

    def json(self) -> str:
        return _json_text(self.data)


def _system_section(system: SystemConfig,
                    declaration: NineLayerDeclaration) -> dict:
    node = system.node
    acc = node.accelerator
    return {
        "cpu_and_accelerators": {
            "cpu": declaration.layer(1).get("cpu", _NOT_MEASURED),
            "accelerator": acc.name,
            "accelerators_per_node": node.accelerators_per_node,
            "peak_flops": {m.value: v for m, v in acc.peak_flops.items()},
            "accelerator_memory_bytes": acc.memory_capacity,
        },
        "intra_node_connection": {
            "bandwidth_bytes_per_s": node.intra_node_bandwidth,
        },
        "os": dict(declaration.layer(2)),
        "runtime_single_node": {**declaration.layer(3), **declaration.layer(4)},
        "inter_node_connection": {
            "num_nodes": system.num_nodes,
            "nominal_bytes_per_s": system.inter_node_bandwidth_nominal,
            "effective_bytes_per_s": system.inter_node_bandwidth_effective,
        },
        "runtime_system": dict(declaration.layer(5)),
    }


def _score_row(run: RunRecord, score: Score) -> dict:
    power = run.average_power
    return {
        "run_id": run.run_id,
        "time_to_quality_s": score.time_to_quality,
        "epochs_to_quality": run.epochs_to_quality,
        "achieved_quality": run.achieved_quality,
        "flops": score.flops,
        "flops_per_watt": (score.flops / power) if power else _NOT_MEASURED,
        "vflops": score.vflops,
        "vflops_per_watt": (score.vflops_per_watt
                            if score.vflops_per_watt is not None
                            else _NOT_MEASURED),
        "penalty": score.penalty,
    }


def _md_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def emit_report(aggregate: AggregateResult,
                reference: NineLayerDeclaration,
                ratio_studies: Optional[Sequence[tuple]] = None
                ) -> ReportDocument:
    """Assemble the full benchmarking report of one aggregate.

    Mandatory sections: system under test (six descriptive groups),
    benchmark configuration (all hyper-parameters plus the communication
    stack), and scores for all runs with the raw trial data.  The runs,
    retained and dropped, are taken in run-id order: each is scored and
    audited against ``reference``, and the system, workload and
    declaration are the lowest run id's.  An aggregate without runs
    raises :class:`IncompleteReport`.  ``ratio_studies`` optionally adds
    an optimization-study table of (label, baseline Score, optimized
    Score) triples.
    """
    if not aggregate.retained_runs:
        raise IncompleteReport(["runs"])
    runs = sorted((*aggregate.retained_runs, *aggregate.dropped),
                  key=lambda r: r.run_id)
    head = runs[0]
    declaration = head.declaration
    violations = [v for found in audit(runs, reference) for v in found]
    score_rows = [_score_row(r, score_run(r)) for r in runs]

    data = {
        "system_under_test": _system_section(head.system, declaration),
        "benchmark_configuration": {
            "hyper_parameters": dict(declaration.layer(8)),
            "programming_model": dict(declaration.layer(6)),
            "communication": dict(declaration.layer(3)),
            "workload": dict(declaration.layer(7)),
            "problem_domain": dict(declaration.layer(9)),
        },
        "scores": {
            "runs": score_rows,
            "aggregate": {
                "mean": dict(aggregate.mean_scores),
                "variation_epochs_to_quality": aggregate.variation,
                "variation_wall_time": aggregate.wall_time_variation,
                "dropped_run_ids": [r.run_id for r in aggregate.dropped],
                "retained_run_ids": [r.run_id for r in aggregate.retained_runs],
            },
            "raw_trials": [
                {"run_id": r.run_id, "epochs_to_quality": r.epochs_to_quality,
                 "wall_time_s": r.wall_time,
                 "achieved_quality": r.achieved_quality}
                for r in runs
            ],
        },
        "rule_audit": {
            "violations": [v.to_dict() for v in violations],
            "clean": not any(v.severity is Severity.ERROR for v in violations),
        },
    }
    if ratio_studies:
        data["optimization_studies"] = [
            {"label": label, "baseline_vflops": base.vflops,
             "optimized_vflops": opt.vflops,
             "vflops_ratio": vflops_ratio(opt, base)}
            for label, base, opt in ratio_studies]

    md = [f"# Benchmark report: {head.workload.name}"]
    sut = data["system_under_test"]
    md.append("\n## 1. System under test\n")
    md.append(_md_table(
        ["item", "description"],
        [["CPU / accelerators",
          f"{sut['cpu_and_accelerators']['cpu']}; "
          f"{sut['cpu_and_accelerators']['accelerators_per_node']}x "
          f"{sut['cpu_and_accelerators']['accelerator']} per node"],
         ["intra-node connection",
          fmt_bytes_per_s(sut['intra_node_connection']['bandwidth_bytes_per_s'])],
         ["OS", "; ".join(f"{k}={v}" for k, v in sut["os"].items()) or "-"],
         ["runtime (single node)",
          "; ".join(f"{k}={v}" for k, v in sut["runtime_single_node"].items())],
         ["inter-node connection",
          f"{sut['inter_node_connection']['num_nodes']} nodes, "
          f"{fmt_bytes_per_s(sut['inter_node_connection']['effective_bytes_per_s'])}"
          " effective"],
         ["runtime (system)",
          "; ".join(f"{k}={v}" for k, v in sut["runtime_system"].items())]]))

    cfg = data["benchmark_configuration"]
    md.append("\n## 2. Benchmark configuration\n")
    md.append(_md_table(["hyper-parameter", "value"],
                        sorted(cfg["hyper_parameters"].items())))
    md.append("\ncommunication: "
              + "; ".join(f"{k}={v}" for k, v in cfg["communication"].items())
              + "; " + "; ".join(f"{k}={v}"
                                 for k, v in cfg["programming_model"].items()))

    md.append("\n## 3. Scores\n")
    md.append(_md_table(
        ["run", "time-to-quality", "FLOPS", "FLOPS/W", "VFLOPS", "VFLOPS/W"],
        [[row["run_id"], fmt_seconds(row["time_to_quality_s"]),
          fmt_flops(row["flops"]),
          row["flops_per_watt"] if isinstance(row["flops_per_watt"], str)
          else f"{row['flops_per_watt']:.3e}",
          fmt_flops(row["vflops"]),
          row["vflops_per_watt"] if isinstance(row["vflops_per_watt"], str)
          else f"{row['vflops_per_watt']:.3e}"]
         for row in score_rows]))
    agg = data["scores"]["aggregate"]
    md.append(f"\nmean VFLOPS {fmt_flops(agg['mean']['vflops'])}, "
              f"mean time-to-quality {fmt_seconds(agg['mean']['time_to_quality'])}, "
              f"variation (epochs-to-quality) {agg['variation_epochs_to_quality']:.4%}, "
              f"dropped extremes: {', '.join(agg['dropped_run_ids']) or 'none'}")
    md.append("\n### Raw trial data\n")
    md.append(_md_table(
        ["run", "epochs-to-quality", "wall time", "achieved quality"],
        [[t["run_id"], t["epochs_to_quality"], fmt_seconds(t["wall_time_s"]),
          t["achieved_quality"]] for t in data["scores"]["raw_trials"]]))

    if ratio_studies:
        md.append("\n## Optimization studies\n")
        md.append(_md_table(
            ["study", "baseline VFLOPS", "optimized VFLOPS", "VFLOPS ratio"],
            [[s["label"], fmt_flops(s["baseline_vflops"]),
              fmt_flops(s["optimized_vflops"]), f"{s['vflops_ratio']:.2f}"]
             for s in data["optimization_studies"]]))

    md.append("\n## Rule audit\n")
    if violations:
        md.append(_md_table(["layer", "key", "severity", "message"],
                            [[v.layer, v.key, v.severity.value, v.message]
                             for v in violations]))
    else:
        md.append("no violations")

    return ReportDocument(markdown="\n".join(md) + "\n", data=data)
