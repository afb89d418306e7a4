"""Command-line front end.

Subcommands: ``validate``, ``score``, ``aggregate``, ``rank``,
``roofline``, ``simulate``, ``report``.  Each accepts only the flags it
reads: ``--store`` (record commands), ``--format`` (record commands and
``simulate``; ``csv`` only where a table is printed).  Exit codes: 0
success, 1 internal error (an I/O failure, a locked store), 2 rule
violations present, 3 bad input: a schema error, a bad command-line
argument, or a request the benchmarking procedure does not define (too
few runs, mixed configurations).

Each invocation is an independent process over the file store; there is
no daemon state.
"""

import argparse
import csv
import fnmatch
import json
import marshal
import sys
from pathlib import Path

from . import report as report_mod
from . import rules, simulator
from .core import (
    NineLayerDeclaration,
    PrecisionMode,
    RunRecord,
    _parse_json,
    loads,
)
from .errors import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_VIOLATIONS,
    BenchError,
    SchemaError,
)
from .metrics import score_run
from .roofline import Ceiling, RooflinePoint, build_model, export_plot
from .store import _json_files, ingest

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: exit 3, not argparse's 2, which
    would read as "rule violations present"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


def _load_runs(args) -> tuple[list[RunRecord], tuple]:
    """Read the --store tree (or its --workload subtree) and the
    positional paths in one ``ingest`` call, so a run id that arrives
    twice is a duplicate, and print the diagnostics.  A missing store
    reads as empty and is not created.

    The store keeps each run as ``<workload>/<run_id>.json``, so under
    --store a --select glob picks files by name before any is read;
    positional paths are read whole.  Either way the glob is matched
    against each parsed run id."""
    paths = list(args.runs)
    store = Path(args.store, args.workload or "") if args.store else None
    if store and store.exists():
        paths[:0] = (_json_files(store, args.select) if args.select
                     else [store])
    result = ingest(*paths)
    for d in result.diagnostics:
        print(f"schema: {d.path}: {d.error}", file=sys.stderr)
    records = [r for r in result.records
               if not args.select or fnmatch.fnmatch(r.run_id, args.select)]
    return records, result.diagnostics


def _runs(args, verb: str) -> list[RunRecord]:
    """The selected runs; a rejected input or an empty selection stops
    the command with exit 3."""
    records, diagnostics = _load_runs(args)
    if diagnostics:
        raise SchemaError(f"{len(diagnostics)} input document(s) rejected; "
                          f"refusing to {verb}")
    if not records:
        raise SchemaError(f"no runs to {verb}")
    return records


#: ``--format`` choices of the commands that print through _emit_table.
_TABLE_FORMATS = ("md", "json", "csv")


def _emit_table(fmt: str, docs: list, columns) -> None:
    """Print ``docs`` as one JSON document, or their ``columns`` as md or
    csv rows; a column is (header, key, format spec), None prints blank.
    md cells are measured as stdout prints them (see ``main``)."""
    if fmt == "json":
        print(json.dumps(docs, indent=2))
        return
    headers = [header for header, _, _ in columns]
    rows = [["" if doc[key] is None else format(doc[key], spec)
             for _, key, spec in columns] for doc in docs]
    if fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows([headers, *rows])
    else:
        enc = sys.stdout.encoding or "utf-8"
        rows = [[c.encode(enc, "backslashreplace").decode(enc) for c in row]
                for row in rows]
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _audit(records: list[RunRecord],
           reference: NineLayerDeclaration) -> list[list]:
    """``rules.validate_declaration`` of each run, in record order.  The
    audit depends only on the run's declaration and level, so it runs
    once per distinct pair and runs that share one share its result.
    The layers are keyed by ``marshal.dumps(layers, 2)``, not by ``==``:
    ``True == 1``, but a violation message quotes the declared value,
    and those bytes keep each value's type, as ``repr`` would, at a
    fraction of its cost.  The bytes are only compared, never loaded."""
    audits: dict = {}
    out = []
    for run in records:
        key = (marshal.dumps(run.declaration.layers, 2), run.level)
        if key not in audits:
            audits[key] = rules.validate_declaration(run, reference)
        out.append(audits[key])
    return out


def _read_declaration(path: str) -> NineLayerDeclaration:
    return loads(Path(path).read_bytes(), "declaration", path=path)


def _cmd_validate(args) -> int:
    records, diagnostics = _load_runs(args)
    reference = _read_declaration(args.reference)
    any_error = False
    out = []
    for run, violations in zip(records, _audit(records, reference)):
        errors = [v for v in violations if v.severity is rules.Severity.ERROR]
        any_error |= bool(errors)
        out.append({"run_id": run.run_id,
                    "violations": [v.to_dict() for v in violations]})
        if args.format != "json":
            status = ("clean" if not violations
                      else f"{len(violations)} violation(s)")
            print(f"{run.run_id}: {status}")
            for v in violations:
                print(f"  layer {v.layer} [{v.severity.value}] {v.key}: "
                      f"{v.message}")
    if args.format == "json":
        print(json.dumps(out, indent=2))
    if diagnostics:
        return EXIT_SCHEMA
    return EXIT_VIOLATIONS if any_error else EXIT_OK


#: Score fields shown by ``score`` and ``rank``, formatted ``.6g``.
_SCORE_KEYS = ("flops", "vflops", "vflops_per_watt", "time_to_quality")


def _cmd_score(args) -> int:
    records, diagnostics = _load_runs(args)
    docs = [{"run_id": run.run_id, **score_run(run).to_dict()}
            for run in sorted(records, key=lambda r: r.run_id)]
    _emit_table(args.format, docs, [("run_id", "run_id", "")] + [
        (key, key, ".6g") for key in (*_SCORE_KEYS, "penalty")])
    return EXIT_SCHEMA if diagnostics else EXIT_OK


def _cmd_aggregate(args) -> int:
    records = _runs(args, "aggregate")
    agg = rules.aggregate_runs(records)
    doc = {
        "workload": records[0].workload.name,
        "runs": len(records),
        "retained": [r.run_id for r in agg.retained_runs],
        "dropped": [r.run_id for r in agg.dropped],
        "mean_scores": dict(agg.mean_scores),
        "variation_epochs_to_quality": agg.variation,
        "variation_wall_time": agg.wall_time_variation,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"workload: {doc['workload']} ({len(records)} trials, "
              f"dropped {', '.join(doc['dropped']) or 'none'})")
        for k, v in agg.mean_scores.items():
            print(f"  mean {k}: {v:.6g}")
        print(f"  variation (epochs-to-quality): {agg.variation:.6g}")
        print(f"  variation (wall time): {agg.wall_time_variation:.6g}")
    return EXIT_OK


def _cmd_rank(args) -> int:
    records = _runs(args, "rank")
    violations = None
    if args.reference:
        reference = _read_declaration(args.reference)
        violations = {r.run_id: found for r, found
                      in zip(records, _audit(records, reference))}
    rows = report_mod.rank(records, violations=violations)
    _emit_table(args.format, [r.to_dict() for r in rows], [
        ("rank", "rank", ""), ("run_id", "run_id", ""), ("system", "label", ""),
        ("scale", "scale", ""), ("precision", "precision", "")] + [
        (key, key, ".6g") for key in _SCORE_KEYS] + [
        ("rule_status", "rule_status", "")])
    return EXIT_VIOLATIONS if any(not r.eligible for r in rows) else EXIT_OK


def _read_array(path: str, what: str) -> list:
    raw = _parse_json(Path(path).read_bytes(), path)
    if not isinstance(raw, list):
        raise SchemaError(f"{what} file {path} must hold a JSON array")
    return raw


def _cmd_roofline(args) -> int:
    system = loads(Path(args.system).read_bytes(), "system", path=args.system)
    ceilings = ()
    if args.ceilings:
        ceilings = tuple(Ceiling.from_dict(c)
                         for c in _read_array(args.ceilings, "ceilings"))
    model = build_model(system, args.mode, ceilings, precision=args.precision)
    points = []
    if args.points:
        for entry in _read_array(args.points, "points"):
            try:
                points.append(RooflinePoint.from_traffic(**entry))
            except TypeError as exc:  # not an object, a missing or unknown key
                raise SchemaError(f"point entry {entry!r}: {exc}") from None
    artifact = export_plot(model, points)
    if args.out_csv:
        Path(args.out_csv).write_text(artifact.csv, encoding="utf-8")
    if args.out_svg:
        Path(args.out_svg).write_text(artifact.svg, encoding="utf-8")
    print(f"mode: {model.mode.value}  peak {model.peak_flops:.6g} FLOPS, "
          f"band {model.peak_band:.6g} B/s, ridge {model.ridge:.6g}")
    if not args.out_csv and not args.out_svg:
        print(artifact.csv, end="")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    results = simulator.run_scenario(args.scenario, out_dir=args.out)
    _emit_table(args.format, [
        {"scale": r.run.scale, "run_id": r.run.run_id,
         "throughput_flops": r.throughput_flops, "efficiency": r.efficiency,
         "phase_timeline": r.timeline.to_dict()} for r in results], [
        ("scale", "scale", "")] + [
        (key, key, ".6g") for key in ("throughput_flops", "efficiency")])
    return EXIT_OK


def _cmd_report(args) -> int:
    records = _runs(args, "report")
    agg = rules.aggregate_runs(records)
    reference = _read_declaration(args.reference)
    violations = [v for found in _audit(records, reference) for v in found]
    scores = {r.run_id: score_run(r) for r in records}
    doc = report_mod.emit_report(
        aggregate=agg, violations=violations, scores=scores,
        declaration=records[0].declaration)
    text = doc.json() if args.format == "json" else doc.markdown
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        twin = Path(args.out).with_suffix(
            ".json" if args.format != "json" else ".md")
        twin.write_text(doc.json() if args.format != "json" else doc.markdown,
                        encoding="utf-8")
        print(f"wrote {args.out} and {twin}")
    else:
        print(text)
    if any(v.severity is rules.Severity.ERROR for v in violations):
        return EXIT_VIOLATIONS
    return EXIT_OK


def _record_command(sub, name: str, func, help: str,
                    formats: tuple = ("md", "json")):
    """A subcommand over run records from --store and positional paths."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--store", help="results store directory")
    p.add_argument("--format", choices=formats, default="md")
    p.add_argument("runs", nargs="*", help="run JSON files or directories")
    p.add_argument("--select", help="run_id glob filter")
    p.add_argument("--workload", help="restrict to one workload subtree")
    p.set_defaults(func=func)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hpcbench",
        description="Benchmarking analytics for HPC AI systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _record_command(sub, "validate", _cmd_validate,
                        "audit run declarations against a reference at "
                        "each run's level")
    p.add_argument("--reference", required=True,
                   help="reference declaration JSON")
    _record_command(sub, "score", _cmd_score,
                    "compute FLOPS/VFLOPS scores per run", _TABLE_FORMATS)
    _record_command(sub, "aggregate", _cmd_aggregate,
                    "drop-extremes aggregate of trials")
    p = _record_command(sub, "rank", _cmd_rank, "rank runs by VFLOPS",
                        _TABLE_FORMATS)
    p.add_argument("--reference", help="optional declaration for rule status")

    p = sub.add_parser("roofline", help="build a roofline and export CSV/SVG")
    p.add_argument("--system", required=True, help="system config JSON")
    p.add_argument("--mode", choices=("single_node", "distributed"),
                   default="distributed")
    p.add_argument("--precision", default="fp32",
                   choices=[m.value for m in PrecisionMode])
    p.add_argument("--ceilings", help="JSON list of measured ceilings")
    p.add_argument("--points", help="JSON list of points to place")
    p.add_argument("--out-csv")
    p.add_argument("--out-svg")
    p.set_defaults(func=_cmd_roofline)

    p = sub.add_parser("simulate", help="run a training scenario sweep")
    p.add_argument("--format", choices=_TABLE_FORMATS, default="md")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", help="directory for run records and sweep.csv")
    p.set_defaults(func=_cmd_simulate)

    p = _record_command(sub, "report", _cmd_report,
                        "emit the full benchmark report")
    p.add_argument("--reference", required=True)
    p.add_argument("--out", help="output file (json twin written alongside)")

    return parser


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        # a lone surrogate read from JSON prints escaped, not as a traceback
        sys.stdout.reconfigure(errors="backslashreplace")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
