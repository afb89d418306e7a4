"""The three benchmark workloads.

Load model: a closed loop with one client in one process.  Each
operation runs to completion before the next starts; CLI commands run
in-process through ``hpcbench.cli.main(argv)`` with stdout captured and
checked.  Only the call into the package is timed; oracle checks and
store clean-up happen between timed operations.

An operation fails when it raises, returns an unexpected exit code, or
fails an oracle check.
"""

import io
import json
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from hpcbench import cli
from hpcbench.errors import BenchError
from hpcbench.store import ResultsStore

import inputs
import oracle
from calibration import Calibrator

EXIT_OK, EXIT_VIOLATIONS = 0, 2


@dataclass
class Op:
    """One timed operation: the command it ran, its wall time, the work
    items it covered and, when it failed, why."""

    command: str
    seconds: float
    items: int
    error: Optional[str] = None
    cal_index: int = 0
    ref_seconds: float = 0.0


@dataclass
class Context:
    """What an iteration's operations share: the calibrator, and the
    span recorder when the iteration is traced."""

    cal: Calibrator
    recorder: Optional[object] = None


def run_iteration(workload, index: int, cal: Calibrator,
                  recorder=None) -> list:
    """Run one iteration and rescale each operation's wall time by the
    calibration samples around it."""
    ops = workload.iteration(index, Context(cal, recorder))
    cal.mark(force=True)
    for op in ops:
        op.ref_seconds = op.seconds * cal.scale(op.cal_index)
    return ops


def _run(command: str, items: int, call, check, ctx: Context) -> Op:
    """Time ``call()`` (under a root span named ``cli.<command>`` when
    tracing a CLI command) and then run ``check`` on its result."""
    recorder = ctx.recorder
    cal_index = ctx.cal.mark()
    out, err = io.StringIO(), io.StringIO()
    result = raised = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            if recorder is not None and command in CLI_COMMANDS:
                with recorder.span(f"cli.{command}"):
                    result = call()
            else:
                result = call()
        except (Exception, SystemExit) as exc:
            raised = exc
        seconds = time.perf_counter() - start
    op = Op(command, seconds, items, cal_index=cal_index)
    try:
        check(result, raised, out.getvalue())
    except oracle.OracleError as exc:
        op.error = f"{exc}; stderr: {err.getvalue()[-300:]!r}"
    except Exception:  # a check tripping over malformed output is a failure
        op.error = traceback.format_exc(limit=2)
    return op


def _cli(command: str, argv: list, items: int, expected_code: int,
         check_stdout, ctx: Context) -> Op:
    def check(code, raised, stdout):
        if raised is not None:
            raise oracle.OracleError(f"{command} raised {raised!r}")
        if code != expected_code:
            raise oracle.OracleError(
                f"{command} exit code {code}, expected {expected_code}")
        check_stdout(stdout)

    return _run(command, items, lambda: cli.main([command, *argv]), check,
                ctx)


CLI_COMMANDS = ("rank", "validate", "report", "aggregate", "score",
                "simulate", "roofline")

#: Command -> (end-to-end rate metric, unit).
RATES = {
    "rank": ("rank_records_per_s", "records/s"),
    "validate": ("validate_records_per_s", "records/s"),
    "report": ("report_records_per_s", "records/s"),
    "aggregate": ("aggregate_records_per_s", "records/s"),
    "add": ("add_records_per_s", "records/s"),
    "score": ("score_records_per_s", "records/s"),
    "simulate": ("simulate_runs_per_s", "runs/s"),
    "roofline": ("roofline_plots_per_s", "plots/s"),
}


class Workload:
    """Hooks the benchmark's decomposition pass and ingest figures use;
    a workload that does not exercise a layer keeps the empty default."""

    #: Seconds the input generator took; set by the benchmark.
    generate_s = 0.0

    def ingest_bytes(self) -> int:
        """Bytes one ingest call of this workload reads."""
        return 0

    def record_texts(self) -> list:
        """Record documents to time ``core.loads`` on."""
        return []

    def placed_runs(self) -> list:
        """Run records to time ``roofline.place_run`` on."""
        return []

    def indexed_store(self):
        """The store to time ``ResultsStore.index`` on, if any."""
        return None


class ReadShared(Workload):
    """2000 stored records with byte-identical system/workload
    sub-documents; each iteration ranks, validates, reports and
    aggregates them, so ingest dominates."""

    name = "read_shared"

    def __init__(self, work: Path, seed: int):
        self.store = inputs.build_read_store(work, seed)
        self.by_config = {}
        for f in self.store.facts:
            self.by_config.setdefault(f.config, []).append(f)
        self.configs = [c[0] for c in inputs.READ_CONFIGS]

    def describe(self) -> str:
        s = self.store
        return (f"{len(s.facts)} records over {len(self.configs)} "
                f"configurations, {sum(f.planted for f in s.facts)} planted "
                f"layer-5 violations, {s.bytes} bytes; system/workload "
                f"sub-documents {s.distinct_subdocs} distinct of {s.subdocs} "
                f"({s.distinct_subdocs / s.subdocs:.2%})")

    def iteration(self, index: int, ctx: Context) -> list:
        s = self.store
        root, ref = str(s.root), str(s.reference)
        n = len(s.facts)
        config = self.configs[index % len(self.configs)]
        picked = self.by_config[config]
        select = f"rs-{config}-*"
        report_code = (EXIT_VIOLATIONS if any(f.planted for f in picked)
                       else EXIT_OK)
        return [
            _cli("rank", ["--store", root, "--reference", ref, "--format",
                          "json"], n, EXIT_VIOLATIONS,
                 lambda out: oracle.check_rank(out, s.facts), ctx),
            _cli("validate", ["--store", root, "--reference", ref, "--format",
                              "json"], n, EXIT_VIOLATIONS,
                 lambda out: oracle.check_validate(out, s.facts), ctx),
            _cli("report", ["--store", root, "--reference", ref, "--select",
                            select, "--format", "json"], n, report_code,
                 lambda out: oracle.check_report(out, picked), ctx),
            _cli("aggregate", ["--store", root, "--select", select,
                               "--format", "json"], n, EXIT_OK,
                 lambda out: oracle.check_aggregate(out, picked), ctx),
        ]

    def ingest_bytes(self) -> int:
        return self.store.bytes

    def record_texts(self) -> list:
        return [p.read_text(encoding="utf-8")
                for p in sorted(self.store.root.rglob("*.json"))]


class WriteDistinct(Workload):
    """200 records with distinct system sub-documents written into a
    fresh store through two ``ResultsStore`` objects, a cross-object
    duplicate, and a read-back with ``score``."""

    name = "write_distinct"

    def __init__(self, work: Path, seed: int):
        self.batch = inputs.build_write_batch(seed)
        self.root = work / "store"

    def describe(self) -> str:
        b = self.batch
        return (f"{len(b.runs)} records over 2 workloads and per-record "
                f"systems; system/workload sub-documents "
                f"{b.distinct_subdocs} distinct of {b.subdocs} "
                f"({b.distinct_subdocs / b.subdocs:.2%})")

    def _stored(self) -> dict:
        return {p.stem: json.loads(p.read_text(encoding="utf-8"))
                for p in self.root.glob("*/*.json")}

    def iteration(self, index: int, ctx: Context) -> list:
        b = self.batch
        half = len(b.runs) // 2
        shutil.rmtree(self.root, ignore_errors=True)

        def no_raise(result, raised, stdout):
            if raised is not None:
                raise oracle.OracleError(f"add_all raised {raised!r}")

        def round_trip(result, raised, stdout):
            no_raise(result, raised, stdout)
            oracle.check_round_trip(self._stored(), b.docs)

        def duplicate(result, raised, stdout):
            if raised is not None and not isinstance(raised, BenchError):
                raise oracle.OracleError(f"re-add raised {raised!r}")
            oracle.check_duplicate_rejected(raised)
            path = self.root / b.duplicate.workload.name / f"{b.duplicate.run_id}.json"
            if json.loads(path.read_text(encoding="utf-8")) != b.docs[b.duplicate.run_id]:
                raise oracle.OracleError("rejected re-add changed the stored record")

        return [
            _run("add", half,
                 lambda: ResultsStore(self.root).add_all(b.runs[:half]),
                 no_raise, ctx),
            _run("add", len(b.runs) - half,
                 lambda: ResultsStore(self.root).add_all(b.runs[half:]),
                 round_trip, ctx),
            _run("add_duplicate", 1,
                 lambda: ResultsStore(self.root).add(b.duplicate),
                 duplicate, ctx),
            _cli("score", ["--store", str(self.root), "--format", "json"],
                 len(b.runs), EXIT_OK,
                 lambda out: oracle.check_score(out, b.facts), ctx),
        ]

    def ingest_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.glob("*/*.json"))

    def record_texts(self) -> list:
        return [p.read_text(encoding="utf-8")
                for p in sorted(self.root.glob("*/*.json"))]

    def indexed_store(self):
        return ResultsStore(self.root)


class SimulateSweep(Workload):
    """``simulate`` over a grid of scenarios and ``roofline`` per
    (mode, precision); the store does no work."""

    name = "simulate_sweep"

    def __init__(self, work: Path, seed: int):
        self.inputs = inputs.build_sweep_inputs(work, seed)
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)

    def describe(self) -> str:
        return (f"{len(self.inputs.scenarios)} scenarios x "
                f"{len(inputs.SWEEP_SCALES)} scales, "
                f"{len(self.inputs.rooflines)} rooflines; no store")

    def iteration(self, index: int, ctx: Context) -> list:
        ops = []
        scales = inputs.SWEEP_SCALES
        for sc in self.inputs.scenarios:
            ops.append(_cli(
                "simulate", [str(sc.path), "--format", "json"], len(scales),
                EXIT_OK, lambda out, sc=sc: oracle.check_simulate(out, sc, scales),
                ctx))
        for r in self.inputs.rooflines:
            csv_path = self.out / f"roofline-{r.mode}-{r.precision}.csv"
            svg_path = csv_path.with_suffix(".svg")
            csv_path.unlink(missing_ok=True)
            svg_path.unlink(missing_ok=True)

            def check(out, r=r, csv_path=csv_path, svg_path=svg_path):
                oracle.check_roofline(csv_path.read_text(encoding="utf-8"),
                                      svg_path.read_text(encoding="utf-8"),
                                      r.peak_flops)

            ops.append(_cli(
                "roofline", ["--system", str(r.system), "--mode", r.mode,
                             "--precision", r.precision,
                             "--ceilings", str(r.ceilings),
                             "--points", str(r.points),
                             "--out-csv", str(csv_path),
                             "--out-svg", str(svg_path)],
                1, EXIT_OK, check, ctx))
        return ops

    def placed_runs(self) -> list:
        return [run for r in self.inputs.rooflines for run in r.point_runs]


WORKLOADS = {w.name: w for w in (ReadShared, WriteDistinct, SimulateSweep)}
