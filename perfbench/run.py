"""hpcbench benchmark: three fixed workloads, end-to-end and per-layer
metrics, and a separately traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read_shared --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke   # every workload once

The package is imported from ``src/`` of the checkout; the benchmark
refuses to run (exit 2, no result) when that tree is missing.  Inputs
are generated from ``--seed`` under ``perfbench/.work/``; ``hpcbench``
sees only those files.

Load model: closed loop, one client, one process, no threads.  Timed
iterations follow one untimed warm-up iteration, so the page cache is
warm; a cold-cache run would need dropping the page cache, which this
benchmark does not do.  The only child processes are the cold-start
probes, run one at a time.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics: span self times per package module,
per-call figures, the trace's coverage and overhead, and the
per-command rates.  A per-layer figure of a function the workload never
calls reads 0.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it repeat every figure with its unit, sample count and tail percentile.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOAD_NAMES = ("read_shared", "write_distinct", "simulate_sweep")

END_TO_END = {
    "iteration_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYERS = ("core", "store", "rules", "metrics", "report", "simulator",
          "roofline", "cli")
COMMANDS = ("rank", "validate", "report", "aggregate", "score", "simulate",
            "roofline")

PER_LAYER = {
    "core.loads.calls": "count",
    "core.loads.us_per_record": "us",
    "store.ingest.s": "s",
    "store.ingest.records_per_s": "records/s",
    "store.ingest.mb_per_s": "MiB/s",
    "store.ingest.accept_ratio": "ratio",
    "store.add.calls": "count",
    "store.add.ms_per_call_p50": "ms",
    "store.add.ms_per_call_p90": "ms",
    "store.add.growth": "ratio",
    "store.index.s": "s",
    "rules.validate_declaration.us_per_call": "us",
    "rules.validate_declaration.violations": "count",
    "rules.aggregate_runs.ms": "ms",
    "metrics.score_run.us_per_call": "us",
    "report.rank.ms": "ms",
    "report.emit_report.ms": "ms",
    "simulator.simulate_training.us_per_call": "us",
    "simulator.run_scenario.ms": "ms",
    "roofline.place_run.us_per_call": "us",
    "roofline.build_model.us_per_call": "us",
    "roofline.export_plot.ms_per_call": "ms",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"cli.self_s.{c}": "s" for c in COMMANDS},
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "rank_records_per_s": "records/s",
    "validate_records_per_s": "records/s",
    "report_records_per_s": "records/s",
    "aggregate_records_per_s": "records/s",
    "add_records_per_s": "records/s",
    "score_records_per_s": "records/s",
    "simulate_runs_per_s": "runs/s",
    "roofline_plots_per_s": "plots/s",
}

PROBE = ("import time\nt = time.perf_counter()\ntry:\n    import {module}\n"
         "except ImportError:\n    pass\nprint(time.perf_counter() - t)\n")


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return math.floor(100 * k / n), sorted(values)[k - 1]


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def describe_timing(values, unit):
    t = tail(values)
    beyond = f"p{t[0]} {t[1]:.6g} {unit}" if t else "no tail percentile"
    return f"median {median(values):.6g} {unit}, {beyond}, n={len(values)}"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(), "seed": seed}


def probe(module: str, starts: int, cal):
    """Start a fresh interpreter that imports ``module``, one at a time;
    the first start is a warm-up.  Returns the wall seconds of each
    start, the same rescaled to reference speed by the calibration
    samples around it, and the import seconds measured in the child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    walls, refs, imports = [], [], []
    for i in range(starts + 1):
        before = cal.mark(force=True, loops=5)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", PROBE.format(module=module)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        wall = time.perf_counter() - start
        cal.mark(force=True, loops=5)
        if i:
            walls.append(wall)
            refs.append(wall * cal.scale(before))
            imports.append(float(done.stdout.strip()))
    return walls, refs, imports


def decompose(workload, smoke: bool) -> dict:
    """Untraced per-call timings of ``core.loads`` on pre-read record
    text (decode and validate without file I/O), of
    ``ResultsStore.index`` on the store the workload wrote, and of
    ``roofline.place_run`` on the records placed at set-up."""
    from hpcbench import core, roofline

    out = {"core.loads.us_per_record": 0.0, "store.index.s": 0.0,
           "roofline.place_run.us_per_call": 0.0}
    texts = workload.record_texts()
    if texts:
        per = []
        for _ in range(1 if smoke else 3):
            start = time.perf_counter()
            for text in texts:
                core.loads(text, "run")
            per.append((time.perf_counter() - start) / len(texts))
        out["core.loads.us_per_record"] = median(per) * 1e6
    store = workload.indexed_store()
    if store is not None:
        per = []
        for _ in range(1 if smoke else 5):
            start = time.perf_counter()
            store.index()
            per.append(time.perf_counter() - start)
        out["store.index.s"] = median(per)
    runs = workload.placed_runs()
    if runs:
        per = []
        for _ in range(3 if smoke else 25):
            start = time.perf_counter()
            for _ in range(20):
                for run in runs:
                    roofline.place_run(run)
            per.append((time.perf_counter() - start) / (20 * len(runs)))
        out["roofline.place_run.us_per_call"] = median(per) * 1e6
    return out


def command_rates(iterations, field: str = "ref_seconds") -> dict:
    """Median over iterations of each command's items per second."""
    from workloads import RATES

    per = {metric: [] for metric, _ in RATES.values()}
    for ops in iterations:
        totals = {}
        for op in ops:
            if op.command in RATES:
                items, seconds = totals.get(op.command, (0, 0.0))
                totals[op.command] = (items + op.items,
                                      seconds + getattr(op, field))
        for command, (items, seconds) in totals.items():
            per[RATES[command][0]].append(items / seconds)
    return per


def trace_metrics(recorders, workload):
    """Per-layer figures from the traced iterations' spans, and the self
    time of each span name per iteration."""
    n = len(recorders)
    durations, span_self = {}, {}
    cmd_self = {c: [] for c in COMMANDS}
    growth, ingest_records, ingest_seen = [], 0, 0
    violations, validate_roots = 0, 0
    root_time = 0.0
    for rec in recorders:
        adds = []
        for s, own in zip(rec.spans, rec.self_times()):
            durations.setdefault(s.name, []).append(s.duration)
            span_self[s.name] = span_self.get(s.name, 0.0) + own / n
            root = rec.spans[s.root]
            if s.parent is None:
                root_time += s.duration
                if s.layer == "cli":
                    cmd_self[s.name.split(".", 1)[1]].append(own)
                validate_roots += s.name == "cli.validate"
            if s.name == "store.ingest" and s.args:
                ingest_records += s.args["records"]
                ingest_seen += s.args["records"] + s.args["diagnostics"]
            if s.name == "rules.validate_declaration" and root.name == "cli.validate":
                violations += (s.args or {}).get("violations", 0)
            if s.name == "store.add" and root.name == "store.add_all":
                adds.append(s.duration)
        if adds:
            k = max(1, len(adds) // 10)
            growth.append(statistics.fmean(adds[-k:]) / statistics.fmean(adds[:k]))

    def d(name):
        return durations.get(name, [])

    def per_call(name, scale):
        v = d(name)
        return sum(v) / len(v) * scale if v else 0.0

    def layer_self(layer):
        return sum(t for name, t in span_self.items()
                   if name.split(".", 1)[0] == layer)

    ingest, adds = d("store.ingest"), d("store.add")
    m = {
        "core.loads.calls": (len(d("core.loads"))
                             + sum(r.counts.get("core.loads", 0)
                                   for r in recorders)) / n,
        "store.ingest.s": median(ingest),
        "store.ingest.records_per_s": ingest_records / sum(ingest) if ingest else 0.0,
        "store.ingest.mb_per_s": (len(ingest) * workload.ingest_bytes() / 2 ** 20
                                  / sum(ingest)) if ingest else 0.0,
        "store.ingest.accept_ratio": (ingest_records / ingest_seen
                                      if ingest_seen else 0.0),
        "store.add.calls": len(adds) / n,
        "store.add.ms_per_call_p50": median(adds) * 1e3,
        "store.add.ms_per_call_p90": nearest_rank(adds, 0.9) * 1e3 if adds else 0.0,
        "store.add.growth": median(growth),
        "rules.validate_declaration.us_per_call": per_call("rules.validate_declaration", 1e6),
        "rules.validate_declaration.violations": (violations / validate_roots
                                                  if validate_roots else 0.0),
        "rules.aggregate_runs.ms": median(d("rules.aggregate_runs")) * 1e3,
        "metrics.score_run.us_per_call": per_call("metrics.score_run", 1e6),
        "report.rank.ms": median(d("report.rank")) * 1e3,
        "report.emit_report.ms": median(d("report.emit_report")) * 1e3,
        "simulator.simulate_training.us_per_call": per_call("simulator.simulate_training", 1e6),
        "simulator.run_scenario.ms": median(d("simulator.run_scenario")) * 1e3,
        "roofline.build_model.us_per_call": per_call("roofline.build_model", 1e6),
        "roofline.export_plot.ms_per_call": per_call("roofline.export_plot", 1e3),
        "trace.coverage": (sum(layer_self(layer) for layer in LAYERS if layer != "cli")
                           * n / root_time if root_time else 0.0),
    }
    m.update({f"{layer}.self_s": layer_self(layer) for layer in LAYERS})
    m.update({f"cli.self_s.{c}": median(v) for c, v in cmd_self.items()})
    return m, span_self


def trace_path(args) -> Path:
    """Where the first traced iteration's Chrome trace goes."""
    return WORK / "traces" / f"{args.workload}-seed{args.seed}.json"


def measure(args):
    """Probe, set up, and run the timed loop.  Returns the workload,
    its metrics, the timing samples behind them, the operations run and
    the per-span self times (traced runs only)."""
    import spans
    from calibration import Calibrator
    from workloads import WORKLOADS, run_iteration

    cal = Calibrator()
    setup_walls, setup_refs, import_times = probe(
        "hpcbench.cli", 2 if args.smoke else 15, cal)
    numpy_times = probe("numpy", 1 if args.smoke else 5, cal)[2] if args.trace else []

    start = time.perf_counter()
    workload = WORKLOADS[args.workload](WORK / args.workload, args.seed)
    workload.generate_s = time.perf_counter() - start

    if not args.smoke:
        run_iteration(workload, -1, cal)
    untraced, traced, recorders = [], [], []
    index = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        gc.collect()
        if args.trace and index % 2:
            rec = spans.Recorder()
            with spans.instrument(rec):
                traced.append(run_iteration(workload, index, cal, rec))
            recorders.append(rec)
        else:
            untraced.append(run_iteration(workload, index, cal))
        index += 1
        if index >= (2 if args.trace else 1) and (
                args.smoke or time.perf_counter() >= deadline):
            break

    iteration_times = [sum(op.ref_seconds for op in it) for it in untraced]
    rates = command_rates(untraced)
    metrics = {
        "iteration_ref_s": median(iteration_times),
        "setup_s": median(setup_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **{name: median(v) for name, v in rates.items()},
        "cli.import_s": median(import_times),
    }
    timings = {"iteration_ref_s": iteration_times, "setup_s": setup_refs,
               **rates, "cli.import_s": import_times}
    wall = {"iteration_wall_s": [sum(op.seconds for op in it) for it in untraced],
            "setup_wall_s": setup_walls,
            **{f"{name}.wall": v
               for name, v in command_rates(untraced, "seconds").items() if v},
            "calibration_loop_s": cal.samples}
    span_self = {}
    if args.trace:
        layer_metrics, span_self = trace_metrics(recorders, workload)
        traced_times = [sum(op.ref_seconds for op in it) for it in traced]
        metrics.update(layer_metrics)
        metrics.update(decompose(workload, args.smoke))
        metrics["cli.import_numpy_s"] = median(numpy_times)
        metrics["trace.overhead"] = median(traced_times) / median(iteration_times) - 1
        timings.update({"cli.import_numpy_s": numpy_times,
                        "traced_iteration_ref_s": traced_times})
        path = trace_path(args)
        path.parent.mkdir(parents=True, exist_ok=True)
        recorders[0].write(path)
    ops = [op for it in untraced + traced for op in it]
    return workload, metrics, timings, wall, ops, span_self


def run_workload(args) -> int:
    if not (SRC / "hpcbench" / "__init__.py").is_file():
        print(f"error: no hpcbench package under {SRC}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    workload, metrics, timings, wall, ops, span_self = measure(args)
    failed = [op for op in ops if op.error]
    for op in failed[:5]:
        print(f"FAILED {op.command}: {op.error}", file=sys.stderr)

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# load: closed loop, 1 client, in-process cli.main, no threads; "
          "page cache warm (no cache drop)")
    print(f"# input: {workload.describe()}; generated in "
          f"{workload.generate_s:.3f} s")
    units = {**END_TO_END, **PER_LAYER}
    for name, value in metrics.items():
        if name in timings and not timings[name]:
            detail = "0 (not run by this workload)"
        elif name in timings:
            detail = describe_timing(timings[name], units[name])
        else:
            detail = f"{value:.6g} {units[name]}"
        print(f"{name:42s} {detail}")
    for name, values in wall.items():
        unit = "s" if name.endswith("_s") else units[name[:-len(".wall")]]
        print(f"{name:42s} {describe_timing(values, unit)} (raw wall clock)")
    print(f"{'error_rate':42s} {len(failed) / len(ops):.6g} "
          f"({len(failed)} failed / {len(ops)} attempted)")
    if span_self:
        print("# self time per traced iteration by span: " + ", ".join(
            f"{name} {t:.4g} s"
            for name, t in sorted(span_self.items(), key=lambda kv: -kv[1])))
        print(f"# trace written to {trace_path(args).relative_to(ROOT)}")

    reported = PER_LAYER if args.trace else END_TO_END
    result = {"correct": not failed, "attempted": len(ops),
              "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in reported.items()}}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "environment": env, "timings": timings,
                              "wall_timings": wall, "all_metrics": metrics},
                             indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, one child process at a
    time so each peak RSS belongs to one workload."""
    summary, code = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                argv.append("--smoke")
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            code = max(code, done.returncode)
            lines = done.stdout.strip().splitlines()
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1]) if (
                done.returncode == 0 and lines) else None
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one iteration per mode and few probes")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
