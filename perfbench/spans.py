"""Span recorder for the traced run.

Spans are taken from outside the package: :func:`instrument` swaps the
public functions that the CLI handlers call (and the ones those call in
turn) for wrappers that open a span around each call, and puts the
originals back afterwards.  No file of the package changes.  Each span
keeps its name, start, end, parent and root; spans stay in memory and
are written out at the end as Chrome trace-event JSON.

A span's layer is the part of its name before the first dot, which is
the package module it times (``store.ingest`` belongs to ``store``).
Self time is a span's duration minus the time its child spans cover.
"""

import functools
import importlib
import json
import time
from contextlib import contextmanager

#: Span name -> the (module, attribute) places that hold the function.
#: These are the calls the CLI handlers and the workloads make (the CLI
#: imports some functions by name, so its copy is the one swapped), as
#: in ``cli.py``.  A call made from inside the package, such as
#: ``store.ingest`` into ``core.loads`` or ``ResultsStore.add`` into
#: ``index``, gets no span of its own and stays in the caller's self
#: time; the benchmark's decomposition pass times it apart.  A place that no longer exists is skipped, and its
#: span then counts 0.
FUNCTIONS = {
    "core.loads": [("hpcbench.cli", "loads")],
    "store.ingest": [("hpcbench.store", "ingest"), ("hpcbench.cli", "ingest")],
    "rules.validate_declaration": [("hpcbench.rules", "validate_declaration")],
    "rules.aggregate_runs": [("hpcbench.rules", "aggregate_runs")],
    "metrics.score_run": [("hpcbench.cli", "score_run")],
    "report.rank": [("hpcbench.report", "rank")],
    "report.emit_report": [("hpcbench.report", "emit_report")],
    "simulator.run_scenario": [("hpcbench.simulator", "run_scenario")],
    "simulator.simulate_training": [("hpcbench.simulator", "simulate_training")],
    "roofline.build_model": [("hpcbench.cli", "build_model")],
    "roofline.export_plot": [("hpcbench.cli", "export_plot")],
}

#: Calls counted without a span: ``core.loads`` from inside ingest.
COUNTED = {
    "core.loads": [("hpcbench.store", "loads")],
}

#: Span name -> (module, class, method) of the store's methods.
METHODS = {
    "store.load_all": ("hpcbench.store", "ResultsStore", "load_all"),
    "store.add_all": ("hpcbench.store", "ResultsStore", "add_all"),
    "store.add": ("hpcbench.store", "ResultsStore", "add"),
}


def _ingest_counts(result) -> dict:
    return {"records": len(result.records),
            "diagnostics": len(result.diagnostics)}


#: Span name -> function of the call's result giving span arguments.
ANNOTATE = {
    "store.ingest": _ingest_counts,
    "rules.validate_declaration": lambda result: {"violations": len(result)},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "args")

    def __init__(self, name, start, parent, root):
        self.name, self.start, self.parent, self.root = name, start, parent, root
        self.end, self.args = start, None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return (self.end - self.start) / 1e9


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = self.spans[parent].root if parent is not None else index
        self.spans.append(Span(name, time.perf_counter_ns(), parent, root))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, by span index."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def chrome_trace(self) -> dict:
        """Complete ('X') events, microseconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0
        events = []
        for i, s in enumerate(self.spans):
            args = {"parent": s.parent, "root": s.root, **(s.args or {})}
            events.append({"name": s.name, "cat": s.layer, "ph": "X",
                           "ts": (s.start - t0) / 1e3,
                           "dur": (s.end - s.start) / 1e3,
                           "pid": 1, "tid": 1, "id": i, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        path.write_text(json.dumps(self.chrome_trace()), encoding="utf-8")


def _wrap(recorder: Recorder, name: str, fn):
    annotate = ANNOTATE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if annotate is not None:
            recorder.spans[index].args = annotate(result)
        return result

    return traced


def _count(recorder: Recorder, name: str, fn):
    recorder.counts.setdefault(name, 0)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        recorder.counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _swap(saved, owner, attr, replacement):
    saved.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


@contextmanager
def instrument(recorder: Recorder):
    """Route the package's public functions through span wrappers for
    the duration of the block."""
    saved = []
    try:
        for table, make in ((FUNCTIONS, _wrap), (COUNTED, _count)):
            for name, places in table.items():
                for module_name, attr in places:
                    module = importlib.import_module(module_name)
                    if hasattr(module, attr):
                        _swap(saved, module, attr,
                              make(recorder, name, getattr(module, attr)))
        for name, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is not None and attr in vars(cls):
                _swap(saved, cls, attr, _wrap(recorder, name, vars(cls)[attr]))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
