"""Tests of the benchmark itself: input determinism, oracle checks
against tampered outputs, span self times, the metric registry, and a
smoke run of every workload.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/tests
"""

import filecmp
import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from hpcbench import cli  # noqa: E402


def _same_tree(a: Path, b: Path) -> bool:
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return names_a == names_b and all(
        filecmp.cmp(a / n, b / n, shallow=False) for n in names_a)


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    return inputs.build_read_store(tmp_path_factory.mktemp("rs"), seed=7,
                                   n=60, planted=5)


def _cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


class TestGenerator:
    def test_same_seed_gives_identical_files(self, tmp_path):
        inputs.build_read_store(tmp_path / "a", seed=3, n=40, planted=4)
        inputs.build_read_store(tmp_path / "b", seed=3, n=40, planted=4)
        assert _same_tree(tmp_path / "a", tmp_path / "b")
        inputs.build_sweep_inputs(tmp_path / "sa", seed=3)
        inputs.build_sweep_inputs(tmp_path / "sb", seed=3)
        assert _same_tree(tmp_path / "sa", tmp_path / "sb")
        assert (inputs.build_write_batch(3, n=20).docs
                == inputs.build_write_batch(3, n=20).docs)

    def test_different_seeds_give_different_files(self, tmp_path):
        inputs.build_read_store(tmp_path / "a", seed=3, n=40, planted=4)
        inputs.build_read_store(tmp_path / "b", seed=4, n=40, planted=4)
        assert not _same_tree(tmp_path / "a", tmp_path / "b")
        inputs.build_sweep_inputs(tmp_path / "sa", seed=3)
        inputs.build_sweep_inputs(tmp_path / "sb", seed=4)
        assert not _same_tree(tmp_path / "sa", tmp_path / "sb")
        assert (inputs.build_write_batch(3, n=20).docs
                != inputs.build_write_batch(4, n=20).docs)

    def test_run_ids_use_a_safe_charset(self, small_store):
        safe = re.compile(r"[A-Za-z0-9._-]+")
        ids = [f.run_id for f in small_store.facts]
        ids += list(inputs.build_write_batch(1, n=20).docs)
        assert all(safe.fullmatch(i) for i in ids)

    def test_write_batch_systems_differ(self):
        batch = inputs.build_write_batch(1)
        systems = {json.dumps(d["system"], sort_keys=True)
                   for d in batch.docs.values()}
        assert len(systems) == len(batch.docs)
        assert batch.duplicate in batch.runs[:len(batch.runs) // 2]


class TestOracle:
    """Each check passes on the program's real output and flags a
    tampered copy of it."""

    def test_rank_flags_a_missing_row(self, small_store):
        code, out = _cli("rank", "--store", str(small_store.root),
                         "--reference", str(small_store.reference),
                         "--format", "json")
        assert code == 2
        oracle.check_rank(out, small_store.facts)
        rows = json.loads(out)
        with pytest.raises(oracle.OracleError, match="row count"):
            oracle.check_rank(json.dumps(rows[1:]), small_store.facts)
        rows[0]["run_id"], rows[1]["run_id"] = rows[1]["run_id"], rows[0]["run_id"]
        with pytest.raises(oracle.OracleError, match="top run_id"):
            oracle.check_rank(json.dumps(rows), small_store.facts)

    def test_validate_flags_exactly_the_planted_records(self, small_store):
        code, out = _cli("validate", "--store", str(small_store.root),
                         "--reference", str(small_store.reference),
                         "--format", "json")
        assert code == 2
        oracle.check_validate(out, small_store.facts)
        entries = oracle.json_document(out)
        next(e for e in entries if e["violations"])["violations"] = []
        with pytest.raises(oracle.OracleError, match="flagged"):
            oracle.check_validate(json.dumps(entries), small_store.facts)

    def test_report_and_aggregate_flag_a_wrong_mean(self, small_store):
        picked = [f for f in small_store.facts if f.config == "mixed-64"]
        code, out = _cli("report", "--store", str(small_store.root),
                         "--reference", str(small_store.reference),
                         "--select", "rs-mixed-64-*", "--format", "json")
        assert code in (0, 2)
        oracle.check_report(out, picked)
        doc = json.loads(out)
        doc["scores"]["aggregate"]["mean"]["vflops"] *= 1 + 1e-6
        with pytest.raises(oracle.OracleError, match="mean vflops"):
            oracle.check_report(json.dumps(doc), picked)

        code, out = _cli("aggregate", "--store", str(small_store.root),
                         "--select", "rs-mixed-64-*", "--format", "json")
        assert code == 0
        oracle.check_aggregate(out, picked)
        doc = json.loads(out)
        doc["mean_scores"]["vflops"] *= 1 - 1e-6
        with pytest.raises(oracle.OracleError, match="mean vflops"):
            oracle.check_aggregate(json.dumps(doc), picked)

    def test_accepted_duplicate_and_lost_record_are_flagged(self):
        with pytest.raises(oracle.OracleError, match="accepted"):
            oracle.check_duplicate_rejected(None)
        batch = inputs.build_write_batch(2, n=6)
        oracle.check_round_trip(dict(batch.docs), batch.docs)
        stored = dict(batch.docs)
        stored.pop(next(iter(stored)))
        with pytest.raises(oracle.OracleError, match="stored run ids"):
            oracle.check_round_trip(stored, batch.docs)

    def test_simulate_and_roofline_invariants(self, tmp_path):
        sweep = inputs.build_sweep_inputs(tmp_path, seed=5)
        sc = sweep.scenarios[0]
        code, out = _cli("simulate", str(sc.path), "--format", "json")
        assert code == 0
        oracle.check_simulate(out, sc, inputs.SWEEP_SCALES)
        rows = json.loads(out)
        rows[-1]["phase_timeline"]["allreduce"] *= 2
        with pytest.raises(oracle.OracleError, match="step time"):
            oracle.check_simulate(json.dumps(rows), sc, inputs.SWEEP_SCALES)

        r = sweep.rooflines[0]
        csv_path, svg_path = tmp_path / "r.csv", tmp_path / "r.svg"
        code, _ = _cli("roofline", "--system", str(r.system), "--mode", r.mode,
                       "--precision", r.precision, "--ceilings", str(r.ceilings),
                       "--points", str(r.points), "--out-csv", str(csv_path),
                       "--out-svg", str(svg_path))
        assert code == 0
        csv_text, svg_text = csv_path.read_text(), svg_path.read_text()
        oracle.check_roofline(csv_text, svg_text, r.peak_flops)
        with pytest.raises(oracle.OracleError, match="peak"):
            oracle.check_roofline(csv_text, svg_text, r.peak_flops / 2)
        with pytest.raises(oracle.OracleError, match="SVG"):
            oracle.check_roofline(csv_text, svg_text[:-10], r.peak_flops)


class TestSpans:
    def test_self_time_subtracts_children(self):
        rec = spans.Recorder()
        outer = rec.open("cli.rank")
        inner = rec.open("store.ingest")
        rec.close(inner)
        rec.close(outer)
        rec.spans[outer].start, rec.spans[outer].end = 0, 10_000
        rec.spans[inner].start, rec.spans[inner].end = 2_000, 9_000
        own = rec.self_times()
        assert own == [pytest.approx(3e-6), pytest.approx(7e-6)]
        assert rec.spans[inner].parent == outer and rec.spans[inner].root == outer
        events = rec.chrome_trace()["traceEvents"]
        assert [e["name"] for e in events] == ["cli.rank", "store.ingest"]

    def test_instrument_restores_the_package(self, small_store):
        from hpcbench import rules, store

        before = (rules.validate_declaration, store.ResultsStore.load_all,
                  cli.loads)
        rec = spans.Recorder()
        with spans.instrument(rec):
            _cli("validate", "--store", str(small_store.root),
                 "--reference", str(small_store.reference))
        assert (rules.validate_declaration, store.ResultsStore.load_all,
                cli.loads) == before
        names = {s.name for s in rec.spans}
        assert {"core.loads", "store.load_all", "store.ingest",
                "rules.validate_declaration"} <= names
        assert rec.counts["core.loads"] == len(small_store.facts)


def test_registry_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    units = {**run.END_TO_END, **run.PER_LAYER}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == units[m["name"]]


def test_smoke_runs_every_workload_once():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--smoke", "--seed", "11"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(summary) == 2 * len(run.WORKLOAD_NAMES)
    for key, result in summary.items():
        assert result["correct"] and result["failed"] == 0, key
        expected = run.PER_LAYER if key.endswith("trace1") else run.END_TO_END
        assert list(result["metrics"]) == list(expected), key


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_shared",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
