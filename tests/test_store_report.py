import json
import os
from dataclasses import replace

import pytest

from hpcbench.core import BenchLevel, PrecisionMode, RunRecord, dumps, loads
from hpcbench.errors import (
    BenchError,
    DuplicateRun,
    IncomparableWorkloads,
    IncompleteReport,
    SchemaError,
)
from hpcbench.metrics import Score, score_run, vflops
from hpcbench.presets import (
    case_study_system,
    ewa_workload,
    image_classification_workload,
    reference_declaration,
)
from hpcbench.report import emit_report, rank, vflops_ratio
from hpcbench.rules import Severity, Violation, aggregate_runs
from hpcbench.store import IngestResult, ResultsStore, ingest
from hpcbench.units import TERA


def make_run(run_id="r1", quality=None, wall_time=1000.0, scale=8,
             workload=None, sps=5.75, power=None, epochs=50.0):
    workload = workload or ewa_workload()
    return RunRecord(
        run_id=run_id, workload=workload, system=case_study_system(),
        scale=scale, precision=PrecisionMode.FP32, global_batchsize=scale,
        achieved_quality=workload.target_quality.value if quality is None
        else quality,
        wall_time=wall_time, epochs_to_quality=epochs,
        samples_per_second_per_rank=sps, num_ranks=scale,
        level=BenchLevel.HARDWARE,
        declaration=reference_declaration(workload), average_power=power)


class TestStore:
    def test_round_trip_identity(self, tmp_path):
        store = ResultsStore(tmp_path)
        run = make_run()
        path = store.add(run)
        assert path.parent.name == run.workload.name
        assert store.load(run.run_id) == run

    def test_duplicate_rejected(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.add(make_run())
        with pytest.raises(DuplicateRun):
            store.add(make_run())

    def test_lock_released_after_write(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.add(make_run())
        assert not (tmp_path / ResultsStore.LOCK_NAME).exists()

    def test_stale_lock_blocks_writers(self, tmp_path):
        store = ResultsStore(tmp_path)
        lock = tmp_path / ResultsStore.LOCK_NAME
        lock.touch()
        with pytest.raises(BenchError, match=r"locked by another writer \(remove"):
            store.add(make_run())
        lock.write_text("pid 4242 on node7 since 2020-01-02T03:04:05Z\n")
        with pytest.raises(BenchError, match=r"writer \(pid 4242 on node7 "
                           r"since 2020-01-02T03:04:05Z\)"):
            store.add(make_run())
        lock.unlink()
        store._acquire_lock()
        try:
            with pytest.raises(BenchError, match=f"pid {os.getpid()} on "):
                ResultsStore(tmp_path).add(make_run())
        finally:
            store._release_lock()
        assert not any(tmp_path.iterdir())

    def test_same_id_under_another_workload_is_duplicate(self, tmp_path, ic):
        store = ResultsStore(tmp_path)
        store.add(make_run(run_id="x"))
        with pytest.raises(DuplicateRun, match="'x' already stored"):
            store.add(make_run(run_id="x", workload=ic, scale=16, sps=100.0))
        assert not (tmp_path / ic.name).exists()

    def test_duplicate_written_by_another_store_object(self, tmp_path):
        a, b = ResultsStore(tmp_path), ResultsStore(tmp_path)
        a.add(make_run(run_id="x"))
        path = b.add(make_run(run_id="y"))
        stored = path.read_bytes()
        with pytest.raises(DuplicateRun):
            a.add(make_run(run_id="y", wall_time=2000.0))
        assert path.read_bytes() == stored

    def test_add_does_not_read_the_store(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path)
        store.add_all(make_run(run_id=f"r{i}") for i in range(50))

        def no_index(self):
            raise AssertionError("add rebuilt the index")

        monkeypatch.setattr(ResultsStore, "index", no_index)
        assert store.add(make_run(run_id="r50")).exists()
        with pytest.raises(DuplicateRun):
            store.add(make_run(run_id="r7"))

    def test_overwrite_replaces_record(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.add(make_run(wall_time=1000.0))
        store.add(make_run(wall_time=2000.0), overwrite=True)
        assert store.load("r1").wall_time == 2000.0
        assert [p.name for p in tmp_path.rglob("*")] == ["extreme_weather",
                                                         "r1.json"]

    def test_record_bytes(self, tmp_path):
        run = make_run()
        path = ResultsStore(tmp_path).add(run)
        assert path.read_text() == json.dumps(run.to_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("run_id, workload_name", [
        ("../../escaped", None), ("../escaped", None), ("a/b", None),
        (".hidden", None), ("-flag", None), ("x y", None), ("r\n", None),
        ("r1", "../../escaped"), ("r1", ".."), ("r1", "a/b"),
    ])
    def test_unsafe_path_components_rejected(self, tmp_path, run_id,
                                             workload_name):
        # Deep enough that every escape tried here would land in tmp_path.
        root = tmp_path / "a" / "b" / "store"
        store = ResultsStore(root)
        workload = ewa_workload()
        if workload_name is not None:
            workload = replace(workload, name=workload_name)
        run = make_run(run_id=run_id, workload=workload)
        with pytest.raises(SchemaError, match="safe path component") as info:
            store.add(run)
        assert info.value.exit_code == 3
        assert sorted(tmp_path.rglob("*")) == [root.parent.parent,
                                               root.parent, root]

    def test_longest_record_name_is_writable(self, tmp_path):
        longest = os.pathconf(tmp_path, "PC_NAME_MAX") - len(".json")
        assert ResultsStore(tmp_path).add(make_run(run_id="r" * longest)).exists()

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path)

        def fail(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            store.add(make_run())
        assert [p.name for p in tmp_path.rglob("*")] == ["extreme_weather"]
        monkeypatch.undo()
        assert store.add(make_run()).exists()

    def test_leftover_temporary_file_is_ignored(self, tmp_path):
        # What a crash between the write and the rename leaves behind.
        (tmp_path / "extreme_weather").mkdir()
        (tmp_path / "extreme_weather" / ".r1.tmp").write_text('{"run_id": "r')
        store = ResultsStore(tmp_path)
        store.add(make_run())
        assert store.load_all().clean
        assert [r.run_id for r in store.load_all().records] == ["r1"]

    def test_index_rebuild(self, tmp_path):
        store = ResultsStore(tmp_path)
        runs = [make_run(run_id=f"r{i}") for i in range(3)]
        store.add_all(runs)
        idx = store.index()
        assert set(idx) == {"r0", "r1", "r2"}

    def test_index_file_is_derived_and_ignored_by_ingest(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.add(make_run())
        index_path = store.write_index()
        assert index_path.name == ResultsStore.INDEX_NAME
        assert json.loads(index_path.read_text()) == {
            "r1": "extreme_weather/r1.json"}
        assert len(ingest(tmp_path).records) == 1  # index file skipped

    def test_load_all_by_workload(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.add(make_run(run_id="e1"))
        store.add(make_run(run_id="i1", workload=image_classification_workload(),
                           scale=16, sps=100.0))
        result = store.load_all(workload="extreme_weather")
        assert [r.run_id for r in result.records] == ["e1"]


class TestIngest:
    def test_empty_directory(self, tmp_path):
        result = ingest(tmp_path)
        assert result.records == () and result.diagnostics == ()

    def test_clean_fixture_directory(self, tmp_path, ranking_runs):
        runs, _ = ranking_runs
        store = ResultsStore(tmp_path)
        store.add_all(runs[:10])
        result = ingest(tmp_path)
        assert len(result.records) == 10
        assert result.clean

    def test_invariant_breach_becomes_diagnostic(self, tmp_path):
        doc = json.loads(dumps(make_run()))
        doc["achieved_quality"] = 1.5
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        result = ingest(tmp_path)
        assert result.records == ()
        assert len(result.diagnostics) == 1
        assert "achieved_quality" in result.diagnostics[0].error

    def test_missing_field_becomes_diagnostic(self, tmp_path):
        doc = json.loads(dumps(make_run()))
        del doc["wall_time"]
        (tmp_path / "partial.json").write_text(json.dumps(doc))
        result = ingest(tmp_path)
        assert result.records == ()
        assert "wall_time" in result.diagnostics[0].error

    def test_malformed_json_diagnostic_has_position(self, tmp_path):
        (tmp_path / "broken.json").write_text('{"run_id": }')
        result = ingest(tmp_path)
        assert result.diagnostics[0].kind == "parse"
        assert "line 1" in result.diagnostics[0].error

    def test_duplicate_ids_across_files(self, tmp_path):
        doc = dumps(make_run())
        (tmp_path / "a.json").write_text(doc)
        (tmp_path / "b.json").write_text(doc)
        result = ingest(tmp_path)
        assert len(result.records) == 1
        assert "duplicate" in result.diagnostics[0].error

    def test_records_share_identical_systems(self, tmp_path):
        for run_id in ("a", "b"):
            (tmp_path / f"{run_id}.json").write_text(dumps(make_run(run_id)))
        result = ingest(tmp_path)
        a, b = result.records
        assert a.system is b.system and a.workload is b.workload
        assert a.declaration is not b.declaration
        per_file = tuple(loads(f.read_text(), "run")
                         for f in sorted(tmp_path.glob("*.json")))
        assert result == IngestResult(records=per_file, diagnostics=())

    def test_scale_beyond_shared_system_is_a_diagnostic(self, tmp_path):
        (tmp_path / "a.json").write_text(dumps(make_run("a")))
        doc = json.loads(dumps(make_run("b")))
        doc["scale"] = 65
        (tmp_path / "b.json").write_text(json.dumps(doc))
        (tmp_path / "c.json").write_text(dumps(make_run("c")))
        result = ingest(tmp_path)
        assert [r.run_id for r in result.records] == ["a", "c"]
        (diag,) = result.diagnostics
        assert diag.kind == "schema"
        assert diag.error == "scale 65 exceeds the system's 64 accelerators"


class TestRank:
    def test_single_run(self):
        rows = rank([make_run()])
        assert len(rows) == 1 and rows[0].rank == 1

    def test_published_pair_ordering(self, ic):
        # 939 TFLOPS at penalty ~0.684 still outranks 414 TFLOPS at
        # penalty ~1: the mixed 64-GPU entry sits above the fp32 one.
        implied = 0.763 * (642 / 939) ** (1 / 5)
        mixed = make_run(run_id="mixed-64", workload=ic, scale=64,
                         quality=implied,
                         sps=939 * TERA / (64 * ic.flops_per_sample))
        fp32 = make_run(run_id="fp32-64", workload=ic, scale=64,
                        quality=0.763,
                        sps=414 * TERA / (64 * ic.flops_per_sample))
        rows = rank([fp32, mixed])
        assert [r.run_id for r in rows] == ["mixed-64", "fp32-64"]
        assert rows[0].vflops == pytest.approx(642 * TERA, rel=1e-3)

    def test_tie_breaks_on_time_to_quality(self):
        slow = make_run(run_id="slow", wall_time=2000.0)
        fast = make_run(run_id="fast", wall_time=1000.0)
        rows = rank([slow, fast])
        assert [r.run_id for r in rows] == ["fast", "slow"]

    def test_deterministic_under_permutation(self, ranking_runs):
        runs, _ = ranking_runs
        a = rank(runs)
        b = rank(list(reversed(runs)))
        assert [r.run_id for r in a] == [r.run_id for r in b]

    def test_mixed_workloads_rejected(self, ic):
        with pytest.raises(IncomparableWorkloads):
            rank([make_run(), make_run(run_id="other", workload=ic,
                                       scale=16, sps=100.0)])

    def test_violating_run_listed_but_ineligible(self):
        offender = make_run(run_id="offender")
        violations = {"offender": [Violation(8, "weight_decay",
                                             Severity.ERROR, "changed")]}
        rows = rank([offender, make_run(run_id="clean", sps=4.0)],
                    violations=violations)
        assert {r.run_id for r in rows} == {"offender", "clean"}
        offender_row = next(r for r in rows if r.run_id == "offender")
        assert not offender_row.eligible
        assert offender_row.rule_status == "VIOLATIONS(1)"


class TestEmitReport:
    def build_inputs(self, power=2500.0):
        workload = ewa_workload()
        epochs = [10, 12, 11, 13, 11]
        runs = [make_run(run_id=f"t{i}", epochs=e, power=power)
                for i, e in enumerate(epochs)]
        agg = aggregate_runs(runs, workload)
        scores = {r.run_id: score_run(r) for r in runs}
        return workload, runs, agg, scores

    def test_all_three_parts_present(self):
        workload, runs, agg, scores = self.build_inputs()
        doc = emit_report(aggregate=agg, violations=[], scores=scores,
                          system=runs[0].system,
                          declaration=runs[0].declaration, workload=workload)
        assert set(doc.data) >= {"system_under_test",
                                 "benchmark_configuration", "scores"}
        sut = doc.data["system_under_test"]
        assert set(sut) == {"cpu_and_accelerators", "intra_node_connection",
                            "os", "runtime_single_node",
                            "inter_node_connection", "runtime_system"}
        assert "## 1. System under test" in doc.markdown
        assert "## 2. Benchmark configuration" in doc.markdown
        assert "## 3. Scores" in doc.markdown
        assert len(doc.data["scores"]["raw_trials"]) == 5
        json.loads(doc.json())  # machine twin is valid JSON

    def test_missing_power_marked_not_measured(self):
        workload, runs, agg, scores = self.build_inputs(power=None)
        doc = emit_report(aggregate=agg, violations=[], scores=scores,
                          system=runs[0].system,
                          declaration=runs[0].declaration, workload=workload)
        assert "not measured" in doc.markdown
        row = doc.data["scores"]["runs"][0]
        assert row["vflops_per_watt"] == "not measured"
        assert row["flops_per_watt"] == "not measured"

    def test_missing_section_rejected(self):
        workload, runs, agg, scores = self.build_inputs()
        with pytest.raises(IncompleteReport, match="declaration"):
            emit_report(aggregate=agg, violations=[], scores=scores,
                        system=runs[0].system, declaration=None,
                        workload=workload)

    def test_ratio_study_reproduces_published_column(self):
        # accuracy-gain pairs chosen to land on the published ratios
        # 1.03 / 1.03 / 1.10 for 16 / 32 / 64 GPUs
        workload, runs, agg, scores = self.build_inputs()
        flops = 100 * TERA
        pairs = [("16 GPUs", 0.7580, 0.7625),
                 ("32 GPUs", 0.7580, 0.7625),
                 ("64 GPUs", 0.7170, 0.7308)]
        studies = []
        for label, base_q, opt_q in pairs:
            base = Score(flops=flops, vflops=vflops(flops, base_q, 0.763, 5),
                         time_to_quality=1.0, penalty=1.0)
            opt = Score(flops=flops, vflops=vflops(flops, opt_q, 0.763, 5),
                        time_to_quality=1.0, penalty=1.0)
            studies.append((label, base, opt))
        doc = emit_report(aggregate=agg, violations=[], scores=scores,
                          system=runs[0].system,
                          declaration=runs[0].declaration, workload=workload,
                          ratio_studies=studies)
        ratios = [round(s["vflops_ratio"], 2)
                  for s in doc.data["optimization_studies"]]
        assert ratios == [1.03, 1.03, 1.10]
        assert "VFLOPS ratio" in doc.markdown

    def test_every_reported_number_traces_to_inputs(self):
        workload, runs, agg, scores = self.build_inputs()
        doc = emit_report(aggregate=agg, violations=[], scores=scores,
                          system=runs[0].system,
                          declaration=runs[0].declaration, workload=workload)
        by_id = {r.run_id: r for r in runs}
        for row in doc.data["scores"]["runs"]:
            run = by_id[row["run_id"]]
            expected = score_run(run)
            assert row["flops"] == expected.flops
            assert row["vflops"] == expected.vflops
            assert row["time_to_quality_s"] == run.wall_time

    def test_vflops_ratio_helper(self):
        a = Score(flops=1.0, vflops=2.0, time_to_quality=1.0, penalty=1.0)
        b = Score(flops=1.0, vflops=3.0, time_to_quality=1.0, penalty=1.0)
        assert vflops_ratio(b, a) == 1.5
