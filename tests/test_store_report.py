import json
import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from hpcbench.core import (
    BenchLevel,
    NineLayerDeclaration,
    PrecisionMode,
    RunRecord,
    dumps,
    loads,
)
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
from hpcbench.rules import AggregateResult, aggregate_runs
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


def _with_layer(run, index, **changes):
    """``run`` with ``changes`` made to layer ``index`` of its declaration."""
    layers = [dict(layer) for layer in run.declaration.layers]
    layers[index - 1].update(changes)
    return replace(run, declaration=NineLayerDeclaration(tuple(layers)))


_RECORD = dumps(make_run()).encode("utf-8")


def _with_encoded_surrogate(record):
    doc = json.loads(record)
    doc["declaration"]["layers"][0]["note"] = "\ud800"
    return json.dumps(doc, ensure_ascii=False).encode("utf-8", "surrogatepass")


# Given bytes, json.loads skips a UTF-8 BOM, guesses UTF-16 and passes an
# encoded surrogate (b"\xed\xa0\x80"): each of these is a valid record to it.
_GUESSED_ENCODINGS = [b"\xef\xbb\xbf" + _RECORD,
                      _RECORD.decode("utf-8").encode("utf-16"),
                      _with_encoded_surrogate(_RECORD)]
for _data in _GUESSED_ENCODINGS:
    RunRecord.from_dict(json.loads(_data))


def _field_paths(doc, prefix=()):
    """Every key path into ``doc``, through objects and arrays."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


_FIELD_PATHS = list(_field_paths(json.loads(_RECORD)))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


def _with_field(path, value) -> bytes:
    """The record document with the value at ``path`` replaced."""
    doc = json.loads(_RECORD)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc).encode("utf-8")


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

    def test_overwrite_under_another_workload_is_duplicate(self, tmp_path, ic):
        store = ResultsStore(tmp_path)
        stored = store.add(make_run(run_id="x")).read_bytes()
        with pytest.raises(DuplicateRun, match="'x' already stored"):
            store.add(make_run(run_id="x", workload=ic, scale=16, sps=100.0),
                      overwrite=True)
        assert not (tmp_path / ic.name).exists()
        assert store.load("x").workload.name == "extreme_weather"
        assert (tmp_path / "extreme_weather" / "x.json").read_bytes() == stored

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

    def test_load_does_not_read_the_store(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path)
        store.add_all(make_run(run_id=f"r{i}") for i in range(50))
        (tmp_path / "extreme_weather" / "zz-bad.json").write_text("{nope")

        def no_index(self):
            raise AssertionError("load rebuilt the index")

        monkeypatch.setattr(ResultsStore, "index", no_index)
        assert store.load("r7") == make_run(run_id="r7")
        with pytest.raises(SchemaError, match="no stored run with id 'r50'"):
            store.load("r50")

    def test_load_refuses_a_run_id_stored_twice(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.add(make_run(run_id="x"))
        other = tmp_path / "image_classification"
        other.mkdir()
        (other / "x.json").write_text(dumps(make_run(run_id="x")))
        with pytest.raises(DuplicateRun, match="'x' appears in both"):
            store.load("x")

    def test_load_refuses_a_misnamed_record(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.add(make_run(run_id="x"))
        (tmp_path / "extreme_weather" / "y.json").write_text(
            dumps(make_run(run_id="z")))
        with pytest.raises(SchemaError, match="holds run_id 'z', not 'y'"):
            store.load("y")

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

    def test_hidden_directories_are_not_ingested(self, tmp_path):
        store = ResultsStore(tmp_path)
        path = store.add(make_run(wall_time=1000.0))
        (tmp_path / ".trash").mkdir()
        (tmp_path / ".trash" / "r1.json").write_text(
            dumps(make_run(wall_time=2000.0)))
        result = store.load_all()
        assert result.clean
        assert [r.wall_time for r in result.records] == [1000.0]
        assert [r.run_id for r in ingest(path.parent).records] == ["r1"]
        with pytest.raises(DuplicateRun):
            store.add(make_run(wall_time=3000.0))

    def test_ingest_root_may_sit_under_a_hidden_directory(self, tmp_path):
        store = ResultsStore(tmp_path / ".work" / "store")
        store.add(make_run())
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

    def test_load_all_of_a_missing_workload_is_empty(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.add(make_run(run_id="e1"))
        result = store.load_all(workload="image_classification")
        assert (result.records, result.diagnostics) == ((), ())
        assert not (tmp_path / "image_classification").exists()

    @pytest.mark.parametrize("workload", ["../outside", "a/b", ".hidden", ""])
    def test_load_all_refuses_an_unsafe_workload(self, tmp_path, workload):
        (tmp_path / "outside").mkdir()
        (tmp_path / "outside" / "r1.json").write_text(dumps(make_run()))
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(SchemaError, match=f"workload name {workload!r} "
                                              "is not a safe path component"):
            store.load_all(workload=workload)

    def test_load_all_refuses_a_workload_link(self, tmp_path):
        (tmp_path / "outside").mkdir()
        (tmp_path / "outside" / "r1.json").write_text(dumps(make_run()))
        store = ResultsStore(tmp_path / "store")
        (tmp_path / "store" / "link").symlink_to(tmp_path / "outside",
                                                 target_is_directory=True)
        assert store.load_all().records == ()
        with pytest.raises(SchemaError, match="^workload directory .*link is "
                                              "a symbolic link$"):
            store.load_all(workload="link")

    def test_empty_root_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SchemaError, match="^store root is an empty path$"):
            ResultsStore("")
        assert list(tmp_path.iterdir()) == []

    def test_index_refuses_a_run_id_stored_twice(self, tmp_path):
        store = ResultsStore(tmp_path)
        path = store.add(make_run())
        (tmp_path / "copy").mkdir()
        (tmp_path / "copy" / "other.json").write_bytes(path.read_bytes())
        with pytest.raises(DuplicateRun) as err:
            store.index()
        assert str(err.value) == (
            f"run_id 'r1' appears in both {tmp_path / 'copy' / 'other.json'} "
            f"and {path}")


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestAddAll:
    """``add_all`` holds the store lock once for the whole batch."""

    def runs(self, ic):
        return [make_run(run_id="e1"), make_run(run_id="e2"),
                make_run(run_id="i1", workload=ic, scale=16, sps=100.0)]

    def test_one_lock_per_batch(self, tmp_path, ic, monkeypatch):
        taken = []
        acquire = ResultsStore._acquire_lock
        monkeypatch.setattr(ResultsStore, "_acquire_lock",
                            lambda self: (taken.append(1), acquire(self)))
        ResultsStore(tmp_path).add_all(self.runs(ic))
        assert len(taken) == 1
        assert not (tmp_path / ResultsStore.LOCK_NAME).exists()

    def test_same_files_as_one_add_per_run(self, tmp_path, ic):
        one_by_one = ResultsStore(tmp_path / "a")
        for run in self.runs(ic):
            one_by_one.add(run)
        ResultsStore(tmp_path / "b").add_all(self.runs(ic))
        assert _tree(tmp_path / "b") == _tree(tmp_path / "a")

    def test_duplicate_keeps_earlier_runs_and_releases(self, tmp_path, ic):
        store = ResultsStore(tmp_path)
        batch = [make_run(run_id="e1"), make_run(run_id="e2"),
                 make_run(run_id="e1", wall_time=2000.0),
                 make_run(run_id="e3")]
        with pytest.raises(DuplicateRun, match="'e1' already stored"):
            store.add_all(batch)
        assert sorted(_tree(tmp_path)) == ["extreme_weather/e1.json",
                                           "extreme_weather/e2.json"]
        assert store.load("e1").wall_time == 1000.0
        assert not (tmp_path / ResultsStore.LOCK_NAME).exists()
        store.add(make_run(run_id="e3"))

    def test_any_error_releases_the_lock(self, tmp_path):
        def batch():
            yield make_run(run_id="e1")
            raise RuntimeError("source failed")

        store = ResultsStore(tmp_path)
        with pytest.raises(RuntimeError, match="source failed"):
            store.add_all(batch())
        with pytest.raises(SchemaError, match="safe path component"):
            store.add_all([make_run(run_id="e2"), make_run(run_id="../e3")])
        assert sorted(_tree(tmp_path)) == ["extreme_weather/e1.json",
                                           "extreme_weather/e2.json"]
        assert not (tmp_path / ResultsStore.LOCK_NAME).exists()

    def test_lock_held_by_another_writer(self, tmp_path, ic):
        other = ResultsStore(tmp_path)
        other._acquire_lock()
        try:
            held = (tmp_path / ResultsStore.LOCK_NAME).read_bytes()
            with pytest.raises(BenchError, match="locked by another writer"):
                ResultsStore(tmp_path).add_all(self.runs(ic))
            assert (tmp_path / ResultsStore.LOCK_NAME).read_bytes() == held
        finally:
            other._release_lock()
        assert _tree(tmp_path) == {}


class TestListing:
    """Which files ``ingest`` reads under a directory, and in what order."""

    @staticmethod
    def write(root: Path, *names: str) -> None:
        """A record at each relative path, its run id the path with ``/``
        spelled ``~``."""
        for name in names:
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(dumps(make_run(name.replace("/", "~"))))

    def test_order_is_path_component_order(self, tmp_path):
        names = ["a-b/x.json", "a/x.json", "a.b/x.json", "a.json", "a/y.json",
                 "a/z/x.json", "a-b.json", "b.json", "ab/x.json",
                 "d.json/x.json"]
        self.write(tmp_path, *names)
        by_parts = sorted((p for p in tmp_path.rglob("*.json") if p.is_file()),
                          key=lambda p: p.parts)
        read = [r.run_id for r in ingest(tmp_path).records]
        assert read == [str(p.relative_to(tmp_path)).replace(os.sep, "~")
                        for p in by_parts]
        assert read == [
            "a~x.json", "a~y.json", "a~z~x.json", "a-b~x.json", "a-b.json",
            "a.b~x.json", "a.json", "ab~x.json", "b.json", "d.json~x.json"]

    def test_hidden_files_and_directories_are_skipped(self, tmp_path):
        self.write(tmp_path, "w/r.json", ".r.json", "w/.r.json", ".h/r.json",
                   "w/.h/r.json", "w/.h/d/r.json")
        result = ingest(tmp_path)
        assert result.clean
        assert [r.run_id for r in result.records] == ["w~r.json"]

    def test_symlinks(self, tmp_path):
        outside, root = tmp_path / "outside", tmp_path / "store"
        self.write(outside, "o.json", "d/x.json")
        self.write(root, "w/r.json")
        (root / "w" / "o.json").symlink_to(outside / "o.json")
        (root / "linked").symlink_to(outside / "d", target_is_directory=True)
        result = ingest(root)
        assert result.clean
        assert [r.run_id for r in result.records] == ["o.json", "w~r.json"]

    @pytest.mark.parametrize("arg", [".", "./", Path(".")])
    def test_the_current_directory_is_not_spelled(self, tmp_path, monkeypatch,
                                                  arg):
        (tmp_path / "w").mkdir()
        (tmp_path / "w" / "bad.json").write_text("{nope")
        monkeypatch.chdir(tmp_path)
        (diag,) = ingest(arg).diagnostics
        assert diag.path == os.path.join("w", "bad.json")

    def test_load_of_a_directory_names_it(self, tmp_path):
        store = ResultsStore(tmp_path)
        (tmp_path / "w" / "r1.json").mkdir(parents=True)
        target = re.escape(str(tmp_path / "w" / "r1.json"))
        with pytest.raises(IsADirectoryError,
                           match=f"Is a directory: '{target}'"):
            store.load("r1")


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

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{}", b"[" * 200000, b"[" + b"1" * 5000 + b"]",
        *_GUESSED_ENCODINGS],
        ids=["not-utf8", "too-deep", "long-integer",
             "bom", "utf16", "encoded-surrogate"])
    def test_undecodable_bytes_are_parse_diagnostics(self, tmp_path, data):
        (tmp_path / "a.json").write_bytes(data)
        (tmp_path / "b.json").write_text(dumps(make_run("b")))
        result = ingest(tmp_path)
        assert [r.run_id for r in result.records] == ["b"]
        (diag,) = result.diagnostics
        assert (diag.path, diag.kind) == (str(tmp_path / "a.json"), "parse")

    @given(st.one_of(
        st.binary(max_size=300),
        st.builds(lambda i, b: _RECORD[:i] + b + _RECORD[i + len(b):],
                  st.integers(0, len(_RECORD)), st.binary(min_size=1,
                                                         max_size=4)),
        st.builds(_with_field, st.sampled_from(_FIELD_PATHS), _JSON_VALUES)))
    @example(b"\xff\xfe{}")
    @example(b"[" * 200000)
    @example(b"[" + b"1" * 5000 + b"]")
    def test_any_bytes_become_a_record_or_a_diagnostic(self, data):
        with tempfile.TemporaryDirectory() as root:
            target = Path(root, "extreme_weather", "r1.json")
            target.parent.mkdir()
            target.write_bytes(data)
            result = ingest(root)
            assert len(result.records) + len(result.diagnostics) == 1
            assert all(isinstance(r, RunRecord) for r in result.records)
            ResultsStore(root).index()

    def test_duplicate_ids_across_files(self, tmp_path):
        doc = dumps(make_run())
        (tmp_path / "a.json").write_text(doc)
        (tmp_path / "b.json").write_text(doc)
        result = ingest(tmp_path)
        assert len(result.records) == 1
        assert "duplicate" in result.diagnostics[0].error

    def test_one_duplicate_table_over_several_paths(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(dumps(make_run("a")))
        (tmp_path / "b.json").write_text(dumps(make_run("b")))
        for paths, kept in [((tmp_path, a), ["a", "b"]), ((a, a), ["a"])]:
            result = ingest(*paths)
            assert [r.run_id for r in result.records] == kept
            (diag,) = result.diagnostics
            assert (diag.path, diag.kind) == (str(a), "schema")
            assert diag.error == f"duplicate run_id 'a' (first seen in {a})"

    def test_records_share_identical_systems(self, tmp_path):
        for run_id in ("a", "b"):
            (tmp_path / f"{run_id}.json").write_text(dumps(make_run(run_id)))
        result = ingest(tmp_path)
        a, b = result.records
        assert a.system is b.system and a.workload is b.workload
        assert a.declaration is not b.declaration
        assert all(x is not y for x, y in zip(a.declaration.layers,
                                               b.declaration.layers))
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
        offender = _with_layer(make_run(run_id="offender"), 8,
                               weight_decay=0.5)
        clean = make_run(run_id="clean", sps=4.0)
        rows = rank([offender, clean], reference=clean.declaration)
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
        agg = aggregate_runs(runs)
        return workload, runs, agg, reference_declaration(workload)

    def test_all_three_parts_present(self):
        workload, runs, agg, reference = self.build_inputs()
        doc = emit_report(agg, reference)
        assert set(doc.data) >= {"system_under_test",
                                 "benchmark_configuration", "scores"}
        sut = doc.data["system_under_test"]
        assert set(sut) == {"cpu_and_accelerators", "intra_node_connection",
                            "os", "runtime_single_node",
                            "inter_node_connection", "runtime_system"}
        assert doc.markdown.startswith(
            f"# Benchmark report: {workload.name}\n")
        assert sut["inter_node_connection"]["num_nodes"] == \
            runs[0].system.num_nodes
        assert "## 1. System under test" in doc.markdown
        assert "## 2. Benchmark configuration" in doc.markdown
        assert "## 3. Scores" in doc.markdown
        assert len(doc.data["scores"]["raw_trials"]) == 5
        json.loads(doc.json())  # machine twin is valid JSON

    def test_missing_power_marked_not_measured(self):
        workload, runs, agg, reference = self.build_inputs(power=None)
        doc = emit_report(agg, reference)
        assert "not measured" in doc.markdown
        row = doc.data["scores"]["runs"][0]
        assert row["vflops_per_watt"] == "not measured"
        assert row["flops_per_watt"] == "not measured"

    def test_aggregate_without_runs_rejected(self):
        _, runs, _, reference = self.build_inputs()
        empty = AggregateResult(retained_runs=(), dropped=(), mean_scores={},
                                variation=0.0, wall_time_variation=0.0)
        with pytest.raises(IncompleteReport, match="runs"):
            emit_report(empty, reference)

    def test_ratio_study_reproduces_published_column(self):
        # accuracy-gain pairs chosen to land on the published ratios
        # 1.03 / 1.03 / 1.10 for 16 / 32 / 64 GPUs
        workload, runs, agg, reference = self.build_inputs()
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
        doc = emit_report(agg, reference, ratio_studies=studies)
        ratios = [round(s["vflops_ratio"], 2)
                  for s in doc.data["optimization_studies"]]
        assert ratios == [1.03, 1.03, 1.10]
        assert "VFLOPS ratio" in doc.markdown

    def test_every_reported_number_traces_to_inputs(self):
        workload, runs, agg, reference = self.build_inputs()
        doc = emit_report(agg, reference)
        by_id = {r.run_id: r for r in runs}
        for row in doc.data["scores"]["runs"]:
            run = by_id[row["run_id"]]
            expected = score_run(run)
            assert row["flops"] == expected.flops
            assert row["vflops"] == expected.vflops
            assert row["time_to_quality_s"] == run.wall_time

    def test_runs_are_audited_against_the_reference(self):
        workload, runs, _, reference = self.build_inputs()
        runs[2] = _with_layer(runs[2], 5, framework="pytorch-unreviewed")
        doc = emit_report(aggregate_runs(runs), reference)
        audit = doc.data["rule_audit"]
        assert not audit["clean"]
        assert [(v["layer"], v["key"], v["severity"])
                for v in audit["violations"]] == [(5, "framework", "error")]
        assert "| 5 | framework | error |" in doc.markdown

    def test_vflops_ratio_helper(self):
        a = Score(flops=1.0, vflops=2.0, time_to_quality=1.0, penalty=1.0)
        b = Score(flops=1.0, vflops=3.0, time_to_quality=1.0, penalty=1.0)
        assert vflops_ratio(b, a) == 1.5
