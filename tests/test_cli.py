import errno
import json
import os
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from hpcbench import rules
from hpcbench import cli
from hpcbench import store as store_mod
from hpcbench.cli import _build_parser, main
from hpcbench.core import BenchLevel, NineLayerDeclaration, dumps
from hpcbench.presets import case_study_system, ewa_workload
from hpcbench.rules import Severity
from hpcbench.store import ResultsStore


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPipeline:
    """The full flow over the bundled ranking fixture."""

    def test_validate_is_clean(self, ranking_store, capsys):
        code, out, err = run_cli(
            capsys, "validate", "--store", str(ranking_store["root"]),
            "--reference", str(ranking_store["reference"]))
        assert code == 0, err
        assert "violation" not in out.replace("0 violation", "")

    def test_score_all_runs(self, ranking_store, capsys):
        code, out, _ = run_cli(
            capsys, "score", "--store", str(ranking_store["root"]),
            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 60
        assert all(row["vflops"] > 0 for row in doc)

    def test_aggregate_one_configuration(self, ranking_store, capsys):
        code, out, _ = run_cli(
            capsys, "aggregate", "--store", str(ranking_store["root"]),
            "--select", "ic-mixed-64-*", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["runs"] == 10
        assert len(doc["retained"]) == 8
        assert doc["mean_scores"]["vflops"] > 600e12

    def test_json_key_order(self, ranking_store, capsys):
        root = str(ranking_store["root"])
        _, out, _ = run_cli(capsys, "score", "--store", root, "--format", "json")
        assert list(json.loads(out)[0]) == [
            "run_id", "flops", "vflops", "vflops_per_watt", "time_to_quality",
            "penalty"]
        _, out, _ = run_cli(capsys, "rank", "--store", root, "--format", "json")
        assert list(json.loads(out)[0]) == [
            "rank", "label", "run_id", "scale", "precision", "flops", "vflops",
            "vflops_per_watt", "time_to_quality", "rule_status", "eligible"]

    def test_rank_top_row_is_mixed_64(self, ranking_store, capsys):
        code, out, _ = run_cli(
            capsys, "rank", "--store", str(ranking_store["root"]),
            "--reference", str(ranking_store["reference"]),
            "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["rank"] == 1
        assert rows[0]["run_id"].startswith("ic-mixed-64")
        assert rows[0]["precision"] == "mixed"
        assert rows[0]["scale"] == 64
        assert all(r["rule_status"] == "CLEAN" for r in rows)

    def test_report_writes_markdown_and_json_twin(self, ranking_store,
                                                  tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code, _, err = run_cli(
            capsys, "report", "--store", str(ranking_store["root"]),
            "--select", "ic-mixed-64-*",
            "--reference", str(ranking_store["reference"]),
            "--out", str(out_file))
        assert code == 0, err
        assert out_file.exists()
        twin = out_file.with_suffix(".json")
        doc = json.loads(twin.read_text())
        assert doc["rule_audit"]["clean"]
        assert "## 3. Scores" in out_file.read_text()


    @pytest.mark.parametrize("fmt, name", [("md", "report.json"),
                                           ("json", "report.md")])
    def test_report_out_named_as_its_twin_is_refused(
            self, ranking_store, tmp_path, capsys, fmt, name):
        code, out, err = run_cli(
            capsys, "report", "--store", str(ranking_store["root"]),
            "--select", "ic-mixed-64-*", "--format", fmt,
            "--reference", str(ranking_store["reference"]),
            "--out", str(tmp_path / name))
        assert (code, out) == (3, "")
        assert err.endswith("would be overwritten by the "
                            f"{Path(name).suffix} twin; give the {fmt} "
                            "report another suffix\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt, out, writer", [
        ("json", "ref.json", "--out"),
        ("md", "ref.md", "the .json twin of --out"),
        ("json", "sub/../ref.json", "--out")])
    def test_report_over_its_reference_is_refused(
            self, ranking_store, tmp_path, capsys, monkeypatch, fmt, out,
            writer):
        reference = ranking_store["reference"].read_bytes()
        (tmp_path / "sub").mkdir()
        (tmp_path / "ref.json").write_bytes(reference)
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(
            capsys, "report", "--store", str(ranking_store["root"]),
            "--select", "ic-mixed-64-*", "--format", fmt,
            "--reference", "ref.json", "--out", out)
        assert (code, stdout) == (3, "")
        assert err == (f"error: {writer} would write over the --reference "
                       "file ref.json; give the output its own file\n")
        assert (tmp_path / "ref.json").read_bytes() == reference
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.json",
                                                              "sub"]

    @pytest.mark.parametrize("fmt, out, writer, source", [
        ("json", "R/ic-mixed-64-r00.json", "--out", "positional"),
        ("md", "R/ic-mixed-64-r00.md", "the .json twin of --out", "positional"),
        ("json", "R/sub/../ic-mixed-64-r03.json", "--out", "positional"),
        ("json", "S/image_classification/ic-mixed-64-r00.json", "--out",
         "store")])
    def test_report_over_a_run_file_it_reads_is_refused(
            self, ranking_store, tmp_path, capsys, monkeypatch, fmt, out,
            writer, source):
        runs = [r for r in ranking_store["runs"]
                if r.run_id.startswith("ic-mixed-64-")]
        (tmp_path / "R" / "sub").mkdir(parents=True)
        for run in runs:
            (tmp_path / "R" / f"{run.run_id}.json").write_text(dumps(run))
        ResultsStore(tmp_path / "S").add_all(runs)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*.json")}
        monkeypatch.chdir(tmp_path)
        inputs = ["R"] if source == "positional" else ["--store", "S"]
        code, stdout, err = run_cli(
            capsys, "report", *inputs, "--select", "ic-mixed-64-*",
            "--format", fmt, "--reference", str(ranking_store["reference"]),
            "--out", out)
        hit = str(Path(out).with_suffix(".json")).replace("sub/../", "")
        assert (code, stdout) == (3, "")
        assert err == (f"error: {writer} would write over the run file "
                       f"{hit}; give the output its own file\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*.json")} == before
        assert not list(tmp_path.rglob("*.md"))


class TestJsonContract:
    """``--format json`` stdout is exactly one JSON document."""

    @pytest.mark.parametrize("command", [
        "validate", "score", "rank", "aggregate", "report", "simulate"])
    def test_stdout_parses(self, command, ranking_store, tmp_path, capsys):
        store = ["--store", str(ranking_store["root"])]
        reference = ["--reference", str(ranking_store["reference"])]
        select = ["--select", "ic-mixed-64-*"]
        argv = {
            "validate": store + reference,
            "score": store,
            "rank": store + reference,
            "aggregate": store + select,
            "report": store + select + reference,
            "simulate": [str(write_scenario(tmp_path))],
        }[command]
        code, out, err = run_cli(capsys, command, *argv, "--format", "json")
        assert code == 0, err
        json.loads(out)


class TestExitCodes:
    def test_violations_exit_two(self, ranking_store, tmp_path, capsys):
        # craft one run with a forbidden hyper-parameter change
        from dataclasses import replace

        from conftest import build_ranking_runs

        from hpcbench.core import NineLayerDeclaration

        all_runs, ref = build_ranking_runs(trials=1)
        offender = all_runs[0]
        layers = [dict(l) for l in offender.declaration.layers]
        layers[7]["weight_decay"] = "disabled-on-normalization-layers"
        offender = replace(offender, run_id="offender",
                           declaration=NineLayerDeclaration(tuple(layers)))
        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        (run_dir / "offender.json").write_text(dumps(offender))
        ref_path = tmp_path / "ref.json"
        ref_path.write_text(dumps(ref))
        code, out, _ = run_cli(capsys, "validate", str(run_dir),
                               "--reference", str(ref_path))
        assert code == 2
        assert "weight_decay" in out

    def test_schema_error_exit_three(self, tmp_path, capsys):
        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        (run_dir / "broken.json").write_text("{nope")
        code, _, err = run_cli(capsys, "score", str(run_dir))
        assert code == 3
        assert "schema" in err

    def test_input_refusals_exit_three(self):
        from hpcbench import errors

        internal = {errors.BenchError, errors.IncompleteReport}
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.BenchError)]
        assert len(classes) > 20
        for cls in classes:
            assert cls.exit_code == (1 if cls in internal else 3), cls

    @pytest.mark.parametrize("workload", ["no_such_workload", ""])
    @pytest.mark.parametrize("command", ["validate", "score", "aggregate",
                                         "rank", "report"])
    def test_workload_without_store_is_refused(self, ranking_store, capsys,
                                               command, workload):
        argv = [command, "--workload", workload, str(ranking_store["root"])]
        if command in ("validate", "report"):
            argv += ["--reference", str(ranking_store["reference"])]
        assert run_cli(capsys, *argv) == (
            3, "", "error: --workload needs --store: it names a store "
                   "subtree\n")

    def test_missing_reference_file_is_internal_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "validate", str(tmp_path),
                               "--reference", str(tmp_path / "absent.json"))
        assert code == 1
        assert "error" in err


class TestRecordInputs:
    """One read path: duplicates across sources, missing stores, and the
    one-configuration guard of ``aggregate`` and ``report``."""

    @pytest.mark.parametrize("with_store", [True, False])
    def test_run_given_twice_is_a_duplicate(self, ranking_store, capsys,
                                            with_store):
        root = ranking_store["root"]
        path = str(root / "image_classification" / "ic-fp32-16-r00.json")
        sources = ["--store", str(root), path] if with_store else [path, path]
        code, out, err = run_cli(capsys, "score", *sources, "--format", "json")
        assert code == 3
        assert "duplicate run_id 'ic-fp32-16-r00'" in err
        assert len(json.loads(out)) == (60 if with_store else 1)

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_run_id_that_is_not_utf8_is_a_schema_diagnostic(
            self, ranking_store, tmp_path, capsys, fmt):
        good, other = ranking_store["runs"][:2]
        doc = json.loads(dumps(other))
        doc["run_id"] = "bad\ud800id"
        (tmp_path / "good.json").write_text(dumps(good))
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "score", str(tmp_path),
                                 "--format", fmt)
        assert code == 3
        assert err == (f"schema: {tmp_path / 'bad.json'}: run_id must "
                       "encode as UTF-8, got 'bad\\ud800id'\n")
        assert [line.split(",")[0].split()[0]
                for line in out.splitlines()] == ["run_id", good.run_id]

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_lone_surrogate_in_a_printed_name_is_escaped(
            self, ranking_store, tmp_path, capsys, fmt):
        doc = json.loads(dumps(ranking_store["runs"][0]))
        doc["system"]["node"]["accelerator"]["name"] = "a\ud800b"
        (tmp_path / "run.json").write_text(json.dumps(doc))
        (tmp_path / "other.json").write_text(dumps(ranking_store["runs"][1]))
        code, out, err = run_cli(capsys, "rank", str(tmp_path),
                                 "--format", fmt)
        assert (code, err) == (0, "")
        assert "a\\ud800b" in out
        if fmt == "md":  # every cell is padded to its column's width
            assert len({len(line) for line in out.splitlines()}) == 1

    def test_read_does_not_create_the_store(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "score", "--store",
                               str(tmp_path / "absent"), "--format", "json")
        assert (code, json.loads(out)) == (0, [])
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("command", ["aggregate", "rank", "report"])
    def test_empty_selection_is_refused(self, ranking_store, capsys, command):
        argv = [command, "--store", str(ranking_store["root"]),
                "--select", "no-such-run-*"]
        if command == "report":
            argv += ["--reference", str(ranking_store["reference"])]
        assert run_cli(capsys, *argv) == (
            3, "", f"error: no runs to {command}\n")

    def test_validate_prints_the_runs_beside_a_rejected_input(
            self, ranking_store, tmp_path, capsys):
        run = ranking_store["runs"][0]
        (tmp_path / "good.json").write_text(dumps(run))
        (tmp_path / "bad.json").write_text("{nope")
        code, out, err = run_cli(capsys, "validate", str(tmp_path),
                                 "--reference", str(ranking_store["reference"]))
        assert (code, out) == (3, f"{run.run_id}: clean\n")
        assert err.startswith(f"schema: {tmp_path / 'bad.json'}: ")
        assert err.count("\n") == 1

    def test_unselected_aggregate_on_mixed_store_is_refused(
            self, ranking_store, capsys):
        code, out, err = run_cli(capsys, "aggregate", "--store",
                                 str(ranking_store["root"]))
        assert (code, out) == (3, "")
        assert err.startswith("error: runs span 6 configurations: ")
        assert "scale 64, mixed, batch 16384" in err

    def test_aggregate_of_one_run_exits_three(self, ranking_store, capsys):
        code, out, err = run_cli(capsys, "aggregate", "--store",
                                 str(ranking_store["root"]),
                                 "--select", "ic-mixed-64-r00")
        assert (code, out) == (3, "")
        assert err == "error: need at least 10 runs, got 1\n"

    def test_report_over_two_systems_is_refused(self, ranking_store,
                                                tmp_path, capsys):
        from dataclasses import replace

        bigger = case_study_system(num_nodes=16)
        runs = [r for r in ranking_store["runs"]
                if r.run_id.startswith("ic-mixed-64-")]
        for run in runs + [replace(r, run_id=r.run_id + "-big", system=bigger)
                           for r in runs]:
            (tmp_path / f"{run.run_id}.json").write_text(dumps(run))
        code, out, err = run_cli(capsys, "report", str(tmp_path),
                                 "--reference", str(ranking_store["reference"]))
        assert (code, out) == (3, "")
        assert err.startswith("error: runs span 2 configurations: ")
        assert "on 8x8 " in err and "on 16x8 " in err

    @pytest.mark.parametrize("command", ["rank", "aggregate", "report"])
    def test_two_definitions_of_one_workload_are_refused(
            self, ranking_store, tmp_path, capsys, command):
        runs = [r for r in ranking_store["runs"]
                if r.run_id.startswith("ic-fp32-16-")]
        target = runs[0].workload.target_quality
        loose = replace(runs[0].workload,
                        target_quality=replace(target, value=0.05))
        for i, run in enumerate(runs):
            if i % 2:
                run = replace(run, workload=loose)
            (tmp_path / f"{run.run_id}.json").write_text(dumps(run))
        reference = (["--reference", str(ranking_store["reference"])]
                     if command == "report" else [])
        code, out, err = run_cli(capsys, command, str(tmp_path), *reference)
        assert (code, out) == (3, "")
        assert "image_classification (target 0.763)" in err
        assert "image_classification (target 0.05)" in err


    def test_report_does_not_depend_on_input_order(self, ranking_store,
                                                   tmp_path, capsys):
        runs = [r for r in ranking_store["runs"]
                if r.run_id.startswith("ic-mixed-64-")]
        layers = [dict(layer) for layer in runs[0].declaration.layers]
        layers[4]["framework"] = "pytorch-unreviewed"
        runs[0] = replace(runs[0],
                          declaration=NineLayerDeclaration(tuple(layers)))
        paths = []
        for run in runs:
            paths.append(str(tmp_path / f"{run.run_id}.json"))
            Path(paths[-1]).write_text(dumps(run))
        argv = ["report", "--reference", str(ranking_store["reference"]),
                "--format", "json"]
        forward = run_cli(capsys, *argv, *paths)
        backward = run_cli(capsys, *argv, *reversed(paths))
        assert forward == backward
        code, out, _ = forward
        doc = json.loads(out)
        assert code == 2 and not doc["rule_audit"]["clean"]
        assert [v["key"] for v in doc["rule_audit"]["violations"]] == [
            "framework"]
        assert [row["run_id"] for row in doc["scores"]["runs"]] == sorted(
            r.run_id for r in runs)


class TestSelection:
    """Under --store, --select picks record files by name before reading;
    positional paths are read whole."""

    @pytest.fixture
    def store(self, ranking_store, tmp_path):
        root = tmp_path / "store"
        shutil.copytree(ranking_store["root"], root)
        return root

    @pytest.mark.parametrize("name, expected", [("zz-bad", 0),
                                                ("ic-mixed-64-zz", 3)])
    def test_bad_file_counts_only_inside_the_selection(self, store, capsys,
                                                       name, expected):
        (store / "image_classification" / f"{name}.json").write_text("{nope")
        code, out, err = run_cli(capsys, "aggregate", "--store", str(store),
                                 "--select", "ic-mixed-64-*",
                                 "--format", "json")
        assert code == expected
        if code == 0:
            assert (json.loads(out)["runs"], err) == (10, "")
        else:
            assert err.endswith("error: 1 input document(s) rejected; "
                                "refusing to aggregate\n")

    def test_bad_file_under_a_positional_directory_counts(self, store,
                                                          capsys):
        (store / "image_classification" / "zz-bad.json").write_text("{nope")
        code, out, err = run_cli(capsys, "aggregate", str(store),
                                 "--select", "ic-mixed-64-*")
        assert (code, out) == (3, "")
        assert "zz-bad.json" in err

    def test_selected_files_are_listed_once(self, store, capsys,
                                            monkeypatch):
        listed = []
        json_files = store_mod._json_files

        def counted(path, stem_glob=None):
            listed.append(str(path))
            return json_files(path, stem_glob)

        monkeypatch.setattr(store_mod, "_json_files", counted)
        code, out, _ = run_cli(capsys, "aggregate", "--store", str(store),
                               "--select", "ic-mixed-64-*", "--format", "json")
        assert (code, json.loads(out)["runs"]) == (0, 10)
        assert listed == [str(store)]

    def test_audit_matches_one_call_per_run(self, ranking_store,
                                            monkeypatch):
        runs = list(ranking_store["runs"])
        reference = NineLayerDeclaration.from_dict(
            json.loads(ranking_store["reference"].read_text()))
        for i, sync in enumerate((True, 1)):
            layers = [dict(layer) for layer in runs[i].declaration.layers]
            layers[5]["sync_mode"] = sync
            runs.append(replace(runs[i], run_id=f"sync-{i}",
                                declaration=NineLayerDeclaration(tuple(layers))))
        runs.append(replace(runs[-1], run_id="system-level",
                            level=BenchLevel.SYSTEM))
        expected = [rules.validate_declaration(r, reference) for r in runs]
        calls = []
        validate = rules.validate_declaration

        def counted(run, ref):
            calls.append(run)
            return validate(run, ref)

        monkeypatch.setattr(rules, "validate_declaration", counted)
        assert rules.audit(runs, reference) == expected
        # one call per configuration (each declares its own precision
        # and batch size), per sync_mode value and for the second level
        assert len(calls) == 6 + 3
        messages = [v.message for v in expected[-3] + expected[-2]
                    if "synchronous SGD" in v.message]
        assert messages == [
            "training must be synchronous SGD, declared True",
            "training must be synchronous SGD, declared 1"]


class TestStoreSelection:
    """--store and --workload name a store tree and one workload
    directory inside it, never a path outside it."""

    @pytest.fixture
    def trees(self, ranking_runs, tmp_path):
        """``S`` is a store of one run; ``T/x`` holds another run."""
        runs, _ = ranking_runs
        ResultsStore(tmp_path / "S").add(runs[0])
        (tmp_path / "T" / "x").mkdir(parents=True)
        (tmp_path / "T" / "x" / "r.json").write_text(dumps(runs[1]))
        return tmp_path

    @pytest.mark.parametrize("workload", ["../T/x", "..", "", ".hidden"])
    def test_unsafe_workload_is_refused(self, trees, capsys, workload):
        assert run_cli(capsys, "score", "--store", str(trees / "S"),
                       "--workload", workload) == (
            3, "", f"error: workload name {workload!r} is not a safe path "
                   "component (allowed: [A-Za-z0-9][A-Za-z0-9._-]*)\n")

    def test_workload_link_is_refused(self, trees, capsys):
        # a read of the whole store skips the link, so --workload may not
        # follow it out of the store
        (trees / "S" / "link").symlink_to(trees / "T" / "x",
                                         target_is_directory=True)
        assert run_cli(capsys, "score", "--store", str(trees / "S"),
                       "--workload", "link") == (
            3, "", f"error: workload directory {trees / 'S' / 'link'} is a "
                   "symbolic link\n")

    def test_empty_store_is_refused(self, trees, capsys):
        assert run_cli(capsys, "score", "--store", "", str(trees / "T")) == (
            3, "", "error: store root is an empty path\n")

    def test_workload_names_a_directory_of_the_store(self, trees,
                                                     ranking_runs, capsys):
        code, out, err = run_cli(capsys, "score", "--store", str(trees / "S"),
                                 "--workload", "image_classification",
                                 "--format", "csv")
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()] == [
            "run_id", ranking_runs[0][0].run_id]


class TestPathSpelling:
    """Diagnostics and errors spell each path as ``Path`` does: ``./s/``
    and ``s//`` read as ``s``."""

    DIAGNOSTICS = (
        "schema: s/image_classification/bad.json: Expecting property name "
        "enclosed in double quotes in s/image_classification/bad.json at "
        "line 1, column 2\n"
        "schema: s/image_classification/ic-fp32-16-r00.json: duplicate "
        "run_id 'ic-fp32-16-r00' (first seen in s/copy/dup.json)\n")

    @pytest.fixture(autouse=True)
    def cwd(self, ranking_runs, tmp_path, monkeypatch):
        """``s`` holds three runs, a parse error and, in ``s/copy``, a
        second copy of the first run, which is read first."""
        runs, _ = ranking_runs
        ResultsStore(tmp_path / "s").add_all(runs[:3])
        (tmp_path / "s" / "image_classification" / "bad.json").write_text(
            "{nope")
        (tmp_path / "s" / "copy").mkdir()
        (tmp_path / "s" / "copy" / "dup.json").write_text(dumps(runs[0]))
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("argv", [
        ["./s/"], ["s//"], ["s"], ["--store", "./s/"], ["--store", "s//"]])
    def test_store_diagnostics(self, capsys, argv):
        code, out, err = run_cli(capsys, "score", *argv)
        assert (code, err) == (3, self.DIAGNOSTICS)
        assert [line.split()[0] for line in out.splitlines()] == [
            "run_id", "ic-fp32-16-r00", "ic-fp32-16-r01", "ic-fp32-16-r02"]
        assert run_cli(capsys, "score", "s")[1] == out
        assert run_cli(capsys, "rank", *argv) == (
            3, "", self.DIAGNOSTICS
            + "error: 2 input document(s) rejected; refusing to rank\n")

    @pytest.mark.parametrize("arg", ["./s//copy/dup.json", "s/copy/dup.json"])
    def test_single_file(self, capsys, arg):
        assert run_cli(capsys, "score", "--format", "csv", arg) == (
            0, "run_id,flops,vflops,vflops_per_watt,time_to_quality,penalty\n"
               "ic-fp32-16-r00,1.0556e+14,1.0556e+14,1.885e+10,25100.4,1\n",
            "")
        code, _, err = run_cli(capsys, "score", "./s//image_classification/"
                                               "bad.json")
        assert (code, err) == (3, self.DIAGNOSTICS.splitlines(True)[0])

    @pytest.mark.parametrize("arg", ["x.json", "./x.json"])
    def test_missing_file_is_internal_error(self, capsys, arg):
        assert run_cli(capsys, "score", arg) == (
            1, "", "error: [Errno 2] No such file or directory: 'x.json'\n")

    def test_select_glob_picks_file_names(self, capsys):
        code, out, err = run_cli(capsys, "score", "--format", "csv",
                                 "--store", "s", "--select", "ic-*-r0[13]")
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()] == [
            "run_id", "ic-fp32-16-r01"]


class TestRooflineCommand:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        system_path = tmp_path / "system.json"
        system_path.write_text(dumps(case_study_system()))
        ceilings_path = tmp_path / "ceilings.json"
        ceilings_path.write_text(json.dumps([
            {"name": "gemm_fp32", "kind": "computation", "value": 920e12},
            {"name": "intra", "kind": "communication", "value": 300e9},
        ]))
        points_path = tmp_path / "points.json"
        points_path.write_text(json.dumps([
            {"label": "ewa16", "flops_total": 16 * 691e9,
             "comm_traffic": 2 * 164e6, "attained": 25.99e12},
        ]))
        csv_path, svg_path = tmp_path / "roof.csv", tmp_path / "roof.svg"
        code, out, err = run_cli(
            capsys, "roofline", "--system", str(system_path),
            "--mode", "distributed", "--ceilings", str(ceilings_path),
            "--points", str(points_path),
            "--out-csv", str(csv_path), "--out-svg", str(svg_path))
        assert code == 0, err
        assert "ridge" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("coi,bound_flops")
        assert 'viewBox="0 0 960 540"' in svg_path.read_text()

    @pytest.mark.parametrize("svg", ["roof.out", "sub/../roof.out"])
    def test_one_path_for_both_outputs_is_refused(self, tmp_path, capsys,
                                                   monkeypatch, svg):
        (tmp_path / "sub").mkdir()
        (tmp_path / "system.json").write_text(dumps(case_study_system()))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "roofline", "--system", "system.json",
                                 "--out-csv", "roof.out", "--out-svg", svg)
        assert (code, out) == (3, "")
        assert err == (f"error: --out-csv and --out-svg both name {svg}; "
                       f"give each its own file\n")
        assert not (tmp_path / "roof.out").exists()

    def test_without_outputs_prints_the_csv(self, tmp_path, capsys):
        (tmp_path / "system.json").write_text(dumps(case_study_system()))
        code, out, err = run_cli(capsys, "roofline", "--system",
                                 str(tmp_path / "system.json"))
        assert (code, err) == (0, "")
        head, *rows = out.splitlines()
        assert head.startswith("mode: distributed  peak ")
        assert rows[0] == "coi,bound_flops"
        assert len(rows) == 257

    @pytest.mark.parametrize("out_flag", ["--out-csv", "--out-svg"])
    @pytest.mark.parametrize("in_flag", ["--system", "--ceilings", "--points"])
    def test_output_over_an_input_is_refused(self, tmp_path, capsys,
                                             monkeypatch, in_flag, out_flag):
        (tmp_path / "sub").mkdir()
        files = {"--system": dumps(case_study_system()),
                 "--ceilings": "[]", "--points": "[]"}
        argv = ["roofline"]
        for flag, text in files.items():
            name = flag[2:] + ".json"
            (tmp_path / name).write_text(text)
            argv += [flag, name]
        monkeypatch.chdir(tmp_path)
        same = f"sub/../{in_flag[2:]}.json"
        code, out, err = run_cli(capsys, *argv, out_flag, same)
        assert (code, out) == (3, "")
        assert err == (f"error: {out_flag} would write over the {in_flag} "
                       f"file {in_flag[2:]}.json; give the output its own "
                       "file\n")
        assert {p.name: p.read_text() for p in tmp_path.glob("*.json")} == {
            flag[2:] + ".json": text for flag, text in files.items()}


def write_scenario(tmp_path):
    scenario = {
        "system": case_study_system().to_dict(),
        "workload": ewa_workload().to_dict(),
        "sweep": [8, 16],
        "per_rank_batch": 1,
        "alpha": 0.7,
        "options": {"achieved_quality": 0.35,
                    "compute_efficiency": 0.26},
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    return scenario_path


class TestSimulateCommand:
    def test_scenario_sweep(self, tmp_path, capsys):
        scenario_path = write_scenario(tmp_path)
        out_dir = tmp_path / "results"
        code, out, err = run_cli(capsys, "simulate", str(scenario_path),
                                 "--out", str(out_dir), "--format", "json")
        assert code == 0, err
        rows = json.loads(out)
        assert [r["scale"] for r in rows] == [8, 16]
        assert (out_dir / "sweep.csv").exists()
        assert len(list(out_dir.glob("sim-*.json"))) == 2


class TestOneOutputRule:
    """No command writes over a file it reads, or writes one file twice,
    whatever names the file goes by: a hard link is the same file."""

    def test_roofline_output_over_a_hard_link_of_its_system(
            self, tmp_path, capsys, monkeypatch):
        text = dumps(case_study_system())
        (tmp_path / "sys.json").write_text(text)
        os.link(tmp_path / "sys.json", tmp_path / "hl.json")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "roofline", "--system", "sys.json",
                       "--out-csv", "hl.json") == (
            3, "", "error: --out-csv would write over the --system file "
                   "sys.json; give the output its own file\n")
        assert (tmp_path / "sys.json").read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hl.json",
                                                              "sys.json"]

    def test_roofline_outputs_that_are_one_file(self, tmp_path, capsys,
                                                monkeypatch):
        (tmp_path / "sys.json").write_text(dumps(case_study_system()))
        (tmp_path / "roof.csv").write_text("old")
        os.link(tmp_path / "roof.csv", tmp_path / "roof.svg")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "roofline", "--system", "sys.json",
                       "--out-csv", "roof.csv", "--out-svg", "roof.svg") == (
            3, "", "error: --out-csv and --out-svg both name roof.svg; "
                   "give each its own file\n")
        assert (tmp_path / "roof.csv").read_text() == "old"

    @pytest.mark.parametrize("fmt, writer", [
        ("json", "--out"), ("md", "the .json twin of --out")])
    def test_report_out_over_a_hard_link_of_a_run_file(
            self, ranking_store, tmp_path, capsys, monkeypatch, fmt, writer):
        (tmp_path / "R").mkdir()
        for run in ranking_store["runs"]:
            if run.run_id.startswith("ic-mixed-64-"):
                (tmp_path / "R" / f"{run.run_id}.json").write_text(dumps(run))
        os.link(tmp_path / "R" / "ic-mixed-64-r00.json", tmp_path / "hl.json")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*.json")}
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(
            capsys, "report", "R", "--select", "ic-mixed-64-*",
            "--format", fmt, "--reference", str(ranking_store["reference"]),
            "--out", f"hl.{fmt}")
        assert (code, stdout) == (3, "")
        assert err == (f"error: {writer} would write over the run file "
                       "R/ic-mixed-64-r00.json; give the output its own "
                       "file\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*.json")} == before
        assert not list(tmp_path.rglob("*.md"))

    def test_simulate_out_over_its_own_scenario(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        scenario = write_scenario(tmp_path).rename(tmp_path / "d" / "sweep.csv")
        text = scenario.read_text()
        assert run_cli(capsys, "simulate", str(scenario),
                       "--out", str(tmp_path / "d")) == (
            3, "", "error: the sweep summary would write over the scenario "
                   f"file {scenario}; give the output its own file\n")
        assert scenario.read_text() == text
        assert list((tmp_path / "d").iterdir()) == [scenario]

    def test_output_in_a_symbolic_link_loop_fails_to_open(
            self, tmp_path, capsys, monkeypatch):
        (tmp_path / "sys.json").write_text(dumps(case_study_system()))
        (tmp_path / "loop").symlink_to("loop")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "roofline", "--system", "sys.json",
                       "--out-csv", "loop") == (
            1, "", f"error: [Errno {errno.ELOOP}] "
                   f"{os.strerror(errno.ELOOP)}: 'loop'\n")

    def test_no_output_reads_and_stats_nothing(self, monkeypatch):
        def inputs():
            raise AssertionError("inputs listed")
            yield

        def stat(*args, **kwargs):
            raise AssertionError("stat called")

        monkeypatch.setattr(store_mod, "os", SimpleNamespace(stat=stat))
        store_mod._refuse_overwrite([("--out", None), ("twin", "")], inputs())


class TestSingleFileInputs:
    """A missing input or a directory fails with the message
    ``Path.read_bytes`` gives, naming the path as ``Path`` spells it."""

    @pytest.mark.parametrize("name, message", [
        ("./absent.json", "[Errno 2] No such file or directory: 'absent.json'"),
        ("./sub/", "[Errno 21] Is a directory: 'sub'")])
    @pytest.mark.parametrize("argv", [
        ["roofline", "--system", "{}"],
        ["roofline", "--system", "sys.json", "--ceilings", "{}"],
        ["roofline", "--system", "sys.json", "--points", "{}"],
        ["simulate", "{}"],
        ["validate", "--reference", "{}"],
        ["rank", "R", "--reference", "{}"]])
    def test_message(self, ranking_store, tmp_path, capsys, monkeypatch,
                     argv, name, message):
        (tmp_path / "sub").mkdir()
        (tmp_path / "R").mkdir()
        run = ranking_store["runs"][0]
        (tmp_path / "R" / f"{run.run_id}.json").write_text(dumps(run))
        (tmp_path / "sys.json").write_text(dumps(case_study_system()))
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *(a.format(name) for a in argv)) == (
            1, "", f"error: {message}\n")


class TestParserReuse:
    """``main`` builds its parser once per process; no call leaves
    anything in it that a later call reads."""

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_usage_error_does_not_leak_into_the_next_call(self, tmp_path,
                                                           capsys):
        scenario = str(write_scenario(tmp_path))
        _, alone, _ = run_cli(capsys, "simulate", scenario, "--format", "json")
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 3
        capsys.readouterr()
        code, after, _ = run_cli(capsys, "simulate", scenario,
                                 "--format", "json")
        assert code == 0
        assert after == alone

    @pytest.mark.parametrize("flag, value", [
        ("--reference", None), ("--select", "ic-fp32-16-*"),
        ("--workload", "image_classification")])
    def test_an_omitted_flag_reads_as_unset(self, ranking_store, monkeypatch,
                                            capsys, flag, value):
        seen = []
        runs = cli._runs

        def spy(args, verb):
            seen.append(args)
            return runs(args, verb)

        monkeypatch.setattr(cli, "_runs", spy)
        root = str(ranking_store["root"])
        value = value or str(ranking_store["reference"])
        run_cli(capsys, "rank", flag, value, root)
        run_cli(capsys, "rank", root)
        attr = flag.lstrip("-")
        assert getattr(seen[0], attr) == value
        assert getattr(seen[1], attr) is None


class TestHostileInputs:
    """Bad input files and flags end in ``error: ...`` and exit 3."""

    @pytest.fixture
    def files(self, tmp_path):
        for name, data in (("not_utf8", b"\xff\xfe[]"),
                           ("too_deep", b"[" * 200000)):
            (tmp_path / f"{name}.json").write_bytes(data)
        system_path = tmp_path / "system.json"
        system_path.write_text(dumps(case_study_system()))
        docs = {
            "bad_kind": [{"name": "g", "kind": "gemm", "value": 1e12}],
            "nan_ceiling": [{"name": "g", "kind": "computation",
                             "value": float("nan")}],
            "ceiling_object": {"name": "g", "kind": "computation",
                               "value": 1e12},
            "point_not_object": [5],
            "point_not_number": [{"label": "a", "flops_total": "x",
                                  "comm_traffic": 1.0}],
            "label_not_string": [{"label": 5, "flops_total": 1e9,
                                  "comm_traffic": 1.0}],
        }
        paths = {name: str(tmp_path / f"{name}.json")
                 for name in ("system", "not_utf8", "too_deep")}
        for name, doc in docs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        return paths

    @pytest.mark.parametrize("flag, name", [
        ("--ceilings", "bad_kind"),
        ("--ceilings", "nan_ceiling"),
        ("--ceilings", "ceiling_object"),
        ("--points", "point_not_object"),
        ("--points", "point_not_number"),
        ("--points", "label_not_string"),
        ("--points", "not_utf8"),
        ("--ceilings", "too_deep"),
    ])
    def test_roofline_input_files(self, files, capsys, flag, name):
        code, out, err = run_cli(capsys, "roofline", "--system",
                                 files["system"], flag, files[name])
        assert code == 3
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("name", ["not_utf8", "too_deep"])
    def test_unreadable_system_and_reference(self, files, ranking_store,
                                             capsys, name):
        for argv in (["roofline", "--system", files[name]],
                     ["validate", "--store", str(ranking_store["root"]),
                      "--reference", files[name]]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_precision_flag(self, files, capsys):
        with pytest.raises(SystemExit) as info:
            main(["roofline", "--system", files["system"],
                  "--precision", "fp64"])
        assert info.value.code == 3
        assert "error: argument --precision" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["roofline", "--system", "s.json", "--store", "runs"],
        ["roofline", "--system", "s.json", "--format", "json"],
        ["simulate", "scenario.json", "--store", "runs"],
        ["simulate", "scenario.json", "--lenient"],
        ["validate", "--reference", "r.json", "--format", "csv"],
        ["aggregate", "--format", "csv"],
        ["report", "--reference", "r.json", "--format", "csv"],
        ["score", "--lenient"],
        ["rank", "--lenient"],
        ["validate", "--reference", "r.json", "--lenient"],
        ["aggregate", "--lenient"],
        ["report", "--reference", "r.json", "--lenient"],
        ["roofline", "--system", "s.json", "--lenient"],
    ])
    def test_flag_the_command_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("per_rank_batch", "abc"),
        ("options", {"achieved_quality": 0.35, "run_id": "../escaped"}),
        ("options", {"achieved_quality": 0.35,
                     "extra_declaration": {"x.y": 1}}),
        ("options", {"achieved_quality": 0.35,
                     "extra_declaration": {"0.note": "z"}}),
        ("options", {"achieved_quality": 0.35, "negotiation_skew": 1e-4,
                     "skew_seed": [1]}),
    ])
    def test_simulate_scenario_values(self, tmp_path, capsys, key, value):
        scenario_path = write_scenario(tmp_path)
        doc = json.loads(scenario_path.read_text())
        doc[key] = value
        scenario_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out" / "records"
        code, _, err = run_cli(capsys, "simulate", str(scenario_path),
                               "--out", str(out_dir))
        assert code == 3
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()
