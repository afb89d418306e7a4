import json
import shutil
from dataclasses import replace

import pytest

from hpcbench import rules
from hpcbench.cli import _audit, main
from hpcbench.core import BenchLevel, NineLayerDeclaration, dumps
from hpcbench.presets import case_study_system, ewa_workload
from hpcbench.rules import Severity


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

    def test_read_does_not_create_the_store(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "score", "--store",
                               str(tmp_path / "absent"), "--format", "json")
        assert (code, json.loads(out)) == (0, [])
        assert not (tmp_path / "absent").exists()

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
        assert _audit(runs, reference) == expected
        # one call per configuration (each declares its own precision
        # and batch size), per sync_mode value and for the second level
        assert len(calls) == 6 + 3
        messages = [v.message for v in expected[-3] + expected[-2]
                    if "synchronous SGD" in v.message]
        assert messages == [
            "training must be synchronous SGD, declared True",
            "training must be synchronous SGD, declared 1"]


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

    @pytest.mark.parametrize("key, value", [
        ("per_rank_batch", "abc"),
        ("options", {"achieved_quality": 0.35, "run_id": "../escaped"}),
        ("options", {"achieved_quality": 0.35,
                     "extra_declaration": {"x.y": 1}}),
        ("options", {"achieved_quality": 0.35,
                     "extra_declaration": {"0.note": "z"}}),
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
