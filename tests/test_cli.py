"""End-to-end command-line behaviour via main()."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import gradmine
from conftest import write_csv
from gradmine import SearchConfig
from gradmine.cli import _TUNING, main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("GRADMINE_SEED", raising=False)


class TestMine:
    def test_exhaustive_text_output(self, course_csv, capsys):
        assert main(["mine", "--data", str(course_csv)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"dataset: {course_csv} (4 objects, 3 attributes)"
        assert lines[1] == "algorithm: graank (auto)"
        assert lines[2] == "space: numeric [5, 42]"
        assert lines[3] == "min support: 0.5"
        assert lines[4] == "seed: 0"
        assert lines[5] == "best: {age+, marks+}  support=0.8333  fitness=0.2"
        assert lines[6] == "frequent patterns: 8"
        assert "  {age+, sessions+}  support=0.6667" in lines
        assert lines[-1] == "evaluations: 20"

    def test_explicit_algo_drops_auto_tag(self, course_csv, capsys):
        assert main(["mine", "--data", str(course_csv), "--algo", "graank"]) == 0
        assert "algorithm: graank\n" in capsys.readouterr().out

    def test_unknown_algo_is_usage_error(self, course_csv):
        with pytest.raises(SystemExit) as err:
            main(["mine", "--data", str(course_csv), "--algo", "xx"])
        assert err.value.code == 2

    def test_missing_file_is_runtime_error(self, capsys):
        assert main(["mine", "--data", "no/such.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_miner_failure_is_runtime_error(self, course_csv, capsys, monkeypatch):
        def fail(*args):
            raise ValueError("high is out of bounds for int64")

        monkeypatch.setattr("gradmine.cli.run_miner", fail)
        assert main(["mine", "--data", str(course_csv), "--algo", "ga"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: high is out of bounds for int64\n"
        assert captured.out == ""

    def test_index_over_memory_limit_is_runtime_error(self, course_csv, capsys, monkeypatch):
        # The course table's index takes 48 bytes: 6 rows of one word.
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 47)
        assert main(["mine", "--data", str(course_csv)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "n=4" in captured.err and "m=3" in captured.err and "48-byte" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("algo", ["rs", "ls", "ga", "pso"])
    def test_seeded_runs_are_byte_identical(self, course_csv, capsys, algo):
        argv = ["mine", "--data", str(course_csv), "--algo", algo, "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first

    def test_json_output(self, course_csv, capsys):
        assert main(["mine", "--data", str(course_csv), "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "graank"
        assert payload["bounds"] == [5, 42]
        assert payload["attribute_names"] == ["age", "sessions", "marks"]
        assert payload["best"]["support"] == pytest.approx(5 / 6)
        assert len(payload["frequent_patterns"]) == 8
        assert payload["evaluations"] == 20

    def test_env_seed_replaces_default(self, course_csv, capsys, monkeypatch):
        argv = ["mine", "--data", str(course_csv), "--algo", "rs"]
        monkeypatch.setenv("GRADMINE_SEED", "7")
        assert main(argv) == 0
        via_env = capsys.readouterr().out
        assert "seed: 7" in via_env
        monkeypatch.delenv("GRADMINE_SEED")
        assert main(argv + ["--seed", "7"]) == 0
        assert capsys.readouterr().out == via_env

    def test_explicit_seed_beats_env(self, course_csv, capsys, monkeypatch):
        monkeypatch.setenv("GRADMINE_SEED", "7")
        argv = ["mine", "--data", str(course_csv), "--algo", "rs", "--seed", "3"]
        assert main(argv) == 0
        assert "seed: 3" in capsys.readouterr().out

    def test_bad_env_seed_is_usage_error(self, course_csv, capsys, monkeypatch):
        monkeypatch.setenv("GRADMINE_SEED", "seven")
        assert main(["mine", "--data", str(course_csv), "--algo", "rs"]) == 2
        assert "GRADMINE_SEED" in capsys.readouterr().err

    def test_tuning_flags_cover_the_searcher_fields(self):
        tuned = [name for _, name, _ in _TUNING]
        own = {"max_iterations", "seed", "sigma"}  # --iters, --seed, --min-sup
        assert tuned == [f.name for f in fields(SearchConfig) if f.name not in own]

    @pytest.mark.parametrize("flag, name", [(flag, name) for flag, name, _ in _TUNING])
    def test_tuning_flag_reaches_its_config_field(self, course_csv, monkeypatch, flag, name):
        configs = []
        real = gradmine.cli.run_miner

        def spy(algorithm, d, space, config):
            configs.append(config)
            return real(algorithm, d, space, config)

        monkeypatch.setattr(gradmine.cli, "run_miner", spy)
        default = getattr(SearchConfig(), name)
        value = default + 1 if isinstance(default, int) else default / 2
        assert main(["mine", "--data", str(course_csv), "--algo", "ga", flag, str(value)]) == 0
        assert configs == [replace(SearchConfig(), **{name: value})]

    def test_bad_tuning_value_is_usage_error(self, course_csv, capsys):
        assert main(["mine", "--data", str(course_csv), "--algo", "ga", "--npop", "1"]) == 2
        assert capsys.readouterr().err == "error: npop must be >= 2\n"

    def test_graank_beyond_the_enumeration_guard_is_runtime_error(self, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        rng = np.random.default_rng(4)
        write_csv(wide, tuple(f"c{i}" for i in range(15)), rng.random((3, 15)).tolist())
        assert main(["mine", "--data", str(wide), "--algo", "graank"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: cannot enumerate candidates for 15 attributes (guard: 14)\n"
        assert captured.out == ""


class TestSpace:
    def test_bounds_three_attrs(self, capsys):
        assert main(["space", "--attrs", "3"]) == 0
        assert capsys.readouterr().out == "bounds: [5, 42], valid: 20\n"

    def test_bounds_two_attrs(self, capsys):
        assert main(["space", "--attrs", "2"]) == 0
        assert capsys.readouterr().out == "bounds: [5, 10], valid: 4\n"

    def test_bitmap_bounds(self, capsys):
        assert main(["space", "--attrs", "3", "--space", "bitmap"]) == 0
        assert capsys.readouterr().out == "bounds: [0, 63], valid: 20\n"

    def test_attrs_below_two_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["space", "--attrs", "1"])
        assert err.value.code == 2

    def test_list_valid(self, capsys):
        assert main(["space", "--attrs", "3", "--list-valid"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 20
        assert lines[1] == "5\t000101\t{col1-, col2-}"
        assert lines[-1] == "42\t101010\t{col0+, col1+, col2+}"

    def test_list_valid_beyond_the_enumeration_guard(self, capsys):
        assert main(["space", "--attrs", "15", "--list-valid"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "bounds: [5, 715827882], valid: 14348876\n"
        assert captured.err == "error: cannot enumerate candidates for 15 attributes (guard: 14)\n"

    def test_names_from_dataset(self, course_csv, capsys):
        assert main(["space", "--data", str(course_csv), "--list-valid"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bounds: [5, 42], valid: 20"
        assert lines[-1] == "42\t101010\t{age+, sessions+, marks+}"


class TestUnreadableData:
    @pytest.mark.parametrize("command", ["mine", "space"])
    def test_one_error_line(self, unreadable_csv, capsys, command):
        assert main([command, "--data", str(unreadable_csv)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {unreadable_csv}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_bench_runs_the_other_datasets(self, tmp_path, course_csv, unreadable_csv, capsys):
        out_dir = tmp_path / "out"
        argv = ["bench", "--algos", "rs", "--reps", "1", "--iters", "5", "--out-dir", str(out_dir)]
        assert main([*argv, "--data", str(unreadable_csv), str(course_csv)]) == 1
        assert f"dataset failed: {unreadable_csv}: cannot read" in capsys.readouterr().err
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert [(c["dataset"], c["error"]) for c in report["cells"]] == [("course", None)]
        assert [f["dataset"] for f in report["dataset_failures"]] == ["bad"]


class TestBench:
    def test_writes_report_files(self, tmp_path, course_csv, capsys):
        out_dir = tmp_path / "out"
        argv = [
            "bench",
            "--data", str(course_csv),
            "--algos", "rs", "graank",
            "--reps", "2",
            "--iters", "10",
            "--out-dir", str(out_dir),
        ]
        assert main(argv) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["schema_version"] == 1
        assert len(report["cells"]) == 2
        assert (out_dir / "report.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_requires_spec_or_data(self, tmp_path, capsys):
        assert main(["bench", "--out-dir", str(tmp_path)]) == 2
        assert "--spec or --data" in capsys.readouterr().err

    def test_bad_spec_file(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("not json", encoding="utf-8")
        assert main(["bench", "--spec", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert main(["bench", "--spec", "no/such.json", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flags, spec",
        [
            (["--iters", "0"], None),
            ([], {"overrides": {"ga": {"npop": 1}}}),
            ([], {"overrides": {"ga": {"npop": "ten"}}}),
            ([], {"repetitions": "3"}),
            ([], {"datasets": "t0.csv"}),
            ([], {"overrides": {"ga": 5}}),
            ([], {"base_seed": "x"}),
            ([], {"base_seed": 1.5}),
            ([], {"delimiter": 5}),
            ([], {"delimiter": ";;"}),
            ([], {"has_header": "no"}),
        ],
        ids=[
            "iters-0", "npop-1", "npop-str", "reps-str", "datasets-str", "override-int",
            "seed-str", "seed-float", "delimiter-int", "delimiter-two-chars", "header-str",
        ],
    )
    def test_spec_errors_are_usage_errors(self, tmp_path, course_csv, capsys, flags, spec):
        out_dir = tmp_path / "out"
        argv = ["bench", "--algos", "ga", *flags, "--out-dir", str(out_dir)]
        if spec is None:
            argv += ["--data", str(course_csv)]
        else:
            path = tmp_path / "spec.json"
            raw = {"datasets": [str(course_csv)], "algorithms": ["ga"], **spec}
            path.write_text(json.dumps(raw), encoding="utf-8")
            argv += ["--spec", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: benchmark spec: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out_dir.exists()

    def test_scatter_files_per_cell_and_rep(self, tmp_path, course_csv):
        out_dir = tmp_path / "out"
        argv = [
            "bench",
            "--data", str(course_csv),
            "--algos", "rs", "graank",
            "--reps", "2",
            "--iters", "5",
            "--save-trajectories",
            "--out-dir", str(out_dir),
        ]
        assert main(argv) == 0
        scatter = out_dir / "scatter"
        assert (scatter / "course_rs_numeric_rep0.csv").exists()
        assert (scatter / "course_rs_numeric_rep1.csv").exists()
        assert (scatter / "course_graank_full_rep0.csv").exists()
        header = (scatter / "course_rs_numeric_rep0.csv").read_text().splitlines()[0]
        assert header == "iteration,position,fitness,valid"

    def test_wilcoxon_needs_enough_datasets(self, tmp_path, course_csv, capsys):
        out_dir = tmp_path / "out"
        argv = [
            "bench",
            "--data", str(course_csv),
            "--algos", "rs",
            "--spaces", "numeric", "bitmap",
            "--reps", "1",
            "--iters", "5",
            "--out-dir", str(out_dir),
        ]
        assert main(argv) == 0
        assert "wilcoxon rs: skipped" in capsys.readouterr().out

    def test_failed_cell_or_dataset_exits_1(self, tmp_path, course_csv, capsys, monkeypatch):
        real = gradmine.harness.run_miner

        def fail_ls(algorithm, *args):
            if algorithm == "ls":
                raise RuntimeError("boom")
            return real(algorithm, *args)

        monkeypatch.setattr(gradmine.harness, "run_miner", fail_ls)
        out_dir = tmp_path / "out"
        argv = ["bench", "--algos", "rs", "ls", "--reps", "1", "--iters", "5"]
        assert main([*argv, "--data", str(course_csv), "--out-dir", str(out_dir)]) == 1
        assert "cell failed: course/ls/numeric: boom" in capsys.readouterr().err
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert [c["error"] for c in report["cells"]] == [None, "boom"]
        assert len((out_dir / "report.csv").read_text().splitlines()) == 3

        monkeypatch.setattr(gradmine.harness, "run_miner", real)
        missing = str(tmp_path / "missing.csv")
        assert main([*argv, "--data", str(course_csv), missing, "--out-dir", str(out_dir)]) == 1
        assert "dataset failed:" in capsys.readouterr().err
        assert (out_dir / "report.json").exists()

    def test_index_over_memory_limit_fails_the_dataset(self, tmp_path, course_csv, capsys, monkeypatch):
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 47)
        out_dir = tmp_path / "out"
        argv = ["bench", "--algos", "rs", "--reps", "1", "--iters", "5"]
        assert main([*argv, "--data", str(course_csv), "--out-dir", str(out_dir)]) == 1
        assert "dataset failed:" in capsys.readouterr().err
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["cells"] == []
        [failure] = report["dataset_failures"]
        assert failure["dataset"] == "course" and "48-byte" in failure["error"]


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; the command's start-up must not pay for it.
    src = str(Path(gradmine.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = "import gradmine.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
