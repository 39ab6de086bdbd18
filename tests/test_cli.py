"""End-to-end command-line behaviour via main()."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import gradmine
from conftest import write_csv
from gradmine import BenchSpec, SearchConfig, build_space, to_pattern
from gradmine.cli import _TUNING, _config_from_args, _spec_from_args, build_parser, main


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
        assert main(["mine", "--data", "no/such.csv", "--seed", "1", "--npop", "4"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--npop", "1")])
    def test_flags_are_checked_before_the_file(self, capsys, flag, value):
        assert main(["mine", "--data", "no/such.csv", flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag[2:]} must be")

    def test_duplicate_names_are_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        write_csv(path, ("a", "a", "b"), [[1, 2, 3], [4, 5, 6], [7, 9, 8]])
        assert main(["mine", "--data", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: duplicate attribute name 'a'\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "exc",
        [
            ValueError("high is out of bounds for int64"),
            OSError(28, "No space left on device"),
            RuntimeError("boom"),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    @pytest.mark.parametrize(
        "command, name",
        [
            ("mine", "load_dataset"),
            ("mine", "run_miner"),
            ("space", "load_dataset"),
            ("bench", "write_report_json"),
        ],
    )
    def test_miner_failure_is_runtime_error(
        self, tmp_path, course_csv, capsys, monkeypatch, command, name, exc
    ):
        # main alone turns a runtime failure into exit 1 and one line.
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(f"gradmine.cli.{name}", fail)
        argv = {
            "mine": ["mine", "--algo", "ga"],
            "space": ["space", "--list-valid"],
            "bench": ["bench", "--algos", "rs", "--reps", "1", "--out-dir", str(tmp_path / "out")],
        }[command]
        assert main([*argv, "--data", str(course_csv)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {exc}\n"
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

    @pytest.mark.parametrize("out", ["text", "json"])
    @pytest.mark.parametrize("algo", ["graank", "ga"])
    def test_mine_builds_no_trajectory_step(
        self, tmp_path, course_csv, capsys, monkeypatch, algo, out
    ):
        # The trajectory's steps are a view built on first read: mine
        # prints only the evaluation count, and bench writes its scatter
        # files from the trajectory's columns.
        built = []
        step = gradmine.search.TrajectoryStep

        def counting(*values):
            built.append(values)
            return step(*values)

        monkeypatch.setattr(gradmine.search, "TrajectoryStep", counting)
        assert main(["mine", "--data", str(course_csv), "--algo", algo, "--out", out]) == 0
        assert "evaluations" in capsys.readouterr().out
        bench = ["bench", "--data", str(course_csv), "--algos", algo, "--reps", "2",
                 "--save-trajectories", "--out-dir", str(tmp_path / "bench")]
        assert main(bench) == 0
        scatter = list((tmp_path / "bench" / "scatter").iterdir())
        assert len(scatter) == (1 if algo == "graank" else 2)
        assert built == []
        d = gradmine.load_dataset(course_csv)
        r = gradmine.run_miner(algo, d, gradmine.build_space(3), SearchConfig())
        assert len(r.trajectory.steps) == len(built) == r.trajectory.evaluations

    def test_seed_comes_from_argv_alone(self, course_csv, capsys, monkeypatch):
        # GRADMINE_SEED in the environment does not set the seed: the
        # output depends on argv and files alone.
        argv = ["mine", "--data", str(course_csv), "--algo", "rs"]
        monkeypatch.delenv("GRADMINE_SEED", raising=False)
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("GRADMINE_SEED", "7")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        assert "seed: 0\n" in plain

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

    @pytest.mark.parametrize(
        "algo, flags, message",
        [
            ("pso", ["--vmax", "nan"], "max_velocity must be finite, got nan"),
            ("pso", ["--vmax", "inf"], "max_velocity must be finite, got inf"),
            ("ls", ["--step", "nan"], "step_size must be finite, got nan"),
            ("ls", ["--step", "inf"], "step_size must be finite, got inf"),
            ("ga", ["--mscale", "nan"], "mutation_scale must be finite, got nan"),
            ("ga", ["--mscale", "inf"], "mutation_scale must be finite, got inf"),
            ("pso", ["--coef-p", "nan"], "coef_p must be finite, got nan"),
            ("rs", ["--seed", "-1"], "seed must be >= 0, got -1"),
            ("graank", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=[
            "vmax-nan", "vmax-inf", "step-nan", "step-inf", "mscale-nan", "mscale-inf",
            "coef-p-nan", "seed-negative", "graank-seed-negative",
        ],
    )
    def test_nonfinite_value_or_negative_seed_is_usage_error(
        self, course_csv, capsys, algo, flags, message
    ):
        assert main(["mine", "--data", str(course_csv), "--algo", algo, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("out", ["text", "json"])
    def test_bounds_beyond_the_int_to_str_limit(self, tmp_path, capsys, out):
        wide = tmp_path / "wide.csv"
        rng = np.random.default_rng(7)
        write_csv(wide, tuple(f"c{i}" for i in range(7200)), rng.random((4, 7200)).tolist())
        argv = ["mine", "--data", str(wide), "--algo", "rs", "--iters", "3", "--out", out]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if out == "json":
            # json.loads is bound by the same limit; keep the ints as text.
            bounds = json.loads(captured.out, parse_int=str)["bounds"]
        else:
            bounds = re.search(r"space: numeric \[(\d+), (\d+)\]", captured.out).groups()
        assert bounds[0] == "5" and len(bounds[1]) == 4335

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
        # The guard bounds only the sweep: the listing streams at any
        # width.  A reader that closes after 50 lines ends it as
        # `| head -n 50` would, so the 14,348,876 lines are never made.
        class Closes(io.StringIO):
            def write(self, text):
                if self.getvalue().count("\n") == 50:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        out = Closes()
        with contextlib.redirect_stdout(out):
            assert main(["space", "--attrs", "15", "--list-valid"]) == 1
        assert capsys.readouterr().err == ""
        first, *rows = out.getvalue().splitlines()
        assert first == "bounds: [5, 715827882], valid: 14348876"
        assert len(rows) == 49
        space, names = build_space(15), [f"col{i}" for i in range(15)]
        xs = [int(row.split("\t")[0]) for row in rows]
        assert xs[:4] == [5, 6, 9, 10] and xs == sorted(set(xs))
        for x, row in zip(xs, rows):
            assert row == f"{x}\t{x:030b}\t{to_pattern(x, space).render(names)}"

    def test_bounds_beyond_the_int_to_str_limit(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert main(["space", "--attrs", "8000"]) == 0
        captured = capsys.readouterr()
        lower, upper, valid = re.fullmatch(
            r"bounds: \[(\d+), (\d+)\], valid: (\d+)\n", captured.out
        ).groups()
        assert (lower, len(upper), len(valid)) == ("5", 4817, 3817)
        assert captured.err == ""
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

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
        with pytest.raises(SystemExit) as err:
            main(["bench", "--out-dir", str(tmp_path)])
        assert err.value.code == 2
        assert "one of the arguments --spec --data is required" in capsys.readouterr().err

    def test_spec_and_data_are_exclusive(self, tmp_path, course_csv, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"datasets": [str(course_csv)], "algorithms": ["rs"]}))
        out_dir = tmp_path / "out"
        argv = ["bench", "--spec", str(spec), "--data", str(course_csv), "--out-dir", str(out_dir)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "argument --data: not allowed with argument --spec" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "data, spec, message",
        [
            (["d1/x.csv", "d2/x.csv"], None, "repeated dataset names: ['x']"),
            (["a.csv", "a.csv"], None, "repeated dataset names: ['a']"),
            (None, {"algorithms": ["rs", "ga", "rs"]}, "repeated algorithm names: ['rs']"),
            (None, {"spaces": ["bitmap", "bitmap"]}, "repeated space names: ['bitmap']"),
        ],
        ids=["same-stem", "same-path", "algorithms", "spaces"],
    )
    def test_repeated_spec_entries_are_usage_errors(self, tmp_path, capsys, data, spec, message):
        out_dir = tmp_path / "out"
        argv = ["bench", "--out-dir", str(out_dir)]
        if spec is None:
            argv += ["--algos", "rs", "--data", *data]
        else:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"datasets": ["x.csv"], "algorithms": ["rs"], **spec}))
            argv += ["--spec", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: benchmark spec: {message}\n"
        assert captured.out == "" and not out_dir.exists()

    @pytest.mark.parametrize("save", [False, True], ids=["out-dir", "scatter"])
    def test_unusable_out_dir_fails_before_the_grid(
        self, tmp_path, course_csv, capsys, monkeypatch, save
    ):
        def never(spec):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(gradmine.cli, "run_benchmark", never)
        blocker = tmp_path / "out"
        if save:  # the report directory is fine, its scatter/ is a file
            blocker.mkdir()
            blocker = blocker / "scatter"
        blocker.write_text("not a directory", encoding="utf-8")
        argv = ["bench", "--data", str(course_csv), "--algos", "rs", "--out-dir", str(tmp_path / "out")]
        assert main(argv + ["--save-trajectories"] * save) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno") and str(blocker) in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "out" / "report.json").exists()

    def test_bad_spec_file(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("not json", encoding="utf-8")
        assert main(["bench", "--spec", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert main(["bench", "--spec", "no/such.json", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("top", [["t.csv"], "t.csv"], ids=["list", "string"])
    def test_spec_that_is_not_an_object(self, tmp_path, capsys, top):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(top), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["bench", "--spec", str(path), "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: benchmark spec: benchmark spec must be a JSON object\n"
        assert captured.out == "" and not out_dir.exists()

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
            ([], {"overrides": {"ga": {"npop": 4.5}}}),
            ([], {"overrides": {"ls": {"step_size": True}}}),
            (["--base-seed", "-1"], None),
            ([], {"base_seed": -1}),
            ([], {"overrides": {"pso": {"max_velocity": float("nan")}}}),
            ([], {"overrides": {"ga": {"mutation_scale": 10**400}}}),
        ],
        ids=[
            "iters-0", "npop-1", "npop-str", "reps-str", "datasets-str", "override-int",
            "seed-str", "seed-float", "delimiter-int", "delimiter-two-chars", "header-str",
            "npop-float", "step-bool", "seed-negative-flag", "seed-negative", "vmax-nan",
            "mscale-past-float",
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

    def test_saving_holds_one_cells_runs(self, tmp_path):
        # The traced peak that --save-trajectories adds on a grid of eight
        # cells stays near what it adds on the grid's largest cell alone
        # (0.92 times on Python 3.11).  When every run was held until the
        # grid ended, the eight cells added 5.5 times as much.
        rng = np.random.default_rng(0)
        data = tmp_path / "t.csv"
        write_csv(data, tuple(f"c{i}" for i in range(8)), rng.normal(size=(30, 8)).tolist())

        def saving_adds(algos, spaces):
            argv = ["bench", "--data", str(data), "--algos", *algos, "--spaces", *spaces,
                    "--reps", "2", "--iters", "200", "--out-dir", str(tmp_path / "out")]
            peaks = []
            for save in (False, True):
                tracing = tracemalloc.is_tracing()
                tracemalloc.start()
                tracemalloc.reset_peak()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    assert main(argv + ["--save-trajectories"] * save) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                finally:
                    if not tracing:
                        tracemalloc.stop()
            return peaks[1] - peaks[0]

        saving_adds(["rs"], ["numeric"])  # first calls allocate caches: not counted
        one = saving_adds(["pso"], ["bitmap"])
        many = saving_adds(["rs", "ls", "ga", "pso"], ["numeric", "bitmap"])
        assert len(list((tmp_path / "out" / "scatter").iterdir())) == 8 * 2
        assert 0 < many < 1.5 * one

    def test_a_failed_cell_writes_no_scatter_file(self, tmp_path, course_csv, capsys, monkeypatch):
        # The first cell's second run raises: its first run's file is not
        # written either, and the cell after it still writes its own.
        real = gradmine.harness.run_miner

        def fail_ls_rep1(algorithm, d, space, config):
            if algorithm == "ls" and config.seed == 1:
                raise RuntimeError("boom")
            return real(algorithm, d, space, config)

        monkeypatch.setattr(gradmine.harness, "run_miner", fail_ls_rep1)
        out_dir = tmp_path / "out"
        argv = ["bench", "--data", str(course_csv), "--algos", "ls", "rs", "--reps", "2",
                "--iters", "5", "--save-trajectories", "--out-dir", str(out_dir)]
        assert main(argv) == 1
        assert "cell failed: course/ls/numeric: boom" in capsys.readouterr().err
        written = sorted(p.name for p in (out_dir / "scatter").iterdir())
        assert written == ["course_rs_numeric_rep0.csv", "course_rs_numeric_rep1.csv"]
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert [(c["algorithm"], c["error"]) for c in report["cells"]] == [("ls", "boom"), ("rs", None)]

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

    def test_wilcoxon_result_per_searcher(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        tables = []
        for i in range(6):
            path = tmp_path / f"t{i}.csv"
            rows = rng.normal(size=(12, 1)) + rng.normal(size=(12, 4))
            write_csv(path, ("a", "b", "c", "d"), rows.round(3).tolist())
            tables.append(str(path))
        searchers = ("rs", "ls", "ga", "pso")
        argv = [
            "bench",
            "--data", *tables,
            "--algos", *searchers,
            "--spaces", "numeric", "bitmap",
            "--reps", "1",
            "--iters", "5",
            "--out-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wilcoxon")]
        assert [line.split(":")[0] for line in lines] == [f"wilcoxon {a}" for a in searchers]
        for line in lines:
            match = re.fullmatch(
                r"wilcoxon \w+: W=(\S+) p=(\d\.\d{4}) n=(\d+) zeros_dropped=(\d+)", line
            )
            assert match, line
            w, p, n, zeros = float(match[1]), float(match[2]), int(match[3]), int(match[4])
            assert 5 <= n and n + zeros == len(tables)
            assert 0 <= w <= n * (n + 1) / 2 and 0 <= p <= 1

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

    def test_duplicate_names_fail_the_dataset(self, tmp_path, course_csv, capsys):
        dup = tmp_path / "dup.csv"
        write_csv(dup, ("a", "a", "b"), [[1, 2, 3], [4, 5, 6], [7, 9, 8]])
        out_dir = tmp_path / "out"
        argv = ["bench", "--algos", "rs", "--reps", "1", "--iters", "5", "--out-dir", str(out_dir)]
        assert main([*argv, "--data", str(course_csv), str(dup)]) == 1
        assert "dataset failed:" in capsys.readouterr().err
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert [c["dataset"] for c in report["cells"]] == ["course"]
        [failure] = report["dataset_failures"]
        assert failure["dataset"] == "dup" and "duplicate attribute name 'a'" in failure["error"]

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


def test_flag_defaults_are_the_types_defaults():
    # Only the data and output paths are given: every other setting comes
    # from SearchConfig or BenchSpec, and --algos from its own default.
    parser = build_parser()
    config = _config_from_args(parser.parse_args(["mine", "--data", "f.csv"]))
    assert config == SearchConfig()
    spec = _spec_from_args(parser.parse_args(["bench", "--data", "f.csv", "--out-dir", "d"]))
    assert spec.algorithms == ("rs", "ls", "ga", "pso")
    assert spec == BenchSpec(datasets=("f.csv",), algorithms=("rs", "ls", "ga", "pso"))


@pytest.mark.parametrize("command", ["mine", "bench"])
def test_help_shows_every_default(command, capsys):
    # ArgumentDefaultsHelpFormatter shows a default only after help text.
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for action in sub.choices[command]._actions:
        if action.option_strings and action.default not in (None, argparse.SUPPRESS):
            assert f"{action.help} (default: {action.default})" in text, action.option_strings


def _fresh_env() -> dict[str, str]:
    """The environment of a new interpreter that imports this gradmine."""
    src = str(Path(gradmine.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def _run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports this gradmine."""
    subprocess.run(
        [sys.executable, "-c", code], env=_fresh_env(), check=True, timeout=60,
        stdout=subprocess.DEVNULL,
    )


def _buffered_env() -> dict[str, str]:
    """:func:`_fresh_env` with stdout block-buffered, as a console
    script's is when PYTHONUNBUFFERED is unset."""
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


class TestClosedStdout:
    @staticmethod
    def _read_one_line(*launch: str) -> None:
        # As in `gradmine space --attrs 10 --list-valid | head -n 1`: the
        # listing is 59,028 lines, far more than a pipe buffers, so the
        # child's stdout is a real descriptor when the reader closes it.
        argv = ["space", "--attrs", "10", "--list-valid"]
        proc = subprocess.Popen(
            [sys.executable, *launch, *argv], env=_buffered_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first == b"bounds: [5, 699050], valid: 59028\n"
        assert proc.returncode == 1
        assert err == b""  # no traceback, no "Exception ignored" at exit

    def test_reader_that_stops_early(self):
        self._read_one_line("-c", "import sys; from gradmine.cli import main; sys.exit(main())")

    def test_module_script_reader_that_stops_early(self):
        # `python -m gradmine.cli` runs the module's own `__main__` exit.
        self._read_one_line("-m", "gradmine.cli")

    def test_reader_gone_before_the_first_write(self):
        # The whole output fits stdout's buffer, so main's own flush is
        # the first write to meet the closed pipe.  The bytes it leaves
        # in the buffer would fail again at the interpreter's exit flush
        # ("Exception ignored", exit 120) had main not pointed the
        # descriptor at devnull.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gradmine.cli", "space", "--attrs", "3", "--list-valid"],
                env=_buffered_env(), stdout=write, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_stream_without_a_descriptor(self, monkeypatch, capsys):
        # perfbench and pytest hand main a StringIO-like stdout.
        def closed(*args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(gradmine.cli, "valid_candidate_count", closed)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["space", "--attrs", "3"]) == 1
        assert out.getvalue() == "" and capsys.readouterr().err == ""


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; the command's start-up must not pay for it.
    _run_fresh("import gradmine.cli, sys; assert 'scipy' not in sys.modules")


def _loads_numpy(code: str) -> bool:
    """Run ``code`` in a new interpreter; whether numpy was loaded."""
    probe = f"{code}\nimport sys; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_fresh_env(), check=True, timeout=60,
        capture_output=True, text=True,
    ).stdout
    return out.splitlines()[-1] == "True"


def _main(*argv: str) -> str:
    return f"from gradmine.cli import main; assert main({list(argv)!r}) == 0"


#: Start-up cases: numpy is loaded only to draw (ga) or for array rows,
#: not to import, load or sweep a table.  Built without numpy, the index
#: of n >= 220 holds int rows while a sweep's ANDs fit
#: ``fitness.SWEEP_INT_BYTES``; with that budget at 0 it holds arrays.
_NUMPY_CASES = {
    "import gradmine": (lambda table: "import gradmine", False),
    "import gradmine.cli": (lambda table: "import gradmine.cli", False),
    "load_dataset": (lambda table: f"import gradmine; gradmine.load_dataset({table!r})", False),
    "space --data": (lambda table: _main("space", "--data", table), False),
    "mine": (lambda table: _main("mine", "--data", table), False),
    "mine n=219": (lambda table: _main("mine", "--data", table), False),
    "mine --algo ga": (lambda table: _main("mine", "--data", table, "--algo", "ga"), True),
    "mine n=220": (lambda table: _main("mine", "--data", table), False),
    "mine n=220 arrays": (
        lambda table: "import gradmine.fitness; gradmine.fitness.SWEEP_INT_BYTES = 0\n"
        + _main("mine", "--data", table),
        True,
    ),
}


@pytest.mark.parametrize("case", _NUMPY_CASES)
def test_numpy_loads_only_to_draw_or_for_array_rows(case, course_csv, tmp_path):
    # A fresh exhaustive ``gradmine mine`` of a 560 x 6 table took
    # 243-345 ms with numpy's import and 109-150 ms without it on a
    # 2-vCPU x86-64 host.  The seeded tables are on either side of the
    # int-row cutoff; each is swept, its three attributes auto-picking
    # graank.
    make_code, loads = _NUMPY_CASES[case]
    table = course_csv
    if case.startswith("mine n="):
        n = int(case.split()[1].removeprefix("n="))
        table = tmp_path / f"seeded{n}.csv"
        write_csv(table, ("a", "b", "c"), np.random.default_rng(n).normal(size=(n, 3)).tolist())
    assert _loads_numpy(make_code(str(table))) is loads


@pytest.mark.parametrize("numpy_first", [False, True], ids=["without numpy", "numpy loaded"])
def test_index_row_form_follows_numpy(numpy_first, tmp_path):
    # Past INT_ROW_BYTES (n = 220), a table whose sweep fits
    # SWEEP_INT_BYTES gets int rows until numpy is loaded, arrays after.
    table = tmp_path / "seeded220.csv"
    write_csv(table, ("a", "b", "c"), np.random.default_rng(220).normal(size=(220, 3)).tolist())
    form = "ndarray" if numpy_first else "int"
    _run_fresh(
        ("import numpy\n" if numpy_first else "")
        + f"import sys, gradmine; rows = gradmine.load_dataset({str(table)!r}).index._row_list\n"
        + f"assert type(rows[0]).__name__ == {form!r}, type(rows[0])\n"
        + f"assert ('numpy' in sys.modules) is {numpy_first}"
    )


#: Modules that only ``bench`` uses (and ``mine --out json``, for json).
BENCH_ONLY = ("gradmine.harness", "json", "tracemalloc")


def _run_lean(code: str) -> None:
    """Run ``code`` fresh, then check that it loaded none of BENCH_ONLY."""
    _run_fresh(f"{code}; loaded = [m for m in {BENCH_ONLY!r} if m in sys.modules]; "
               "assert not loaded, loaded")


def test_package_import_loads_no_harness():
    # A name outside the harness's is looked up without importing it.
    _run_lean("import sys, gradmine; assert not hasattr(gradmine, 'other')")


@pytest.mark.parametrize("command", ["mine", "space"])
def test_mine_and_space_load_no_harness(command, course_csv):
    argv = ["mine", "--data", str(course_csv)] if command == "mine" else ["space", "--attrs", "3"]
    _run_lean(f"import sys; from gradmine.cli import main; assert main({argv!r}) == 0")


def test_bench_loads_the_harness(course_csv, tmp_path):
    argv = ["bench", "--data", str(course_csv), "--algos", "rs", "--reps", "1", "--iters", "5",
            "--out-dir", str(tmp_path / "out")]
    _run_fresh(
        f"import sys; from gradmine.cli import main; assert main({argv!r}) == 0; "
        "assert 'gradmine.harness' in sys.modules"
    )


def test_harness_names_load_on_first_use():
    import gradmine.harness

    assert gradmine.BenchSpec is gradmine.harness.BenchSpec
    for name in gradmine.__all__:
        getattr(gradmine, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        gradmine.no_such_name
