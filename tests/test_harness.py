"""Benchmark grid, report files and the signed-rank test."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from conftest import COURSE_NAMES, COURSE_ROWS, write_csv
from gradmine import (
    BenchCell,
    BenchReport,
    BenchSpec,
    SearchConfig,
    Trajectory,
    SearchResult,
    SpaceKind,
    run_benchmark,
    rs_grad,
    build_space,
    encode,
    enumerate_valid,
    load_dataset,
    run_miner,
    scatter_extract,
    space_comparison,
    to_pattern,
    wilcoxon_signed_rank,
    write_report_csv,
    write_report_json,
    write_scatter_csv,
)
import gradmine.harness
from gradmine.fitness import ConcordanceIndex, concordant_count_brute
from gradmine.harness import EXACT_LIMIT, _exact_two_sided_p, _midranks


def oracle_p(diffs):
    """Full 2^n sign enumeration, usable for small n only."""
    diffs = np.asarray(diffs, dtype=float)
    ranks = rankdata(np.abs(diffs), method="average")
    w = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    n = len(diffs)
    hits = 0
    for mask in range(2**n):
        s = sum(ranks[i] for i in range(n) if (mask >> i) & 1)
        if s <= w + 1e-9:
            hits += 1
    return min(1.0, 2.0 * hits / 2**n)


class TestWilcoxon:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(5, 13))
            if trial % 2:
                diffs = rng.integers(-5, 6, size=n).astype(float)  # many tied |d|
                diffs[diffs == 0] = 1.0
            else:
                diffs = rng.normal(size=n)
            got = wilcoxon_signed_rank(diffs, np.zeros(n))
            assert got.p_value == pytest.approx(oracle_p(diffs), abs=1e-12)
            assert got.n == n
            assert got.statistic <= n * (n + 1) / 2

    def test_zero_differences_dropped(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        b = [1.0, 2.5, 2.5, 3.5, 4.5, 5.5, 6.5]
        out = wilcoxon_signed_rank(a, b)
        assert out.zeros_dropped == 1
        assert out.n == 6

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0, 3.0])
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        nearly_equal = [1.0, 2.0, 3.0, 4.0, 5.5]
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(base, nearly_equal)  # one nonzero difference

    def test_approx_branch_tracks_exact(self):
        rng = np.random.default_rng(23)
        n = EXACT_LIMIT + 5
        diffs = rng.normal(0.3, 1.0, size=n)
        diffs[diffs == 0] = 0.1
        out = wilcoxon_signed_rank(diffs, np.zeros(n))
        ranks = rankdata(np.abs(diffs), method="average")
        exact = _exact_two_sided_p(out.statistic, ranks)
        assert out.p_value == pytest.approx(exact, abs=0.02)


@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=40)
    | st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40)
)
def test_midranks_match_scipy_average_ranks(values):
    x = np.array(values, dtype=float)
    assert np.array_equal(_midranks(x), rankdata(x, method="average"))


class TestBenchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchSpec(datasets=(), algorithms=("rs",))
        with pytest.raises(ValueError):
            BenchSpec(datasets=("x.csv",), algorithms=())
        with pytest.raises(ValueError):
            BenchSpec(datasets=("x.csv",), algorithms=("nope",))
        with pytest.raises(ValueError):
            BenchSpec(datasets=("x.csv",), algorithms=("rs",), spaces=("hex",))
        with pytest.raises(ValueError):
            BenchSpec(datasets=("x.csv",), algorithms=("rs",), repetitions=0)
        with pytest.raises(ValueError):
            BenchSpec(datasets=("x.csv",), algorithms=("rs",), sigma=2.0)
        with pytest.raises(ValueError):
            BenchSpec(
                datasets=("x.csv",), algorithms=("rs",), overrides={"rs": {"seed": 1}}
            )
        # SearchConfig's own checks run when the spec is made, also for an
        # override of an algorithm outside the grid.
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            BenchSpec(datasets=("x.csv",), algorithms=("rs",), max_iterations=0)
        with pytest.raises(ValueError, match="npop must be >= 2"):
            BenchSpec(datasets=("x.csv",), algorithms=("rs",), overrides={"ga": {"npop": 1}})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            BenchSpec.from_dict({"datasets": ["x.csv"], "algorithms": ["rs"], "zzz": 1})

    @pytest.mark.parametrize(
        "bad",
        [
            {"datasets": "t0.csv"},
            {"datasets": ["t0.csv", 5]},
            {"algorithms": "ga"},
            {"spaces": "numeric"},
            {"overrides": ["ga"]},
            {"overrides": {"ga": 5}},
        ],
    )
    def test_from_dict_rejects_wrong_shapes(self, bad):
        with pytest.raises(ValueError):
            BenchSpec.from_dict({"datasets": ["t0.csv"], "algorithms": ["ga"], **bad})

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "datasets": ["a.csv"],
                    "algorithms": ["rs", "ga"],
                    "spaces": ["numeric", "bitmap"],
                    "repetitions": 2,
                    "overrides": {"ga": {"npop": 6}},
                }
            ),
            encoding="utf-8",
        )
        spec = BenchSpec.from_json(path)
        assert spec.datasets == ("a.csv",)
        assert spec.repetitions == 2
        assert spec.config_for("ga", 7) == SearchConfig(seed=7, npop=6)
        assert spec.config_for("rs", 7) == SearchConfig(seed=7)


@pytest.fixture
def two_csvs(tmp_path):
    a = tmp_path / "course.csv"
    write_csv(a, COURSE_NAMES, COURSE_ROWS)
    b = tmp_path / "grid.csv"
    rng = np.random.default_rng(5)
    write_csv(b, ("x", "y", "z"), rng.integers(0, 5, size=(6, 3)).tolist())
    return a, b


class TestRunBenchmark:
    def test_grid_shape(self, two_csvs):
        spec = BenchSpec(
            datasets=tuple(str(p) for p in two_csvs),
            algorithms=("rs", "graank"),
            spaces=("numeric", "bitmap"),
            repetitions=2,
            max_iterations=10,
        )
        report = run_benchmark(spec)
        assert report.schema_version == 1
        assert not report.failures
        # rs contributes one cell per space; graank one space-blind cell
        assert len(report.cells) == 2 * 3
        rs_cells = [c for c in report.cells if c.algorithm == "rs"]
        assert all(len(c.wall_times) == 2 and c.seeds == (0, 1) for c in rs_cells)
        graank_cells = [c for c in report.cells if c.algorithm == "graank"]
        assert all(c.space is None and len(c.wall_times) == 1 for c in graank_cells)

    def test_counts_reproducible_and_bounded(self, two_csvs):
        spec = BenchSpec(
            datasets=(str(two_csvs[0]),),
            algorithms=("rs", "ls", "graank"),
            repetitions=3,
            max_iterations=15,
        )
        r1 = run_benchmark(spec)
        r2 = run_benchmark(spec)
        key = lambda c: (c.dataset, c.algorithm, c.space or "")
        for c1, c2 in zip(sorted(r1.cells, key=key), sorted(r2.cells, key=key)):
            assert c1.valid_pattern_count == c2.valid_pattern_count
            assert c1.invalid_candidate_count == c2.invalid_candidate_count
            assert c1.best_support == c2.best_support
        graank = next(c for c in r1.cells if c.algorithm == "graank")
        for c in r1.cells:
            assert c.valid_pattern_count <= graank.valid_pattern_count

    def test_counts_are_unions_over_seeds(self, two_csvs):
        spec = BenchSpec(
            datasets=tuple(str(p) for p in two_csvs),
            algorithms=("rs", "ls", "ga", "pso", "graank"),
            spaces=("numeric", "bitmap"),
            repetitions=3,
            sigma=0.3,
            max_iterations=4,
            overrides={"ga": {"npop": 3}, "pso": {"nparticles": 2}},
        )
        report = run_benchmark(spec)
        grew = False
        for cell in report.cells:
            d = load_dataset(two_csvs[0] if cell.dataset == "course" else two_csvs[1])
            space = build_space(d.m, SpaceKind(cell.space or "numeric"))
            frequent, invalid, sizes = set(), set(), []
            for seed in cell.seeds:
                r = run_miner(cell.algorithm, d, space, spec.config_for(cell.algorithm, seed))
                found = {encode(p, d.m) for p, _ in r.frequent_patterns}
                frequent |= found
                invalid |= {s.candidate for s in r.trajectory.steps if not s.valid}
                sizes.append(len(found))
            assert cell.valid_pattern_count == len(frequent)
            assert cell.invalid_candidate_count == len(invalid)
            grew |= len(frequent) > max(sizes)
        assert grew  # some cell's seeds found different patterns

    def test_index_built_once_per_dataset_before_its_runs(self, two_csvs, monkeypatch):
        # A build inside a run would be timed as part of that cell.
        events = []
        init = ConcordanceIndex.__init__
        run_miner = gradmine.harness.run_miner

        def counting_init(self, d):
            events.append(f"build n={d.n}")
            init(self, d)

        def logging_run_miner(algorithm, d, *args):
            events.append(f"run n={d.n}")
            return run_miner(algorithm, d, *args)

        monkeypatch.setattr(ConcordanceIndex, "__init__", counting_init)
        monkeypatch.setattr(gradmine.harness, "run_miner", logging_run_miner)
        spec = BenchSpec(
            datasets=tuple(str(p) for p in two_csvs),
            algorithms=("rs", "ls", "graank"),
            spaces=("numeric", "bitmap"),
            repetitions=2,
            max_iterations=5,
        )
        report = run_benchmark(spec)
        assert len(report.cells) == 2 * 5
        runs = 2 * 2 * 2 + 1
        assert events == ["build n=4"] + ["run n=4"] * runs + ["build n=6"] + ["run n=6"] * runs

    def test_load_failure_recorded(self, two_csvs):
        spec = BenchSpec(
            datasets=(str(two_csvs[0]), "no/such/file.csv"),
            algorithms=("rs",),
            repetitions=1,
        )
        report = run_benchmark(spec)
        assert len(report.failures) == 1
        assert "file" in report.failures[0].path
        assert {c.dataset for c in report.cells} == {"course"}

    def test_unreadable_file_recorded(self, two_csvs, unreadable_csv):
        spec = BenchSpec(
            datasets=(str(unreadable_csv), str(two_csvs[0])), algorithms=("rs",), repetitions=1
        )
        report = run_benchmark(spec)
        [failure] = report.failures
        assert failure.path == str(unreadable_csv) and "cannot read" in failure.error
        assert [c.dataset for c in report.cells] == ["course"]

    def test_graank_invalid_count_is_its_zero_pair_candidates(self, two_csvs, course_dataset):
        # Every candidate of the sweep decodes, so its unusable ones are
        # the patterns with no concordant pair.
        spec = BenchSpec(datasets=(str(two_csvs[0]),), algorithms=("graank",))
        (cell,) = run_benchmark(spec).cells
        space = build_space(3)
        zero_pair = [
            x
            for x in enumerate_valid(space)
            if concordant_count_brute(to_pattern(x, space), course_dataset) == 0
        ]
        assert cell.invalid_candidate_count == len(zero_pair) == 2

    def test_fifteen_columns_exceed_the_enumeration_guard(self, tmp_path):
        rng = np.random.default_rng(9)
        wide = tmp_path / "wide.csv"
        write_csv(wide, tuple(f"c{i}" for i in range(15)), rng.random((3, 15)).tolist())
        spec = BenchSpec(datasets=(str(wide),), algorithms=("graank",), repetitions=1)
        (cell,) = run_benchmark(spec).cells
        assert cell.error == "cannot enumerate candidates for 15 attributes (guard: 14)"
        assert cell == BenchCell("wide", "graank", None, (0,), error=cell.error)

    def test_enumeration_guard_recorded_as_cell_error(self, tmp_path):
        rng = np.random.default_rng(9)
        wide = tmp_path / "wide.csv"
        write_csv(wide, tuple(f"c{i}" for i in range(17)), rng.random((3, 17)).tolist())
        spec = BenchSpec(datasets=(str(wide),), algorithms=("graank",), repetitions=1)
        report = run_benchmark(spec)
        (cell,) = report.cells
        assert cell.error is not None
        assert cell.wall_times == ()

    def test_any_cell_failure_recorded_as_cell_error(self, tmp_path, monkeypatch):
        # Every run on the four-column table raises; the course table
        # must still run.
        run_miner = gradmine.harness.run_miner

        def failing_on_four_columns(algorithm, d, space, config):
            if d.m == 4:
                raise RuntimeError("search failed")
            return run_miner(algorithm, d, space, config)

        monkeypatch.setattr(gradmine.harness, "run_miner", failing_on_four_columns)
        rng = np.random.default_rng(9)
        other = tmp_path / "other.csv"
        write_csv(other, tuple(f"c{i}" for i in range(4)), rng.random((3, 4)).tolist())
        course = tmp_path / "course.csv"
        write_csv(course, COURSE_NAMES, COURSE_ROWS)
        spec = BenchSpec(
            datasets=(str(other), str(course)),
            algorithms=("rs", "pso"),
            repetitions=2,
            max_iterations=5,
        )
        report = run_benchmark(spec)
        assert len(report.cells) == 4
        for cell in report.cells:
            if cell.dataset == "other":
                assert cell.error == "search failed" and cell.wall_times == ()
            else:
                assert cell.error is None and len(cell.wall_times) == 2

    def test_memory_measurement_optional(self, two_csvs):
        spec = BenchSpec(
            datasets=(str(two_csvs[0]),),
            algorithms=("rs",),
            repetitions=1,
            measure_memory=True,
            max_iterations=5,
        )
        (cell,) = run_benchmark(spec).cells
        assert cell.peak_memory_bytes is not None and cell.peak_memory_bytes > 0


class TestScatter:
    def test_rows_mirror_trajectory(self, course_dataset):
        r = rs_grad(course_dataset, build_space(3), SearchConfig(max_iterations=25, seed=2))
        rows = scatter_extract(r.trajectory.steps)
        assert len(rows) == 25
        for (it, pos, fit, valid), step in zip(rows, r.trajectory.steps):
            assert (it, pos) == (step.iteration, step.candidate)
            if valid:
                assert fit == step.fitness
            else:
                assert fit is None

    def test_empty_trajectory_rejected(self):
        empty = SearchResult(None, 0.0, math.inf, (), Trajectory(()), 0.0)
        with pytest.raises(ValueError):
            scatter_extract(empty.trajectory.steps)


def _report_fixture(tmp_path):
    path = tmp_path / "course.csv"
    write_csv(path, COURSE_NAMES, COURSE_ROWS)
    spec = BenchSpec(
        datasets=(str(path),),
        algorithms=("rs", "graank"),
        spaces=("numeric",),
        repetitions=2,
        max_iterations=8,
    )
    return run_benchmark(spec)


class TestWriters:
    def test_json_round_trip(self, tmp_path):
        report = _report_fixture(tmp_path)
        out = tmp_path / "report.json"
        write_report_json(out, report)
        loaded = json.loads(out.read_text(encoding="utf-8"))
        assert loaded["schema_version"] == 1
        assert len(loaded["cells"]) == len(report.cells)
        assert loaded["cells"][0]["wall_times"]
        assert b"\r" not in out.read_bytes()

    def test_json_cells_are_the_cell_fields_but_trajectories(self, tmp_path):
        report = _report_fixture(tmp_path)
        failed = BenchCell("wide", "graank", None, (0,), error="guard")
        report = BenchReport(1, 0.5, 0, 2, (*report.cells, failed), ())
        out = tmp_path / "report.json"
        write_report_json(out, report)
        names = [f.name for f in fields(BenchCell) if f.name != "trajectories"]
        loaded = json.loads(out.read_text(encoding="utf-8"))["cells"]
        for cell, row in zip(report.cells, loaded):
            assert list(row) == names
            assert row["seeds"] == list(cell.seeds)
            assert row["wall_times"] == list(cell.wall_times)
        assert loaded[-1]["error"] == "guard" and loaded[-1]["wall_times"] == []

    def test_csv_one_row_per_rep(self, tmp_path):
        report = _report_fixture(tmp_path)
        out = tmp_path / "report.csv"
        write_report_csv(out, report)
        lines = out.read_text(encoding="utf-8").splitlines()
        expected_rows = sum(max(len(c.wall_times), 1) for c in report.cells)
        assert len(lines) == 1 + expected_rows
        assert lines[0].startswith("dataset,algorithm,space,rep,seed,wall_time")
        assert b"\r" not in out.read_bytes()

    def test_scatter_csv(self, tmp_path, course_dataset):
        r = rs_grad(course_dataset, build_space(3), SearchConfig(max_iterations=10, seed=4))
        out = tmp_path / "scatter.csv"
        write_scatter_csv(out, scatter_extract(r.trajectory.steps))
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,position,fitness,valid"
        assert len(lines) == 11
        for line, step in zip(lines[1:], r.trajectory.steps):
            cells = line.split(",")
            assert cells[0] == str(step.iteration)
            assert cells[3] in ("true", "false")
            if cells[3] == "false":
                assert cells[2] == ""


def _cell(dataset, algorithm, space, mean):
    return BenchCell(
        dataset=dataset,
        algorithm=algorithm,
        space=space,
        seeds=(0,),
        wall_times=(mean,),
        mean_wall_time=mean,
        valid_pattern_count=1,
        invalid_candidate_count=0,
        best_support=0.5,
    )


class TestSpaceComparison:
    def test_pairs_by_dataset(self):
        numeric = [0.3, 0.5, 0.2, 0.9, 0.4, 0.6]
        bitmap = [0.5, 0.9, 0.4, 1.5, 0.8, 0.9]
        cells = []
        for i, (a, b) in enumerate(zip(numeric, bitmap)):
            cells.append(_cell(f"d{i}", "ga", "numeric", a))
            cells.append(_cell(f"d{i}", "ga", "bitmap", b))
        report = BenchReport(1, 0.5, 0, 1, tuple(cells), ())
        got = space_comparison(report, "ga")
        want = wilcoxon_signed_rank(numeric, bitmap)
        assert got == want

    def test_too_few_pairs(self):
        cells = [
            _cell("d0", "ga", "numeric", 0.3),
            _cell("d0", "ga", "bitmap", 0.6),
        ]
        report = BenchReport(1, 0.5, 0, 1, tuple(cells), ())
        with pytest.raises(ValueError):
            space_comparison(report, "ga")
