"""Benchmark grid, report files and the signed-rank test."""

import csv
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from conftest import COURSE_NAMES, COURSE_ROWS, random_dataset, write_csv
from gradmine import (
    ALGORITHMS,
    BenchCell,
    BenchReport,
    BenchSpec,
    Dataset,
    SearchConfig,
    SpaceKind,
    run_benchmark,
    build_space,
    encode,
    enumerate_valid,
    load_dataset,
    run_miner,
    space_comparison,
    to_pattern,
    wilcoxon_signed_rank,
    write_report_csv,
    write_report_json,
    write_scatter_csv,
)
import gradmine.harness
from gradmine.fitness import ConcordanceIndex, concordant_count_brute
from gradmine.harness import _midranks


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

    @pytest.mark.parametrize("n", (30, 70))
    def test_exact_beyond_25_pairs(self, n):
        # Python-int subset-sum counts over the doubled midranks, too many
        # pairs for full sign enumeration.
        rng = np.random.default_rng(n)
        diffs = rng.integers(-12, 13, size=n).astype(float)  # tied |d|
        diffs[diffs == 0] = 0.5
        doubled = [round(2 * r) for r in rankdata(np.abs(diffs), method="average")]
        w2 = min(
            sum(r for r, d in zip(doubled, diffs) if d > 0),
            sum(r for r, d in zip(doubled, diffs) if d < 0),
        )
        counts = [1] + [0] * sum(doubled)
        for r in doubled:
            counts = [c + (counts[k - r] if k >= r else 0) for k, c in enumerate(counts)]
        expected = min(1.0, float(Fraction(2 * sum(counts[: w2 + 1]), 2**n)))
        got = wilcoxon_signed_rank(diffs, np.zeros(n))
        assert got.statistic * 2 == w2
        assert got.p_value == pytest.approx(expected, rel=1e-12, abs=0)


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"repetitions": 2.5}, "repetitions must be int, got 2.5"),
            ({"base_seed": 1.5}, "base_seed must be int, got 1.5"),
            ({"save_trajectories": "no"}, "save_trajectories must be bool, got 'no'"),
            ({"max_iterations": True}, "max_iterations must be int, got True"),
            ({"delimiter": 5}, "delimiter must be str, got 5"),
            ({"overrides": {"ga": {"npop": 4.5}}}, "ga override npop must be int, got 4.5"),
            ({"overrides": {"ls": {"step_size": True}}},
             "ls override step_size must be int or float, got True"),
        ],
        ids=["reps", "seed", "save", "iters", "delimiter", "npop-override", "step-override"],
    )
    def test_rejects_a_value_of_another_kind(self, kwargs, message):
        # Built in code, not only from JSON; an override's error names its
        # algorithm.
        with pytest.raises(ValueError) as err:
            BenchSpec(datasets=("x.csv",), algorithms=("rs",), **kwargs)
        assert str(err.value) == message

    def test_numpy_scalars_count_as_python_ones(self):
        spec = BenchSpec(
            datasets=("x.csv",), algorithms=("ga",), repetitions=np.int64(2),
            sigma=np.float64(0.25), base_seed=np.int64(3),
            overrides={"ga": {"npop": np.int64(4)}},
        )
        assert spec.config_for("ga", 3) == SearchConfig(seed=3, sigma=0.25, npop=4)

    @pytest.mark.parametrize(
        "grid, message",
        [
            # Cells, report rows and scatter files name a dataset by its stem.
            ({"datasets": ("d1/x.csv", "d2/x.csv")}, "repeated dataset names: ['x']"),
            ({"datasets": ("a.csv", "b.tsv", "a.csv")}, "repeated dataset names: ['a']"),
            ({"algorithms": ("rs", "ga", "rs", "ga")}, "repeated algorithm names: ['ga', 'rs']"),
            ({"spaces": ("numeric", "bitmap", "numeric")}, "repeated space names: ['numeric']"),
        ],
        ids=["same-stem", "same-path", "algorithms", "spaces"],
    )
    def test_refuses_repeated_entries(self, grid, message):
        with pytest.raises(ValueError) as err:
            BenchSpec(**{"datasets": ("x.csv",), "algorithms": ("rs",), **grid})
        assert str(err.value) == message

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

    @pytest.mark.parametrize(
        "bad, message",
        [
            # A bare string would pass as one name per character.
            ({"datasets": "abc"}, "datasets must be a list of strings"),
            ({"datasets": ("t0.csv", 5)}, "datasets must be a list of strings"),
            ({"algorithms": "rs"}, "algorithms must be a list of strings"),
            ({"spaces": "numeric"}, "spaces must be a list of strings"),
            ({"overrides": ("ga",)}, "overrides must map algorithm names to objects"),
            ({"overrides": {"ga": 5}}, "overrides must map algorithm names to objects"),
        ],
        ids=["datasets-str", "datasets-int", "algorithms-str", "spaces-str", "overrides-seq",
             "override-int"],
    )
    def test_made_in_code_refuses_wrong_shapes(self, bad, message):
        # The same checks and messages as a spec read from JSON.
        raw = {"datasets": ("t0.csv",), "algorithms": ("rs",), **bad}
        with pytest.raises(ValueError) as err:
            BenchSpec(**raw)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            BenchSpec.from_dict(json.loads(json.dumps(raw)))
        assert str(err.value) == message

    def test_made_in_code_stores_lists_as_tuples(self):
        spec = BenchSpec(datasets=["t0.csv"], algorithms=["rs", "ga"], spaces=["bitmap"])
        assert (spec.datasets, spec.algorithms, spec.spaces) == (
            ("t0.csv",), ("rs", "ga"), ("bitmap",)
        )

    def test_keeps_its_own_overrides(self, two_csvs):
        # The caller's dicts stay the caller's: an edit after the checks
        # ran reaches neither the spec nor its grid.
        over = {"ga": {"npop": 4}}
        spec = BenchSpec(datasets=(str(two_csvs[0]),), algorithms=("ga",), repetitions=1,
                         max_iterations=2, overrides=over)
        over["ga"]["npop"] = 1
        over["rs"] = {"bogus": 0}
        assert spec.overrides == {"ga": {"npop": 4}}
        with pytest.raises(TypeError):
            spec.overrides["ga"]["npop"] = 1
        (cell,) = run_benchmark(spec).cells
        assert cell.error is None and len(cell.wall_times) == 1

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

    @pytest.mark.parametrize("top", [["a.csv"], "a.csv"], ids=["list", "string"])
    def test_from_json_needs_an_object(self, tmp_path, top):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(top), encoding="utf-8")
        with pytest.raises(ValueError, match="^benchmark spec must be a JSON object$"):
            BenchSpec.from_json(path)


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

    def test_graank_cell_counts_on_the_one_index(self, tmp_path, index_spy):
        # Past int rows (n >= 220) the harness's index holds arrays; the
        # exhaustive cell (one run) sweeps it and rs's runs search it.
        d = random_dataset(np.random.default_rng(220), 220, 3, ties=True)
        path = tmp_path / "t220.csv"
        write_csv(path, d.attribute_names, d.values.tolist())
        spec = BenchSpec(
            datasets=(str(path),), algorithms=("graank", "rs"), repetitions=2, max_iterations=5
        )
        report = run_benchmark(spec)
        assert not any(c.error for c in report.cells)
        (index,) = index_spy.builds
        assert index_spy.swept == [index]
        assert all(type(row) is np.ndarray for row in index._row_list)

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
        assert not tracemalloc.is_tracing()
        # A caller's session keeps running, and its freed buffer is not the cell's peak.
        tracemalloc.start()
        try:
            bytearray(16 * 2**20)  # freed at once: it raises only the session's peak
            (cell,) = run_benchmark(spec).cells
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        assert 0 < cell.peak_memory_bytes < 2**20


def reference_scatter_csv(path, steps) -> None:
    """The scatter writer as it read a trajectory's steps: the reference
    the column writer is held to, byte for byte."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("iteration", "position", "fitness", "valid"))
        for s in steps:
            fitness = f"{s.fitness:.10g}" if s.valid else ""
            writer.writerow((s.iteration, s.candidate, fitness, "true" if s.valid else "false"))


class TestScatter:
    @pytest.mark.parametrize("kind", list(SpaceKind))
    @pytest.mark.parametrize(
        "algo, m", [(a, m) for m in (3, 40) for a in ALGORITHMS if (a, m) != ("graank", 40)]
    )
    def test_columns_write_the_steps_bytes(self, tmp_path, course_dataset, algo, m, kind):
        # At m = 3, on the course table, runs meet usable and unusable
        # candidates; at m = 40 candidates pass int64.  The sweep runs at
        # m = 3 only, where its iteration column is a range.
        d = course_dataset
        if m == 40:
            rng = np.random.default_rng(m)
            values = rng.normal(size=(12, 1)) + 0.5 * rng.normal(size=(12, m))
            d = Dataset(tuple(f"col{i}" for i in range(m)), values)
        c = SearchConfig(max_iterations=60, seed=m, sigma=0.1)
        t = run_miner(algo, d, build_space(m, kind), c).trajectory
        write_scatter_csv(tmp_path / "columns.csv", t)
        reference_scatter_csv(tmp_path / "steps.csv", t.steps)
        assert m == 40 or {s.valid for s in t.steps} == {True, False}
        written = (tmp_path / "columns.csv").read_bytes()
        assert written == (tmp_path / "steps.csv").read_bytes()
        assert written.count(b"\n") == 1 + t.evaluations

    def test_rows_mirror_trajectory(self, tmp_path, course_dataset):
        r = run_miner("rs", course_dataset, build_space(3), SearchConfig(max_iterations=25, seed=2))
        out = tmp_path / "scatter.csv"
        write_scatter_csv(out, r.trajectory)
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 25
        assert {step.valid for step in r.trajectory.steps} == {True, False}
        for row, step in zip(rows, r.trajectory.steps):
            it, pos, fit, valid = row.split(",")
            assert (it, pos) == (str(step.iteration), str(step.candidate))
            assert valid == ("true" if step.valid else "false")
            if step.valid:
                assert fit == f"{step.fitness:.10g}"
            else:
                assert fit == ""


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

    def test_json_cells_are_the_cell_fields(self, tmp_path):
        report = _report_fixture(tmp_path)
        failed = BenchCell("wide", "graank", None, (0,), error="guard")
        report = BenchReport(1, 0.5, 0, 2, (*report.cells, failed), ())
        out = tmp_path / "report.json"
        write_report_json(out, report)
        names = list(BenchCell._fields)
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
        r = run_miner("rs", course_dataset, build_space(3), SearchConfig(max_iterations=10, seed=4))
        out = tmp_path / "scatter.csv"
        write_scatter_csv(out, r.trajectory)
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
