"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import csv
import gzip
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, run, tables, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_is_deterministic(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    tables.make_table(a, 11, 60, 5, seed=3)
    tables.make_table(b, 11, 60, 5, seed=3)
    tables.make_table(c, 11, 60, 5, seed=4)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_relabel_keeps_every_support():
    from gradmine import Dataset, graank_mine

    base = tables.latent_table(5, 40, 4)
    assert len(np.unique(base[:, 0])) < 40  # rounding leaves ties
    names = tables.column_names(4)
    expected = graank_mine(Dataset(names, base.astype(float)), 0.0)
    for seed in (0, 1, 2):
        relabelled = tables.relabel(base, seed)
        assert not np.array_equal(relabelled, base)
        assert graank_mine(Dataset(names, relabelled.astype(float)), 0.0) == expected


def test_digest_check_catches_perturbed_mine_output():
    stdout = "frequent patterns: 1\n  {a0+, a1-}  support=0.5123\n"
    recorded = {"sweep/sweep_a": checks.mine_digest(stdout)}
    tally = run.Tally(recorded, record=False)
    tally.add("sweep/sweep_a", None, checks.mine_digest(stdout), True)
    assert (tally.correct, tally.failed) == (True, 0)
    tally.add("sweep/sweep_a", None, checks.mine_digest(stdout.replace("5123", "5124")), True)
    assert (tally.correct, tally.failed, tally.attempted) == (False, 1, 2)
    assert tally.errors == {checks.MISMATCH: 1}
    tally.add("wide/wide_40/rs/numeric", "ValueError", None, False)
    assert (tally.correct, tally.failed, tally.attempted) == (False, 2, 3)
    assert tally.ok_ratio() == 1 / 3


def test_a_failing_op_is_not_an_incorrect_one():
    tally = run.Tally({}, record=False)
    tally.add("wide/wide_40/rs/numeric", "ValueError", None, False)
    assert (tally.correct, tally.failed, tally.errors) == (True, 1, {"ValueError": 1})


def test_wall_s_is_the_sum_of_median_scaled_times():
    tally = run.Tally({}, record=True)
    ref = workloads.REFERENCE_S
    for seconds, reference in ((1.0, ref), (3.0, 2 * ref), (9.0, 3 * ref)):
        tally.add("wide/a", None, {}, True, seconds, reference)
    for seconds, reference in ((2.0, ref), (5.0, ref), (4.0, 4 * ref)):
        tally.add("grid", None, {}, True, seconds, reference)
    assert tally.wall_s() == pytest.approx(1.5 + 2.0)
    assert tally.raw_wall_s() == pytest.approx(3.0 + 4.0)


def test_grid_digest_ignores_timing_only():
    cell = {
        "dataset": "grid_0", "algorithm": "rs", "space": "numeric", "seeds": [0],
        "wall_times": [0.1], "mean_wall_time": 0.1, "valid_pattern_count": 3,
        "invalid_candidate_count": 2, "best_support": 0.5, "peak_memory_bytes": None,
        "error": None,
    }
    stdout = "wilcoxon rs: W=1 p=0.0625 n=6 zeros_dropped=0\nwrote out/report.json\n"
    base = checks.grid_digest(json.dumps({"cells": [cell]}), stdout, ("rs",))
    timed = dict(cell, wall_times=[0.2], mean_wall_time=0.2, peak_memory_bytes=7)
    other_p = stdout.replace("W=1 p=0.0625", "W=0 p=0.0312")
    assert checks.grid_digest(json.dumps({"cells": [timed]}), other_p, ("rs",)) == base
    changed = dict(cell, best_support=0.25)
    assert checks.grid_digest(json.dumps({"cells": [changed]}), stdout, ("rs",)) != base
    with pytest.raises(ValueError):
        checks.grid_digest(json.dumps({"cells": [cell]}), "wrote out/report.json\n", ("rs",))


def test_missing_digest_is_a_mismatch():
    assert checks.mismatch({}, "grid", {"report": "x"}) is not None
    assert checks.mismatch({"grid": {"report": "x"}}, "grid", {"report": "x"}) is None


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5 s)
    # and [9, 12] (sticking out: 1 s inside); [1, 4] has a child [2, 3].
    rec = tracing.SpanRecorder()
    root = rec.add("search.run", 0.0, 10.0)
    a = rec.add("fitness.evaluate", 1.0, 4.0, root)
    rec.add("fitness.count.k2", 2.0, 3.0, a)
    rec.add("fitness.evaluate", 3.0, 6.0, root)
    rec.add("encoding.decode", 9.0, 12.0, root)
    own = tracing.self_times(rec.parents, rec.starts, rec.ends)
    assert own == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_spans_file_round_trip(tmp_path):
    rec = tracing.SpanRecorder()
    root = rec.add("search.run", rec.t0, rec.t0 + 2.0)
    rec.add("fitness.count.k2", rec.t0 + 0.5, rec.t0 + 1.0, root)
    path = tmp_path / "spans.csv.gz"
    tracing.write_spans(path, rec)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["id", "parent", "name", "start_us", "end_us"],
        ["0", "-1", "search.run", "0.000", "2000000.000"],
        ["1", "0", "fitness.count.k2", "500000.000", "1000000.000"],
    ]


def test_per_layer_metrics_from_spans():
    rec = tracing.SpanRecorder()
    rec.add(tracing.IMPORT_SPAN, 0.0, 1.0)
    root = rec.add("search.run", 1.0, 11.0)
    rec.add("fitness.count.k2", 2.0, 3.0, root)
    rec.add("fitness.count.k3", 4.0, 8.0, root)
    metrics = tracing.trace_metrics(rec, 100.0, untraced=[2.0, 4.0], traced=[5.0, 7.0])
    assert metrics["cli.import_s"] == 1.0
    assert metrics["search.self_s"] == pytest.approx(2.5)  # (10 - 5) / 2 rounds
    assert metrics["fitness.count_s"] == pytest.approx(2.5)
    assert metrics["fitness.count_us.k3"] == pytest.approx(4e6)
    assert metrics["trace.overhead_s"] == pytest.approx(3.0)
    assert metrics["trace.spans"] == 1.5


def test_wrappers_count_a_search_and_restore_originals():
    from gradmine import Dataset, SearchConfig, build_space, fitness, search

    d = Dataset(tuple(tables.column_names(4)), tables.latent_table(1, 30, 4).astype(float))
    original = search.evaluate_with_index
    rec = tracing.SpanRecorder()
    uninstall = tracing.install(rec)
    try:
        result = search.run_miner("ga", d, build_space(4), SearchConfig(max_iterations=5))
    finally:
        uninstall()
    assert search.evaluate_with_index is original
    assert fitness.ConcordanceIndex.count.__name__ == "count"
    c = rec.counters
    assert c["search.calls"] == len(result.trajectory.steps) == 10 + 4 * 5
    assert c["search.distinct"] == len({s.candidate for s in result.trajectory.steps})
    assert c["fitness.index_builds"] == 1
    names = {rec.names[i] for i in rec.name_ids}
    assert {"search.run", "fitness.evaluate", "encoding.decode", "fitness.index_build"} <= names


def test_metric_names_and_units():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    for name in e2e + per_layer:
        assert NAME_RE.fullmatch(name), name
    assert len(set(e2e + per_layer)) == len(e2e + per_layer)
    assert "setup_s" in e2e
    rec = tracing.SpanRecorder()
    rec.add(tracing.IMPORT_SPAN, 0.0, 1.0)
    produced = tracing.trace_metrics(rec, 1.0, untraced=[1.0], traced=[1.0])
    assert set(produced) == set(per_layer)


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
