"""
Benchmarking miners across candidate spaces
===========================================

A benchmark grid crosses datasets x algorithms x candidate spaces,
repeats each cell with consecutive seeds, and writes a JSON report
plus flat CSVs.  With both spaces in the grid, a paired signed-rank
test says whether the numeric interval is measurably faster.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from gradmine import (
    BenchSpec,
    run_benchmark,
    space_comparison,
    write_report_csv,
    write_report_json,
)

# Everything is written to a scratch directory that is removed on exit.
with tempfile.TemporaryDirectory(prefix="gradmine_demo_") as tmp:
    workdir = Path(tmp)

    # Six synthetic tables of varied size: enough pairs for the signed-rank
    # test at the end (it needs at least five nonzero differences).
    rng = np.random.default_rng(3)
    paths = []
    for k in range(6):
        n, m = int(rng.integers(8, 40)), int(rng.integers(3, 6))
        rows = rng.integers(0, 50, size=(n, m))
        path = workdir / f"table{k}.csv"
        header = ",".join(f"v{i}" for i in range(m))
        body = "\n".join(",".join(str(v) for v in row) for row in rows)
        path.write_text(header + "\n" + body + "\n", encoding="utf-8")
        paths.append(str(path))

    # The grid: two heuristics in both spaces, plus the exhaustive sweep
    # (space-blind, runs once per dataset), three repetitions per cell.
    spec = BenchSpec(
        datasets=tuple(paths),
        algorithms=("ga", "pso", "graank"),
        spaces=("numeric", "bitmap"),
        repetitions=3,
        sigma=0.5,
        base_seed=0,
        max_iterations=20,
    )
    report = run_benchmark(spec)
    print(f"cells: {len(report.cells)}, failed datasets: {len(report.failures)}")

    # Per-cell pattern counts are distinct-over-repetitions, so they are
    # comparable no matter how many repetitions a cell ran.
    for cell in report.cells[:6]:
        print(
            f"  {cell.dataset:7s} {cell.algorithm:7s} {str(cell.space):7s}"
            f" mean wall {cell.mean_wall_time * 1e3:7.2f} ms"
            f"  patterns {cell.valid_pattern_count}"
        )

    # Everything lands in two files; the JSON carries the whole structure,
    # the CSV has one row per cell per repetition for spreadsheets.
    write_report_json(workdir / "report.json", report)
    write_report_csv(workdir / "report.csv", report)
    loaded = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    print(f"\nwrote {workdir}/report.json (schema_version {loaded['schema_version']})")
    print(f"wrote {workdir}/report.csv")

    # Does the candidate space change wall time?  Pair the per-dataset
    # mean times and run the exact signed-rank test.
    for algo in ("ga", "pso"):
        outcome = space_comparison(report, algo)
        print(
            f"{algo}: W={outcome.statistic:g} p={outcome.p_value:.4f}"
            f" over n={outcome.n} datasets"
        )
