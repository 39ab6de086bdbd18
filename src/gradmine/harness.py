"""Benchmark harness: repeated seeded runs, reports, paired statistics.

Runs a grid of (dataset, algorithm, space) cells, each repeated with
derived seeds, and aggregates wall times and pattern counts into a
machine-readable report (JSON plus a flat CSV).  Trajectories can be
exported as scatter CSVs with one row per objective call.  A paired
exact Wilcoxon signed-rank test compares an algorithm's run times
between the two candidate spaces.

All file output is UTF-8 with LF line endings.
"""

from __future__ import annotations

import csv
import json
import math
import tracemalloc
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .dataset import Dataset, DatasetError, load_dataset
from .encoding import GradualPattern, SpaceKind, build_space
from .search import (
    ALGORITHMS,
    SearchConfig,
    SearchResult,
    TrajectoryStep,
    run_miner,
)

SCHEMA_VERSION = 1

#: Exact permutation distribution up to this many nonzero differences;
#: normal approximation with continuity correction beyond.
EXACT_LIMIT = 25


@dataclass(frozen=True)
class WilcoxonOutcome:
    """Two-sided signed-rank test result."""

    statistic: float
    p_value: float
    n: int
    zeros_dropped: int


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; each group of tied values shares the mean
    of the ranks it spans."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _exact_two_sided_p(w: float, ranks: np.ndarray) -> float:
    # Doubling the midranks makes every rank an integer, so the null
    # distribution of the positive-rank sum is a subset-sum count.
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        r = int(r)
        counts[r:] = counts[r:] + counts[:-r]
    threshold = int(np.floor(2.0 * w + 1e-9))
    below = int(counts[: threshold + 1].sum())
    return min(1.0, 2.0 * below / float(2 ** len(ranks)))


def _approx_two_sided_p(w: float, ranks: np.ndarray) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # Midrank ties shrink the variance.
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    if var <= 0:
        return 1.0
    z = (w - mean + 0.5) / math.sqrt(var)
    # Twice the standard normal CDF at z.
    return min(1.0, math.erfc(-z / math.sqrt(2.0)))


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> WilcoxonOutcome:
    """Two-sided paired signed-rank test of ``a`` against ``b``.

    Zero differences are dropped, absolute differences are ranked with
    midranks for ties, and the statistic is the smaller of the positive
    and negative rank sums.  The p-value comes from the exact
    permutation distribution for up to ``EXACT_LIMIT`` pairs and from a
    normal approximation with continuity and tie corrections beyond.
    """
    if len(a) != len(b):
        raise ValueError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    nonzero = diffs[diffs != 0.0]
    zeros_dropped = len(diffs) - len(nonzero)
    n = len(nonzero)
    if n < 5:
        raise ValueError(f"need at least 5 nonzero differences, got {n}")
    ranks = _midranks(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0].sum())
    w_minus = float(ranks[nonzero < 0].sum())
    w = min(w_plus, w_minus)
    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(w, ranks)
    else:
        p = _approx_two_sided_p(w, ranks)
    return WilcoxonOutcome(statistic=w, p_value=p, n=n, zeros_dropped=zeros_dropped)


#: The JSON types a scalar spec field takes, by the type of its default.
_SCALAR_KINDS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


@dataclass(frozen=True)
class BenchSpec:
    """What to benchmark: the cell grid plus run bookkeeping.

    A spec is checked when it is made: each algorithm's config, with its
    overrides, is built once, so :class:`SearchConfig`'s own checks run
    before any cell does.
    """

    datasets: tuple[str, ...]
    algorithms: tuple[str, ...]
    spaces: tuple[str, ...] = ("numeric",)
    repetitions: int = 3
    sigma: float = 0.5
    base_seed: int = 0
    max_iterations: int = 20
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    delimiter: str = ","
    has_header: bool = True
    save_trajectories: bool = False
    measure_memory: bool = False

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ValueError("need at least one dataset")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        if not self.spaces:
            raise ValueError("need at least one space")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        bad_spaces = set(self.spaces) - {kind.value for kind in SpaceKind}
        if bad_spaces:
            raise ValueError(f"unknown spaces: {sorted(bad_spaces)}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")
        # seed and sigma are the spec's own, the same for every algorithm.
        allowed = {f.name for f in fields(SearchConfig)} - {"seed", "sigma"}
        for algo, over in self.overrides.items():
            if algo not in ALGORITHMS:
                raise ValueError(f"override for unknown algorithm {algo!r}")
            bad = set(over) - allowed
            if bad:
                raise ValueError(f"unknown config overrides for {algo}: {sorted(bad)}")
        for algo in (*self.algorithms, *self.overrides):
            self.config_for(algo, self.base_seed)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "BenchSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown benchmark spec keys: {sorted(unknown)}")
        data = dict(raw)
        for f in fields(cls):
            kinds = _SCALAR_KINDS.get(type(f.default))
            if f.name in data and kinds is not None:
                value = data[f.name]
                # bool is an int subclass: it fits bool fields alone.
                if not isinstance(value, kinds) or isinstance(value, bool) != (kinds == (bool,)):
                    names = " or ".join(kind.__name__ for kind in kinds)
                    raise ValueError(f"{f.name} must be {names}, got {value!r}")
        for key in ("datasets", "algorithms", "spaces"):
            if key in data:
                value = data[key]
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise ValueError(f"{key} must be a list of strings")
                data[key] = tuple(value)
        overrides = data.get("overrides", {})
        if not isinstance(overrides, dict) or not all(
            isinstance(over, dict) for over in overrides.values()
        ):
            raise ValueError("overrides must map algorithm names to objects")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "BenchSpec":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("benchmark spec must be a JSON object")
        return cls.from_dict(raw)

    def config_for(self, algorithm: str, seed: int) -> SearchConfig:
        base = SearchConfig(max_iterations=self.max_iterations, seed=seed, sigma=self.sigma)
        over = self.overrides.get(algorithm)
        return replace(base, **dict(over)) if over else base


@dataclass(frozen=True)
class BenchCell:
    """Aggregates for one (dataset, algorithm, space) grid point.

    ``space`` is None for the exhaustive miner, which is space-blind and
    runs once.  Pattern and invalid-candidate counts are distinct-over-
    all-repetitions, so they are comparable across repetition counts.

    ``invalid_candidate_count`` counts the distinct *unusable* candidates
    the runs evaluated, the steps whose ``valid`` flag is False: those
    that do not decode to a pattern and those with zero concordant
    pairs.  Every candidate of the exhaustive sweep decodes, so its count
    is the number of zero-pair patterns.

    ``error`` is set, and the numbers left at zero, when any run of the
    cell raised, e.g. enumeration beyond the attribute guard.
    """

    dataset: str
    algorithm: str
    space: str | None
    seeds: tuple[int, ...]
    wall_times: tuple[float, ...] = ()
    mean_wall_time: float = 0.0
    valid_pattern_count: int = 0
    invalid_candidate_count: int = 0
    best_support: float = 0.0
    peak_memory_bytes: int | None = None
    error: str | None = None
    trajectories: tuple[tuple[TrajectoryStep, ...], ...] | None = None


@dataclass(frozen=True)
class DatasetFailure:
    dataset: str
    path: str
    error: str


@dataclass(frozen=True)
class BenchReport:
    schema_version: int
    sigma: float
    base_seed: int
    repetitions: int
    cells: tuple[BenchCell, ...]
    failures: tuple[DatasetFailure, ...]


def _invalid_ints(result: SearchResult) -> set[int]:
    return {step.candidate for step in result.trajectory.steps if not step.valid}


def _run_cell(
    spec: BenchSpec, d: Dataset, dataset: str, algorithm: str, space_name: str | None
) -> BenchCell:
    # The exhaustive miner is deterministic, so one run covers the cell.
    reps = 1 if algorithm == "graank" else spec.repetitions
    seeds = tuple(spec.base_seed + rep for rep in range(reps))
    space = build_space(d.m, SpaceKind(space_name or "numeric"))
    wall_times: list[float] = []
    frequent: dict[GradualPattern, float] = {}
    invalid: set[int] = set()
    best_support = 0.0
    peak = 0
    trajectories: list[tuple[TrajectoryStep, ...]] = []
    for seed in seeds:
        config = spec.config_for(algorithm, seed)
        try:
            if spec.measure_memory:
                tracemalloc.start()
                try:
                    result = run_miner(algorithm, d, space, config)
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            else:
                result = run_miner(algorithm, d, space, config)
        except Exception as exc:  # one failing cell never aborts the grid
            return BenchCell(dataset, algorithm, space_name, seeds, error=str(exc))
        wall_times.append(result.wall_time)
        frequent.update(result.frequent_patterns)
        invalid.update(_invalid_ints(result))
        best_support = max(best_support, result.best_support)
        if spec.save_trajectories:
            trajectories.append(result.trajectory.steps)
    return BenchCell(
        dataset=dataset,
        algorithm=algorithm,
        space=space_name,
        seeds=seeds,
        wall_times=tuple(wall_times),
        mean_wall_time=sum(wall_times) / len(wall_times),
        valid_pattern_count=len(frequent),
        invalid_candidate_count=len(invalid),
        best_support=best_support,
        peak_memory_bytes=peak if spec.measure_memory else None,
        trajectories=tuple(trajectories) if spec.save_trajectories else None,
    )


def run_benchmark(spec: BenchSpec) -> BenchReport:
    """Run the whole grid.

    A dataset that fails to load is recorded as a failure entry and its
    cells are skipped; the benchmark itself keeps going.
    """
    cells: list[BenchCell] = []
    failures: list[DatasetFailure] = []
    for path in spec.datasets:
        name = Path(path).stem
        try:
            d = load_dataset(path, delimiter=spec.delimiter, has_header=spec.has_header)
            d.index  # built here, so cell wall times cover the search alone
        except DatasetError as exc:
            failures.append(DatasetFailure(dataset=name, path=str(path), error=str(exc)))
            continue
        for algorithm in spec.algorithms:
            if algorithm == "graank":
                cells.append(_run_cell(spec, d, name, algorithm, None))
            else:
                for space_name in spec.spaces:
                    cells.append(_run_cell(spec, d, name, algorithm, space_name))
    return BenchReport(
        schema_version=SCHEMA_VERSION,
        sigma=spec.sigma,
        base_seed=spec.base_seed,
        repetitions=spec.repetitions,
        cells=tuple(cells),
        failures=tuple(failures),
    )


ScatterRow = tuple[int, int, float | None, bool]


def scatter_extract(steps: Sequence[TrajectoryStep]) -> tuple[ScatterRow, ...]:
    """One (iteration, position, fitness, valid) row per objective call.

    The infinite-fitness sentinel becomes a missing fitness so the rows
    plot cleanly; such rows always carry valid=False.
    """
    if not steps:
        raise ValueError("trajectory is empty")
    return tuple(
        (s.iteration, s.candidate, s.fitness if s.valid else None, s.valid) for s in steps
    )


def space_comparison(report: BenchReport, algorithm: str) -> WilcoxonOutcome:
    """Paired test of mean wall times, numeric space vs bitmap space.

    Pairs one value per dataset that has error-free cells for the
    algorithm in both spaces; raises ValueError when fewer than 5
    nonzero-difference pairs exist.
    """
    per_space: dict[str, dict[str, float]] = {"numeric": {}, "bitmap": {}}
    for cell in report.cells:
        if cell.algorithm == algorithm and cell.space in per_space and cell.error is None:
            per_space[cell.space][cell.dataset] = cell.mean_wall_time
    shared = sorted(set(per_space["numeric"]) & set(per_space["bitmap"]))
    a = [per_space["numeric"][k] for k in shared]
    b = [per_space["bitmap"][k] for k in shared]
    return wilcoxon_signed_rank(a, b)


def _cell_dict(cell: BenchCell) -> dict[str, Any]:
    # Trajectories go to scatter CSVs, not the JSON report.
    return {f.name: getattr(cell, f.name) for f in fields(cell) if f.name != "trajectories"}


def report_to_dict(report: BenchReport) -> dict[str, Any]:
    return {
        "schema_version": report.schema_version,
        "sigma": report.sigma,
        "base_seed": report.base_seed,
        "repetitions": report.repetitions,
        "cells": [_cell_dict(c) for c in report.cells],
        "dataset_failures": [
            {"dataset": f.dataset, "path": f.path, "error": f.error}
            for f in report.failures
        ],
    }


def write_report_json(path: str | Path, report: BenchReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


REPORT_CSV_COLUMNS = (
    "dataset",
    "algorithm",
    "space",
    "rep",
    "seed",
    "wall_time",
    "valid_pattern_count",
    "invalid_candidate_count",
    "best_support",
    "error",
)


def write_report_csv(path: str | Path, report: BenchReport) -> None:
    """Flat view: one row per cell per repetition (cell-level counts
    repeat on every row of the cell)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_CSV_COLUMNS)
        for cell in report.cells:
            if cell.error is not None:
                writer.writerow(
                    [cell.dataset, cell.algorithm, cell.space or "", "", "", "", 0, 0, 0.0, cell.error]
                )
                continue
            for rep, (seed, wall) in enumerate(zip(cell.seeds, cell.wall_times)):
                writer.writerow(
                    [
                        cell.dataset,
                        cell.algorithm,
                        cell.space or "",
                        rep,
                        seed,
                        f"{wall:.6f}",
                        cell.valid_pattern_count,
                        cell.invalid_candidate_count,
                        f"{cell.best_support:.6f}",
                        "",
                    ]
                )


def write_scatter_csv(path: str | Path, rows: Iterable[ScatterRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("iteration", "position", "fitness", "valid"))
        for iteration, position, fitness, valid in rows:
            writer.writerow(
                (
                    iteration,
                    position,
                    "" if fitness is None else f"{fitness:.10g}",
                    "true" if valid else "false",
                )
            )
