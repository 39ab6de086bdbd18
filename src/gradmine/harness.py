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
import tracemalloc
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .dataset import Dataset, DatasetError, load_dataset
from .encoding import GradualPattern, SpaceKind, build_space
from .search import (
    ALGORITHMS,
    SearchConfig,
    Trajectory,
    check_scalar_fields,
    run_miner,
)

SCHEMA_VERSION = 1


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
    # distribution of the positive-rank sum is a subset-sum distribution:
    # each rank joins the sum with probability one half.  Sums above the
    # running total ``top`` of the ranks so far are still zero: skip them.
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    probs = np.zeros(int(doubled.sum()) + 1)
    probs[0] = 1.0
    for r, top in zip(doubled.tolist(), np.cumsum(doubled).tolist()):
        probs[r : top + 1] += probs[: top - r + 1]
        probs[: top + 1] *= 0.5
    threshold = int(np.floor(2.0 * w + 1e-9))
    return min(1.0, 2.0 * float(probs[: threshold + 1].sum()))


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> WilcoxonOutcome:
    """Two-sided paired signed-rank test of ``a`` against ``b``.

    Zero differences are dropped, absolute differences are ranked with
    midranks for ties, and the statistic is the smaller of the positive
    and negative rank sums.  The p-value comes from the exact
    permutation distribution, held as float64 probabilities, for any
    number of pairs.
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
    p = _exact_two_sided_p(w, ranks)
    return WilcoxonOutcome(statistic=w, p_value=p, n=n, zeros_dropped=zeros_dropped)


@dataclass(frozen=True)
class BenchSpec:
    """What to benchmark: the cell grid plus run bookkeeping.

    A spec is checked when it is made, in code or from JSON: ``datasets``,
    ``algorithms`` and ``spaces`` must be lists (or tuples) of strings,
    stored as tuples, ``overrides`` a mapping of mappings, each scalar
    field must hold its default's kind, and each algorithm's config, with
    its overrides, is built once, so :class:`SearchConfig`'s own checks
    run before any cell does.
    """

    datasets: tuple[str, ...]
    algorithms: tuple[str, ...]
    spaces: tuple[str, ...] = ("numeric",)
    repetitions: int = 3
    sigma: float = SearchConfig.sigma
    base_seed: int = SearchConfig.seed
    max_iterations: int = SearchConfig.max_iterations
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    delimiter: str = ","
    has_header: bool = True
    save_trajectories: bool = False
    measure_memory: bool = False

    def __post_init__(self) -> None:
        for key in ("datasets", "algorithms", "spaces"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
                raise ValueError(f"{key} must be a list of strings")
            object.__setattr__(self, key, tuple(value))
        if not isinstance(self.overrides, Mapping) or not all(
            isinstance(over, Mapping) for over in self.overrides.values()
        ):
            raise ValueError("overrides must map algorithm names to objects")
        check_scalar_fields(self)
        # Cells, report rows and scatter files carry a dataset's file stem.
        stems = [Path(path).stem for path in self.datasets]
        for what, values in (("dataset", stems), ("algorithm", self.algorithms),
                             ("space", self.spaces)):
            if not values:
                raise ValueError(f"need at least one {what}")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"repeated {what} names: {repeated}")
        unknown = {*self.algorithms, *self.overrides} - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        bad_spaces = set(self.spaces) - {kind.value for kind in SpaceKind}
        if bad_spaces:
            raise ValueError(f"unknown spaces: {sorted(bad_spaces)}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")
        tunable = {f.name for f in fields(SearchConfig)} - {"seed", "sigma"}  # the spec sets these
        for algo, over in self.overrides.items():
            bad = set(over) - tunable
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
        return cls(**raw)

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
        try:
            return replace(base, **over) if over else base
        except ValueError as exc:
            raise ValueError(f"{algorithm} override {exc}") from None


@dataclass(frozen=True)
class BenchCell:
    """Aggregates for one (dataset, algorithm, space) grid point; its runs'
    trajectories go to :func:`run_benchmark`'s scatter files, not the cell.

    ``space`` is None for the exhaustive miner, which is space-blind and
    runs once.  Pattern and invalid-candidate counts are distinct-over-
    all-repetitions, so they are comparable across repetition counts.

    ``invalid_candidate_count`` counts the distinct *unusable* candidates
    the runs evaluated, the calls logged with zero pairs (not ``valid``):
    candidates that decode to no pattern and patterns with no pair.
    Every candidate of the exhaustive sweep decodes, so its count is the
    number of zero-pair patterns.

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


def _run_cell(
    spec: BenchSpec,
    d: Dataset,
    dataset: str,
    algorithm: str,
    space_name: str | None,
    scatter_dir: str | Path | None,
) -> BenchCell:
    reps = 1 if space_name is None else spec.repetitions
    seeds = tuple(spec.base_seed + rep for rep in range(reps))
    space = build_space(d.m, SpaceKind(space_name or "numeric"))
    wall_times: list[float] = []
    frequent: dict[GradualPattern, float] = {}
    invalid: set[int] = set()
    best_support = 0.0
    peak = 0
    trajectories: list[Trajectory] = []
    # A caller's own tracemalloc session is left running (``start`` does
    # nothing then): only its peak is reset, and what it holds is not counted.
    outer = tracemalloc.is_tracing()
    for seed in seeds:
        config = spec.config_for(algorithm, seed)
        if spec.measure_memory:
            tracemalloc.start()
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
        try:
            result = run_miner(algorithm, d, space, config)
        except Exception as exc:  # one failing cell never aborts the grid
            return BenchCell(dataset, algorithm, space_name, seeds, error=str(exc))
        finally:
            if spec.measure_memory:
                peak = max(peak, tracemalloc.get_traced_memory()[1] - held)
                if not outer:
                    tracemalloc.stop()
        wall_times.append(result.wall_time)
        frequent.update(result.frequent_patterns)
        t = result.trajectory
        invalid.update(x for x, pairs in zip(t.candidates, t.pairs) if not pairs)
        best_support = max(best_support, result.best_support)
        if scatter_dir is not None:
            trajectories.append(t)
    tag = f"{dataset}_{algorithm}_{space_name or 'full'}"
    for rep, t in enumerate(trajectories):
        write_scatter_csv(Path(scatter_dir, f"{tag}_rep{rep}.csv"), t)
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
    )


def run_benchmark(spec: BenchSpec, scatter_dir: str | Path | None = None) -> BenchReport:
    """Run the whole grid.

    A dataset that fails to load is recorded as a failure entry and its
    cells are skipped; the benchmark itself keeps going.  Given an existing
    ``scatter_dir``, each cell that ends without error writes one scatter
    CSV per run there as it ends, ``{dataset}_{algorithm}_{space or
    'full'}_rep{k}.csv``, so the grid holds one cell's trajectories at most.
    """
    cells: list[BenchCell] = []
    failures: list[DatasetFailure] = []
    for path in spec.datasets:
        name = Path(path).stem
        try:
            d = load_dataset(path, delimiter=spec.delimiter, has_header=spec.has_header)
            d.index  # every cell counts on it; built here, so wall times cover the search alone
        except DatasetError as exc:
            failures.append(DatasetFailure(dataset=name, path=str(path), error=str(exc)))
            continue
        for algorithm in spec.algorithms:
            # The exhaustive miner is space-blind: it gets one cell.
            for space_name in (None,) if algorithm == "graank" else spec.spaces:
                cells.append(_run_cell(spec, d, name, algorithm, space_name, scatter_dir))
    return BenchReport(
        schema_version=SCHEMA_VERSION,
        sigma=spec.sigma,
        base_seed=spec.base_seed,
        repetitions=spec.repetitions,
        cells=tuple(cells),
        failures=tuple(failures),
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


def _fields_dict(record: Any) -> dict[str, Any]:
    """The JSON object of a report, cell or dataset failure: its fields
    in order, with ``failures`` named ``dataset_failures``."""
    return {
        "dataset_failures" if f.name == "failures" else f.name: getattr(record, f.name)
        for f in fields(record)
    }


def write_report_json(path: str | Path, report: BenchReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, default=_fields_dict)
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


def write_scatter_csv(path: str | Path, trajectory: Trajectory) -> None:
    """One (iteration, position, fitness, valid) row per objective call,
    read off the trajectory's columns: the fitness ``1/pairs`` as
    ``%.10g``, left empty for an unusable call (zero pairs)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("iteration", "position", "fitness", "valid"))
        for t, x, p in zip(trajectory.iterations, trajectory.candidates, trajectory.pairs):
            writer.writerow((t, x, f"{1.0 / p:.10g}", "true") if p else (t, x, "", "false"))
