"""Spans around calls into each gradmine module, recorded from outside.

:func:`install` replaces the names a calling module looks up (for
example ``gradmine.search.evaluate_with_index``, which the search loop
calls) with wrappers that record a span per call and count what the call
did.  Nothing inside ``src/`` changes.  A span is (name, parent, start,
end); its layer is the part of the name before the first dot, which is
the gradmine module the call went into.  Spans stay in memory in four
flat arrays and are written once, at the end, by :func:`write_spans`.

Only the standard library is imported here, so a cold ``import
gradmine.cli`` can still be timed after this module is loaded.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

#: Pattern lengths reported one by one; longer counts go to "kmore".
COUNT_KS = tuple(range(2, 9))

#: gradmine modules that get a self-time metric.
LAYERS = ("cli", "dataset", "encoding", "fitness", "search", "baseline", "harness")

#: The span of the cold ``import gradmine.cli``, recorded before any round.
IMPORT_SPAN = "cli.import"


class SpanRecorder:
    """Nested spans of one thread, stored column-wise to stay small."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span timed elsewhere; spans must be added in start order."""
        sid = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return sid

    def __len__(self) -> int:
        return len(self.starts)


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals, clipped to the parent, is subtracted.  Spans
    must be ordered by start time, as :class:`SpanRecorder` stores them.
    """
    covered = [0.0] * len(starts)
    reach: dict[int, float] = {}
    for sid, parent in enumerate(parents):
        if parent < 0:
            continue
        lo = max(starts[sid], starts[parent], reach.get(parent, starts[parent]))
        hi = min(ends[sid], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def write_spans(path: Path, rec: SpanRecorder) -> None:
    """Gzipped CSV, one row per span: id, parent id (-1 for roots), name,
    and start and end in microseconds since the recorder was created."""
    names, t0 = rec.names, rec.t0
    with gzip.open(path, "wt", encoding="utf-8", newline="\n", compresslevel=1) as fh:
        fh.write("id,parent,name,start_us,end_us\n")
        for sid in range(len(rec)):
            fh.write(
                f"{sid},{rec.parents[sid]},{names[rec.name_ids[sid]]},"
                f"{(rec.starts[sid] - t0) * 1e6:.3f},{(rec.ends[sid] - t0) * 1e6:.3f}\n"
            )


class _State:
    """Which miner the current call runs under, for per-layer counters."""

    def __init__(self) -> None:
        self.algorithm: str | None = None
        self.in_harness = False


def _wrap(rec: SpanRecorder, nid: int, fn: Callable, after: Callable | None = None) -> Callable:
    def wrapper(*args, **kwargs):
        sid = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap the module-level names gradmine's callers look up; returns a
    function that puts the originals back."""
    from gradmine import cli, encoding, fitness, harness, search

    counters = rec.counters
    state = _State()
    patched: list[tuple[object, str, object]] = []

    # A name a later version of gradmine no longer has is left unwrapped,
    # and its metrics read 0.
    def patch(owner, attr: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__.get(attr)
        if original is not None:
            patched.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))

    def simple(owner, attr: str, name: str, after: Callable | None = None) -> None:
        patch(owner, attr, lambda fn: _wrap(rec, rec.name_id(name), fn, after))

    # cli: the command itself, as the benchmark calls it.
    simple(cli, "main", "cli.main")

    # dataset: CSV load, as called by the CLI and by the harness.
    def after_load(args, d):
        counters["dataset.loads"] += 1
        counters["dataset.cells"] += d.n * d.m

    for owner in (cli, harness):
        simple(owner, "load_dataset", "dataset.load", after_load)

    # encoding: integer -> bit vector -> pattern, and candidate enumeration.
    def after_decode(args, _):
        counters["encoding.decode_calls"] += 1

    def after_to_pattern(args, pattern):
        counters["encoding.to_pattern_calls"] += 1
        if isinstance(pattern, encoding.InvalidCandidate):
            counters[f"encoding.invalid.{pattern.reason.value}"] += 1

    simple(fitness, "decode", "encoding.decode", after_decode)
    simple(fitness, "to_pattern", "encoding.to_pattern", after_to_pattern)
    simple(search, "decode", "encoding.decode", after_decode)
    simple(search, "encode", "encoding.encode")
    simple(search, "enumerate_valid", "encoding.enumerate")

    # fitness: index build, pair count (span name carries the pattern
    # length), and the per-candidate evaluation the search loop calls.
    def after_build(args, _):
        d = args[1]
        counters["fitness.index_builds"] += 1
        counters["fitness.index_bytes_max"] = max(
            counters["fitness.index_bytes_max"], d.n * d.n * d.m
        )
        if state.in_harness:
            counters["harness.index_builds"] += 1

    simple(fitness.ConcordanceIndex, "__init__", "fitness.index_build", after_build)

    count_ids = {k: rec.name_id(f"fitness.count.k{k}") for k in COUNT_KS}
    more_id = rec.name_id("fitness.count.kmore")

    def wrap_count(count):
        def count_wrapper(self, pattern):
            sid = rec.open(count_ids.get(len(pattern.items), more_id))
            try:
                pairs = count(self, pattern)
            finally:
                rec.close(sid)
            if pairs == 0:
                counters["fitness.zero_support"] += 1
            return pairs

        return count_wrapper

    patch(fitness.ConcordanceIndex, "count", wrap_count)

    def after_evaluate(args, _):
        if state.algorithm != "graank":
            counters["search.distinct"] += 1

    simple(search, "evaluate_with_index", "fitness.evaluate", after_evaluate)

    # search / baseline: one span per miner run, named by what runs.
    search_id = rec.name_id("search.run")
    sweep_id = rec.name_id("baseline.sweep")

    def wrap_run_miner(fn):
        def run_miner(algorithm, *args, **kwargs):
            state.algorithm = algorithm
            sid = rec.open(sweep_id if algorithm == "graank" else search_id)
            try:
                result = fn(algorithm, *args, **kwargs)
            except Exception:
                counters["search.failures"] += 1
                raise
            finally:
                rec.close(sid)
                state.algorithm = None
            steps = result.trajectory.steps
            if algorithm == "graank":
                counters["baseline.sweeps"] += 1
                counters["baseline.candidates"] += len(steps)
            else:
                counters["search.calls"] += len(steps)
                counters["search.valid"] += sum(1 for s in steps if s.valid)
            return result

        return run_miner

    for owner in (cli, harness, search):
        patch(owner, "run_miner", wrap_run_miner)

    # harness: the grid, the signed-rank test and the report writers.
    def wrap_run_benchmark(fn):
        nid = rec.name_id("harness.run_benchmark")

        def run_benchmark(spec):
            state.in_harness = True
            sid = rec.open(nid)
            try:
                report = fn(spec)
            finally:
                rec.close(sid)
                state.in_harness = False
            counters["harness.cells"] += len(report.cells)
            counters["harness.datasets"] += len(spec.datasets) - len(report.failures)
            return report

        return run_benchmark

    patch(cli, "run_benchmark", wrap_run_benchmark)

    def after_wilcoxon(args, _):
        counters["harness.wilcoxon_calls"] += 1

    simple(harness, "wilcoxon_signed_rank", "harness.wilcoxon", after_wilcoxon)
    simple(cli, "write_report_json", "harness.report_write")
    simple(cli, "write_report_csv", "harness.report_write")

    def uninstall() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return uninstall


def per_layer_metrics(rec: SpanRecorder, rounds: int) -> dict[str, float]:
    """Per-round means of the counters and span times of ``rec``, leaving
    out the cold import, which is not part of any round."""
    import_id = rec.name_id(IMPORT_SPAN)
    total: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    for sid, own in enumerate(self_times(rec.parents, rec.starts, rec.ends)):
        nid = rec.name_ids[sid]
        if nid == import_id:
            continue
        name = rec.names[nid]
        total[name] += rec.ends[sid] - rec.starts[sid]
        calls[name] += 1
        layer_self[layer_of(name)] += own

    c = rec.counters
    r = float(max(rounds, 1))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    count_names = [f"fitness.count.k{k}" for k in COUNT_KS] + ["fitness.count.kmore"]
    count_calls = sum(calls[n] for n in count_names)
    out = {
        "dataset.load_s": total["dataset.load"] / r,
        "dataset.loads": c["dataset.loads"] / r,
        "dataset.cells": c["dataset.cells"] / r,
        "encoding.decode_calls": c["encoding.decode_calls"] / r,
        "encoding.decode_s": (total["encoding.decode"] + total["encoding.to_pattern"]) / r,
        "encoding.invalid_ratio": ratio(
            c["encoding.invalid.conflict"] + c["encoding.invalid.too_few_items"],
            c["encoding.to_pattern_calls"],
        ),
        "encoding.invalid.conflict": c["encoding.invalid.conflict"] / r,
        "encoding.invalid.too_few_items": c["encoding.invalid.too_few_items"] / r,
        "encoding.enumerate_s": total["encoding.enumerate"] / r,
        "fitness.index_builds": c["fitness.index_builds"] / r,
        "fitness.index_build_s": total["fitness.index_build"] / r,
        "fitness.index_mb": c["fitness.index_bytes_max"] / 2**20,
        "fitness.count_calls": count_calls / r,
        "fitness.count_s": sum(total[n] for n in count_names) / r,
        "fitness.zero_support": c["fitness.zero_support"] / r,
    }
    for k in COUNT_KS:
        name = f"fitness.count.k{k}"
        out[f"fitness.count_us.k{k}"] = ratio(total[name], calls[name]) * 1e6
        out[f"fitness.count_calls.k{k}"] = calls[name] / r
    out.update({
        "search.calls": c["search.calls"] / r,
        "search.distinct": c["search.distinct"] / r,
        "search.memo_hit_ratio": ratio(c["search.calls"] - c["search.distinct"], c["search.calls"]),
        "search.valid_ratio": ratio(c["search.valid"], c["search.calls"]),
        "search.failures": c["search.failures"] / r,
        "baseline.sweep_s": total["baseline.sweep"] / r,
        "baseline.sweeps": c["baseline.sweeps"] / r,
        "baseline.candidates": c["baseline.candidates"] / r,
        "harness.cells": c["harness.cells"] / r,
        "harness.index_builds_per_dataset": ratio(c["harness.index_builds"], c["harness.datasets"]),
        "harness.cell_s": ratio(
            total["harness.run_benchmark"] - total["dataset.load"], c["harness.cells"]
        ),
        "harness.wilcoxon_s": total["harness.wilcoxon"] / r,
        "harness.wilcoxon_calls": c["harness.wilcoxon_calls"] / r,
        "harness.report_write_s": total["harness.report_write"] / r,
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / r
    return out


def trace_metrics(
    rec: SpanRecorder, import_rss_mb: float, untraced: list[float], traced: list[float]
) -> dict[str, float]:
    """Every per-layer metric of a traced run.

    ``rec`` holds the cold import as its first span, then the spans of
    ``len(traced)`` traced rounds; ``untraced`` and ``traced`` are the op
    times of the rounds run without and with the wrappers.
    """
    metrics = per_layer_metrics(rec, len(traced))
    metrics.update({
        "cli.import_s": rec.ends[0] - rec.starts[0],
        "cli.import_rss_mb": import_rss_mb,
        "trace.rounds": len(traced),
        "trace.spans": (len(rec) - 1) / len(traced),
        "trace.untraced_wall_s": statistics.median(untraced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    })
    return metrics
