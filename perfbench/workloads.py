"""What each workload runs: its tables and its operations.

Shared by the parent (``run.py``) and the child process (``worker.py``),
so this module imports nothing beyond the standard library; the child
must be able to time ``import gradmine.cli`` from a cold interpreter.

Why each size (also recorded in ``BENCHMARK.json``):

* ``sweep``: the exhaustive miner evaluates every one of 3^m - 2m - 1
  candidates once and builds one index, so the work is ``fitness.count``.
  ``sweep_a`` (n=160, m=8) has many candidates (6544) on a small index;
  ``sweep_b`` (n=560, m=6) has few candidates (716) on a larger one, so
  per-candidate overhead and per-pair cost are both visible.
* ``grid``: six tables because ``space_comparison`` needs at least five
  pairs; m=6 keeps 716 valid candidates, so repeated searches hit the
  memo, and n=480..780 makes the 24 index builds per table a visible
  share beside the counts.
* ``wide``: m=24 puts about 0.1% of the numeric space on valid
  candidates, so decoding and the searcher loop dominate; n=150 keeps
  each count cheap.  m=40 is a probe past the int64 range of the
  position draw, which fails today and is kept so that a fix shows as
  a higher ``ok_ratio`` and leaves the timings alone.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, NamedTuple


class TableSpec(NamedTuple):
    name: str
    content_seed: int
    n: int
    m: int


SWEEP_TABLES = (TableSpec("sweep_a", 11, 160, 8), TableSpec("sweep_b", 12, 560, 6))
GRID_TABLES = tuple(TableSpec(f"grid_{i}", 21 + i, 480 + 60 * i, 6) for i in range(6))
WIDE_TABLES = (TableSpec("wide_24", 31, 150, 24), TableSpec("wide_40", 32, 150, 40))

TABLES = {"sweep": SWEEP_TABLES, "grid": GRID_TABLES, "wide": WIDE_TABLES}
WORKLOADS = tuple(TABLES)

#: Support threshold of the ``mine`` calls in ``sweep``.
SWEEP_MIN_SUP = "0.3"

#: The ``bench`` grid: every searcher in both spaces, 3 reps, 20 iterations.
GRID_ALGOS = ("rs", "ls", "ga", "pso")

#: Iteration budgets of the ``wide`` searches (about 4 s per round at m=24).
WIDE_BUDGETS = (("rs", 20000), ("ls", 20000), ("ga", 3000), ("pso", 1000))
WIDE_SPACES = ("numeric", "bitmap")
WIDE_SIGMA = 0.02
#: The table whose ops are timed; the other wide table is the failure probe.
WIDE_TIMED = "wide_24"


def sweep_argv(csv_path: str) -> list[str]:
    return ["mine", "--data", csv_path, "--min-sup", SWEEP_MIN_SUP]


def grid_argv(csv_paths: list[str], out_dir: str) -> list[str]:
    return [
        "bench", "--data", *csv_paths,
        "--algos", *GRID_ALGOS,
        "--spaces", "numeric", "bitmap",
        "--reps", "3",
        "--out-dir", out_dir,
    ]


def wide_ops() -> list[tuple[str, str, str, int]]:
    """(table, algorithm, space, iterations) in run order, timed table first."""
    return [
        (table.name, algo, space, iters)
        for table in WIDE_TABLES
        for algo, iters in WIDE_BUDGETS
        for space in WIDE_SPACES
    ]


#: Sizes of the three parts of the reference loop (about 8 ms in all on
#: the host it was tuned on).
REFERENCE_N = 10000
REFERENCE_FLOAT_N = 30000
REFERENCE_ROWS = 350
#: Reference-loop samples taken right before each in-process timed op.
REFERENCE_SAMPLES = 5
#: A typical time of the reference loop on the 2-vCPU x86-64 host the
#: benchmark was defined on.  Each op time is scaled by this over the
#: reference time measured with it, so ``wall_s`` reads in seconds of that
#: host at that speed.
REFERENCE_S = 0.008


def reference_loop() -> float:
    """Fixed work that shares nothing with gradmine; its time tracks the
    host's speed.  Three parts, because the host's slowdowns hit allocating
    code (dict and list updates), plain arithmetic and numpy over arrays of
    megabytes by different amounts, and gradmine does all three.  numpy is
    imported here, not at the top, so that importing this module leaves a
    cold interpreter cold."""
    import numpy as np

    total, seen, items = 0, {}, []
    for i in range(REFERENCE_N):
        key = i % 97
        seen[key] = seen.get(key, 0) + i
        items.append(i * 3 & 0xFF)
        total += key * key
    x = 0.0
    for i in range(REFERENCE_FLOAT_N):
        x += i * 0.5
    v = np.arange(REFERENCE_ROWS * 6).reshape(REFERENCE_ROWS, 6) * 7919 % 101
    below = int((v[:, None, :] < v[None, :, :]).sum())
    return total + len(items) + len(seen) + x + below


def time_reference() -> list[float]:
    times = []
    for _ in range(REFERENCE_SAMPLES):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return times


def closed_loop(seconds: float, min_rounds: int, run_round: Callable[[int], float]) -> list[float]:
    """Call ``run_round(i)``, which returns the round's time, one round after
    another; stop once one more round of the median length so far would end
    past ``seconds``, but not before ``min_rounds`` rounds."""
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        walls.append(run_round(len(walls)))
        elapsed = time.perf_counter() - start
        if len(walls) >= min_rounds and elapsed + statistics.median(walls) > seconds:
            return walls
