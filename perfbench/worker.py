"""Child process of the benchmark: runs gradmine in-process.

Usage: ``python3 perfbench/worker.py JOB.json RESULT.json``

The job names a mode:

* ``setup``: import gradmine and load the workload's tables, then exit;
  the parent runs this a few times to sample set-up time.
* ``wide``: the same set-up, then rounds of the ``wide`` searches until
  the time is up.  The parent reads this process's peak RSS.
* ``trace``: time a cold ``import gradmine.cli``, then rounds of any
  workload's ops in-process, each round once untraced and once with the
  wrappers of ``tracing.py`` installed; CLI ops go through
  ``gradmine.cli.main``.

Nothing heavy is imported before gradmine, so the import is timed cold.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, tracing, workloads  # noqa: E402

#: Returned supports re-counted with the brute-force oracle in round one.
SPOT_CHECKS = 3


class Op(NamedTuple):
    """One operation's outcome: its time, its error if it failed, and the
    summary of its output that the parent checks against the digests.
    Only timed ops are checked; the others are the failure probe."""

    key: str
    seconds: float
    error: str | None
    summary: object
    timed: bool
    #: Median reference-loop time right before the op, for timed ops.
    reference: float | None = None


class WideOps:
    """The ``wide`` searches over tables loaded once."""

    def __init__(self, data: dict) -> None:
        self.data = data

    def run_round(self, spot_check: bool) -> list[Op]:
        from gradmine import encoding, search

        ops = []
        for table, algo, space_name, iters in workloads.wide_ops():
            d = self.data[table]
            key = f"wide/{table}/{algo}/{space_name}"
            space = encoding.build_space(d.m, encoding.SpaceKind(space_name))
            config = search.SearchConfig(
                max_iterations=iters, seed=0, sigma=workloads.WIDE_SIGMA
            )
            timed = table == workloads.WIDE_TIMED
            reference = statistics.median(workloads.time_reference()) if timed else None
            t0 = time.perf_counter()
            try:
                result = search.run_miner(algo, d, space, config)
            except Exception as exc:  # a failing op is recorded, never fatal
                ops.append(Op(key, time.perf_counter() - t0, type(exc).__name__, None, timed))
                continue
            seconds = time.perf_counter() - t0
            error = _spot_check(result, d) if spot_check else None
            summary = checks.search_digest(result, d.attribute_names)
            ops.append(Op(key, seconds, error, summary, timed, reference))
        return ops


def _spot_check(result, d) -> str | None:
    """Re-count a few returned supports with ``concordant_count_brute``."""
    from gradmine import dataset, fitness

    pairs = dataset.object_pair_count(d)
    picked = list(result.frequent_patterns[:SPOT_CHECKS])
    if result.best_pattern is not None:
        picked.append((result.best_pattern, result.best_support))
    for pattern, sup in picked:
        if fitness.concordant_count_brute(pattern, d) / pairs != sup:
            print(f"check failed: support of {pattern.render(d.attribute_names)}", file=sys.stderr)
            return checks.MISMATCH
    return None


def _cli(argv: list[str]) -> tuple[str, str | None]:
    """``gradmine.cli.main`` with captured output: (stdout, error or None)."""
    from gradmine import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        return out.getvalue(), f"SystemExit({exc.code})"
    except Exception as exc:  # a failing op is recorded, never fatal
        return out.getvalue(), type(exc).__name__
    if code != 0:
        return out.getvalue(), f"exit {code}"
    if "Traceback" in err.getvalue():
        return out.getvalue(), "Traceback"
    return out.getvalue(), None


def _cli_round(workload: str, table_dir: str, out_dir: str) -> list[Op]:
    ops = []
    if workload == "sweep":
        for t in workloads.SWEEP_TABLES:
            t0 = time.perf_counter()
            stdout, error = _cli(workloads.sweep_argv(f"{table_dir}/{t.name}.csv"))
            seconds = time.perf_counter() - t0
            summary = None if error else checks.mine_digest(stdout)
            ops.append(Op(f"sweep/{t.name}", seconds, error, summary, True))
        return ops
    paths = [f"{table_dir}/{t.name}.csv" for t in workloads.GRID_TABLES]
    t0 = time.perf_counter()
    stdout, error = _cli(workloads.grid_argv(paths, out_dir))
    seconds = time.perf_counter() - t0
    summary = None
    if error is None:
        summary, error = checks.grid_outcome(ROOT / out_dir / "report.json", stdout, workloads.GRID_ALGOS)
    return [Op("grid", seconds, error, summary, True)]


def _load_tables(job: dict) -> dict:
    from gradmine import dataset

    table_dir = Path(job["table_dir"])
    return {
        t.name: dataset.load_dataset(table_dir / f"{t.name}.csv")
        for t in workloads.TABLES[job["workload"]]
    }


def _setup_and_wide(job: dict) -> dict:
    t0 = time.perf_counter()
    import gradmine.cli  # noqa: F401

    data = _load_tables(job)
    setup_s = time.perf_counter() - t0
    if job["mode"] == "setup":
        return {"setup_s": setup_s}
    wide = WideOps(data)
    rounds: list[list[dict]] = []

    def run_round(i: int) -> float:
        t = time.perf_counter()
        rounds.append([op._asdict() for op in wide.run_round(spot_check=i == 0)])
        return time.perf_counter() - t

    workloads.closed_loop(job["seconds"], job["min_rounds"], run_round)
    return {"setup_s": setup_s, "rounds": rounds}


def _trace(job: dict) -> dict:
    rec = tracing.SpanRecorder()
    t0 = time.perf_counter()
    import gradmine.cli  # noqa: F401

    rec.add(tracing.IMPORT_SPAN, t0, time.perf_counter())
    import_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload = job["workload"]
    if workload == "wide":
        wide = WideOps(_load_tables(job))

        def ops(i: int) -> list[Op]:
            return wide.run_round(spot_check=i == 0)
    else:
        def ops(i: int) -> list[Op]:
            return _cli_round(workload, job["table_dir"], job["out_dir"])

    rounds: list[list[dict]] = []
    untraced: list[float] = []
    traced: list[float] = []
    op_nid = rec.name_id(f"op.{workload}")

    def run(i: int, walls: list[float]) -> None:
        # Op times only, so the spot check of round one is left out.
        done = ops(i)
        rounds.append([op._asdict() for op in done])
        walls.append(sum(op.seconds for op in done))

    def pair(i: int) -> float:
        t = time.perf_counter()
        run(2 * i, untraced)
        uninstall = tracing.install(rec)
        sid = rec.open(op_nid)
        try:
            run(2 * i + 1, traced)
        finally:
            rec.close(sid)
            uninstall()
        return time.perf_counter() - t

    workloads.closed_loop(job["seconds"], job["min_rounds"], pair)
    tracing.write_spans(ROOT / job["spans_path"], rec)
    return {"rounds": rounds, "metrics": tracing.trace_metrics(rec, import_rss_mb, untraced, traced)}


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = _trace(job) if job["mode"] == "trace" else _setup_and_wide(job)
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
