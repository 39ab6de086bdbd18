"""The gradmine benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload {sweep,grid,wide} --seed N \\
        --seconds S --trace {0,1}

Workloads (a closed loop: one op starts after the previous one ends, one
process at a time):

* ``sweep``: ``gradmine mine`` subprocesses on two tables, exhaustive
  (auto-selected ``graank``) mining;
* ``grid``: one ``gradmine bench`` subprocess per round, rs/ls/ga/pso in
  both spaces, 3 reps, over six tables;
* ``wide``: rs/ls/ga/pso in both spaces via ``run_miner`` in one child
  process, timed on an m=24 table, plus the same eight ops on an m=40
  table as a failure probe.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``wall_s`` (one round of the workload's timed ops: the sum over those
ops of each op's median time in the run, scaled to a fixed host speed
by a reference loop timed with it, see ``Tally.wall_s``),
``setup_s`` (median of repeated table generation, plus the median of
repeated ``import gradmine.cli`` and table load in fresh children),
``peak_rss_mb`` (maximum resident size of the processes that ran ops,
from ``os.wait4``) and ``ok_ratio`` (ops that ran and matched the
recorded output, over ops attempted).
With ``--trace 1`` the ops run in-process under the wrappers of
``tracing.py`` and the line holds per-layer metrics; spans are written
to ``.perfbench_work/spans-<workload>.csv.gz``.

``--record`` rewrites ``digests.json`` from this run's outputs; use it
only when a change is meant to alter gradmine's output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, tables, workloads  # noqa: E402

WORK = ".perfbench_work"
#: Table generation is repeated this many times; setup_s is the median.
SETUP_REPS = 5
#: Child set-ups (import and table load) sampled per run; for ``wide`` the
#: child that runs the ops is one of them.
SETUP_SAMPLES = 3
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
#: A child still running this many seconds after the run started is
#: killed, so that a run ends within 180 s.
RUN_LIMIT_S = 170.0
START = time.perf_counter()


class Child(NamedTuple):
    """A finished child process: exit code, wall time, peak RSS and output."""

    code: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], work: Path) -> Child:
    """Run ``argv`` from the repo root with gradmine importable from
    ``src``; time it and read its peak RSS with ``os.wait4``."""
    env = {k: v for k, v in os.environ.items() if k != "GRADMINE_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one op at a time, on one core
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, START + RUN_LIMIT_S - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Child(
        proc.returncode,
        seconds,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def child_error(child: Child) -> str | None:
    """A failed child: non-zero exit, or a traceback on stderr."""
    if "Traceback" in child.stderr:
        lines = [line for line in child.stderr.strip().splitlines() if line]
        return lines[-1].split(":", 1)[0] if lines else "Traceback"
    if child.code != 0:
        return f"exit {child.code}"
    return None


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "gradmine.cli", *args]


def run_cli_op(args: list[str], work: Path) -> tuple[Child, float]:
    """Run ``gradmine`` with ``args`` in a child; returns it and the median
    of the reference-loop times taken right before and right after it."""
    before = workloads.time_reference()
    child = run_child(cli_argv(args), work)
    return child, statistics.median(before + workloads.time_reference())


class Tally:
    """Op outcomes of one run, checked against the recorded digests, and
    the times of the timed ops that succeeded, by op, plain and scaled
    (see ``wall_s``)."""

    def __init__(self, recorded: dict, record: bool) -> None:
        self.recorded, self.record = recorded, record
        self.attempted = self.failed = 0
        self.correct = True
        self.errors: dict[str, int] = {}
        self.times: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.new_digests: dict = {}

    def add(
        self, key: str, error: str | None, summary, timed: bool,
        seconds: float = 0.0, reference: float | None = None,
    ) -> None:
        """Timed ops are the ones with recorded digests; the others (the
        failure probe) are counted but neither checked nor timed."""
        self.attempted += 1
        if error is None and timed:
            if self.record:
                self.new_digests[key] = summary
            else:
                why = checks.mismatch(self.recorded, key, summary)
                if why is not None:
                    print(f"check failed: {why}", file=sys.stderr)
                    error = checks.MISMATCH
        if error is not None:
            self.failed += 1
            self.errors[error] = self.errors.get(error, 0) + 1
            self.correct = self.correct and error != checks.MISMATCH
        elif timed:
            self.times.setdefault(key, []).append(seconds)
            if reference is not None:
                self.scaled.setdefault(key, []).append(
                    seconds * workloads.REFERENCE_S / reference
                )

    def add_ops(self, ops: list[dict]) -> None:
        for op in ops:
            self.add(
                op["key"], op["error"], op["summary"], op["timed"], op["seconds"], op["reference"]
            )

    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    def raw_wall_s(self) -> float:
        """Sum over the timed ops of each op's median time."""
        return sum(statistics.median(times) for times in self.times.values())

    def wall_s(self) -> float:
        """Sum over the timed ops of each op's median scaled time: its time
        times ``REFERENCE_S`` over the reference-loop time taken on the same
        vCPU right before it (and, for CLI ops, right after it), which reads
        in seconds of the host at a fixed speed.  The host's speed drifts by
        up to half, for seconds to minutes, with the load of other tenants;
        the loop slows with it, so the ratio holds where the plain time does
        not."""
        return sum(statistics.median(scaled) for scaled in self.scaled.values())


def setup_tables(workload: str, seed: int, table_dir: Path) -> float:
    """Write the workload's tables; returns the median of SETUP_REPS runs."""
    table_dir.mkdir(parents=True, exist_ok=True)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        for t in workloads.TABLES[workload]:
            tables.make_table(table_dir / f"{t.name}.csv", t.content_seed, t.n, t.m, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_cli_workload(workload: str, rel_tables: str, work: Path, seconds: float, tally: Tally):
    """``sweep`` and ``grid``: gradmine CLI subprocesses."""
    rss: list[float] = []
    out_dir = f"{WORK}/{workload}/out"

    def sweep_round(_: int) -> float:
        wall = peak = 0.0
        for t in workloads.SWEEP_TABLES:
            argv = workloads.sweep_argv(f"{rel_tables}/{t.name}.csv")
            child, reference = run_cli_op(argv, work)
            error = child_error(child)
            summary = None if error else checks.mine_digest(child.stdout)
            tally.add(f"sweep/{t.name}", error, summary, True, child.seconds, reference)
            wall += child.seconds
            peak = max(peak, child.rss_mb)
        rss.append(peak)
        return wall

    def grid_round(_: int) -> float:
        paths = [f"{rel_tables}/{t.name}.csv" for t in workloads.GRID_TABLES]
        child, reference = run_cli_op(workloads.grid_argv(paths, out_dir), work)
        error, summary = child_error(child), None
        if error is None:
            summary, error = checks.grid_outcome(
                ROOT / out_dir / "report.json", child.stdout, workloads.GRID_ALGOS
            )
        tally.add("grid", error, summary, True, child.seconds, reference)
        rss.append(child.rss_mb)
        return child.seconds

    workloads.closed_loop(seconds, MIN_ROUNDS, sweep_round if workload == "sweep" else grid_round)
    return statistics.median(rss)


def run_worker(job: dict, work: Path) -> tuple[Child, dict | None]:
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    child = run_child(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(job_path), str(result_path)],
        work,
    )
    if child_error(child) is not None or not result_path.exists():
        sys.stderr.write(child.stderr)
        return child, None
    return child, json.loads(result_path.read_text(encoding="utf-8"))


def child_setups(workload: str, rel_tables: str, work: Path, samples: int) -> list[float]:
    """Import gradmine and load the tables in fresh children.  The first one
    also compiles bytecode, so it is the warm-up for the timed ops."""
    setups = []
    for _ in range(samples):
        _, result = run_worker({"mode": "setup", "workload": workload, "table_dir": rel_tables}, work)
        if result is None:
            raise RuntimeError("set-up child failed")
        setups.append(result["setup_s"])
    return setups


def run_wide(rel_tables: str, work: Path, seconds: float, tally: Tally, setups: list[float]):
    """``wide``: one child running rounds of searches; its own import and
    load is one more set-up sample."""
    job = {
        "mode": "wide", "workload": "wide", "table_dir": rel_tables,
        "seconds": seconds, "min_rounds": MIN_ROUNDS,
    }
    child, result = run_worker(job, work)
    if result is None:
        raise RuntimeError("wide child failed")
    setups.append(result["setup_s"])
    for ops in result["rounds"]:
        tally.add_ops(ops)
    return child.rss_mb


def run_trace(workload: str, rel_tables: str, work: Path, seconds: float, tally: Tally) -> dict:
    job = {
        "mode": "trace",
        "workload": workload,
        "table_dir": rel_tables,
        "out_dir": f"{WORK}/{workload}/out",
        "spans_path": f"{WORK}/spans-{workload}.csv.gz",
        "seconds": seconds,
        "min_rounds": MIN_TRACE_ROUNDS,
    }
    _, result = run_worker(job, work)
    if result is None:
        raise RuntimeError("trace child failed")
    for ops in result["rounds"]:
        tally.add_ops(ops)
    return result["metrics"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gradmine" / "__init__.py").is_file():
        print(f"error: no gradmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One vCPU for this process and every child, so that the reference
    # loop meets the same contention as the ops it is timed with.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = ROOT / WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    rel_tables = f"{WORK}/{args.workload}/tables"
    setup_s = setup_tables(args.workload, args.seed, ROOT / rel_tables)
    tally = Tally(checks.load_recorded(), args.record)

    if args.trace:
        metrics = run_trace(args.workload, rel_tables, work, args.seconds, tally)
    else:
        wide = args.workload == "wide"
        setups = child_setups(args.workload, rel_tables, work, SETUP_SAMPLES - wide)
        if wide:
            rss = run_wide(rel_tables, work, args.seconds, tally, setups)
        else:
            rss = run_cli_workload(args.workload, rel_tables, work, args.seconds, tally)
        for key, times in tally.times.items():
            print(f"{key}: {[round(t, 3) for t in times]}", file=sys.stderr)
        for key, scaled in tally.scaled.items():
            print(f"{key} scaled: {[round(t, 3) for t in scaled]}", file=sys.stderr)
        print(f"unscaled wall_s: {tally.raw_wall_s():.4f}", file=sys.stderr)
        metrics = {
            "wall_s": tally.wall_s(),
            "setup_s": setup_s + statistics.median(setups),
            "peak_rss_mb": rss,
            "ok_ratio": tally.ok_ratio(),
        }
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in bench[key]}

    if tally.errors:
        print(f"failed ops by error: {json.dumps(tally.errors, sort_keys=True)}", file=sys.stderr)
    if args.record:
        recorded = checks.load_recorded()
        recorded.update(tally.new_digests)
        checks.DIGESTS_PATH.write_text(
            json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
