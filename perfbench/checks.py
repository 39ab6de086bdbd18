"""Output digests and the comparison against the recorded ones.

Every digest is of output that does not depend on timing, so it is the
same on every run and, because tables are only relabelled by the run
seed (see ``tables.py``), for every seed.  Recorded digests live in
``digests.json`` next to this file; ``run.py --record`` rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Error recorded for an op whose output fails a check; it makes the run
#: incorrect, where other errors only make the op fail.
MISMATCH = "OutputMismatch"

#: Per-cell report fields that hold measured times or memory.
TIMING_FIELDS = ("wall_times", "mean_wall_time", "peak_memory_bytes")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mine_digest(stdout: str) -> str:
    """``gradmine mine`` prints no timing, so its whole stdout is checked."""
    return sha256(stdout)


def grid_digest(report_json: str, stdout: str, algos: tuple[str, ...]) -> dict[str, str]:
    """Digest of ``report.json`` without timing fields, and of stdout
    without the ``wilcoxon`` lines, whose statistics are computed from
    measured wall times.  Raises ValueError when a wilcoxon line is
    missing or was skipped."""
    report = json.loads(report_json)
    for cell in report["cells"]:
        for key in TIMING_FIELDS:
            cell.pop(key, None)
    lines = stdout.splitlines()
    for algo in algos:
        if not any(line.startswith(f"wilcoxon {algo}: W=") for line in lines):
            raise ValueError(f"no wilcoxon result for {algo}")
    kept = "\n".join(line for line in lines if not line.startswith("wilcoxon "))
    return {
        "report": sha256(json.dumps(report, sort_keys=True)),
        "stdout": sha256(kept),
    }


def grid_outcome(report_path: Path, stdout: str, algos: tuple[str, ...]):
    """(digest, None) for a finished ``bench`` run, or (None, MISMATCH)
    when its report is missing or its output is malformed."""
    try:
        return grid_digest(report_path.read_text(encoding="utf-8"), stdout, algos), None
    except (OSError, ValueError) as exc:
        print(f"check failed: grid: {exc}", file=sys.stderr)
        return None, MISMATCH


def search_digest(result, names: tuple[str, ...]) -> dict[str, str]:
    """Best pattern, frequent set and trajectory of one ``SearchResult``."""
    best = "none"
    if result.best_pattern is not None:
        best = f"{result.best_pattern.render(names)} {result.best_support!r}"
    frequent = "\n".join(f"{p.render(names)} {s!r}" for p, s in result.frequent_patterns)
    steps = "\n".join(
        f"{s.iteration} {s.candidate} {s.fitness!r} {int(s.valid)}" for s in result.trajectory.steps
    )
    return {"best": best, "frequent": sha256(frequent), "trajectory": sha256(steps)}


def load_recorded() -> dict:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def mismatch(recorded, key: str, summary) -> str | None:
    """Why ``summary`` differs from the digest recorded under ``key``, or
    None when it matches.  A missing record is a mismatch too."""
    expected = recorded.get(key)
    if expected is None:
        return f"{key}: no recorded digest"
    if expected != summary:
        return f"{key}: output differs from the recorded digest"
    return None
