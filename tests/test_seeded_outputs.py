"""Seeded outputs pinned byte for byte.

``seeded_outputs.json`` was recorded from the per-bit tuple encoding
that preceded the bit-mask one, so these tests check that decoding, GA
crossover and GA mutation on plain integers draw the same random numbers
in the same order and land on the same candidates; the ``m40`` entries
pin the draw beyond int64 as batched by ``search._wide_uniform``.  Keys are
``<table>/<algorithm>/<space>`` for trajectories (candidate per
objective call) and ``<algorithm>/<space>`` for ``gradmine mine`` text
output, with the CSV path replaced by ``{data}``.  ``bench`` holds
SHA-256 digests of what one ``gradmine bench`` run writes, with timing
and memory figures left out and the run's directory replaced by
``{tmp}``.  ``graank`` holds SHA-256 digests of the exhaustive sweep's
trajectory, frequent set and best on two tied tables, recorded when
n = 160 swept int rows and n = 600 arrays.  ``run_miner`` now sweeps
both on int rows (n = 600 on rows of its own, its ANDs being under
``fitness.SWEEP_INT_BYTES``), so each digest is checked twice: as
``run_miner`` routes it, and with that budget at 0, where n = 600
sweeps the dataset's arrays.
"""

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import COURSE_NAMES, COURSE_ROWS, random_dataset, write_csv
import gradmine.fitness
from gradmine import Dataset, SearchConfig, SpaceKind, build_space, encode, run_miner
from gradmine.cli import main
from gradmine.fitness import sweep_index

PINNED = json.loads(Path(__file__).with_name("seeded_outputs.json").read_text(encoding="utf-8"))

# (table, iteration budget); "m12" is 8 rows x 12 columns, 24-bit candidates;
# "m40" is 5 x 40, 80-bit candidates past numpy's int64 draws.
TABLES = {
    "course": (lambda: Dataset(COURSE_NAMES, np.array(COURSE_ROWS)), 20),
    "m12": (lambda: random_dataset(np.random.default_rng(12), 8, 12), 40),
    "m40": (lambda: random_dataset(np.random.default_rng(40), 5, 40), 30),
}


@pytest.mark.parametrize("key", sorted(PINNED["trajectories"]))
def test_trajectory(key):
    table, algo, space_name = key.split("/")
    make, iters = TABLES[table]
    d = make()
    space = build_space(d.m, SpaceKind(space_name))
    result = run_miner(algo, d, space, SearchConfig(max_iterations=iters, seed=5))
    assert [s.candidate for s in result.trajectory.steps] == PINNED["trajectories"][key]


@pytest.mark.parametrize("key", sorted(PINNED["mine"]))
def test_mine_text_output(key, course_csv, capsys):
    algo, space_name = key.split("/")
    argv = ["mine", "--data", str(course_csv), "--algo", algo, "--space", space_name]
    assert main(argv + ["--seed", "5", "--min-sup", "0.4"]) == 0
    out = capsys.readouterr().out
    assert out == PINNED["mine"][key].replace("{data}", str(course_csv))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bench_digests(tmp_path: Path) -> dict:
    """Run one ``gradmine bench`` grid and digest its artefacts.

    The grid covers every algorithm in both spaces over two small
    tables, a 15-column table (its exhaustive cell fails the
    enumeration guard) and a missing file.
    """
    data = tmp_path / "data"
    data.mkdir()
    write_csv(data / "course.csv", COURSE_NAMES, COURSE_ROWS)
    ties = random_dataset(np.random.default_rng(3), 9, 5, ties=True)
    write_csv(data / "ties.csv", ties.attribute_names, ties.values.tolist())
    wide = random_dataset(np.random.default_rng(15), 6, 15)
    write_csv(data / "wide.csv", wide.attribute_names, wide.values.tolist())
    tables = [data / f"{name}.csv" for name in ("course", "ties", "wide", "missing")]
    out_dir = tmp_path / "out"
    argv = [
        "bench", "--data", *map(str, tables),
        "--algos", "rs", "ls", "ga", "pso", "graank",
        "--spaces", "numeric", "bitmap",
        "--reps", "2", "--iters", "6",
        "--save-trajectories", "--measure-memory",
        "--out-dir", str(out_dir),
    ]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(argv) == 1  # the missing file and the wide exhaustive cell

    def normalised(text: str) -> str:
        return text.replace(str(tmp_path), "{tmp}")

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    for cell in report["cells"]:
        for timing in ("wall_times", "mean_wall_time", "peak_memory_bytes"):
            del cell[timing]
    with open(out_dir / "report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    wall = rows[0].index("wall_time")
    flat = io.StringIO()
    csv.writer(flat, lineterminator="\n").writerows(row[:wall] + row[wall + 1 :] for row in rows)
    lines = stdout.getvalue().splitlines(keepends=True)
    return {
        "report.json": _sha256(normalised(json.dumps(report, indent=2))),
        "report.csv": _sha256(flat.getvalue()),
        "stdout": _sha256(normalised("".join(l for l in lines if not l.startswith("wilcoxon")))),
        "stderr": _sha256(normalised(stderr.getvalue())),
        "scatter": {
            path.name: _sha256(path.read_text(encoding="utf-8"))
            for path in sorted((out_dir / "scatter").iterdir())
        },
    }


def test_bench_artefacts(tmp_path):
    assert bench_digests(tmp_path) == PINNED["bench"]


# (seed, n, m) of the tied tables.
GRAANK_TABLES = {"tied160x9": (9, 160, 9), "tied600x7": (7, 600, 7)}


def graank_digests(table: str, form: type) -> dict:
    """Digest the sweep of a tied table, checked to count on ``form`` rows."""
    seed, n, m = GRAANK_TABLES[table]
    d = random_dataset(np.random.default_rng(seed), n, m, ties=True)
    assert type(sweep_index(d)._row_list[0]) is form
    r = run_miner("graank", d, build_space(m), SearchConfig(sigma=0.1))
    steps = "".join(f"{s.iteration} {s.candidate} {s.fitness!r} {s.valid}\n" for s in r.trajectory.steps)
    frequent = "".join(f"{encode(p, m)} {support!r}\n" for p, support in r.frequent_patterns)
    best = f"{encode(r.best_pattern, m)} {r.best_support!r} {r.best_fitness!r}\n"
    return {"trajectory": _sha256(steps), "frequent": _sha256(frequent), "best": _sha256(best)}


@pytest.mark.parametrize("table", sorted(PINNED["graank"]))
def test_graank_sweep(table):
    assert graank_digests(table, int) == PINNED["graank"][table]


@pytest.mark.parametrize("table", sorted(PINNED["graank"]))
def test_graank_sweep_without_an_int_budget(table, monkeypatch):
    # With no AND budget for int rows, n = 600 sweeps the dataset's arrays.
    monkeypatch.setattr(gradmine.fitness, "SWEEP_INT_BYTES", 0)
    form = np.ndarray if GRAANK_TABLES[table][1] > 219 else int
    assert graank_digests(table, form) == PINNED["graank"][table]
