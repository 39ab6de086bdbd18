"""Seeded outputs pinned byte for byte.

``seeded_outputs.json`` was recorded from the per-bit tuple encoding
that preceded the bit-mask one, so these tests check that decoding, GA
crossover and GA mutation on plain integers draw the same random numbers
in the same order and land on the same candidates.  Keys are
``<table>/<algorithm>/<space>`` for trajectories (candidate per
objective call) and ``<algorithm>/<space>`` for ``gradmine mine`` text
output, with the CSV path replaced by ``{data}``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import COURSE_NAMES, COURSE_ROWS, random_dataset
from gradmine import Dataset, SearchConfig, SpaceKind, build_space, run_miner
from gradmine.cli import main

PINNED = json.loads(Path(__file__).with_name("seeded_outputs.json").read_text(encoding="utf-8"))

# (table, iteration budget); "m12" is 8 rows x 12 columns, 24-bit candidates.
TABLES = {
    "course": (lambda: Dataset(COURSE_NAMES, np.array(COURSE_ROWS)), 20),
    "m12": (lambda: random_dataset(np.random.default_rng(12), 8, 12), 40),
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("GRADMINE_SEED", raising=False)


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
