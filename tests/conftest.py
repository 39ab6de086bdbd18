"""Shared fixtures and dataset builders for the test suite."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from gradmine import (
    Dataset,
    build_space,
    concordant_count_brute,
    enumerate_valid,
    object_pair_count,
    to_pattern,
)

# Four course participants: age, counselling sessions attended, final marks.
COURSE_NAMES = ("age", "sessions", "marks")
COURSE_ROWS = [
    [23.0, 2.0, 55.0],
    [32.0, 4.0, 64.0],
    [40.0, 5.0, 78.0],
    [25.0, 5.0, 48.0],
]


@pytest.fixture
def course_dataset() -> Dataset:
    return Dataset(COURSE_NAMES, np.array(COURSE_ROWS))


def random_dataset(rng: np.random.Generator, n: int, m: int, ties: bool = False) -> Dataset:
    """A random n x m dataset; with ties=True values are drawn from a
    small integer grid so equal cells are common."""
    if ties:
        values = rng.integers(0, 4, size=(n, m)).astype(float)
    else:
        values = rng.random((n, m))
    return Dataset(tuple(f"col{i}" for i in range(m)), values)


@st.composite
def tied_tables(draw, max_m: int = 4):
    """Small tables whose cells come from ``{0..levels}``: levels=0 gives
    an all-tie table, and one column may be forced constant."""
    n = draw(st.integers(2, 19))
    m = draw(st.integers(2, max_m))
    levels = draw(st.sampled_from((0, 1, 3, 1000)))
    cells = draw(st.lists(st.integers(0, levels), min_size=n * m, max_size=n * m))
    values = np.array(cells, dtype=float).reshape(n, m)
    constant = draw(st.none() | st.integers(0, m - 1))
    if constant is not None:
        values[:, constant] = 7.0
    return Dataset(tuple(f"col{i}" for i in range(m)), values)


def brute_frequent(d: Dataset, sigma: float) -> dict[int, float]:
    """Independent route to the exhaustive miner's output: raw pair scans
    over every valid candidate, keyed by candidate integer."""
    space = build_space(d.m)
    total = object_pair_count(d)
    out = {}
    for x in enumerate_valid(space):
        p = to_pattern(x, space)
        pairs = concordant_count_brute(p, d)
        if pairs > 0 and pairs / total >= sigma:
            out[x] = pairs / total
    return out


def write_csv(path, names, rows, delimiter=",") -> None:
    lines = [delimiter.join(names)]
    lines += [delimiter.join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_clean(path, delimiter=",", has_header=True):
    """Naive reference of ``load_dataset``'s documented cleaning rules:
    drop every column with a text cell or no present cell, then every row
    with a missing cell in a surviving column.  Returns (names, rows), or
    None where the loader must raise ``DatasetError``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh, delimiter=delimiter) if row]
    if not rows:
        return None
    if has_header:
        names, rows = [cell.strip() for cell in rows[0]], rows[1:]
    else:
        names = [f"col{i}" for i in range(len(rows[0]))]
    width = len(names)
    grid = [[row[j].strip() if j < len(row) else "" for j in range(width)] for row in rows]
    missing = {"", "NaN", "nan", "?", "NA"}

    def number(cell):  # a finite dot-decimal number, else None
        if "," in cell:
            return None
        try:
            value = float(cell)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    columns = []
    for j in range(width):
        present = [row[j] for row in grid if row[j] not in missing]
        if present and all(number(cell) is not None for cell in present):
            columns.append(j)
    kept_rows = []
    for row in grid:
        if all(row[j] not in missing for j in columns):
            kept_rows.append([number(row[j]) for j in columns])
    if len(columns) < 2 or len(kept_rows) < 2:
        return None
    return tuple(names[j] for j in columns), kept_rows


@pytest.fixture
def course_csv(tmp_path):
    path = tmp_path / "course.csv"
    write_csv(path, COURSE_NAMES, COURSE_ROWS)
    return path


@pytest.fixture(params=["undecodable", "oversized-field"])
def unreadable_csv(request, tmp_path):
    """A file the csv module cannot read: a byte that is not UTF-8, or a
    quoted field longer than ``csv.field_size_limit()``."""
    path = tmp_path / "bad.csv"
    if request.param == "undecodable":
        path.write_bytes(b"a,b\n1,\xff\n2,3\n")
    else:
        field = "9" * (csv.field_size_limit() + 1)
        path.write_text(f'a,b\n1,"{field}"\n2,3\n', encoding="utf-8")
    return path


# --- acceptance-criteria reporting -----------------------------------------
# Tests marked @pytest.mark.acceptance("A1", "label") get one summary line
# each ("[A1] label: PASS" or ": FAIL") after the run.

_ACCEPTANCE_RESULTS: list[tuple[str, str, bool]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        tag, label = marker.args
        _ACCEPTANCE_RESULTS.append((tag, label, report.passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    def _key(entry):
        tag = entry[0]
        digits = "".join(ch for ch in tag if ch.isdigit())
        return (int(digits) if digits else 0, tag)
    for tag, label, passed in sorted(_ACCEPTANCE_RESULTS, key=_key):
        terminalreporter.write_line(f"[{tag}] {label}: {'PASS' if passed else 'FAIL'}")
