"""Shared fixtures and dataset builders for the test suite."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from gradmine import (
    ConcordanceIndex,
    Dataset,
    Direction,
    GradualItem,
    GradualPattern,
    InvalidReason,
    SearchSpace,
    build_space,
    concordant_count_brute,
    enumerate_valid,
    invalid_reason,
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


def pat(*items: str) -> GradualPattern:
    """A pattern from "<attribute><direction>" strings such as "0+"."""
    dirs = {"+": Direction.UP, "-": Direction.DOWN}
    return GradualPattern(tuple(GradualItem(int(s[:-1]), dirs[s[-1]]) for s in items))


def complement(p: GradualPattern) -> GradualPattern:
    """The same attributes with every direction flipped."""
    flip = {Direction.UP: Direction.DOWN, Direction.DOWN: Direction.UP}
    return GradualPattern(tuple(GradualItem(i.attribute_index, flip[i.direction]) for i in p.items))


def field_oracle(x: int, m: int) -> GradualPattern | InvalidReason:
    """Decode straight from the 2-bit fields, independently of the masks:
    11 anywhere is a conflict, 10 is up, 01 is down, 00 is absent."""
    fields = [(x >> (2 * (m - 1 - i))) & 3 for i in range(m)]
    if 3 in fields:
        return InvalidReason.CONFLICT
    dirs = {2: Direction.UP, 1: Direction.DOWN}
    items = [GradualItem(i, dirs[f]) for i, f in enumerate(fields) if f]
    if len(items) < 2:
        return InvalidReason.TOO_FEW_ITEMS
    return GradualPattern(tuple(items))


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


def row_bytes(n: int) -> int:
    """Bytes of one index row of n objects: n lines of ceil(n / 8) bytes,
    rounded up to whole 64-bit words."""
    return 8 * -(-n * ((n + 7) // 8) // 8)


def packed_rows(index: ConcordanceIndex, n: int) -> np.ndarray:
    """An index's rows over n objects as 2m x row_words 64-bit words,
    padding included, read from either row form: a Python int is
    written out little-endian (and must fit its row), an array row is
    taken as it is."""
    return np.stack(
        [
            np.frombuffer(row.to_bytes(row_bytes(n), "little"), np.uint64)
            if type(row) is int
            else row
            for row in index._row_list
        ]
    )


def comparison_rows(d: Dataset) -> np.ndarray:
    """Reference for ``packed_rows(ConcordanceIndex(d), d.n)``: each
    attribute's two rows packed straight from its n x n strict
    comparisons, "increases from i to j" then "decreases", in zeroed
    64-bit words."""
    row_bytes = d.n * ((d.n + 7) // 8)
    rows = np.zeros((2 * d.m, (row_bytes + 7) // 8), dtype=np.uint64)
    packed = rows.view(np.uint8)
    for a, col in enumerate(d.values.T):
        packed[2 * a, :row_bytes] = np.packbits(col[:, None] < col, axis=1).ravel()
        packed[2 * a + 1, :row_bytes] = np.packbits(col[:, None] > col, axis=1).ravel()
    return rows


def tied_pairs(*keys: np.ndarray) -> int:
    """Object pairs equal on every one of ``keys``."""
    _, sizes = np.unique(np.stack(keys), axis=1, return_counts=True)
    return int((sizes * (sizes - 1) // 2).sum())


def _inversions(v: np.ndarray) -> int:
    """Pairs i < j with v[i] > v[j], by a bottom-up merge sort: at each
    level one ``np.searchsorted`` counts, for each element of a block's
    right half, the elements of its left half that are larger.  Keys are
    offset by block, so every level's left halves search as one array."""
    v = v.astype(np.int64)
    n, span = len(v), int(v.max()) + 1
    position = np.arange(n)
    inversions, width = 0, 1
    while width < n:
        block = position // (2 * width)
        right = position // width % 2 == 1
        keys = block * span + v
        left = keys[~right]  # each left half sorted, the halves in block order
        at_most = np.searchsorted(left, keys[right], side="right")
        block_end = np.searchsorted(left, (block[right] + 1) * span, side="left")
        inversions += int((block_end - at_most).sum())
        v = np.sort(keys) - block * span  # merge: each block sorted
        width *= 2
    return inversions


def knight_pairs(d: Dataset, a: int, b: int) -> tuple[int, int]:
    """Second oracle for 2-item counts, Knight's O(n log n) Kendall
    count with ties excluded: ``(C, D)``, the pairs strictly concordant
    on attributes ``a < b`` ({a+, b+} and {a-, b-}) and strictly
    discordant ({a+, b-} and {a-, b+}).

    Sorted by the dense ranks of (a, b), D is the number of inversions
    of b's ranks: a pair tied on a is in b order, so it inverts nothing.
    Then C = n(n-1)/2 - T_a - T_b + T_ab - D, with T the pairs tied on
    a, on b and on both.
    """
    ra = np.unique(d.values[:, a], return_inverse=True)[1].ravel()
    rb = np.unique(d.values[:, b], return_inverse=True)[1].ravel()
    discordant = _inversions(rb[np.lexsort((rb, ra))])
    ties = tied_pairs(ra) + tied_pairs(rb) - tied_pairs(ra, rb)
    return object_pair_count(d) - ties - discordant, discordant


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


@dataclass(frozen=True)
class Evaluation:
    """Everything the objective function knows about one candidate."""

    candidate: int
    pattern: GradualPattern | InvalidReason
    concordant_pairs: int
    support: float
    fitness: float

    @property
    def usable(self) -> bool:
        """True when the candidate can compete for best/pbest/gbest."""
        return math.isfinite(self.fitness)


def fitness_of(x: int, space: SearchSpace, d: Dataset) -> Evaluation:
    """Reference objective for one integer position of the search space.

    Decodes first and counts the pattern, independently of the searchers'
    integer-keyed recorder, which is tested against it.
    """
    reason = invalid_reason(x, space)
    if reason is not None:
        return Evaluation(x, reason, 0, 0.0, math.inf)
    pattern = to_pattern(x, space)
    pairs = d.index.count(pattern)
    fit = 1.0 / pairs if pairs > 0 else math.inf
    return Evaluation(x, pattern, pairs, pairs / object_pair_count(d), fit)


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
    with a missing cell in a surviving column; two surviving columns may
    not share a name.  Returns (names, rows), or None where the loader
    must raise ``DatasetError``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    kept_names = tuple(names[j] for j in columns)
    if len(columns) < 2 or len(kept_rows) < 2 or len(set(kept_names)) < len(kept_names):
        return None
    return kept_names, kept_rows


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
