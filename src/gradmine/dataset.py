"""Loading and cleaning of delimited numeric data files.

The cleaning rules, applied in order: text columns (anything with an
unparseable non-missing cell) are dropped, timestamp-looking columns are
dropped, and finally any row with a missing cell in a surviving column is
dropped.  Survivor order is preserved in both axes.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .fitness import ConcordanceIndex

#: Cell contents treated as missing values (case-sensitive, overridable).
DEFAULT_MISSING_TOKENS = ("", "NaN", "nan", "?", "NA")

#: Fraction of non-missing cells that must look like dates/times for a
#: column to be dropped as a timestamp column.
DEFAULT_TIMESTAMP_THRESHOLD = 0.9

# ISO-8601 dates with optional time part, and dd/mm/yyyy-style layouts.
_TIMESTAMP_RES = (
    re.compile(r"^\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?)?$"),
    re.compile(r"^\d{1,2}/\d{1,2}/\d{2,4}( \d{1,2}:\d{2}(:\d{2})?)?$"),
)


class DatasetError(ValueError):
    """A data file could not be turned into a usable matrix."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n-objects by m-attributes matrix of finite reals, with names.

    Two datasets are equal when their names and values are; the cached
    :attr:`index` plays no part.  Datasets are not hashable.
    """

    attribute_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)  # own copy, frozen below
        if values.ndim != 2:
            raise DatasetError("values must be a 2-d matrix")
        n, m = values.shape
        if m < 2:
            raise DatasetError(f"need at least 2 attributes, got {m}")
        if n < 2:
            raise DatasetError(f"need at least 2 objects, got {n}")
        if len(self.attribute_names) != m:
            raise DatasetError("one name per attribute required")
        if not np.isfinite(values).all():
            raise DatasetError("all cells must be finite numbers")
        values.flags.writeable = False
        object.__setattr__(self, "attribute_names", tuple(self.attribute_names))
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.attribute_names == other.attribute_names and np.array_equal(
            self.values, other.values
        )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @cached_property
    def index(self) -> "ConcordanceIndex":
        """The concordance index of this dataset, built on first use and
        then shared by every count against it."""
        from .fitness import ConcordanceIndex

        return ConcordanceIndex(self)


def object_pair_count(d: Dataset) -> int:
    """Number of unordered object pairs, n(n-1)/2."""
    return d.n * (d.n - 1) // 2


def _parse_number(cell: str) -> float | None:
    # Dot decimal separator and scientific notation only; a comma anywhere
    # disqualifies the cell, and non-finite parses (inf/nan spellings) are
    # rejected rather than kept.
    if "," in cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _looks_like_timestamp(cell: str) -> bool:
    return any(rx.match(cell) for rx in _TIMESTAMP_RES)


def load_dataset(
    path,
    delimiter: str = ",",
    has_header: bool = True,
    *,
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
    timestamp_threshold: float = DEFAULT_TIMESTAMP_THRESHOLD,
) -> Dataset:
    """Read a delimited text file and clean it into a :class:`Dataset`.

    Raises :class:`DatasetError` if the file is unreadable or fewer than
    two columns / two rows survive cleaning.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh, delimiter=delimiter)]
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    rows = [row for row in rows if row]
    if not rows:
        raise DatasetError(f"{path}: no data rows")

    if has_header:
        names = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
    else:
        names = [f"col{i}" for i in range(len(rows[0]))]
    if not rows:
        raise DatasetError(f"{path}: header only, no data rows")

    width = len(names)
    grid = []
    for row in rows:
        cells = [cell.strip() for cell in row[:width]]
        cells += [""] * (width - len(cells))
        grid.append(cells)

    missing = frozenset(missing_tokens)
    kept: list[int] = []
    for j in range(width):
        column = [grid[i][j] for i in range(len(grid))]
        present = [c for c in column if c not in missing]
        if not present:
            continue
        stamps = sum(1 for c in present if _looks_like_timestamp(c))
        if stamps / len(present) >= timestamp_threshold:
            continue
        if all(_parse_number(c) is not None for c in present):
            kept.append(j)

    if len(kept) < 2:
        raise DatasetError(
            f"{path}: fewer than 2 numeric columns survive cleaning ({len(kept)})"
        )

    clean_rows = []
    for cells in grid:
        picked = [cells[j] for j in kept]
        if any(c in missing for c in picked):
            continue
        clean_rows.append([_parse_number(c) for c in picked])

    if len(clean_rows) < 2:
        raise DatasetError(
            f"{path}: fewer than 2 rows survive cleaning ({len(clean_rows)})"
        )

    return Dataset(tuple(names[j] for j in kept), np.array(clean_rows, dtype=float))
