"""Loading and cleaning of delimited numeric data files.

Two cleaning rules: a column is dropped when it has a text cell (a present
cell that does not parse as a finite dot-decimal number, so dates and
times count as text) or no present cell at all, and then a row is dropped
when one of its surviving cells is missing.  Survivor order is preserved
in both axes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .fitness import ConcordanceIndex

#: Cell contents treated as missing values (case-sensitive).
MISSING_TOKENS = frozenset(("", "NaN", "nan", "?", "NA"))


class DatasetError(ValueError):
    """A data file could not be turned into a usable matrix."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n-objects by m-attributes matrix of finite reals, with one
    distinct name per attribute.

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
        names = tuple(self.attribute_names)
        if len(names) != m:
            raise DatasetError("one name per attribute required")
        for j, name in enumerate(names):
            if name in names[:j]:
                raise DatasetError(f"duplicate attribute name {name!r}")
        if not np.isfinite(values).all():
            raise DatasetError("all cells must be finite numbers")
        values.flags.writeable = False
        object.__setattr__(self, "attribute_names", names)
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


def load_dataset(path, delimiter: str = ",", has_header: bool = True) -> Dataset:
    """Read a delimited text file and clean it into a :class:`Dataset`.

    Each cell is parsed once.  Raises :class:`DatasetError` if the file
    cannot be read or decoded as UTF-8 CSV, or if fewer than two columns /
    two rows survive cleaning.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh, delimiter=delimiter) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DatasetError(f"{path}: no data rows")

    if has_header:
        names = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
    else:
        names = [f"col{i}" for i in range(len(rows[0]))]
    if not rows:
        raise DatasetError(f"{path}: header only, no data rows")

    # Missing and text cells, and the cells a short row lacks, stay NaN;
    # a text cell also marks its column.
    width = len(names)
    text_columns: set[int] = set()
    matrix = []
    for row in rows:
        cells = [math.nan] * width
        for j, cell in enumerate(row[:width]):
            cell = cell.strip()
            if cell not in MISSING_TOKENS:
                value = _parse_number(cell)
                if value is None:
                    text_columns.add(j)
                else:
                    cells[j] = value
        matrix.append(cells)
    values = np.array(matrix, dtype=float)

    present = ~np.isnan(values)
    kept = [j for j in range(width) if j not in text_columns and present[:, j].any()]
    if len(kept) < 2:
        raise DatasetError(f"{path}: fewer than 2 numeric columns survive cleaning ({len(kept)})")

    values = values[present[:, kept].all(axis=1)][:, kept]
    if len(values) < 2:
        raise DatasetError(f"{path}: fewer than 2 rows survive cleaning ({len(values)})")

    return Dataset(tuple(names[j] for j in kept), values)
