"""Loading and cleaning of delimited numeric data files.

A file is read in one pass, each row parsed as it is read, without numpy
(which a dataset imports only when built from an array or when its
:attr:`~Dataset.values` are read).  Two cleaning rules: a column is
dropped when it has a text cell (a present cell that does not parse as a
finite dot-decimal number, so dates and times count as text) or no present
cell at all, and then a row is dropped when one of its surviving cells is
missing.  Survivor order is preserved in both axes.
"""

from __future__ import annotations

import csv
import math
import operator
from array import array
from collections import Counter
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

    from .fitness import ConcordanceIndex

#: Cell contents treated as missing values (case-sensitive).
MISSING_TOKENS = frozenset(("", "NaN", "nan", "?", "NA"))


class DatasetError(ValueError):
    """A data file could not be turned into a usable matrix."""


class Dataset:
    """An n-objects by m-attributes matrix of finite reals, with one
    distinct name per attribute.

    The cells are held row after row in one ``array("d")``, which the
    loader fills without numpy; :attr:`values` is a read-only numpy view
    of them, made on first read.  Two datasets are equal when their names
    and values are; the cached :attr:`index` plays no part.  Datasets are
    not hashable, and assigning or deleting any attribute raises
    ``dataclasses.FrozenInstanceError``.
    """

    attribute_names: tuple[str, ...]
    n: int
    m: int
    _cells: array

    def __init__(self, attribute_names: Sequence[str], values: np.ndarray) -> None:
        import numpy as np

        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise DatasetError("values must be a 2-d matrix")
        n, m = values.shape
        self._set(attribute_names, n, m)
        if not np.isfinite(values).all():
            raise DatasetError("all cells must be finite numbers")
        cells = array("d")  # own copy, taken straight from the matrix's rows
        cells.frombytes(memoryview(np.ravel(values)).cast("B"))
        object.__setattr__(self, "_cells", cells)

    @classmethod
    def _from_cells(cls, attribute_names: Sequence[str], cells: array) -> Dataset:
        # The loader's table: finite cells, row after row, one per name.
        d = cls.__new__(cls)
        d._set(attribute_names, len(cells) // len(attribute_names), len(attribute_names))
        object.__setattr__(d, "_cells", cells)
        return d

    def _set(self, attribute_names: Sequence[str], n: int, m: int) -> None:
        # Checks the shape and the names, in the order of their errors.
        if m < 2:
            raise DatasetError(f"need at least 2 attributes, got {m}")
        if n < 2:
            raise DatasetError(f"need at least 2 objects, got {n}")
        names = tuple(attribute_names)
        if len(names) != m:
            raise DatasetError("one name per attribute required")
        for j, name in enumerate(names):
            if name in names[:j]:
                raise DatasetError(f"duplicate attribute name {name!r}")
        object.__setattr__(self, "attribute_names", names)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # loaded on this error path alone

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.attribute_names == other.attribute_names and self._cells == other._cells

    def __repr__(self) -> str:
        return f"Dataset(attribute_names={self.attribute_names!r}, n={self.n}, m={self.m})"

    @cached_property
    def values(self) -> np.ndarray:
        """The cells as a read-only float64 n x m matrix, made on first
        read as a view of the dataset's own, not a copy."""
        import numpy as np

        values = np.frombuffer(self._cells).reshape(self.n, self.m)
        values.flags.writeable = False
        return values

    def column(self, a: int) -> array:
        """Attribute ``a``'s values in object order, as a new ``array("d")``."""
        return self._cells[a :: self.m]

    @cached_property
    def index(self) -> ConcordanceIndex:
        """This dataset's one concordance index, built on first use (its
        row form chosen there) and then shared by every miner's counts."""
        from .fitness import ConcordanceIndex

        return ConcordanceIndex(self)


def object_pair_count(d: Dataset) -> int:
    """Number of unordered object pairs, n(n-1)/2."""
    return d.n * (d.n - 1) // 2


def _parse_number(cell: str) -> float | None:
    # Dot decimal separator and scientific notation only; a comma anywhere
    # disqualifies the cell (``float`` rejects every comma), and non-finite
    # parses (inf/nan spellings) are rejected rather than kept.
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def load_dataset(path, delimiter: str = ",", has_header: bool = True) -> Dataset:
    """Read a delimited text file and clean it into a :class:`Dataset`.

    One pass: each row is parsed as it is read and each cell once, so the
    file's text is never held whole; a leading byte-order mark is skipped.
    Raises :class:`DatasetError` if the file cannot be read or decoded as
    UTF-8 CSV, or if fewer than two columns / two rows survive cleaning.
    """
    # A row with missing cells, a short row's lacking ones included, logs
    # their columns in ``gaps``; a text cell marks its column.  Both stay NaN.
    names: list[str] | None = None
    text_columns: set[int] = set()
    gaps: dict[int, list[int]] = {}  # data row -> its missing cells' columns
    cells = array("d")  # the data rows' floats, one row after another
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for row in filter(None, csv.reader(fh, delimiter=delimiter)):
                if names is None and has_header:
                    names = [cell.strip() for cell in row]
                    continue
                if names is None:
                    names = [f"col{i}" for i in range(len(row))]
                parsed = [math.nan] * len(names)
                missing = list(range(len(row), len(names)))
                for j, cell in enumerate(row[: len(names)]):
                    cell = cell.strip()
                    if cell in MISSING_TOKENS:
                        missing.append(j)
                    else:
                        value = _parse_number(cell)
                        if value is None:
                            text_columns.add(j)
                        else:
                            parsed[j] = value
                if missing:
                    gaps[len(cells) // len(names)] = missing
                cells.extend(parsed)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if names is None:
        raise DatasetError(f"{path}: no data rows")
    if not cells:
        raise DatasetError(f"{path}: header only, no data rows")

    width, rows = len(names), len(cells) // len(names)
    missing_per_column = Counter(chain.from_iterable(gaps.values()))
    kept = [j for j in range(width) if j not in text_columns and missing_per_column[j] < rows]
    if len(kept) < 2:
        raise DatasetError(f"{path}: fewer than 2 numeric columns survive cleaning ({len(kept)})")

    kept_set = set(kept)
    dropped = {i for i, missing in gaps.items() if not kept_set.isdisjoint(missing)}
    if rows - len(dropped) < 2:
        raise DatasetError(f"{path}: fewer than 2 rows survive cleaning ({rows - len(dropped)})")
    if dropped or len(kept) < width:
        pick = operator.itemgetter(*kept)
        cells = array("d", chain.from_iterable(
            pick(cells[i * width : (i + 1) * width]) for i in range(rows) if i not in dropped
        ))
    return Dataset._from_cells([names[j] for j in kept], cells)
