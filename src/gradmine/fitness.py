"""Concordant-pair counting and the fitness sentinel.

A pattern's support is the fraction of unordered object pairs that admit an
orientation under which every item's attribute strictly moves in its stated
direction; ties on any item's attribute disqualify the pair.  Fitness is the
inverse of the concordant-pair count, so minimising fitness maximises
support.  Candidates that decode to no pattern, or to a pattern with zero
concordant pairs, get an infinite fitness sentinel: searchers compare
against them but never keep them.

The miners count through :class:`ConcordanceIndex` (bit-packed, built once
per dataset as ``Dataset.index``): the searchers one candidate at a time,
the exhaustive sweep in batches, one AND and one popcount per prefix over
a table of every suffix (:meth:`ConcordanceIndex.counts`).
:func:`concordant_count_brute`, a literal pair-by-pair scan, stays beside
it as the reference the index is tested against and the benchmark's
support spot check.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .dataset import Dataset, DatasetError
from .encoding import Direction, GradualPattern, encode

#: Fitness assigned to unusable candidates (invalid or zero support).
INFINITE_FITNESS = math.inf

#: Largest concordance index, in bytes, that :class:`ConcordanceIndex`
#: allocates; a larger table is refused with a ``DatasetError``.
MAX_INDEX_BYTES = 2 * 2**30

#: Largest suffix table, in bytes, that :meth:`ConcordanceIndex.counts`
#: builds (its AND buffer is as large again).  In-process on a 2-vCPU
#: x86-64 host, tables of 256 KiB to 1 MiB swept fastest: at n=160, m=10
#: the walk took 83-87 ms, against 177 ms at 64 KiB and 146 ms at 16 MiB.
SUFFIX_TABLE_BYTES = 2**20


class ConcordanceIndex:
    """Bit-packed strict-order rows, one pair per attribute.

    Row ``2a`` packs the n x n matrix "attribute ``a`` strictly increases
    from object ``i`` to object ``j``" line by line, eight objects ``j``
    to a byte; row ``2a + 1`` packs "strictly decreases", which is the
    first matrix transposed.  A pattern's ordered concordance is the AND
    of its items' rows.  Each unordered concordant pair is set in exactly
    one orientation, so the set bits count unordered pairs directly.
    Padding bits, at the end of each line and of each row, are zero in
    every row and never count.  Rows are stored as 64-bit words, so the
    index takes ``2 * m * n * ceil(n / 8)`` bytes plus at most 7 per row;
    above ``MAX_INDEX_BYTES`` it raises ``DatasetError`` before allocating.
    """

    def __init__(self, d: Dataset) -> None:
        self.m = d.m
        row_bytes = d.n * ((d.n + 7) // 8)
        row_words = (row_bytes + 7) // 8
        needed = 2 * d.m * row_words * 8
        if needed > MAX_INDEX_BYTES:
            raise DatasetError(
                f"a table of n={d.n} objects and m={d.m} attributes needs a "
                f"{needed}-byte concordance index, over the {MAX_INDEX_BYTES}-byte limit"
            )
        self._rows = np.zeros((2 * d.m, row_words), dtype=np.uint64)
        packed = self._rows.view(np.uint8)
        # One attribute at a time, so the transient boolean matrices take
        # n * n bytes, not m * n * n.
        for a, col in enumerate(np.ascontiguousarray(d.values.T)):
            packed[2 * a, :row_bytes] = np.packbits(col[:, None] < col, axis=1).ravel()
            packed[2 * a + 1, :row_bytes] = np.packbits(col[:, None] > col, axis=1).ravel()

    def count(self, pattern: GradualPattern) -> int:
        """Concordant pairs of a pattern; ``encode`` rejects attributes
        beyond the index's ``m``."""
        return self.count_candidate(encode(pattern, self.m))

    def count_candidate(self, x: int) -> int:
        """Concordant pairs of a candidate integer with at least two set
        bits (unchecked) over the index's ``m`` attributes.

        Bit ``p`` of the integer names row ``2m - 1 - p``, the layout of
        ``encoding``, so the items' rows are ANDed without a decode.  A
        conflict's two rows AND to zero pairs.
        """
        top = 2 * self.m - 1
        rows = []
        while x:
            pos = x.bit_length() - 1
            x ^= 1 << pos
            rows.append(self._rows[top - pos])
        holds = rows[0] & rows[1]
        for row in rows[2:]:
            holds &= row
        return int(np.bitwise_count(holds).sum())

    def counts(self) -> Iterator[tuple[int, int]]:
        """``(candidate, concordant pairs)`` for every valid candidate over
        the index's ``m`` attributes, in ascending candidate order.

        The last ``k`` attributes form a suffix table: the AND rows of
        their ``3**k - 1`` non-empty states, ``k`` being the largest, and
        at least 1, whose table fits ``SUFFIX_TABLE_BYTES``.  The first
        ``m - k`` attributes are walked depth first, each taking the
        states absent, down and up; in the integer layout of ``encoding``
        that is ascending order.  The AND of the rows chosen so far is
        shared by every prefix below it.  A prefix of two or more items is
        counted on its own, then every prefix is counted against the
        whole table with one AND and one popcount, keeping the suffixes
        that bring it to two items.
        """
        rows, m = self._rows, self.m
        k = 1
        while k < m and (3 ** (k + 1) - 1) * rows[0].nbytes <= SUFFIX_TABLE_BYTES:
            k += 1
        table, suffixes = self._suffix_table(k)
        buf = np.empty_like(table)
        # (attribute, prefix, AND of the parent's rows, row to add, items);
        # a child's AND is taken when it is popped, so at most one array
        # per depth is alive.
        stack = [(0, 0, None, None, 0)]
        while stack:
            a, x, holds, row, items = stack.pop()
            if row is not None:
                holds = row if holds is None else holds & row
            if a < m - k:
                up = 1 << (2 * (m - a) - 1)
                stack += [
                    (a + 1, x | up, holds, rows[2 * a], items + 1),
                    (a + 1, x | up >> 1, holds, rows[2 * a + 1], items + 1),
                    (a + 1, x, holds, None, items),
                ]
                continue
            if holds is None:
                batch = table
            else:
                if items >= 2:
                    yield x, int(np.bitwise_count(holds).sum())
                batch = np.bitwise_and(table, holds, out=buf)
            for s, pairs in zip(suffixes, np.bitwise_count(batch).sum(axis=1).tolist()):
                if items or s.bit_count() >= 2:
                    yield x | s, pairs

    def _suffix_table(self, k: int) -> tuple[np.ndarray, list[int]]:
        """The AND rows of every non-empty state of the last ``k``
        attributes, and the candidate bits of each, in ascending order.

        The table of attributes ``a..m-1`` is that of ``a+1..m-1``, then
        ``a`` down alone and ANDed with each of its rows, then the same
        for up; so it is filled in place from the last attribute back.
        """
        m = self.m
        table = np.empty((3**k - 1, self._rows.shape[1]), dtype=np.uint64)
        bits: list[int] = []
        for a in range(m - 1, m - 1 - k, -1):
            inner = len(bits)
            down = 1 << (2 * (m - a) - 2)
            for bit, row in ((down, self._rows[2 * a + 1]), (down << 1, self._rows[2 * a])):
                at = len(bits)
                table[at] = row
                np.bitwise_and(table[:inner], row, out=table[at + 1 : at + 1 + inner])
                bits += [bit] + [bit | b for b in bits[:inner]]
        return table, bits


def concordant_count_brute(pattern: GradualPattern, d: Dataset) -> int:
    """Reference implementation: scan every ordered pair, bail on the
    first item that fails.  Kept deliberately naive."""
    encode(pattern, d.m)  # refuses an attribute beyond the table
    values = d.values
    count = 0
    for i in range(d.n):
        for j in range(d.n):
            if i == j:
                continue
            ok = True
            for item in pattern.items:
                a = values[i, item.attribute_index]
                b = values[j, item.attribute_index]
                if item.direction is Direction.UP:
                    if not a < b:
                        ok = False
                        break
                else:
                    if not a > b:
                        ok = False
                        break
            if ok:
                count += 1
    return count
