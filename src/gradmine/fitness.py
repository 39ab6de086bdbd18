"""Concordant-pair counting.

A pattern's support is the fraction of unordered object pairs that admit an
orientation under which every item's attribute strictly moves in its stated
direction; ties on any item's attribute disqualify the pair.  The paper's
fitness is the inverse of the concordant-pair count, so minimising fitness
maximises support, and the miners compare the counts themselves.
Candidates that decode to no pattern, or to a pattern with zero concordant
pairs, count 0: searchers compare against them but never keep them.

The miners count through :class:`ConcordanceIndex` (bit-packed, built once
per dataset as ``Dataset.index``): the searchers one candidate at a time
(:meth:`ConcordanceIndex.count_candidate`, on Python-int copies of the
rows when they are small and on the arrays otherwise), the exhaustive
sweep one batch per prefix, ``(candidates, pairs)`` arrays from one AND
and one popcount over a table of every suffix state, the empty one
first, whose all-ones row is never counted alone
(:meth:`ConcordanceIndex.counts`).  A run logs the pair counts; fitness
is derived from them only where it is read.
:func:`concordant_count_brute`, a literal pair-by-pair scan, stays beside
it as the reference the index is tested against and the benchmark's
support spot check.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .dataset import Dataset, DatasetError
from .encoding import Direction, GradualPattern, encode

#: Largest concordance index, in bytes, that :class:`ConcordanceIndex`
#: allocates, its int copy included; a larger table is refused with a
#: ``DatasetError``.
MAX_INDEX_BYTES = 2 * 2**30

#: Largest row, in bytes, that :class:`ConcordanceIndex` also keeps as a
#: Python int for :meth:`~ConcordanceIndex.count_candidate` (n <= 219).
#: Below it one int AND per item and ``int.bit_count`` beat a numpy call
#: per item; above it the AND itself dominates, and numpy's is faster.
#: In-process on a 2-vCPU x86-64 host, m = 24, 2 to 5 items (fastest of
#: nine passes over 400 candidates): n = 150 (2,856-byte rows) counted in
#: 3.7-5.1 us on ints against 5.6-8.0 us on arrays, n = 230 (6,672) in
#: 4.4-5.8 us against 4.1-5.8 us, n = 300 (11,400) in 7.1-9.4 us against
#: 4.9-7.3 us and n = 560 (39,200) in 22-54 us against 9-22 us.
INT_ROW_BYTES = 6 * 2**10

#: Largest suffix table, in bytes, that :meth:`ConcordanceIndex.counts`
#: builds while one row fits (its AND buffer is as large again).
#: In-process on a 2-vCPU x86-64 host, at n=160, m=10, the walk took
#: 57-66 ms at 1 MiB or 256 KiB, against 123-126 ms at 64 KiB, 279 ms at
#: 16 KiB and 50-75 ms at 4 or 16 MiB, whose memory bought no clear gain.
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
    index takes ``2 * m * n * ceil(n / 8)`` bytes plus at most 7 per row.
    Rows of at most ``INT_ROW_BYTES`` are also kept as Python ints, which
    :meth:`count_candidate` ANDs; that copy is counted as as many bytes
    again.  Above ``MAX_INDEX_BYTES`` the index raises ``DatasetError``
    before allocating.
    An attribute of L distinct values costs one scatter of its n objects
    into L + 1 packed lines, a running OR over them and two gathers into
    its rows, with ``(L + 1) * ceil(n / 8)`` bytes held beside the rows,
    not ``2 * n * n`` float comparisons.
    """

    def __init__(self, d: Dataset) -> None:
        self.m = d.m
        row_bytes = d.n * ((d.n + 7) // 8)
        row_words = (row_bytes + 7) // 8
        self._int_rows = row_words * 8 <= INT_ROW_BYTES
        needed = 2 * d.m * row_words * 8 * (1 + self._int_rows)
        if needed > MAX_INDEX_BYTES:
            raise DatasetError(
                f"a table of n={d.n} objects and m={d.m} attributes needs a "
                f"{needed}-byte concordance index, over the {MAX_INDEX_BYTES}-byte limit"
            )
        self._rows = np.zeros((2 * d.m, row_words), dtype=np.uint64)
        packed = self._rows.view(np.uint8)
        # One attribute at a time, by the dense level r of each value: line
        # i of row 2a marks the objects above level r[i], of row 2a + 1
        # those below.  Each object sets its bit (bit j of a line is bit
        # 7 - j % 8 of byte j // 8, np.packbits' order) in line r + 1 of
        # ``below``, whose running OR then makes line g the objects below
        # level g and the last line all of them.  The rows are gathered by
        # r straight into the index (mode="clip" keeps np.take from
        # buffering a row), so an attribute holds L + 1 lines, freed
        # before the next attribute's are made.
        line = (d.n + 7) // 8
        j = np.arange(d.n)
        byte, bit = j >> 3, (128 >> (j & 7)).astype(np.uint8)
        for a, col in enumerate(np.ascontiguousarray(d.values.T)):
            levels, r = np.unique(col, return_inverse=True)
            below = np.zeros((len(levels) + 1, line), dtype=np.uint8)
            np.bitwise_or.at(below, (r + 1, byte), bit)
            np.bitwise_or.accumulate(below, axis=0, out=below)
            up, down = packed[2 * a : 2 * a + 2, :row_bytes].reshape(2, d.n, line)
            np.take(below, r + 1, axis=0, out=up, mode="clip")
            up ^= below[-1]  # all objects but those at or below r[i]
            np.take(below, r, axis=0, out=down, mode="clip")
            del below
        # The rows counted one candidate at a time, taken once: a list item
        # is cheaper to reach than a fresh view of the array per item.
        if self._int_rows:
            self._row_list = [int.from_bytes(row, "little") for row in packed]
        else:
            self._row_list = list(self._rows)

    def count(self, pattern: GradualPattern) -> int:
        """Concordant pairs of a pattern; ``encode`` rejects attributes
        beyond the index's ``m``."""
        return self.count_candidate(encode(pattern, self.m))

    def count_candidate(self, x: int) -> int:
        """Concordant pairs of a candidate integer with at least two set
        bits (unchecked) over the index's ``m`` attributes.

        Bit ``p`` of the integer names row ``2m - 1 - p``, the layout of
        ``encoding``, so the items' rows are ANDed without a decode, as
        ints when the rows are small and as arrays otherwise.  A
        conflict's two rows AND to zero pairs.
        """
        top = 2 * self.m - 1
        row_list = self._row_list
        rows = []
        while x:
            pos = x.bit_length() - 1
            x ^= 1 << pos
            rows.append(row_list[top - pos])
        holds = rows[0] & rows[1]
        for row in rows[2:]:
            holds &= row
        if self._int_rows:
            return holds.bit_count()
        return int(np.bitwise_count(holds).sum())

    def counts(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(candidates, concordant pairs)`` int64 arrays, one pair per
        prefix, for every valid candidate over the index's ``m``
        attributes, in ascending order.

        The last ``k`` attributes form a suffix table of the AND rows of
        all their ``3**k`` states, the empty one first; ``k`` is the
        largest, 0 allowed, up to ``ceil(m / 2)``, whose table fits
        ``SUFFIX_TABLE_BYTES``: it is filled one walk step a state, so a
        table wider than its prefix costs more steps than it saves.  The
        prefixes are the states of the first ``m - k`` attributes, walked
        by :meth:`_states` from the empty state's row, and so come in
        ascending order.  Each is counted against the whole table with
        one AND and one popcount, keeping the suffixes that bring it to
        two items: after no prefix item those of two or more, after one
        those of one or more, after two or more all of them.
        """
        rows, m = self._rows, self.m
        k = 0
        while k < m - k and 3 ** (k + 1) * rows[0].nbytes <= SUFFIX_TABLE_BYTES:
            k += 1
        table, suffixes = self._suffix_table(k)
        sizes = np.bitwise_count(suffixes)
        kept = sizes >= 2, sizes >= 1, slice(None)
        buf = np.empty_like(table)
        for x, holds in self._states(0, m - k, 0, table[0]):
            np.bitwise_and(table, holds, out=buf)
            del holds  # freed before the walk makes the next prefix's AND
            keep = kept[min(x.bit_count(), 2)]
            yield x | suffixes[keep], np.bitwise_count(buf).sum(axis=1, dtype=np.int64)[keep]

    def _states(
        self, a: int, stop: int, x: int, holds: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        # ``(x | bits, holds & rows)`` for every state of attributes
        # ``a..stop-1``, depth first, each absent, then down, then up: in
        # the integer layout of ``encoding`` that is ascending order, and
        # a state's AND is shared by every state that extends it.  A
        # method, not a closure over itself, so a finished walk frees its
        # arrays without the cyclic garbage collector.
        if a == stop:
            yield x, holds
            return
        down = 1 << (2 * (self.m - a) - 2)
        yield from self._states(a + 1, stop, x, holds)
        # Each AND is passed, not named, so it dies with its branch.
        yield from self._states(a + 1, stop, x | down, holds & self._rows[2 * a + 1])
        yield from self._states(a + 1, stop, x | down << 1, holds & self._rows[2 * a])

    def _suffix_table(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The AND rows of every state of the last ``k`` attributes and
        the candidate bits of each (int64), ascending, as
        :meth:`_states` walks them from a row of every bit set, padding
        bits included.  The empty state comes first, with that row; the
        prefix walk never counts it alone.
        """
        ones = np.full(self._rows.shape[1], ~np.uint64(0))
        table = np.empty((3**k, len(ones)), dtype=np.uint64)
        bits = np.empty(3**k, dtype=np.int64)
        for i, (x, row) in enumerate(self._states(self.m - k, self.m, 0, ones)):
            table[i], bits[i] = row, x
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
