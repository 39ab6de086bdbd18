"""Concordant-pair counting.

A pattern's support is the fraction of unordered object pairs that admit an
orientation under which every item's attribute strictly moves in its stated
direction; ties on any item's attribute disqualify the pair.  The paper's
fitness is the inverse of the concordant-pair count, so minimising fitness
maximises support, and the miners compare the counts themselves.
Candidates that decode to no pattern, or to a pattern with zero concordant
pairs, count 0: searchers compare against them but never keep them.

All five miners count through one :class:`ConcordanceIndex` per dataset
(bit-packed, built once as ``Dataset.index``), whose rows are Python ints
when they are small, or when numpy is not loaded and a whole sweep's ANDs
are small, and arrays otherwise: the searchers one candidate at a time
(:meth:`ConcordanceIndex.count_candidate`), the exhaustive sweep by one
ascending walk that carries each candidate's AND down to the candidates
that extend it and mirrors half of them by complement
(:meth:`ConcordanceIndex.count_all`).  A run logs the pair counts;
fitness is derived from them only where it is read.
:func:`concordant_count_brute`, a literal pair-by-pair scan, stays beside
it as the reference the index is tested against and the benchmark's
support spot check.
"""

from __future__ import annotations

import sys
from array import array
from itertools import islice
from typing import TYPE_CHECKING, Callable

from .dataset import Dataset, DatasetError
from .encoding import Direction, GradualPattern, encode, valid_candidate_count

if TYPE_CHECKING:
    import numpy as np

#: Largest concordance index, in bytes, that :class:`ConcordanceIndex`
#: holds, in either row form; a larger table is refused with a
#: ``DatasetError``.
MAX_INDEX_BYTES = 2 * 2**30

#: Largest row, in bytes, that :class:`ConcordanceIndex` keeps as a Python
#: int, not an array, for :meth:`~ConcordanceIndex.count_candidate` and
#: :meth:`~ConcordanceIndex.count_all` (n <= 219).
#: Below it one int AND per item and ``int.bit_count`` beat a numpy call
#: per item; above it the AND itself dominates, and numpy's is faster.
#: In-process on a 2-vCPU x86-64 host, m = 24, 2 to 5 items (fastest of
#: nine passes over 400 candidates): n = 150 (2,856-byte rows) counted in
#: 3.7-5.1 us on ints against 5.6-8.0 us on arrays, n = 230 (6,672) in
#: 4.4-5.8 us against 4.1-5.8 us, n = 300 (11,400) in 7.1-9.4 us against
#: 4.9-7.3 us and n = 560 (39,200) in 22-54 us against 9-22 us.
INT_ROW_BYTES = 6 * 2**10

#: Largest sweep, in bytes ANDed (``valid_candidate_count(m)`` times one
#: row's bytes) for which :class:`ConcordanceIndex` keeps rows past
#: ``INT_ROW_BYTES`` as ints while numpy is not loaded (once it is, arrays
#: are faster): below it the ints' slower ANDs cost less than numpy's
#: import.  On a 2-vCPU x86-64 host a cold ``import numpy`` pinned to one
#: vCPU took 56-80 ms, and a whole :meth:`~ConcordanceIndex.count_all`
#: (fastest of five) cost more on ints than on arrays by 21 ms at 400 x 8
#: (125 MiB), 24 ms at 1200 x 6 (123 MiB) and 41 ms at 560 x 8 (245 MiB),
#: with 1-6 ms more to build the int rows: break-even lies near 300 MiB,
#: and 128 MiB leaves room for a slower host.  perfbench's ``sweep_b``
#: (560 x 6) sweeps 27 MiB.
SWEEP_INT_BYTES = 128 * 2**20


class ConcordanceIndex:
    """Bit-packed strict-order rows, one pair per attribute.

    Row ``2a`` packs the n x n matrix "attribute ``a`` strictly increases
    from object ``i`` to object ``j``" line by line, eight objects ``j``
    to a byte; row ``2a + 1`` packs "strictly decreases", which is the
    first matrix transposed.  A pattern's ordered concordance is the AND
    of its items' rows.  Each unordered concordant pair is set in exactly
    one orientation, so the set bits count unordered pairs directly.
    Padding bits, at the end of each line and of each row, are zero in
    every row and never count.  Rows are built as 64-bit words, so the
    index takes ``2 * m * n * ceil(n / 8)`` bytes plus at most 7 per row.
    Each row is held in one form, the one :meth:`count_candidate` and
    :meth:`count_all` AND: a Python int when it is at most
    ``INT_ROW_BYTES``, or when numpy is not loaded yet and
    ``valid_candidate_count(m)`` rows fit ``SWEEP_INT_BYTES``; an array
    otherwise.  So searchers (``run_miner`` imports numpy first) and
    ``bench`` (the harness imports it) get arrays, and a fresh
    ``gradmine mine`` sweep gets ints.  A later search of a ``Dataset``
    swept that way counts its int rows, 2-3x slower at n = 560 (see
    ``INT_ROW_BYTES``).  Above ``MAX_INDEX_BYTES`` the index raises
    ``DatasetError`` before allocating.
    The rows are built one attribute's column at a time, from its L
    distinct values: int rows in plain Python, by two walks over the
    objects sorted by value, so a table of them never loads numpy; array
    rows by numpy, one scatter of the n objects into L + 1 packed lines,
    a running OR over them and two gathers into the rows.  Either build
    holds about ``2 * (L + 1) * ceil(n / 8)`` bytes beside the rows, not
    ``2 * n * n`` float comparisons.
    """

    def __init__(self, d: Dataset) -> None:
        self.m = d.m
        row_words = _row_words(d.n)
        row_bytes = 8 * row_words
        needed = 2 * d.m * row_bytes
        if needed > MAX_INDEX_BYTES:
            raise DatasetError(
                f"a table of n={d.n} objects and m={d.m} attributes needs a "
                f"{needed}-byte concordance index, over the {MAX_INDEX_BYTES}-byte limit"
            )
        if row_bytes <= INT_ROW_BYTES or (
            "numpy" not in sys.modules
            and valid_candidate_count(d.m) * row_bytes <= SWEEP_INT_BYTES
        ):
            self._row_list, self._popcount = _int_rows(d), int.bit_count
        else:
            self._row_list, self._popcount = _array_rows(d, row_words)

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
        return self._popcount(holds)

    def count_all(self) -> tuple[list[int], list[int]]:
        """Every valid candidate over the index's ``m`` attributes, in
        ascending order, and its concordant pairs.

        A candidate's highest item is its root.  The down-item roots are
        walked least significant first, with tail lists as in Eclat: a
        node ``x`` extends by each item below its lowest one, in
        ascending order, logs ``x | item`` with one AND and one popcount,
        and descends into it.  Below an up item its own attribute's down
        item, the item just before it, is left out, so no conflict is
        made.  One-item nodes are not logged.  The walk holds one row per
        depth, at most ``m``.

        Each up-item root's block is mirrored, not walked: a pattern and
        its complement hold the same pairs.  Read a lower state as a
        base-3 number ``v`` (down 1, up 2): entry ``v`` of up root
        ``p + 1``'s block is the complement of entry ``swap(v)`` of down
        root ``p``'s, where ``swap`` exchanges the digits 1 and 2.  So the
        up block's candidates are the down block's plus ``1 << p``, and
        its pairs are the down block's read through one table of ``swap``
        over ``m - 1`` attributes, whose prefixes serve the lower roots.
        """
        candidates: list[int] = []
        pairs: list[int] = []
        rows = self._row_list[::-1]  # bit p names row 2m - 1 - p
        swap = _digit_swap(self.m - 1)
        for p in range(0, 2 * self.m, 2):
            start = len(pairs)
            self._extend(1 << p, rows[p], p, rows, candidates, pairs)
            end = len(pairs)
            candidates += map((1 << p).__add__, islice(candidates, start, end))
            # Down-block entry v (from 1) sits at start - 1 + v.
            entries = islice(swap, 1, end - start + 1)
            pairs += map(pairs.__getitem__, map((start - 1).__add__, entries))
        return candidates, pairs

    def _extend(
        self,
        x: int,
        holds: int | np.ndarray,
        stop: int,
        rows: list,
        candidates: list[int],
        pairs: list[int],
    ) -> None:
        # Logs x | 1 << p for every item p < stop and walks on below it.
        # A method, not a closure over itself, so a finished walk frees
        # its rows without the cyclic garbage collector.
        popcount = self._popcount
        for p in range(stop):
            y, h = x | 1 << p, holds & rows[p]
            candidates.append(y)
            pairs.append(popcount(h))
            if p > 1:  # an up item p is odd: p & ~1 drops its down item
                self._extend(y, h, p & ~1, rows, candidates, pairs)


def _row_words(n: int) -> int:
    # 64-bit words of one row: n lines of ceil(n / 8) bytes.
    return (n * ((n + 7) // 8) + 7) // 8


def _digit_swap(j: int) -> array:
    # Entry v is v with its base-3 digits 1 and 2 swapped, for every v
    # below 3^j: F_{k+1} = F_k ++ (F_k + 2 * 3^k) ++ (F_k + 3^k).
    swap = array("q", [0])
    for k in range(j):
        t = 3**k
        swap.extend(map((2 * t).__add__, islice(swap, t)))
        swap.extend(map(t.__add__, islice(swap, t)))
    return swap


def _int_rows(d: Dataset) -> list[int]:
    # Without numpy, one attribute at a time.  A walk down the objects
    # sorted by value gathers in ``acc`` those it has passed, as a packed
    # line read as a little-endian int (bit j of a line is bit 7 - j % 8
    # of byte j // 8, np.packbits' order).  Taken as each level starts,
    # ``acc`` is that level's "above" line, and each object takes its
    # level's line; a walk up makes the "below" lines the same way.  A row
    # is its objects' lines joined in object order, read as an int.
    line = (d.n + 7) // 8
    bits = [1 << (8 * (j >> 3) + 7 - (j & 7)) for j in range(d.n)]
    rows = []
    for a in range(d.m):
        col = d.column(a).tolist()
        order = sorted(range(d.n), key=col.__getitem__)
        for walk in (reversed(order), order):
            lines = [b""] * d.n
            acc, level, passed = 0, None, b""
            for j in walk:
                if col[j] != level:
                    level, passed = col[j], acc.to_bytes(line, "little")
                lines[j] = passed
                acc |= bits[j]
            rows.append(int.from_bytes(b"".join(lines), "little"))
    return rows


def _array_rows(d: Dataset, row_words: int) -> tuple[list[np.ndarray], Callable]:
    # One attribute's column at a time, by the dense level r of each
    # value: line i of row 2a marks the objects above level r[i], of row
    # 2a + 1 those below.  Each object sets its bit (np.packbits' order)
    # in line r + 1 of ``below``, whose running OR then makes line g the
    # objects below level g and the last line all of them.  The rows are
    # gathered by r straight into the index's words (mode="clip" keeps
    # np.take from buffering a row), so an attribute holds L + 1 lines,
    # freed before the next attribute's are made.  The rows are listed
    # once as views (cheaper to reach than a fresh view), with the
    # popcount that ANDs of them take.
    import numpy as np

    line = (d.n + 7) // 8
    rows = np.zeros((2 * d.m, row_words), dtype=np.uint64)
    packed = rows.view(np.uint8)
    j = np.arange(d.n)
    byte, bit = j >> 3, (128 >> (j & 7)).astype(np.uint8)
    for a in range(d.m):
        levels, r = np.unique(np.frombuffer(d.column(a)), return_inverse=True)
        below = np.zeros((len(levels) + 1, line), dtype=np.uint8)
        np.bitwise_or.at(below, (r + 1, byte), bit)
        np.bitwise_or.accumulate(below, axis=0, out=below)
        up, down = packed[2 * a : 2 * a + 2, : d.n * line].reshape(2, d.n, line)
        np.take(below, r + 1, axis=0, out=up, mode="clip")
        up ^= below[-1]  # all objects but those at or below r[i]
        np.take(below, r, axis=0, out=down, mode="clip")
        del below
    bit_count = np.bitwise_count
    return list(rows), lambda holds: int(bit_count(holds).sum())


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
