"""Concordant-pair counting, frequency support and candidate fitness.

A pattern's support is the fraction of unordered object pairs that admit an
orientation under which every item's attribute strictly moves in its stated
direction; ties on any item's attribute disqualify the pair.  Fitness is the
inverse of the concordant-pair count, so minimising fitness maximises
support.  Candidates that decode to no pattern, or to a pattern with zero
concordant pairs, get an infinite fitness sentinel: searchers compare
against them but never keep them.

Two counting routes are provided on purpose: :class:`ConcordanceIndex`
(bit-packed, built once per dataset as ``Dataset.index``) and
:func:`concordant_count_brute` (a literal pair-by-pair scan kept as the
reference the fast path is tested against).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dataset import Dataset, DatasetError, object_pair_count
from .encoding import (
    Direction,
    GradualPattern,
    InvalidCandidate,
    PatternOrInvalid,
    SearchSpace,
    encode,
    to_pattern,
)

#: Fitness assigned to unusable candidates (invalid or zero support).
INFINITE_FITNESS = math.inf

#: Largest concordance index, in bytes, that :class:`ConcordanceIndex`
#: allocates; a larger table is refused with a ``DatasetError``.
MAX_INDEX_BYTES = 2 * 2**30


@dataclass(frozen=True)
class Evaluation:
    """Everything the objective function knows about one candidate."""

    candidate: int
    pattern: PatternOrInvalid
    concordant_pairs: int
    support: float
    fitness: float

    @property
    def usable(self) -> bool:
        """True when the candidate can compete for best/pbest/gbest."""
        return math.isfinite(self.fitness)


def _check_indexes(pattern: GradualPattern, d: Dataset) -> None:
    last = pattern.attribute_indexes()[-1]
    if last >= d.m:
        raise ValueError(f"attribute index {last} out of range for m={d.m}")


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
        self.pair_count = object_pair_count(d)
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
        last = pattern.attribute_indexes()[-1]
        if last >= self.m:
            raise ValueError(f"attribute index {last} out of range for m={self.m}")
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

        A depth-first walk over the attributes, each taking the states
        absent, down and up; in the integer layout of ``encoding`` that
        is ascending order.  The AND of the rows chosen so far is shared
        by every candidate below it, so each present item costs one AND
        and each candidate of two or more items one popcount.
        """
        rows, m = self._rows, self.m

        def walk(a: int, x: int, holds: np.ndarray | None, items: int):
            if a == m:
                if items >= 2:
                    yield x, int(np.bitwise_count(holds).sum())
                return
            yield from walk(a + 1, x, holds, items)
            up = 1 << (2 * (m - a) - 1)
            for bit, row in ((up >> 1, rows[2 * a + 1]), (up, rows[2 * a])):
                joined = row if holds is None else holds & row
                yield from walk(a + 1, x | bit, joined, items + 1)

        return walk(0, 0, None, 0)


def concordant_count(pattern: GradualPattern, d: Dataset) -> int:
    """Unordered object pairs respecting every item of the pattern."""
    return d.index.count(pattern)


def concordant_count_brute(pattern: GradualPattern, d: Dataset) -> int:
    """Reference implementation: scan every ordered pair, bail on the
    first item that fails.  Kept deliberately naive."""
    _check_indexes(pattern, d)
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


def support(pattern: GradualPattern, d: Dataset) -> float:
    """Concordant pairs divided by n(n-1)/2, in [0, 1]."""
    return concordant_count(pattern, d) / object_pair_count(d)


def evaluate_with_index(x: int, space: SearchSpace, index: ConcordanceIndex) -> Evaluation:
    """Like :func:`fitness_of` but reusing a prebuilt index."""
    pattern = to_pattern(x, space)
    if isinstance(pattern, InvalidCandidate):
        return Evaluation(x, pattern, 0, 0.0, INFINITE_FITNESS)
    pairs = index.count(pattern)
    sup = pairs / index.pair_count
    fit = 1.0 / pairs if pairs > 0 else INFINITE_FITNESS
    return Evaluation(x, pattern, pairs, sup, fit)


def fitness_of(x: int, space: SearchSpace, d: Dataset) -> Evaluation:
    """Evaluate one integer position of the search space against a dataset."""
    return evaluate_with_index(x, space, d.index)


def is_frequent(e: Evaluation, sigma: float) -> bool:
    """True iff the evaluation's support meets the threshold."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must be in [0, 1], got {sigma}")
    return e.support >= sigma
