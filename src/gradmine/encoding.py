"""Integer encodings of gradual-pattern candidates and their search spaces.

A candidate over ``m`` attributes is a string of ``2m`` bits read big-endian.
Attribute 0 owns the two most significant bits; within each pair the first
bit means "increasing" and the second "decreasing".  For three attributes,
``101000`` therefore stands for {attr0+, attr1+} and equals decimal 40.
Candidates stay plain integers throughout: decoding reads the pairs with
bit masks, and ``format(x, f"0{2 * m}b")`` gives the bit string for display.

Two integer domains share this layout:

* the *numeric* space ``[5, sum(2**(2i-1) for i=1..m)]``, whose upper bound
  is the all-increasing candidate and whose lower bound is the smallest
  decodable pattern (the last two attributes decreasing), and
* the *bitmap* space ``[0, 2**(2m) - 1]``, the full bit-string domain kept
  around as a comparison baseline.

Not every integer decodes to a usable pattern: an attribute may carry both
direction bits (a conflict) or fewer than two items may be set.  Such
positions are represented by :class:`InvalidCandidate` rather than raised as
errors, because searchers must be able to land on them and move on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Union

#: Largest attribute count for which exhaustive candidate enumeration is
#: allowed.  The graank sweep keeps one trajectory step per candidate, so
#: it grows about 3x per attribute.  Measured in-process at n=40 on a
#: 2-vCPU x86-64 host (time, RSS growth during the sweep): m=11 1.9 s,
#: 32 MiB; m=12 5.3 s, 95 MiB; m=13 14.3 s, 280 MiB; m=14 48.5 s,
#: 828 MiB (4,782,940 candidates).  m=16 would take about 7 min and
#: 7.5 GiB.
MAX_ENUM_ATTRIBUTES = 14


class Direction(enum.Enum):
    """Direction of variation of a gradual item."""

    UP = "+"
    DOWN = "-"

    def flipped(self) -> "Direction":
        return Direction.DOWN if self is Direction.UP else Direction.UP


class SpaceKind(enum.Enum):
    NUMERIC = "numeric"
    BITMAP = "bitmap"


class InvalidReason(enum.Enum):
    """Why an integer position does not decode to a pattern."""

    CONFLICT = "conflict"
    TOO_FEW_ITEMS = "too_few_items"


class EnumerationLimitError(RuntimeError):
    """Raised when exhaustive enumeration would exceed the attribute guard."""

    def __init__(self, m: int, limit: int) -> None:
        super().__init__(
            f"cannot enumerate candidates for {m} attributes (guard: {limit})"
        )
        self.m = m
        self.limit = limit


@dataclass(frozen=True)
class GradualItem:
    """One (attribute, direction) component of a pattern, e.g. "age+"."""

    attribute_index: int
    direction: Direction

    def render(self, names: Sequence[str]) -> str:
        return f"{names[self.attribute_index]}{self.direction.value}"


@dataclass(frozen=True)
class GradualPattern:
    """A set of two or more gradual items over distinct attributes.

    Items are normalised to ascending attribute order on construction.
    """

    items: tuple[GradualItem, ...]

    def __post_init__(self) -> None:
        items = tuple(sorted(self.items, key=lambda it: it.attribute_index))
        if len(items) < 2:
            raise ValueError("a gradual pattern needs at least two items")
        indexes = [it.attribute_index for it in items]
        if len(set(indexes)) != len(indexes):
            raise ValueError(f"conflicting items on attributes {indexes}")
        if indexes[0] < 0:
            raise ValueError("attribute indexes must be non-negative")
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)

    def attribute_indexes(self) -> tuple[int, ...]:
        return tuple(it.attribute_index for it in self.items)

    def complement(self) -> "GradualPattern":
        """The same attributes with every direction flipped."""
        return GradualPattern(
            tuple(
                GradualItem(it.attribute_index, it.direction.flipped())
                for it in self.items
            )
        )

    def render(self, names: Sequence[str]) -> str:
        """Text form used by the CLI and reports: ``{age+, sessions-}``."""
        return "{" + ", ".join(it.render(names) for it in self.items) + "}"


@dataclass(frozen=True)
class InvalidCandidate:
    """Marker for a position that does not decode to a pattern."""

    reason: InvalidReason


PatternOrInvalid = Union[GradualPattern, InvalidCandidate]


@dataclass(frozen=True)
class SearchSpace:
    """An inclusive integer interval whose points decode to candidates."""

    kind: SpaceKind
    m: int
    lower: int
    upper: int

    @property
    def size(self) -> int:
        return self.upper - self.lower + 1

    def contains(self, x: int) -> bool:
        return self.lower <= x <= self.upper


def build_space(m: int, kind: SpaceKind = SpaceKind.NUMERIC) -> SearchSpace:
    """Construct the numeric or bitmap search space for ``m`` attributes."""
    if m < 2:
        raise ValueError(f"need at least 2 attributes, got {m}")
    if kind is SpaceKind.NUMERIC:
        upper = sum(2 ** (2 * i - 1) for i in range(1, m + 1))
        return SearchSpace(kind, m, 5, upper)
    return SearchSpace(kind, m, 0, 2 ** (2 * m) - 1)


def valid_candidate_count(m: int) -> int:
    """How many integers decode to patterns over ``m`` attributes:
    3^m attribute states minus the empty one and the 2m single items."""
    return 3**m - 2 * m - 1


def _down_mask(m: int) -> int:
    # 0b0101...01: the "decreasing" bit of every attribute.  The
    # "increasing" mask is this shifted left by one.
    return ((1 << (2 * m)) - 1) // 3


def invalid_reason(x: int, space: SearchSpace) -> InvalidReason | None:
    """Why an in-bounds integer does not decode to a pattern, or None when
    it does; ``ValueError`` outside the space.

    A conflict (both bits of one attribute) takes precedence over having
    fewer than two items.
    """
    if not space.contains(x):
        raise ValueError(
            f"{x} outside [{space.lower}, {space.upper}] of the {space.kind.value} space"
        )
    if (x & (_down_mask(space.m) << 1)) >> 1 & x:
        return InvalidReason.CONFLICT
    # Without conflicts, each set bit is one item.
    if x.bit_count() < 2:
        return InvalidReason.TOO_FEW_ITEMS
    return None


def to_pattern(x: int, space: SearchSpace) -> PatternOrInvalid:
    """Decode an in-bounds integer into a pattern, or report why it is
    unusable.

    Bit ``2m-1-2i`` marks (attribute i, up) and bit ``2m-2-2i``
    (attribute i, down).
    """
    reason = invalid_reason(x, space)
    if reason is not None:
        return InvalidCandidate(reason)
    top = 2 * space.m - 1
    items: list[GradualItem] = []
    while x:
        # Highest set bit first, so items come out in attribute order.
        pos = x.bit_length() - 1
        x ^= 1 << pos
        attr, is_down = divmod(top - pos, 2)
        items.append(GradualItem(attr, Direction.DOWN if is_down else Direction.UP))
    return GradualPattern(tuple(items))


def encode(pattern: GradualPattern, m: int) -> int:
    """Inverse of :func:`to_pattern` for a given attribute count."""
    last = pattern.attribute_indexes()[-1]
    if last >= m:
        raise ValueError(f"attribute index {last} out of range for m={m}")
    x = 0
    for item in pattern.items:
        offset = 2 * item.attribute_index + (item.direction is Direction.DOWN)
        x |= 1 << (2 * m - 1 - offset)
    return x


def is_valid(x: int, space: SearchSpace) -> bool:
    """True iff the in-bounds integer decodes to a gradual pattern."""
    return invalid_reason(x, space) is None


def enumerate_valid(space: SearchSpace) -> list[int]:
    """All in-bounds integers that decode to patterns, in ascending order."""
    m = space.m
    if m > MAX_ENUM_ATTRIBUTES:
        raise EnumerationLimitError(m, MAX_ENUM_ATTRIBUTES)
    # Attribute by attribute, most significant first, each prefix takes
    # the states absent, down, up: ascending within the attribute's two
    # bits, so the 3**m integers come out ascending without a sort.
    xs = [0]
    for i in range(m):
        down = 1 << (2 * (m - i) - 2)
        xs = [x | state for x in xs for state in (0, down, down << 1)]
    return [x for x in xs if x.bit_count() >= 2]
