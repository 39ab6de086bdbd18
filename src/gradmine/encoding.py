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
direction bits (a conflict) or fewer than two items may be set.
:func:`invalid_reason` names the :class:`InvalidReason` of such a position
without raising, because searchers must be able to land on it and move on;
:func:`to_pattern` decodes valid positions only.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence


class Direction(enum.Enum):
    """Direction of variation of a gradual item."""

    UP = "+"
    DOWN = "-"


class SpaceKind(enum.Enum):
    NUMERIC = "numeric"
    BITMAP = "bitmap"


class InvalidReason(enum.Enum):
    """Why an integer position does not decode to a pattern."""

    CONFLICT = "conflict"
    TOO_FEW_ITEMS = "too_few_items"


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

    def render(self, names: Sequence[str]) -> str:
        """Text form used by the CLI and reports: ``{age+, sessions-}``."""
        return "{" + ", ".join(it.render(names) for it in self.items) + "}"


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


def build_space(m: int, kind: SpaceKind = SpaceKind.NUMERIC) -> SearchSpace:
    """Construct the numeric or bitmap search space for ``m`` attributes."""
    if m < 2:
        raise ValueError(f"need at least 2 attributes, got {m}")
    if kind is SpaceKind.NUMERIC:
        # The all-increasing candidate, 0b1010...10.
        return SearchSpace(kind, m, 5, _down_mask(m) << 1)
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
    fewer than two items.  The searchers' recorder inlines the same test
    on its hot path, once per candidate in ``record`` and once as an
    array expression over a whole draw in ``record_draw``, so the three
    must change together.
    """
    if not space.lower <= x <= space.upper:
        raise ValueError(
            f"{x} outside [{space.lower}, {space.upper}] of the {space.kind.value} space"
        )
    # An attribute's up bit sits just above its down bit.
    if x & (x >> 1) & _down_mask(space.m):
        return InvalidReason.CONFLICT
    # Without conflicts, each set bit is one item.
    if x.bit_count() < 2:
        return InvalidReason.TOO_FEW_ITEMS
    return None


def to_pattern(x: int, space: SearchSpace) -> GradualPattern:
    """Decode a valid in-bounds integer into a pattern; ``ValueError``
    outside the space or, naming its :class:`InvalidReason`, on an
    integer that decodes to no pattern.

    Bit ``2m-1-2i`` marks (attribute i, up) and bit ``2m-2-2i``
    (attribute i, down).
    """
    reason = invalid_reason(x, space)
    if reason is not None:
        raise ValueError(f"{x} does not decode to a pattern: {reason}")
    top = 2 * space.m - 1
    items: list[GradualItem] = []
    while x:
        # Highest set bit first, so items come out in attribute order.
        pos = x.bit_length() - 1
        x ^= 1 << pos
        items.append(_item(top - pos))
    # invalid_reason has bounded and checked x, and the bits come out high
    # to low, so the items are already ascending and valid: the
    # constructor's sort and checks would only repeat that.
    pattern = object.__new__(GradualPattern)
    object.__setattr__(pattern, "items", tuple(items))
    return pattern


@functools.cache
def _item(offset: int) -> GradualItem:
    # The item of bit ``2m-1-offset``: attribute ``offset // 2``, up when
    # the offset is even.  Items are frozen, so each is built once and
    # shared by every decode; the cache holds 2m of them for the widest
    # space decoded.
    attr, is_down = divmod(offset, 2)
    return GradualItem(attr, Direction.DOWN if is_down else Direction.UP)


def encode(pattern: GradualPattern, m: int) -> int:
    """Inverse of :func:`to_pattern` for a given attribute count."""
    last = pattern.items[-1].attribute_index
    if last >= m:
        raise ValueError(f"attribute index {last} out of range for m={m}")
    x = 0
    for item in pattern.items:
        offset = 2 * item.attribute_index + (item.direction is Direction.DOWN)
        x |= 1 << (2 * m - 1 - offset)
    return x


def enumerate_valid(space: SearchSpace) -> Iterator[int]:
    """All in-bounds integers that decode to patterns, in ascending order,
    yielded one at a time at any width: 3^m - 2m - 1 of them."""
    m = space.m
    # Attributes most significant first, each absent, down or up; product
    # varies the last fastest, so the 3**m sums come out ascending.
    states = [(0, 1 << k, 2 << k) for k in range(2 * m - 2, -1, -2)]
    return (x for x in map(sum, itertools.product(*states)) if x.bit_count() >= 2)
