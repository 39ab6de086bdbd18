"""Candidate encoding: spaces, integer <-> pattern, validity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmine import (
    Direction,
    EnumerationLimitError,
    GradualItem,
    GradualPattern,
    InvalidCandidate,
    InvalidReason,
    SpaceKind,
    build_space,
    encode,
    enumerate_valid,
    is_valid,
    to_pattern,
)


def decode_bits(text: str):
    """Decode a bit string in the full bitmap space of its width."""
    return to_pattern(int(text, 2), build_space(len(text) // 2, SpaceKind.BITMAP))


def gp(*items: str) -> GradualPattern:
    """A pattern from "<attribute><direction>" strings such as "0+"."""
    dirs = {"+": Direction.UP, "-": Direction.DOWN}
    return GradualPattern(tuple(GradualItem(int(s[:-1]), dirs[s[-1]]) for s in items))


class TestSpaces:
    def test_numeric_bounds(self):
        assert (build_space(2).lower, build_space(2).upper) == (5, 10)
        assert (build_space(3).lower, build_space(3).upper) == (5, 42)
        assert (build_space(4).lower, build_space(4).upper) == (5, 170)

    def test_bitmap_bounds(self):
        s = build_space(3, SpaceKind.BITMAP)
        assert (s.lower, s.upper) == (0, 63)

    def test_rejects_single_attribute(self):
        with pytest.raises(ValueError):
            build_space(1)

    def test_size_and_contains(self):
        s = build_space(3)
        assert s.size == 38
        assert s.contains(5) and s.contains(42)
        assert not s.contains(4) and not s.contains(43)


class TestDecodeEncode:
    def test_known_values(self):
        s = build_space(3)
        assert to_pattern(40, s) == gp("0+", "1+")  # 101000
        assert to_pattern(5, s) == gp("1-", "2-")  # 000101
        assert to_pattern(63, build_space(3, SpaceKind.BITMAP)) == InvalidCandidate(
            InvalidReason.CONFLICT
        )  # 111111

    def test_encode_known_values(self):
        assert encode(gp("0+", "1+", "2+"), 3) == 42  # 101010
        assert encode(gp("1-", "2+"), 3) == 6  # 000110
        assert encode(gp("0-", "1-", "2-"), 3) == 21  # 010101
        assert encode(gp("0+", "1+"), 4) == 0b10100000

    def test_round_trip_whole_interval(self):
        for kind in SpaceKind:
            s = build_space(3, kind)
            for x in range(s.lower, s.upper + 1):
                p = to_pattern(x, s)
                if isinstance(p, GradualPattern):
                    assert encode(p, 3) == x

    def test_out_of_bounds(self):
        s = build_space(3)
        for x in (4, 43, -1):
            with pytest.raises(ValueError):
                to_pattern(x, s)


class TestToPattern:
    def test_two_item_pattern(self):
        p = decode_bits("100010")
        assert isinstance(p, GradualPattern)
        assert p.items == (
            GradualItem(0, Direction.UP),
            GradualItem(2, Direction.UP),
        )

    def test_conflict(self):
        p = decode_bits("001111")
        assert isinstance(p, InvalidCandidate)
        assert p.reason is InvalidReason.CONFLICT

    def test_single_item(self):
        p = decode_bits("000100")
        assert isinstance(p, InvalidCandidate)
        assert p.reason is InvalidReason.TOO_FEW_ITEMS

    def test_conflict_wins_over_too_few(self):
        # One conflicting attribute and nothing else: report the conflict.
        p = decode_bits("110000")
        assert isinstance(p, InvalidCandidate)
        assert p.reason is InvalidReason.CONFLICT

    def test_inverse_mapping(self):
        s = build_space(3)
        for x in enumerate_valid(s):
            p = to_pattern(x, s)
            assert isinstance(p, GradualPattern)
            assert encode(p, 3) == x

    def test_encode_range_check(self):
        p = GradualPattern((GradualItem(0, Direction.UP), GradualItem(4, Direction.UP)))
        with pytest.raises(ValueError, match="attribute index 4 out of range for m=3"):
            encode(p, 3)


class TestGradualPattern:
    def test_requires_two_items(self):
        with pytest.raises(ValueError):
            GradualPattern((GradualItem(0, Direction.UP),))

    def test_rejects_shared_attribute(self):
        with pytest.raises(ValueError):
            GradualPattern((GradualItem(1, Direction.UP), GradualItem(1, Direction.DOWN)))

    def test_items_sorted_by_attribute(self):
        p = GradualPattern((GradualItem(2, Direction.UP), GradualItem(0, Direction.DOWN)))
        assert [i.attribute_index for i in p.items] == [0, 2]

    def test_complement_flips_directions(self):
        p = GradualPattern((GradualItem(0, Direction.UP), GradualItem(1, Direction.DOWN)))
        assert p.complement().items == (
            GradualItem(0, Direction.DOWN),
            GradualItem(1, Direction.UP),
        )
        assert p.complement().complement() == p

    def test_render(self):
        p = GradualPattern((GradualItem(0, Direction.UP), GradualItem(1, Direction.DOWN)))
        assert p.render(["age", "sessions", "marks"]) == "{age+, sessions-}"


class TestValidity:
    def test_examples(self):
        s = build_space(3)
        assert is_valid(40, s)
        assert not is_valid(15, s)  # 001111 conflicts
        assert not is_valid(8, s)  # 001000 single item

    def test_enumerate_m3(self):
        s = build_space(3)
        got = enumerate_valid(s)
        assert len(got) == 20
        assert got == sorted(got)
        assert all(is_valid(x, s) for x in got)

    def test_enumerate_matches_brute_force(self):
        # The generator walks 3^m attribute states; the check here scans
        # every integer of the bitmap interval instead.
        for m in (2, 3, 4, 5, 6):
            bitmap = build_space(m, SpaceKind.BITMAP)
            brute = [x for x in range(bitmap.lower, bitmap.upper + 1) if is_valid(x, bitmap)]
            assert enumerate_valid(bitmap) == brute
            # the numeric interval contains the same valid set
            assert enumerate_valid(build_space(m)) == brute

    def test_count_law(self):
        for m in (2, 3, 4, 5):
            assert len(enumerate_valid(build_space(m))) == 3**m - 2 * m - 1

    def test_valid_integers_stay_in_numeric_bounds(self):
        for m in (2, 3, 4):
            s = build_space(m)
            xs = enumerate_valid(s)
            assert xs[0] == 5
            assert xs[-1] == s.upper  # the all-up vector

    def test_enumeration_guard(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_valid(build_space(17))

    def test_complement_symmetry(self):
        s = build_space(3)
        for x in enumerate_valid(s):
            p = to_pattern(x, s)
            comp = encode(p.complement(), 3)
            assert s.contains(comp) and is_valid(comp, s)


def field_oracle(x: int, m: int):
    """Decode straight from the 2-bit fields, independently of the masks:
    11 anywhere is a conflict, 10 is up, 01 is down, 00 is absent."""
    fields = [(x >> (2 * (m - 1 - i))) & 3 for i in range(m)]
    if 3 in fields:
        return InvalidCandidate(InvalidReason.CONFLICT)
    items = [
        GradualItem(i, Direction.UP if f == 2 else Direction.DOWN)
        for i, f in enumerate(fields)
        if f
    ]
    if len(items) < 2:
        return InvalidCandidate(InvalidReason.TOO_FEW_ITEMS)
    return GradualPattern(tuple(items))


@st.composite
def candidates(draw):
    """(x, space) for m in 2..64 and either space kind.  x is a uniform
    in-bounds integer (almost always invalid for large m) or is built from
    random fields, without 11 half of the time so valid patterns are common."""
    m = draw(st.integers(2, 64))
    space = build_space(m, draw(st.sampled_from(SpaceKind)))
    if draw(st.booleans()):
        return draw(st.integers(space.lower, space.upper)), space
    fields = draw(st.lists(st.integers(0, draw(st.sampled_from((2, 3)))), min_size=m, max_size=m))
    x = sum(f << (2 * (m - 1 - i)) for i, f in enumerate(fields))
    return min(max(x, space.lower), space.upper), space


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(candidates())
    def test_to_pattern_matches_field_oracle(self, case):
        x, space = case
        assert to_pattern(x, space) == field_oracle(x, space.m)

    @settings(max_examples=300, deadline=None)
    @given(candidates())
    def test_encode_inverts_to_pattern(self, case):
        x, space = case
        p = to_pattern(x, space)
        if isinstance(p, GradualPattern):
            assert encode(p, space.m) == x
            assert is_valid(x, space)
