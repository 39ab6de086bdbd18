"""Candidate encoding: spaces, integer <-> pattern, validity."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complement, field_oracle, pat
from gradmine import (
    Direction,
    GradualItem,
    GradualPattern,
    InvalidReason,
    SpaceKind,
    build_space,
    encode,
    enumerate_valid,
    invalid_reason,
    to_pattern,
)


def decode_bits(text: str):
    """Decode a bit string in the full bitmap space of its width."""
    return to_pattern(int(text, 2), build_space(len(text) // 2, SpaceKind.BITMAP))


def reason_of_bits(text: str) -> InvalidReason:
    """Why a bit string is no pattern; ``to_pattern`` must refuse it, naming why."""
    reason = invalid_reason(int(text, 2), build_space(len(text) // 2, SpaceKind.BITMAP))
    with pytest.raises(ValueError, match=str(reason)):
        decode_bits(text)
    return reason


class TestSpaces:
    def test_numeric_bounds(self):
        assert (build_space(2).lower, build_space(2).upper) == (5, 10)
        assert (build_space(3).lower, build_space(3).upper) == (5, 42)
        assert (build_space(4).lower, build_space(4).upper) == (5, 170)

    def test_numeric_upper_is_the_sum_of_up_bits(self):
        for m in range(2, 201):
            assert build_space(m).upper == sum(2 ** (2 * i - 1) for i in range(1, m + 1))

    def test_bitmap_bounds(self):
        s = build_space(3, SpaceKind.BITMAP)
        assert (s.lower, s.upper) == (0, 63)

    def test_rejects_single_attribute(self):
        with pytest.raises(ValueError):
            build_space(1)

    def test_size_and_contains(self):
        s = build_space(3)
        assert s.size == 38
        assert all(s.lower <= x <= s.upper for x in (5, 42))
        assert not any(s.lower <= x <= s.upper for x in (4, 43))

    def test_cached_mask_leaves_equality_and_hash_alone(self):
        s = build_space(5)
        # A space is a named tuple with nowhere to cache a mask, so deciding
        # a position leaves it as it was built.
        assert invalid_reason(s.upper, s) is None
        assert s == build_space(5) and hash(s) == hash(build_space(5))
        assert repr(s) == repr(build_space(5))


class TestDecodeEncode:
    def test_known_values(self):
        s = build_space(3)
        assert to_pattern(40, s) == pat("0+", "1+")  # 101000
        assert to_pattern(5, s) == pat("1-", "2-")  # 000101
        assert reason_of_bits("111111") is InvalidReason.CONFLICT

    def test_encode_known_values(self):
        assert encode(pat("0+", "1+", "2+"), 3) == 42  # 101010
        assert encode(pat("1-", "2+"), 3) == 6  # 000110
        assert encode(pat("0-", "1-", "2-"), 3) == 21  # 010101
        assert encode(pat("0+", "1+"), 4) == 0b10100000

    def test_round_trip_whole_interval(self):
        for kind in SpaceKind:
            s = build_space(3, kind)
            for x in range(s.lower, s.upper + 1):
                if invalid_reason(x, s) is None:
                    assert encode(to_pattern(x, s), 3) == x

    def test_out_of_bounds(self):
        s = build_space(3)
        for x in (4, 43, -1):
            with pytest.raises(ValueError, match="outside"):
                to_pattern(x, s)
            with pytest.raises(ValueError, match="outside"):
                invalid_reason(x, s)


class TestToPattern:
    def test_two_item_pattern(self):
        p = decode_bits("100010")
        assert isinstance(p, GradualPattern)
        assert p.items == (
            GradualItem(0, Direction.UP),
            GradualItem(2, Direction.UP),
        )

    def test_conflict(self):
        assert reason_of_bits("001111") is InvalidReason.CONFLICT

    def test_single_item(self):
        assert reason_of_bits("000100") is InvalidReason.TOO_FEW_ITEMS

    def test_conflict_wins_over_too_few(self):
        # One conflicting attribute and nothing else: report the conflict.
        assert reason_of_bits("110000") is InvalidReason.CONFLICT

    def test_inverse_mapping(self):
        s = build_space(3)
        for x in enumerate_valid(s):
            p = to_pattern(x, s)
            assert isinstance(p, GradualPattern)
            assert encode(p, 3) == x

    def test_encode_range_check(self):
        with pytest.raises(ValueError, match="attribute index 4 out of range for m=3"):
            encode(pat("0+", "4+"), 3)


class TestGradualPattern:
    def test_requires_two_items(self):
        with pytest.raises(ValueError):
            GradualPattern((GradualItem(0, Direction.UP),))

    def test_rejects_shared_attribute(self):
        with pytest.raises(ValueError):
            GradualPattern((GradualItem(1, Direction.UP), GradualItem(1, Direction.DOWN)))

    def test_items_sorted_by_attribute(self):
        assert [i.attribute_index for i in pat("2+", "0-").items] == [0, 2]

    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_decode_matches_constructor(self, kind):
        # to_pattern skips the constructor's sort and checks; its pattern
        # must still be the one the constructor makes of the same items
        # in any order, and encode must map it back.
        rng = random.Random(7)
        cases = [(x, build_space(m, kind)) for m in range(2, 7) for x in enumerate_valid(build_space(m))]
        for m in (24, 40):
            s = build_space(m, kind)
            for _ in range(300):
                states = [0] * m
                while sum(map(bool, states)) < 2:
                    states = [rng.choice((0, 0, 1, 2)) for _ in range(m)]
                cases.append((sum(v << (2 * (m - 1 - i)) for i, v in enumerate(states)), s))
        for x, s in cases:
            p = to_pattern(x, s)
            items = list(p.items)
            rng.shuffle(items)
            built = GradualPattern(items)
            assert type(p) is GradualPattern and type(p.items) is tuple
            assert p == built and hash(p) == hash(built) and repr(p) == repr(built)
            assert encode(p, s.m) == x

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-2, 5), st.sampled_from(Direction)), max_size=5),
        st.sampled_from((tuple, list, iter)),
    )
    def test_matches_sort_then_check(self, fields, container):
        # The reference sorts every input, then checks it.
        items = [GradualItem(a, d) for a, d in fields]
        ordered = sorted(items, key=lambda it: it.attribute_index)
        indexes = [it.attribute_index for it in ordered]
        if len(ordered) < 2:
            error = "at least two items"
        elif len(set(indexes)) != len(indexes):
            error = "conflicting"
        elif indexes[0] < 0:
            error = "non-negative"
        else:
            assert GradualPattern(container(items)).items == tuple(ordered)
            return
        with pytest.raises(ValueError, match=error):
            GradualPattern(container(items))

    def test_complement_flips_directions(self):
        p = pat("0+", "1-")
        assert complement(p).items == (
            GradualItem(0, Direction.DOWN),
            GradualItem(1, Direction.UP),
        )
        assert complement(complement(p)) == p

    def test_render(self):
        assert pat("0+", "1-").render(["age", "sessions", "marks"]) == "{age+, sessions-}"


def traced_peak(fn):
    """``fn()`` and the most bytes it held at once beyond what was held
    before the call."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


class TestValidity:
    def test_examples(self):
        s = build_space(3)
        assert invalid_reason(40, s) is None
        assert invalid_reason(15, s) is InvalidReason.CONFLICT  # 001111
        assert invalid_reason(8, s) is InvalidReason.TOO_FEW_ITEMS  # 001000

    def test_enumerate_m3(self):
        s = build_space(3)
        got = list(enumerate_valid(s))
        assert len(got) == 20
        assert got == sorted(got)
        assert all(invalid_reason(x, s) is None for x in got)

    def test_enumerate_matches_brute_force(self):
        # The generator walks 3^m attribute states; the check here scans
        # every integer of the bitmap interval instead.
        for m in (2, 3, 4, 5, 6):
            bitmap = build_space(m, SpaceKind.BITMAP)
            brute = [x for x in range(4**m) if invalid_reason(x, bitmap) is None]
            assert list(enumerate_valid(bitmap)) == brute
            # the numeric interval contains the same valid set
            assert list(enumerate_valid(build_space(m))) == brute

    def test_count_law(self):
        for m in (2, 3, 4, 5):
            assert len(list(enumerate_valid(build_space(m)))) == 3**m - 2 * m - 1

    def test_valid_integers_stay_in_numeric_bounds(self):
        for m in (2, 3, 4):
            s = build_space(m)
            xs = list(enumerate_valid(s))
            assert xs[0] == 5
            assert xs[-1] == s.upper  # the all-up vector

    def test_enumeration_streams_from_the_first_candidate(self):
        # The first candidates come out before the 3^12 states are built.
        first, peak = traced_peak(lambda: list(itertools.islice(enumerate_valid(build_space(12)), 4)))
        assert first == [5, 6, 9, 10]
        assert peak < 64 * 1024

    def test_enumeration_drains_at_flat_memory(self):
        # Draining the stream holds one state at a time, not all 3^10.
        count, peak = traced_peak(lambda: sum(1 for _ in enumerate_valid(build_space(10))))
        assert count == 3**10 - 2 * 10 - 1 == 59_028
        assert peak < 64 * 1024

    @pytest.mark.parametrize("m", [15, 40])
    def test_enumeration_streams_beyond_the_sweep_guard(self, m):
        # Only the sweep has a width guard; the listing starts at once.
        s = build_space(m)
        xs = list(itertools.islice(enumerate_valid(s), 50))
        assert len(xs) == 50 and xs == sorted(set(xs))
        assert all(s.lower <= x <= s.upper and invalid_reason(x, s) is None for x in xs)

    def test_complement_symmetry(self):
        s = build_space(3)
        for x in enumerate_valid(s):
            p = to_pattern(x, s)
            comp = encode(complement(p), 3)
            assert s.lower <= comp <= s.upper and invalid_reason(comp, s) is None


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
        expected = field_oracle(x, space.m)
        if isinstance(expected, InvalidReason):
            assert invalid_reason(x, space) is expected
            with pytest.raises(ValueError, match=str(expected)):
                to_pattern(x, space)
        else:
            assert invalid_reason(x, space) is None
            assert to_pattern(x, space) == expected

    @settings(max_examples=300, deadline=None)
    @given(candidates())
    def test_encode_inverts_to_pattern(self, case):
        x, space = case
        if invalid_reason(x, space) is None:
            assert encode(to_pattern(x, space), space.m) == x
