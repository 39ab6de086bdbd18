"""Concordant pairs, support and fitness, checked against the literal
pair-scan oracle and the decode-first ``fitness_of``."""

import gc
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

import gradmine.fitness
from conftest import (
    comparison_rows,
    complement,
    fitness_of,
    knight_pairs,
    packed_rows,
    pat,
    random_dataset,
    row_bytes,
    tied_pairs,
    tied_tables,
)
from gradmine import (
    ConcordanceIndex,
    Dataset,
    DatasetError,
    InvalidReason,
    SearchConfig,
    build_space,
    concordant_count_brute,
    encode,
    enumerate_valid,
    run_miner,
    to_pattern,
    valid_candidate_count,
)


class TestWorkedExample:
    def test_age_sessions_up(self, course_dataset):
        p = pat("0+", "1+")
        assert course_dataset.index.count(p) == 4
        assert concordant_count_brute(p, course_dataset) == 4
        assert abs(fitness_of(40, build_space(3), course_dataset).support - 2 / 3) <= 1e-9

    def test_sessions_marks_up(self, course_dataset):
        assert course_dataset.index.count(pat("1+", "2+")) == 3
        assert fitness_of(10, build_space(3), course_dataset).support == pytest.approx(0.5)

    def test_three_item(self, course_dataset):
        assert course_dataset.index.count(pat("0+", "1+", "2+")) == 3
        assert fitness_of(42, build_space(3), course_dataset).support == pytest.approx(0.5)

    def test_fitness_of_best(self, course_dataset):
        e = fitness_of(40, build_space(3), course_dataset)
        assert e.concordant_pairs == 4
        assert e.fitness == 0.25


class TestSentinel:
    def test_conflict_candidate(self, course_dataset):
        e = fitness_of(15, build_space(3), course_dataset)
        assert e.pattern is InvalidReason.CONFLICT
        assert e.concordant_pairs == 0
        assert e.support == 0.0
        assert math.isinf(e.fitness)
        assert not e.usable

    def test_zero_count_candidate(self, course_dataset):
        # Candidate 26 has no concordant pair on this data; it gets the
        # same sentinel as a structurally invalid candidate.
        e = fitness_of(26, build_space(3), course_dataset)
        assert e.concordant_pairs == 0
        assert math.isinf(e.fitness)
        assert not e.usable


class TestTies:
    def test_tie_disqualifies_pair(self):
        # Objects 1 and 2 tie on attribute a, so only 2 of 3 pairs count.
        d = Dataset(("a", "b"), np.array([[1.0, 1.0], [2.0, 2.0], [2.0, 3.0]]))
        p = pat("0+", "1+")
        assert d.index.count(p) == 2
        assert concordant_count_brute(p, d) == 2

    def test_constant_column_kills_patterns_on_it(self):
        d = Dataset(("a", "b"), np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        assert d.index.count(pat("0+", "1+")) == 0
        assert d.index.count(pat("0+", "1-")) == 0


class TestOracleAgreement:
    def test_random_datasets(self):
        rng = np.random.default_rng(42)
        space_cache = {}
        for trial in range(30):
            n = int(rng.integers(3, 13))
            m = int(rng.integers(2, 6))
            d = random_dataset(rng, n, m, ties=bool(trial % 2))
            space = space_cache.setdefault(m, build_space(m))
            for x in enumerate_valid(space):
                p = to_pattern(x, space)
                assert d.index.count(p) == concordant_count_brute(p, d)

    def test_index_reuse_matches_one_shot(self, course_dataset):
        index = ConcordanceIndex(course_dataset)
        space = build_space(3)
        for x in enumerate_valid(space):
            p = to_pattern(x, space)
            assert index.count(p) == course_dataset.index.count(p)


#: ``fitness.INT_ROW_BYTES`` values that give every tier-1 table int rows
#: (the real cutoff) or numpy rows (a cutoff below any row).
ROW_FORMS = pytest.mark.parametrize(
    "int_row_bytes", [gradmine.fitness.INT_ROW_BYTES, 0], ids=["int", "numpy"]
)


def index_in_form(d: Dataset, int_row_bytes: int) -> ConcordanceIndex:
    """``ConcordanceIndex(d)`` built with the cutoff ``int_row_bytes``,
    checked to count on the row form that cutoff picks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradmine.fitness, "INT_ROW_BYTES", int_row_bytes)
        index = ConcordanceIndex(d)
    form = int if row_bytes(d.n) <= int_row_bytes else np.ndarray
    assert all(type(row) is form for row in index._row_list)
    return index


def plain_walk(index: ConcordanceIndex) -> tuple[list[int], list[int]]:
    """``index.count_all()``'s columns by the tail walk without the
    mirror: every root, down and up, is walked."""
    candidates: list[int] = []
    pairs: list[int] = []
    rows = index._row_list[::-1]

    def extend(x, holds, stop):
        for p in range(stop):
            y, h = x | 1 << p, holds & rows[p]
            candidates.append(y)
            pairs.append(index._popcount(h))
            if p > 1:
                extend(y, h, p & ~1)

    for p, row in enumerate(rows):
        extend(1 << p, row, p & ~1)
    return candidates, pairs


#: Ns at the build's edges: line and word padding (mod 8 and 64) and both
#: sides of the int-row cutoff (n = 219).
_EDGE_NS = (2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192, 193, 219, 220, 230)


@st.composite
def edge_tables(draw):
    """Tables of 2 to 230 objects whose columns are each one of: -0.0,
    0.0 and a few other levels; one value; all values distinct; a few
    levels."""
    n = draw(st.sampled_from(_EDGE_NS) | st.integers(2, 230), label="n")
    one_kind = st.sampled_from(("zeros", "equal", "distinct", "tied"))
    kinds = draw(st.lists(one_kind, min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    columns = {
        "zeros": lambda: rng.choice([-0.0, 0.0, 1.5, -2.0], size=n),
        "equal": lambda: np.full(n, 3.5),
        "distinct": lambda: rng.permutation(n) / 7.0 - 1.0,
        "tied": lambda: rng.integers(0, 5, size=n).astype(float),
    }
    values = np.column_stack([columns[kind]() for kind in kinds])
    return Dataset(tuple(f"col{i}" for i in range(len(kinds))), values)


class TestPackedIndex:
    @ROW_FORMS
    @settings(max_examples=60, deadline=None)
    @given(tied_tables())
    @example(Dataset(("a", "b"), np.array([[1.0, 4.0], [2.0, 3.0]])))
    @example(Dataset(("a", "b", "c"), np.zeros((9, 3))))
    def test_count_matches_brute_and_complement(self, int_row_bytes, d):
        index = index_in_form(d, int_row_bytes)
        space = build_space(d.m)
        for x in enumerate_valid(space):
            p = to_pattern(x, space)
            pairs = index.count(p)
            assert pairs == concordant_count_brute(p, d)
            assert pairs == index.count_candidate(x)
            assert pairs == index.count(complement(p))

    @ROW_FORMS
    @pytest.mark.parametrize("m", [24, 40])
    def test_count_candidate_at_benchmark_widths(self, m, int_row_bytes):
        # Bit p names row 2m - 1 - p; at m = 40 the candidates reach bit
        # 79, past a 64-bit word.  Half the candidates have 2 to 4 items,
        # so many counts are nonzero on 9 tied rows, and half 2 to m.
        rng = np.random.default_rng(m)
        d = random_dataset(rng, 9, m, ties=True)
        index = index_in_form(d, int_row_bytes)
        space = build_space(m)
        nonzero, widths = 0, set()
        for i in range(300):
            k = int(rng.integers(2, 5 if i % 2 else m + 1))
            attrs = rng.choice(m, size=k, replace=False).tolist()
            downs = rng.integers(0, 2, size=k).tolist()
            x = sum(1 << (2 * m - 1 - 2 * a - down) for a, down in zip(attrs, downs))
            pairs = index.count_candidate(x)
            assert pairs == concordant_count_brute(to_pattern(x, space), d)
            nonzero += pairs > 0
            widths.add(x.bit_length())
        assert nonzero >= 100
        assert max(widths) == 2 * m and min(widths) < 2 * m - 20

    @pytest.mark.parametrize("side", [0, 1], ids=["int", "numpy"])
    def test_count_candidate_beside_the_cutoff(self, side):
        # The largest table whose rows are ints under the real cutoff, and
        # the smallest whose rows are not; a sample of 2 to 6 items each.
        n = max(n for n in range(1, 1000) if row_bytes(n) <= gradmine.fitness.INT_ROW_BYTES)
        n += side
        rng = np.random.default_rng(n)
        d = random_dataset(rng, n, 6, ties=True)
        index = index_in_form(d, gradmine.fitness.INT_ROW_BYTES)
        assert (type(index._row_list[0]) is int) == (side == 0)
        space = build_space(6)
        valid = list(enumerate_valid(space))
        for i in rng.choice(len(valid), size=12, replace=False).tolist():
            x = valid[i]
            assert index.count_candidate(x) == concordant_count_brute(to_pattern(x, space), d)

    @pytest.mark.parametrize(
        "n_range, form", [((2, 219), int), ((220, 230), np.ndarray)], ids=["int", "numpy"]
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_count_all_walks_every_candidate_in_order(self, n_range, form, data):
        # Both row forms under the real cutoff: each valid candidate once,
        # ascending, with count_candidate's count.
        n = data.draw(st.integers(*n_range), label="n")
        m = data.draw(st.integers(2, 5), label="m")
        levels = data.draw(st.sampled_from((0, 1, 3, 1000)), label="levels")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        values = np.random.default_rng(seed).integers(0, levels + 1, (n, m)).astype(float)
        d = Dataset(tuple(f"col{i}" for i in range(m)), values)
        index = d.index
        assert all(type(row) is form for row in index._row_list)
        candidates, pairs = index.count_all()
        assert candidates == list(enumerate_valid(build_space(m)))
        assert pairs == [index.count_candidate(x) for x in candidates]

    @ROW_FORMS
    @settings(max_examples=40, deadline=None)
    @given(tied_tables(max_m=8))
    @example(Dataset(tuple("abcdefgh"), np.zeros((9, 8))))
    @example(random_dataset(np.random.default_rng(8), 19, 8, ties=True))
    def test_count_all_mirror_matches_the_plain_walk(self, int_row_bytes, d):
        # Each up-item root's block is mirrored from its down-item
        # partner's; the columns must equal a walk of every root, in
        # order, for m = 2..8, on tied tables and all-equal ones.
        index = index_in_form(d, int_row_bytes)
        assert index.count_all() == plain_walk(index)

    @ROW_FORMS
    @pytest.mark.parametrize("m", [6, 8, 10])
    def test_count_all_at_walk_depths_beyond_the_property_test(self, m, int_row_bytes):
        # The walk recurses up to m deep; past the property test's m = 5 it
        # must still list every valid candidate once, ascending, with
        # count_candidate's count, and find concordant pairs at depth 3+.
        d = random_dataset(np.random.default_rng(m), 9, m, ties=True)
        index = index_in_form(d, int_row_bytes)
        candidates, pairs = index.count_all()
        assert len(candidates) == valid_candidate_count(m)
        assert candidates == list(enumerate_valid(build_space(m)))
        assert pairs == [index.count_candidate(x) for x in candidates]
        assert any(p and x.bit_count() >= 3 for x, p in zip(candidates, pairs))

    def test_count_all_memory_stays_within_m_plus_one_rows(self):
        # Beyond its two output lists, the walk holds one AND per depth
        # and a popcount's scratch, whatever the number of candidates.
        m = 4
        d = random_dataset(np.random.default_rng(1), 2050, m)
        row = packed_rows(d.index, d.n)[0].nbytes
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            candidates, pairs = d.index.count_all()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(candidates) == valid_candidate_count(m)
        lists = sum(sys.getsizeof(col) + sum(map(sys.getsizeof, col)) for col in (candidates, pairs))
        assert peak <= lists + (m + 1) * row

    @pytest.mark.parametrize("n", [160, 230])
    def test_a_finished_sweep_leaves_no_cyclic_garbage(self, n):
        # Reference counting alone frees the walk's rows once it ends, on
        # int rows (n = 160) and on arrays (n = 230).
        d = random_dataset(np.random.default_rng(2), n, 8)
        s = build_space(d.m)
        run_miner("graank", d, s, SearchConfig())  # warm every lazy cache
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert len(d.index.count_all()[0]) == valid_candidate_count(d.m)
            assert gc.collect() == 0
            run_miner("graank", d, s, SearchConfig())
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize(
        "n, m, form", [(150, 24, int), (300, 4, np.ndarray)], ids=["int", "numpy"]
    )
    def test_index_holds_one_row_form(self, n, m, form):
        # Each row is held once, as an int or as a view of the index's
        # words, so the built index holds its 2m rows and little more
        # (an int copy beside the words would double that).
        d = random_dataset(np.random.default_rng(n), n, m)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            index = ConcordanceIndex(d)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert set(vars(index)) == {"m", "_row_list", "_popcount"}
        assert all(type(row) is form for row in index._row_list)
        assert 2 * m * row_bytes(n) <= held <= 1.2 * 2 * m * row_bytes(n)

    @pytest.mark.parametrize("n", [9, 65, 230])
    def test_rows_match_in_array_form(self, n):
        # The array rows are views of the index's own words, padding
        # included, as the int rows are written out.
        d = random_dataset(np.random.default_rng(n), n, 3, ties=True)
        index = index_in_form(d, 0)
        assert packed_rows(index, n).tobytes() == comparison_rows(d).tobytes()

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 64, 65])
    def test_footprint_is_packed(self, n):
        # 2m rows of n lines of ceil(n/8) bytes, each row rounded up to
        # whole 64-bit words.
        d = random_dataset(np.random.default_rng(n), n, 3)
        rows = packed_rows(ConcordanceIndex(d), n)
        assert 2 * 3 * n * ((n + 7) // 8) <= rows.nbytes
        assert rows.nbytes < 2 * 3 * (n * ((n + 7) // 8) + 8)

    @settings(max_examples=60, deadline=None)
    @given(tied_tables())
    @example(Dataset(("a", "b"), np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 0.0]])))
    @example(Dataset(("a", "b"), np.array([[-0.0, 1.0], [0.0, 2.0], [1.0, 3.0], [0.0, 0.0]])))
    def test_rows_match_the_comparison_build(self, d):
        # Byte for byte, padding included.  A constant column is one
        # level, and so are -0.0 and 0.0, which compare equal.
        assert packed_rows(ConcordanceIndex(d), d.n).tobytes() == comparison_rows(d).tobytes()

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n", [2, 7, 8, 9, 64, 65])
    def test_rows_match_at_line_and_word_padding(self, n, ties):
        d = random_dataset(np.random.default_rng(n), n, 3, ties=ties)
        assert packed_rows(ConcordanceIndex(d), d.n).tobytes() == comparison_rows(d).tobytes()

    @pytest.mark.parametrize("levels", [255, 256, 257])
    def test_rows_match_where_the_rank_dtype_changes(self, levels):
        # Levels are ranked in np.min_scalar_type of their count: uint8
        # for 255, uint16 for 256 and 257.
        rng = np.random.default_rng(levels)
        col = rng.permutation(np.arange(levels + 5) % levels).astype(float)
        d = Dataset(("a", "b"), np.column_stack([col, rng.random(levels + 5)]))
        assert len(np.unique(col)) == levels
        assert packed_rows(ConcordanceIndex(d), d.n).tobytes() == comparison_rows(d).tobytes()

    @pytest.mark.parametrize("levels", [None, 24])
    def test_build_memory_grows_with_levels(self, levels):
        # Per attribute of L levels the build holds L + 1 packed lines of
        # c = ceil(n / 8) bytes and gathers its rows straight into the
        # index.  Beside them live one column's copy (8 * n) and the
        # levels, the ranks, the bit positions and np.unique's int64
        # working arrays (under 96 * n).  No L x n comparison and no
        # row-sized temporary is made: all values distinct, L = n, the
        # build holds about n * c, not n * n.
        n, m = 2000, 3
        rng = np.random.default_rng(3)
        if levels is None:
            values, L = rng.random((n, m)), n
        else:
            values, L = rng.integers(0, levels, (n, m)).astype(float), levels
        d = Dataset(("a", "b", "c"), values)
        c = (n + 7) // 8
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            index = ConcordanceIndex(d)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        transient = peak - packed_rows(index, n).nbytes
        bound = (L + 1) * c + 8 * n + 96 * n
        assert transient <= bound
        if levels is not None:
            assert bound < n * n / 4

    @pytest.mark.parametrize("n, m", [(150, 2000), (230, 600)], ids=["int", "numpy"])
    def test_build_holds_no_copy_of_the_table(self, n, m):
        # Each build reads one attribute's column at a time, so its traced
        # peak stays within 0.5 MB of what the index holds: 12.3 MB at
        # 150 x 2000, 8.2 MB at 230 x 600.  A transposed copy of the whole
        # table (2.4 and 1.1 MB) would be held for the length of the build.
        rng = np.random.default_rng(m)
        values = rng.normal(size=(n, 1)) + rng.normal(size=(n, m))
        d = Dataset(tuple(f"c{i}" for i in range(m)), values)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            index = ConcordanceIndex(d)
            held, peak = (mem - base for mem in tracemalloc.get_traced_memory())
        finally:
            if not tracing:
                tracemalloc.stop()
        assert held >= packed_rows(index, n).nbytes
        assert peak - held <= 500_000

    @pytest.mark.parametrize("form", [int, np.ndarray], ids=["int", "numpy"])
    @settings(max_examples=40, deadline=None)
    @given(d=edge_tables())
    def test_rows_match_on_edge_tables(self, form, d):
        # Both builds, on either side of the real cutoff (n = 219), byte
        # for byte: -0.0 and 0.0 in one level, all-equal and all-distinct
        # columns, and line and word padding of every width.
        index = index_in_form(d, row_bytes(d.n) if form is int else 0)
        assert packed_rows(index, d.n).tobytes() == comparison_rows(d).tobytes()

    def test_dataset_builds_its_index_once(self, course_dataset, monkeypatch):
        builds = []
        init = ConcordanceIndex.__init__

        def counting_init(self, d):
            builds.append(d)
            init(self, d)

        monkeypatch.setattr(ConcordanceIndex, "__init__", counting_init)
        course_dataset.index.count(pat("0+", "1+"))
        fitness_of(40, build_space(3), course_dataset)
        run_miner("rs", course_dataset, build_space(3), SearchConfig())
        assert len(builds) == 1 and builds[0] is course_dataset
        assert course_dataset.index is course_dataset.index


#: Five seeded 8 x 5 tied tables the anti-monotonicity test always checks.
_SEEDED = np.random.default_rng(7)
_SEEDED_TABLES = [random_dataset(_SEEDED, 8, 5, ties=True) for _ in range(5)]


class TestProperties:
    @ROW_FORMS
    @settings(max_examples=80, deadline=None)
    @given(tied_tables(max_m=6))
    @example(_SEEDED_TABLES[0])
    @example(_SEEDED_TABLES[1])
    @example(_SEEDED_TABLES[2])
    @example(_SEEDED_TABLES[3])
    @example(_SEEDED_TABLES[4])
    def test_anti_monotonicity(self, int_row_bytes, d):
        # A pattern never has more concordant pairs than any pattern with
        # one item fewer.  Every count comes from one walk of the sweep,
        # on either row form.  Without a conflict each set bit of a
        # candidate is one item, so clearing a bit drops that item.
        counts = dict(zip(*index_in_form(d, int_row_bytes).count_all()))
        assert len(counts) == valid_candidate_count(d.m)
        for x, pairs in counts.items():
            if x.bit_count() >= 3:
                bits = [1 << b for b in range(x.bit_length()) if x >> b & 1]
                assert all(counts[x ^ bit] >= pairs for bit in bits)

    def test_complement_invariance(self):
        rng = np.random.default_rng(11)
        space = build_space(3)
        for _ in range(10):
            d = random_dataset(rng, 6, 3, ties=True)
            for x in enumerate_valid(space):
                p = to_pattern(x, space)
                assert d.index.count(p) == d.index.count(complement(p))

    def test_fitness_support_consistency(self, course_dataset):
        space = build_space(3)
        for x in enumerate_valid(space):
            e = fitness_of(x, space, course_dataset)
            if e.concordant_pairs:
                assert e.fitness == pytest.approx(1.0 / (e.support * 6))


# n at residues 63, 0, 1, 55 and 40 mod 64, the last without ties.
THOUSANDS = pytest.mark.parametrize(
    "n, levels", [(1087, 3), (2048, 2), (2113, 12), (2999, 40), (1000, None)]
)


def thousands_table(n: int, levels: int | None) -> Dataset:
    """A seeded n x 4 table of ``levels`` integer levels, or continuous."""
    rng = np.random.default_rng(n)
    values = rng.random((n, 4)) if levels is None else rng.integers(0, levels, (n, 4)) * 1.0
    return Dataset(tuple("abcd"), values)


class TestKnightOracle:
    """Knight's sort-and-merge count of 2-item candidates, a second oracle
    for the index that reaches n in the thousands, where the pair scan
    cannot."""

    @staticmethod
    def assert_two_item_counts(d, count):
        for a, b in itertools.combinations(range(d.m), 2):
            concordant, discordant = knight_pairs(d, a, b)
            for items, pairs in [
                ((f"{a}+", f"{b}+"), concordant), ((f"{a}-", f"{b}-"), concordant),
                ((f"{a}+", f"{b}-"), discordant), ((f"{a}-", f"{b}+"), discordant),
            ]:
                assert count(pat(*items)) == pairs, (a, b, items)

    @staticmethod
    def assert_scipy_tau_b_agrees(d):
        # tau_b = (C - D) / sqrt((P - T_a)(P - T_b)), P the object pairs
        # and T those tied on one attribute.  scipy derives it from exact
        # counts in a few float64 steps, each within 2**-53 relative, and
        # |C - D| <= P < 2**23 here: 1e-12 * P is thousands of ulps wide,
        # yet far below the 0.5 that would let C - D be off by one.
        total = d.n * (d.n - 1) // 2
        for a, b in itertools.combinations(range(d.m), 2):
            concordant, discordant = knight_pairs(d, a, b)
            tau_b = kendalltau(d.values[:, a], d.values[:, b], variant="b").statistic
            untied = (total - tied_pairs(d.values[:, a])) * (total - tied_pairs(d.values[:, b]))
            if untied == 0:  # a constant attribute: tau_b is undefined
                assert math.isnan(tau_b) and concordant == discordant == 0
            else:
                assert abs(tau_b * math.sqrt(untied) - (concordant - discordant)) <= 1e-12 * total

    @settings(max_examples=60, deadline=None)
    @given(tied_tables())
    @example(Dataset(("a", "b"), np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 0.0]])))
    def test_matches_the_pair_scan(self, d):
        self.assert_two_item_counts(d, lambda p: concordant_count_brute(p, d))

    @settings(max_examples=60, deadline=None)
    @given(tied_tables())
    @example(Dataset(("a", "b"), np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 0.0]])))
    def test_matches_scipy_tau_b(self, d):
        self.assert_scipy_tau_b_agrees(d)

    @THOUSANDS
    def test_matches_the_index_at_thousands_of_objects(self, n, levels):
        d = thousands_table(n, levels)
        self.assert_two_item_counts(d, lambda p: d.index.count_candidate(encode(p, d.m)))

    @THOUSANDS
    def test_matches_scipy_tau_b_at_thousands_of_objects(self, n, levels):
        self.assert_scipy_tau_b_agrees(thousands_table(n, levels))


class TestErrors:
    def test_attribute_out_of_range(self, course_dataset):
        p = pat("0+", "5+")
        message = "attribute index 5 out of range for m=3"
        with pytest.raises(ValueError, match=message):
            course_dataset.index.count(p)
        with pytest.raises(ValueError, match=message):
            concordant_count_brute(p, course_dataset)
        with pytest.raises(ValueError, match=message):
            ConcordanceIndex(course_dataset).count(p)

    def test_index_memory_limit(self, course_dataset, monkeypatch):
        # 4 objects pack into 4 bytes per row, one 64-bit word; 6 rows,
        # held as ints and counted once.
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 48)
        assert packed_rows(ConcordanceIndex(course_dataset), 4).nbytes == 48
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 47)
        with pytest.raises(DatasetError, match=r"n=4 .* m=3 .* 48-byte .* 47-byte"):
            ConcordanceIndex(course_dataset)
        # Held as arrays, the same rows count the same bytes.
        monkeypatch.setattr(gradmine.fitness, "INT_ROW_BYTES", 0)
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 48)
        assert packed_rows(ConcordanceIndex(course_dataset), 4).nbytes == 48
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 47)
        with pytest.raises(DatasetError, match=r"n=4 .* m=3 .* 48-byte .* 47-byte"):
            ConcordanceIndex(course_dataset)

    def test_fitness_of_out_of_bounds(self, course_dataset):
        with pytest.raises(ValueError):
            fitness_of(4, build_space(3), course_dataset)


class TestIsFrequent:
    """The miners' frequency test, support >= sigma, through run_miner."""

    @staticmethod
    def frequent(d, sigma):
        result = run_miner("graank", d, build_space(d.m), SearchConfig(sigma=sigma))
        return {encode(p, d.m): s for p, s in result.frequent_patterns}

    def test_thresholds(self, course_dataset):
        assert 40 in self.frequent(course_dataset, 0.5)
        assert self.frequent(course_dataset, 2 / 3)[40] == 2 / 3  # boundary is inclusive
        assert 40 not in self.frequent(course_dataset, 0.7)

    def test_boundary_half(self, course_dataset):
        e = fitness_of(10, build_space(3), course_dataset)
        assert e.support == pytest.approx(0.5)
        assert 10 in self.frequent(course_dataset, 0.5)

    def test_sigma_validation(self, course_dataset):
        for sigma in (-0.1, 1.1):
            with pytest.raises(ValueError, match="sigma must be in"):
                SearchConfig(sigma=sigma)
            with pytest.raises(ValueError, match="sigma must be in"):
                self.frequent(course_dataset, sigma)


def test_two_object_dataset():
    d = Dataset(("a", "b"), np.array([[1.0, 4.0], [2.0, 3.0]]))
    space = build_space(2)
    assert fitness_of(encode(pat("0+", "1-"), 2), space, d).support == 1.0
    assert fitness_of(encode(pat("0+", "1+"), 2), space, d).support == 0.0
