"""Concordant pairs, support and fitness, checked against the literal
pair-scan oracle and the decode-first ``fitness_of``."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradmine.fitness
from conftest import (
    comparison_rows,
    complement,
    fitness_of,
    pat,
    random_dataset,
    suffix_budget,
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


def walked(index: ConcordanceIndex) -> list[tuple[int, int]]:
    """Every ``(candidate, pairs)`` of ``index.counts()``, its batches
    flattened in order."""
    return [(x, p) for xs, ps in index.counts() for x, p in zip(xs.tolist(), ps.tolist())]


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


def row_bytes(n: int) -> int:
    """Bytes of one index row of n objects: n lines of ceil(n / 8) bytes,
    rounded up to whole 64-bit words."""
    return 8 * -(-n * ((n + 7) // 8) // 8)


def index_in_form(d: Dataset, int_row_bytes: int) -> ConcordanceIndex:
    """``ConcordanceIndex(d)`` built with the cutoff ``int_row_bytes``,
    checked to count on the row form that cutoff picks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradmine.fitness, "INT_ROW_BYTES", int_row_bytes)
        index = ConcordanceIndex(d)
    form = int if row_bytes(d.n) <= int_row_bytes else np.ndarray
    assert all(type(row) is form for row in index._row_list)
    return index


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

    @pytest.mark.parametrize("m", range(2, 8))
    def test_counts_walk_every_candidate_in_order(self, m, monkeypatch):
        # One budget per suffix table width k = 0 .. m, at row lengths on
        # both sides of a byte and of a 64-bit word: the walk must not
        # depend on where the attributes are split.
        widths = []
        build = ConcordanceIndex._suffix_table
        monkeypatch.setattr(
            ConcordanceIndex, "_suffix_table", lambda index, k: widths.append(k) or build(index, k)
        )
        space = build_space(m)
        for n in (2, 7, 8, 9, 64, 65):
            d = random_dataset(np.random.default_rng(m), n, m, ties=True)
            expected = [(x, d.index.count(to_pattern(x, space))) for x in enumerate_valid(space)]
            for k in range(0, m + 1):
                monkeypatch.setattr(gradmine.fitness, "SUFFIX_TABLE_BYTES", suffix_budget(d, k))
                assert walked(d.index) == expected
        assert widths == list(range(0, m + 1)) * 6

    def test_counts_memory_stays_within_budget(self):
        # Two rows already exceed the budget, so the suffix table holds no
        # attribute, only the empty state's row.  The walk keeps that
        # table, its AND buffer and one AND per prefix depth, whatever the
        # number of candidates.
        m = 4
        d = random_dataset(np.random.default_rng(1), 2050, m)
        row = d.index._rows[0].nbytes
        assert row <= gradmine.fitness.SUFFIX_TABLE_BYTES < 2 * row
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            candidates = sum(len(xs) for xs, _ in d.index.counts())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert candidates == valid_candidate_count(m)
        assert peak <= gradmine.fitness.SUFFIX_TABLE_BYTES + (m + 1) * row

    def test_suffix_table_keeps_its_budget(self, monkeypatch):
        # The table never exceeds SUFFIX_TABLE_BYTES while one row fits,
        # here on the 2050 x 4 table above, whose two rows would not.
        d = random_dataset(np.random.default_rng(1), 2050, 4)
        assert d.index._rows[0].nbytes <= gradmine.fitness.SUFFIX_TABLE_BYTES
        sizes = []
        build = ConcordanceIndex._suffix_table

        def recorded(index, k):
            table, suffixes = build(index, k)
            sizes.append(table.nbytes)
            return table, suffixes

        monkeypatch.setattr(ConcordanceIndex, "_suffix_table", recorded)
        assert sum(len(xs) for xs, _ in d.index.counts()) == valid_candidate_count(4)
        assert len(sizes) == 1 and sizes[0] <= gradmine.fitness.SUFFIX_TABLE_BYTES

    def test_a_finished_sweep_leaves_no_cyclic_garbage(self):
        # Reference counting alone frees the suffix table, its AND buffer
        # and the walk's arrays once the walk ends.  At n = 160, m = 8 the
        # table holds five attributes, so the walk recurses over three.
        d = random_dataset(np.random.default_rng(2), 160, 8)
        s = build_space(d.m)
        run_miner("graank", d, s, SearchConfig())  # warm every lazy cache
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert sum(len(xs) for xs, _ in d.index.counts()) == valid_candidate_count(d.m)
            assert gc.collect() == 0
            run_miner("graank", d, s, SearchConfig())
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 64, 65])
    def test_footprint_is_packed(self, n):
        # 2m rows of n lines of ceil(n/8) bytes, each row rounded up to
        # whole 64-bit words.
        d = random_dataset(np.random.default_rng(n), n, 3)
        rows = ConcordanceIndex(d)._rows
        assert 2 * 3 * n * ((n + 7) // 8) <= rows.nbytes
        assert rows.nbytes < 2 * 3 * (n * ((n + 7) // 8) + 8)

    @settings(max_examples=60, deadline=None)
    @given(tied_tables())
    @example(Dataset(("a", "b"), np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 0.0]])))
    @example(Dataset(("a", "b"), np.array([[-0.0, 1.0], [0.0, 2.0], [1.0, 3.0], [0.0, 0.0]])))
    def test_rows_match_the_comparison_build(self, d):
        # Byte for byte, padding included.  A constant column is one
        # level, and so are -0.0 and 0.0, which compare equal.
        assert ConcordanceIndex(d)._rows.tobytes() == comparison_rows(d).tobytes()

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n", [2, 7, 8, 9, 64, 65])
    def test_rows_match_at_line_and_word_padding(self, n, ties):
        d = random_dataset(np.random.default_rng(n), n, 3, ties=ties)
        assert ConcordanceIndex(d)._rows.tobytes() == comparison_rows(d).tobytes()

    @pytest.mark.parametrize("levels", [255, 256, 257])
    def test_rows_match_where_the_rank_dtype_changes(self, levels):
        # Levels are ranked in np.min_scalar_type of their count: uint8
        # for 255, uint16 for 256 and 257.
        rng = np.random.default_rng(levels)
        col = rng.permutation(np.arange(levels + 5) % levels).astype(float)
        d = Dataset(("a", "b"), np.column_stack([col, rng.random(levels + 5)]))
        assert len(np.unique(col)) == levels
        assert ConcordanceIndex(d)._rows.tobytes() == comparison_rows(d).tobytes()

    @pytest.mark.parametrize("levels", [None, 24])
    def test_build_memory_grows_with_levels(self, levels):
        # Per attribute of L levels the build holds L + 1 packed lines of
        # c = ceil(n / 8) bytes and gathers its rows straight into the
        # index.  Beside them live the transposed table (8 * m * n) and the
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
            transient = tracemalloc.get_traced_memory()[1] - base - index._rows.nbytes
        finally:
            if not tracing:
                tracemalloc.stop()
        bound = (L + 1) * c + 8 * m * n + 96 * n
        assert transient <= bound
        if levels is not None:
            assert bound < n * n / 4

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
    @settings(max_examples=80, deadline=None)
    @given(tied_tables(max_m=6), st.integers(1, 6))
    @example(_SEEDED_TABLES[0], 2)
    @example(_SEEDED_TABLES[1], 3)
    @example(_SEEDED_TABLES[2], 1)
    @example(_SEEDED_TABLES[3], 4)
    @example(_SEEDED_TABLES[4], 5)
    def test_anti_monotonicity(self, d, k):
        # A pattern never has more concordant pairs than any pattern with
        # one item fewer.  Every count comes from one walk of the sweep,
        # its suffix table forced to the last k attributes.  Without a
        # conflict each set bit of a candidate is one item, so clearing a
        # bit drops that item.
        k = min(k, d.m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gradmine.fitness, "SUFFIX_TABLE_BYTES", suffix_budget(d, k))
            counts = dict(walked(d.index))
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
        # and their int copy is counted as 48 bytes more.
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 96)
        assert ConcordanceIndex(course_dataset)._rows.nbytes == 48
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 95)
        with pytest.raises(DatasetError, match=r"n=4 .* m=3 .* 96-byte .* 95-byte"):
            ConcordanceIndex(course_dataset)
        # Without the int copy the rows alone are counted.
        monkeypatch.setattr(gradmine.fitness, "INT_ROW_BYTES", 0)
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 48)
        assert ConcordanceIndex(course_dataset)._rows.nbytes == 48
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
