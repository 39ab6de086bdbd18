"""Concordant pairs, support and fitness, checked against the literal
pair-scan oracle and the decode-first ``fitness_of``."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings

import gradmine.fitness
from conftest import fitness_of, pat, random_dataset, suffix_budget, tied_tables
from gradmine import (
    ConcordanceIndex,
    Dataset,
    DatasetError,
    GradualPattern,
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


class TestPackedIndex:
    @settings(max_examples=60, deadline=None)
    @given(tied_tables())
    @example(Dataset(("a", "b"), np.array([[1.0, 4.0], [2.0, 3.0]])))
    @example(Dataset(("a", "b", "c"), np.zeros((9, 3))))
    def test_count_matches_brute_and_complement(self, d):
        index = ConcordanceIndex(d)
        space = build_space(d.m)
        for x in enumerate_valid(space):
            p = to_pattern(x, space)
            pairs = index.count(p)
            assert pairs == concordant_count_brute(p, d)
            assert pairs == index.count_candidate(x)
            assert pairs == index.count(p.complement())

    @pytest.mark.parametrize("m", range(2, 8))
    def test_counts_walk_every_candidate_in_order(self, m, monkeypatch):
        # One budget per suffix table width k = 1 .. m, at row lengths on
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
            for k in range(1, m + 1):
                monkeypatch.setattr(gradmine.fitness, "SUFFIX_TABLE_BYTES", suffix_budget(d, k))
                assert list(d.index.counts()) == expected
        assert widths == list(range(1, m + 1)) * 6

    def test_counts_memory_stays_within_budget(self):
        # Two rows already exceed the budget, so the suffix table holds one
        # attribute.  The walk keeps that table, its AND buffer and one AND
        # per prefix depth, whatever the number of candidates.
        m = 4
        d = random_dataset(np.random.default_rng(1), 2050, m)
        row = d.index._rows[0].nbytes
        assert 2 * row > gradmine.fitness.SUFFIX_TABLE_BYTES
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            walked = sum(1 for _ in d.index.counts())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert walked == valid_candidate_count(m)
        assert peak <= gradmine.fitness.SUFFIX_TABLE_BYTES + (m + 1) * row

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 64, 65])
    def test_footprint_is_packed(self, n):
        # 2m rows of n lines of ceil(n/8) bytes, each row rounded up to
        # whole 64-bit words.
        d = random_dataset(np.random.default_rng(n), n, 3)
        rows = ConcordanceIndex(d)._rows
        assert 2 * 3 * n * ((n + 7) // 8) <= rows.nbytes
        assert rows.nbytes < 2 * 3 * (n * ((n + 7) // 8) + 8)

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


class TestProperties:
    def test_anti_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d = random_dataset(rng, 8, 5, ties=True)
            space = build_space(5)
            for x in enumerate_valid(space):
                p = to_pattern(x, space)
                if len(p) < 3:
                    continue
                whole = d.index.count(p)
                for drop in range(len(p)):
                    items = p.items[:drop] + p.items[drop + 1 :]
                    if len(items) < 2:
                        continue
                    assert d.index.count(GradualPattern(items)) >= whole

    def test_complement_invariance(self):
        rng = np.random.default_rng(11)
        space = build_space(3)
        for _ in range(10):
            d = random_dataset(rng, 6, 3, ties=True)
            for x in enumerate_valid(space):
                p = to_pattern(x, space)
                assert d.index.count(p) == d.index.count(p.complement())

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
        # 4 objects pack into 4 bytes per row, one 64-bit word; 6 rows.
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
