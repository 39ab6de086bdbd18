"""Concordant pairs, support and fitness, checked against the literal
pair-scan oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings

import gradmine.fitness
from conftest import random_dataset, tied_tables
from gradmine import (
    ConcordanceIndex,
    Dataset,
    DatasetError,
    Direction,
    GradualItem,
    GradualPattern,
    InvalidCandidate,
    build_space,
    concordant_count,
    concordant_count_brute,
    enumerate_valid,
    fitness_of,
    is_frequent,
    support,
    to_pattern,
)


def pat(*items):
    return GradualPattern(tuple(GradualItem(i, d) for i, d in items))


UP, DOWN = Direction.UP, Direction.DOWN


class TestWorkedExample:
    def test_age_sessions_up(self, course_dataset):
        p = pat((0, UP), (1, UP))
        assert concordant_count(p, course_dataset) == 4
        assert concordant_count_brute(p, course_dataset) == 4
        assert abs(support(p, course_dataset) - 2 / 3) <= 1e-9

    def test_sessions_marks_up(self, course_dataset):
        p = pat((1, UP), (2, UP))
        assert concordant_count(p, course_dataset) == 3
        assert support(p, course_dataset) == pytest.approx(0.5)

    def test_three_item(self, course_dataset):
        p = pat((0, UP), (1, UP), (2, UP))
        assert concordant_count(p, course_dataset) == 3
        assert support(p, course_dataset) == pytest.approx(0.5)

    def test_fitness_of_best(self, course_dataset):
        e = fitness_of(40, build_space(3), course_dataset)
        assert e.concordant_pairs == 4
        assert e.fitness == 0.25


class TestSentinel:
    def test_conflict_candidate(self, course_dataset):
        e = fitness_of(15, build_space(3), course_dataset)
        assert isinstance(e.pattern, InvalidCandidate)
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
        p = pat((0, UP), (1, UP))
        assert concordant_count(p, d) == 2
        assert concordant_count_brute(p, d) == 2

    def test_constant_column_kills_patterns_on_it(self):
        d = Dataset(("a", "b"), np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        assert concordant_count(pat((0, UP), (1, UP)), d) == 0
        assert concordant_count(pat((0, UP), (1, DOWN)), d) == 0


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
                assert concordant_count(p, d) == concordant_count_brute(p, d)

    def test_index_reuse_matches_one_shot(self, course_dataset):
        index = ConcordanceIndex(course_dataset)
        space = build_space(3)
        for x in enumerate_valid(space):
            p = to_pattern(x, space)
            assert index.count(p) == concordant_count(p, course_dataset)


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
    def test_counts_walk_every_candidate_in_order(self, m):
        d = random_dataset(np.random.default_rng(m), 9, m, ties=True)
        index = ConcordanceIndex(d)
        space = build_space(m)
        walked = list(index.counts())
        assert [x for x, _ in walked] == enumerate_valid(space)
        for x, pairs in walked:
            assert pairs == index.count(to_pattern(x, space))

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
        p = pat((0, UP), (1, UP))
        concordant_count(p, course_dataset)
        support(p, course_dataset)
        fitness_of(40, build_space(3), course_dataset)
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
                whole = concordant_count(p, d)
                for drop in range(len(p)):
                    items = p.items[:drop] + p.items[drop + 1 :]
                    if len(items) < 2:
                        continue
                    assert concordant_count(GradualPattern(items), d) >= whole

    def test_complement_invariance(self):
        rng = np.random.default_rng(11)
        space = build_space(3)
        for _ in range(10):
            d = random_dataset(rng, 6, 3, ties=True)
            for x in enumerate_valid(space):
                p = to_pattern(x, space)
                assert concordant_count(p, d) == concordant_count(p.complement(), d)

    def test_fitness_support_consistency(self, course_dataset):
        space = build_space(3)
        for x in enumerate_valid(space):
            e = fitness_of(x, space, course_dataset)
            if e.concordant_pairs:
                assert e.fitness == pytest.approx(1.0 / (e.support * 6))


class TestErrors:
    def test_attribute_out_of_range(self, course_dataset):
        p = pat((0, UP), (5, UP))
        with pytest.raises(ValueError):
            concordant_count(p, course_dataset)
        with pytest.raises(ValueError):
            concordant_count_brute(p, course_dataset)
        with pytest.raises(ValueError):
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
    def test_thresholds(self, course_dataset):
        e = fitness_of(40, build_space(3), course_dataset)
        assert is_frequent(e, 0.5)
        assert is_frequent(e, 2 / 3)  # boundary is inclusive
        assert not is_frequent(e, 0.7)

    def test_boundary_half(self, course_dataset):
        e = fitness_of(10, build_space(3), course_dataset)
        assert e.support == pytest.approx(0.5)
        assert is_frequent(e, 0.5)

    def test_sigma_validation(self, course_dataset):
        e = fitness_of(40, build_space(3), course_dataset)
        for sigma in (-0.1, 1.1):
            with pytest.raises(ValueError):
                is_frequent(e, sigma)


def test_two_object_dataset():
    d = Dataset(("a", "b"), np.array([[1.0, 4.0], [2.0, 3.0]]))
    assert support(pat((0, UP), (1, DOWN)), d) == 1.0
    assert support(pat((0, UP), (1, UP)), d) == 0.0
