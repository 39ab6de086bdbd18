"""The exhaustive miner as completeness reference."""

import numpy as np
import pytest

from conftest import brute_frequent, random_dataset
from gradmine import (
    Dataset,
    EnumerationLimitError,
    SearchConfig,
    build_space,
    encode,
    enumerate_valid,
    graank_mine,
    run_miner,
    valid_candidate_count,
)


def test_course_halfsupport(course_dataset):
    got = graank_mine(course_dataset, 0.5)
    as_ints = {encode(p, 3): s for p, s in got}
    assert as_ints[40] == pytest.approx(2 / 3)
    assert as_ints[20] == pytest.approx(2 / 3)  # the complement rule
    assert len(got) == 8
    assert as_ints == pytest.approx(brute_frequent(course_dataset, 0.5))


def test_course_full_support_empty(course_dataset):
    assert brute_frequent(course_dataset, 1.0) == {}
    assert graank_mine(course_dataset, 1.0) == ()


def test_sigma_zero_excludes_zero_count(course_dataset):
    got = graank_mine(course_dataset, 0.0)
    expected = brute_frequent(course_dataset, 0.0)
    assert len(got) == len(expected) < 20  # candidate 26 and friends missing
    for p, s in got:
        assert s > 0.0


def test_sorted_by_support_then_candidate(course_dataset):
    got = graank_mine(course_dataset, 0.0)
    keys = [(-s, encode(p, 3)) for p, s in got]
    assert keys == sorted(keys)


def test_complement_pairs_share_support(course_dataset):
    got = dict(graank_mine(course_dataset, 0.0))
    for p, s in got.items():
        assert got[p.complement()] == s


def test_random_datasets_match_brute(course_dataset):
    rng = np.random.default_rng(21)
    for trial in range(10):
        d = random_dataset(rng, 6, 3, ties=True)
        sigma = (0.0, 0.3, 0.6)[trial % 3]
        got = {encode(p, 3): s for p, s in graank_mine(d, sigma)}
        assert got == pytest.approx(brute_frequent(d, sigma))


def test_sigma_validation(course_dataset):
    for sigma in (-0.01, 1.01):
        with pytest.raises(ValueError):
            graank_mine(course_dataset, sigma)


def test_wide_dataset_hits_guard():
    rng = np.random.default_rng(3)
    d = Dataset(tuple(f"c{i}" for i in range(17)), rng.random((3, 17)))
    with pytest.raises(EnumerationLimitError):
        graank_mine(d, 0.5)


def test_evaluated_candidate_count(course_dataset):
    assert valid_candidate_count(course_dataset.m) == 20
    rng = np.random.default_rng(4)
    d4 = Dataset(tuple("abcd"), rng.random((4, 4)))
    assert valid_candidate_count(d4.m) == len(enumerate_valid(build_space(4)))
    sweep = run_miner("graank", d4, build_space(4), SearchConfig())
    assert sweep.trajectory.evaluations == valid_candidate_count(4)
