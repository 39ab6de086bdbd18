"""The exhaustive miner as completeness reference."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradmine.encoding
import gradmine.fitness
import gradmine.search
from conftest import COURSE_NAMES, COURSE_ROWS, brute_frequent, complement, fitness_of
from conftest import random_dataset, suffix_budget, tied_tables
from gradmine import (
    Dataset,
    EnumerationLimitError,
    SearchConfig,
    TrajectoryStep,
    build_space,
    encode,
    enumerate_valid,
    graank_mine,
    run_miner,
    valid_candidate_count,
)


def reference_sweep(d, sigma):
    """The sweep one candidate at a time: ``fitness_of`` over
    ``enumerate_valid``, keeping the last of equally fit candidates."""
    space = build_space(d.m)
    steps, best, frequent = [], None, []
    for t, x in enumerate(enumerate_valid(space), start=1):
        e = fitness_of(x, space, d)
        steps.append(TrajectoryStep(t, x, e.fitness, e.usable))
        if e.usable and (best is None or e.fitness <= best.fitness):
            best = e
        if e.usable and e.support >= sigma:
            frequent.append(e)
    frequent.sort(key=lambda e: (-e.support, e.candidate))
    return tuple(steps), best, tuple((e.pattern, e.support) for e in frequent)


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
        assert got[complement(p)] == s


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
    assert valid_candidate_count(d4.m) == len(list(enumerate_valid(build_space(4))))
    sweep = run_miner("graank", d4, build_space(4), SearchConfig())
    assert sweep.trajectory.evaluations == valid_candidate_count(4)


def assert_sweep_matches(d, sigma, k):
    """The sweep with a suffix table of ``min(k, ceil(m / 2))``
    attributes against ``reference_sweep``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradmine.fitness, "SUFFIX_TABLE_BYTES", suffix_budget(d, k))
        r = run_miner("graank", d, build_space(d.m), SearchConfig(sigma=sigma))
    steps, best, frequent = reference_sweep(d, sigma)
    assert r.trajectory.steps == steps
    assert r.frequent_patterns == frequent
    if best is None:
        assert (r.best_pattern, r.best_support, r.best_fitness) == (None, 0.0, float("inf"))
    else:
        assert (r.best_pattern, r.best_support, r.best_fitness) == (
            best.pattern,
            best.support,
            best.fitness,
        )


@settings(max_examples=60, deadline=None)
@given(tied_tables(max_m=6), st.floats(0.0, 1.0), st.integers(1, 6))
@example(Dataset(COURSE_NAMES, np.array(COURSE_ROWS)), 0.5, 1)
@example(Dataset(COURSE_NAMES, np.array(COURSE_ROWS)), 1.0, 3)  # best below sigma
@example(Dataset(("a", "b", "c"), np.zeros((5, 3))), 0.0, 2)
def test_sweep_matches_one_candidate_at_a_time(d, sigma, k):
    assert_sweep_matches(d, sigma, min(k, d.m))


@pytest.mark.parametrize("n", [2, 7, 8, 9, 64, 65])
def test_sweep_matches_at_every_split(n):
    d = random_dataset(np.random.default_rng(n), n, 5, ties=True)
    for k in range(1, 6):
        assert_sweep_matches(d, 0.1, k)


def test_sweep_decodes_only_what_it_returns(monkeypatch):
    calls = []
    decode = gradmine.encoding.to_pattern

    def counting_to_pattern(x, space):
        calls.append(x)
        return decode(x, space)

    # The miners look the decoder up in one module.
    monkeypatch.setattr(gradmine.search, "to_pattern", counting_to_pattern)
    d = random_dataset(np.random.default_rng(8), 12, 5, ties=True)
    r = run_miner("graank", d, build_space(5), SearchConfig(sigma=0.3))
    assert 0 < len(r.frequent_patterns) < valid_candidate_count(5)
    assert len(calls) <= len(r.frequent_patterns) + 1
