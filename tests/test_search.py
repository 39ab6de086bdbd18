"""The miners behind run_miner: budgets, determinism, soundness."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradmine.fitness
from conftest import COURSE_NAMES, COURSE_ROWS, brute_frequent, fitness_of
from conftest import random_dataset, tied_tables
from gradmine import (
    ALGORITHMS,
    Dataset,
    EnumerationLimitError,
    SearchConfig,
    SearchSpace,
    SpaceKind,
    build_space,
    concordant_count_brute,
    encode,
    invalid_reason,
    object_pair_count,
    run_miner,
)
from gradmine.fitness import ConcordanceIndex
from gradmine.search import _clamp, _Recorder, _round_clamp, _rs, _wide_uniform

SEARCHERS = ("ga", "ls", "pso", "rs")


@pytest.fixture
def space():
    return build_space(3)


class TestBudgets:
    def test_rs(self, course_dataset, space):
        r = run_miner("rs", course_dataset, space, SearchConfig(max_iterations=20, seed=1))
        assert r.trajectory.evaluations == 20

    def test_ls(self, course_dataset, space):
        r = run_miner("ls", course_dataset, space, SearchConfig(max_iterations=20, seed=1))
        assert r.trajectory.evaluations == 21  # the start point counts

    def test_ga(self, course_dataset, space):
        c = SearchConfig(max_iterations=20, seed=1, npop=10)
        r = run_miner("ga", course_dataset, space, c)
        assert r.trajectory.evaluations == 10 + 4 * 20

    def test_pso(self, course_dataset, space):
        c = SearchConfig(max_iterations=20, seed=1, nparticles=5)
        r = run_miner("pso", course_dataset, space, c)
        assert r.trajectory.evaluations == 3 * 5 * 20


class TestDeterminism:
    @pytest.mark.parametrize("algo", SEARCHERS)
    def test_same_seed_same_trajectory(self, course_dataset, space, algo):
        c = SearchConfig(max_iterations=30, seed=9)
        a = run_miner(algo, course_dataset, space, c)
        b = run_miner(algo, course_dataset, space, c)
        assert a.trajectory == b.trajectory
        assert a.best_pattern == b.best_pattern
        assert a.frequent_patterns == b.frequent_patterns

    @pytest.mark.parametrize("algo", SEARCHERS)
    def test_different_seed_diverges(self, course_dataset, space, algo):
        c1 = SearchConfig(max_iterations=30, seed=1)
        c2 = SearchConfig(max_iterations=30, seed=2)
        a = run_miner(algo, course_dataset, space, c1)
        b = run_miner(algo, course_dataset, space, c2)
        assert a.trajectory != b.trajectory


class TestContracts:
    @pytest.mark.parametrize("algo", SEARCHERS)
    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_in_bounds_and_best_consistency(self, course_dataset, algo, kind):
        s = build_space(3, kind)
        c = SearchConfig(max_iterations=40, seed=5)
        r = run_miner(algo, course_dataset, s, c)
        finite = [st.fitness for st in r.trajectory.steps if st.valid]
        for st in r.trajectory.steps:
            assert s.lower <= st.candidate <= s.upper
            assert st.valid == math.isfinite(st.fitness)
        if finite:
            assert r.best_fitness == min(finite)
            assert r.best_support == pytest.approx(
                1.0 / (r.best_fitness * object_pair_count(course_dataset))
            )
        else:
            assert r.best_pattern is None and math.isinf(r.best_fitness)

    @pytest.mark.parametrize("algo", SEARCHERS)
    def test_frequent_patterns_sound(self, algo):
        rng = np.random.default_rng(13)
        d = random_dataset(rng, 7, 3, ties=True)
        s = build_space(3)
        c = SearchConfig(max_iterations=30, seed=2, sigma=0.3)
        r = run_miner(algo, d, s, c)
        seen = set()
        total = object_pair_count(d)
        for p, sup in r.frequent_patterns:
            assert sup >= 0.3
            assert p not in seen
            seen.add(p)
            assert abs(sup - concordant_count_brute(p, d) / total) <= 1e-12

    def test_wall_time_nonnegative(self, course_dataset, space):
        r = run_miner("rs", course_dataset, space, SearchConfig(max_iterations=5, seed=0))
        assert r.wall_time >= 0.0


class TestWideSpaces:
    # Past m = 31 the interval no longer fits numpy's int64 draws.
    @pytest.mark.parametrize("algo", SEARCHERS)
    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_forty_attributes(self, algo, kind):
        d = random_dataset(np.random.default_rng(40), 5, 40)
        s = build_space(40, kind)
        assert s.upper >= 2**63
        r = run_miner(algo, d, s, SearchConfig(max_iterations=30, seed=4))
        assert r.trajectory.evaluations > 0
        for st in r.trajectory.steps:
            assert type(st.candidate) is int and s.contains(st.candidate)

    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_moves_are_not_swallowed_by_float64(self, kind):
        # Positions of 80 bits: a float step of a few units used to round
        # back to the same candidate (2 distinct for ls, 10 for pso).
        d = random_dataset(np.random.default_rng(40), 5, 40)
        s = build_space(40, kind)
        c = SearchConfig(max_iterations=100, seed=4)
        distinct = {
            algo: len({st.candidate for st in run_miner(algo, d, s, c).trajectory.steps})
            for algo in ("ls", "pso")
        }
        assert distinct["ls"] >= 20 and distinct["pso"] >= 100

    @given(st.integers(0, 2**52 - 1), st.floats(-1e6, 1e6))
    def test_step_below_two_pow_52_rounds_as_float(self, x, u):
        s = build_space(26, SpaceKind.BITMAP)  # [0, 2**52 - 1]
        assert _round_clamp(x, u, s) == _clamp(int(round(x + u)), s)

    @given(st.integers(0, 2**80 - 1), st.floats(-1e6, 1e6))
    def test_step_lands_within_one_of_exact_sum(self, x, u):
        s = build_space(41, SpaceKind.BITMAP)  # [0, 2**82 - 1]
        exact = Fraction(x) + Fraction(u)
        assert abs(_round_clamp(x, u, s) - min(max(exact, 0), s.upper)) <= 1

    def test_wide_draw_is_uniform(self):
        # The big-int draw on a small interval: 3 random bits per try
        # give 0..7; 6 and 7 are rejected and the rest map to 5..10.
        rng = np.random.default_rng(0)
        space = SearchSpace(SpaceKind.BITMAP, 2, 5, 10)
        draws = [_wide_uniform(rng, space) for _ in range(6000)]
        counts = np.bincount(draws, minlength=11)[5:]
        assert set(draws) == set(range(5, 11))
        assert counts.min() > 850 and counts.max() < 1150


def _expected_best(algo: str, steps, nparticles: int):
    """(fitness, candidate) of the run best, re-derived from the steps:
    rs/ls/ga fold every usable step, pso folds each iteration's global
    best, which is the last triple's position when that position is usable
    and no worse than the global best it was compared with, else that
    global best.  Later ties win."""
    if algo == "pso":
        folded = []
        for end in range(3 * nparticles, len(steps) + 1, 3 * nparticles):
            x, _, g = steps[end - 3 : end]
            folded.append(x if x.valid and x.fitness <= g.fitness else g)
        steps = folded
    best = (math.inf, None)
    for step in steps:
        if step.valid and step.fitness <= best[0]:
            best = (step.fitness, step.candidate)
    return best


class TestRecorderOracle:
    """Every search result checked against ``fitness_of``, the decode-first
    objective, on small tied tables."""

    @settings(max_examples=150, deadline=None)
    @given(
        tied_tables(max_m=6),
        st.sampled_from(SEARCHERS),
        st.sampled_from(list(SpaceKind)),
        st.integers(0, 2**32 - 1),
        st.sampled_from((0.0, 0.2, 0.5, 1.0)) | st.floats(0.0, 1.0),
    )
    # No course pattern reaches support 1, so each run's best is below sigma.
    @example(Dataset(COURSE_NAMES, np.array(COURSE_ROWS)), "rs", SpaceKind.NUMERIC, 0, 1.0)
    @example(Dataset(COURSE_NAMES, np.array(COURSE_ROWS)), "ls", SpaceKind.BITMAP, 0, 1.0)
    @example(Dataset(COURSE_NAMES, np.array(COURSE_ROWS)), "ga", SpaceKind.NUMERIC, 0, 1.0)
    @example(Dataset(COURSE_NAMES, np.array(COURSE_ROWS)), "pso", SpaceKind.BITMAP, 0, 1.0)
    def test_result_matches_fitness_of(self, d, algo, kind, seed, sigma):
        s = build_space(d.m, kind)
        c = SearchConfig(max_iterations=12, seed=seed, sigma=sigma, npop=4, nparticles=3)
        r = run_miner(algo, d, s, c)
        evaluated = {}
        for step in r.trajectory.steps:
            e = evaluated.setdefault(step.candidate, fitness_of(step.candidate, s, d))
            assert (step.fitness, step.valid) == (e.fitness, e.usable)

        fitness, x = _expected_best(algo, r.trajectory.steps, c.nparticles)
        assert r.best_fitness == fitness
        if x is None:
            assert r.best_pattern is None and r.best_support == 0.0
        else:
            assert encode(r.best_pattern, d.m) == x
            assert r.best_support == evaluated[x].support

        frequent = sorted(
            (e for e in evaluated.values() if e.usable and e.support >= sigma),
            key=lambda e: (-e.support, e.candidate),
        )
        assert r.frequent_patterns == tuple((e.pattern, e.support) for e in frequent)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("sigma", (0.0, 1.0))
def test_counts_each_candidate_once(course_dataset, monkeypatch, algo, sigma):
    # Searchers count each distinct decodable candidate on its first
    # visit, the sweep counts through ``counts()``; after that only a
    # best below sigma is counted again, for its support.
    counted = []
    count_candidate = ConcordanceIndex.count_candidate

    def counting(self, x):
        counted.append(x)
        return count_candidate(self, x)

    monkeypatch.setattr(ConcordanceIndex, "count_candidate", counting)
    s = build_space(3)
    c = SearchConfig(max_iterations=12, seed=0, sigma=sigma, npop=4, nparticles=3)
    r = run_miner(algo, course_dataset, s, c)
    visited = [] if algo == "graank" else [step.candidate for step in r.trajectory.steps]
    expected = list(dict.fromkeys(x for x in visited if invalid_reason(x, s) is None))
    if sigma == 1.0:
        expected.append(encode(r.best_pattern, 3))
    assert counted == expected


class TestRandomSearch:
    def test_two_object_best_fitness_one(self, space):
        d = Dataset(("a", "b", "c"), np.array([[1.0, 2.0, 9.0], [2.0, 1.0, 5.0]]))
        r = run_miner("rs", d, space, SearchConfig(max_iterations=20, seed=0))
        assert r.best_fitness == 1.0

    def test_ties_go_to_newer_candidate(self, space):
        # Every usable candidate scores 1.0 on two objects, so the best
        # is the last usable candidate drawn.
        d = Dataset(("a", "b", "c"), np.array([[1.0, 2.0, 9.0], [2.0, 1.0, 5.0]]))
        r = run_miner("rs", d, space, SearchConfig(max_iterations=20, seed=0))
        last_valid = [st for st in r.trajectory.steps if st.valid][-1]
        assert encode(r.best_pattern, 3) == last_valid.candidate


class TestLocalSearch:
    def test_huge_step_still_terminates(self, course_dataset, space):
        c = SearchConfig(max_iterations=25, seed=3, step_size=100.0)
        r = run_miner("ls", course_dataset, space, c)
        assert r.trajectory.evaluations == 26

    def test_best_no_worse_than_start(self, course_dataset, space):
        c = SearchConfig(max_iterations=20, seed=4)
        r = run_miner("ls", course_dataset, space, c)
        start = r.trajectory.steps[0]
        if start.valid:
            assert r.best_fitness <= start.fitness

    def test_long_run_reaches_known_optimum(self):
        # Constructed so the pair {col0 up, col1 up} (and its complement)
        # is the unique fitness optimum at 4 concordant pairs.
        d = Dataset(
            ("col0", "col1", "col2"),
            np.array(
                [[23.0, 2.0, 5.0], [32.0, 4.0, 1.0], [40.0, 5.0, 9.0], [25.0, 5.0, 2.0]]
            ),
        )
        space = build_space(3)
        best = min(fitness_of(x, space, d).fitness for x in range(5, 43))
        assert best == 0.25
        c = SearchConfig(max_iterations=500, seed=0, step_size=5.0)
        assert run_miner("ls", d, space, c).best_fitness == 0.25


class TestGeneticAlgorithm:
    def test_no_crossover_copies_parents(self, course_dataset, space):
        c = SearchConfig(max_iterations=10, seed=6, npop=6, crossover_rate=0.0)
        r = run_miner("ga", course_dataset, space, c)
        init = r.trajectory.steps[: c.npop]
        by_fitness = sorted(init, key=lambda st: (st.fitness, st.candidate))
        parents = {by_fitness[0].candidate, by_fitness[1].candidate}
        first_children = {st.candidate for st in r.trajectory.steps[c.npop : c.npop + 2]}
        assert first_children == parents

    def test_four_calls_per_iteration(self, course_dataset, space):
        c = SearchConfig(max_iterations=15, seed=6, npop=4)
        r = run_miner("ga", course_dataset, space, c)
        for t in range(1, 16):
            assert sum(1 for st in r.trajectory.steps if st.iteration == t) == 4


class TestParticleSwarm:
    def test_zero_coefficients_freeze_particles(self, course_dataset, space):
        c = SearchConfig(
            max_iterations=6, seed=8, nparticles=3, coef_p=0.0, coef_g=0.0, inertia=0.0
        )
        r = run_miner("pso", course_dataset, space, c)
        # Position evaluations are every third step within an iteration.
        per_iter = {}
        for st in r.trajectory.steps:
            per_iter.setdefault(st.iteration, []).append(st.candidate)
        positions = {t: steps[0::3] for t, steps in per_iter.items()}
        for t in range(2, 7):
            assert positions[t] == positions[1]

    def test_single_particle_runs(self, course_dataset, space):
        c = SearchConfig(max_iterations=10, seed=8, nparticles=1)
        r = run_miner("pso", course_dataset, space, c)
        assert r.trajectory.evaluations == 30


class TestRunMiner:
    def test_dispatch_matches_direct_call(self, course_dataset, space):
        c = SearchConfig(max_iterations=12, seed=5)
        rec = _Recorder(course_dataset, space, c.sigma)
        best = _rs(rec, np.random.default_rng(c.seed), space, c)
        r = run_miner("rs", course_dataset, space, c)
        assert r.trajectory == rec.trajectory()
        assert (r.best_fitness, encode(r.best_pattern, 3)) == best

    def test_unknown_algorithm(self, course_dataset, space):
        with pytest.raises(ValueError):
            run_miner("xx", course_dataset, space, SearchConfig())

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_space_must_fit_the_table(self, course_dataset, algo):
        # Decoding in a space of another width names attributes the table
        # does not have, or misses some it has.
        for m in (2, 4):
            with pytest.raises(ValueError, match=f"space over {m} attributes"):
                run_miner(algo, course_dataset, build_space(m), SearchConfig())

    def test_graank_matches_baseline(self, course_dataset, space):
        c = SearchConfig(max_iterations=3, seed=0, sigma=0.5)
        r = run_miner("graank", course_dataset, space, c)
        assert r.trajectory.evaluations == 20  # ignores max_iterations
        tied = random_dataset(np.random.default_rng(5), 11, 4, ties=True)
        for d, sigma in ((course_dataset, 0.5), (tied, 0.0), (tied, 0.15), (tied, 0.3)):
            r = run_miner("graank", d, build_space(d.m), SearchConfig(sigma=sigma))
            got = {encode(p, d.m): s for p, s in r.frequent_patterns}
            assert got == brute_frequent(d, sigma)

    def test_graank_ignores_space_kind(self, course_dataset):
        # Every valid candidate lies in both spaces, so the sweep and the
        # decoded results are the same.
        tied = random_dataset(np.random.default_rng(8), 9, 5, ties=True)
        for d, sigma in ((course_dataset, 0.5), (tied, 0.0), (tied, 0.3), (tied, 1.0)):
            c = SearchConfig(sigma=sigma)
            a = run_miner("graank", d, build_space(d.m), c)
            b = run_miner("graank", d, build_space(d.m, SpaceKind.BITMAP), c)
            assert (a.best_pattern, a.best_support, a.best_fitness) == (
                b.best_pattern, b.best_support, b.best_fitness
            )
            assert a.frequent_patterns == b.frequent_patterns
            assert a.trajectory == b.trajectory

    def test_graank_guard_refuses_before_the_index(self, monkeypatch):
        # Fifteen columns are over the enumeration guard; the index would
        # be refused too, but the guard must speak first.
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 47)
        d = random_dataset(np.random.default_rng(15), 4, 15)
        with pytest.raises(EnumerationLimitError):
            run_miner("graank", d, build_space(15), SearchConfig())
        assert "index" not in d.__dict__


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"sigma": -0.1},
            {"sigma": 1.5},
            {"step_size": 0.0},
            {"npop": 1},
            {"crossover_rate": 1.2},
            {"mutation_rate": -0.2},
            {"mutation_scale": 0.0},
            {"nparticles": 0},
            {"max_velocity": 0.0},
            {"coef_p": -1.0},
            {"inertia": -0.5},
            {"max_velocity": math.inf},
            {"coef_g": math.nan},
            {"inertia": math.inf},
            {"seed": -1},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)
