"""The miners behind run_miner: budgets, determinism, soundness."""

import heapq
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradmine.fitness
import gradmine.search
from conftest import COURSE_NAMES, COURSE_ROWS, brute_frequent, fitness_of
from conftest import field_oracle, random_dataset, tied_tables
from gradmine import (
    ALGORITHMS,
    Dataset,
    EnumerationLimitError,
    InvalidReason,
    SearchConfig,
    SearchSpace,
    SpaceKind,
    Trajectory,
    build_space,
    concordant_count_brute,
    encode,
    graank_mine,
    invalid_reason,
    object_pair_count,
    run_miner,
)
from gradmine.fitness import ConcordanceIndex
from gradmine.search import (
    _BINARY_DIGITS,
    _NO_BEST,
    _SEARCHERS,
    _clamp,
    _draw,
    _exact_velocity,
    _ga_moves,
    _last_best,
    _Recorder,
    _round_clamp,
    _rs,
    _wide_uniform,
)

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
            assert type(st.candidate) is int and s.lower <= st.candidate <= s.upper

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

    @pytest.mark.parametrize("algo", ["ga", "pso"])
    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_past_the_float_range(self, algo, kind):
        # From m = 513, a pso pull (pbest or gbest minus a position) may
        # exceed float64; the velocity is then summed exactly.
        d = random_dataset(np.random.default_rng(520), 4, 520)
        s = build_space(520, kind)
        r = run_miner(algo, d, s, SearchConfig())
        assert r.trajectory.evaluations == (3 * 5 * 20 if algo == "pso" else 10 + 4 * 20)
        visited = {st.candidate for st in r.trajectory.steps}
        assert all(s.lower <= x <= s.upper for x in visited) and len(visited) > 10

    @given(
        st.floats(0.0, 1e6), st.floats(-10.0, 10.0), st.floats(0.0, 1.0), st.integers(-99, 99),
        st.floats(0.0, 1.0), st.integers(-99, 99),
    )
    def test_exact_velocity_matches_the_float_one(self, w, v0, rp, dp, rg, dg):
        c = SearchConfig(inertia=w, max_velocity=4.0)
        v = w * v0 + c.coef_p * rp * dp + c.coef_g * rg * dg
        assert _exact_velocity(c, v0, rp, dp, rg, dg) == pytest.approx(
            min(max(v, -4.0), 4.0), rel=1e-9, abs=1e-9
        )

    def test_wide_draw_is_uniform(self):
        # The big-int draw on a small interval: 3 random bits per try
        # give 0..7; 6 and 7 are rejected and redrawn, and the rest map
        # to 5..10.
        rng = np.random.default_rng(0)
        space = SearchSpace(SpaceKind.BITMAP, 2, 5, 10)
        draws = _wide_uniform(rng, space, 6000)
        counts = np.bincount(draws, minlength=11)[5:]
        assert set(draws) == set(range(5, 11))
        assert counts.min() > 850 and counts.max() < 1150

    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_draw_dtype_at_the_int64_boundary(self, kind):
        # Past m = 31 a draw is an object array of Python ints: as uint64
        # its shifts fail, and as float64 it loses bits.
        assert _draw(np.random.default_rng(0), build_space(31, kind), 3).dtype == np.int64
        s = build_space(32, kind)
        wide = _draw(np.random.default_rng(0), s, 50)
        assert wide.dtype == object and all(type(x) is int for x in wide)
        assert wide.tolist() == _wide_uniform(np.random.default_rng(0), s, 50)


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
    # visit, the sweep counts through ``count_all()``; nothing is counted
    # again, not even a best below sigma, whose support comes from the
    # count the miner kept.
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
    assert counted == expected


def _keep_best(best, pairs, x):
    """The reference best rule, one call at a time: a later candidate with
    as many pairs replaces the incumbent; one with none never does."""
    return (pairs, x) if pairs and pairs >= best[0] else best


def _pso_global_bests(trajectory, nparticles):
    """(pairs, candidate) of each pso iteration's global best once its
    swarm sweep ends: the last particle's position when it is usable and
    has at least as many pairs as the global best it was compared with,
    else that global best."""
    xs, ps = trajectory.candidates, trajectory.pairs
    for end in range(3 * nparticles, len(xs) + 1, 3 * nparticles):
        px, pg = ps[end - 3], ps[end - 1]
        yield (px, xs[end - 3]) if px and px >= pg else (pg, xs[end - 1])


class TestBestRule:
    """run_miner reads the best of rs, ls, ga and the sweep off the
    trajectory's columns, and pso returns its final global best.  Each
    must be the best that folding ``_keep_best`` keeps: over every call,
    and for pso over each iteration's global best.  rs, ls and ga return
    None; pso returns that fold, or None when no call is usable."""

    @settings(max_examples=150, deadline=None)
    @given(
        tied_tables(max_m=6),
        st.sampled_from(("rs", "ls", "ga", "pso", "graank")),
        st.sampled_from(list(SpaceKind)),
        st.integers(0, 2**32 - 1),
    )
    # An all-tie table has no usable call: no best, infinite fitness.
    @example(Dataset(("a", "b", "c"), np.zeros((5, 3))), "rs", SpaceKind.NUMERIC, 0)
    @example(Dataset(("a", "b", "c"), np.zeros((5, 3))), "ls", SpaceKind.BITMAP, 0)
    @example(Dataset(("a", "b", "c"), np.zeros((5, 3))), "ga", SpaceKind.NUMERIC, 0)
    @example(Dataset(("a", "b", "c"), np.zeros((5, 3))), "pso", SpaceKind.NUMERIC, 0)
    @example(Dataset(("a", "b", "c"), np.zeros((5, 3))), "pso", SpaceKind.BITMAP, 0)
    @example(Dataset(("a", "b", "c"), np.zeros((5, 3))), "graank", SpaceKind.BITMAP, 0)
    # pso's global best is not the column's last maximum here: a
    # personal-best re-check logs another candidate with as many pairs.
    @example(
        Dataset(("a", "b", "c"), np.array([[1.0, 2, 1], [3, 0, 3], [2, 1, 2]])),
        "pso", SpaceKind.NUMERIC, 0,
    )
    @example(
        Dataset(("a", "b", "c"), np.array([[3.0, 3, 1], [1, 0, 2], [2, 3, 3]])),
        "pso", SpaceKind.BITMAP, 0,
    )
    def test_best_is_the_folded_best(self, d, algo, kind, seed):
        s = build_space(d.m, kind)
        c = SearchConfig(max_iterations=12, seed=seed, npop=4, nparticles=3)
        r = run_miner(algo, d, s, c)
        if algo == "pso":
            calls = _pso_global_bests(r.trajectory, c.nparticles)
        else:
            calls = zip(r.trajectory.pairs, r.trajectory.candidates)
        folded = _NO_BEST
        for pairs, x in calls:
            folded = _keep_best(folded, pairs, x)
        pairs, x = folded
        assert r.best_fitness == (1.0 / pairs if pairs else math.inf)
        assert (None if r.best_pattern is None else encode(r.best_pattern, d.m)) == x
        if x is None:
            assert r.best_support == 0.0
        if algo != "graank":
            returned = _SEARCHERS[algo](_Recorder(d, s), np.random.default_rng(seed), s, c)
            assert returned == (folded if algo == "pso" and x is not None else None)


def _oracle_reason(x, m):
    # field_oracle's InvalidReason, or None for a pattern.
    decoded = field_oracle(x, m)
    return decoded if isinstance(decoded, InvalidReason) else None


class TestRecorderValidity:
    """The recorder's inlined validity test against ``field_oracle``,
    which reads the 2-bit fields without the masks that the recorder and
    ``invalid_reason`` share.  Its index counts one pair for every
    candidate it is asked about, so a 0 from the recorder can only come
    from the validity test."""

    @staticmethod
    def _recorder(s):
        counted = []
        index = SimpleNamespace(count_candidate=lambda x: counted.append(x) or 1)
        return _Recorder(SimpleNamespace(index=index), s), counted

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_exhaustive(self, m, kind):
        s = build_space(m, kind)
        rec, counted = self._recorder(s)
        valid = [_oracle_reason(x, m) is None for x in range(s.lower, s.upper + 1)]
        for x, ok in zip(range(s.lower, s.upper + 1), valid):
            assert (rec.record(0, x) != 0) == ok, x
        assert counted == [x for x, ok in zip(range(s.lower, s.upper + 1), valid) if ok]

    @staticmethod
    def _draws(m, s):
        # Uniform draws are almost all invalid at these widths, so draws
        # built attribute by attribute (absent, down, up or both bits)
        # add valid and conflicting candidates in numbers.
        rng = np.random.default_rng(m)
        states = rng.choice(4, size=(2000, m), p=[0.8, 0.09, 0.09, 0.02])
        built = [int("".join(format(v, "02b") for v in row), 2) for row in states]
        return _draw(rng, s, 2000).tolist() + [x for x in built if s.lower <= x <= s.upper]

    def _per_call(self, s, xs):
        # A recorder that logged ``xs`` one record call at a time, as
        # calls 1..len(xs), and the candidates its index counted.
        rec, counted = self._recorder(s)
        for t, x in enumerate(xs, start=1):
            rec.record(t, x)
        return rec, counted

    def _check_draw(self, s, xs, dtype):
        # record_draw logs the columns and counts the candidates, in the
        # same order, that one record call per candidate does.
        rec, counted = self._recorder(s)
        rec.record_draw(np.array(xs, dtype=dtype))
        ref, ref_counted = self._per_call(s, xs)
        assert list(rec.iterations) == ref.iterations
        assert rec.candidates == ref.candidates and rec.pairs == ref.pairs
        assert all(type(x) is int for x in rec.candidates)
        assert counted == ref_counted
        return rec

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_exhaustive_draw(self, m, kind):
        s = build_space(m, kind)
        xs = list(range(s.lower, s.upper + 1))
        rec = self._check_draw(s, xs, np.int64)
        assert [p != 0 for p in rec.pairs] == [_oracle_reason(x, m) is None for x in xs]

    @pytest.mark.parametrize("m", [24, 31, 32, 40])
    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_random_draws(self, m, kind):
        s = build_space(m, kind)
        xs = self._draws(m, s)
        rec, _ = self._recorder(s)
        reasons = [_oracle_reason(x, m) for x in xs]
        assert [rec.record(0, x) == 0 for x in xs] == [r is not None for r in reasons]
        assert reasons.count(None) > 500 and len(set(reasons)) == 3

    @pytest.mark.parametrize("m", [24, 31, 32, 40])
    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_random_draws_as_one_draw(self, m, kind):
        # Every seventh candidate again, so the draw repeats usable ones.
        s = build_space(m, kind)
        xs = self._draws(m, s)
        xs += xs[::7]
        rec = self._check_draw(s, xs, object if m >= 32 else np.int64)
        reasons = [_oracle_reason(x, m) for x in xs]
        assert [p == 0 for p in rec.pairs] == [r is not None for r in reasons]
        # Unusable draws never enter the memo.
        assert set(rec._memo) == {x for x, r in zip(xs, reasons) if r is None}

    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_outside_the_space_raises_and_logs_nothing(self, kind):
        s = build_space(4, kind)
        rec, counted = self._recorder(s)
        up = build_space(4).upper  # every attribute increasing: valid in both spaces
        rec.record(1, up)
        for x in (s.lower - 1, s.upper + 1, -(2**70), 2**70):
            with pytest.raises(ValueError, match="outside"):
                rec.record(2, x)
        assert (rec.iterations, rec.candidates, rec.pairs) == ([1], [up], [1])
        assert rec._memo == {up: 1} and counted == [up]


def _per_call_rs(rec, rng, s, c):
    """Reference rs loop that ``search._rs`` must match: one ``record``
    call per draw."""
    for t, x in enumerate(_draw(rng, s, c.max_iterations).tolist(), start=1):
        rec.record(t, x)


def _assert_rs_matches_per_call(d, s, c):
    r = run_miner("rs", d, s, c)
    with mock.patch.dict(_SEARCHERS, rs=_per_call_rs):
        ref = run_miner("rs", d, s, c)
    t, u = r.trajectory, ref.trajectory
    assert list(t.iterations) == u.iterations == list(range(1, c.max_iterations + 1))
    assert t.candidates == u.candidates and t.pairs == u.pairs
    assert all(type(x) is int for x in t.candidates)
    assert (r.best_pattern, r.best_support, r.best_fitness) == (
        ref.best_pattern, ref.best_support, ref.best_fitness
    )
    assert r.frequent_patterns == ref.frequent_patterns


class TestRandomSearch:
    @settings(max_examples=100, deadline=None)
    @given(
        tied_tables(max_m=6),
        st.sampled_from(list(SpaceKind)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.sampled_from((0.0, 0.2, 0.5, 1.0)),
    )
    def test_draw_matches_per_call_records(self, d, kind, seed, iterations, sigma):
        c = SearchConfig(max_iterations=iterations, seed=seed, sigma=sigma)
        _assert_rs_matches_per_call(d, build_space(d.m, kind), c)

    # Either side of the int64 draw, which ends at m = 31.
    @pytest.mark.parametrize("m", [31, 32, 33])
    @pytest.mark.parametrize("kind", list(SpaceKind))
    @pytest.mark.parametrize("iterations", [1, 7, 5000])
    def test_draw_matches_per_call_records_at_width(self, m, kind, iterations):
        d = random_dataset(np.random.default_rng(m), 6, m)
        c = SearchConfig(max_iterations=iterations, seed=m, sigma=0.0)
        _assert_rs_matches_per_call(d, build_space(m, kind), c)

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

    def test_step_past_half_the_float_range(self, course_dataset, space):
        # 2 * step_size overflows numpy's uniform draw; the steps are drawn
        # on [-1, 1) and scaled instead.
        r = run_miner("ls", course_dataset, space, SearchConfig(step_size=1e308))
        assert r.trajectory.evaluations == 21
        assert {st.candidate for st in r.trajectory.steps} <= {space.lower, space.upper} | {
            r.trajectory.steps[0].candidate
        }

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


def _mutation_draws(rng, s, c):
    """One mutant's draws, taken per call: the flip mask (the first flip
    is the top bit) and the nudge, numpy's ``normal(0, scale)`` without
    its ``0.0 +``."""
    flips = (rng.random(2 * s.m) < c.mutation_rate).tobytes()
    return int(flips.translate(_BINARY_DIGITS), 2), rng.standard_normal() * c.mutation_scale


def _mutate(rng, candidate, s, c):
    """The reference mutation: bit flips first, then the nudge; both
    respect the interval by rounding and clamping."""
    mask, nudge = _mutation_draws(rng, s, c)
    return _round_clamp(candidate ^ mask, nudge, s)


def _per_call_moves(rng, s, c):
    """Reference for ``search._ga_moves``: each iteration's crossover
    coin, cut point and two mutants' draws, one call at a time."""
    nbits = 2 * s.m
    for _ in range(c.max_iterations):
        low = None
        if float(rng.random()) < c.crossover_rate:
            low = (1 << (nbits - int(rng.integers(1, nbits)))) - 1
        yield (low, *_mutation_draws(rng, s, c), *_mutation_draws(rng, s, c))


def _ga_block(m):
    """Iterations per ``_ga_moves`` block: two mutants of 2m float64s each."""
    return max(1, gradmine.search.GA_DRAW_BYTES // (2 * 2 * m * 8))


def _heapq_ga(rec, rng, s, c):
    """Reference GA loop that ``search._ga`` must match step for step: an
    unsorted population, the parents taken by ``heapq.nsmallest(2, ...)``
    and the survivors by ``heapq.nsmallest(npop, ...)`` on (-pairs, x),
    and every draw taken when the loop reaches it."""
    best = _NO_BEST
    pop = []
    for x in _draw(rng, s, c.npop).tolist():
        pairs = rec.record(0, x)
        pop.append((-pairs, x))
        best = _keep_best(best, pairs, x)
    nbits = 2 * s.m
    for t in range(1, c.max_iterations + 1):
        (_, x1), (_, x2) = heapq.nsmallest(2, pop)
        if float(rng.random()) < c.crossover_rate:
            low = (1 << (nbits - int(rng.integers(1, nbits)))) - 1
            c1 = _clamp((x1 & ~low) | (x2 & low), s)
            c2 = _clamp((x2 & ~low) | (x1 & low), s)
        else:
            c1, c2 = x1, x2
        for x in (c1, c2, _mutate(rng, c1, s, c), _mutate(rng, c2, s, c)):
            pairs = rec.record(t, x)
            pop.append((-pairs, x))
            best = _keep_best(best, pairs, x)
        pop = heapq.nsmallest(c.npop, pop)
    return best


def _packbits_mutate(rng, candidate, s, c):
    """The reference mutation: the flips packed with ``np.packbits`` and
    the nudge drawn by ``rng.normal(0.0, scale)``."""
    flips = np.packbits(rng.random(2 * s.m) < c.mutation_rate)
    mask = int.from_bytes(flips.tobytes(), "big") >> ((-2 * s.m) % 8)
    return _round_clamp(candidate ^ mask, float(rng.normal(0.0, c.mutation_scale)), s)


#: 2m not a multiple of 8 (3, 5, 13), masks past 64 bits (40) and past
#: int's 4,300-digit string limit (2200).
MUTATION_WIDTHS = [3, 5, 13, 24, 40, 2200]

#: A scale of 1e-300 leaves the nudge rounding to nothing, so the bitmap
#: mutant of 0 is the mask itself; 1e308 overflows to a bound.
MUTATION_SCALES = (1e-300, 1.0, 5.0, 1e6, 1e308)


class TestMutation:
    @pytest.mark.parametrize("m", MUTATION_WIDTHS)
    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_matches_packbits(self, m, kind):
        s = build_space(m, kind)
        ours, ref = np.random.default_rng(m), np.random.default_rng(m)
        starts = [s.lower, s.upper] + _draw(np.random.default_rng(0), s, 6).tolist()
        for rate in (0.0, 0.1, 0.5, 1.0):
            for scale in MUTATION_SCALES:
                c = SearchConfig(mutation_rate=rate, mutation_scale=scale)
                for x in starts:
                    assert _mutate(ours, x, s, c) == _packbits_mutate(ref, x, s, c)
                    assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("m", MUTATION_WIDTHS)
    def test_block_draws_match_per_call_draws(self, m):
        # Two blocks and one iteration more, so the last block is short.
        # The nudges are compared as floats: 1e308 makes some infinite.
        s = build_space(m)
        iterations = 2 * _ga_block(m) + 1
        for crossover in (0.0, 0.5, 1.0):
            for rate in (0.0, 0.1, 0.5, 1.0):
                for scale in MUTATION_SCALES:
                    c = SearchConfig(
                        max_iterations=iterations, crossover_rate=crossover,
                        mutation_rate=rate, mutation_scale=scale,
                    )
                    ours, ref = np.random.default_rng(m), np.random.default_rng(m)
                    assert list(_ga_moves(ours, s, c)) == list(_per_call_moves(ref, s, c))
                    assert ours.bit_generator.state == ref.bit_generator.state

    def test_block_sizes(self):
        assert [_ga_block(m) for m in MUTATION_WIDTHS] == [682, 409, 157, 85, 51, 1]

    @pytest.mark.parametrize("m", [3, 6])
    def test_short_runs_draw_a_long_runs_first_moves(self, m):
        # A run shorter than a block draws a smaller buffer, from the same stream.
        s = build_space(m)
        block = _ga_block(m)
        long_config = SearchConfig(max_iterations=2 * block + 1)
        long_run = list(_ga_moves(np.random.default_rng(m), s, long_config))
        for iterations in (1, 20, block, block + 1):
            c = SearchConfig(max_iterations=iterations)
            assert list(_ga_moves(np.random.default_rng(m), s, c)) == long_run[:iterations]

    def test_short_run_holds_a_short_block(self):
        # A full block at m = 6 is 682 iterations of 2 x 12 float64s, about 131 KiB.
        s, c = build_space(6), SearchConfig(max_iterations=20)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            next(_ga_moves(np.random.default_rng(0), s, c))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 32 * 1024


class TestGeneticAlgorithm:
    @settings(max_examples=150, deadline=None)
    @given(
        tied_tables(max_m=6),
        st.sampled_from(list(SpaceKind)),
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.1, 20.0),
    )
    def test_sorted_population_matches_heapq(
        self, d, kind, seed, npop, crossover, mutation, sigma, scale
    ):
        # Ties in pair counts are common on these tables, so the order
        # among equal counts (the lower candidate first) is exercised too.
        s = build_space(d.m, kind)
        c = SearchConfig(
            max_iterations=15, seed=seed, sigma=sigma, npop=npop, crossover_rate=crossover,
            mutation_rate=mutation, mutation_scale=scale,
        )
        r = run_miner("ga", d, s, c)
        rec = _Recorder(d, s)
        pairs, x = _heapq_ga(rec, np.random.default_rng(c.seed), s, c)
        # The frequent set is read off the trajectory, so equal
        # trajectories give equal frequent sets.
        assert r.trajectory == Trajectory(rec.iterations, rec.candidates, rec.pairs)
        assert r.best_fitness == (1.0 / pairs if pairs else math.inf)
        assert (None if r.best_pattern is None else encode(r.best_pattern, d.m)) == x

    @pytest.mark.parametrize("m", [24, 40])
    @pytest.mark.parametrize("kind", list(SpaceKind))
    @pytest.mark.parametrize(
        "blocks", [(1, -1), (1, 0), (1, 1), (2, 1)], ids=["B-1", "B", "B+1", "2B+1"]
    )
    def test_matches_heapq_across_draw_blocks(self, m, kind, blocks):
        # T = B - 1, B, B + 1 and 2B + 1 iterations, B a draw block.
        # Eight objects on one shared trend give the numeric space usable
        # candidates at these widths; the bitmap space finds none.
        rng = np.random.default_rng(m)
        values = rng.normal(size=(8, 1)) + 0.3 * rng.normal(size=(8, m))
        d = Dataset(tuple(f"col{i}" for i in range(m)), values)
        s = build_space(m, kind)
        whole, extra = blocks
        c = SearchConfig(max_iterations=whole * _ga_block(m) + extra, seed=m, sigma=0.1)
        r = run_miner("ga", d, s, c)
        rec = _Recorder(d, s)
        pairs, x = _heapq_ga(rec, np.random.default_rng(c.seed), s, c)
        assert r.trajectory == Trajectory(rec.iterations, rec.candidates, rec.pairs)
        assert r.best_fitness == (1.0 / pairs if pairs else math.inf)
        assert (None if r.best_pattern is None else encode(r.best_pattern, d.m)) == x
        assert any(rec.pairs) == (kind is SpaceKind.NUMERIC)

    def test_no_crossover_copies_parents(self, course_dataset, space):
        c = SearchConfig(max_iterations=10, seed=6, npop=6, crossover_rate=0.0)
        r = run_miner("ga", course_dataset, space, c)
        init = r.trajectory.steps[: c.npop]
        by_fitness = sorted(init, key=lambda st: (st.fitness, st.candidate))
        parents = {by_fitness[0].candidate, by_fitness[1].candidate}
        first_children = {st.candidate for st in r.trajectory.steps[c.npop : c.npop + 2]}
        assert first_children == parents

    def test_huge_mutation_scale(self, course_dataset, space):
        # A Gaussian nudge past float64 is infinite: it takes the mutant to
        # the bound on its side.
        r = run_miner("ga", course_dataset, space, SearchConfig(mutation_scale=1e308))
        assert r.trajectory.evaluations == 10 + 4 * 20
        assert {st.candidate for st in r.trajectory.steps} >= {space.lower, space.upper}

    def test_four_calls_per_iteration(self, course_dataset, space):
        c = SearchConfig(max_iterations=15, seed=6, npop=4)
        r = run_miner("ga", course_dataset, space, c)
        for t in range(1, 16):
            assert sum(1 for st in r.trajectory.steps if st.iteration == t) == 4


def _per_iteration_pso(rec, rng, s, c):
    """Reference pso loop that ``search._pso`` must match step for step:
    each iteration's r1/r2 drawn once its swarm sweep ends."""
    positions = _draw(rng, s, c.nparticles).tolist()
    velocities = [0.0] * c.nparticles
    pbest = list(positions)
    gbest = pbest[0]
    for t in range(1, c.max_iterations + 1):
        for i, x in enumerate(positions):
            px, pp = rec.record(t, x), rec.record(t, pbest[i])
            if px and px >= pp:
                pbest[i] = x
            pg = rec.record(t, gbest)
            if px and px >= pg:
                gbest, pg = x, px
        r = rng.random(2 * c.nparticles).tolist()
        for i in range(c.nparticles):
            rp, rg, dp, dg = r[2 * i], r[2 * i + 1], pbest[i] - positions[i], gbest - positions[i]
            try:
                v = c.inertia * velocities[i] + c.coef_p * rp * dp + c.coef_g * rg * dg
            except OverflowError:
                v = math.nan
            if v != v:
                v = _exact_velocity(c, velocities[i], rp, dp, rg, dg)
            velocities[i] = min(max(v, -c.max_velocity), c.max_velocity)
            positions[i] = _round_clamp(positions[i], velocities[i], s)
    return (pg, gbest) if pg else _NO_BEST


def _assert_pso_matches_per_iteration_draws(d, s, c):
    r = run_miner("pso", d, s, c)
    rec = _Recorder(d, s)
    pairs, x = _per_iteration_pso(rec, np.random.default_rng(c.seed), s, c)
    assert r.trajectory == Trajectory(rec.iterations, rec.candidates, rec.pairs)
    assert r.best_fitness == (1.0 / pairs if pairs else math.inf)
    assert (None if r.best_pattern is None else encode(r.best_pattern, d.m)) == x
    return rec


class TestParticleSwarm:
    @settings(max_examples=150, deadline=None)
    @given(
        tied_tables(max_m=6),
        st.sampled_from(list(SpaceKind)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 30),
        st.integers(1, 6),
        st.floats(0.0, 2.0),
        st.floats(0.1, 10.0),
    )
    def test_matches_per_iteration_draws(self, d, kind, seed, iterations, nparticles, w, vmax):
        c = SearchConfig(
            max_iterations=iterations, seed=seed, sigma=0.1, nparticles=nparticles,
            inertia=w, max_velocity=vmax,
        )
        _assert_pso_matches_per_iteration_draws(d, build_space(d.m, kind), c)

    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_matches_per_iteration_draws_at_width(self, kind):
        # 200 iterations at m = 40, where the interval passes int64.  The
        # pulls span up to 2^80, so a velocity clipped to a few units
        # would not depend on r1/r2; unclipped, each one moves a particle.
        m = 40
        rng = np.random.default_rng(m)
        values = rng.normal(size=(8, 1)) + 0.3 * rng.normal(size=(8, m))
        d = Dataset(tuple(f"col{i}" for i in range(m)), values)
        c = SearchConfig(max_iterations=200, seed=m, sigma=0.1, max_velocity=1e30)
        rec = _assert_pso_matches_per_iteration_draws(d, build_space(m, kind), c)
        assert len(rec.candidates) == 3 * c.nparticles * 200

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

    def test_huge_weights_do_not_end_the_run(self, course_dataset, space):
        # inertia * velocity and a pull can overflow to opposite infinities;
        # their float sum is NaN, so the velocity is summed exactly.
        huge = dict(inertia=1e308, max_velocity=1e308, coef_p=1e308, coef_g=1e308)
        for seed in range(10):
            r = run_miner("pso", course_dataset, space, SearchConfig(seed=seed, **huge))
            assert r.trajectory.evaluations == 3 * 5 * 20

    def test_single_particle_runs(self, course_dataset, space):
        c = SearchConfig(max_iterations=10, seed=8, nparticles=1)
        r = run_miner("pso", course_dataset, space, c)
        assert r.trajectory.evaluations == 30

    def test_draw_is_held_as_an_array(self):
        # The whole (T, 2P) draw stays one float64 array, 8 bytes a number,
        # beside what the result holds.  As nested lists it took about 376
        # bytes an iteration at P = 5, as much as the trajectory.
        d = random_dataset(np.random.default_rng(5), 40, 6)
        space = build_space(d.m)
        run_miner("pso", d, space, SearchConfig(max_iterations=2))  # builds the index
        c = SearchConfig(max_iterations=10_000, seed=1)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            r = run_miner("pso", d, space, c)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert r.trajectory.evaluations == 3 * c.nparticles * c.max_iterations
        assert peak - held <= 8 * 2 * c.nparticles * c.max_iterations + 2**17


class TestRunMiner:
    def test_dispatch_matches_direct_call(self, course_dataset, space):
        c = SearchConfig(max_iterations=12, seed=5)
        rec = _Recorder(course_dataset, space)
        assert _rs(rec, np.random.default_rng(c.seed), space, c) is None
        r = run_miner("rs", course_dataset, space, c)
        assert r.trajectory == Trajectory(rec.iterations, rec.candidates, rec.pairs)
        pairs, x = _last_best(rec.candidates, rec.pairs)
        assert encode(r.best_pattern, 3) == x
        all_pairs = object_pair_count(course_dataset)
        assert (r.best_support, r.best_fitness) == (pairs / all_pairs, 1.0 / pairs)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_steps_are_built_once(self, course_dataset, space, algo):
        r = run_miner(algo, course_dataset, space, SearchConfig())
        assert r.trajectory.steps is r.trajectory.steps

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

    def test_graank_builds_no_recorder_and_no_generator(self, course_dataset, space, monkeypatch):
        # The sweep makes no objective call to memoize or check, and
        # draws nothing.
        def refuse(*args):
            raise AssertionError("the sweep built a recorder or a generator")

        monkeypatch.setattr(gradmine.search, "_Recorder", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        r = run_miner("graank", course_dataset, space, SearchConfig())
        assert list(r.trajectory.iterations) == list(range(1, 21))
        assert r.best_pattern is not None

    def test_graank_guard_refuses_before_the_index(self, monkeypatch):
        # Fifteen columns are over the enumeration guard; the index would
        # be refused too, but the guard must speak first.
        monkeypatch.setattr(gradmine.fitness, "MAX_INDEX_BYTES", 47)
        d = random_dataset(np.random.default_rng(15), 4, 15)
        with pytest.raises(EnumerationLimitError):
            run_miner("graank", d, build_space(15), SearchConfig())
        assert "index" not in d.__dict__

    @pytest.mark.parametrize("n, form", [(219, int), (220, np.ndarray)], ids=["ints", "arrays"])
    def test_graank_counts_on_the_dataset_index(self, n, form, index_spy, monkeypatch):
        # numpy is loaded, so rows past INT_ROW_BYTES (n >= 220) are
        # arrays.  Either way the sweep counts on d.index, built once and
        # cached, and its columns are the array index's counts.
        d = random_dataset(np.random.default_rng(n), n, 3, ties=True)
        r = run_miner("graank", d, build_space(3), SearchConfig())
        assert index_spy.builds == index_spy.swept == [d.__dict__["index"]]
        assert all(type(row) is form for row in d.index._row_list)
        monkeypatch.setattr(gradmine.fitness, "INT_ROW_BYTES", 0)
        arrays = ConcordanceIndex(d)
        assert r.trajectory.pairs == [arrays.count_candidate(x) for x in r.trajectory.candidates]

    def test_graank_mine_builds_one_index(self, index_spy):
        d = random_dataset(np.random.default_rng(220), 220, 3, ties=True)
        for sigma in (0.1, 0.3, 0.5):
            graank_mine(d, sigma)
        assert index_spy.builds == [d.index] and index_spy.swept == [d.index] * 3


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

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("npop", 4.5, "npop must be int, got 4.5"),
            ("max_iterations", True, "max_iterations must be int, got True"),
            ("seed", 1.5, "seed must be int, got 1.5"),
            ("step_size", True, "step_size must be int or float, got True"),
            ("sigma", "0.5", "sigma must be int or float, got '0.5'"),
            ("nparticles", np.float64(3.0), "nparticles must be int, got np.float64(3.0)"),
        ],
    )
    def test_rejects_a_value_of_another_kind(self, name, value, message):
        # Built in code, not only through the CLI or a bench spec.
        with pytest.raises(ValueError) as err:
            SearchConfig(**{name: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["mutation_scale", "step_size"])
    def test_rejects_an_int_past_the_float_range(self, name):
        # Taken as a float, such an int would end a ga or ls run with
        # OverflowError; an int within the float range is accepted.
        with pytest.raises(ValueError) as err:
            SearchConfig(**{name: 10**400})
        assert str(err.value) == f"{name} must be finite, got {10**400}"
        assert getattr(SearchConfig(**{name: 10**300}), name) == 10**300

    def test_numpy_scalars_count_as_python_ones(self, course_dataset, space):
        c = SearchConfig(seed=np.int64(3), sigma=np.float64(0.5), npop=np.int32(6))
        assert c == SearchConfig(seed=3, sigma=0.5, npop=6)
        for algo in SEARCHERS:
            a = run_miner(algo, course_dataset, space, c)
            b = run_miner(algo, course_dataset, space, SearchConfig(seed=3, npop=6))
            assert a.trajectory == b.trajectory
