"""Top-level acceptance suite.

Each test checks one headline guarantee of the package and carries an
``acceptance`` marker; the run ends with one "[An] label: PASS/FAIL"
line per criterion (see conftest).  Expected values are either derived
in-test by an independent route (brute pair scans, a raw 2-bit-field
validity rule, full sign enumeration) or frozen small constants;
tolerances are stated at the assertion sites.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from conftest import COURSE_NAMES, COURSE_ROWS, random_dataset, write_csv
from gradmine import (
    ALGORITHMS,
    ConcordanceIndex,
    Dataset,
    Direction,
    GradualItem,
    GradualPattern,
    SearchConfig,
    SpaceKind,
    build_space,
    concordant_count_brute,
    encode,
    enumerate_valid,
    fitness_of,
    graank_mine,
    is_valid,
    object_pair_count,
    run_miner,
    support,
    to_pattern,
    wilcoxon_signed_rank,
)
from gradmine.cli import main

_DIR = {"+": Direction.UP, "-": Direction.DOWN}


def _pat(*items: str) -> GradualPattern:
    """Build a pattern from compact "<attribute><direction>" strings."""
    return GradualPattern(tuple(GradualItem(int(s[:-1]), _DIR[s[-1]]) for s in items))


def _oracle_valid(x: int, m: int) -> bool:
    """Validity decided straight from the 2-bit fields, independently of
    the decode path: no field may be 11, at least two must be nonzero."""
    fields = [(x >> (2 * (m - 1 - i))) & 3 for i in range(m)]
    return all(f != 3 for f in fields) and sum(f != 0 for f in fields) >= 2


# Every valid candidate for three attributes: integer, bits, item set.
THREE_ATTR_TABLE = (
    (5, "000101", _pat("1-", "2-")),
    (6, "000110", _pat("1-", "2+")),
    (9, "001001", _pat("1+", "2-")),
    (10, "001010", _pat("1+", "2+")),
    (17, "010001", _pat("0-", "2-")),
    (18, "010010", _pat("0-", "2+")),
    (20, "010100", _pat("0-", "1-")),
    (21, "010101", _pat("0-", "1-", "2-")),
    (22, "010110", _pat("0-", "1-", "2+")),
    (24, "011000", _pat("0-", "1+")),
    (25, "011001", _pat("0-", "1+", "2-")),
    (26, "011010", _pat("0-", "1+", "2+")),
    (33, "100001", _pat("0+", "2-")),
    (34, "100010", _pat("0+", "2+")),
    (36, "100100", _pat("0+", "1-")),
    (37, "100101", _pat("0+", "1-", "2-")),
    (38, "100110", _pat("0+", "1-", "2+")),
    (40, "101000", _pat("0+", "1+")),
    (41, "101001", _pat("0+", "1+", "2-")),
    (42, "101010", _pat("0+", "1+", "2+")),
)


@pytest.mark.acceptance("A1", "three-attribute candidate table")
def test_a01_three_attribute_candidate_table():
    """All 20 valid candidates for m=3 match the frozen table, the
    enumeration returns exactly them, and the whole interval [5, 42]
    round-trips; exact, in under one second."""
    started = time.perf_counter()
    space = build_space(3)
    assert (space.lower, space.upper) == (5, 42)
    assert enumerate_valid(space) == [row[0] for row in THREE_ATTR_TABLE]
    for x, bits, pattern in THREE_ATTR_TABLE:
        assert f"{x:06b}" == bits
        assert to_pattern(x, space) == pattern
        assert encode(pattern, 3) == x
    for x in range(space.lower, space.upper + 1):
        p = to_pattern(x, space)
        if isinstance(p, GradualPattern):
            assert encode(p, 3) == x
        else:
            assert not _oracle_valid(x, 3)
    assert time.perf_counter() - started < 1.0


@pytest.mark.acceptance("A2", "space bounds and valid-count law")
def test_a02_bounds_and_count_law():
    """For m=2..5 the numeric interval is [5, sum of 2^(2i-1)], the
    bitmap interval is [0, 4^m - 1], and both hold exactly
    3^m - 2m - 1 valid candidates (full scan, independent rule)."""
    for m in range(2, 6):
        numeric = build_space(m)
        bitmap = build_space(m, SpaceKind.BITMAP)
        assert numeric.lower == 5
        assert numeric.upper == sum(2 ** (2 * i - 1) for i in range(1, m + 1))
        assert (bitmap.lower, bitmap.upper) == (0, 4**m - 1)
        scanned = [x for x in range(bitmap.upper + 1) if _oracle_valid(x, m)]
        assert len(scanned) == 3**m - 2 * m - 1
        assert enumerate_valid(numeric) == scanned
        assert enumerate_valid(bitmap) == scanned
        assert all(numeric.contains(x) for x in scanned)


@pytest.mark.acceptance("A3", "worked support example")
def test_a03_worked_support_example(course_dataset):
    """On the four-person course table, {age+, sessions+} holds on 4 of
    the 6 object pairs: support 2/3 (tolerance 1e-9), fitness exactly
    1/4.  Both counting routes agree on every spot-checked candidate."""
    space = build_space(3)
    d = course_dataset
    target = _pat("0+", "1+")  # candidate 40
    assert to_pattern(40, space) == target
    assert concordant_count_brute(target, d) == 4
    assert ConcordanceIndex(d).count(target) == 4
    assert support(target, d) == pytest.approx(2 / 3, abs=1e-9)
    assert fitness_of(40, space, d).fitness == 0.25

    # Figures sometimes quoted for the last two candidates (0.5 and 1.0)
    # do not survive a literal strict pair count; both independent
    # routes here agree on 3, 3, 1 and 0 concordant pairs.
    for x, expected in ((10, 3), (42, 3), (33, 1), (26, 0)):
        p = to_pattern(x, space)
        assert concordant_count_brute(p, d) == expected
        assert ConcordanceIndex(d).count(p) == expected
    sentinel = fitness_of(26, space, d)
    assert sentinel.fitness == math.inf and not sentinel.usable


@pytest.mark.acceptance("A4", "pair-count oracle agreement and invariants")
def test_a04_oracle_agreement_and_invariants():
    """Across 100 random tables (with and without ties) the vectorised
    counter equals a brute pair scan on every valid candidate, counts
    never grow when a pattern gains an item, and every pattern counts
    the same as its direction-flipped complement.  Exact."""
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(2, 6))
        d = random_dataset(rng, n, m, ties=bool(trial % 2))
        index = ConcordanceIndex(d)
        space = build_space(m)
        counts = {}
        for x in enumerate_valid(space):
            p = to_pattern(x, space)
            got = index.count(p)
            assert got == concordant_count_brute(p, d)
            counts[p] = got
        for p, got in counts.items():
            assert counts[p.complement()] == got
            if len(p) >= 3:
                for dropped in range(len(p)):
                    rest = p.items[:dropped] + p.items[dropped + 1 :]
                    assert got <= counts[GradualPattern(rest)]


@pytest.mark.acceptance("A5", "heuristic soundness against the exhaustive miner")
def test_a05_heuristic_soundness():
    """Every frequent pattern any heuristic reports is also in the
    exhaustive miner's output with the same support (tolerance 1e-12),
    and the exhaustive output equals a brute re-enumeration."""
    rng = np.random.default_rng(7)
    sigmas = (0.3, 0.5, 0.8)
    for trial in range(50):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(3, 5))
        d = random_dataset(rng, n, m, ties=bool(trial % 2))
        sigma = sigmas[trial % 3]
        space = build_space(m)
        exhaustive = {encode(p, m): s for p, s in graank_mine(d, sigma)}
        total = object_pair_count(d)
        brute = {}
        for x in enumerate_valid(space):
            pairs = concordant_count_brute(to_pattern(x, space), d)
            if pairs > 0 and pairs / total >= sigma:
                brute[x] = pairs / total
        assert exhaustive == pytest.approx(brute, abs=1e-12)
        for algo in ("rs", "ls", "ga", "pso"):
            for seed in range(10):
                config = SearchConfig(max_iterations=20, seed=seed, sigma=sigma)
                result = run_miner(algo, d, space, config)
                for pattern, s in result.frequent_patterns:
                    x = encode(pattern, m)
                    assert x in exhaustive
                    assert s == pytest.approx(exhaustive[x], abs=1e-12)


# Frozen 8x3 table for the convergence check.  Its optimum is re-derived
# in-test by brute enumeration, never assumed.
CONVERGENCE_ROWS = (
    (1, 1, 1),
    (1, 0, 1),
    (0, 3, 1),
    (2, 3, 1),
    (3, 3, 0),
    (1, 2, 1),
    (3, 1, 1),
    (3, 0, 1),
)


@pytest.mark.acceptance("A6", "heuristics reach the best fitness")
def test_a06_convergence_rates():
    """With 500 iterations over seeds 0-99 on a frozen 8x3 table, the
    optimal fitness (tolerance 1e-12) is reached in at least 95% of
    runs by ga and pso and at least 80% by ls and rs, in under 30 s."""
    started = time.perf_counter()
    d = Dataset(("x0", "x1", "x2"), np.array(CONVERGENCE_ROWS, dtype=float))
    space = build_space(3)
    counts = {
        x: concordant_count_brute(to_pattern(x, space), d)
        for x in enumerate_valid(space)
    }
    best_count = max(counts.values())
    top = {x for x, c in counts.items() if c == best_count}
    # The maximum is attained by exactly one direction-flipped pair
    # (every pattern ties its complement, so a lone winner cannot
    # exist), which makes "reached the optimum" unambiguous by fitness.
    assert best_count == 10
    assert top == {24, 36}
    target = 1.0 / best_count

    thresholds = {"ga": 0.95, "pso": 0.95, "ls": 0.80, "rs": 0.80}
    for algo, threshold in thresholds.items():
        hits = 0
        for seed in range(100):
            config = SearchConfig(max_iterations=500, seed=seed)
            result = run_miner(algo, d, space, config)
            if abs(result.best_fitness - target) <= 1e-12:
                hits += 1
        assert hits >= 100 * threshold, f"{algo}: only {hits}/100 runs reached optimum"
    assert time.perf_counter() - started < 30.0


@pytest.mark.acceptance("A7", "objective-call budgets")
def test_a07_objective_call_budgets(course_dataset):
    """Trajectory lengths obey the exact call budgets: rs makes T calls,
    ls makes T+1, ga makes npop + 4T, pso makes 3 * nparticles * T."""
    space = build_space(3)
    for t in (5, 20):
        cfg = SearchConfig(max_iterations=t)
        assert run_miner("rs", course_dataset, space, cfg).trajectory.evaluations == t
        assert run_miner("ls", course_dataset, space, cfg).trajectory.evaluations == t + 1
    for npop, t in ((10, 20), (4, 7)):
        cfg = SearchConfig(max_iterations=t, npop=npop)
        got = run_miner("ga", course_dataset, space, cfg).trajectory.evaluations
        assert got == npop + 4 * t
    for nparticles, t in ((5, 20), (3, 11)):
        cfg = SearchConfig(max_iterations=t, nparticles=nparticles)
        got = run_miner("pso", course_dataset, space, cfg).trajectory.evaluations
        assert got == 3 * nparticles * t


# Mean wall times (seconds) of one fixed configuration per algorithm,
# measured over the same nine datasets in each candidate space.
GA_NUMERIC_SECONDS = [243.12, 346.30, 165.80, 1475.00, 495.55, 293.98, 0.77, 1.73, 0.36]
GA_BITMAP_SECONDS = [543.65, 653.78, 422.08, 3516.75, 1632.75, 767.12, 1.05, 2.34, 0.39]
PSO_NUMERIC_SECONDS = [335.65, 439.62, 136.93, 828.90, 489.70, 123.00, 0.47, 1.61, 0.52]
PSO_BITMAP_SECONDS = [1711.50, 487.62, 416.10, 1193.25, 628.88, 135.65, 0.48, 1.58, 0.48]


@pytest.mark.acceptance("A8", "signed-rank exactness and pinned comparisons")
def test_a08_signed_rank_exactness():
    """The exact p-value equals full sign enumeration (tolerance 1e-12)
    for n <= 12 including tied ranks, and the frozen nine-dataset wall
    time pairs give W=0, p=0.0039 and W=5, p=0.0391 (tolerance 5e-4)."""
    rng = np.random.default_rng(41)
    for trial in range(12):
        n = int(rng.integers(5, 13))
        if trial % 2:
            diffs = rng.integers(-6, 7, size=n).astype(float)
            diffs[diffs == 0] = 1.0
        else:
            diffs = rng.normal(size=n)
        got = wilcoxon_signed_rank(diffs, np.zeros(n))
        ranks = rankdata(np.abs(diffs), method="average")
        w = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
        hits = sum(
            1
            for mask in range(2**n)
            if sum(ranks[i] for i in range(n) if (mask >> i) & 1) <= w + 1e-9
        )
        assert got.p_value == pytest.approx(min(1.0, 2 * hits / 2**n), abs=1e-12)

    ga = wilcoxon_signed_rank(GA_NUMERIC_SECONDS, GA_BITMAP_SECONDS)
    assert ga.statistic == 0
    assert ga.p_value == pytest.approx(0.0039, abs=5e-4)
    pso = wilcoxon_signed_rank(PSO_NUMERIC_SECONDS, PSO_BITMAP_SECONDS)
    assert pso.statistic == 5
    assert pso.p_value == pytest.approx(0.0391, abs=5e-4)


@pytest.mark.acceptance("A9", "numeric interval concentrates valid candidates")
def test_a09_valid_density_by_space():
    """For wide tables (m = 10, 15, 20) uniform sampling hits valid
    candidates strictly more often inside the numeric interval than in
    the full bitmap range; the sampling classifier is cross-checked
    against is_valid on the first 200 draws."""
    rng = np.random.default_rng(11)
    draws = 100_000
    for m in (10, 15, 20):
        numeric = build_space(m)
        bitmap = build_space(m, SpaceKind.BITMAP)
        assert numeric.size < bitmap.size
        fractions = {}
        for space in (numeric, bitmap):
            xs = rng.integers(space.lower, space.upper + 1, size=draws, dtype=np.int64)
            shifts = 2 * (m - 1 - np.arange(m, dtype=np.int64))
            fields = (xs[:, None] >> shifts[None, :]) & 3
            ok = (fields != 3).all(axis=1) & ((fields != 0).sum(axis=1) >= 2)
            for x, expected in zip(xs[:200], ok[:200]):
                assert is_valid(int(x), space) == bool(expected)
            fractions[space.kind] = float(ok.mean())
        assert fractions[SpaceKind.NUMERIC] > fractions[SpaceKind.BITMAP]


@pytest.mark.acceptance("A10", "seeded runs reproduce exactly")
def test_a10_reproducibility(tmp_path, capsys):
    """Rerunning any algorithm with the same seed yields the identical
    trajectory, best result and frequent set on five random tables, and
    repeated seeded CLI mining prints identical bytes."""
    rng = np.random.default_rng(99)
    for trial in range(5):
        n = int(rng.integers(5, 10))
        m = int(rng.integers(3, 5))
        d = random_dataset(rng, n, m, ties=bool(trial % 2))
        space = build_space(m)
        for algo in ALGORITHMS:
            config = SearchConfig(max_iterations=15, seed=11)
            first = run_miner(algo, d, space, config)
            second = run_miner(algo, d, space, config)
            assert first.trajectory.steps == second.trajectory.steps
            assert first.best_pattern == second.best_pattern
            assert first.best_support == second.best_support
            assert first.frequent_patterns == second.frequent_patterns

    path = tmp_path / "course.csv"
    write_csv(path, COURSE_NAMES, COURSE_ROWS)
    for algo in ALGORITHMS:
        argv = ["mine", "--data", str(path), "--algo", algo, "--seed", "5"]
        assert main(argv) == 0
        first_out = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first_out
