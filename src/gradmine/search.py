"""The five miners and :func:`run_miner`, the one door to all of them.

Four seeded searchers walk an integer-encoded candidate space: random
search ("rs"), stochastic hill climbing ("ls"), a small genetic algorithm
("ga") and particle swarm optimization ("pso"); "graank" sweeps every
valid candidate once.  Each miner is a bare loop ``(rec, rng, s, c) ->
(fitness, candidate)`` over a recorder and a generator that
:func:`run_miner` builds; :func:`run_miner` also times the run and turns
the recorder and the best into a :class:`SearchResult`.  The searchers

* draw every random number from the one generator, seeded with
  ``c.seed``, so (dataset, space, config) fully determines the run;
* log every objective call, in call order, as one trajectory step;
* never let an unusable candidate (infinite fitness) become the incumbent
  best, a personal best or the global best;
* collect every distinct usable candidate whose support meets ``sigma``.

The sweep scores through the same recorder, so its answer follows the
same rules; :func:`graank_mine` is its frequent set on its own.

Objective-call budgets are part of the contract: rs makes T calls, ls
makes T+1 (the starting point counts), ga makes npop + 4T (two offspring
and two mutants per iteration) and pso makes 3 per particle per iteration
(position, personal best, global best).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import Dataset, object_pair_count
from .encoding import (
    MAX_ENUM_ATTRIBUTES,
    EnumerationLimitError,
    GradualPattern,
    SearchSpace,
    build_space,
    invalid_reason,
    to_pattern,
)
from .fitness import INFINITE_FITNESS


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for every miner.

    Fields the chosen algorithm does not use are ignored, so one config
    can drive a whole benchmark.  Defaults are round mid-range values;
    ``max_iterations`` follows the small-budget convention used
    throughout the test suite.  Every float field must be finite and
    ``seed`` nonnegative.
    """

    max_iterations: int = 20
    seed: int = 0
    sigma: float = 0.5
    # hill climbing
    step_size: float = 5.0
    # genetic algorithm
    npop: int = 10
    crossover_rate: float = 0.5
    mutation_rate: float = 0.1
    mutation_scale: float = 5.0
    # particle swarm
    nparticles: int = 5
    max_velocity: float = 4.0
    coef_p: float = 1.0
    coef_g: float = 1.0
    inertia: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must be in [0, 1], got {self.sigma}")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.npop < 2:
            raise ValueError("npop must be >= 2")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.mutation_scale <= 0:
            raise ValueError("mutation_scale must be positive")
        if self.nparticles < 1:
            raise ValueError("nparticles must be >= 1")
        if self.max_velocity <= 0:
            raise ValueError("max_velocity must be positive")
        if min(self.coef_p, self.coef_g, self.inertia) < 0:
            raise ValueError("coef_p, coef_g and inertia must be nonnegative")


class TrajectoryStep(NamedTuple):
    iteration: int
    candidate: int
    fitness: float
    valid: bool


@dataclass(frozen=True)
class Trajectory:
    """Every objective call of one run, in call order."""

    steps: tuple[TrajectoryStep, ...]

    @property
    def evaluations(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class SearchResult:
    """What one mining run produced.

    ``frequent_patterns`` holds every distinct candidate encountered with
    support >= sigma, deduplicated by candidate integer and sorted by
    descending support then ascending candidate, matching the exhaustive
    miner's ordering.  ``wall_time`` covers the mining call only.
    """

    best_pattern: GradualPattern | None
    best_support: float
    best_fitness: float
    frequent_patterns: tuple[tuple[GradualPattern, float], ...]
    trajectory: Trajectory
    wall_time: float


class _Recorder:
    """The instrumented objective function, the one home of its rules.

    :meth:`score` turns a pair count into a fitness and notes frequent
    candidates; :meth:`log` appends one trajectory step per objective
    call; :meth:`record` is the searchers' call, memoizing the fitness of
    each candidate integer (the spaces are tiny, so repeat visits are
    common) before logging it.  Pair counts are kept for frequent
    candidates only.  Candidates are checked and counted as integers;
    only the results are decoded, when :func:`run_miner` builds its
    result.  The recorder reaches the dataset's index, built on first
    use, only to count, so a miner can refuse a run before it exists.
    """

    def __init__(self, d: Dataset, space: SearchSpace, sigma: float) -> None:
        self.d = d
        self.space = space
        self.sigma = sigma
        self._all_pairs = object_pair_count(d)
        self._memo: dict[int, float] = {}
        self._steps: list[TrajectoryStep] = []
        self._frequent: dict[int, int] = {}

    def record(self, iteration: int, x: int) -> float:
        fitness = self._memo.get(x)
        if fitness is None:
            if invalid_reason(x, self.space) is not None:
                fitness = INFINITE_FITNESS
            else:
                fitness = self.score(x, self.d.index.count_candidate(x))
            self._memo[x] = fitness
        return self.log(iteration, x, fitness)

    def score(self, x: int, pairs: int) -> float:
        """Fitness of a valid candidate with ``pairs`` concordant pairs:
        ``1/pairs``, or infinite (unusable) at zero pairs."""
        if pairs == 0:
            return INFINITE_FITNESS
        if pairs / self._all_pairs >= self.sigma:
            self._frequent[x] = pairs
        return 1.0 / pairs

    def log(self, iteration: int, x: int, fitness: float) -> float:
        self._steps.append(TrajectoryStep(iteration, x, fitness, fitness < INFINITE_FITNESS))
        return fitness

    def support(self, x: int) -> float:
        # Only a non-frequent best is counted again.
        pairs = self._frequent.get(x)
        if pairs is None:
            pairs = self.d.index.count_candidate(x)
        return pairs / self._all_pairs

    def trajectory(self) -> Trajectory:
        return Trajectory(tuple(self._steps))

    def frequent(self) -> tuple[tuple[GradualPattern, float], ...]:
        order = sorted(self._frequent, key=lambda x: (-self._frequent[x], x))
        return tuple((to_pattern(x, self.space), self.support(x)) for x in order)


#: A miner's incumbent best: (fitness, candidate).
_Best = tuple[float, int | None]

#: The incumbent before any usable candidate.
_NO_BEST: _Best = (INFINITE_FITNESS, None)


def _keep_best(best: _Best, fitness: float, x: int) -> _Best:
    # "<=" so a later candidate with equal fitness replaces the incumbent;
    # an unusable (infinite) one never does.
    if fitness <= best[0] and fitness < INFINITE_FITNESS:
        return fitness, x
    return best


def _clamp(x: int, s: SearchSpace) -> int:
    return min(max(x, s.lower), s.upper)


#: Below this, integers and their halves are exact in float64.
_FLOAT_EXACT = 2**52


def _round_clamp(x: int, u: float, s: SearchSpace) -> int:
    # ``x + u`` rounded and clamped into ``s``.  Only the bits of ``x``
    # below _FLOAT_EXACT meet the float, so float64 cannot swallow the
    # step on wider positions (m >= 27), and narrower ones round exactly
    # as ``int(round(x + u))``.
    low = x & (_FLOAT_EXACT - 1)
    return min(max(x - low + round(low + u), s.lower), s.upper)


#: numpy's integer draws take an int64 ``high`` (exclusive), so spaces
#: whose upper bound reaches this (m >= 32) are drawn by :func:`_wide_uniform`.
_INT64_HIGH = 2**63


def _wide_uniform(rng: np.random.Generator, s: SearchSpace) -> int:
    # Rejection sampling over the fewest bits that cover the interval, so
    # fewer than two tries are needed on average.
    bits = (s.size - 1).bit_length()
    nbytes = (bits + 7) // 8
    while True:
        v = int.from_bytes(rng.bytes(nbytes), "big") >> (8 * nbytes - bits)
        if v < s.size:
            return s.lower + v


def _uniform_candidates(rng: np.random.Generator, s: SearchSpace, count: int) -> list[int]:
    # One sized draw yields the same stream as ``count`` scalar draws.
    if s.upper < _INT64_HIGH:
        return rng.integers(s.lower, s.upper + 1, size=count).tolist()
    return [_wide_uniform(rng, s) for _ in range(count)]


def _rs(rec: _Recorder, rng: np.random.Generator, s: SearchSpace, c: SearchConfig) -> _Best:
    """Uniform probing: one independent draw per iteration, best kept."""
    best = _NO_BEST
    for t, x in enumerate(_uniform_candidates(rng, s, c.max_iterations), start=1):
        best = _keep_best(best, rec.record(t, x), x)
    return best


def _ls(rec: _Recorder, rng: np.random.Generator, s: SearchSpace, c: SearchConfig) -> _Best:
    """Stochastic hill climbing with a bounded random step.

    A proposal is adopted when its fitness is no worse than the current
    point's.  Because inf <= inf holds, the walk keeps drifting across
    unusable ground instead of freezing on it.
    """
    (x,) = _uniform_candidates(rng, s, 1)
    current = rec.record(0, x)
    best = _keep_best(_NO_BEST, current, x)
    steps = rng.uniform(-c.step_size, c.step_size, size=c.max_iterations).tolist()
    for t, u in enumerate(steps, start=1):
        proposal = _round_clamp(x, u, s)
        fitness = rec.record(t, proposal)
        if fitness <= current:
            x, current = proposal, fitness
        best = _keep_best(best, fitness, proposal)
    return best


def _mutate(rng: np.random.Generator, candidate: int, s: SearchSpace, c: SearchConfig) -> int:
    # Bit flips first, then an integer-scale Gaussian nudge; both respect
    # the interval by rounding and clamping.  flips[0] is the top bit.
    flips = np.packbits(rng.random(2 * s.m) < c.mutation_rate)
    mask = int.from_bytes(flips.tobytes(), "big") >> ((-2 * s.m) % 8)
    return _round_clamp(candidate ^ mask, float(rng.normal(0.0, c.mutation_scale)), s)


def _ga(rec: _Recorder, rng: np.random.Generator, s: SearchSpace, c: SearchConfig) -> _Best:
    """Small elitist genetic algorithm over the bit representation.

    Each iteration takes the two fittest members, recombines them by
    single-point bit crossover with probability ``crossover_rate``
    (otherwise copies them), then mutates each offspring; all four
    results are evaluated, appended, and the population is truncated
    back to ``npop``.  Exactly four objective calls per iteration.
    Members are (fitness, candidate), so unusable ones (inf) sort last
    and ties go to the lower integer.
    """
    best = _NO_BEST
    pop: list[tuple[float, int]] = []
    for x in _uniform_candidates(rng, s, c.npop):
        fitness = rec.record(0, x)
        pop.append((fitness, x))
        best = _keep_best(best, fitness, x)
    nbits = 2 * s.m
    for t in range(1, c.max_iterations + 1):
        (_, x1), (_, x2) = heapq.nsmallest(2, pop)
        if float(rng.random()) < c.crossover_rate:
            # The first ``point`` bits come from one parent, the rest from
            # the other.  Recombined bits can leave a numeric-space
            # interval, so the children are clamped back in like every
            # other move.
            low = (1 << (nbits - int(rng.integers(1, nbits)))) - 1
            c1 = _clamp((x1 & ~low) | (x2 & low), s)
            c2 = _clamp((x2 & ~low) | (x1 & low), s)
        else:
            c1, c2 = x1, x2
        for x in (c1, c2, _mutate(rng, c1, s, c), _mutate(rng, c2, s, c)):
            fitness = rec.record(t, x)
            pop.append((fitness, x))
            best = _keep_best(best, fitness, x)
        pop = heapq.nsmallest(c.npop, pop)
    return best


def _pso(rec: _Recorder, rng: np.random.Generator, s: SearchSpace, c: SearchConfig) -> _Best:
    """Particle swarm over the integer interval.

    Per particle and iteration there are exactly three objective calls:
    the position, the personal best and the global best, in that order.
    Personal and global bests only move to usable positions whose cost
    is no higher than the incumbent's.  After the swarm sweep the global
    best is folded into the run best; then every particle moves with a
    velocity clipped to ``max_velocity`` and a position rounded and
    clamped to the interval.
    """
    positions = _uniform_candidates(rng, s, c.nparticles)
    velocities = [0.0] * c.nparticles
    pbest = list(positions)
    gbest = pbest[0]
    best = _NO_BEST
    for t in range(1, c.max_iterations + 1):
        for i, x in enumerate(positions):
            fx = rec.record(t, x)
            fp = rec.record(t, pbest[i])
            usable = fx < INFINITE_FITNESS
            if usable and fx <= fp:
                pbest[i] = x
            fg = rec.record(t, gbest)
            if usable and fx <= fg:
                gbest, fg = x, fx
        best = _keep_best(best, fg, gbest)
        r = rng.random(2 * c.nparticles).tolist()
        for i in range(c.nparticles):
            v = (
                c.inertia * velocities[i]
                + c.coef_p * r[2 * i] * (pbest[i] - positions[i])
                + c.coef_g * r[2 * i + 1] * (gbest - positions[i])
            )
            velocities[i] = min(max(v, -c.max_velocity), c.max_velocity)
            positions[i] = _round_clamp(positions[i], velocities[i], s)
    return best


def _graank(rec: _Recorder, rng: None, s: SearchSpace, c: SearchConfig) -> _Best:
    """The exhaustive sweep: every valid candidate once, in ascending
    order, counted by :meth:`ConcordanceIndex.counts`.  It gets no
    generator, and the space kind and the iteration budget play no part."""
    if rec.d.m > MAX_ENUM_ATTRIBUTES:
        raise EnumerationLimitError(rec.d.m, MAX_ENUM_ATTRIBUTES)
    best = _NO_BEST
    for t, (x, pairs) in enumerate(rec.d.index.counts(), start=1):
        best = _keep_best(best, rec.log(t, x, rec.score(x, pairs)), x)
    return best


def graank_mine(d: Dataset, sigma: float) -> tuple[tuple[GradualPattern, float], ...]:
    """Every pattern of the dataset with support >= ``sigma``.

    This is the completeness reference the stochastic miners are judged
    against: whatever frequent set a seeded search reports must be a
    subset of this output, with identical supports.  Patterns with zero
    concordant pairs are excluded even at sigma = 0; they carry no
    information and the searchers treat them as unusable.  Output is
    sorted by descending support, then ascending candidate integer.
    Raises ``EnumerationLimitError`` when the attribute count makes
    enumeration unreasonable.
    """
    return run_miner("graank", d, build_space(d.m), SearchConfig(sigma=sigma)).frequent_patterns


#: Each miner is a loop ``(rec, rng, s, c) -> (fitness, candidate)``.
_MINERS: dict[str, Callable[..., _Best]] = {
    "rs": _rs, "ls": _ls, "ga": _ga, "pso": _pso, "graank": _graank
}

#: Names accepted by :func:`run_miner` (and the CLI's --algo flag).
ALGORITHMS = tuple(_MINERS)


def run_miner(algorithm: str, d: Dataset, s: SearchSpace, c: SearchConfig) -> SearchResult:
    """Run one miner by name and time it.

    The miner gets a fresh recorder and, unless it is the sweep, a
    generator seeded with ``c.seed``; the result decodes its best and
    frequent candidates in ``s``, which must span the dataset's
    attributes.  "graank" ignores the space kind and the iteration
    budget: it sweeps every valid candidate of the dataset once.
    """
    try:
        miner = _MINERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of: {', '.join(ALGORITHMS)}"
        ) from None
    if s.m != d.m:
        raise ValueError(f"a space over {s.m} attributes cannot search a table of {d.m}")
    t0 = time.perf_counter()
    rec = _Recorder(d, s, c.sigma)
    # The sweep draws nothing, and a process's first generator imports
    # numpy.random: 12-19 ms of each exhaustive ``gradmine mine`` on a
    # 2-vCPU x86-64 host.
    rng = None if miner is _graank else np.random.default_rng(c.seed)
    fitness, x = miner(rec, rng, s, c)
    frequent = rec.frequent()
    if x is None:
        pattern, sup = None, 0.0
    else:
        pattern, sup = to_pattern(x, s), rec.support(x)
    return SearchResult(pattern, sup, fitness, frequent, rec.trajectory(), time.perf_counter() - t0)
