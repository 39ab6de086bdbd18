"""The five miners and :func:`run_miner`, the one door to all of them.

Four seeded searchers walk an integer-encoded candidate space: random
search ("rs"), stochastic hill climbing ("ls"), a small genetic algorithm
("ga") and particle swarm optimization ("pso"); "graank" sweeps every
valid candidate once.  Each searcher is a bare loop ``(rec, rng, s, c)``
over a recorder and a generator that :func:`run_miner` builds; the sweep
is a branch of :func:`run_miner`, with neither.  :func:`run_miner` also
times the run and turns the columns and the best into a
:class:`SearchResult`, deriving the support and the fitness
(``1/pairs``) of the best there, once.  The searchers

* compare concordant-pair counts: more pairs is lower fitness, so a
  candidate with at least as many pairs as the incumbent replaces it;
* draw every random number from the one generator, seeded with
  ``c.seed``, so (dataset, space, config) fully determines the run;
* log every objective call, in call order, in the trajectory's columns;
* never let an unusable candidate (zero pairs) become the incumbent
  best, a personal best or the global best.

One best rule holds for rs, ls, ga and the sweep, which return nothing:
the best is the last call with the most pairs, never a zero-pair one,
read off the trajectory's columns once the loop ends.  pso alone returns
its final global best, whose pair count never falls; it can differ from
the columns' last maximum when a personal-best re-check ties it.

The sweep fills the same columns a batch at a time, and so does rs,
which draws every candidate before it counts any.  :func:`run_miner`
reads every miner's frequent set (each distinct usable candidate whose
support meets ``sigma``) off them, so one rule holds for all five;
:func:`graank_mine` is the sweep's frequent set on its own.

Objective-call budgets are part of the contract: rs makes T calls, ls
makes T+1 (the starting point counts), ga makes npop + 4T (two offspring
and two mutants per iteration) and pso makes 3 per particle per iteration
(position, personal best, global best).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .dataset import Dataset, object_pair_count
from .encoding import (
    GradualPattern,
    SearchSpace,
    _down_mask,
    build_space,
    invalid_reason,
    to_pattern,
)

if TYPE_CHECKING:
    import numpy as np


#: By the type of a field's default: the values it takes, and their name.
_SCALAR_KINDS = {bool: (bool, "bool"), int: (numbers.Integral, "int"),
                 float: (numbers.Real, "int or float"), str: (str, "str")}


def check_scalar_fields(record: Any) -> None:
    """Raise ValueError naming the first field of the named-tuple
    ``record`` whose default is a scalar and whose value is not of that
    default's kind, or whose float field holds a value that is not
    finite as a float (an int past the float range included).  numpy
    scalars count as Python ones, and bool, an int subclass, fits bool
    fields alone."""
    for name, default in record._field_defaults.items():
        if type(default) in _SCALAR_KINDS:
            kinds, kind_name = _SCALAR_KINDS[type(default)]
            value = getattr(record, name)
            if not isinstance(value, kinds) or (isinstance(value, bool) and kind_name != "bool"):
                raise ValueError(f"{name} must be {kind_name}, got {value!r}")
            if kinds is numbers.Real:
                try:
                    finite = math.isfinite(float(value))
                except OverflowError:
                    finite = False
                if not finite:
                    raise ValueError(f"{name} must be finite, got {value}")


class _SearchConfigFields(NamedTuple):
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


class SearchConfig(_SearchConfigFields):
    """Tuning knobs for every miner, checked when the config is made.

    Fields the chosen algorithm does not use are ignored, so one config
    can drive a whole benchmark.  Defaults are round mid-range values,
    and the CLI's flags take theirs from here.  Each field must hold its
    default's kind (an int field takes no float or bool), every float
    field must be finite and ``seed`` nonnegative.  ``_replace`` and
    ``_make`` check too.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # The fields are set by the time this runs; it only checks them.
        check_scalar_fields(self)
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

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> SearchConfig:
        # namedtuple's own skips __init__, and _replace builds through it.
        return cls(*iterable)


class TrajectoryStep(NamedTuple):
    iteration: int
    candidate: int
    fitness: float
    valid: bool


class _TrajectoryColumns(NamedTuple):
    iterations: Sequence[int]
    candidates: list[int]
    pairs: list[int]


class Trajectory(_TrajectoryColumns):
    """Every objective call of one run, in call order, as columns: the
    iteration, the candidate and its concordant pairs (0 when unusable)."""

    # No __slots__: the instance dict holds the steps once they are read.

    @functools.cached_property
    def steps(self) -> tuple[TrajectoryStep, ...]:
        """The calls as steps, built on first read: fitness ``1/pairs``,
        valid when there is a pair, infinite and not valid otherwise.
        A row view for readers outside the package, which reads the columns."""
        return tuple(
            TrajectoryStep(t, x, 1.0 / p if p else math.inf, p > 0)
            for t, x, p in zip(self.iterations, self.candidates, self.pairs)
        )

    @property
    def evaluations(self) -> int:
        return len(self.candidates)


class SearchResult(NamedTuple):
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
    """The instrumented objective function: a memo of pair counts and
    the trajectory's columns.  :meth:`record`, the call of ls, ga and
    pso, counts each candidate integer once (the spaces are tiny, so
    repeat visits are common), logs the call and returns its pair count,
    0 for an unusable candidate.  Candidates are checked and counted as
    integers; only the results are decoded.  A new candidate is checked
    by :func:`invalid_reason`'s test, inlined on the space's down mask,
    and one outside the space raises its ``ValueError`` unlogged.
    :meth:`record_draw` logs rs's whole draw at once and memoizes its
    usable draws alone, since rs asks nothing again.  The dataset's
    index, built on first use, is reached only to count.
    """

    def __init__(self, d: Dataset, space: SearchSpace) -> None:
        self.d = d
        self.space = space
        self._down = _down_mask(space.m)
        self._lower, self._upper = space.lower, space.upper
        self._memo: dict[int, int] = {}
        self.iterations: list[int] = []
        self.candidates: list[int] = []
        self.pairs: list[int] = []

    def record(self, iteration: int, x: int) -> int:
        pairs = self._memo.get(x)
        if pairs is None:
            if not self._lower <= x <= self._upper:
                invalid_reason(x, self.space)  # raises ValueError
            # A conflict (both bits of one attribute) or fewer than two items.
            unusable = x & (x >> 1) & self._down or x.bit_count() < 2
            pairs = self._memo[x] = 0 if unusable else self.d.index.count_candidate(x)
        self.iterations.append(iteration)
        self.candidates.append(x)
        self.pairs.append(pairs)
        return pairs

    def record_draw(self, a: np.ndarray) -> None:
        """Log the in-space draw ``a`` (int64, or object past int64) as
        calls 1..len(a) of a fresh recorder: one array pass checks every
        draw, and the usable ones are counted in draw order."""
        import numpy as np

        usable = ((a & (a >> 1) & self._down) == 0) & ((a & (a - 1)) != 0)
        self.iterations = range(1, len(a) + 1)
        self.candidates = xs = a.tolist()
        self.pairs = pairs = [0] * len(xs)
        memo, count = self._memo, self.d.index.count_candidate
        for i in np.flatnonzero(usable).tolist():
            x = xs[i]
            p = memo.get(x)
            if p is None:
                p = memo[x] = count(x)
            pairs[i] = p


#: A miner's incumbent best: (pairs, candidate).
_Best = tuple[int, int | None]

#: The incumbent before any usable candidate.
_NO_BEST: _Best = (0, None)


def _last_best(candidates: Sequence[int], pairs: Sequence[int]) -> _Best:
    # The last candidate with the most pairs, or _NO_BEST when no call
    # had a pair.  reversed() walks the column without the copy a [::-1]
    # makes (36 MiB of an m = 14 sweep).
    top = max(pairs, default=0)
    if top == 0:
        return _NO_BEST
    return top, candidates[len(pairs) - 1 - operator.indexOf(reversed(pairs), top)]


# The searchers read their space's bounds once and pass them as ints: a
# field of a named tuple such as SearchSpace or SearchConfig is slower to
# read than a local, by about 12 ns a read (2-vCPU x86-64, Python 3.11),
# and the loops clamp and record once a call.
def _clamp(x: int, lower: int, upper: int) -> int:
    return lower if x < lower else upper if x > upper else x


#: Below this, integers and their halves are exact in float64.
_FLOAT_EXACT = 2**52


def _round_clamp(x: int, u: float, lower: int, upper: int) -> int:
    # ``x + u`` rounded and clamped into [lower, upper].  Only the bits of ``x``
    # below _FLOAT_EXACT meet the float, so float64 cannot swallow the
    # step on wider positions (m >= 27), and narrower ones round exactly
    # as ``int(round(x + u))``.
    low = x & (_FLOAT_EXACT - 1)
    try:
        y = x - low + round(low + u)
    except OverflowError:  # an infinite step (a GA nudge past float64) reaches a bound
        return upper if u > 0 else lower
    return lower if y < lower else upper if y > upper else y


#: numpy's integer draws take an int64 ``high`` (exclusive), so spaces
#: whose upper bound reaches this (m >= 32) are drawn by :func:`_wide_uniform`.
_INT64_HIGH = 2**63


def _wide_uniform(rng: np.random.Generator, s: SearchSpace, count: int) -> list[int]:
    # Rejection sampling over the fewest bits that cover the interval, so
    # fewer than two tries per draw are needed on average.  Each pass
    # takes the bytes of every open slot from one ``rng.bytes`` call and
    # leaves only the rejected slots open for the next.
    bits = (s.size - 1).bit_length()
    nbytes = (bits + 7) // 8
    shift = 8 * nbytes - bits
    out = [s.lower] * count
    open_slots = range(count)
    while open_slots:
        raw = rng.bytes(nbytes * len(open_slots))
        rejected = []
        for slot, at in zip(open_slots, range(0, len(raw), nbytes)):
            v = int.from_bytes(raw[at : at + nbytes], "big") >> shift
            if v < s.size:
                out[slot] += v
            else:
                rejected.append(slot)
        open_slots = rejected
    return out


def _draw(rng: np.random.Generator, s: SearchSpace, count: int) -> np.ndarray:
    # One sized draw yields the same stream as ``count`` scalar draws.
    # Wide draws stay Python ints: an array of them made by np.asarray
    # would be uint64, or float64 past it, which loses bits.
    import numpy as np

    if s.upper < _INT64_HIGH:
        return rng.integers(s.lower, s.upper + 1, size=count)
    return np.array(_wide_uniform(rng, s, count), dtype=object)


def _rs(rec: _Recorder, rng: np.random.Generator, s: SearchSpace, c: SearchConfig) -> None:
    """Uniform probing: one independent draw per iteration, all drawn
    first and logged as one batch."""
    rec.record_draw(_draw(rng, s, c.max_iterations))


def _ls(rec: _Recorder, rng: np.random.Generator, s: SearchSpace, c: SearchConfig) -> None:
    """Stochastic hill climbing with a bounded random step.

    A proposal is adopted when it has at least as many pairs as the
    current point.  Because 0 >= 0 holds, the walk keeps drifting across
    unusable ground instead of freezing on it.
    """
    (x,) = _draw(rng, s, 1).tolist()
    current = rec.record(0, x)
    try:
        steps = rng.uniform(-c.step_size, c.step_size, size=c.max_iterations).tolist()
    except OverflowError:  # 2 * step_size is past the float range; nothing was drawn
        steps = (rng.uniform(-1.0, 1.0, size=c.max_iterations) * c.step_size).tolist()
    lower, upper = s.lower, s.upper
    for t, u in enumerate(steps, start=1):
        proposal = _round_clamp(x, u, lower, upper)
        pairs = rec.record(t, proposal)
        if pairs >= current:
            x, current = proposal, pairs


#: Maps the bytes of a bool array to the digits "0" and "1".
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

#: Bytes of uniforms that :func:`_ga_moves` draws into one buffer, so its
#: memory does not grow with the iterations or m: 768 bytes an iteration
#: at m = 24 make 85 iterations a block, and one iteration at m = 2200
#: (70,400 bytes) is a block on its own.  A run shorter than a block
#: sizes the buffer to its own iterations.  In-process on a 2-vCPU x86-64
#: host, two 3,000-iteration runs at n = 150, m = 24 (fastest of nine,
#: CPU time) took 98 ms at 1 KiB, one iteration a block, and 80-84 ms
#: from 4 KiB to 256 KiB.
GA_DRAW_BYTES = 2**16


def _ga_moves(
    rng: np.random.Generator, s: SearchSpace, c: SearchConfig
) -> Iterator[tuple[int | None, int, float, int, float]]:
    """Each GA iteration's draws as (low, mask1, nudge1, mask2, nudge2),
    taken a block of iterations at a time in the loop's order: the
    crossover coin, the cut point when it crosses (``low`` is the mask of
    the bits below it, None when the parents are copied), then for each
    mutant 2m uniforms and one ``standard_normal()``.  No draw depends on
    a count, so drawing ahead leaves the stream unchanged.

    A mutant's uniforms below ``mutation_rate`` flip its bits, the first
    one the top bit; a block's masks come from one comparison and one
    ``bytes.translate`` into binary digits (base 2 is exempt from int's
    digit limit).  The nudge is numpy's ``normal(0, scale)`` without its
    ``0.0 +``.
    """
    import numpy as np

    nbits = 2 * s.m
    per_block = max(1, min(c.max_iterations, GA_DRAW_BYTES // (2 * nbits * 8)))
    buf = np.empty((2 * per_block, nbits))
    rows = list(buf)
    for start in range(0, c.max_iterations, per_block):
        n = min(per_block, c.max_iterations - start)
        draws = []
        for i in range(0, 2 * n, 2):
            low = None
            if rng.random() < c.crossover_rate:
                low = (1 << (nbits - int(rng.integers(1, nbits)))) - 1
            rng.random(out=rows[i])
            u1 = rng.standard_normal() * c.mutation_scale
            rng.random(out=rows[i + 1])
            draws.append((low, u1, rng.standard_normal() * c.mutation_scale))
        digits = (buf[: 2 * n] < c.mutation_rate).tobytes().translate(_BINARY_DIGITS)
        for at, (low, u1, u2) in zip(range(0, len(digits), 2 * nbits), draws):
            mid = at + nbits
            yield low, int(digits[at:mid], 2), u1, int(digits[mid : mid + nbits], 2), u2


def _ga(rec: _Recorder, rng: np.random.Generator, s: SearchSpace, c: SearchConfig) -> None:
    """Small elitist genetic algorithm over the bit representation.

    The population is a list of (-pairs, candidate) members kept
    sorted, the order of (fitness, candidate): unusable ones (0 pairs)
    come last and ties go to the lower integer.  Each iteration takes
    the first two members as parents, recombines them by single-point
    bit crossover with probability ``crossover_rate`` (otherwise copies
    them), then mutates each offspring by bit flips and an integer-scale
    Gaussian nudge, rounded and clamped into the interval; all four
    results are evaluated and appended, and the list is sorted again and
    truncated to its first ``npop`` members.  The draws come from
    :func:`_ga_moves`.  Exactly four objective calls per iteration.
    """
    pop = [(-rec.record(0, x), x) for x in _draw(rng, s, c.npop).tolist()]
    pop.sort()
    lower, upper = s.lower, s.upper
    for t, (low, mask1, u1, mask2, u2) in enumerate(_ga_moves(rng, s, c), start=1):
        (_, x1), (_, x2) = pop[0], pop[1]
        if low is None:
            c1, c2 = x1, x2
        else:
            # The bits above the cut come from one parent, the rest from
            # the other.  Recombined bits can leave a numeric-space
            # interval, so the children are clamped back in like every
            # other move.
            c1 = _clamp((x1 & ~low) | (x2 & low), lower, upper)
            c2 = _clamp((x2 & ~low) | (x1 & low), lower, upper)
        for x in (c1, c2, _round_clamp(c1 ^ mask1, u1, lower, upper),
                  _round_clamp(c2 ^ mask2, u2, lower, upper)):
            pop.append((-rec.record(t, x), x))
        pop.sort()
        del pop[c.npop :]


def _exact_velocity(c: SearchConfig, v0: float, rp: float, dp: int, rg: float, dg: int) -> float:
    # _pso's clipped velocity, summed in exact fractions where float64 fails.
    from fractions import Fraction as F  # imported off the common path

    v = F(c.inertia) * F(v0) + F(c.coef_p) * F(rp) * dp + F(c.coef_g) * F(rg) * dg
    return float(min(max(v, -c.max_velocity), c.max_velocity))


def _pso(rec: _Recorder, rng: np.random.Generator, s: SearchSpace, c: SearchConfig) -> _Best | None:
    """Particle swarm over the integer interval.

    Per particle and iteration there are exactly three objective calls:
    the position, the personal best and the global best, in that order.
    Personal and global bests only move to usable positions with at
    least as many pairs as the incumbent, so the global best's pairs
    never fall and the final global best, which it returns (None when no
    call was usable), is the run's best.  After the swarm sweep every
    particle moves with a velocity clipped to ``max_velocity`` and a
    position rounded and clamped to the interval.
    """
    positions = _draw(rng, s, c.nparticles).tolist()
    velocities = [0.0] * c.nparticles
    pbest = list(positions)
    gbest = pbest[0]
    # Every iteration's r1/r2 in one draw: pso draws nothing else after
    # the positions, so this is the stream of one draw per iteration.  It
    # stays a float64 array (8 bytes a number, not a nested list's 32),
    # and each iteration takes its row as floats.
    draws = rng.random((c.max_iterations, 2 * c.nparticles))
    w, cp, cg, vmax = c.inertia, c.coef_p, c.coef_g, c.max_velocity
    lower, upper = s.lower, s.upper
    for t, row in enumerate(draws, start=1):
        r = row.tolist()
        for i, x in enumerate(positions):
            px, pp = rec.record(t, x), rec.record(t, pbest[i])
            if px and px >= pp:
                pbest[i] = x
            pg = rec.record(t, gbest)
            if px and px >= pg:
                gbest, pg = x, px
        for i in range(c.nparticles):
            rp, rg, dp, dg = r[2 * i], r[2 * i + 1], pbest[i] - positions[i], gbest - positions[i]
            try:
                v = w * velocities[i] + cp * rp * dp + cg * rg * dg
            except OverflowError:  # a pull past float64's range (m > 512)
                v = math.nan
            if v != v:  # ... or inf - inf of huge weights
                v = _exact_velocity(c, velocities[i], rp, dp, rg, dg)
            velocities[i] = min(max(v, -vmax), vmax)
            positions[i] = _round_clamp(positions[i], velocities[i], lower, upper)
    return (pg, gbest) if pg else None


#: Largest attribute count the exhaustive sweep accepts.  The sweep keeps
#: two trajectory lists (its iteration column is a range), about 48 bytes
#: per candidate, 3x more per attribute.  Measured in-process at n=40,
#: sigma=0.5, on a 2-vCPU x86-64 host (time, RSS growth): m=11 0.07 s,
#: 9 MiB; m=12 0.21-0.22 s, 26 MiB; m=13 0.70 s, 77 MiB; m=14 1.8-2.5 s,
#: 232 MiB (4,782,940 candidates; 12 MiB of it the mirror's swap table);
#: m=16 would take 2 GiB.
#: So the guard bounds the columns' memory, not the decoded output's:
#: at sigma=0 every candidate with a pair is frequent and decoded, and a
#: ``gradmine mine`` child at m=14 printed 2,753,786 lines in 45.6 s and
#: peaked at 1,175 MiB.
MAX_ENUM_ATTRIBUTES = 14


class EnumerationLimitError(RuntimeError):
    """Raised when the exhaustive sweep would exceed the attribute guard."""


def graank_mine(d: Dataset, sigma: float) -> tuple[tuple[GradualPattern, float], ...]:
    """Every pattern of the dataset with support >= ``sigma``.

    This is the completeness reference the stochastic miners are judged
    against: whatever frequent set a seeded search reports must be a
    subset of this output, with identical supports.  Patterns with zero
    concordant pairs are excluded even at sigma = 0; they carry no
    information and the searchers treat them as unusable.  Output is
    sorted by descending support, then ascending candidate integer.
    Raises ``EnumerationLimitError`` beyond ``MAX_ENUM_ATTRIBUTES``
    attributes.
    """
    return run_miner("graank", d, build_space(d.m), SearchConfig(sigma=sigma)).frequent_patterns


#: Each searcher is a loop ``(rec, rng, s, c)``; only pso returns its best.
_SEARCHERS: dict[str, Callable[..., _Best | None]] = {"rs": _rs, "ls": _ls, "ga": _ga, "pso": _pso}

#: Names accepted by :func:`run_miner` (and the CLI's --algo flag).
ALGORITHMS = (*_SEARCHERS, "graank")


def run_miner(algorithm: str, d: Dataset, s: SearchSpace, c: SearchConfig) -> SearchResult:
    """Run one miner by name and time it.

    A searcher gets a fresh recorder and a generator seeded with
    ``c.seed``.  "graank" gets neither and ignores the space kind and the
    iteration budget: it counts every valid candidate once, in ascending
    order, refusing more than ``MAX_ENUM_ATTRIBUTES`` attributes before
    the index is built.  The best is pso's own, else the columns' last
    maximum; it and the frequent candidates are decoded in ``s``, which
    must span the dataset's attributes.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of: {', '.join(ALGORITHMS)}"
        )
    if s.m != d.m:
        raise ValueError(f"a space over {s.m} attributes cannot search a table of {d.m}")
    t0 = time.perf_counter()
    if algorithm == "graank":
        if d.m > MAX_ENUM_ATTRIBUTES:
            raise EnumerationLimitError(
                f"cannot enumerate candidates for {d.m} attributes (guard: {MAX_ENUM_ATTRIBUTES})"
            )
        # Built here before numpy loads, d.index holds int rows while the
        # ANDs fit fitness.SWEEP_INT_BYTES: a fresh ``gradmine mine`` of a
        # 560 x 6 table took 109-150 ms and peaked at 16.5 MiB, against
        # 243-345 ms and 29.7 MiB with numpy (2-vCPU x86-64 host).
        candidates, pairs = d.index.count_all()
        iterations, best = range(1, len(candidates) + 1), None
    else:
        import numpy as np

        rec = _Recorder(d, s)
        best = _SEARCHERS[algorithm](rec, np.random.default_rng(c.seed), s, c)
        iterations, candidates, pairs = rec.iterations, rec.candidates, rec.pairs
    top, x = best or _last_best(candidates, pairs)
    all_pairs, sigma = object_pair_count(d), c.sigma
    frequent = {y: p for y, p in zip(candidates, pairs) if p and p / all_pairs >= sigma}
    order = sorted(frequent, key=lambda y: (-frequent[y], y))
    patterns = tuple((to_pattern(y, s), frequent[y] / all_pairs) for y in order)
    pattern = None if x is None else to_pattern(x, s)
    fitness = 1.0 / top if top else math.inf
    trajectory = Trajectory(iterations, candidates, pairs)
    return SearchResult(
        pattern, top / all_pairs, fitness, patterns, trajectory, time.perf_counter() - t0
    )
