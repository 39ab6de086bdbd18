"""
Five miners, one table
======================

The same mining job run five ways: exhaustive sweep, random search,
hill climbing, a genetic algorithm and particle swarm.  All five share
one integer-valued objective and one seeded random stream, so every
run here reproduces exactly.
"""

import numpy as np

from gradmine import ALGORITHMS, Dataset, SearchConfig, build_space, run_miner

names = ("age", "sessions", "marks")
rows = np.array(
    [
        [23, 2, 55],
        [32, 4, 64],
        [40, 5, 78],
        [25, 5, 48],
    ],
    dtype=float,
)
d = Dataset(names, rows)
space = build_space(d.m)

# One config drives all miners; fields irrelevant to a miner are
# simply unused.  sigma is the support threshold for the report.
config = SearchConfig(max_iterations=20, seed=0, sigma=0.5)

for algo in ALGORITHMS:
    result = run_miner(algo, d, space, config)
    best = (
        "nothing usable"
        if result.best_pattern is None
        else f"{result.best_pattern.render(names)}  support={result.best_support:.4f}"
    )
    print(f"{algo:7s} best: {best}")
    print(f"        objective calls: {result.trajectory.evaluations}")
    print(f"        frequent patterns found: {len(result.frequent_patterns)}")

# The exhaustive miner visits each of the 20 valid candidates once and
# is the completeness reference: heuristics can only ever find a
# subset of its output.  Print its full frequent set.
print("\nexhaustive frequent set at sigma=0.5:")
sweep = run_miner("graank", d, space, config)
for pattern, s in sweep.frequent_patterns:
    print(f"  {pattern.render(names)}  support={s:.4f}")

# Budgets are exact functions of the configuration: rs spends T calls,
# ls T+1, ga npop + 4T, pso 3 * nparticles * T.  Verify two of them.
rs = run_miner("rs", d, space, config)
ga = run_miner("ga", d, space, config)
print(f"\nrs calls: {rs.trajectory.evaluations} (= T = {config.max_iterations})")
print(
    f"ga calls: {ga.trajectory.evaluations}"
    f" (= npop + 4T = {config.npop} + {4 * config.max_iterations})"
)

# Same seed, same trajectory - bit for bit.
again = run_miner("ga", d, space, config)
print(f"ga rerun identical: {again.trajectory == ga.trajectory}")
