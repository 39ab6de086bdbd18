"""
Support: counting concordant pairs
==================================

A gradual pattern is scored by the fraction of object pairs that obey
all of its items at once, with strict inequalities.  This script works
the arithmetic on a four-person table, small enough to check by hand.
"""

import math

import numpy as np

from gradmine import (
    Dataset,
    SearchConfig,
    build_space,
    concordant_count_brute,
    object_pair_count,
    run_miner,
    to_pattern,
)

# Four course participants: age, counselling sessions, final marks.
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
print(f"{d.n} objects -> {object_pair_count(d)} unordered pairs")

space = build_space(d.m)

# Candidate 40 is {age+, sessions+}: "the older, the more sessions".
pattern = to_pattern(40, space)
print(f"\ncandidate 40 = {pattern.render(names)}")

# A pair is concordant when one row beats the other on every item in
# the pattern's direction; either row may play the "greater" role.
# Spell it out for all six pairs:
for i in range(d.n):
    for j in range(i + 1, d.n):
        fwd = all(rows[i, k] < rows[j, k] for k in (0, 1))
        rev = all(rows[j, k] < rows[i, k] for k in (0, 1))
        verdict = "concordant" if fwd or rev else "not concordant"
        print(f"  rows {i} and {j}: {verdict}")

# Rows 2 and 3 tie on sessions (5 vs 5) and ties never count, which is
# why the tally stops at 4 of 6.  The dataset's bit-packed index, built
# on first use, counts the same pairs; support divides by the pair total.
pairs = d.index.count(pattern)
print(f"\nbrute count : {concordant_count_brute(pattern, d)}")
print(f"indexed     : {pairs}")
print(f"support     : {pairs / object_pair_count(d):.4f}  (4/6)")

# The search objective inverts the raw count, so better patterns score
# lower and the minimum is the most supported pattern.  The exhaustive
# miner's trajectory keeps the pair count of every valid candidate.
t = run_miner("graank", d, space, SearchConfig(sigma=0.5)).trajectory
fitness = {x: 1.0 / p if p else math.inf for x, p in zip(t.candidates, t.pairs)}
print(f"fitness     : {fitness[40]}  (1/4)")

# Candidates that decode to nothing, or that no pair obeys, get an
# infinite sentinel and are never reported as results.
print(f"\ncandidate 26 -> fitness {fitness[26]}")  # {age-, sessions+, marks+}
