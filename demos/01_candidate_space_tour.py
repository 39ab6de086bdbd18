"""
A tour of the candidate space
=============================

Candidate gradual patterns ("the higher age, the lower marks") are
packed into plain integers.  This script walks the encoding for three
attributes: bits, bounds, enumeration, and why the numeric interval is
the better place to sample.
"""

import numpy as np

from gradmine import (
    SpaceKind,
    build_space,
    encode,
    enumerate_valid,
    invalid_reason,
    to_pattern,
    valid_candidate_count,
)

# Each attribute owns two adjacent bits: "10" means increasing, "01"
# means decreasing, "00" means absent.  Attribute 0 sits at the most
# significant end.  With names for the three columns:
names = ("age", "sessions", "marks")

space = build_space(3)
print(f"numeric space for 3 attributes: [{space.lower}, {space.upper}]")

# Decode one candidate by hand.  101000 reads as: age "10" (up),
# sessions "10" (up), marks "00" (absent).  The integer is decoded
# directly; the bit string is only for display.
pattern = to_pattern(40, space)
print(f"40 -> {40:06b} -> {pattern.render(names)}")

# Encoding is the inverse walk.
print(f"back again: {encode(pattern, 3)}")

# Not every integer is a pattern.  "11" fields (both directions at
# once) and fewer than two active attributes are rejected:
# invalid_reason names the rule (None for a pattern), and to_pattern
# raises ValueError on such a candidate.  The bitmap space spans all of
# [0, 4^m - 1], so any 2m-bit integer can be probed.
probe = build_space(3, SpaceKind.BITMAP)
for x in (0, 4, 15, 40):
    print(f"invalid_reason({x:2d}) = {invalid_reason(x, probe)}")

# The valid candidates can be listed outright for small spaces.
valid = enumerate_valid(space)
print(f"\nall {len(valid)} valid candidates for 3 attributes:")
for x in valid:
    print(f"  {x:3d}  {x:06b}  {to_pattern(x, space).render(names)}")

# The count follows a closed form: 3^m - 2m - 1.  Each attribute is
# up/down/absent (3^m), minus the single-item and empty selections.
for m in (2, 3, 4, 5):
    print(f"m={m}: {valid_candidate_count(m)} valid candidates")

# Why bother with the numeric interval at all?  The full bitmap range
# [0, 4^m - 1] contains the same valid candidates but vastly more
# junk.  Sample both uniformly and compare hit rates.
rng = np.random.default_rng(0)
m = 10
numeric = build_space(m)
bitmap = build_space(m, SpaceKind.BITMAP)
for label, sp in (("numeric", numeric), ("bitmap", bitmap)):
    xs = rng.integers(sp.lower, sp.upper + 1, size=20_000)
    hits = sum(invalid_reason(int(x), sp) is None for x in xs)
    print(f"{label:8s} space, m={m}: {hits / len(xs):.4f} of samples are valid")
