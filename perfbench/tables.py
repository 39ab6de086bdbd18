"""Seeded synthetic tables for the benchmark.

A table is built in two steps.

1. :func:`latent_table` draws one latent factor per object and gives every
   attribute a loading of random sign on it plus independent noise, then
   rounds to a coarse integer grid so that tied values are common.  This
   fixes every pairwise order of the table, and so every support.
2. :func:`relabel` takes the run seed, shuffles the rows and maps each
   column through its own strictly increasing integer map ``a*v + b``
   (``a >= 1``).  Neither step changes a strict order or a tie between
   two objects, so every support, every miner's output and every
   objective value stays the same while the bytes the program reads
   differ from seed to seed.

That split is what lets output digests recorded once hold for every
``--seed``: the latent table uses a fixed content seed per table, the run
seed only relabels it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def latent_table(content_seed: int, n: int, m: int, levels: int = 24) -> np.ndarray:
    """An n x m integer matrix: one latent factor plus noise, rounded.

    Loadings are drawn in [0.4, 1.0] with random signs, so both increasing
    and decreasing items appear in frequent patterns; ``levels`` sets the
    rounding grid (fewer levels, more ties).
    """
    rng = np.random.default_rng(content_seed)
    factor = rng.standard_normal(n)
    loadings = rng.uniform(0.4, 1.0, size=m) * rng.choice((-1.0, 1.0), size=m)
    noise = rng.standard_normal((n, m)) * rng.uniform(0.3, 0.8, size=m)
    raw = factor[:, None] * loadings[None, :] + noise
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    return np.rint((raw - lo) / (hi - lo) * (levels - 1)).astype(np.int64)


def relabel(values: np.ndarray, seed: int) -> np.ndarray:
    """Shuffle rows and apply a strictly increasing integer map per column."""
    rng = np.random.default_rng(seed)
    n, m = values.shape
    scale = rng.integers(1, 10, size=m)
    offset = rng.integers(-500, 501, size=m)
    return values[rng.permutation(n)] * scale[None, :] + offset[None, :]


def column_names(m: int) -> tuple[str, ...]:
    return tuple(f"a{j}" for j in range(m))


def write_csv(path: Path, values: np.ndarray) -> None:
    """Header ``a0,...`` then one comma-separated integer row per object."""
    lines = [",".join(column_names(values.shape[1]))]
    lines += [",".join(str(int(v)) for v in row) for row in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_table(path: Path, content_seed: int, n: int, m: int, seed: int) -> None:
    write_csv(path, relabel(latent_table(content_seed, n, m), seed))
