"""Gradual-pattern mining over numeric tables.

A gradual pattern is a co-variation rule like "the higher the age, the
higher the session count".  This package encodes candidate patterns as
integers, scores them by the fraction of strictly concordant object
pairs, and finds frequent ones either exhaustively or with seeded
stochastic searchers (random search, hill climbing, a genetic
algorithm, particle swarm).  A benchmark harness compares the miners
across candidate spaces with an exact signed-rank test.
"""

from .dataset import Dataset, DatasetError, load_dataset, object_pair_count
from .encoding import (
    Direction,
    GradualItem,
    GradualPattern,
    InvalidReason,
    SearchSpace,
    SpaceKind,
    build_space,
    encode,
    enumerate_valid,
    invalid_reason,
    to_pattern,
    valid_candidate_count,
)
from .fitness import ConcordanceIndex, concordant_count_brute
from .search import (
    ALGORITHMS,
    EnumerationLimitError,
    SearchConfig,
    SearchResult,
    Trajectory,
    TrajectoryStep,
    graank_mine,
    run_miner,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BenchCell",
    "BenchReport",
    "BenchSpec",
    "ConcordanceIndex",
    "Dataset",
    "DatasetError",
    "Direction",
    "EnumerationLimitError",
    "GradualItem",
    "GradualPattern",
    "InvalidReason",
    "SearchConfig",
    "SearchResult",
    "SearchSpace",
    "SpaceKind",
    "Trajectory",
    "TrajectoryStep",
    "WilcoxonOutcome",
    "build_space",
    "concordant_count_brute",
    "encode",
    "enumerate_valid",
    "graank_mine",
    "invalid_reason",
    "load_dataset",
    "object_pair_count",
    "run_benchmark",
    "run_miner",
    "space_comparison",
    "to_pattern",
    "valid_candidate_count",
    "wilcoxon_signed_rank",
    "write_report_csv",
    "write_report_json",
    "write_scatter_csv",
    "__version__",
]

#: The names of ``__all__`` not bound above: the harness's, imported on
#: first use (PEP 562), so that ``mine`` and ``space`` load neither the
#: harness nor ``json`` and ``tracemalloc``.
_HARNESS_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name: str):
    if name not in _HARNESS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import harness

    return getattr(harness, name)
