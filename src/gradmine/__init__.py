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
    EnumerationLimitError,
    GradualItem,
    GradualPattern,
    InvalidCandidate,
    InvalidReason,
    SearchSpace,
    SpaceKind,
    build_space,
    encode,
    enumerate_valid,
    is_valid,
    to_pattern,
    valid_candidate_count,
)
from .fitness import (
    ConcordanceIndex,
    Evaluation,
    concordant_count,
    concordant_count_brute,
    fitness_of,
    is_frequent,
    support,
)
from .harness import (
    BenchCell,
    BenchReport,
    BenchSpec,
    WilcoxonOutcome,
    run_benchmark,
    scatter_extract,
    space_comparison,
    wilcoxon_signed_rank,
    write_report_csv,
    write_report_json,
    write_scatter_csv,
)
from .search import (
    ALGORITHMS,
    SearchConfig,
    SearchResult,
    Trajectory,
    TrajectoryStep,
    ga_grad,
    graank_mine,
    ls_grad,
    pso_grad,
    rs_grad,
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
    "Evaluation",
    "GradualItem",
    "GradualPattern",
    "InvalidCandidate",
    "InvalidReason",
    "SearchConfig",
    "SearchResult",
    "SearchSpace",
    "SpaceKind",
    "Trajectory",
    "TrajectoryStep",
    "WilcoxonOutcome",
    "build_space",
    "concordant_count",
    "concordant_count_brute",
    "encode",
    "enumerate_valid",
    "fitness_of",
    "ga_grad",
    "graank_mine",
    "is_frequent",
    "is_valid",
    "load_dataset",
    "ls_grad",
    "object_pair_count",
    "pso_grad",
    "rs_grad",
    "run_benchmark",
    "run_miner",
    "scatter_extract",
    "space_comparison",
    "support",
    "to_pattern",
    "valid_candidate_count",
    "wilcoxon_signed_rank",
    "write_report_csv",
    "write_report_json",
    "write_scatter_csv",
    "__version__",
]
