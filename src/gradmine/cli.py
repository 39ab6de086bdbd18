"""Command-line front door.

Three subcommands: ``mine`` runs one miner over one dataset and prints
the result, ``space`` inspects the candidate space for an attribute
count or a dataset, and ``bench`` runs a benchmark grid and writes
report files.

Exit codes: 0 success, 1 data or runtime failure, 2 usage error.  The
``GRADMINE_SEED`` environment variable replaces the built-in default
seed; an explicit ``--seed``/``--base-seed`` flag still wins.  Mining
output deliberately excludes wall-clock time so identical seeded runs
print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .dataset import Dataset, DatasetError, load_dataset
from .encoding import (
    EnumerationLimitError,
    GradualPattern,
    SpaceKind,
    build_space,
    enumerate_valid,
    to_pattern,
    valid_candidate_count,
)
from .harness import (
    BenchSpec,
    run_benchmark,
    scatter_extract,
    space_comparison,
    write_report_csv,
    write_report_json,
    write_scatter_csv,
)
from .search import ALGORITHMS, SearchConfig, run_miner

#: Without --algo: exhaustive mining up to this many attributes, "ga" beyond.
#: The sweep grows about 3x per attribute; in-process, at n=160 and
#: sigma=0.5 on a 2-vCPU x86-64 host, it took 0.04-0.05 s at m=8,
#: 0.12-0.17 s at m=9, 0.46-0.49 s at m=10 and 1.3-1.6 s at m=11.
AUTO_ALGO_MAX_ATTRS = 8

_DELIMITERS = {"comma": ",", "semicolon": ";", "tab": "\t"}

_SPACES = sorted(kind.value for kind in SpaceKind)

_DEFAULTS = SearchConfig()

#: The searchers' tuning flags of ``mine``: (flag, SearchConfig field,
#: help).  Each flag takes its type and default from the field.
_TUNING = (
    ("--step", "step_size", "ls step size"),
    ("--npop", "npop", "ga population size"),
    ("--gamma", "crossover_rate", "ga crossover rate"),
    ("--mu", "mutation_rate", "ga mutation rate"),
    ("--mscale", "mutation_scale", "ga mutation scale"),
    ("--nparticles", "nparticles", "pso particle count"),
    ("--vmax", "max_velocity", "pso velocity cap"),
    ("--coef-p", "coef_p", "pso local pull"),
    ("--coef-g", "coef_g", "pso global pull"),
    ("--inertia", "inertia", "pso inertia"),
)


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get("GRADMINE_SEED")
    if raw is None or raw == "":
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"GRADMINE_SEED must be an integer, got {raw!r}") from None


def _attr_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("need at least 2 attributes")
    return value


def _load(args: argparse.Namespace) -> Dataset:
    return load_dataset(
        args.data,
        delimiter=_DELIMITERS[args.delimiter],
        has_header=not args.no_header,
    )


def _config_from_args(args: argparse.Namespace, seed: int) -> SearchConfig:
    # argparse keeps --coef-p as args.coef_p.
    tuning = {name: getattr(args, flag[2:].replace("-", "_")) for flag, name, _ in _TUNING}
    return SearchConfig(max_iterations=args.iters, seed=seed, sigma=args.min_sup, **tuning)


def cmd_mine(args: argparse.Namespace) -> int:
    try:
        d = _load(args)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    auto = args.algo is None
    algo = args.algo or ("graank" if d.m <= AUTO_ALGO_MAX_ATTRS else "ga")
    try:
        seed = _resolve_seed(args.seed)
        config = _config_from_args(args, seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    space = build_space(d.m, SpaceKind(args.space))
    try:
        result = run_miner(algo, d, space, config)
    except Exception as exc:  # exit 1, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = d.attribute_names
    if args.out == "json":
        best = None
        if result.best_pattern is not None:
            best = {
                "pattern": result.best_pattern.render(names),
                "support": result.best_support,
                "fitness": result.best_fitness,
            }
        payload = {
            "dataset": str(args.data),
            "objects": d.n,
            "attributes": d.m,
            "attribute_names": list(names),
            "algorithm": algo,
            "space": args.space,
            "bounds": [space.lower, space.upper],
            "min_support": args.min_sup,
            "seed": seed,
            "iterations": args.iters,
            "best": best,
            "frequent_patterns": [
                {"pattern": p.render(names), "support": s}
                for p, s in result.frequent_patterns
            ],
            "evaluations": result.trajectory.evaluations,
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(f"dataset: {args.data} ({d.n} objects, {d.m} attributes)")
    print(f"algorithm: {algo}{' (auto)' if auto else ''}")
    print(f"space: {args.space} [{space.lower}, {space.upper}]")
    print(f"min support: {args.min_sup}")
    print(f"seed: {seed}")
    if result.best_pattern is None:
        print("best: none (no usable candidate evaluated)")
    else:
        print(
            f"best: {result.best_pattern.render(names)}"
            f"  support={result.best_support:.4f}"
            f"  fitness={result.best_fitness:.4g}"
        )
    print(f"frequent patterns: {len(result.frequent_patterns)}")
    for pattern, sup in result.frequent_patterns:
        print(f"  {pattern.render(names)}  support={sup:.4f}")
    print(f"evaluations: {result.trajectory.evaluations}")
    return 0


def cmd_space(args: argparse.Namespace) -> int:
    if args.attrs is not None:
        m = args.attrs
        names = [f"col{i}" for i in range(m)]
    else:
        try:
            d = _load(args)
        except DatasetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        m = d.m
        names = list(d.attribute_names)

    space = build_space(m, SpaceKind(args.space))
    print(f"bounds: [{space.lower}, {space.upper}], valid: {valid_candidate_count(m)}")
    if args.list_valid:
        try:
            candidates = enumerate_valid(space)
        except EnumerationLimitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for x in candidates:
            pattern = to_pattern(x, space)
            assert isinstance(pattern, GradualPattern)
            print(f"{x}\t{x:0{2 * m}b}\t{pattern.render(names)}")
    return 0


def _spec_from_args(args: argparse.Namespace) -> BenchSpec:
    if args.spec is not None:
        return BenchSpec.from_json(args.spec)
    return BenchSpec(
        datasets=tuple(args.data),
        algorithms=tuple(dict.fromkeys(args.algos)),
        spaces=tuple(dict.fromkeys(args.spaces)),
        repetitions=args.reps,
        sigma=args.min_sup,
        base_seed=_resolve_seed(args.base_seed),
        max_iterations=args.iters,
        delimiter=_DELIMITERS[args.delimiter],
        has_header=not args.no_header,
        save_trajectories=args.save_trajectories,
        measure_memory=args.measure_memory,
    )


def cmd_bench(args: argparse.Namespace) -> int:
    if args.spec is None and not args.data:
        print("error: either --spec or --data is required", file=sys.stderr)
        return 2
    try:
        spec = _spec_from_args(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: benchmark spec: {exc}", file=sys.stderr)
        return 2

    report = run_benchmark(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(out_dir / "report.json", report)
    write_report_csv(out_dir / "report.csv", report)

    if spec.save_trajectories:
        scatter_dir = out_dir / "scatter"
        scatter_dir.mkdir(exist_ok=True)
        for cell in report.cells:
            if cell.trajectories is None:
                continue
            tag = f"{cell.dataset}_{cell.algorithm}_{cell.space or 'full'}"
            for rep, steps in enumerate(cell.trajectories):
                write_scatter_csv(scatter_dir / f"{tag}_rep{rep}.csv", scatter_extract(steps))

    for failure in report.failures:
        print(f"dataset failed: {failure.path}: {failure.error}", file=sys.stderr)
    for cell in report.cells:
        if cell.error is not None:
            where = f"{cell.dataset}/{cell.algorithm}" + (f"/{cell.space}" if cell.space else "")
            print(f"cell failed: {where}: {cell.error}", file=sys.stderr)

    if len(set(spec.spaces)) == len(SpaceKind):
        for algo in spec.algorithms:
            if algo == "graank":
                continue
            try:
                outcome = space_comparison(report, algo)
            except ValueError as exc:
                print(f"wilcoxon {algo}: skipped ({exc})")
                continue
            print(
                f"wilcoxon {algo}: W={outcome.statistic:g} p={outcome.p_value:.4f}"
                f" n={outcome.n} zeros_dropped={outcome.zeros_dropped}"
            )
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'report.csv'}")
    failed = report.failures or any(cell.error is not None for cell in report.cells)
    return 1 if failed else 0


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--delimiter", choices=sorted(_DELIMITERS), default="comma", help="CSV delimiter"
    )
    p.add_argument(
        "--no-header", action="store_true", help="treat the first row as data, not names"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradmine",
        description="Mine gradual patterns (co-variation rules) from numeric CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentDefaultsHelpFormatter

    mine = sub.add_parser("mine", help="run one miner over one dataset", formatter_class=fmt)
    mine.add_argument("--data", required=True, help="CSV file to mine")
    mine.add_argument(
        "--algo",
        choices=ALGORITHMS,
        default=None,
        help="miner; default picks graank for narrow data, ga for wide",
    )
    mine.add_argument("--space", choices=_SPACES, default="numeric")
    mine.add_argument("--min-sup", type=float, default=0.5, help="support threshold")
    mine.add_argument("--iters", type=int, default=_DEFAULTS.max_iterations)
    mine.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    for flag, name, text in _TUNING:
        default = getattr(_DEFAULTS, name)
        mine.add_argument(flag, type=type(default), default=default, help=text)
    mine.add_argument("--out", choices=("text", "json"), default="text")
    _add_data_flags(mine)
    mine.set_defaults(func=cmd_mine)

    space = sub.add_parser(
        "space", help="show candidate-space bounds and valid candidates", formatter_class=fmt
    )
    which = space.add_mutually_exclusive_group(required=True)
    which.add_argument("--attrs", type=_attr_count, default=None, help="attribute count")
    which.add_argument("--data", default=None, help="CSV file to take the attribute count from")
    space.add_argument("--space", choices=_SPACES, default="numeric")
    space.add_argument(
        "--list-valid", action="store_true", help="print decimal, bits and pattern per candidate"
    )
    _add_data_flags(space)
    space.set_defaults(func=cmd_space)

    bench = sub.add_parser(
        "bench", help="run a benchmark grid and write report files", formatter_class=fmt
    )
    bench.add_argument("--spec", default=None, help="JSON benchmark spec file")
    bench.add_argument("--data", nargs="+", default=None, help="dataset CSV files")
    bench.add_argument(
        "--algos", nargs="+", choices=ALGORITHMS, default=["rs", "ls", "ga", "pso"]
    )
    bench.add_argument("--spaces", nargs="+", choices=_SPACES, default=["numeric"])
    bench.add_argument("--reps", type=int, default=3, help="repetitions per cell")
    bench.add_argument("--min-sup", type=float, default=0.5)
    bench.add_argument("--iters", type=int, default=_DEFAULTS.max_iterations)
    bench.add_argument("--base-seed", type=int, default=None, help="seed for rep 0 (default 0)")
    bench.add_argument("--save-trajectories", action="store_true")
    bench.add_argument("--measure-memory", action="store_true")
    bench.add_argument("--out-dir", required=True, help="directory for report files")
    _add_data_flags(bench)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
