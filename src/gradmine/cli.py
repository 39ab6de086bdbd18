"""Command-line front door.

Three subcommands: ``mine`` runs one miner over one dataset and prints
the result, ``space`` inspects the candidate space for an attribute
count or a dataset, and ``bench`` runs a benchmark grid and writes
report files.

Exit codes: 0 success; 2 a usage error, before anything runs; 1 any
runtime failure, with one ``error: ...`` line; 1, silently, when stdout
closes early (``| head``).  Only :func:`main` turns an exception into 1.
Each flag's default equals the SearchConfig or BenchSpec field it sets.
``bench``'s are not read off BenchSpec, so that ``mine`` and ``space``
never import the harness; a test pins them to it instead.  Only
``--seed``/``--base-seed`` set the seed.  Mining output excludes
wall-clock time, so its bytes depend on argv and files alone.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .dataset import Dataset, load_dataset
from .encoding import (
    SpaceKind,
    build_space,
    enumerate_valid,
    to_pattern,
    valid_candidate_count,
)
from .search import ALGORITHMS, SearchConfig, run_miner

if TYPE_CHECKING:
    from .harness import BenchReport, BenchSpec

#: Without --algo: exhaustive mining up to this many attributes, "ga" beyond.
#: The sweep grows about 3x per attribute; in-process, at n=160 and
#: sigma=0.5 on a 2-vCPU x86-64 host, it took 0.007-0.010 s at m=8,
#: 0.018-0.020 s at m=9, 0.055-0.077 s at m=10 and 0.23 s at m=11.
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


def _config_from_args(args: argparse.Namespace) -> SearchConfig:
    # argparse keeps --coef-p as args.coef_p.
    tuning = {name: getattr(args, flag[2:].replace("-", "_")) for flag, name, _ in _TUNING}
    return SearchConfig(max_iterations=args.iters, seed=args.seed, sigma=args.min_sup, **tuning)


def cmd_mine(args: argparse.Namespace) -> int:
    # Usage errors first, so a bad flag exits 2 whatever the data file.
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    d = _load(args)

    auto = args.algo is None
    algo = args.algo or ("graank" if d.m <= AUTO_ALGO_MAX_ATTRS else "ga")
    space = build_space(d.m, SpaceKind(args.space))
    result = run_miner(algo, d, space, config)

    names = d.attribute_names
    if args.out == "json":
        import json  # here, so that text output does not load it

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
            "seed": config.seed,
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
    print(f"seed: {config.seed}")
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
        d = _load(args)
        m = d.m
        names = list(d.attribute_names)

    space = build_space(m, SpaceKind(args.space))
    print(f"bounds: [{space.lower}, {space.upper}], valid: {valid_candidate_count(m)}")
    if args.list_valid:
        for x in enumerate_valid(space):
            print(f"{x}\t{x:0{2 * m}b}\t{to_pattern(x, space).render(names)}")
    return 0


# The harness loads only when ``bench`` runs.  These three stay names of
# this module because the benchmark's tracer wraps them here.
def run_benchmark(spec: BenchSpec, scatter_dir: Path | None = None) -> BenchReport:
    from . import harness

    return harness.run_benchmark(spec, scatter_dir)


def write_report_json(path: Path, report: BenchReport) -> None:
    from . import harness

    harness.write_report_json(path, report)


def write_report_csv(path: Path, report: BenchReport) -> None:
    from . import harness

    harness.write_report_csv(path, report)


def _spec_from_args(args: argparse.Namespace) -> BenchSpec:
    from .harness import BenchSpec

    if args.spec is not None:
        return BenchSpec.from_json(args.spec)
    return BenchSpec(
        datasets=tuple(args.data),
        algorithms=tuple(dict.fromkeys(args.algos)),
        spaces=tuple(dict.fromkeys(args.spaces)),
        repetitions=args.reps,
        sigma=args.min_sup,
        base_seed=args.base_seed,
        max_iterations=args.iters,
        delimiter=_DELIMITERS[args.delimiter],
        has_header=not args.no_header,
        save_trajectories=args.save_trajectories,
        measure_memory=args.measure_memory,
    )


def cmd_bench(args: argparse.Namespace) -> int:
    from .harness import space_comparison

    try:
        spec = _spec_from_args(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: benchmark spec: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    scatter_dir = out_dir / "scatter"
    # Made before the grid runs, so a path that cannot be a directory
    # fails at once, not after the last cell.
    (scatter_dir if spec.save_trajectories else out_dir).mkdir(parents=True, exist_ok=True)

    # One argument when nothing is saved: wrappers of run_benchmark may take the spec alone.
    report = run_benchmark(spec, scatter_dir) if spec.save_trajectories else run_benchmark(spec)
    write_report_json(out_dir / "report.json", report)
    write_report_csv(out_dir / "report.csv", report)

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
    mine.add_argument("--space", choices=_SPACES, default="numeric", help="candidate space")
    mine.add_argument("--min-sup", type=float, default=_DEFAULTS.sigma, help="support threshold")
    mine.add_argument(
        "--iters", type=int, default=_DEFAULTS.max_iterations, help="searcher iterations"
    )
    mine.add_argument("--seed", type=int, default=_DEFAULTS.seed, help="RNG seed")
    for flag, name, text in _TUNING:
        default = getattr(_DEFAULTS, name)
        mine.add_argument(flag, type=type(default), default=default, help=text)
    mine.add_argument("--out", choices=("text", "json"), default="text", help="output format")
    _add_data_flags(mine)
    mine.set_defaults(func=cmd_mine)

    space = sub.add_parser(
        "space", help="show candidate-space bounds and valid candidates", formatter_class=fmt
    )
    which = space.add_mutually_exclusive_group(required=True)
    which.add_argument("--attrs", type=_attr_count, default=None, help="attribute count")
    which.add_argument("--data", default=None, help="CSV file to take the attribute count from")
    space.add_argument("--space", choices=_SPACES, default="numeric", help="candidate space")
    space.add_argument(
        "--list-valid", action="store_true", help="print decimal, bits and pattern per candidate"
    )
    _add_data_flags(space)
    space.set_defaults(func=cmd_space)

    bench = sub.add_parser(
        "bench", help="run a benchmark grid and write report files", formatter_class=fmt
    )
    grid = bench.add_mutually_exclusive_group(required=True)
    grid.add_argument("--spec", default=None, help="JSON benchmark spec file")
    grid.add_argument("--data", nargs="+", default=None, help="dataset CSV files")
    bench.add_argument(
        "--algos", nargs="+", choices=ALGORITHMS, default=["rs", "ls", "ga", "pso"],
        help="miners to run",
    )
    bench.add_argument(
        "--spaces", nargs="+", choices=_SPACES, default=["numeric"],
        help="candidate spaces of the searchers",
    )
    bench.add_argument("--reps", type=int, default=3, help="repetitions per cell")
    bench.add_argument("--min-sup", type=float, default=_DEFAULTS.sigma, help="support threshold")
    bench.add_argument(
        "--iters", type=int, default=_DEFAULTS.max_iterations, help="searcher iterations"
    )
    bench.add_argument("--base-seed", type=int, default=_DEFAULTS.seed, help="seed for rep 0")
    bench.add_argument(
        "--save-trajectories", action="store_true", help="write one scatter CSV per run"
    )
    bench.add_argument(
        "--measure-memory", action="store_true", help="report each cell's peak traced memory"
    )
    bench.add_argument("--out-dir", required=True, help="directory for report files")
    _add_data_flags(bench)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Bounds past about 7,143 attributes exceed Python's int-to-str limit
    # (none before 3.10.7), a guard for parsing untrusted text: lift it.
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # Python's recipe: point stdout at devnull, so the interpreter's
        # final flush is quiet too.  A StringIO has no descriptor to point.
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
