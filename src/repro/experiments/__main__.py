"""Command-line entry point for the experiment engine.

Examples
--------
List the experiments with their paper references::

    python -m repro.experiments list

Run one experiment at smoke-test scale and print its table::

    python -m repro.experiments run fig6_kcenter --quick
    python -m repro.experiments run table1_fscore --seed 3 --csv

Sweep every experiment over 4 seeds on 4 worker processes, with on-disk
result caching (a repeated sweep is served from cache)::

    python -m repro.experiments sweep --quick --seeds 4 --jobs 4
    python -m repro.experiments sweep fig6_kcenter --seeds 8 --param n_points=100,200
    python -m repro.experiments clean-cache
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.engine import (
    ResultCache,
    aggregate_across_seeds,
    canonical_params,
    get_spec,
    iter_specs,
    parse_param_assignments,
    plan_sweep,
    run_sweep,
    spec_names,
)
from repro.exceptions import InvalidParameterError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run, sweep and cache the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.add_argument("--verbose", action="store_true", help="include quick overrides")

    p_run = sub.add_parser("run", help="run one experiment once")
    p_run.add_argument("experiment", help="experiment name (see list)")
    p_run.add_argument("--quick", action="store_true", help="smoke-test settings")
    p_run.add_argument("--seed", type=int, default=0, help="random seed")
    p_run.add_argument("--csv", action="store_true", help="print CSV instead of a table")
    p_run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one runner parameter (repeatable)",
    )
    p_run.add_argument(
        "--cached",
        action="store_true",
        help="serve from / store into the result cache",
    )
    p_run.add_argument("--cache-dir", default=None, help="cache directory")

    p_sweep = sub.add_parser("sweep", help="run a multi-experiment, multi-seed sweep")
    p_sweep.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (default: all)",
    )
    p_sweep.add_argument("--quick", action="store_true", help="smoke-test settings")
    p_sweep.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p_sweep.add_argument(
        "--seed-base", type=int, default=0, help="base seed the task seeds derive from"
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=V1[,V2...]",
        help="sweep grid values for one parameter (repeatable)",
    )
    p_sweep.add_argument("--cache-dir", default=None, help="cache directory")
    p_sweep.add_argument("--no-cache", action="store_true", help="disable the result cache")
    p_sweep.add_argument(
        "--force", action="store_true", help="recompute even when cached"
    )
    p_sweep.add_argument("--csv", action="store_true", help="print CSV instead of tables")
    p_sweep.add_argument(
        "--no-aggregate",
        action="store_true",
        help="print per-task results instead of cross-seed mean/std tables",
    )
    p_sweep.add_argument("--quiet", action="store_true", help="no per-task progress lines")

    p_clean = sub.add_parser("clean-cache", help="delete cached results")
    p_clean.add_argument(
        "experiments", nargs="*", help="restrict to these experiments (default: all)"
    )
    p_clean.add_argument("--cache-dir", default=None, help="cache directory")

    return parser


def _single_params(assignments: Sequence[str]) -> dict:
    """Parse ``--param`` overrides for `run` (one value per key)."""
    grid = parse_param_assignments(assignments)
    multi = sorted(k for k, v in grid.items() if len(v) != 1)
    if multi:
        raise InvalidParameterError(
            f"run takes a single value per --param; got multiple for: {', '.join(multi)}"
            " (use sweep for grids)"
        )
    return {k: v[0] for k, v in grid.items()}


def _cmd_list(args) -> int:
    for spec in iter_specs():
        print(f"{spec.name:22s} {spec.paper_ref:9s} {spec.description}")
        if args.verbose and spec.quick:
            quick = ", ".join(f"{k}={v}" for k, v in spec.quick.items())
            print(f"{'':22s} {'':9s} quick: {quick}")
    return 0


def _cmd_run(args) -> int:
    if args.experiment not in spec_names():
        print(f"unknown experiment {args.experiment!r}; use list", file=sys.stderr)
        return 2
    spec = get_spec(args.experiment)
    params = dict(spec.quick) if args.quick else {}
    params.update(_single_params(args.param))
    spec.validate_params(params)
    tasks = plan_sweep([spec.name], seeds=[args.seed], grid={k: [v] for k, v in params.items()})
    cache = ResultCache(args.cache_dir) if args.cached else None
    report = run_sweep(tasks, jobs=1, cache=cache)
    result = report.outcomes[0].result
    print(result.to_csv() if args.csv else result.to_table())
    if args.cached:
        print(f"# {report.summary()}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    names = args.experiments or None
    unknown = [n for n in (names or []) if n not in spec_names()]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; use list", file=sys.stderr)
        return 2
    grid = parse_param_assignments(args.param)
    tasks = plan_sweep(
        names,
        n_seeds=args.seeds,
        base_seed=args.seed_base,
        grid=grid,
        quick=args.quick,
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    def progress(outcome, done, total):
        if not args.quiet:
            origin = "cached" if outcome.cached else f"{outcome.elapsed_seconds:.1f}s"
            print(f"[{done}/{total}] {outcome.task.label()} ({origin})", file=sys.stderr)

    report = run_sweep(
        tasks, jobs=args.jobs, cache=cache, force=args.force, progress=progress
    )

    for name in report.experiments():
        # Aggregate per distinct parameter combination: only seed repeats of
        # the *same* params may pool into one mean/std, never grid values.
        param_groups: dict = {}
        for outcome in report.outcomes:
            if outcome.task.experiment != name:
                continue
            group_key = json.dumps(canonical_params(outcome.task.params), sort_keys=True)
            param_groups.setdefault(group_key, []).append(outcome)
        for group_key, outcomes in param_groups.items():
            results = [o.result for o in outcomes]
            if args.no_aggregate or len(results) == 1:
                shown = results
            else:
                shown = [
                    aggregate_across_seeds(
                        results,
                        key_columns=get_spec(name).key_columns,
                        name=f"{name}+agg",
                    )
                ]
            for result in shown:
                if args.csv:
                    print(result.to_csv())
                else:
                    header = f"== {result.name}: {result.description}"
                    if len(param_groups) > 1:
                        header += f"\n== params: {group_key}"
                    print(header)
                    print(result.to_table())
                    print()
    print(f"sweep: {report.summary()}", file=sys.stderr)
    return 0


def _cmd_clean_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    removed = 0
    for name in args.experiments or [None]:
        removed += cache.clear(name)
    print(f"clean-cache: removed {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {cache.root}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "clean-cache": _cmd_clean_cache,
    }
    try:
        return handlers[args.command](args)
    except InvalidParameterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
