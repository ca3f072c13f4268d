"""``python -m repro`` — the scenario catalog on the command line.

Subcommands:

- ``list [--tag TAG]`` — one line per registered scenario;
- ``describe NAME`` — the full declarative spec (model, questions,
  cache key);
- ``run NAME [--no-cache] [--refresh] [--processes N] [--cache-dir D]
  [--on-error M] [--trace] [--metrics-out F] [--trace-out F]`` —
  execute (or recall) every question and print the rendered result
  plus the run report with its cache-hit counter; ``--on-error=partial``
  isolates per-question failures (each failed question is reported and
  the survivors still render) instead of aborting — exit code ``0``
  means every question ran, ``3`` a partial result, ``4`` that every
  question failed; the telemetry flags print the span tree, dump the
  metrics snapshot and export a ``chrome://tracing`` timeline;
- ``clear-cache [NAME] [--cache-dir D]`` — drop cached artifacts;
- ``lint [--strict] [--format=text|json] [--root D] [--no-registry]
  [--rules]`` — the repo's static-analysis gate (AST rules + registry
  contract audit, see :mod:`repro.analysis.lint`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_list(args) -> int:
    from repro.scenarios import list_scenarios

    specs = list_scenarios(tag=args.tag)
    if not specs:
        print("no scenarios registered"
              + (f" with tag {args.tag!r}" if args.tag else ""))
        return 1
    width = max(len(s.name) for s in specs)
    for spec in specs:
        kinds = ",".join(q.kind for q in spec.questions)
        print(f"{spec.name.ljust(width)}  [{kinds}]  {spec.title}")
    print(f"\n{len(specs)} scenarios; `python -m repro describe <name>` "
          "for details, `run <name>` to execute")
    return 0


def _lookup(name: str):
    """Registry lookup with the CLI's unknown-name error handling.

    Only the lookup's ``KeyError`` is converted to a clean exit —
    errors raised while *running* a scenario propagate with their
    tracebacks intact.
    """
    from repro.scenarios import get_scenario

    try:
        return get_scenario(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_describe(args) -> int:
    print(_lookup(args.name).describe())
    return 0


def _cmd_run(args) -> int:
    from repro.scenarios import cache_path, run_scenario

    spec = _lookup(args.name)
    observing = args.trace or args.metrics_out or args.trace_out
    if observing:
        from repro import telemetry

        telemetry.enable()
        telemetry.clear()
    if args.refresh:
        # Unlink by content hash, not by stored name: the lookup is
        # content-addressed, so this is the entry a run would be served.
        cache_path(spec, args.cache_dir).unlink(missing_ok=True)
    run = run_scenario(
        spec,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        processes=args.processes,
        on_error=args.on_error,
    )
    print(run.result.render())
    print()
    print(run.report.render())
    if run.failures:
        print()
        print(f"failed questions ({len(run.failures)}):")
        for failure in run.failures:
            print(f"  - {failure.describe()}")
    if observing:
        if args.trace:
            print()
            print("trace:")
            print(telemetry.render_trace())
        if args.metrics_out:
            path = telemetry.save_snapshot(args.metrics_out,
                                           telemetry.snapshot())
            print(f"metrics snapshot written to {path}")
        if args.trace_out:
            path = telemetry.save_chrome_trace(args.trace_out)
            print(f"chrome trace written to {path} "
                  "(load via chrome://tracing or ui.perfetto.dev)")
    if run.failures:
        # Distinct exit codes so scripted callers can tell a partial
        # result (3: some questions survived) from a total loss (4).
        return 4 if len(run.failures) >= len(spec.questions) else 3
    return 0


def _cmd_clear_cache(args) -> int:
    from repro.scenarios import cache_path, clear_cache, get_scenario

    removed = clear_cache(args.cache_dir, scenario=args.name)
    if args.name is not None:
        # Lookup is content-addressed, so the entry serving this
        # scenario may have been stored under a variant's name; unlink
        # the named spec's own hash too (mirrors `run --refresh`).
        try:
            path = cache_path(get_scenario(args.name), args.cache_dir)
        except KeyError:
            path = None
        if path is not None and path.exists():
            path.unlink()
            removed += 1
    print(f"removed {removed} cached entr{'y' if removed == 1 else 'ies'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Declarative scenario catalog of the imprecise "
                    "mean-field toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--tag", default=None,
                        help="only scenarios carrying this tag")
    p_list.set_defaults(fn=_cmd_list)

    p_desc = sub.add_parser("describe", help="show one scenario's spec")
    p_desc.add_argument("name")
    p_desc.set_defaults(fn=_cmd_describe)

    p_run = sub.add_parser("run", help="run (or recall) a scenario")
    p_run.add_argument("name")
    p_run.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the disk cache")
    p_run.add_argument("--refresh", action="store_true",
                       help="drop this scenario's cached entries first")
    p_run.add_argument("--processes", type=int, default=None,
                       help="fan independent questions over N processes")
    p_run.add_argument("--cache-dir", default=None,
                       help="cache directory (default $REPRO_CACHE_DIR "
                            "or ~/.cache/repro-scenarios)")
    p_run.add_argument("--on-error", choices=("raise", "partial"),
                       default="raise",
                       help="'partial' isolates failing questions and "
                            "renders the survivors (exit 3 on a partial "
                            "result, 4 when every question failed); "
                            "'raise' (default) aborts on the first "
                            "failure")
    p_run.add_argument("--trace", action="store_true",
                       help="enable telemetry and print the span tree")
    p_run.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="enable telemetry and write the metrics "
                            "snapshot (counters/gauges/histograms) as "
                            "JSON")
    p_run.add_argument("--trace-out", default=None, metavar="PATH",
                       help="enable telemetry and write a Chrome-trace "
                            "JSON timeline (chrome://tracing)")
    p_run.set_defaults(fn=_cmd_run)

    p_clear = sub.add_parser("clear-cache", help="drop cached artifacts")
    p_clear.add_argument("name", nargs="?", default=None,
                         help="only entries of this scenario")
    p_clear.add_argument("--cache-dir", default=None)
    p_clear.set_defaults(fn=_cmd_clear_cache)

    p_lint = sub.add_parser(
        "lint", help="run the static-analysis gate (AST + registry audit)"
    )
    from repro.analysis.lint.cli import add_lint_arguments, main as lint_main

    add_lint_arguments(p_lint)
    p_lint.set_defaults(fn=lint_main)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:  # _lookup's clean unknown-name exit
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
