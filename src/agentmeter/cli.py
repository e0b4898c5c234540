"""Command-line entry points.

Five subcommands cover the workflow: ``run`` executes one task, ``bench``
a whole task file, ``sweep`` repeats a benchmark while varying one config
axis, ``report`` re-renders saved benchmark results, and ``replay``
re-executes recorded traces offline through the same run path as a live
run (``harness.replay_benchmark``), optionally re-recording them.

Offline operation is first-class: ``--script`` swaps the live model API
for canned responses and ``--fixtures`` swaps the network fetch layer
for files on disk, so a benchmark can run with no credentials at all.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import math
import os
import sys
from pathlib import Path

from .backend import OpenAIBackend, ScriptedBackend
from .config import (
    AgentConfig,
    InputError,
    InvalidConfigError,
    PricingTable,
    default_config,
    default_pricing,
    load_config,
    validate_config,
)
from .harness import (
    DEFAULT_RUN_TIMEOUT_S,
    Task,
    TaskFileError,
    execute_run,
    load_tasks,
    read_results,
    replay_benchmark,
    run_benchmark,
    sweep_configs,
)
from .ledger import AggregateRow, Scope
from .money import pico_to_usd
from .report import (
    FORMATS,
    filter_scope,
    format_cost,
    render_report,
    render_sweep_table,
)
from .tools import (
    FixtureFetcher,
    FixtureSearchProvider,
    HttpFetcher,
    live_providers,
)
from .trace import TRACE_SUFFIX


def _seconds(text: str) -> float:
    """A ``--timeout`` value: a finite number of seconds above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number of seconds > 0, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI file with [agent] and [pricing.*] sections")
    p.add_argument("--pricing", help="INI file whose pricing sections override --config")
    p.add_argument("--script", help="JSONL of canned model responses (offline mode)")
    p.add_argument("--fixtures", help="directory of canned pages and search results")
    p.add_argument("--trace-dir", help="write one trace file per run into this directory")
    p.add_argument(
        "--timeout",
        type=_seconds,
        default=DEFAULT_RUN_TIMEOUT_S,
        help="per-run wall clock limit in seconds (default %(default)g)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentmeter",
        description="Measure accuracy and dollars-per-solve of a web research agent.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single task")
    p_run.add_argument("--tasks", required=True, help="JSONL task file")
    p_run.add_argument("--task-id", help="which task to run (default: the only one)")
    _add_common(p_run)

    p_bench = sub.add_parser("bench", help="run every task and print the aggregate")
    p_bench.add_argument("--tasks", required=True)
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--format", choices=FORMATS, default="table")
    p_bench.add_argument("--out", help="save results as JSON for the report subcommand")
    _add_common(p_bench)

    p_sweep = sub.add_parser("sweep", help="benchmark once per value of one config axis")
    p_sweep.add_argument("--tasks", required=True)
    p_sweep.add_argument("--axis", required=True, help="config field to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", help="save per-value results as JSON")
    _add_common(p_sweep)

    p_report = sub.add_parser("report", help="re-render saved benchmark results")
    p_report.add_argument("--results", required=True, help="JSON written by bench --out")
    p_report.add_argument("--format", choices=FORMATS, default="table")
    p_report.add_argument("--scope", choices=[s.value for s in Scope])
    p_report.add_argument("--out", help="write here instead of stdout")

    p_replay = sub.add_parser("replay", help="re-execute recorded traces offline")
    p_replay.add_argument("traces", nargs="+", help="trace files or directories of them")
    p_replay.add_argument("--trace-dir", help="re-record replays into this directory")
    p_replay.add_argument("--format", choices=FORMATS, default="table")

    return parser


# -- shared assembly ---------------------------------------------------------


def load_settings(args) -> tuple[AgentConfig, PricingTable]:
    config = default_config()
    pricing = default_pricing()
    if args.config:
        config, file_pricing = load_config(args.config)
        if file_pricing.models():
            pricing = file_pricing
    if args.pricing:
        _, override = load_config(args.pricing)
        if not override.models():
            raise InvalidConfigError(f"{args.pricing} has no [pricing.<model>] sections")
        pricing = override
    return config, pricing


def run_options(args, config: AgentConfig) -> dict:
    """The collaborators and limits of a run of ``config``, as keywords of
    ``execute_run`` and ``run_benchmark``: canned with ``--script`` and
    ``--fixtures``, live without them. Live search fans out to the engines
    of ``config``'s own ``source_set``."""
    backend = ScriptedBackend.from_jsonl(args.script) if args.script else OpenAIBackend()
    if args.fixtures:
        root = Path(args.fixtures)
        canned = root / "searches.json"
        providers = [FixtureSearchProvider.from_file(canned)] if canned.exists() else []
        pages = root / "pages"
        fetcher = FixtureFetcher.from_dir(pages if pages.is_dir() else root)
    else:
        providers = live_providers(config.source_set)
        fetcher = HttpFetcher()
    return {
        "backend": backend,
        "providers": providers,
        "fetcher": fetcher,
        "trace_dir": args.trace_dir,
        "timeout_s": args.timeout,
    }


def _select_task(tasks: list[Task], task_id: str | None) -> Task:
    if task_id is None:
        if len(tasks) == 1:
            return tasks[0]
        raise TaskFileError(
            f"task file holds {len(tasks)} tasks; pick one with --task-id"
        )
    for task in tasks:
        if task.task_id == task_id:
            return task
    raise TaskFileError(f"no task with id {task_id!r}")


def _write_json(payload: dict, out: str) -> None:
    Path(out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------


def cmd_run(args) -> int:
    config, pricing = load_settings(args)
    task = _select_task(load_tasks(args.tasks), args.task_id)
    outcome, _ = execute_run(
        task,
        config,
        pricing=pricing,
        **run_options(args, config),
    )
    print(f"task:        {outcome.task_id} (level {outcome.level})")
    print(f"answer:      {outcome.final_answer}")
    print(f"expected:    {task.expected_answer}")
    print(f"solved:      {'yes' if outcome.solved else 'no'}")
    print(f"ended by:    {outcome.terminated_by.value}")
    print(f"steps:       {outcome.steps}  plans: {outcome.plan_count}")
    print(
        f"cost:        {format_cost(pico_to_usd(outcome.cost_pico))} USD"
        f"  tokens: {outcome.total_tokens}"
    )
    return 0 if outcome.solved else 1


def cmd_bench(args) -> int:
    config, pricing = load_settings(args)
    tasks = load_tasks(args.tasks)
    _, report = run_benchmark(
        tasks,
        config,
        pricing=pricing,
        workers=args.workers,
        **run_options(args, config),
    )
    if args.out:
        _write_json(report.to_dict(), args.out)
    sys.stdout.write(
        render_report(report.rows, args.format, title=f"config {report.config_hash}")
    )
    return 0


def cmd_sweep(args) -> int:
    base, pricing = load_settings(args)
    tasks = load_tasks(args.tasks)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    # every value is checked before the first run, so a bad one wastes none
    configs = [validate_config(cfg, pricing) for cfg in sweep_configs(base, args.axis, values)]
    entries: list[tuple[str, AggregateRow]] = []
    saved = []
    for value, cfg in zip(values, configs):
        _, report = run_benchmark(
            tasks,
            cfg,
            pricing=pricing,
            workers=args.workers,
            **run_options(args, cfg),
        )
        entries.append((value, report.rows[0]))
        saved.append({"value": value, **report.to_dict()})
    if args.out:
        _write_json({"axis": args.axis, "results": saved}, args.out)
    sys.stdout.write(render_sweep_table(entries, args.axis))
    return 0


def cmd_report(args) -> int:
    digest, _, rows = read_results(args.results)
    if args.scope:
        rows = filter_scope(rows, args.scope)
    _write_out(render_report(rows, args.format, title=f"config {digest}"), args.out)
    return 0


def _collect_traces(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.glob(f"*{TRACE_SUFFIX}")))
        else:
            files.append(p)
    return files


def cmd_replay(args) -> int:
    _, rows = replay_benchmark(_collect_traces(args.traces), trace_dir=args.trace_dir)
    sys.stdout.write(render_report(rows, args.format, title="replayed"))
    return 0


_COMMANDS = {
    "run": cmd_run,
    "bench": cmd_bench,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "replay": cmd_replay,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if getattr(args, "out", None):
            # checked before the first run, so a path that cannot be written costs no call
            if Path(args.out).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
