"""Benchmark execution: tasks in, graded outcomes and reports out.

Tasks arrive as JSONL in the GAIA metadata shape (task_id, Level,
Question, "Final answer", file_name). Each task becomes one isolated
run with its own session, ledger, memory, browser state, and trace
file; runs execute on a bounded thread pool and results are sorted by
task id before aggregation, so worker count never changes the report.

Live runs and replays share one run path: a replay restores the task,
config and pricing from a trace header and runs them exactly as a live
run does, with the recording as its backend and embedder. That is why
a re-recorded replay matches its original byte for byte.

Grading is quasi-exact match: both sides are normalized (whitespace,
case, quotes, trailing periods), numbers compare numerically after
comma/percent stripping, and a comma-separated expected answer compares
as an unordered list.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .agent import TaskRunRecord, TerminatedBy, run_task
from .backend import Backend, Embedder, HashEmbedder
from .config import (
    SWEEPABLE_FIELDS,
    AgentConfig,
    ConfigIssue,
    InvalidConfigError,
    PricingTable,
    coerce_field,
    config_from_snapshot,
    config_hash,
    config_snapshot,
    validate_config,
)
from .ledger import AggregateRow, EmptyBenchmarkError, aggregate
from .session import RunSession
from .tools import FixtureFetcher, PageFetcher, SearchProvider, ToolBox
from .trace import (
    ReplayMismatchError,
    ReplaySource,
    TraceFormatError,
    TraceWriter,
    read_trace,
    trace_filename,
)

log = logging.getLogger("agentmeter.harness")

DEFAULT_RUN_TIMEOUT_S = 600.0


# -- tasks -------------------------------------------------------------------


@dataclass(frozen=True)
class Task:
    task_id: str
    level: int
    question: str
    expected_answer: str
    attachments: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.level not in (1, 2, 3):
            raise ValueError(f"level must be 1, 2, or 3, got {self.level!r}")


class TaskFileError(ValueError):
    pass


class DuplicateTaskIdError(TaskFileError):
    pass


def load_tasks(path: str | Path) -> list[Task]:
    """Parse a JSONL task file; attachment paths resolve beside the file."""
    path = Path(path)
    base = path.parent
    tasks: list[Task] = []
    seen: set[str] = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TaskFileError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            task_id = str(raw["task_id"])
            level = int(raw["Level"])
            question = str(raw["Question"])
            expected = str(raw["Final answer"])
        except KeyError as exc:
            raise TaskFileError(f"{path}:{lineno}: missing field {exc}") from None
        if task_id in seen:
            raise DuplicateTaskIdError(f"{path}:{lineno}: duplicate task_id {task_id!r}")
        seen.add(task_id)
        file_name = str(raw.get("file_name") or "").strip()
        attachments = (str(base / file_name),) if file_name else ()
        try:
            tasks.append(
                Task(
                    task_id=task_id,
                    level=level,
                    question=question,
                    expected_answer=expected,
                    attachments=attachments,
                )
            )
        except ValueError as exc:
            raise TaskFileError(f"{path}:{lineno}: {exc}") from exc
    return tasks


# -- grading -----------------------------------------------------------------


def normalize_answer(text: str) -> str:
    s = re.sub(r"\s+", " ", text.strip()).lower()
    while len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        s = s[1:-1].strip()
    return s.rstrip(".").strip()


def _as_number(s: str):
    cleaned = s.replace(",", "").replace("%", "").strip()
    if not cleaned:
        return None
    try:
        return float(cleaned)
    except ValueError:
        return None


def _element_key(s: str) -> str:
    """Canonical form for one list element: numeric if possible."""
    value = _as_number(s)
    if value is not None:
        return format(value, ".12g")
    return s


def grade(answer: str, expected: str) -> bool:
    a = normalize_answer(answer)
    e = normalize_answer(expected)
    na, ne = _as_number(a), _as_number(e)
    if na is not None and ne is not None:
        return na == ne or math.isclose(na, ne, rel_tol=1e-9)
    if "," in e:
        a_items = [normalize_answer(p) for p in a.split(",")]
        e_items = [normalize_answer(p) for p in e.split(",")]
        if len(a_items) != len(e_items):
            return False
        return Counter(map(_element_key, a_items)) == Counter(map(_element_key, e_items))
    return a == e


# -- execution ---------------------------------------------------------------


@dataclass(frozen=True)
class TaskOutcome:
    task_id: str
    level: int
    solved: bool
    final_answer: str
    cost_pico: int
    total_tokens: int
    terminated_by: TerminatedBy

    def as_tuple(self) -> tuple[int, bool, int, int]:
        return (self.level, self.solved, self.cost_pico, self.total_tokens)


@dataclass(frozen=True)
class BenchmarkReport:
    config_hash: str
    config: AgentConfig
    rows: tuple[AggregateRow, ...]


class BenchmarkAbortError(RuntimeError):
    pass


class UnknownAxisError(ValueError):
    pass


def _result_payload(
    record: TaskRunRecord, solved: bool
) -> dict:
    ledger = record.ledger
    return {
        "final_answer": record.final_answer,
        "terminated_by": record.terminated_by.value,
        "steps": len(record.steps),
        "plan_count": len(record.plans),
        "solved": solved,
        "cost_pico": ledger.total_cost_pico,
        "prompt_tokens": ledger.prompt_tokens,
        "completion_tokens": ledger.completion_tokens,
    }


def _run(
    task: Task,
    config: AgentConfig,
    pricing: PricingTable,
    trace_dir: str | Path | None,
    backend: Backend,
    embedder: Embedder,
    providers: Sequence[SearchProvider] = (),
    fetcher: PageFetcher | None = None,
    timeout_s: float | None = None,
) -> tuple[TaskOutcome, TaskRunRecord]:
    """The one run path of live runs and replays: trace, session, loop, grade.

    ``backend`` and ``embedder`` are where external effects come from:
    live collaborators, or for a replay the ReplaySource as both.
    """
    writer = None
    if trace_dir is not None:
        digest = config_hash(config)
        writer = TraceWriter(Path(trace_dir) / trace_filename(task.task_id, digest))
        writer.header(
            run_id=task.task_id,
            task_id=task.task_id,
            config=config_snapshot(config),
            config_hash=digest,
            pricing=pricing.snapshot(),
            task={
                "level": task.level,
                "question": task.question,
                "expected_answer": task.expected_answer,
                "attachment_names": [Path(p).name for p in task.attachments],
            },
        )
    session = RunSession(task.task_id, backend, embedder, pricing, writer, timeout_s)
    toolbox = ToolBox(
        session,
        config,
        providers=providers,
        fetcher=fetcher or FixtureFetcher({}),
        attachments={Path(p).name: p for p in task.attachments},
    )
    record = run_task(task.task_id, task.question, config, session, toolbox)
    solved = grade(record.final_answer, task.expected_answer)
    if writer is not None:
        writer.result(_result_payload(record, solved))
        writer.close()
    outcome = TaskOutcome(
        task_id=task.task_id,
        level=task.level,
        solved=solved,
        final_answer=record.final_answer,
        cost_pico=record.ledger.total_cost_pico,
        total_tokens=record.ledger.total_tokens,
        terminated_by=record.terminated_by,
    )
    return outcome, record


def execute_run(
    task: Task,
    config: AgentConfig,
    backend: Backend,
    pricing: PricingTable,
    embedder: Embedder | None = None,
    providers: Sequence[SearchProvider] = (),
    fetcher: PageFetcher | None = None,
    trace_dir: str | Path | None = None,
    timeout_s: float | None = DEFAULT_RUN_TIMEOUT_S,
) -> tuple[TaskOutcome, TaskRunRecord]:
    """One complete, isolated task run: trace, session, loop, grade."""
    return _run(
        task,
        config,
        pricing,
        trace_dir,
        backend,
        embedder or HashEmbedder(),
        providers=providers,
        fetcher=fetcher,
        timeout_s=timeout_s,
    )


def _check_trace_names(tasks: Sequence[Task], digest: str) -> None:
    """Refuse task ids that would write the same trace file."""
    owners: dict[str, str] = {}
    for task in tasks:
        name = trace_filename(task.task_id, digest)
        if name in owners:
            raise DuplicateTaskIdError(
                f"task ids {owners[name]!r} and {task.task_id!r} both map to trace file {name}"
            )
        owners[name] = task.task_id


def run_benchmark(
    tasks: Sequence[Task],
    config: AgentConfig,
    backend: Backend,
    pricing: PricingTable,
    workers: int = 1,
    embedder: Embedder | None = None,
    providers: Sequence[SearchProvider] = (),
    fetcher: PageFetcher | None = None,
    trace_dir: str | Path | None = None,
    timeout_s: float | None = DEFAULT_RUN_TIMEOUT_S,
) -> tuple[list[TaskOutcome], BenchmarkReport]:
    if not tasks:
        raise EmptyBenchmarkError("no tasks to run")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    validate_config(config, pricing)
    if trace_dir is not None:
        _check_trace_names(tasks, config_hash(config))

    def one(task: Task) -> TaskOutcome:
        outcome, _ = execute_run(
            task,
            config,
            backend,
            pricing,
            embedder=embedder,
            providers=providers,
            fetcher=fetcher,
            trace_dir=trace_dir,
            timeout_s=timeout_s,
        )
        return outcome

    if workers == 1:
        outcomes = [one(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, tasks))

    outcomes.sort(key=lambda o: o.task_id)
    if all(o.terminated_by is TerminatedBy.ERROR for o in outcomes):
        raise BenchmarkAbortError(
            f"every run failed ({len(outcomes)} tasks ended in error); "
            "the log names each run's cause"
        )
    rows = aggregate(o.as_tuple() for o in outcomes)
    report = BenchmarkReport(
        config_hash=config_hash(config), config=config, rows=tuple(rows)
    )
    return outcomes, report


# -- sweeps ------------------------------------------------------------------


def sweep_configs(base: AgentConfig, axis: str, values: Sequence) -> list[AgentConfig]:
    """One config per value, differing from base only on the swept axis."""
    if axis not in SWEEPABLE_FIELDS:
        raise UnknownAxisError(
            f"axis {axis!r} is not sweepable; choose one of {', '.join(SWEEPABLE_FIELDS)}"
        )
    if not values:
        raise EmptyBenchmarkError(f"no values to sweep for axis {axis!r}")
    coerced = [coerce_field(axis, v) for v in values]
    for i, value in enumerate(coerced):
        first = coerced.index(value)
        if first < i:
            # equal configs would repeat one benchmark and overwrite its trace files
            message = f"{axis}: {values[i]!r} repeats {values[first]!r}; give each value once"
            raise InvalidConfigError([ConfigIssue("value", axis, message)])
    return [replace(base, **{axis: v}) for v in coerced]


# -- replay ------------------------------------------------------------------


def replay_run(
    trace_path: str | Path,
    trace_dir: str | Path | None = None,
) -> tuple[TaskOutcome, TaskRunRecord]:
    """Re-execute a recorded run fully offline.

    The recording is the run's backend and embedder: it serves every
    model response, tool result and embedding, failures included. Task,
    config and pricing are restored from its header and go through the
    same run path as a live run. With ``trace_dir`` set, the replay
    writes its own trace, which for a deterministic run is
    byte-identical to the original.

    A recording without its result line is refused, and a replay that
    ends differently from the recorded result raises
    ``ReplayMismatchError``.
    """
    data = read_trace(trace_path)
    recorded = data.result
    if recorded is None:
        raise TraceFormatError(f"{trace_path}: no result line; the recording is incomplete")
    source = ReplaySource(data)
    header = source.header
    task_info = header["task"]
    task = Task(
        task_id=header["task_id"],
        level=task_info["level"],
        question=task_info["question"],
        expected_answer=task_info["expected_answer"],
        # names only; replayed read_attachment events never touch disk
        attachments=tuple(task_info["attachment_names"]),
    )
    outcome, record = _run(
        task,
        config_from_snapshot(header["config"]),
        PricingTable.from_snapshot(header["pricing"]),
        trace_dir,
        source,
        source,
    )
    replayed = {
        "terminated_by": outcome.terminated_by.value,
        "solved": outcome.solved,
        "cost_pico": outcome.cost_pico,
    }
    diverged = [
        f"{key} recorded {recorded.get(key)!r}, replayed {value!r}"
        for key, value in replayed.items()
        if recorded.get(key) != value
    ]
    if diverged:
        raise ReplayMismatchError(f"{trace_path}: replay diverged: {'; '.join(diverged)}")
    return outcome, record


def replay_benchmark(
    trace_paths: Sequence[str | Path],
    trace_dir: str | Path | None = None,
) -> tuple[list[TaskOutcome], list[AggregateRow]]:
    """Replay a set of traces and rebuild the aggregate rows.

    With ``trace_dir`` set, every replay is re-recorded there.
    """
    if not trace_paths:
        raise EmptyBenchmarkError("no trace files to replay")
    outcomes = []
    for path in trace_paths:
        outcome, _ = replay_run(path, trace_dir=trace_dir)
        log.info("replayed %s: solved=%s", Path(path).name, outcome.solved)
        outcomes.append(outcome)
    outcomes.sort(key=lambda o: o.task_id)
    return outcomes, aggregate(o.as_tuple() for o in outcomes)
