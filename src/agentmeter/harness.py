"""Benchmark execution: tasks in, graded outcomes and reports out.

Tasks arrive as JSONL in the GAIA metadata shape (task_id, Level,
Question, "Final answer", file_name). Each task becomes one isolated
run with its own session, ledger, memory, browser state, and trace
file; runs execute on a bounded thread pool and results are sorted by
task id before aggregation, so worker count never changes the report.

Live runs and replays share one run path: a replay restores the task,
config and pricing from a trace header and runs them exactly as a live
run does, with the recording as its backend. That is why a re-recorded
replay of a trace in the current version matches it byte for byte.
``run_header`` writes the header and ``recorded_run`` reads it back.

Grading is quasi-exact match: both sides are normalized (whitespace,
case, quotes, trailing periods), numbers compare numerically after
comma/percent stripping, and a comma-separated expected answer compares
as an unordered list.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

from .agent import TaskRunRecord, TerminatedBy, run_task
from .backend import Backend
from .config import (
    AgentConfig,
    InputError,
    InvalidConfigError,
    PricingTable,
    coerce_field,
    config_from_snapshot,
    config_hash,
    config_snapshot,
    json_value,
    jsonl_objects,
    read_fields,
    read_text,
    refused,
    validate_config,
)
from .ledger import AggregateRow, EmptyBenchmarkError, aggregate
from .session import RunSession
from .tools import FixtureFetcher, FixtureSearchProvider, PageFetcher, SearchProvider, ToolBox
from .trace import (
    ReplayMismatchError,
    ReplaySource,
    TraceData,
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
        # a run that ends without an answer answers "", which grades as equal
        if not normalize_answer(self.expected_answer):
            raise ValueError(f"expected answer {self.expected_answer!r} is empty once normalized")


class TaskFileError(InputError, ValueError):
    pass


class DuplicateTaskIdError(TaskFileError):
    pass


# a task's text fields are JSON strings or numbers; Level may be an integer string
_TASK_LINE_TYPES = {"task_id": str | int | float, "Question": str | int | float,
                    "Final answer": str | int | float, "Level": int, "file_name": str | None}


def load_tasks(path: str | Path) -> list[Task]:
    """Parse a JSONL task file; attachment paths resolve beside the file, and
    a ``file_name`` that is absolute or holds a ``..`` part is refused."""
    path = Path(path)
    base = path.parent
    tasks: list[Task] = []
    seen: set[str] = set()
    for lineno, raw in jsonl_objects(path, TaskFileError, "a task"):
        values = read_fields(raw, _TASK_LINE_TYPES, TaskFileError, f"{path}:{lineno}: field ",
                             optional=("file_name",), text=True)
        task_id = str(values["task_id"])
        if task_id in seen:
            raise DuplicateTaskIdError(f"{path}:{lineno}: duplicate task_id {task_id!r}")
        seen.add(task_id)
        file_name = (values.get("file_name") or "").strip()
        if Path(file_name).is_absolute() or ".." in Path(file_name).parts:
            raise TaskFileError(f"{path}:{lineno}: field file_name is missing or invalid: "
                                f"{values['file_name']!r}")
        attachments = (str(base / file_name),) if file_name else ()
        tasks.append(refused(TaskFileError, f"{path}:{lineno}: ", Task, task_id=task_id,
                             level=values["Level"], question=str(values["Question"]),
                             expected_answer=str(values["Final answer"]),
                             attachments=attachments))
    if not tasks:
        raise TaskFileError(f"{path}: it holds no tasks")
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
    """How one run ended. The fields after ``task_id`` and ``level``, which
    a trace keeps in its header, are the trace's result line."""

    task_id: str
    level: int
    final_answer: str
    terminated_by: TerminatedBy
    steps: int
    plan_count: int
    solved: bool
    cost_pico: int
    prompt_tokens: int
    completion_tokens: int

    def __post_init__(self) -> None:
        # one rule for every outcome, run or read back: a level of 1, 2 or 3 and
        # no negative count, refused in read_fields' wording
        for name in ("level", "steps", "plan_count", "cost_pico", "prompt_tokens",
                     "completion_tokens"):
            value = getattr(self, name)
            if value not in (1, 2, 3) if name == "level" else value < 0:
                raise ValueError(f"{name} is missing or invalid: {value!r}")

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def as_tuple(self) -> tuple[int, bool, int, int]:
        return (self.level, self.solved, self.cost_pico, self.total_tokens)

    def to_dict(self, with_task: bool = True) -> dict:
        """JSON-safe form: the ``bench --out`` outcome entry, which also
        carries ``total_tokens``; with ``with_task=False``, the trace result line."""
        line = {f.name: getattr(self, f.name) for f in fields(self)[2:]}  # not task_id, level
        line["terminated_by"] = self.terminated_by.value
        if not with_task:
            return line
        return {"task_id": self.task_id, "level": self.level, **line,
                "total_tokens": self.total_tokens}


# what a trace records: its header, the header's task, and its result line
_HEADER_TYPES = {"task": dict, "task_id": str, "config": dict, "pricing": dict, "run_id": str,
                 "config_hash": str}
_HEADER_TASK_TYPES = {"attachment_names": list, "level": int, "question": str,
                      "expected_answer": str}
# a results file's outcome entry holds every field; the result line all but two
_OUTCOME_TYPES = get_type_hints(TaskOutcome)
_RESULT_TYPES = {k: v for k, v in _OUTCOME_TYPES.items() if k not in ("task_id", "level")}


def run_header(task: Task, config: AgentConfig, pricing: PricingTable) -> dict:
    """The header fields of a run's trace: what a replay needs to run it again."""
    return {
        "run_id": task.task_id,
        "task_id": task.task_id,
        "task": {
            "level": task.level,
            "question": task.question,
            "expected_answer": task.expected_answer,
            "attachment_names": [Path(p).name for p in task.attachments],
        },
        "config": config_snapshot(config),
        "config_hash": config_hash(config),
        "pricing": pricing.snapshot(),
    }


def recorded_run(path: str | Path, header: dict) -> tuple[Task, AgentConfig, PricingTable]:
    """The task, config and pricing a trace header records: the inverse of
    ``run_header``. A missing or invalid field raises ``TraceFormatError``."""
    field = f"{path}: header field "
    head = read_fields(header, _HEADER_TYPES, TraceFormatError, field)
    info = read_fields(head["task"], _HEADER_TASK_TYPES, TraceFormatError, f"{field}task.")
    names = info.pop("attachment_names")
    for name in names:
        read_fields({"attachment_names": name}, {"attachment_names": str}, TraceFormatError,
                    f"{field}task.")
    # names only; replayed read_attachment events never touch disk. A value
    # refused, InvalidConfigError among them, is refused naming its field
    task = refused(TraceFormatError, f"{field}task is invalid: ", Task, head["task_id"],
                   attachments=tuple(names), **info)
    config = refused(TraceFormatError, f"{field}config is invalid: ", config_from_snapshot,
                     head["config"])
    pricing = refused(TraceFormatError, f"{field}pricing is invalid: ", PricingTable.from_snapshot,
                      head["pricing"])
    refused(TraceFormatError, f"{field}config is invalid: ", validate_config, config, pricing)
    derived = {"run_id": task.task_id, "config_hash": config_hash(config)}  # as run_header writes
    for name, value in derived.items():
        if head[name] != value:
            raise TraceFormatError(f"{field}{name} is invalid: {head[name]!r}, "
                                   f"but the header's task and config give {value!r}")
    return task, config, pricing


def recorded_outcome(path: str | Path, line: dict | None, task: Task) -> TaskOutcome:
    """The outcome a trace records: task id and level from its header's
    task, the other fields from its result line. A missing or invalid field
    raises ``TraceFormatError``."""
    if line is None:
        raise TraceFormatError(f"{path}: no result line; the recording is incomplete")
    where = f"{path}: result field "
    values = read_fields(line, _RESULT_TYPES, TraceFormatError, where)
    return refused(TraceFormatError, where, TaskOutcome, task.task_id, task.level, **values)


class ResultsFileError(InputError, ValueError):
    """A --results file that bench --out did not write."""


def read_results(path: str | Path) -> tuple[str, list[TaskOutcome], list[AggregateRow]]:
    """The config hash, outcomes and aggregate rows of a ``bench --out``
    file. The rows are derived from the outcomes, as a benchmark derives
    them; a ``rows`` key, which files of earlier versions hold, is ignored."""
    not_ours = f"{path} is not a results file written by bench --out: "
    payload = json_value(read_text(path, ResultsFileError), ResultsFileError,
                         f"{not_ours}invalid JSON: ")
    if not isinstance(payload, dict):
        raise ResultsFileError(f"{not_ours}it is not a JSON object")
    head = read_fields(payload, {"config_hash": str, "outcomes": list}, ResultsFileError,
                       f"{not_ours}field ")
    if not head["outcomes"]:
        raise ResultsFileError(f"{not_ours}it holds no outcomes")
    outcomes = []
    for n, entry in enumerate(head["outcomes"], 1):
        if not isinstance(entry, dict):
            raise ResultsFileError(f"{not_ours}outcome {n} is not a JSON object")
        where = f"{not_ours}outcome {n} field "
        values = read_fields(entry, _OUTCOME_TYPES, ResultsFileError, where)
        outcomes.append(refused(ResultsFileError, where, TaskOutcome, **values))
    _check_runs((o.task_id for o in outcomes), not_ours)
    return head["config_hash"], outcomes, _tally(outcomes)


def _check_runs(task_ids: Iterable[str], where: str = "") -> None:
    """Refuse a benchmark's runs, given by task id, that count a task twice.
    The ids are taken one at a time, so a caller may act on each once it has
    passed. The ``DuplicateTaskIdError`` message starts with ``where``."""
    seen: set[str] = set()
    for task_id in task_ids:
        if task_id in seen:
            raise DuplicateTaskIdError(f"{where}task_id {task_id!r} appears twice; "
                                       "a benchmark counts each task once")
        seen.add(task_id)


def _tally(outcomes: list[TaskOutcome]) -> list[AggregateRow]:
    """The aggregate rows of one benchmark's ``outcomes``, which this sorts by
    task id in place."""
    outcomes.sort(key=lambda o: o.task_id)
    # looked up in this module, where perfbench's span tracer wraps it
    return aggregate(o.as_tuple() for o in outcomes)


@dataclass(frozen=True)
class BenchmarkReport:
    config_hash: str
    config: AgentConfig
    rows: tuple[AggregateRow, ...]
    outcomes: tuple[TaskOutcome, ...]

    def to_dict(self) -> dict:
        """JSON-safe form: the ``bench --out`` payload, and with the swept
        value added, one entry of a ``sweep --out`` file."""
        return {
            "config": config_snapshot(self.config),
            "config_hash": self.config_hash,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


class BenchmarkAbortError(InputError, RuntimeError):
    pass


def _run(
    task: Task,
    config: AgentConfig,
    backend: Backend,
    pricing: PricingTable,
    providers: Sequence[SearchProvider] = (),
    fetcher: PageFetcher | None = None,
    trace_dir: str | Path | None = None,
    timeout_s: float | None = None,
) -> tuple[TaskOutcome, TaskRunRecord]:
    """The one run path of live runs and replays: trace, session, loop, grade.

    ``backend`` is where every external effect comes from: live
    collaborators, or for a replay the ReplaySource. The trace is written
    in ``TRACE_VERSION``, a replay's too. A config that ``validate_config``
    refuses raises ``InvalidConfigError`` before any call is made or any
    trace is opened.
    """
    validate_config(config, pricing)
    writer = None
    if trace_dir is not None:
        header = run_header(task, config, pricing)
        path = Path(trace_dir) / trace_filename(task.task_id, header["config_hash"])
        writer = TraceWriter(path)
        writer.header(header)
    session = RunSession(task.task_id, backend, pricing, writer, timeout_s)
    toolbox = ToolBox(
        session,
        config,
        providers=providers,
        fetcher=fetcher or FixtureFetcher({}),
        attachments={Path(p).name: p for p in task.attachments},
    )
    record = run_task(task.task_id, task.question, config, session, toolbox)
    ledger = record.ledger
    outcome = TaskOutcome(
        task_id=task.task_id,
        level=task.level,
        final_answer=record.final_answer,
        terminated_by=record.terminated_by,
        steps=len(record.steps),
        plan_count=len(record.plans),
        solved=grade(record.final_answer, task.expected_answer),
        cost_pico=ledger.total_cost_pico,
        prompt_tokens=ledger.prompt_tokens,
        completion_tokens=ledger.completion_tokens,
    )
    if writer is not None:
        writer.result(outcome.to_dict(with_task=False))
        writer.close()
    return outcome, record


def execute_run(
    task: Task,
    config: AgentConfig,
    backend: Backend,
    pricing: PricingTable,
    providers: Sequence[SearchProvider] = (),
    fetcher: PageFetcher | None = None,
    trace_dir: str | Path | None = None,
    timeout_s: float | None = DEFAULT_RUN_TIMEOUT_S,
) -> tuple[TaskOutcome, TaskRunRecord]:
    """One complete, isolated task run: trace, session, loop, grade."""
    return _run(task, config, backend, pricing, providers, fetcher, trace_dir, timeout_s)


def run_benchmark(
    tasks: Sequence[Task],
    config: AgentConfig,
    backend: Backend,
    pricing: PricingTable,
    workers: int = 1,
    providers: Sequence[SearchProvider] = (),
    fetcher: PageFetcher | None = None,
    trace_dir: str | Path | None = None,
    timeout_s: float | None = DEFAULT_RUN_TIMEOUT_S,
) -> tuple[list[TaskOutcome], BenchmarkReport]:
    if not tasks:
        raise EmptyBenchmarkError("no tasks to run")
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers}")
    validate_config(config, pricing)
    digest = config_hash(config)
    _check_runs(t.task_id for t in tasks)

    def one(task: Task) -> TaskOutcome:
        outcome, _ = execute_run(
            task,
            config,
            backend,
            pricing,
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

    if all(o.terminated_by is TerminatedBy.ERROR for o in outcomes):
        raise BenchmarkAbortError(
            f"every run failed ({len(outcomes)} tasks ended in error); "
            "the log names each run's cause"
        )
    rows = _tally(outcomes)
    report = BenchmarkReport(digest, config, tuple(rows), tuple(outcomes))
    return outcomes, report


# -- sweeps ------------------------------------------------------------------


def sweep_configs(base: AgentConfig, axis: str, values: Sequence) -> list[AgentConfig]:
    """One config per value, differing from base only on the swept axis, which
    may be any AgentConfig field."""
    if not values:
        raise EmptyBenchmarkError(f"no values to sweep for axis {axis!r}")
    coerced = [coerce_field(axis, v) for v in values]
    for i, value in enumerate(coerced):
        first = coerced.index(value)
        if first < i:
            # equal configs would repeat one benchmark and overwrite its trace files
            message = f"{axis}: {values[i]!r} repeats {values[first]!r}; give each value once"
            raise InvalidConfigError(message)
    return [replace(base, **{axis: v}) for v in coerced]


# -- replay ------------------------------------------------------------------


def _recording(path: str | Path) -> tuple[TraceData, Task, AgentConfig, PricingTable]:
    """Trace ``path`` as ``read_trace`` checked it, and the task, config and
    pricing its header records."""
    data = read_trace(path)
    return (data, *recorded_run(path, data.header))


def replay_run(
    trace_path: str | Path,
    trace_dir: str | Path | None = None,
) -> tuple[TaskOutcome, TaskRunRecord]:
    """Re-execute a recorded run fully offline.

    The recording is the run's backend: it serves every model response,
    tool result and embedding, failures included. Task, config and
    pricing are restored from its header by ``recorded_run`` and go
    through the same run path as a live run. With ``trace_dir`` set, the
    replay writes its own trace in the current version: for a deterministic
    run, byte-identical to an original in that version.

    A recording that ``read_trace`` or ``recorded_run`` refuses is refused;
    a replay that asks for another effect than the next recorded one or
    with other tool args, ends unlike it or leaves recorded effects unused
    raises ``ReplayMismatchError``.
    """
    return _replay(trace_path, trace_dir, *_recording(trace_path))


def _replay(
    path: str | Path,
    trace_dir: str | Path | None,
    data: TraceData,
    task: Task,
    config: AgentConfig,
    pricing: PricingTable,
) -> tuple[TaskOutcome, TaskRunRecord]:
    """``replay_run`` of a trace that ``_recording`` has read."""
    recorded = recorded_outcome(path, data.result, task)
    source = ReplaySource(data, recorded.terminated_by is TerminatedBy.TIMEOUT)
    # engines of the recorded names, never called: a replay's searches ask with the recorded args
    names = next((e["args"] for e in data.events if e.get("tool") == "search"), {}).get("providers")
    inert = [FixtureSearchProvider(n, {}) for n in names] if type(names) is list else ()
    outcome, record = _run(task, config, source, pricing, inert, trace_dir=trace_dir)
    was, now = recorded.to_dict(with_task=False), outcome.to_dict(with_task=False)
    diverged = [
        f"{key} recorded {was[key]!r}, replayed {value!r}"
        for key, value in now.items()
        if was[key] != value
    ]
    if not source.exhausted():
        diverged.append("recorded effects are left over")
    if diverged:
        raise ReplayMismatchError(f"{path}: replay diverged: {'; '.join(diverged)}")
    return outcome, record


def replay_benchmark(
    trace_paths: Sequence[str | Path],
    trace_dir: str | Path | None = None,
) -> tuple[list[TaskOutcome], list[AggregateRow]]:
    """Replay a set of traces and rebuild the aggregate rows.

    With ``trace_dir`` set, every replay is re-recorded there. A trace whose
    task id an earlier trace of the set holds is refused once its header is
    read, so neither it nor a later trace is replayed.
    """
    if not trace_paths:
        raise EmptyBenchmarkError("no trace files to replay")
    outcomes = []

    def task_ids():  # a trace is replayed once _check_runs has passed its task id
        for path in trace_paths:
            recording = _recording(path)
            yield recording[1].task_id
            outcome, _ = _replay(path, trace_dir, *recording)
            log.info("replayed %s: solved=%s", Path(path).name, outcome.solved)
            outcomes.append(outcome)

    _check_runs(task_ids())
    return outcomes, _tally(outcomes)
