import dataclasses
import hashlib
import json
import re
import time
from fractions import Fraction
from unittest import mock

import pytest

from agentmeter.agent import TerminatedBy
from agentmeter.backend import BackendError, OpenAIBackend, Purpose, ScriptEntry, ScriptedBackend
from agentmeter.cli import main
from agentmeter.config import (
    InvalidConfigError,
    MemoryMode,
    PageStrategy,
    PrmMode,
    SourceSet,
    config_hash,
    default_config,
    parse_config,
)
from agentmeter.harness import (
    BenchmarkAbortError,
    DuplicateTaskIdError,
    Task,
    TaskFileError,
    TaskOutcome,
    execute_run,
    grade,
    load_tasks,
    normalize_answer,
    read_results,
    replay_benchmark,
    recorded_run,
    replay_run,
    run_benchmark,
    run_header,
    sweep_configs,
)
from agentmeter.ledger import Scope
from agentmeter.money import PICO_PER_USD
from agentmeter import tools
from agentmeter.tools import FixtureFetcher, FixtureSearchProvider, ToolError
from agentmeter.trace import ReplayMismatchError, TraceFormatError, read_trace, trace_filename

from conftest import (
    BENCH,
    FIXTURES,
    bench_backend,
    bench_fetcher,
    bench_pricing,
    bench_providers,
    count_extractions,
    trace_lines,
    write_trace_lines,
)

MICRO = PICO_PER_USD // 10**6


def bench_config():
    config, _ = parse_config((BENCH / "config.ini").read_text(encoding="utf-8"))
    return config


def run_bench(workers=1, trace_dir=None, backend=None):
    return run_benchmark(
        load_tasks(BENCH / "tasks.jsonl"),
        bench_config(),
        backend or bench_backend(),
        bench_pricing(),
        workers=workers,
        providers=bench_providers(),
        fetcher=bench_fetcher(),
        trace_dir=trace_dir,
    )


# -- task loading ------------------------------------------------------------


def test_load_tasks_resolves_attachments():
    tasks = load_tasks(BENCH / "tasks.jsonl")
    assert [t.task_id for t in tasks] == ["gaia-e1", "gaia-e2", "gaia-e3"]
    assert [t.level for t in tasks] == [1, 2, 3]
    assert tasks[0].attachments == ()
    (attachment,) = tasks[1].attachments
    assert attachment == str(BENCH / "data_sheet.txt")


def write_tasks(tmp_path, lines):
    p = tmp_path / "tasks.jsonl"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def task_line(task_id="t1", level=1, question="Q?", answer="A", file_name=None):
    row = {"task_id": task_id, "Level": level, "Question": question,
           "Final answer": answer}
    if file_name is not None:
        row["file_name"] = file_name
    return json.dumps(row)


def test_load_tasks_error_lines_are_cited(tmp_path):
    p = write_tasks(tmp_path, [task_line(), "{not json"])
    with pytest.raises(TaskFileError, match=r"tasks\.jsonl:2"):
        load_tasks(p)

    p = write_tasks(tmp_path, ['{"task_id": "x", "Level": 1}'])
    with pytest.raises(TaskFileError, match="Question"):
        load_tasks(p)

    p = write_tasks(tmp_path, [task_line(level=4)])
    with pytest.raises(TaskFileError, match="level"):
        load_tasks(p)

    p = write_tasks(tmp_path, [task_line(), task_line("t2", answer=".")])
    with pytest.raises(TaskFileError, match=r"tasks\.jsonl:2: expected answer '\.' is empty once normalized$"):
        load_tasks(p)

    # a Level is an int that is no bool, or a decimal-integer string
    for level in (True, 2.7, 2.0, "2.7", "two", "", None, [2]):
        p = write_tasks(tmp_path, [task_line(level=level)])
        with pytest.raises(TaskFileError, match=r"tasks\.jsonl:1: field Level is missing or invalid"):
            load_tasks(p)
    p = write_tasks(tmp_path, [task_line("a", level=2), task_line("b", level=" 3 ")])
    assert [t.level for t in load_tasks(p)] == [2, 3]


def test_load_tasks_reads_text_fields_from_strings_and_numbers_only(tmp_path):
    p = write_tasks(tmp_path, [task_line(7, question=12, answer=740.5)])
    (task,) = load_tasks(p)
    assert (task.task_id, task.question, task.expected_answer) == ("7", "12", "740.5")
    for field in ("task_id", "question", "answer"):
        for value in (None, True, [1], {"a": 1}):
            p = write_tasks(tmp_path, [task_line(), task_line(**{field: value})])
            with pytest.raises(TaskFileError, match=rf"tasks\.jsonl:2: field .* is missing or invalid: {re.escape(repr(value))}$"):
                load_tasks(p)


def test_load_tasks_keeps_attachments_inside_the_task_directory(tmp_path):
    # a name resolves beside the task file, so none may leave its directory
    names = ["offline-0001.txt", "sub/notes.txt", "a..b.txt", "./notes.txt"]
    p = write_tasks(tmp_path, [task_line(f"t{i}", file_name=n) for i, n in enumerate(names)])
    assert [t.attachments for t in load_tasks(p)] == [(str(tmp_path / n),) for n in names]
    for name in ("sub/../../notes.txt", "sub/.."):  # a `..` past the first part, as the rows' are not
        p = write_tasks(tmp_path, [task_line(), task_line("t2", file_name=name)])
        with pytest.raises(TaskFileError, match=rf"^{re.escape(str(p))}:2: field file_name is "
                                                rf"missing or invalid: {re.escape(repr(name))}$"):
            load_tasks(p)


def test_load_tasks_rejects_duplicate_ids(tmp_path):
    p = write_tasks(tmp_path, [task_line("same"), task_line("same")])
    with pytest.raises(DuplicateTaskIdError, match="same"):
        load_tasks(p)


def test_load_tasks_skips_blank_lines(tmp_path):
    p = write_tasks(tmp_path, [task_line(), "", task_line("t2")])
    assert len(load_tasks(p)) == 2


def test_task_validation():
    with pytest.raises(ValueError):
        Task(task_id="t", level=0, question="q", expected_answer="a", attachments=())
    with pytest.raises(ValueError):
        Task(task_id="t", level=4, question="q", expected_answer="a", attachments=())
    # a failed run answers "", which would grade as solved against these
    for empty in ("", " . ", "'\"\"'"):
        with pytest.raises(ValueError, match="is empty once normalized"):
            Task(task_id="t", level=1, question="q", expected_answer=empty)


# -- grading -----------------------------------------------------------------


def test_normalize_answer_rules():
    assert normalize_answer("  The   Answer. ") == "the answer"
    assert normalize_answer('"Quoted"') == "quoted"
    assert normalize_answer("'\"double wrapped\"'") == "double wrapped"
    assert normalize_answer("don't") == "don't"  # inner apostrophe survives


@pytest.mark.parametrize("answer,expected,ok", [
    ("Paris", "paris", True),
    ("Paris.", "Paris", True),
    ('"1962"', "1962", True),
    ("1,234", "1234", True),
    ("45%", "45", True),
    ("0.1000000002", "0.1", False),       # outside relative tolerance
    ("0.10000000001", "0.1", True),       # inside
    ("b, a, c", "a, b, c", True),         # lists compare unordered
    ("a, a, b", "a, b, b", False),        # multiplicity matters
    ("a, b", "a, b, c", False),           # length must match
    ("Lyon", "Paris", False),
])
def test_grade_pairs(answer, expected, ok):
    assert grade(answer, expected) is ok


def test_outcome_as_tuple():
    outcome = TaskOutcome(
        task_id="t", level=2, final_answer="x", terminated_by=TerminatedBy.FINAL_ANSWER,
        steps=3, plan_count=1, solved=True, cost_pico=5, prompt_tokens=4, completion_tokens=3,
    )
    assert outcome.as_tuple() == (2, True, 5, 7)


# -- single runs -------------------------------------------------------------


def test_execute_run_solves_search_task(tmp_path):
    task = load_tasks(BENCH / "tasks.jsonl")[0]
    config = bench_config()
    outcome, record = execute_run(
        task, config, bench_backend(), bench_pricing(),
        providers=bench_providers(), fetcher=bench_fetcher(), trace_dir=tmp_path,
    )
    assert outcome.solved and outcome.final_answer == "1962"
    assert outcome.terminated_by is TerminatedBy.FINAL_ANSWER
    assert outcome.cost_pico == 3970 * MICRO
    trace = tmp_path / trace_filename(task.task_id, config_hash(config))
    assert trace.exists()


def test_execute_run_refuses_an_invalid_config_before_any_call(tmp_path):
    task = load_tasks(BENCH / "tasks.jsonl")[0]
    config = dataclasses.replace(bench_config(), backbone_id="unpriced-model")
    backend = bench_backend()
    with pytest.raises(InvalidConfigError, match="no pricing entry for 'unpriced-model'"):
        execute_run(
            task, config, backend, bench_pricing(),
            providers=bench_providers(), fetcher=bench_fetcher(), trace_dir=tmp_path,
        )
    assert backend.calls == []
    assert list(tmp_path.iterdir()) == []


def test_execute_run_reads_attachment_and_fails_grading():
    task = load_tasks(BENCH / "tasks.jsonl")[1]
    outcome, record = execute_run(
        task, bench_config(), bench_backend(), bench_pricing(),
        providers=bench_providers(), fetcher=bench_fetcher(),
    )
    assert not outcome.solved            # script answers 750, sheet says 740
    assert outcome.final_answer == "750"
    assert any(s.action and s.action.name.value == "read_attachment" for s in record.steps)


# -- benchmark ---------------------------------------------------------------


def expected_all_row(row):
    assert row.scope is Scope.ALL
    assert (row.task_count, row.solved_count) == (3, 2)
    assert row.total_cost_pico == 9140 * MICRO
    assert row.cost_of_pass_exact == Fraction(4570, 10**6)
    # dollars per solve is mean cost divided by accuracy
    assert row.cost_of_pass_exact == row.mean_cost_exact * Fraction(3, 2)


def test_run_benchmark_aggregates():
    outcomes, report = run_bench()
    assert [o.task_id for o in outcomes] == ["gaia-e1", "gaia-e2", "gaia-e3"]
    assert [o.solved for o in outcomes] == [True, False, True]

    all_row, l1, l2, l3 = report.rows
    expected_all_row(all_row)
    assert (l1.scope, l1.solved_count) == (Scope.L1, 1)
    assert (l2.scope, l2.solved_count) == (Scope.L2, 0)
    assert l2.cost_of_pass_usd == float("inf")
    assert (l3.scope, l3.solved_count) == (Scope.L3, 1)
    assert report.config_hash == config_hash(bench_config())


def test_run_benchmark_workers_equivalent():
    serial = run_bench(workers=1)
    threaded = run_bench(workers=4)
    assert serial[0] == threaded[0]
    assert serial[1].rows == threaded[1].rows


def test_workers_share_the_page_cache(tmp_path, monkeypatch):
    extracted = count_extractions(monkeypatch)
    pages = {f"https://example.org/p{k}": f"<h1>Page {k}</h1><p>{'filler ' * 300}</p>" for k in range(3)}
    tasks = [Task(f"t{i}", 1, f"What heads page p{i % 3}?", f"Page {i % 3}") for i in range(9)]
    entries = [ScriptEntry(Purpose.PLANNER, "1. Open the page.\n2. Answer.", times=0)]
    for k in range(3):
        entries += [
            ScriptEntry(Purpose.ACTOR, f"ACTION: open_url(url=https://example.org/p{k})", f"page p{k}"),
            ScriptEntry(Purpose.ACTOR, f"ACTION: final_answer(answer=Page {k})", f"page p{k}"),
        ]

    def bench(workers):
        trace_dir = tmp_path / f"workers{workers}"
        outcomes, _ = run_benchmark(
            tasks, bench_config(), ScriptedBackend(entries), bench_pricing(), workers=workers,
            fetcher=FixtureFetcher(pages), trace_dir=trace_dir,
        )
        assert all(o.solved for o in outcomes)
        return {p.name: p.read_bytes() for p in trace_dir.iterdir()}

    threaded = bench(workers=2)
    # every page extracted, by each worker at most once: two workers opening
    # a new page at once may both extract it, nine runs without the cache would
    assert set(extracted) == set(pages.values()) and len(extracted) <= 2 * len(pages)
    tools.PAGE_TEXTS.clear()
    extracted.clear()
    assert bench(workers=1) == threaded and len(threaded) == len(tasks)
    assert sorted(extracted) == sorted(pages.values())


def test_run_benchmark_aborts_when_every_run_errors():
    with pytest.raises(BenchmarkAbortError):
        run_bench(backend=ScriptedBackend([]))


def test_run_benchmark_keeps_partial_failures(tmp_path):
    # drop e3's entries: that one run errors out but the benchmark survives
    keep = [
        line for line in (BENCH / "script.jsonl").read_text(encoding="utf-8").splitlines()
        if "Danube" not in line
    ]
    script = tmp_path / "script.jsonl"
    script.write_text("\n".join(keep) + "\n", encoding="utf-8")
    outcomes, report = run_bench(backend=ScriptedBackend.from_jsonl(script))
    by_id = {o.task_id: o for o in outcomes}
    assert by_id["gaia-e3"].terminated_by is TerminatedBy.ERROR
    assert not by_id["gaia-e3"].solved
    assert report.rows[0].task_count == 3


def test_run_benchmark_survives_an_empty_plan(tmp_path):
    # e3's planner replies with whitespace only, also when asked again: that run
    # errors, the others go on
    empty_plan = {"purpose": "planner", "match": "Danube", "response": "  \n ", "times": 0}
    script = tmp_path / "script.jsonl"
    script.write_text(
        json.dumps(empty_plan) + "\n" + (BENCH / "script.jsonl").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    outcomes, report = run_bench(
        trace_dir=tmp_path / "traces", backend=ScriptedBackend.from_jsonl(script)
    )
    assert [o.terminated_by for o in outcomes] == [
        TerminatedBy.FINAL_ANSWER, TerminatedBy.FINAL_ANSWER, TerminatedBy.ERROR
    ]
    failed = outcomes[2]
    assert not failed.solved and failed.cost_pico > 0  # the planner call stays metered
    trace = read_trace(tmp_path / "traces" / trace_filename("gaia-e3", config_hash(bench_config())))
    assert trace.result["terminated_by"] == "error"
    assert [e["purpose"] for e in trace.events if e["type"] == "model_call"] == [
        Purpose.PLANNER
    ] * 2
    assert trace.result["cost_pico"] == failed.cost_pico
    assert report.rows[0].task_count == 3


class DanubeBreaksEmbeddings(ScriptedBackend):
    """A faulty embedding service: no unit vector for any text that mentions the Danube."""

    def embed(self, text):
        vector = super().embed(text)
        return 2 * vector if "Danube" in text else vector


def run_with_broken_embeddings(tmp_path):
    """The fixture bench in summarized memory, with summaries of e3's steps
    given an embedding that is no unit vector (2 * a tuple repeats it: 32
    components of norm sqrt(2)), which RunSession.embed refuses; traced."""
    script = tmp_path / "script.jsonl"
    script.write_text(
        (BENCH / "script.jsonl").read_text(encoding="utf-8")
        + json.dumps({"purpose": "memory", "match": "Danube", "response": "Danube lengths",
                      "times": 0}) + "\n"
        + json.dumps({"purpose": "memory", "response": "a step was taken", "times": 0}) + "\n",
        encoding="utf-8",
    )
    config = dataclasses.replace(bench_config(), memory_mode=MemoryMode.SUMMARIZED)
    outcomes, report = run_benchmark(
        load_tasks(BENCH / "tasks.jsonl"), config, DanubeBreaksEmbeddings.from_jsonl(script),
        bench_pricing(), providers=bench_providers(),
        fetcher=bench_fetcher(), trace_dir=tmp_path / "traces",
    )
    return outcomes, report, tmp_path / "traces" / trace_filename("gaia-e3", config_hash(config))


def test_run_benchmark_survives_an_error_outside_the_backend(tmp_path):
    outcomes, report, e3 = run_with_broken_embeddings(tmp_path)
    assert [o.terminated_by for o in outcomes] == [
        TerminatedBy.FINAL_ANSWER, TerminatedBy.FINAL_ANSWER, TerminatedBy.ERROR
    ]
    trace = read_trace(e3)
    assert trace.result["terminated_by"] == "error"
    assert trace.result["cost_pico"] == outcomes[2].cost_pico > 0
    assert report.rows[0].task_count == 3


def test_a_run_ended_by_a_refused_embedding_replays_exactly(tmp_path):
    outcomes, _, e3 = run_with_broken_embeddings(tmp_path)
    failed = read_trace(e3).events[-1]
    assert failed["type"] == "embed" and failed["error"].startswith("vector has norm 1.414")
    replayed, _ = replay_run(e3, trace_dir=tmp_path / "replay")
    assert replayed == outcomes[2] and replayed.terminated_by is TerminatedBy.ERROR
    assert (tmp_path / "replay" / e3.name).read_bytes() == e3.read_bytes()


def test_run_benchmark_traces_task_ids_of_one_sanitized_form_apart(tmp_path):
    first = load_tasks(BENCH / "tasks.jsonl")[0]
    ids = ("gaia/e1", "gaia_e1")
    tasks = [dataclasses.replace(first, task_id=i) for i in ids]
    outcomes, _ = run_benchmark(tasks, bench_config(), bench_backend(), bench_pricing(),
                                providers=bench_providers(), fetcher=bench_fetcher(),
                                trace_dir=tmp_path / "traces")
    assert [o.solved for o in outcomes] == [True, True]
    names = {trace_filename(i, config_hash(bench_config())): i for i in ids}
    assert len(names) == 2
    assert {p.name for p in (tmp_path / "traces").iterdir()} == set(names)
    for name, task_id in names.items():
        assert read_trace(tmp_path / "traces" / name).header["task_id"] == task_id


def test_run_benchmark_counts_each_task_once():
    task = load_tasks(BENCH / "tasks.jsonl")[0]
    kwargs = dict(providers=bench_providers(), fetcher=bench_fetcher())
    with pytest.raises(DuplicateTaskIdError, match="task_id 'gaia-e1' appears twice"):
        run_benchmark([task, task], bench_config(), bench_backend(), bench_pricing(), **kwargs)


@pytest.mark.parametrize("traced", [False, True])
def test_run_benchmark_refuses_a_task_given_twice_before_any_call(tmp_path, traced):
    task = load_tasks(BENCH / "tasks.jsonl")[0]
    backend = bench_backend()
    trace_dir = tmp_path / "traces" if traced else None
    with pytest.raises(DuplicateTaskIdError, match="task_id 'gaia-e1' appears twice"):
        run_benchmark([task, task], bench_config(), backend, bench_pricing(),
                      providers=bench_providers(), fetcher=bench_fetcher(), trace_dir=trace_dir)
    assert backend.calls == []
    assert not (tmp_path / "traces").exists()


def test_read_results_gives_the_benchmark_outcomes_and_rows(tmp_path):
    outcomes, report = run_bench()
    results = tmp_path / "results.json"
    results.write_text(json.dumps(report.to_dict()), encoding="utf-8")
    assert read_results(results) == (report.config_hash, outcomes, list(report.rows))


def test_a_trace_dir_that_cannot_be_made_stops_the_bench_before_any_call(tmp_path):
    not_a_dir = tmp_path / "trace-dir"
    not_a_dir.write_text("a file\n", encoding="utf-8")
    backend = bench_backend()
    with pytest.raises(FileExistsError):
        run_bench(trace_dir=not_a_dir, backend=backend)
    assert backend.calls == []


def test_a_completion_body_nested_too_deep_is_a_failed_call_that_replays(tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    resp = mock.Mock(status_code=200, text=deep)
    resp.json.side_effect = lambda: json.loads(deep)  # as requests decodes a body
    task = load_tasks(BENCH / "tasks.jsonl")[0]
    with mock.patch("requests.post", return_value=resp):
        outcome, record = execute_run(task, bench_config(), OpenAIBackend(api_key="k"),
                                      bench_pricing(), trace_dir=tmp_path / "live")
    assert outcome.terminated_by is TerminatedBy.ERROR
    (entry,) = record.ledger.entries
    assert entry.purpose is Purpose.PLANNER
    assert entry.error.startswith("completion body is not JSON: '[[[")
    (trace,) = (tmp_path / "live").iterdir()
    (call,) = [e for e in trace_lines(trace) if e["type"] == "model_call"]
    assert call["error"] == entry.error
    replayed, _ = replay_run(trace, trace_dir=tmp_path / "replay")
    assert replayed == outcome
    assert (tmp_path / "replay" / trace.name).read_bytes() == trace.read_bytes()


def test_run_benchmark_rejects_empty_and_bad_workers():
    from agentmeter.ledger import EmptyBenchmarkError

    with pytest.raises(EmptyBenchmarkError):
        run_benchmark([], bench_config(), bench_backend(), bench_pricing())
    with pytest.raises(ValueError):
        run_bench(workers=0)  # type: ignore[call-arg]


# -- sweeps ------------------------------------------------------------------


def test_sweep_configs_vary_exactly_one_axis():
    base = default_config()
    out = sweep_configs(base, "max_steps", [4, "8", 16])
    assert [c.max_steps for c in out] == [4, 8, 16]
    for c in out:
        assert dataclasses.replace(c, max_steps=base.max_steps) == base
    assert base == default_config()  # base never mutated


def test_sweep_configs_coerce_enum_axes():
    out = sweep_configs(default_config(), "memory_mode", ["summarized", MemoryMode.SIMPLE])
    assert [c.memory_mode for c in out] == [MemoryMode.SUMMARIZED, MemoryMode.SIMPLE]
    (cfg,) = sweep_configs(default_config(), "source_set", ["multi"])
    assert cfg.source_set is SourceSet.MULTI
    (cfg,) = sweep_configs(default_config(), "backbone_id", ["gpt-4.1-mini"])
    assert cfg.backbone_id == "gpt-4.1-mini"


def test_sweep_unknown_axis_is_refused():
    with pytest.raises(InvalidConfigError, match="AgentConfig has no field 'bogus'"):
        sweep_configs(default_config(), "bogus", [1])


# -- replay ------------------------------------------------------------------


def test_replay_reproduces_run_byte_identically(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir(), second.mkdir()
    run_bench(trace_dir=first)

    originals = sorted(first.iterdir())
    assert len(originals) == 3
    for original in originals:
        outcome, _ = replay_run(original, trace_dir=second)
        copy = second / original.name
        assert copy.read_bytes() == original.read_bytes()

    replayed_outcomes, rows = replay_benchmark(originals)
    live_outcomes, report = run_bench()
    assert replayed_outcomes == live_outcomes
    assert rows == list(report.rows)


def test_replay_run_restores_task_metadata(tmp_path):
    run_bench(trace_dir=tmp_path)
    trace = next(p for p in tmp_path.iterdir() if "gaia-e2" in p.name)
    outcome, record = replay_run(trace)
    assert outcome.level == 2
    assert outcome.final_answer == "750"
    assert not outcome.solved


# recorded from the fixture benchmark by the version that gzipped traces at level 9
LEVEL_9_TRACE = FIXTURES / "level9" / "gaia-e1.2010141e.trace"


def test_level_9_trace_of_an_earlier_version_replays(tmp_path):
    outcome, _ = replay_run(LEVEL_9_TRACE, trace_dir=tmp_path)
    recorded = read_trace(LEVEL_9_TRACE).result
    assert outcome.solved and outcome.terminated_by is TerminatedBy.FINAL_ANSWER
    assert (outcome.solved, outcome.cost_pico) == (recorded["solved"], recorded["cost_pico"])
    # re-recorded in the current version, with the same lines
    copy = tmp_path / LEVEL_9_TRACE.name
    old, new = trace_lines(LEVEL_9_TRACE), trace_lines(copy)
    assert (old[0].pop("version"), new[0].pop("version")) == (1, 2)
    assert new == old
    # gzip XFL byte: level 9, then level 0
    assert (LEVEL_9_TRACE.read_bytes()[8], copy.read_bytes()[8]) == (2, 0)


def test_replay_refuses_a_recording_without_result_line(tmp_path):
    run_bench(trace_dir=tmp_path)
    trace = next(tmp_path.glob("gaia-e1.*"))
    write_trace_lines(trace, trace_lines(trace)[:2])  # header and first event
    with pytest.raises(TraceFormatError, match=f"{trace.name}: no result line"):
        replay_run(trace)


RESULT_EDITS = {
    "final_answer": lambda value: value + "0",
    "terminated_by": lambda value: "timeout",
    "steps": lambda value: value + 1,
    "plan_count": lambda value: value + 1,
    "solved": lambda value: not value,
    "cost_pico": lambda value: value + 1,
    "prompt_tokens": lambda value: value + 1,
    "completion_tokens": lambda value: value - 1,
}


DELETE = object()

# (header field as a key path, its new value or DELETE, what the error says)
HEADER_EDITS = [
    (("task", "question"), DELETE, "header field task.question is missing or invalid: None"),
    (("task", "level"), 7, "header field task is invalid: level must be 1, 2, or 3, got 7"),
    (("task", "level"), True, "header field task.level is missing or invalid: True"),
    (("task", "expected_answer"), ".",
     "header field task is invalid: expected answer '.' is empty once normalized"),
    (("task", "attachment_names"), 5, "header field task.attachment_names is missing"),
    (("task", "attachment_names"), [5], "header field task.attachment_names is missing"),
    (("task_id",), DELETE, "header field task_id is missing"),
    (("config",), DELETE, "header field config is missing"),
    (("config", "max_step"), 3, "header field config is invalid: AgentConfig has no field"),
    (("config", "max_steps"), 0, "header field config is invalid: max_steps must be >= 1"),
    (("config", "max_steps"), None, "header field config is invalid: max_steps: None is not"),
    (("config", "max_steps"), True, "header field config is invalid: max_steps: True is not a"),
    (("config", "max_steps"), 12.7, "header field config is invalid: max_steps: 12.7 is not a"),
    (("config", "temperature"), True,
     "header field config is invalid: temperature: True is not a valid float"),
    (("config", "backbone_id"), 5, "header field config is invalid: backbone_id: 5 is not a"),
    (("pricing",), DELETE, "header field pricing is missing"),
    (("pricing",), {}, "header field pricing is invalid: not a pricing snapshot (KeyError"),
    (("pricing", "models", "gpt-4.1", "input_pico_per_token"), -1,
     "header field pricing is invalid: per-token prices must be non-negative"),
    (("pricing", "models", "gpt-4.1", "input_pico_per_token"), 1.5,
     "header field pricing is invalid: not a pricing snapshot (TypeError: per-token prices"),
    # an effective date is null or YYYY-MM-DD text, on every Python
    (("pricing", "effective_date"), 0, "header field pricing is invalid: 0 is not a valid str"),
    (("pricing", "effective_date"), "",
     "header field pricing is invalid: Invalid isoformat string: ''"),
    (("pricing", "effective_date"), "20250601",
     "header field pricing is invalid: Invalid isoformat string: '20250601'"),
    # run_id and config_hash derive from the task and config; a replay writes them anew
    (("run_id",), "gaia-e2",
     "header field run_id is invalid: 'gaia-e2', but the header's task and config give 'gaia-e1'"),
    (("run_id",), DELETE, "header field run_id is missing or invalid: None"),
    (("config_hash",), "deadbeef", "header field config_hash is invalid: 'deadbeef', but the "
     f"header's task and config give {config_hash(bench_config())!r}"),
    (("config", "max_steps"), 11, "header field config_hash is invalid: "
     f"{config_hash(bench_config())!r}, but the header's task and config give "
     f"{config_hash(dataclasses.replace(bench_config(), max_steps=11))!r}"),
]


def header_edit_id(edit):
    keys, value, _ = edit
    return ".".join(keys) + "=" + ("deleted" if value is DELETE else json.dumps(value))


@pytest.mark.parametrize("edit", HEADER_EDITS, ids=header_edit_id)
def test_replay_refuses_a_damaged_header(tmp_path, capsys, edit):
    keys, value, message = edit
    run_bench(trace_dir=tmp_path)
    trace = next(tmp_path.glob("gaia-e1.*"))
    events = trace_lines(trace)
    *parents, last = keys
    edited = events[0]
    for key in parents:
        edited = edited[key]
    if value is DELETE:
        del edited[last]
    else:
        edited[last] = value
    write_trace_lines(trace, events)
    with pytest.raises(TraceFormatError) as info:
        replay_run(trace)
    assert str(info.value).startswith(f"{trace}: {message}")
    assert main(["replay", str(trace)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {trace}: {message}")


def test_recorded_run_reads_back_what_run_header_writes():
    task, attached = load_tasks(BENCH / "tasks.jsonl")[:2]
    config, pricing = dataclasses.replace(bench_config(), bon_n=3), bench_pricing()
    read_task, read_config, read_pricing = recorded_run("t", run_header(task, config, pricing))
    assert (read_task, read_config) == (task, config)
    assert read_pricing.snapshot() == pricing.snapshot()
    # attachments are recorded by name; a replay serves their contents from the trace
    assert recorded_run("t", run_header(attached, config, pricing))[0].attachments == (
        "data_sheet.txt",
    )


@pytest.mark.parametrize("key", list(RESULT_EDITS))
def test_replay_that_ends_unlike_its_recording_fails(tmp_path, key):
    run_bench(trace_dir=tmp_path)
    trace = next(tmp_path.glob("gaia-e1.*"))
    events = trace_lines(trace)
    events[-1][key] = RESULT_EDITS[key](events[-1][key])
    write_trace_lines(trace, events)
    with pytest.raises(ReplayMismatchError, match=f"{trace.name}: replay diverged: {key} recorded"):
        replay_run(trace)


@pytest.mark.parametrize("key,value", [
    ("steps", None),
    ("steps", "3"),
    ("solved", 1),
    ("cost_pico", True),
    ("terminated_by", "gave_up"),
    ("final_answer", 1962),
])
def test_replay_refuses_a_result_line_with_a_missing_or_invalid_field(tmp_path, key, value):
    run_bench(trace_dir=tmp_path)
    trace = next(tmp_path.glob("gaia-e1.*"))
    events = trace_lines(trace)
    if value is None:
        del events[-1][key]
    else:
        events[-1][key] = value
    write_trace_lines(trace, events)
    with pytest.raises(TraceFormatError, match=f"{trace.name}: result field {key} is missing"):
        replay_run(trace)


def test_replay_refuses_recorded_effects_left_over(tmp_path):
    run_bench(trace_dir=tmp_path)
    trace = next(tmp_path.glob("gaia-e1.*"))
    events = trace_lines(trace)
    last_actor = max(i for i, e in enumerate(events)
                     if e["type"] == "model_call" and e["purpose"] == "actor")
    events[-1:-1] = [events[last_actor], events[last_actor]]
    write_trace_lines(trace, events)
    with pytest.raises(ReplayMismatchError, match="recorded effects are left over"):
        replay_run(trace)


def test_a_replay_whose_search_asks_other_queries_is_refused(tmp_path, monkeypatch):
    run_bench(trace_dir=tmp_path)
    trace = next(tmp_path.glob("gaia-e1.*"))
    expand = tools.expand_queries
    monkeypatch.setattr(tools, "expand_queries", lambda *a: [q.upper() for q in expand(*a)])
    with pytest.raises(ReplayMismatchError, match="tool call tool='search' with args"):
        replay_run(trace)


# one run that searches, opens a three-viewport page, scrolls down and answers;
# each of its steps offers n candidates that differ in their reasoning
GRID_URL = "https://example.org/bridge"
GRID_PAGE = "<html><body><h1>Bridge</h1>" + "".join(
    f"<p>Paragraph {i}: the bridge spans the river and carries two tracks.</p>"
    for i in range(300)
) + "<p>The bridge opened in 1931.</p></body></html>"
GRID_ACTIONS = (
    "search(query=bridge opening year)",
    f"open_url(url={GRID_URL})",
    "page_down()",
    "final_answer(answer=1931)",
)


def grid_backend(n):
    entries = [
        ScriptEntry(Purpose.PLANNER, "1. Search.\n2. Read the page.\n3. Answer.", times=0,
                    prompt_tokens=200, completion_tokens=40),
        ScriptEntry(Purpose.QUERY_EXPANSION, "1. bridge opening year\n2. bridge history",
                    times=0, prompt_tokens=120, completion_tokens=25),
        ScriptEntry(Purpose.MEMORY, "Searched and read about the bridge.", times=0,
                    prompt_tokens=150, completion_tokens=20),
        # both fields, so one reply serves score and list judging
        ScriptEntry(Purpose.PRM, '{"analysis": "plausible", "score": 7, "index": 1}', times=0,
                    prompt_tokens=400, completion_tokens=60),
    ]
    for step, action in enumerate(GRID_ACTIONS):
        for j in range(n):
            entries.append(ScriptEntry(Purpose.ACTOR, f"Step {step}, thought {j}.\nACTION: {action}",
                                       prompt_tokens=300 + j, completion_tokens=30 + j))
    return ScriptedBackend(entries)


GRID_BON = [(1, PrmMode.SCORE), (3, PrmMode.SCORE), (3, PrmMode.LIST)]
GRID_TASK = Task(task_id="bridge", level=1, question="When did the bridge open?",
                 expected_answer="1931")


def grid_run(config, backend, trace_dir=None):
    """The grid's task, run live under ``config`` against ``backend``."""
    rows = [("Bridge history", GRID_URL, "When the bridge opened")]
    return execute_run(
        GRID_TASK, config, backend, bench_pricing(),
        providers=[FixtureSearchProvider("fixture", {"bridge opening year": rows})],
        fetcher=FixtureFetcher({GRID_URL: GRID_PAGE}), trace_dir=trace_dir,
    )


def grid_config(**fields):
    return dataclasses.replace(default_config(), query_expansion_count=2, **fields)


@pytest.mark.parametrize("bon_n,prm_mode", GRID_BON, ids=lambda v: getattr(v, "value", v))
@pytest.mark.parametrize("page_strategy", list(PageStrategy), ids=lambda m: m.value)
@pytest.mark.parametrize("memory_mode", list(MemoryMode), ids=lambda m: m.value)
def test_every_config_replays_exactly(tmp_path, memory_mode, page_strategy, bon_n, prm_mode):
    config = grid_config(memory_mode=memory_mode, page_strategy=page_strategy,
                         bon_n=bon_n, prm_mode=prm_mode)
    live, record = grid_run(config, grid_backend(bon_n), trace_dir=tmp_path / "live")
    assert live.solved and len(record.steps) == len(GRID_ACTIONS)
    scrolled = f"[{GRID_URL} | viewport 2/3]"
    if page_strategy is not PageStrategy.BROWSER_COMPLEX:
        scrolled = "page_down is only available"
    assert record.steps[2].observation.startswith(scrolled)

    original = tmp_path / "live" / trace_filename(GRID_TASK.task_id, config_hash(config))
    replayed, _ = replay_run(original, trace_dir=tmp_path / "replay")
    assert (tmp_path / "replay" / original.name).read_bytes() == original.read_bytes()
    assert replayed == live
    ledger_sum = sum(entry.cost_pico for entry in record.ledger.entries)
    assert ledger_sum == live.cost_pico == read_trace(original).result["cost_pico"]


def grid_runs(max_steps):
    """The grid's run, once per config, with a step budget of ``max_steps``."""
    for memory_mode in MemoryMode:
        for page_strategy in PageStrategy:
            for bon_n, prm_mode in GRID_BON:
                config = grid_config(memory_mode=memory_mode, page_strategy=page_strategy,
                                     bon_n=bon_n, prm_mode=prm_mode, max_steps=max_steps)
                backend = grid_backend(bon_n)
                outcome, _ = grid_run(config, backend)
                yield outcome, backend.calls


def framed(*fields):
    """Each field's UTF-8 bytes behind their length, so no two field lists frame alike."""
    out = bytearray()
    for text in fields:
        data = text.encode("utf-8")
        out += len(data).to_bytes(8, "big") + data
    return bytes(out)


# the sha256 of every request the grid makes; it moves when any prompt changes by a byte
GRID_PROMPTS_SHA256 = "813e447ce555d05cccc6cfdc54641bea05f4ff08bb884fb497126d1bdba27ea4"


def test_every_prompt_of_the_grid_is_pinned():
    digest = hashlib.sha256()
    requests = 0
    # a budget of 12 ends each run with final_answer, one of 3 with forced_answer
    for max_steps, terminated_by in ((12, TerminatedBy.FINAL_ANSWER), (3, TerminatedBy.STEP_BUDGET)):
        for outcome, calls in grid_runs(max_steps):
            assert outcome.solved and outcome.terminated_by == terminated_by
            for request in calls:
                requests += 1
                digest.update(framed(
                    request.purpose.value, request.model_id, repr(request.temperature),
                    str(len(request.messages)),
                    *(text for m in request.messages for text in (m.role, m.content)),
                ))
    assert (requests, digest.hexdigest()) == (2196, GRID_PROMPTS_SHA256)


# runs that fail part-way: each must replay to the live outcome and ledger
class FlakyBackend(ScriptedBackend):
    """Raises BackendError on the given (1-based) actor calls; sleeps before the planner's."""

    def __init__(self, entries, failing_actor_calls=(), planner_sleep_s=0.0):
        super().__init__(entries)
        self.failing = set(failing_actor_calls)
        self.planner_sleep_s = planner_sleep_s
        self.actor_calls = 0

    def complete(self, request):
        if request.purpose is Purpose.ACTOR:
            self.actor_calls += 1
            if self.actor_calls in self.failing:
                raise BackendError("HTTP 503: upstream unavailable")
        elif request.purpose is Purpose.PLANNER:
            time.sleep(self.planner_sleep_s)
        return super().complete(request)


def failure_backend(actions, backend=FlakyBackend, **kwargs):
    entries = [
        ScriptEntry(Purpose.PLANNER, "1. Read.\n2. Answer.", times=0,
                    prompt_tokens=200, completion_tokens=40),
        ScriptEntry(Purpose.PRM, '{"analysis": "fine", "score": 6}', times=0,
                    prompt_tokens=400, completion_tokens=60),
    ]
    entries += [ScriptEntry(Purpose.ACTOR, f"ACTION: {a}", prompt_tokens=300, completion_tokens=30)
                for a in actions]
    return backend(entries, **kwargs)


FAILURE_SCENARIOS = {
    # the missing page fails, the good one opens; replay must not swap them
    "failed_tool_call": (
        {},
        lambda: failure_backend([
            "open_url(url=https://example.org/missing)",
            f"open_url(url={GRID_URL})",
            "final_answer(answer=1931)",
        ]),
        None,
    ),
    "failed_attachment_read": (
        {},
        lambda: failure_backend([
            "read_attachment(name=gone.txt)",
            f"open_url(url={GRID_URL})",
            "final_answer(answer=1931)",
        ]),
        None,
    ),
    # the second of three best-of-N actor calls fails; the other two are judged
    "failed_model_call": (
        {"bon_n": 3, "prm_mode": PrmMode.SCORE},
        lambda: failure_backend(["final_answer(answer=1931)"] * 3, failing_actor_calls=(2,)),
        None,
    ),
    # the planner call outlasts the budget, so the first actor call times out
    "timeout": (
        {},
        lambda: failure_backend(["final_answer(answer=1931)"], planner_sleep_s=0.25),
        0.2,
    ),
}


@pytest.mark.parametrize("scenario", list(FAILURE_SCENARIOS))
def test_failed_and_timed_out_runs_replay_exactly(tmp_path, scenario):
    overrides, make_backend, timeout_s = FAILURE_SCENARIOS[scenario]
    config = dataclasses.replace(default_config(), **overrides)
    task = Task(task_id="bridge", level=1, question="When did the bridge open?",
                expected_answer="1931", attachments=(str(tmp_path / "gone.txt"),))
    live, live_record = execute_run(
        task, config, make_backend(), bench_pricing(),
        fetcher=FixtureFetcher({GRID_URL: GRID_PAGE}), trace_dir=tmp_path / "live",
        timeout_s=timeout_s,
    )
    expected = TerminatedBy.TIMEOUT if scenario == "timeout" else TerminatedBy.FINAL_ANSWER
    assert live.terminated_by is expected
    assert live.solved is (scenario != "timeout")

    original = tmp_path / "live" / trace_filename(task.task_id, config_hash(config))
    replayed, record = replay_run(original, trace_dir=tmp_path / "replay")
    assert (tmp_path / "replay" / original.name).read_bytes() == original.read_bytes()
    assert (replayed.terminated_by, replayed.solved, replayed.cost_pico) == (
        live.terminated_by, live.solved, live.cost_pico)
    assert record.ledger.entries == live_record.ledger.entries
    if scenario == "failed_model_call":
        assert any(entry.error for entry in live_record.ledger.entries)


def test_a_timeout_recorded_in_upper_case_replays_as_a_timeout(tmp_path):
    # an enum is read in any case, and the replay takes its timeout from that reading
    _, make_backend, timeout_s = FAILURE_SCENARIOS["timeout"]
    task = Task(task_id="bridge", level=1, question="When did the bridge open?",
                expected_answer="1931")
    execute_run(task, default_config(), make_backend(), bench_pricing(), trace_dir=tmp_path,
                timeout_s=timeout_s)
    trace = next(tmp_path.glob("bridge.*"))
    events = trace_lines(trace)
    events[-1]["terminated_by"] = "TIMEOUT"
    write_trace_lines(trace, events)
    assert replay_run(trace)[0].terminated_by is TerminatedBy.TIMEOUT


BRIDGE = Task(task_id="bridge", level=1, question="When did the bridge open?",
              expected_answer="1931")
MISSING_URL = "https://example.org/missing"
BRIDGE_ACTIONS = [f"open_url(url={MISSING_URL})", f"open_url(url={GRID_URL})",
                  "final_answer(answer=1931)"]


def test_a_failed_tool_call_replays_only_with_its_recorded_args(tmp_path):
    execute_run(BRIDGE, default_config(), failure_backend(BRIDGE_ACTIONS), bench_pricing(),
                fetcher=FixtureFetcher({GRID_URL: GRID_PAGE}), trace_dir=tmp_path)
    trace = next(tmp_path.glob("bridge.*"))
    events = trace_lines(trace)
    failed = next(e for e in events if e["type"] == "tool_call" and "error" in e)
    failed["args"]["url"] = "https://example.org/elsewhere"
    write_trace_lines(trace, events)
    asked = r"tool='fetch_page' with args \{'url': '.*/elsewhere'\}, got args \{'url': '.*/missing'\}"
    with pytest.raises(ReplayMismatchError, match=asked):
        replay_run(trace)


class PageServingBackend(FlakyBackend):
    """Answers each page fetch itself, without running the fetch."""

    def run_tool(self, tool, args, thunk):
        if args["url"] != GRID_URL:
            raise ToolError(f"no page at {args['url']}")
        return {"text": "The bridge opened in 1931.", "truncated": False}


def test_a_live_trace_holds_the_args_the_run_built(tmp_path):
    # whatever the backend answers, the failed and the succeeding call record the run's args
    backend = failure_backend(BRIDGE_ACTIONS, backend=PageServingBackend)
    outcome, _ = execute_run(BRIDGE, default_config(), backend, bench_pricing(),
                             trace_dir=tmp_path)
    assert outcome.solved
    trace = next(tmp_path.glob("bridge.*"))
    calls = [(e["args"], "error" in e) for e in trace_lines(trace) if e["type"] == "tool_call"]
    assert calls == [({"url": MISSING_URL}, True), ({"url": GRID_URL}, False)]
    replay_run(trace, trace_dir=tmp_path / "replay")
    assert (tmp_path / "replay" / trace.name).read_bytes() == trace.read_bytes()


MIRROR_URL = "https://mirror.example.org/bridge"  # another URL of the same page


def run_opening_a_page_three_times(trace_dir):
    """The outcome, record and trace of a live run that opens a page, opens it
    again under another URL, then opens it once more."""
    actions = [f"open_url(url={GRID_URL})", f"open_url(url={MIRROR_URL})",
               f"open_url(url={GRID_URL})", "final_answer(answer=1931)"]
    pages = FixtureFetcher({GRID_URL: GRID_PAGE, MIRROR_URL: GRID_PAGE})
    live, record = execute_run(BRIDGE, default_config(), failure_backend(actions),
                               bench_pricing(), fetcher=pages, trace_dir=trace_dir)
    return live, record, next(trace_dir.glob("bridge.*"))


def test_a_repeated_page_is_recorded_once_and_replays_exactly(tmp_path):
    live, live_record, trace = run_opening_a_page_three_times(tmp_path / "live")
    assert live.solved
    lines = trace_lines(trace)
    assert lines[0]["version"] == 2
    calls = [(e["args"]["url"], e["result"]) for e in lines if e["type"] == "tool_call"]
    page = calls[0][1]
    assert set(page) == {"text", "truncated"} and "opened in 1931" in page["text"]
    assert calls == [(GRID_URL, page), (MIRROR_URL, {"same_as": 1}), (GRID_URL, {"same_as": 1})]
    assert [e["result"] for e in read_trace(trace).events if e["type"] == "tool_call"] == [page] * 3

    replayed, record = replay_run(trace, trace_dir=tmp_path / "replay")
    assert (tmp_path / "replay" / trace.name).read_bytes() == trace.read_bytes()
    assert replayed == live
    assert record.ledger.entries == live_record.ledger.entries


def test_a_v1_trace_re_records_to_the_bytes_a_live_run_writes(tmp_path):
    live, _, trace = run_opening_a_page_three_times(tmp_path / "live")
    # the same run as v1 wrote it: each page in full
    lines = trace_lines(trace)
    lines[0]["version"] = 1
    calls = [e for e in lines if e["type"] == "tool_call"]
    for call in calls:
        if "same_as" in call["result"]:
            call["result"] = calls[call["result"]["same_as"] - 1]["result"]
    assert [e["result"] for e in calls] == [calls[0]["result"]] * 3
    (tmp_path / "v1").mkdir()
    write_trace_lines(tmp_path / "v1" / trace.name, lines)
    replayed, _ = replay_run(tmp_path / "v1" / trace.name, trace_dir=tmp_path / "replay")
    assert replayed == live
    assert (tmp_path / "replay" / trace.name).read_bytes() == trace.read_bytes()


def test_empty_plans_are_asked_again_metered_and_replay_exactly(tmp_path):
    # step 0: an empty plan, then a real one; step 1: empty twice, so step 0's plan stands
    entries = [
        ScriptEntry(Purpose.PLANNER, " \n", prompt_tokens=200, completion_tokens=2),
        ScriptEntry(Purpose.PLANNER, "1. Read.\n2. Answer.", prompt_tokens=200, completion_tokens=40),
        ScriptEntry(Purpose.PLANNER, "", times=2, prompt_tokens=210, completion_tokens=0),
        ScriptEntry(Purpose.ACTOR, f"ACTION: open_url(url={GRID_URL})",
                    prompt_tokens=300, completion_tokens=30),
        ScriptEntry(Purpose.ACTOR, "ACTION: final_answer(answer=1931)",
                    prompt_tokens=300, completion_tokens=30),
    ]
    config = dataclasses.replace(default_config(), plan_interval=1)
    task = Task(task_id="bridge", level=1, question="When did the bridge open?",
                expected_answer="1931")
    live, record = execute_run(
        task, config, ScriptedBackend(entries), bench_pricing(),
        fetcher=FixtureFetcher({GRID_URL: GRID_PAGE}), trace_dir=tmp_path / "live",
    )
    assert (live.terminated_by, live.solved) == (TerminatedBy.FINAL_ANSWER, True)
    assert [(p.text, p.created_at_step) for p in record.plans] == [("1. Read.\n2. Answer.", 0)]
    planner = [e for e in record.ledger.entries if e.purpose is Purpose.PLANNER]
    assert [(e.step_index, e.completion_tokens) for e in planner] == [(0, 2), (0, 40), (1, 0), (1, 0)]
    assert live.cost_pico == record.ledger.total_cost_pico

    original = tmp_path / "live" / trace_filename(task.task_id, config_hash(config))
    traced = [e["response"] for e in trace_lines(original)
              if e["type"] == "model_call" and e["purpose"] == "planner"]
    assert traced == [" \n", "1. Read.\n2. Answer.", "", ""]
    replayed, replay_record = replay_run(original, trace_dir=tmp_path / "replay")
    assert (tmp_path / "replay" / original.name).read_bytes() == original.read_bytes()
    assert replay_record.plans == record.plans
    assert replay_record.ledger.entries == record.ledger.entries
    assert (replayed.terminated_by, replayed.cost_pico) == (live.terminated_by, live.cost_pico)
