import dataclasses
import json
from fractions import Fraction

import pytest

from agentmeter.agent import TerminatedBy
from agentmeter.backend import ScriptedBackend
from agentmeter.config import (
    MemoryMode,
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
    UnknownAxisError,
    execute_run,
    grade,
    load_tasks,
    normalize_answer,
    replay_benchmark,
    replay_run,
    run_benchmark,
    sweep_configs,
)
from agentmeter.ledger import Scope
from agentmeter.money import PICO_PER_USD
from agentmeter.trace import read_trace, trace_filename

from conftest import BENCH, bench_backend, bench_fetcher, bench_pricing, bench_providers

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
        task_id="t", level=2, solved=True, final_answer="x",
        cost_pico=5, total_tokens=7, terminated_by=TerminatedBy.FINAL_ANSWER,
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
    # e3's planner replies with whitespace only: that run errors, the others go on
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
    assert trace.result["cost_pico"] == failed.cost_pico
    assert report.rows[0].task_count == 3


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


def test_sweep_unknown_axis_lists_choices():
    with pytest.raises(UnknownAxisError, match="max_steps"):
        sweep_configs(default_config(), "temperature", [1])


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
