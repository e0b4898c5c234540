import gzip
import hashlib
import json

import pytest

from agentmeter import cli
from agentmeter.cli import main
from agentmeter.config import SourceSet
from agentmeter.tools import FixtureSearchProvider

from conftest import BENCH, FIXTURES, bench_fetcher, trace_bytes, trace_lines, write_trace_lines

AGENT_SECTION = "[agent]\nbackbone_id = gpt-4.1\n"
PRICED = "[pricing.gpt-4.1]\ninput = 1.00\noutput = 10.00\n"


def bench_args(*extra):
    return [
        "--config", str(BENCH / "config.ini"),
        "--script", str(BENCH / "script.jsonl"),
        "--fixtures", str(BENCH),
        *extra,
    ]


def run_cli(*argv):
    return main(list(argv))


# -- run ---------------------------------------------------------------------


def test_run_solved_task_exits_zero(capsys):
    code = run_cli(
        "run", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--task-id", "gaia-e1",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "answer:      1962" in out
    assert "solved:      yes" in out
    assert "ended by:    final_answer" in out


def test_run_unsolved_task_exits_one(capsys):
    code = run_cli(
        "run", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--task-id", "gaia-e2",
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "solved:      no" in out
    assert "expected:    740" in out


def test_run_requires_task_id_for_multi_task_files(capsys):
    code = run_cli("run", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"))
    assert code == 2
    assert "--task-id" in capsys.readouterr().err


def test_run_unknown_task_id(capsys):
    code = run_cli(
        "run", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--task-id", "nope",
    )
    assert code == 2
    assert "nope" in capsys.readouterr().err


# -- bench and report --------------------------------------------------------


def test_bench_prints_table(capsys):
    code = run_cli("bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"))
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("config ")
    assert "level 2" in out
    assert "inf" in out  # unsolved level has no dollars-per-solve


def test_bench_out_feeds_report(tmp_path, capsys):
    results = tmp_path / "results.json"
    run_cli(
        "bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--out", str(results),
    )
    bench_out = capsys.readouterr().out

    assert run_cli("report", "--results", str(results)) == 0
    assert capsys.readouterr().out == bench_out

    payload = json.loads(results.read_text(encoding="utf-8"))
    assert [o["task_id"] for o in payload["outcomes"]] == ["gaia-e1", "gaia-e2", "gaia-e3"]
    assert [o["solved"] for o in payload["outcomes"]] == [True, False, True]
    assert "rows" not in payload  # report derives them from the outcomes


def test_bench_out_outcome_is_the_trace_result_line(tmp_path, capsys):
    results, traces = tmp_path / "results.json", tmp_path / "traces"
    assert run_cli(
        "bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--out", str(results), "--trace-dir", str(traces),
    ) == 0
    payload = json.loads(results.read_text(encoding="utf-8"))
    for entry in payload["outcomes"]:
        trace = traces / f"{entry['task_id']}.{payload['config_hash']}.trace"
        line = {k: v for k, v in trace_lines(trace)[-1].items() if k != "type"}
        total = line["prompt_tokens"] + line["completion_tokens"]
        assert entry == {"task_id": entry["task_id"], "level": entry["level"], **line,
                         "total_tokens": total}
    assert [(o["task_id"], o["level"]) for o in payload["outcomes"]] == [
        ("gaia-e1", 1), ("gaia-e2", 2), ("gaia-e3", 3)]


def test_report_scope_and_format(tmp_path, capsys):
    results = tmp_path / "results.json"
    run_cli(
        "bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--out", str(results),
    )
    capsys.readouterr()

    assert run_cli("report", "--results", str(results), "--format", "csv",
                   "--scope", "l1") == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("scope,")
    assert len(lines) == 2 and lines[1].startswith("l1,")

    target = tmp_path / "plot.svg"
    assert run_cli("report", "--results", str(results), "--format", "svg",
                   "--out", str(target)) == 0
    assert target.read_text(encoding="utf-8").startswith("<svg")
    assert capsys.readouterr().out == ""


def test_report_scope_without_rows_exits_two(tmp_path, capsys):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(
        (BENCH / "tasks.jsonl").read_text(encoding="utf-8").splitlines()[0] + "\n",
        encoding="utf-8",
    )
    results = tmp_path / "results.json"
    assert run_cli("bench", *bench_args(), "--tasks", str(tasks), "--out", str(results)) == 0
    capsys.readouterr()

    assert run_cli("report", "--results", str(results), "--scope", "l3") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "l3" in err


@pytest.mark.parametrize("fmt", ["table", "csv", "svg"])
def test_report_of_a_results_file_without_rows_exits_two(tmp_path, capsys, fmt):
    results = tmp_path / "results.json"
    results.write_text(json.dumps({"config_hash": "abcd1234", "outcomes": []}), encoding="utf-8")
    assert run_cli("report", "--results", str(results), "--format", fmt) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {results} is not a results file written by bench --out: " \
                           "it holds no outcomes\n"
    assert captured.out == ""


# written by bench --out over the fixture bench when results files still held rows
RESULTS_WITH_ROWS = FIXTURES / "results_with_rows.json"


@pytest.mark.parametrize("fmt", ["table", "csv", "svg"])
def test_report_of_a_file_with_rows_matches_bench(capsys, fmt):
    assert run_cli("bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
                   "--format", fmt) == 0
    bench_out = capsys.readouterr().out
    assert run_cli("report", "--results", str(RESULTS_WITH_ROWS), "--format", fmt) == 0
    assert capsys.readouterr().out == bench_out


def test_report_ignores_edited_rows(tmp_path, capsys):
    payload = json.loads(RESULTS_WITH_ROWS.read_text(encoding="utf-8"))
    assert payload["rows"][0]["solved_count"] == 2
    payload["rows"][0]["solved_count"] = 3
    edited = tmp_path / "results.json"
    edited.write_text(json.dumps(payload), encoding="utf-8")

    assert run_cli("report", "--results", str(RESULTS_WITH_ROWS)) == 0
    unedited = capsys.readouterr().out
    assert run_cli("report", "--results", str(edited)) == 0
    assert capsys.readouterr().out == unedited
    assert "66.7" in unedited  # 2 of the 3 outcomes are solved


def test_report_rejects_sweep_results(tmp_path, capsys):
    results = tmp_path / "sweep.json"
    assert run_cli(
        "sweep", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--axis", "max_steps", "--values", "6", "--out", str(results),
    ) == 0
    capsys.readouterr()

    assert run_cli("report", "--results", str(results)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bench --out" in err


# sha256 of each fixture-bench trace, decompressed: a change that alters what
# a run records changes this table, whatever the Python version or worker count
FIXTURE_TRACE_SHA256 = {
    "gaia-e1.2010141e.trace": "75caf6a89b715acd6c6206b63f86e4d398ed37aee5595d76c4b7cfaaf008939a",
    "gaia-e2.2010141e.trace": "5838b9861b57eb441c79933e3d5229c134cb873d7d1ca2d2190e10cf5babcb74",
    "gaia-e3.2010141e.trace": "bf7b0fe713e897b607c53622a20e6df3f7becd26a59c24541c2b8104cfe2829d",
}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_fixture_bench_writes_the_pinned_trace_bytes(tmp_path, capsys, workers):
    code = run_cli(
        "bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--trace-dir", str(tmp_path), "--workers", workers, "--format", "csv",
    )
    assert code == 0
    digests = {
        path.name: hashlib.sha256(gzip.decompress(path.read_bytes())).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == FIXTURE_TRACE_SHA256


def test_bench_workers_flag(capsys):
    code = run_cli(
        "bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--workers", "4",
    )
    assert code == 0
    assert "level 3" in capsys.readouterr().out


# -- sweep -------------------------------------------------------------------


def test_sweep_renders_one_line_per_value(tmp_path, capsys):
    results = tmp_path / "sweep.json"
    code = run_cli(
        "sweep", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--axis", "max_steps", "--values", "6,12", "--out", str(results),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].split()[0] == "max_steps"
    assert {line.split()[0] for line in out.splitlines()[2:4]} == {"6", "12"}

    payload = json.loads(results.read_text(encoding="utf-8"))
    assert payload["axis"] == "max_steps"
    assert [e["value"] for e in payload["results"]] == ["6", "12"]
    hashes = {e["config_hash"] for e in payload["results"]}
    assert len(hashes) == 2  # each swept value is its own config


def test_sweep_unknown_axis_exits_two(capsys):
    code = run_cli(
        "sweep", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--axis", "temperature", "--values", "1",
    )
    assert code == 2
    assert "not sweepable" in capsys.readouterr().err


@pytest.mark.parametrize("axis,value", [("memory_mode", "bogus"), ("max_steps", "x")])
def test_sweep_invalid_value_exits_two(axis, value, capsys):
    code = run_cli(
        "sweep", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--axis", axis, "--values", value,
    )
    assert code == 2
    assert f"{axis}: '{value}' is not a valid" in capsys.readouterr().err


def test_sweep_without_values_exits_two_before_running(tmp_path, capsys):
    traces = tmp_path / "traces"
    code = run_cli(
        "sweep", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--axis", "max_steps", "--values", ",", "--trace-dir", str(traces),
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "no values" in captured.err
    assert captured.out == ""
    assert not traces.exists()


def test_sweep_repeated_value_exits_two_before_running(tmp_path, capsys):
    traces = tmp_path / "traces"
    code = run_cli(
        "sweep", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--axis", "max_steps", "--values", "6,06", "--trace-dir", str(traces),
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "max_steps: '06' repeats '6'" in captured.err
    assert captured.out == ""
    assert not traces.exists()


def test_sweep_checks_every_value_before_running(tmp_path, capsys):
    traces, results = tmp_path / "traces", tmp_path / "sweep.json"
    code = run_cli(
        "sweep", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--axis", "max_steps", "--values", "6,0", "--trace-dir", str(traces),
        "--out", str(results),
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error: max_steps must be >= 1, got 0" in captured.err
    assert captured.out == ""
    assert not traces.exists() and not results.exists()


def test_live_sweep_searches_each_values_own_engines(tmp_path, monkeypatch, capsys):
    # without --fixtures, each value's engines come from its own source_set;
    # offline engines named as the live ones stand in for them
    canned = json.loads((BENCH / "searches.json").read_text(encoding="utf-8"))
    monkeypatch.setattr(cli, "live_providers", lambda source_set: [
        FixtureSearchProvider(name, canned) for name in source_set.providers
    ])
    monkeypatch.setattr(cli, "HttpFetcher", bench_fetcher)
    traces = tmp_path / "traces"
    assert run_cli(
        "sweep", "--config", str(BENCH / "config.ini"), "--script", str(BENCH / "script.jsonl"),
        "--tasks", str(BENCH / "tasks.jsonl"), "--axis", "source_set", "--values", "simple,multi",
        "--trace-dir", str(traces),
    ) == 0
    capsys.readouterr()
    searched = set()
    for path in traces.glob("*.trace"):
        header, *events = trace_lines(path)
        source_set = SourceSet(header["config"]["source_set"])
        for event in events:
            if event.get("tool") == "search":
                assert event["args"]["providers"] == list(source_set.providers)
                searched.add(source_set)
    assert searched == set(SourceSet)


# -- replay ------------------------------------------------------------------


def test_replay_directory_matches_live_aggregate(tmp_path, capsys):
    traces = tmp_path / "traces"
    traces.mkdir()
    run_cli(
        "bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--trace-dir", str(traces),
    )
    live = capsys.readouterr().out

    assert run_cli("replay", str(traces)) == 0
    replayed = capsys.readouterr().out
    assert replayed.splitlines()[0] == "replayed"
    assert replayed.splitlines()[1:] == live.splitlines()[1:]


def cut_to_300_bytes(trace):
    trace.write_bytes(trace.read_bytes()[:300])


def drop_result_line(trace):
    write_trace_lines(trace, trace_lines(trace)[:2])


def change_recorded_cost(trace):
    events = trace_lines(trace)
    events[-1]["cost_pico"] += 1
    write_trace_lines(trace, events)


@pytest.mark.parametrize("damage", [cut_to_300_bytes, drop_result_line, change_recorded_cost])
def test_replay_of_a_damaged_trace_exits_two(tmp_path, capsys, damage):
    traces = tmp_path / "traces"
    run_cli(
        "bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--trace-dir", str(traces),
    )
    capsys.readouterr()
    trace = next(traces.glob("gaia-e1.*"))
    damage(trace)
    assert run_cli("replay", str(traces)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and trace.name in err


def test_replay_reads_a_recorded_purpose_in_any_case(tmp_path, capsys):
    # the one type rule reads an enum in any case; the re-recording is canonical
    traces = tmp_path / "traces"
    traces.mkdir()
    (traces / LEVEL9.name).write_bytes(
        level9_with("model_call", "purpose", "PLANNER")[f"traces/{LEVEL9.name}"]
    )
    assert run_cli("replay", str(LEVEL9.parent), "--format", "csv") == 0
    unedited = capsys.readouterr().out
    assert run_cli("replay", str(traces), "--format", "csv", "--trace-dir", str(tmp_path)) == 0
    assert capsys.readouterr().out == unedited
    assert trace_lines(tmp_path / LEVEL9.name) == trace_lines(LEVEL9)


def test_replay_counts_each_task_once(tmp_path, capsys):
    traces = tmp_path / "traces"
    assert run_cli(
        "sweep", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--axis", "max_steps", "--values", "6,12", "--trace-dir", str(traces),
    ) == 0
    capsys.readouterr()
    assert len(list(traces.glob("*.trace"))) == 6  # 3 tasks under two configs

    trace = next(traces.glob("gaia-e1.*"))
    for argv in ([str(traces)], [str(trace), str(trace)]):
        assert run_cli("replay", *argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: task_id 'gaia-e1' appears twice; " \
                               "a benchmark counts each task once\n"
        assert captured.out == ""


def test_replay_refuses_a_repeated_task_id_before_replaying_it(tmp_path, capsys):
    traces, out = tmp_path / "traces", tmp_path / "out"
    assert run_cli(
        "sweep", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--axis", "max_steps", "--values", "6,12", "--trace-dir", str(traces),
    ) == 0
    capsys.readouterr()

    assert run_cli("replay", str(traces), "--trace-dir", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: task_id 'gaia-e1' appears twice; " \
                           "a benchmark counts each task once\n"
    # the first trace is replayed; the second holds its task id again and is not
    first = sorted(traces.glob("*.trace"))[0]
    assert [p.name for p in out.iterdir()] == [first.name]
    assert (out / first.name).read_bytes() == first.read_bytes()


def test_replay_re_records_task_ids_of_one_sanitized_form_apart(tmp_path, capsys):
    first = json.loads((BENCH / "tasks.jsonl").read_text(encoding="utf-8").splitlines()[0])
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text("".join(json.dumps({**first, "task_id": i}) + "\n"
                             for i in ("gaia/e1", "gaia_e1")), encoding="utf-8")
    for task_id, traces in (("gaia/e1", "a"), ("gaia_e1", "b")):
        assert run_cli("run", *bench_args(), "--tasks", str(tasks), "--task-id", task_id,
                       "--trace-dir", str(tmp_path / traces)) == 0
    capsys.readouterr()

    out = tmp_path / "out"
    assert run_cli("replay", str(tmp_path / "a"), str(tmp_path / "b"),
                   "--trace-dir", str(out)) == 0
    originals = [*(tmp_path / "a").iterdir(), *(tmp_path / "b").iterdir()]
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in originals)
    for original in originals:
        assert (out / original.name).read_bytes() == original.read_bytes()


def test_replay_without_traces_exits_two(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run_cli("replay", str(empty)) == 2
    assert "no trace files" in capsys.readouterr().err


# -- settings errors ---------------------------------------------------------


def test_pricing_file_without_models_exits_two(tmp_path, capsys):
    bad = tmp_path / "pricing.ini"
    bad.write_text("[pricing]\neffective_date = 2025-06-01\n", encoding="utf-8")
    code = run_cli(
        "run", "--config", str(BENCH / "config.ini"), "--pricing", str(bad),
        "--script", str(BENCH / "script.jsonl"), "--fixtures", str(BENCH),
        "--tasks", str(BENCH / "tasks.jsonl"), "--task-id", "gaia-e1",
    )
    assert code == 2
    assert "pricing" in capsys.readouterr().err


def test_invalid_config_value_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[agent]\nmemory_mode = bogus\n", encoding="utf-8")
    code = run_cli(
        "run", "--config", str(bad), "--script", str(BENCH / "script.jsonl"),
        "--fixtures", str(BENCH), "--tasks", str(BENCH / "tasks.jsonl"), "--task-id", "gaia-e1",
    )
    assert code == 2
    assert "memory_mode: 'bogus' is not a valid MemoryMode" in capsys.readouterr().err


def test_run_with_unpriced_backbone_exits_two(tmp_path, capsys):
    config = tmp_path / "config.ini"
    config.write_text(
        (BENCH / "config.ini").read_text(encoding="utf-8").replace(
            "backbone_id = gpt-4.1", "backbone_id = mystery-model"
        ),
        encoding="utf-8",
    )
    code = run_cli(
        "run", "--config", str(config), "--script", str(BENCH / "script.jsonl"),
        "--fixtures", str(BENCH), "--tasks", str(BENCH / "tasks.jsonl"), "--task-id", "gaia-e1",
    )
    assert code == 2
    assert "error: no pricing entry for 'mystery-model'" in capsys.readouterr().err


DIRECTORY = object()  # a directory where the file should be
LEVEL9 = next((FIXTURES / "level9").iterdir())


def level9_edited(edit) -> dict:
    """The level-9 fixture trace with its lines changed by ``edit``, as a
    trace directory."""
    events = trace_lines(LEVEL9)
    edit(events)
    return {f"traces/{LEVEL9.name}": trace_bytes(events)}


def level9_with(kind, field, value, index=0) -> dict:
    """The level-9 fixture trace with ``field`` of its ``kind`` line number
    ``index`` (from 0) replaced, as a trace directory."""
    def edit(events):
        [e for e in events if e["type"] == kind][index][field] = value
    return level9_edited(edit)


def level9_row_without_url(events):
    search = next(e for e in events if e["type"] == "tool_call")
    del search["result"][0]["url"]


def level9_with_embedding_of(vector):
    return level9_edited(lambda events: events.insert(
        1, {"type": "embed", "text_sha256": "0" * 64, "vector": vector}
    ))

OUTCOME = {"task_id": "t", "level": 1, "final_answer": "a", "terminated_by": "final_answer",
           "steps": 1, "plan_count": 1, "solved": True, "cost_pico": 5, "prompt_tokens": 7,
           "completion_tokens": 3, "total_tokens": 10}


def results_with(*outcomes):
    return {"results.json": json.dumps({"config_hash": "abcd1234", "outcomes": list(outcomes)})}


NOT_RESULTS = "results.json is not a results file written by bench --out: "

# (files written in place of the fixture bench's, extra arguments, what the error says);
# a results.json runs report, a file under traces/ replay, anything else bench
OUTSIDE_INPUTS = {
    "workers_0": ({}, ("--workers", "0"), "workers must be >= 1, got 0"),
    "level_not_a_number": (
        {"tasks.jsonl": '{"task_id": "t", "Level": "x", "Question": "q", "Final answer": "a"}\n'},
        (), "tasks.jsonl:1: field Level is missing or invalid: 'x'",
    ),
    "task_answer_null": (
        {"tasks.jsonl": '{"task_id": "t", "Level": 1, "Question": "q", "Final answer": null}\n'},
        (), "tasks.jsonl:1: field Final answer is missing or invalid: None",
    ),
    "task_question_an_object": (
        {"tasks.jsonl": '{"task_id": "t", "Level": 1, "Question": {"q": 1}, "Final answer": "a"}\n'},
        (), "tasks.jsonl:1: field Question is missing or invalid: {'q': 1}",
    ),
    "task_file_name_a_list": (
        {"tasks.jsonl": '{"task_id": "t", "Level": 1, "Question": "q", "Final answer": "a", '
                        '"file_name": ["notes.txt"]}\n'},
        (), "tasks.jsonl:1: field file_name is missing or invalid: ['notes.txt']",
    ),
    "task_file_name_true": (
        {"tasks.jsonl": '{"task_id": "t", "Level": 1, "Question": "q", "Final answer": "a", '
                        '"file_name": true}\n'},
        (), "tasks.jsonl:1: field file_name is missing or invalid: True",
    ),
    "task_file_name_an_object": (
        {"tasks.jsonl": '{"task_id": "t", "Level": 1, "Question": "q", "Final answer": "a", '
                        '"file_name": {"name": "notes.txt"}}\n'},
        (), "tasks.jsonl:1: field file_name is missing or invalid: {'name': 'notes.txt'}",
    ),
    "task_line_is_a_list": (
        {"tasks.jsonl": '["t", 1]\n'}, (), "tasks.jsonl:1: a task must be a JSON object",
    ),
    "price_missing": (
        {"config.ini": AGENT_SECTION + "[pricing.gpt-4.1]\ninput = 1.00\n"},
        (), "[pricing.gpt-4.1] output: missing",
    ),
    "price_not_money": (
        {"config.ini": AGENT_SECTION + "[pricing.gpt-4.1]\ninput = abc\noutput = 1.00\n"},
        (), "[pricing.gpt-4.1] input: not a money amount: 'abc'",
    ),
    "price_negative": (
        {"config.ini": AGENT_SECTION + "[pricing.gpt-4.1]\ninput = 1.00\noutput = -1\n"},
        (), "[pricing.gpt-4.1] output: '-1' is negative",
    ),
    "effective_date_not_a_date": (
        {"config.ini": AGENT_SECTION + "[pricing]\neffective_date = soon\n" + PRICED},
        (), "[pricing] effective_date: Invalid isoformat string: 'soon'",
    ),
    # a form Python 3.11 reads and 3.10 does not: refused on both
    "effective_date_basic_form": (
        {"config.ini": AGENT_SECTION + "[pricing]\neffective_date = 20250601\n" + PRICED},
        (), "[pricing] effective_date: Invalid isoformat string: '20250601'",
    ),
    "no_section_header": (
        {"config.ini": "max_steps = 3\n" + PRICED}, (), "File contains no section headers.",
    ),
    "agent_key_unknown": (
        {"config.ini": "[agent]\nmax_step = 3\n" + PRICED},
        (), "AgentConfig has no field 'max_step'",
    ),
    "temperature_nan": (
        {"config.ini": AGENT_SECTION + "temperature = nan\n" + PRICED},
        (), "temperature must be a finite number >= 0, got nan",
    ),
    "tasks_not_utf8": ({"tasks.jsonl": b"\xff\n"}, (), "tasks.jsonl:1: not UTF-8"),
    "config_not_utf8": (
        {"config.ini": AGENT_SECTION.encode() + b"; \xe9\n"}, (), "config.ini:3: not UTF-8",
    ),
    "tasks_is_a_directory": ({"tasks.jsonl": DIRECTORY}, (), "Is a directory"),
    "config_is_a_directory": ({"config.ini": DIRECTORY}, (), "Is a directory"),
    "pricing_is_a_directory": (
        {"pricing.ini": DIRECTORY}, ("--pricing", "pricing.ini"), "Is a directory",
    ),
    "script_line_not_json": (
        {"script.jsonl": "{oops\n"}, (), "script.jsonl:1: invalid JSON: Expecting",
    ),
    "script_line_is_a_list": (
        {"script.jsonl": '["actor", "x"]\n'}, (), "script.jsonl:1: a script entry must be a JSON",
    ),
    "script_purpose_unknown": (
        {"script.jsonl": '{"purpose": "critic", "response": "x"}\n'},
        (), "script.jsonl:1: field purpose is missing or invalid: 'critic'",
    ),
    "script_times_text": (
        {"script.jsonl": '{"purpose": "actor", "response": "x", "times": "2"}\n'},
        (), "script.jsonl:1: field times is missing or invalid: '2'",
    ),
    "script_prompt_tokens_negative": (
        {"script.jsonl": '{"purpose": "actor", "response": "x", "prompt_tokens": -1}\n'},
        (), "script.jsonl:1: token counts must be non-negative",
    ),
    "script_response_missing": (
        {"script.jsonl": '{"purpose": "actor"}\n'},
        (), "script.jsonl:1: field response is missing or invalid: None",
    ),
    "script_not_utf8": (
        {"script.jsonl": b'{"purpose": "actor", "response": "\xff"}\n'},
        (), "script.jsonl:1: not UTF-8",
    ),
    "searches_not_json": (
        {"fixtures/searches.json": "{oops"}, (), "searches.json: invalid JSON: Expecting",
    ),
    "search_row_two_fields": (
        {"fixtures/searches.json": '{"q": [["title", "https://example.org/"]]}'},
        (), "searches.json: each query must map to a list of [title, url, snippet] rows: "
            "['title', 'https://example.org/'] is not three strings",
    ),
    "page_not_utf8": (
        {"fixtures/pages/https%3A%2F%2Fexample.org%2F": b"<p>\xff</p>"},
        (), "https%3A%2F%2Fexample.org%2F:1: not UTF-8",
    ),
    "results_count_true": (
        results_with({**OUTCOME, "solved": 1}),
        (), NOT_RESULTS + "outcome 1 field solved is missing or invalid: 1",
    ),
    "results_count_fraction": (
        results_with({**OUTCOME, "cost_pico": 12.9}),
        (), NOT_RESULTS + "outcome 1 field cost_pico is missing or invalid: 12.9",
    ),
    "results_level_4": (
        results_with({**OUTCOME, "level": 4}),
        (), NOT_RESULTS + "outcome 1 field level is missing or invalid: 4",
    ),
    # an entry as written before outcomes held their token counts
    "results_without_prompt_tokens": (
        results_with(OUTCOME, {k: v for k, v in OUTCOME.items() if k != "prompt_tokens"}),
        (), NOT_RESULTS + "outcome 2 field prompt_tokens is missing or invalid: None",
    ),
    "results_task_id_twice": (
        results_with(OUTCOME, {**OUTCOME, "solved": False}),
        (), NOT_RESULTS + "task_id 't' appears twice; a benchmark counts each task once",
    ),
    "results_outcome_a_list": (
        results_with(OUTCOME, ["t", 1]), (), NOT_RESULTS + "outcome 2 is not a JSON object",
    ),
    "results_a_list": (
        {"results.json": json.dumps([OUTCOME])}, (), NOT_RESULTS + "it is not a JSON object",
    ),
    "results_not_json": ({"results.json": "{oops"}, (), NOT_RESULTS + "invalid JSON: Expecting"),
    "results_not_utf8": (
        {"results.json": b'{"config_hash": "\xff"}'}, (), "results.json:1: not UTF-8",
    ),
    "results_is_a_directory": ({"results.json": DIRECTORY}, (), "Is a directory"),
    "trace_version_true": (
        level9_with("header", "version", True), (), "trace version: True is not a valid int",
    ),
    "trace_version_float": (
        level9_with("header", "version", 1.0), (), "trace version: 1.0 is not a valid int",
    ),
    "trace_prompt_tokens_float": (
        level9_with("model_call", "prompt_tokens", 200.0),
        (), "model call 1 field prompt_tokens is missing or invalid: 200.0",
    ),
    "trace_completion_tokens_true": (
        level9_with("model_call", "completion_tokens", True),
        (), "model call 1 field completion_tokens is missing or invalid: True",
    ),
    "trace_prompt_tokens_text": (
        level9_with("model_call", "prompt_tokens", "200"),
        (), "model call 1 field prompt_tokens is missing or invalid: '200'",
    ),
    "trace_prompt_tokens_negative": (
        level9_with("model_call", "prompt_tokens", -200),
        (), "model call 1 has a negative token count",
    ),
    "trace_estimated_not_a_bool": (
        level9_with("model_call", "estimated", "no"),
        (), "model call 1 field estimated is missing or invalid: 'no'",
    ),
    "trace_response_not_text": (
        level9_with("model_call", "response", ["1. Look it up."]),
        (), "model call 1 field response is missing or invalid: ['1. Look it up.']",
    ),
    "trace_line_type_unknown": (
        level9_with("model_call", "type", "note"), (), "line 2 has type 'note'; after the header",
    ),
    "trace_tool_args_text": (
        level9_with("tool_call", "args", "q"),
        (), "tool call 1 field args is missing or invalid: 'q'",
    ),
    # the first tool call is a search, the second opens a page
    "trace_page_without_text": (
        level9_with("tool_call", "result", {"truncated": False}, index=1),
        (), "tool call 2 field result.text is missing or invalid: None",
    ),
    "trace_page_truncated_text": (
        level9_with("tool_call", "result", {"text": "Acme", "truncated": "no"}, index=1),
        (), "tool call 2 field result.truncated is missing or invalid: 'no'",
    ),
    "trace_search_result_numbers": (
        level9_with("tool_call", "result", [1, 2]),
        (), "tool call 1 field result[0] is missing or invalid: 1",
    ),
    "trace_search_row_without_url": (
        level9_edited(level9_row_without_url),
        (), "tool call 1 field result[0].url is missing or invalid: None",
    ),
    "trace_tool_unknown": (
        level9_with("tool_call", "tool", "browse"),
        (), "tool call 1 field tool is missing or invalid: 'browse'",
    ),
    "trace_vector_text": (
        level9_with_embedding_of(["a"]), (), "embedding 1 field vector[0] is missing or invalid: 'a'",
    ),
    # a valid purpose, but not the one the replayed run asks for first
    "trace_purpose_edited": (
        level9_with("model_call", "purpose", "memory"),
        (), "replay expected model call purpose='memory', got model call purpose='planner'",
    ),
}


@pytest.mark.parametrize("case", list(OUTSIDE_INPUTS))
def test_bad_outside_input_exits_two_with_error(tmp_path, capsys, case):
    files, extra, message = OUTSIDE_INPUTS[case]
    paths = {"tasks.jsonl": BENCH / "tasks.jsonl", "config.ini": BENCH / "config.ini",
             "script.jsonl": BENCH / "script.jsonl", "fixtures": BENCH}
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if content is DIRECTORY:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        top = name.split("/")[0]  # a file under fixtures/ makes that the fixture directory
        paths[top] = tmp_path / top
    if "results.json" in files:
        argv = ["report", "--results", str(paths["results.json"])]
    elif "traces" in paths:
        argv = ["replay", str(paths["traces"])]
    else:
        argv = ["bench", "--config", str(paths["config.ini"]), "--script",
                str(paths["script.jsonl"]), "--fixtures", str(paths["fixtures"]),
                "--tasks", str(paths["tasks.jsonl"]), *(str(paths.get(a, a)) for a in extra)]
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err
    if "traces" in paths:  # a trace's error names it first
        assert captured.err.startswith(f"error: {paths['traces'] / LEVEL9.name}: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
def test_timeout_must_be_finite_and_positive(capsys, timeout):
    with pytest.raises(SystemExit) as info:
        run_cli("bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"), "--timeout", timeout)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --timeout: must be a finite number of seconds > 0" in err


def test_missing_tasks_file_exits_two(tmp_path, capsys):
    code = run_cli("bench", *bench_args(), "--tasks", str(tmp_path / "gone.jsonl"))
    assert code == 2


def test_empty_script_aborts_bench(tmp_path, capsys):
    script = tmp_path / "empty.jsonl"
    script.write_text("", encoding="utf-8")
    code = run_cli(
        "bench", "--config", str(BENCH / "config.ini"), "--script", str(script),
        "--fixtures", str(BENCH), "--tasks", str(BENCH / "tasks.jsonl"),
    )
    assert code == 2
    assert "every run failed" in capsys.readouterr().err
