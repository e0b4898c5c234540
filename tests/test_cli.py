import gzip
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from agentmeter import cli
from agentmeter.backend import ScriptedBackend
from agentmeter.cli import main
from agentmeter.config import SourceSet
from agentmeter.tools import FixtureSearchProvider

from conftest import (BENCH, FIXTURES, bench_fetcher, gzip_at, trace_bytes, trace_lines,
                      write_trace_lines)

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


@pytest.fixture
def agentmeter(capsys):
    """``agentmeter(*argv) -> (exit code, stdout, stderr)``, run in this
    process, as tests/installed_cli.py runs the installed script."""
    def run(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


def test_the_program_imports_no_numpy():
    # a fresh interpreter, since this one's tests import numpy themselves
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    # nor the interpreter's html.parser: page text comes from the program's own tokenizer
    code = ("import sys, agentmeter, agentmeter.cli, agentmeter.tools; "
            "agentmeter.tools.page_text('<p>x</p>'); print(sorted(sys.modules))")
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert "'agentmeter.cli'" in loaded and "'agentmeter.tools'" in loaded
    assert "numpy" not in loaded and "'html.parser'" not in loaded


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
    results = tmp_path / "new" / "dir" / "results.json"  # --out makes its directory
    assert run_cli(
        "bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--out", str(results),
    ) == 0
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

    target = tmp_path / "plots" / "plot.svg"
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


def test_report_svg_escapes_the_config_hash(tmp_path, capsys):
    results = tmp_path / "results.json"
    assert run_cli("bench", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
                   "--out", str(results)) == 0
    payload = json.loads(results.read_text(encoding="utf-8"))
    payload["config_hash"] = "a<b&c"
    results.write_text(json.dumps(payload), encoding="utf-8")
    target = tmp_path / "plot.svg"
    assert run_cli("report", "--results", str(results), "--format", "svg",
                   "--out", str(target)) == 0
    title = ElementTree.parse(target).getroot().find("{http://www.w3.org/2000/svg}text")
    assert title.text == "config a<b&c"


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
    "gaia-e1.2010141e.trace": "0abd44880cdb7f602d8b7e2786986810a44a243682863d0848bcc5b1278f8600",
    "gaia-e2.2010141e.trace": "8c14baa2ebb4d503726f8bbadf81c7edb3a2f77c3da79347180be1720ac7c5ae",
    "gaia-e3.2010141e.trace": "7c04b78184f07f0d687ddf0608a358383a2d51816e53927566f2cf239bc69aa6",
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


@pytest.mark.parametrize("axis,values", [("page_strategy", "crawler_static,browser_complex"),
                                         ("prm_mode", "score,list")])
def test_sweep_varies_any_config_field(agentmeter, axis, values):
    lines = succeeds(agentmeter, "sweep", *bench_args(), "--tasks", BENCH / "tasks.jsonl",
                     "--axis", axis, "--values", values).splitlines()
    assert lines[0].split()[0] == axis
    assert [line.split()[0] for line in lines[2:]] == values.split(",")


def test_sweep_unknown_axis_exits_two(capsys):
    code = run_cli(
        "sweep", *bench_args(), "--tasks", str(BENCH / "tasks.jsonl"),
        "--axis", "bogus", "--values", "1",
    )
    assert code == 2
    assert capsys.readouterr().err == "error: AgentConfig has no field 'bogus'\n"


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


def test_a_recorded_vector_no_embedder_returns_is_refused_before_the_replay(tmp_path, capsys):
    trace = next(EMBED.glob("gaia-e1.*"))
    events = trace_lines(trace)
    embed = next(e for e in events if e["type"] == "embed")
    embed["vector"] = [2 * x for x in embed["vector"]]
    write_trace_lines(tmp_path / trace.name, events)
    assert run_cli("replay", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {tmp_path / trace.name}: embedding 1 field vector "
                            "has norm 2.0, not 1 within 1e-06\n")
    assert captured.out == ""


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


def test_a_task_id_too_long_for_a_file_name_benches_and_replays(tmp_path, capsys):
    first = json.loads((BENCH / "tasks.jsonl").read_text(encoding="utf-8").splitlines()[0])
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(json.dumps({**first, "task_id": "e" * 300}) + "\n", encoding="utf-8")
    traces, out = tmp_path / "traces", tmp_path / "out"
    assert run_cli("bench", *bench_args(), "--tasks", str(tasks), "--trace-dir", str(traces)) == 0
    assert run_cli("replay", str(traces), "--trace-dir", str(out)) == 0
    capsys.readouterr()
    (trace,) = traces.iterdir()
    assert len(trace.name) == 255
    assert trace.name.startswith("e" * 200)
    assert (out / trace.name).read_bytes() == trace.read_bytes()


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


def test_task_whose_answer_normalizes_to_empty_exits_two(tmp_path, capsys):
    # a run that ends in error answers "", which would grade as solved against "."
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(json.dumps({"task_id": "t", "Level": 1, "Question": "q",
                                 "Final answer": "."}) + "\n", encoding="utf-8")
    code = run_cli("run", *bench_args(), "--tasks", str(tasks))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {tasks}:1: expected answer '.' is empty once normalized\n"
    assert captured.out == ""


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
# the fixture bench in extra_hybrid memory, recorded by an earlier build with
# the config and script beside it: its vectors are served back as recorded,
# however a live run would draw them
EMBED = FIXTURES / "embed"


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


def level9_v2_with_page(same_as, edit=lambda events: None) -> dict:
    """The level-9 fixture trace as version 2, edited by ``edit``, with the
    result of its page line (its second tool call) a reference to tool call
    ``same_as``."""
    def both(events):
        events[0]["version"] = 2
        edit(events)
        page = next(e for e in events if e["type"] == "tool_call" and e["tool"] == "fetch_page"
                    and "error" not in e)
        page["result"] = {"same_as": same_as}
    return level9_edited(both)


def page_opened_again(events):
    page = next(e for e in events if e.get("tool") == "fetch_page")
    events.insert(events.index(page) + 1, dict(page))


def failed_page_first(events):
    page = next(e for e in events if e.get("tool") == "fetch_page")
    events.insert(events.index(page), {"type": "tool_call", "tool": "fetch_page",
                                       "args": {"url": "https://example.org/gone"}, "error": "gone"})


OUTCOME = {"task_id": "t", "level": 1, "final_answer": "a", "terminated_by": "final_answer",
           "steps": 1, "plan_count": 1, "solved": True, "cost_pico": 5, "prompt_tokens": 7,
           "completion_tokens": 3, "total_tokens": 10}


def results_with(*outcomes):
    return {"results.json": json.dumps({"config_hash": "abcd1234", "outcomes": list(outcomes)})}


NOT_RESULTS = "results.json is not a results file written by bench --out: "
NOT_A_NAME = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
# the args of the level-9 fixture's first search, as its replayed run asks for them
SEARCHED = {"queries": next(e for e in trace_lines(LEVEL9) if e.get("tool") == "search")
            ["args"]["queries"], "providers": ["fixture"]}
TMP = "<tmp>"  # in a message or an argument, the directory a row's files are written in
# a JSON value nested past any recursion limit, and an integer past int's
# 4,300-digit limit: every file the program decodes refuses both as invalid JSON
TOO_DEEP, TOO_LONG = "[" * 100_000 + "]" * 100_000, "1" * 5_000
# each file the program decodes: (its name, its text with %s where the value
# goes, what the error line says before the decoder's reason)
DECODED_FILES = {
    "tasks": ("tasks.jsonl", '{"task_id": "t", "Level": %s}\n', "tasks.jsonl:1: invalid JSON: "),
    "script": ("script.jsonl", '{"purpose": "actor", "response": "x", "times": %s}\n',
               "script.jsonl:1: invalid JSON: "),
    "searches": ("fixtures/searches.json", '{"q": %s}', "searches.json: invalid JSON: "),
    "results": ("results.json", '{"config_hash": "abcd1234", "outcomes": [{"cost_pico": %s}]}',
                NOT_RESULTS + "invalid JSON: "),
}


def decode_error(text) -> str:
    """What this interpreter's JSON decoder says of ``text``, which it refuses:
    the wording differs between Python versions."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError(f"{text[:40]!r}... decodes")


def level9_with_line(lineno: int, text: str) -> dict:
    """The level-9 fixture trace with its line ``lineno`` (from 1) replaced by
    ``text``, which need not be JSON, as a trace directory."""
    lines = gzip.decompress(LEVEL9.read_bytes()).splitlines(keepends=True)
    lines[lineno - 1] = text.encode() + b"\n"
    return {f"traces/{LEVEL9.name}": gzip.compress(b"".join(lines), mtime=0)}


DEEP_MODEL_CALL = '{"type": "model_call", "response": %s}' % TOO_DEEP


def byte_flipped(data: bytes) -> bytes:
    """``data`` with its middle byte changed."""
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 1
    return bytes(flipped)


# the level-9 fixture trace's lines in a level-0 container, as traces are
# written now, with one byte of its stored lines changed: only the CRC tells;
# Python 3.10's gzip names both checksums in the error
FLIPPED = byte_flipped(gzip_at(0, gzip.decompress(LEVEL9.read_bytes())))
CRC_FAILED = "CRC check failed" + (" 0x464de63 != 0x60177ab" if sys.version_info < (3, 11) else "")

# (files written in place of the fixture bench's, extra arguments, what the one
# error line ends with); a results.json runs report, a file under traces/
# replay, anything else bench. tests/installed_cli.py sends each row through
# the installed script as well
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
    # a name resolves beside the task file, so one that leaves its directory is refused
    "tasks_file_name_absolute": (
        {"tasks.jsonl": '{"task_id": "t", "Level": 1, "Question": "q", "Final answer": "a", '
                        '"file_name": "/etc/hostname"}\n'},
        (), "tasks.jsonl:1: field file_name is missing or invalid: '/etc/hostname'",
    ),
    "tasks_file_name_parent": (
        {"tasks.jsonl": '{"task_id": "t", "Level": 1, "Question": "q", "Final answer": "a", '
                        '"file_name": "../../../etc/hostname"}\n'},
        (), "tasks.jsonl:1: field file_name is missing or invalid: '../../../etc/hostname'",
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
    "price_infinite": (
        {"config.ini": AGENT_SECTION + "[pricing.gpt-4.1]\ninput = inf\noutput = 1.00\n"},
        (), "[pricing.gpt-4.1] input: 'inf' is not a finite amount",
    ),
    "price_nan": (
        {"config.ini": AGENT_SECTION + "[pricing.gpt-4.1]\ninput = nan\noutput = 1.00\n"},
        (), "[pricing.gpt-4.1] input: 'nan' is not a finite amount",
    ),
    "price_key_unknown": (
        {"config.ini": AGENT_SECTION + PRICED + "cached_input = 0.50\n"},
        (), "[pricing.gpt-4.1] cached_input: not a known key (input, output)",
    ),
    "pricing_key_unknown": (
        {"config.ini": AGENT_SECTION + "[pricing]\neffective = 2025-06-01\n" + PRICED},
        (), "[pricing] effective: not a known key (effective_date)",
    ),
    # a date with no prices of its own, which would price the run by the built-in table
    "pricing_without_models": (
        {"config.ini": AGENT_SECTION + "[pricing]\neffective_date = 2024-01-01\n"},
        (), "[pricing]: no [pricing.<model-id>] section",
    ),
    "pricing_model_id_empty": (
        {"config.ini": AGENT_SECTION + PRICED + "[pricing.]\ninput = 1.00\noutput = 1.00\n"},
        (), "[pricing.]: no model id",
    ),
    "section_unknown": (
        {"config.ini": "[agnet]\nmax_steps = 3\n" + PRICED},
        (), "[agnet]: not a known section ([agent], [pricing] or [pricing.<model-id>])",
    ),
    "section_default": (
        {"config.ini": "[DEFAULT]\nmax_steps = 3\n" + AGENT_SECTION + PRICED},
        (), "[DEFAULT]: not a known section ([agent], [pricing] or [pricing.<model-id>])",
    ),
    "effective_date_not_a_date": (
        {"config.ini": AGENT_SECTION + "[pricing]\neffective_date = soon\n" + PRICED},
        (), "[pricing] effective_date: Invalid isoformat string: 'soon'",
    ),
    # a blank date is refused, not read as no date
    "effective_date_blank": (
        {"config.ini": AGENT_SECTION + "[pricing]\neffective_date =\n" + PRICED},
        (), "[pricing] effective_date: Invalid isoformat string: ''",
    ),
    # a form Python 3.11 reads and 3.10 does not: refused on both
    "effective_date_basic_form": (
        {"config.ini": AGENT_SECTION + "[pricing]\neffective_date = 20250601\n" + PRICED},
        (), "[pricing] effective_date: Invalid isoformat string: '20250601'",
    ),
    "no_section_header": (
        {"config.ini": "max_steps = 3\n" + PRICED},
        (), f"File contains no section headers. file: '{TMP}/config.ini', line: 1 'max_steps = 3\\n'",
    ),
    "agent_key_unknown": (
        {"config.ini": "[agent]\nmax_step = 3\n" + PRICED},
        (), "AgentConfig has no field 'max_step'",
    ),
    "temperature_nan": (
        {"config.ini": AGENT_SECTION + "temperature = nan\n" + PRICED},
        (), "temperature must be a finite number >= 0, got nan",
    ),
    "tasks_not_utf8": (
        {"tasks.jsonl": b"\xff\n"}, (), "tasks.jsonl:1: not UTF-8 (invalid start byte)",
    ),
    "config_not_utf8": (
        {"config.ini": AGENT_SECTION.encode() + b"; \xe9\n"},
        (), "config.ini:3: not UTF-8 (invalid continuation byte)",
    ),
    "tasks_is_a_directory": (
        {"tasks.jsonl": DIRECTORY}, (), f"[Errno 21] Is a directory: '{TMP}/tasks.jsonl'",
    ),
    "config_is_a_directory": (
        {"config.ini": DIRECTORY}, (), f"[Errno 21] Is a directory: '{TMP}/config.ini'",
    ),
    "pricing_is_a_directory": (
        {"pricing.ini": DIRECTORY}, ("--pricing", f"{TMP}/pricing.ini"),
        f"[Errno 21] Is a directory: '{TMP}/pricing.ini'",
    ),
    "script_line_not_json": (
        {"script.jsonl": "{oops\n"}, (), "script.jsonl:1: invalid JSON: " + NOT_A_NAME,
    ),
    "script_line_is_a_list": (
        {"script.jsonl": '["actor", "x"]\n'},
        (), "script.jsonl:1: a script entry must be a JSON object",
    ),
    "script_purpose_unknown": (
        {"script.jsonl": '{"purpose": "critic", "response": "x"}\n'},
        (), "script.jsonl:1: field purpose is missing or invalid: 'critic'",
    ),
    "script_times_text": (
        {"script.jsonl": '{"purpose": "actor", "response": "x", "times": "2"}\n'},
        (), "script.jsonl:1: field times is missing or invalid: '2'",
    ),
    "script_times_negative": (
        {"script.jsonl": '{"purpose": "actor", "response": "x", "times": -3}\n'},
        (), "script.jsonl:1: times must be >= 0 (0 means unlimited), got -3",
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
        (), "script.jsonl:1: not UTF-8 (invalid start byte)",
    ),
    "searches_not_json": (
        {"fixtures/searches.json": "{oops"}, (), "searches.json: invalid JSON: " + NOT_A_NAME,
    ),
    "search_row_two_fields": (
        {"fixtures/searches.json": '{"q": [["title", "https://example.org/"]]}'},
        (), "searches.json: each query must map to a list of [title, url, snippet] rows: "
            "['title', 'https://example.org/'] is not three strings",
    ),
    "page_not_utf8": (
        {"fixtures/pages/https%3A%2F%2Fexample.org%2F": b"<p>\xff</p>"},
        (), "https%3A%2F%2Fexample.org%2F:1: not UTF-8 (invalid start byte)",
    ),
    "results_count_true": (
        results_with({**OUTCOME, "solved": 1}),
        (), NOT_RESULTS + "outcome 1 field solved is missing or invalid: 1",
    ),
    "results_count_fraction": (
        results_with({**OUTCOME, "cost_pico": 12.9}),
        (), NOT_RESULTS + "outcome 1 field cost_pico is missing or invalid: 12.9",
    ),
    "results_cost_negative": (
        results_with({**OUTCOME, "cost_pico": -5_000_000_000_000}),
        (), NOT_RESULTS + "outcome 1 field cost_pico is missing or invalid: -5000000000000",
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
    "results_not_json": ({"results.json": "{oops"}, (), NOT_RESULTS + "invalid JSON: " + NOT_A_NAME),
    "results_not_utf8": (
        {"results.json": b'{"config_hash": "\xff"}'},
        (), "results.json:1: not UTF-8 (invalid start byte)",
    ),
    "results_is_a_directory": (
        {"results.json": DIRECTORY}, (), f"[Errno 21] Is a directory: '{TMP}/results.json'",
    ),
    "trace_cut_to_300_bytes": (
        {f"traces/{LEVEL9.name}": LEVEL9.read_bytes()[:300]},
        (), "not a complete gzip trace "
            "(Compressed file ended before the end-of-stream marker was reached)",
    ),
    "trace_level_0_byte_flipped": (
        {f"traces/{LEVEL9.name}": FLIPPED}, (),
        f"not a complete gzip trace ({CRC_FAILED})",
    ),
    "trace_version_true": (
        level9_with("header", "version", True), (), "trace version: True is not a valid int",
    ),
    "trace_version_float": (
        level9_with("header", "version", 1.0), (), "trace version: 1.0 is not a valid int",
    ),
    "trace_version_2_float": (
        level9_with("header", "version", 2.0), (), "trace version: 2.0 is not a valid int",
    ),
    # a page given by reference to tool call n must name an earlier page opened
    "trace_page_same_as_a_later_call": (
        level9_v2_with_page(3, page_opened_again),
        (), "tool call 2 field result.same_as is missing or invalid: 3",
    ),
    "trace_page_same_as_99": (
        level9_v2_with_page(99), (), "tool call 2 field result.same_as is missing or invalid: 99",
    ),
    "trace_page_same_as_a_search": (
        level9_v2_with_page(1), (), "tool call 2 field result.same_as is missing or invalid: 1",
    ),
    "trace_page_same_as_a_failed_call": (
        level9_v2_with_page(2, failed_page_first),
        (), "tool call 3 field result.same_as is missing or invalid: 2",
    ),
    "trace_page_same_as_true": (
        level9_v2_with_page(True), (), "tool call 2 field result.same_as is missing or invalid: True",
    ),
    "trace_page_same_as_text": (
        level9_v2_with_page("1"), (), "tool call 2 field result.same_as is missing or invalid: '1'",
    ),
    # version 1 has no references: a page there holds its text
    "trace_v1_page_same_as": (
        level9_with("tool_call", "result", {"same_as": 1}, index=1),
        (), "tool call 2 field result.text is missing or invalid: None",
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
        level9_with("model_call", "type", "note"),
        (), "line 2 has type 'note'; after the header come effect lines, then one result line",
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
    "trace_result_steps_negative": (
        level9_with("result", "steps", -1), (), "result field steps is missing or invalid: -1",
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
    # valid args, but not the ones the replayed run asks with
    "trace_search_queries_edited": (
        level9_with("tool_call", "args", {"providers": ["fixture"], "queries": ["acme"]}),
        (), "replay expected tool call tool='search' with args "
            f"{{'providers': ['fixture'], 'queries': ['acme']}}, got args {SEARCHED!r}",
    ),
    **{
        f"{name}_{case}": ({file: text % value}, (), head + decode_error(text.strip() % value))
        for name, (file, text, head) in DECODED_FILES.items()
        for case, value in (("nested_too_deep", TOO_DEEP), ("integer_too_long", TOO_LONG))
    },
    "trace_line_nested_too_deep": (
        level9_with_line(2, DEEP_MODEL_CALL), (), "line 2 is not JSON: " + decode_error(DEEP_MODEL_CALL),
    ),
    # blank lines only
    "tasks_empty": ({"tasks.jsonl": "\n  \n"}, (), f"{TMP}/tasks.jsonl: it holds no tasks"),
    # refused before the first run makes a model call
    "trace_dir_a_file": (
        {"trace-dir": "a file\n"}, ("--trace-dir", f"{TMP}/trace-dir"),
        f"[Errno 17] File exists: '{TMP}/trace-dir'",
    ),
    "out_dir_a_file": (
        {"out": "a file\n"}, ("--out", f"{TMP}/out/results.json"),
        f"[Errno 17] File exists: '{TMP}/out'",
    ),
    "out_a_directory": (
        {"out": DIRECTORY}, ("--out", f"{TMP}/out"), f"[Errno 21] Is a directory: '{TMP}/out'",
    ),
}


def refusal_argv(case: str, root: Path) -> list[str]:
    """Write the files of row ``case`` of ``OUTSIDE_INPUTS`` under ``root``;
    return the arguments that run the row."""
    files, extra, _ = OUTSIDE_INPUTS[case]
    paths = {"tasks.jsonl": BENCH / "tasks.jsonl", "config.ini": BENCH / "config.ini",
             "script.jsonl": BENCH / "script.jsonl", "fixtures": BENCH}
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if content is DIRECTORY:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        top = name.split("/")[0]  # a file under fixtures/ makes that the fixture directory
        paths[top] = root / top
    if "results.json" in files:
        return ["report", "--results", str(paths["results.json"])]
    if "traces" in paths:
        return ["replay", str(paths["traces"])]
    return ["bench", "--config", str(paths["config.ini"]), "--script",
            str(paths["script.jsonl"]), "--fixtures", str(paths["fixtures"]),
            "--tasks", str(paths["tasks.jsonl"]), *(a.replace(TMP, str(root)) for a in extra)]


def check_refusal(case: str, agentmeter, root: Path) -> None:
    """Run row ``case`` through ``agentmeter``, its files under ``root``;
    assert that it exited 2 and wrote nothing but one ``error:`` line ending
    in the row's message."""
    files, _, message = OUTSIDE_INPUTS[case]
    code, out, err = agentmeter(*refusal_argv(case, root))
    message = message.replace(TMP, str(root))
    assert code == 2 and out == "", f"exit code {code}, stdout {out!r}"
    assert err.startswith("error: ") and err.endswith(message + "\n") and err.count("\n") == 1, \
        f"stderr {err!r} is not one error: line ending in {message!r}"
    if any(name.startswith("traces/") for name in files):  # a trace's error names it first
        trace = root / "traces" / LEVEL9.name
        assert err.startswith(f"error: {trace}: "), f"stderr {err!r} does not name {trace} first"


@pytest.mark.parametrize("case", list(OUTSIDE_INPUTS))
def test_bad_outside_input_exits_two_with_error(tmp_path, agentmeter, case):
    check_refusal(case, agentmeter, tmp_path)


@pytest.mark.parametrize("command", [("bench",),
                                     ("sweep", "--axis", "max_steps", "--values", "6,12")])
def test_an_out_dir_that_cannot_be_made_stops_before_any_call(tmp_path, monkeypatch, agentmeter,
                                                               command):
    calls = []
    complete = ScriptedBackend.complete
    monkeypatch.setattr(ScriptedBackend, "complete",
                        lambda self, request: calls.append(request) or complete(self, request))
    for case in ("out_dir_a_file", "out_a_directory"):  # each an OUTSIDE_INPUTS row
        _, *argv = refusal_argv(case, tmp_path / case)  # bench and its arguments
        message = OUTSIDE_INPUTS[case][2].replace(TMP, str(tmp_path / case))
        assert agentmeter(*command, *argv) == (2, "", f"error: {message}\n"), case
        assert calls == [], case


# -- round trips -------------------------------------------------------------
# Each row runs commands through ``agentmeter(*argv) -> (exit code, stdout,
# stderr)``, writing under the directory ``root``, and asserts what they wrote.
# Tier-1 runs each row in-process; tests/installed_cli.py sends each through
# the installed script as well. So a new round trip is one row.


def succeeds(agentmeter, *argv) -> str:
    """The stdout of ``agentmeter *argv``, which must exit 0."""
    code, out, err = agentmeter(*argv)
    assert code == 0, f"agentmeter {argv[0]} exited {code}: {err}"
    return out


def fixture_bench(agentmeter, traces: Path, *extra, tasks=BENCH / "tasks.jsonl") -> str:
    """The CSV of the fixture bench over ``tasks``, its traces written into ``traces``."""
    return succeeds(agentmeter, "bench", *bench_args(), "--tasks", tasks, "--trace-dir", traces,
                    "--format", "csv", *extra)


def assert_same_traces(originals: Path, copies: Path) -> None:
    """``copies`` holds the traces of ``originals`` under their names, byte for
    byte, and nothing else."""
    names = sorted(p.name for p in originals.glob("*.trace"))
    assert sorted(p.name for p in copies.iterdir()) == names
    for name in names:
        assert (copies / name).read_bytes() == (originals / name).read_bytes(), f"{name} differs"


def bench_replay_report(agentmeter, root):
    # a bench's traces re-record to the same bytes, and its replay and the report
    # of its saved outcomes give the live aggregate
    results = root / "results.json"
    live = fixture_bench(agentmeter, root / "t", "--out", results)
    replayed = succeeds(agentmeter, "replay", root / "t", "--trace-dir", root / "t2",
                        "--format", "csv")
    assert replayed == live
    assert_same_traces(root / "t", root / "t2")
    assert succeeds(agentmeter, "report", "--results", results, "--format", "csv") == live
    # a replay's table is titled as one, where a bench's names its config
    table = succeeds(agentmeter, "replay", root / "t").splitlines()
    reported = succeeds(agentmeter, "report", "--results", results).splitlines()
    assert table == ["replayed", *reported[1:]]


def two_workers(agentmeter, root):
    # two workers share one page-text cache and still write the same trace bytes
    fixture_bench(agentmeter, root / "one")
    fixture_bench(agentmeter, root / "two", "--workers", 2)
    assert_same_traces(root / "one", root / "two")


def run_one_task(agentmeter, root):
    # run writes the same trace bytes for a task as bench does
    fixture_bench(agentmeter, root / "bench")
    succeeds(agentmeter, "run", *bench_args(), "--tasks", BENCH / "tasks.jsonl",
             "--task-id", "gaia-e1", "--trace-dir", root / "run")
    (trace,) = (root / "run").iterdir()
    assert trace.name.startswith("gaia-e1.")
    assert trace.read_bytes() == (root / "bench" / trace.name).read_bytes()


def task_ids_apart(agentmeter, root):
    # task ids that differ only in case, or in a character a file name cannot
    # hold, get trace names that differ even ignoring case; each re-records to its bytes
    first = json.loads((BENCH / "tasks.jsonl").read_text(encoding="utf-8").splitlines()[0])
    tasks = root / "ids.jsonl"
    tasks.write_text("".join(json.dumps({**first, "task_id": i}) + "\n"
                             for i in ("Q1", "q1", "a/b", "a_b")), encoding="utf-8")
    fixture_bench(agentmeter, root / "ids", tasks=tasks)
    names = [p.name for p in (root / "ids").iterdir()]
    assert len(names) == len({name.lower() for name in names}) == 4, names
    succeeds(agentmeter, "replay", root / "ids", "--trace-dir", root / "ids2", "--format", "csv")
    assert_same_traces(root / "ids", root / "ids2")


def level9_replays(agentmeter, root):
    # a trace recorded by an earlier version (v1, gzip level 9) passes the
    # header checks and replays
    succeeds(agentmeter, "replay", LEVEL9.parent, "--format", "csv")


def level_1_traces_re_record(agentmeter, root):
    # traces in the level-1 containers earlier versions wrote replay, and
    # re-record to the level-0 bytes a bench writes now
    fixture_bench(agentmeter, root / "t")
    (root / "level1").mkdir()
    for trace in (root / "t").iterdir():
        level_1 = gzip_at(1, gzip.decompress(trace.read_bytes()))
        assert level_1 != trace.read_bytes()
        (root / "level1" / trace.name).write_bytes(level_1)
    succeeds(agentmeter, "replay", root / "level1", "--trace-dir", root / "again",
             "--format", "csv")
    assert_same_traces(root / "t", root / "again")


def embed_re_records(agentmeter, root):
    # v1 traces holding embeddings an earlier version drew re-record as v2 with
    # the same lines, and the v2 re-recordings re-record to their own bytes
    recorded = sorted(EMBED.glob("*.trace"))
    assert len(recorded) == 3
    for trace in recorded:
        assert any(e["type"] == "embed" for e in trace_lines(trace))
    out = succeeds(agentmeter, "replay", EMBED, "--trace-dir", root / "embed", "--format", "csv")
    assert "66.6667" in out  # 2 of the 3 tasks solved, as recorded
    assert sorted(p.name for p in (root / "embed").iterdir()) == [p.name for p in recorded]
    for trace in recorded:
        old, new = trace_lines(trace), trace_lines(root / "embed" / trace.name)
        assert (old[0].pop("version"), new[0].pop("version")) == (1, 2)
        assert new == old, f"{trace.name} differs"
    assert succeeds(agentmeter, "replay", root / "embed", "--trace-dir", root / "again",
                    "--format", "csv") == out
    assert_same_traces(root / "embed", root / "again")


def purpose_in_upper_case(agentmeter, root):
    # the one type rule reads a recorded purpose in any case; the re-recording
    # writes it as a run does
    fixture_bench(agentmeter, root / "t")
    trace = next((root / "t").glob("gaia-e1.*"))
    events = trace_lines(trace)
    call = next(e for e in events if e["type"] == "model_call")
    call["purpose"] = call["purpose"].upper()
    (root / "upper").mkdir()
    write_trace_lines(root / "upper" / trace.name, events)
    unedited = succeeds(agentmeter, "replay", trace, "--format", "csv")
    assert succeeds(agentmeter, "replay", root / "upper", "--trace-dir", root / "again",
                    "--format", "csv") == unedited
    assert (root / "again" / trace.name).read_bytes() == trace.read_bytes()


ROUND_TRIPS = {row.__name__: row for row in (
    bench_replay_report, two_workers, run_one_task, task_ids_apart, level9_replays,
    level_1_traces_re_record, embed_re_records, purpose_in_upper_case,
)}


@pytest.mark.parametrize("row", list(ROUND_TRIPS))
def test_round_trip(tmp_path, agentmeter, row):
    ROUND_TRIPS[row](agentmeter, tmp_path)


def test_ci_runs_the_program_through_the_tables_alone():
    # so a new check of the installed script is a row, not a workflow line
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    commands = [line.split("#")[0] for line in workflow.read_text(encoding="utf-8").splitlines()]
    assert [c for c in commands if re.search(r"(?<![\w./-])agentmeter(?![\w./-])", c)] == []
    assert any(c.strip() == "run: python tests/installed_cli.py" for c in commands)


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
