import json

import pytest

from agentmeter.cli import main

from conftest import BENCH, trace_lines, write_trace_lines

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
    assert payload["rows"][0]["scope"] == "all"


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


OUTSIDE_INPUTS = {
    "workers_0": ({}, ("--workers", "0"), "workers must be >= 1, got 0"),
    "level_not_a_number": (
        {"tasks.jsonl": '{"task_id": "t", "Level": "x", "Question": "q", "Final answer": "a"}\n'},
        (), "tasks.jsonl:1: Level 'x' is not an integer",
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
    "no_section_header": (
        {"config.ini": "max_steps = 3\n" + PRICED}, (), "File contains no section headers.",
    ),
    "temperature_nan": (
        {"config.ini": AGENT_SECTION + "temperature = nan\n" + PRICED},
        (), "temperature must be a finite number >= 0, got nan",
    ),
}


@pytest.mark.parametrize("case", list(OUTSIDE_INPUTS))
def test_bad_outside_input_exits_two_with_error(tmp_path, capsys, case):
    files, extra, message = OUTSIDE_INPUTS[case]
    paths = {"tasks.jsonl": BENCH / "tasks.jsonl", "config.ini": BENCH / "config.ini"}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    argv = ["bench", "--config", str(paths["config.ini"]), "--script", str(BENCH / "script.jsonl"),
            "--fixtures", str(BENCH), "--tasks", str(paths["tasks.jsonl"]), *extra]
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "error: " in captured.err and message in captured.err
    assert captured.out == ""


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
