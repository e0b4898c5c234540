"""Tests of the benchmark itself: input determinism, the model stand-in,
the latency wrappers, the host-speed rescaling, and a tiny run of each
workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from setup_probe import import_program

import_program()

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import standin  # noqa: E402
from agentmeter import FixtureFetcher, FixtureSearchProvider, Message, ModelRequest, Purpose  # noqa: E402

HERE = Path(__file__).resolve().parent


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _generate_in_subprocess(out: Path, seed: int, hash_seed: str) -> str:
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import inputs; "
        "inputs.generate(sys.argv[2], inputs.SHAPES[sys.argv[3]], int(sys.argv[4]), 12, 6)"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    for shape in inputs.SHAPES:
        subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(out / shape), shape, str(seed)],
            check=True, env=env, timeout=120,
        )
    return _tree_digest(out)


def test_inputs_are_identical_across_hash_seeds_and_differ_across_seeds(tmp_path):
    a = _generate_in_subprocess(tmp_path / "a", 7, "1")
    b = _generate_in_subprocess(tmp_path / "b", 7, "2")
    c = _generate_in_subprocess(tmp_path / "c", 8, "1")
    assert a == b
    assert a != c


def test_blocks_get_the_designed_mix(tmp_path):
    designs = inputs.generate(tmp_path, inputs.OFFLINE, 3, 60, 30)
    for first in (0, 30):
        block = designs[first : first + 30]
        assert sum(d.terminated_by == "step_budget" for d in block) == 5
        assert sum(d.solved for d in block) == 21
    opens = [a for d in designs for a in d.actions if a.startswith("open_url")]
    assert len(opens) > 100


def _design(task_id: str) -> inputs.TaskDesign:
    return inputs.TaskDesign(
        task_id=task_id, level=1, question="q", expected="1", attachment=None,
        actions=['search(query="x")', 'final_answer(answer="1")'], thoughts=["a", "b"],
        expansions=[["x"]], forced_reply=None, solved=True, terminated_by="final_answer",
    )


def _time_calls(backend, run_id: str, calls: int) -> float:
    request = ModelRequest("gpt-4.1", (Message("user", "hello " * 8),), Purpose.PLANNER)
    best = float("inf")
    for _ in range(5):
        backend.start_run(run_id)
        start = time.perf_counter()
        for _ in range(calls):
            backend.complete(request)
        best = min(best, time.perf_counter() - start)
    return best


def test_standin_cost_per_call_does_not_grow_with_task_count():
    small = standin.DesignBackend([_design(f"t{i}") for i in range(10)], bon_n=1)
    large = standin.DesignBackend([_design(f"t{i}") for i in range(20000)], bon_n=1)
    t_small = _time_calls(small, "t5", 2000)
    t_large = _time_calls(large, "t19999", 2000)
    assert t_large < 2.0 * t_small + 0.005


def test_standin_replies_follow_the_design():
    d = _design("t0")
    backend = standin.DesignBackend([d], bon_n=2)
    backend.start_run("t0")
    actor = ModelRequest("gpt-4.1", (Message("user", "go"),), Purpose.ACTOR)
    replies = [backend.complete(actor).text for _ in range(4)]
    assert [r.splitlines()[-1] for r in replies] == [f"ACTION: {a}" for a in d.actions for _ in range(2)]
    expansion = backend.complete(ModelRequest("gpt-4.1", (Message("user", "q"),), Purpose.QUERY_EXPANSION))
    assert expansion.text == "1. x"
    assert expansion.usage.prompt_tokens == 1 and expansion.usage.completion_tokens == 1


@pytest.mark.parametrize("delay", [0.02, 0.05])
def test_latency_wrappers_sleep_the_fixed_amount(delay):
    inner = standin.DesignBackend([_design("t0")], bon_n=1)
    backend = standin.DelayedBackend(inner, delay)
    provider = standin.DelayedSearchProvider(FixtureSearchProvider("google", {}), delay)
    fetcher = standin.DelayedFetcher(FixtureFetcher({"https://a.example/": "<p>a</p>"}), delay)
    backend.start_run("t0")
    request = ModelRequest("gpt-4.1", (Message("user", "go"),), Purpose.PLANNER)
    for call in (
        lambda: backend.complete(request),
        lambda: provider.search("x", 5),
        lambda: fetcher.fetch("https://a.example/"),
    ):
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        assert delay <= elapsed < delay + 0.02


def test_rescale_counts_injected_latency_at_its_nominal_length():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.rescale(0.6, 0.4, ref) == pytest.approx(1.0)
    # twice as slow as the reference: the busy part halves, the latency stays
    assert hostspeed.rescale(0.6, 0.4, 2 * ref) == pytest.approx(0.7)
    assert hostspeed.rescale(0.5, 0.0, ref / 2) == pytest.approx(1.0)
    assert hostspeed.probe() > 0
    asked, waited = standin.latency_s()
    standin.wait(0.01)
    standin.wait(0)
    after = standin.latency_s()
    assert after[0] - asked == pytest.approx(0.01)
    assert 0.01 <= after[1] - waited < 0.03


TINY = {
    "offline_pages": measure.Workload("offline_pages", "offline", 12, 6, 1, False, 12),
    "live_fanout": measure.Workload("live_fanout", "live", 8, 4, 2, True, 8),
    "replay": measure.Workload("replay", "replay", 8, 4, 1, False, 16),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_passes_a_tiny_run(name, trace, tmp_path, capsys):
    code = measure.run(TINY[name], seed=5, seconds=0, trace=trace, work=tmp_path / "work")
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= TINY[name].tasks
    expected = measure.PER_LAYER if trace else measure.END_TO_END
    assert list(result["metrics"]) == [metric for metric, _ in expected]
    assert not (tmp_path / "work").exists()
    assert any(line.startswith(f"digest {name} ") for line in lines)
