"""Span tracing of agentmeter's layers, installed from outside the program.

Each traced layer is a public function or method of the program, replaced
for the duration of a traced run by a wrapper that records a span: name,
the run it belongs to, its parent span's name, start, end and self time
(its duration minus its child spans, which on one thread never overlap).
Spans stay in memory and are written out once, when the run ends. The
wrappers are removed again afterwards, so an untraced run executes the
program's own functions only.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import agentmeter.agent
import agentmeter.harness
import agentmeter.ledger
import agentmeter.memory
import agentmeter.prompts
import agentmeter.session
import agentmeter.tools
import agentmeter.trace
import agentmeter.tts

import standin

WAIT = "latency.wait"
PROVIDER_REQUEST = "tools.search.provider_request"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._runs = itertools.count()

    # -- installing wrappers --------------------------------------------------

    def wrap(self, owner, attr: str, name: str, info=None, starts_run: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``info(args, result)`` may return a small dict of span attributes;
        ``starts_run`` marks a call that begins a new task run.
        """
        original = getattr(owner, attr)
        saved = vars(owner).get(attr, _MISSING)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, original, args, kwargs, info, starts_run)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved))

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    def _call(self, name, fn, args, kwargs, info, starts_run):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if starts_run:
            local.run = next(self._runs)
        frame = [name, 0.0]
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        result = None
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            attrs = info(args, result) if info is not None and not failed else None
            self.spans.append(
                (name, getattr(local, "run", -1), parent, start, end, duration - frame[1], failed, attrs)
            )

    # -- results ------------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, failed, total and self seconds, summed attributes."""
        out: dict = defaultdict(_row)
        for name, _run, parent, start, end, self_s, failed, attrs in self.spans:
            key = f"{WAIT}<{parent}" if name == WAIT else name
            row = out[key]
            row["calls"] += 1
            row["failed"] += failed
            row["s"] += end - start
            row["self_s"] += self_s
            if attrs:
                for k, v in attrs.items():
                    row["attrs"][k] += v
        return out

    def write(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "run", "parent", "start", "end", "self_s", "failed", "attrs")
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


_MISSING = object()


def _row() -> dict:
    return {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0, "attrs": defaultdict(float)}


def instrument(tracer: Tracer, backend, providers, fetcher) -> None:
    """Wrap every traced layer of the program and of the workload's collaborators."""
    am = agentmeter
    seen_fetches: set = set()
    seen_lock = threading.Lock()

    def fetch_info(args, result):
        key = (tracer._local.run, args[0])
        with seen_lock:
            repeat = key in seen_fetches
            seen_fetches.add(key)
        return {"repeat": repeat}

    w = tracer.wrap
    w(am.harness, "execute_run", "harness.execute_run", starts_run=True)
    w(am.harness, "replay_run", "harness.replay_run", starts_run=True)
    w(am.harness, "grade", "harness.grade")
    w(am.harness, "aggregate", "ledger.aggregate")
    w(am.harness, "read_trace", "trace.read", info=lambda a, r: {"bytes": os.path.getsize(a[0])})
    w(am.ledger, "aggregate", "ledger.aggregate")
    w(am.agent, "generate_plan", "agent.generate_plan")
    w(am.agent, "react_step", "agent.react_step")
    w(am.agent, "parse_action", "actions.parse_action")
    w(am.tts, "parse_action", "actions.parse_action")
    w(am.tts, "sample_candidates", "tts.sample_candidates")
    w(am.tts, "judge_score", "tts.judge_score")
    w(am.prompts, "render", "prompts.render")
    w(am.memory.RunMemory, "context_blocks", "memory.context_blocks",
      info=lambda a, r: {"chars": sum(len(b) for b in r)})
    w(am.memory.RunMemory, "observe_step", "memory.observe_step")
    w(am.memory, "retrieve_top_k", "memory.retrieve_top_k")
    w(am.session.RunSession, "call_model", "session.call_model")
    w(am.session.RunSession, "call_tool", "session.call_tool")
    w(am.session.RunSession, "embed", "session.embed")
    w(am.ledger.RunLedger, "record", "ledger.record")
    w(am.trace.TraceWriter, "close", "trace.close",
      info=lambda a, r: {"bytes": a[0].path.stat().st_size})
    w(am.tools, "extract_static_text", "tools.extract_static_text",
      info=lambda a, r: {"bytes": len(a[0])})
    w(am.tools, "paginate", "tools.paginate")
    w(am.tools, "search", "tools.search", info=lambda a, r: {"kept": len(r)})
    w(standin, "wait", WAIT)
    if backend is not None:
        w(backend, "complete", "backend.complete",
          info=lambda a, r: {a[0].purpose.value: 1})
    if fetcher is not None:
        w(fetcher, "fetch", "tools.fetch", info=fetch_info)
    for provider in providers:
        w(provider, "search", PROVIDER_REQUEST, info=lambda a, r: {"rows": len(r)})


PURPOSES = ("actor", "planner", "prm", "memory", "query_expansion")

# (metric, unit); every traced run reports all of them, zero where a layer is idle
LAYER_METRICS = (
    ("tools.extract_static_text.calls", "count"),
    ("tools.extract_static_text.ms", "ms"),
    ("tools.extract_static_text.bytes_in", "bytes"),
    ("tools.extract_static_text.mb_per_s", "MB/s"),
    ("tools.fetch.calls", "count"),
    ("tools.fetch.wait_ms", "ms"),
    ("tools.fetch.repeat_share", "ratio"),
    ("tools.paginate.calls", "count"),
    ("tools.paginate.ms", "ms"),
    ("backend.complete.calls", "count"),
    ("backend.complete.wait_ms", "ms"),
    ("backend.complete.failed", "count"),
    *((f"backend.calls.{p}", "count") for p in PURPOSES),
    ("tools.search.calls", "count"),
    ("tools.search.provider_requests", "count"),
    ("tools.search.wait_ms", "ms"),
    ("tools.search.self_ms", "ms"),
    ("tools.search.kept_share", "ratio"),
    ("tts.sample_candidates.ms", "ms"),
    ("tts.judge_score.calls", "count"),
    ("tts.judge_score.reask_share", "ratio"),
    ("memory.context_blocks.calls", "count"),
    ("memory.context_blocks.ms", "ms"),
    ("memory.context_blocks.chars_mean", "chars"),
    ("memory.retrieve_top_k.calls", "count"),
    ("memory.retrieve_top_k.ms", "ms"),
    ("memory.observe_step.ms", "ms"),
    ("session.embed.calls", "count"),
    ("session.embed.ms", "ms"),
    ("trace.close.calls", "count"),
    ("trace.close.ms", "ms"),
    ("trace.close.bytes_written", "bytes"),
    ("trace.read.calls", "count"),
    ("trace.read.ms", "ms"),
    ("trace.read.bytes_read", "bytes"),
    ("session.call_model.ms", "ms"),
    ("session.call_tool.ms", "ms"),
    ("ledger.record.calls", "count"),
    ("ledger.record.ms", "ms"),
    ("actions.parse_action.calls", "count"),
    ("actions.parse_action.ms", "ms"),
    ("prompts.render.calls", "count"),
    ("prompts.render.ms", "ms"),
    ("agent.generate_plan.ms", "ms"),
    ("agent.react_step.ms", "ms"),
    ("harness.execute_run.ms", "ms"),
    ("harness.replay_run.ms", "ms"),
    ("harness.grade.ms", "ms"),
    ("ledger.aggregate.ms", "ms"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict) -> dict[str, float]:
    """Per-layer metric values from :meth:`Tracer.totals`; times in ms."""
    t = defaultdict(_row, totals)

    def ms(name):
        return 1000.0 * t[name]["s"]

    def calls(name):
        return t[name]["calls"]

    def attr(name, key):
        return t[name]["attrs"][key]

    def wait_ms(parent):
        return 1000.0 * t[f"{WAIT}<{parent}"]["s"]

    ex = "tools.extract_static_text"
    rows = attr(PROVIDER_REQUEST, "rows")
    judged = calls("tts.judge_score")
    waits = wait_ms("backend.complete") + wait_ms(PROVIDER_REQUEST) + wait_ms("tools.fetch")
    run_ms = ms("harness.execute_run") + ms("harness.replay_run")
    values = {
        f"{ex}.calls": calls(ex),
        f"{ex}.ms": ms(ex),
        f"{ex}.bytes_in": attr(ex, "bytes"),
        f"{ex}.mb_per_s": _ratio(attr(ex, "bytes") / 1e6, t[ex]["s"]),
        "tools.fetch.calls": calls("tools.fetch"),
        "tools.fetch.wait_ms": wait_ms("tools.fetch"),
        "tools.fetch.repeat_share": _ratio(attr("tools.fetch", "repeat"), calls("tools.fetch")),
        "backend.complete.calls": calls("backend.complete"),
        "backend.complete.wait_ms": wait_ms("backend.complete"),
        "backend.complete.failed": t["backend.complete"]["failed"],
        "tools.search.calls": calls("tools.search"),
        "tools.search.provider_requests": calls(PROVIDER_REQUEST),
        "tools.search.wait_ms": wait_ms(PROVIDER_REQUEST),
        "tools.search.self_ms": 1000.0 * t["tools.search"]["self_s"],
        "tools.search.kept_share": _ratio(attr("tools.search", "kept"), rows),
        "tts.judge_score.calls": judged,
        "tts.judge_score.reask_share": _ratio(attr("backend.complete", "prm") - judged, judged),
        "memory.context_blocks.chars_mean": _ratio(
            attr("memory.context_blocks", "chars"), calls("memory.context_blocks")
        ),
        "trace.close.bytes_written": attr("trace.close", "bytes"),
        "trace.read.bytes_read": attr("trace.read", "bytes"),
        "latency.wait_share": _ratio(waits, run_ms),
    }
    for p in PURPOSES:
        values[f"backend.calls.{p}"] = attr("backend.complete", p)
    for metric, unit in LAYER_METRICS:
        if metric in values:
            continue
        layer, _, kind = metric.rpartition(".")
        values[metric] = calls(layer) if kind == "calls" else ms(layer)
    return values


def self_time_ranking(totals: dict) -> list[tuple[str, float]]:
    """Span names by self time, largest first, in ms; waits count as their own layer."""
    return sorted(
        ((name, 1000.0 * row["self_s"]) for name, row in totals.items()),
        key=lambda item: -item[1],
    )
