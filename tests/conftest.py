"""Shared builders for scripted runs and the fixture benchmark."""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest
from hypothesis import settings

from agentmeter import (
    AgentConfig,
    FixtureFetcher,
    FixtureSearchProvider,
    ModelPricing,
    PricingTable,
    Purpose,
    RunSession,
    ScriptEntry,
    ScriptedBackend,
    ToolBox,
    default_config,
)
from agentmeter import tools

# CI runs the tests with --hypothesis-profile=ci: property tests that set no
# example count of their own, the page-text differential test among them,
# then try 2,000 examples instead of 100
settings.register_profile("ci", max_examples=2000)

FIXTURES = Path(__file__).parent / "fixtures"
BENCH = FIXTURES / "bench"


@pytest.fixture(autouse=True)
def empty_page_cache():
    """Each test starts with no page text cached, so extractions can be counted."""
    tools.PAGE_TEXTS.clear()


@pytest.fixture(autouse=True)
def free_fetch_slots():
    """Each test starts with no host's fetch slot taken, as a new process does."""
    tools.HttpFetcher._next_slot.clear()


@pytest.fixture
def pricing() -> PricingTable:
    # 1 micro-dollar per input token, 10 per output token
    return PricingTable({"gpt-4.1": ModelPricing.per_million("1.00", "10.00")})


def count_extractions(monkeypatch) -> list:
    """The HTML of every extraction from now on, in order."""
    real_extract = tools.extract_static_text
    extracted = []
    monkeypatch.setattr(
        tools, "extract_static_text", lambda html: extracted.append(html) or real_extract(html)
    )
    return extracted


def make_session(backend, pricing, run_id="test-run", trace=None, timeout_s=None) -> RunSession:
    return RunSession(
        run_id=run_id,
        backend=backend,
        pricing=pricing,
        trace=trace,
        timeout_s=timeout_s,
    )


def make_toolbox(session, config=None, providers=(), pages=None, attachments=None) -> ToolBox:
    return ToolBox(
        session,
        config or default_config(),
        providers=providers,
        fetcher=FixtureFetcher(pages or {}),
        attachments=attachments,
    )


def planner_entry(times=0) -> ScriptEntry:
    return ScriptEntry(
        purpose=Purpose.PLANNER,
        response="1. Find the fact.\n2. Answer.",
        times=times,
        prompt_tokens=200,
        completion_tokens=40,
    )


def actor_entry(response, match=None, times=1, prompt_tokens=300, completion_tokens=30):
    return ScriptEntry(
        purpose=Purpose.ACTOR,
        response=response,
        match=match,
        times=times,
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
    )


def bench_backend() -> ScriptedBackend:
    return ScriptedBackend.from_jsonl(BENCH / "script.jsonl")


def bench_providers() -> list[FixtureSearchProvider]:
    return [FixtureSearchProvider.from_file(BENCH / "searches.json")]


def bench_fetcher() -> FixtureFetcher:
    return FixtureFetcher.from_dir(BENCH / "pages")


def bench_pricing() -> PricingTable:
    return PricingTable({"gpt-4.1": ModelPricing.per_million("1.00", "10.00")})


def trace_lines(path) -> list[dict]:
    return [json.loads(line) for line in gzip.decompress(Path(path).read_bytes()).splitlines()]


def trace_bytes(events) -> bytes:
    """A trace file holding ``events``, as an edited or cut recording."""
    data = "".join(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in events)
    return gzip.compress(data.encode("utf-8"), mtime=0)


def write_trace_lines(path, events) -> None:
    """Overwrite a trace with ``events``."""
    Path(path).write_bytes(trace_bytes(events))
