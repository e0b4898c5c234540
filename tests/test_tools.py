import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmeter.actions import Action, ActionName
from agentmeter.backend import Purpose, ScriptEntry, ScriptedBackend
from agentmeter import tools
from agentmeter.config import PageStrategy, default_config
from agentmeter.tools import (
    CRAWLER_MAX_CHARS,
    VIEWPORT_CHARS,
    BrowserState,
    FixtureFetcher,
    FixtureSearchProvider,
    PageView,
    SearchProvider,
    TransportError,
    expand_queries,
    extract_static_text,
    fetch_page,
    normalize_url,
    paginate,
    parse_query_list,
    render_view,
    search,
)

from conftest import make_session


class FailingProvider(SearchProvider):
    name = "broken"

    def search(self, query, limit):
        raise RuntimeError("boom")


def provider(name, rows_by_query):
    return FixtureSearchProvider(name, rows_by_query)


# -- url normalization and merge ---------------------------------------------


def test_normalize_url_cases():
    assert normalize_url("HTTPS://Example.ORG/Path?q=1#frag") == "https://example.org/Path?q=1"
    assert normalize_url("http://a.com/x") == normalize_url("http://A.COM/x#other")
    # path case is significant
    assert normalize_url("http://a.com/X") != normalize_url("http://a.com/x")


def test_search_merge_order_and_dedup():
    p1 = provider("one", {
        "q1": [("A", "http://a.com/1", "s"), ("B", "http://b.com/1", "s")],
        "q2": [("C", "http://c.com/1", "s")],
    })
    p2 = provider("two", {
        "q1": [("A2", "http://A.COM/1#x", "dup"), ("D", "http://d.com/1", "s")],
    })
    out = search([p1, p2], ["q1", "q2"])
    assert [r.url for r in out] == [
        "http://a.com/1", "http://b.com/1", "http://d.com/1", "http://c.com/1",
    ]
    assert out[0].title == "A"  # first occurrence of the dup wins


def test_search_skips_failing_provider_and_bad_urls():
    ok = provider("ok", {"q": [("T", "http://x.com/", "s"), ("R", "/relative", "s")]})
    out = search([FailingProvider(), ok], ["q"])
    assert [r.url for r in out] == ["http://x.com/"]


def test_search_respects_per_query_limit_and_requires_queries():
    rows = [(f"T{i}", f"http://site.com/{i}", "s") for i in range(10)]
    out = search([provider("p", {"q": rows})], ["q"], per_query_limit=3)
    assert len(out) == 3
    with pytest.raises(ValueError):
        search([provider("p", {})], [])


# -- query expansion ---------------------------------------------------------


def test_parse_query_list_formats():
    assert parse_query_list("1. alpha\n2) beta\n- gamma") == ["alpha", "beta", "gamma"]
    assert parse_query_list('"plain one"\nplain two') == ["plain one", "plain two"]
    assert parse_query_list("") == []


def expansion_backend(response):
    return ScriptedBackend([
        ScriptEntry(Purpose.QUERY_EXPANSION, response, times=0,
                    prompt_tokens=120, completion_tokens=25)
    ])


def test_expand_queries_dedups_and_pads(pricing):
    session = make_session(expansion_backend("1. Alpha\n2. alpha\n3. beta"), pricing)
    out = expand_queries("original?", 4, session, "gpt-4.1")
    assert out == ["Alpha", "beta", "original?", "original?"]


def test_expand_queries_truncates_to_k(pricing):
    lines = "\n".join(f"{i}. query {i}" for i in range(1, 9))
    session = make_session(expansion_backend(lines), pricing)
    assert len(expand_queries("q", 3, session, "gpt-4.1")) == 3


def test_expand_queries_garbage_falls_back_to_question(pricing):
    session = make_session(expansion_backend("\n\n"), pricing)
    assert expand_queries("the question", 2, session, "gpt-4.1") == [
        "the question", "the question",
    ]
    with pytest.raises(ValueError):
        expand_queries("q", 0, session, "gpt-4.1")


# -- text extraction ---------------------------------------------------------

GOLDEN_HTML = """
<html><head><title>Ignored</title><style>body{color:red}</style>
<script>var x = 1;</script></head>
<body>
<h1>Main Title</h1>
<p>First paragraph with <a href="http://x.com/">a link</a>.</p>
<h2>Section</h2>
<ul><li>item one</li><li>item   two</li></ul>
<script>more()</script>
<p>Tail.</p>
</body></html>
"""

GOLDEN_TEXT = (
    "Ignored\n"
    "# Main Title\n"
    "First paragraph with a link (http://x.com/).\n"
    "## Section\n"
    "item one\n"
    "item two\n"
    "Tail."
)


def test_extract_static_text_golden():
    assert extract_static_text(GOLDEN_HTML) == GOLDEN_TEXT


def test_extract_handles_bytes_and_malformed():
    assert extract_static_text(b"<p>bytes</p>") == "bytes"
    # unterminated junk must not raise
    assert isinstance(extract_static_text("<p><a href='x'>oops"), str)


_HTML_FRAGMENTS = st.one_of(
    st.sampled_from([
        "<p>", "</p>", "<h2>", "</h2>", "<li>", "<br>", "<br/>", "<hr/>", "<div>", "</div>",
        "<a href='http://x.com/'>", "<a>", "</a>", "<script>var x = '<p>';</script>",
        "<style>p{}</style>", "<script>", "</style>", "&amp;", "&#160;", "&nbsp;", "&#x85;",
        "&", "&am", "<", "< p", "\x1c", "\x85", "\xa0", " ", "\r\n", "\n",
    ]),
    st.builds(lambda word, n: (word + " ") * n, st.sampled_from(["word", "w\xa0x", "y\x1c"]),
              st.integers(min_value=1, max_value=1500)),
    st.text(alphabet="ab <>&;/\n", max_size=20),
)


def extract_flushing_every(flush_chars, html, max_chars=None):
    """extract_static_text with finished lines moved out every flush_chars of data."""
    saved = tools._FLUSH_CHARS
    tools._FLUSH_CHARS = flush_chars
    try:
        return extract_static_text(html, max_chars)
    finally:
        tools._FLUSH_CHARS = saved


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_HTML_FRAGMENTS, max_size=40).map("".join),
    st.integers(min_value=0),
    st.sampled_from([1, 7, tools._FLUSH_CHARS]),
)
def test_bounded_extraction_agrees_with_full_parse(html, max_chars, flush_chars):
    # never flushing mid-parse normalizes the whole text at the end, as a one-shot parse would
    reference = extract_flushing_every(sys.maxsize, html)
    full = extract_flushing_every(flush_chars, html)
    assert full == reference == extract_static_text(html)
    max_chars %= len(full) + 2
    bounded = extract_flushing_every(flush_chars, html, max_chars)
    assert full.startswith(bounded)
    assert bounded[:max_chars] == full[:max_chars]
    assert (len(bounded) > max_chars) == (len(full) > max_chars)


# -- pagination --------------------------------------------------------------


def test_paginate_boundaries():
    assert paginate("", 10) == [""]
    assert paginate("x" * 10, 10) == ["x" * 10]
    assert paginate("x" * 11, 10) == ["x" * 10, "x"]


@given(st.text(max_size=500), st.integers(min_value=1, max_value=64))
def test_paginate_partitions_text(text, size):
    views = paginate(text, size)
    assert "".join(views) == text
    if text:
        assert all(len(v) == size for v in views[:-1])
        assert 1 <= len(views[-1]) <= size


# -- fetch_page --------------------------------------------------------------


def test_fetch_page_strategies():
    big = "<p>" + "A" * (CRAWLER_MAX_CHARS + 5000) + "</p>"
    fetcher = FixtureFetcher({"http://big.com/": big, "http://small.com/": "<p>hi</p>"})

    static = fetch_page("http://big.com/", PageStrategy.CRAWLER_STATIC, fetcher)
    assert static.viewport_count == 1
    assert static.truncated
    assert len(static.text) == CRAWLER_MAX_CHARS

    complex_view = fetch_page("http://big.com/", PageStrategy.BROWSER_COMPLEX, fetcher)
    assert complex_view.viewport_count == CRAWLER_MAX_CHARS // VIEWPORT_CHARS
    assert len(complex_view.text) == VIEWPORT_CHARS
    assert complex_view.viewport_index == 0

    small = fetch_page("http://small.com/", PageStrategy.BROWSER_COMPLEX, fetcher)
    assert small.text == "hi"
    assert not small.truncated

    with pytest.raises(TransportError):
        fetch_page("http://missing.com/", PageStrategy.CRAWLER_STATIC, fetcher)


def test_fixture_fetcher_from_dir(tmp_path):
    (tmp_path / "http%3A%2F%2Fa.com%2F").write_text("<p>page a</p>", encoding="utf-8")
    fetcher = FixtureFetcher.from_dir(tmp_path)
    assert fetcher.fetch("http://a.com/") == "<p>page a</p>"


# -- browser state -----------------------------------------------------------


def test_browser_scroll_bounds():
    b = BrowserState()
    assert not b.is_open
    b.open("http://x.com/", "a" * (VIEWPORT_CHARS * 2 + 100), truncated=False)
    assert len(b.viewports) == 3
    assert not b.scroll(-1)          # already at first
    assert b.scroll(+1) and b.viewport_index == 1
    assert b.scroll(+1) and b.viewport_index == 2
    assert not b.scroll(+1)          # past last: no-op
    assert b.viewport_index == 2


def test_view_consistency_between_strategies():
    b = BrowserState()
    b.open("http://x.com/", "text", truncated=False)
    assert b.view(PageStrategy.CRAWLER_STATIC).viewport_count == 1
    v = b.view(PageStrategy.BROWSER_COMPLEX)
    assert (v.viewport_index, v.viewport_count, v.text) == (0, 1, "text")


def test_page_view_rejects_bad_index():
    with pytest.raises(ValueError):
        PageView(url="u", viewport_index=2, viewport_count=2, text="", truncated=False)


def test_render_view_truncation_marker_only_on_last_view():
    first = PageView(url="u", viewport_index=0, viewport_count=2, text="t", truncated=True)
    last = PageView(url="u", viewport_index=1, viewport_count=2, text="t", truncated=True)
    assert "[page text truncated]" not in render_view(first)
    assert render_view(last).endswith("[page text truncated]")
    assert render_view(first).startswith("[u | viewport 1/2]")


# -- toolbox dispatch --------------------------------------------------------


def toolbox_for(pricing, make_toolbox_kwargs=None, script=(), config=None):
    from conftest import make_toolbox

    session = make_session(ScriptedBackend(list(script)), pricing)
    box = make_toolbox(session, config=config, **(make_toolbox_kwargs or {}))
    return session, box


def search_script():
    return [ScriptEntry(Purpose.QUERY_EXPANSION, "1. acme history", times=0,
                        prompt_tokens=10, completion_tokens=5)]


def test_toolbox_search_renders_results(tmp_path, pricing):
    from agentmeter.trace import TraceWriter, read_trace

    cfg = dataclasses.replace(default_config(), query_expansion_count=1)
    writer = TraceWriter(tmp_path / "t.trace")
    writer.header("r", "t", {}, "0" * 8, {})
    session = make_session(ScriptedBackend(search_script()), pricing, trace=writer)
    from conftest import make_toolbox

    box = make_toolbox(
        session,
        config=cfg,
        providers=[provider("p", {"acme history": [("Acme", "http://acme.com/", "founded")]})],
    )
    out = box.dispatch(Action(ActionName.SEARCH, {"query": "acme"}))
    assert "Search results (1):" in out
    assert "1. Acme - http://acme.com/" in out
    assert "founded" in out
    writer.close()
    # the expanded queries, not the raw input, are what the trace records
    event = [e for e in read_trace(tmp_path / "t.trace").events if e["type"] == "tool_call"][0]
    assert event["tool"] == "search"
    assert event["args"]["queries"] == ["acme history"]


def test_toolbox_search_empty_results_and_missing_query(pricing):
    cfg = dataclasses.replace(default_config(), query_expansion_count=1)
    session, box = toolbox_for(pricing, {"providers": []}, search_script(), cfg)
    assert box.dispatch(Action(ActionName.SEARCH, {"query": "x"})) == "No search results."
    assert "needs a query" in box.dispatch(Action(ActionName.SEARCH, {}))


def test_toolbox_open_url_and_paging(pricing):
    text = "".join(f"<p>{'w' * 99}</p>" for _ in range(100))  # 100 lines -> ~2 viewports
    cfg = dataclasses.replace(default_config(), page_strategy=PageStrategy.BROWSER_COMPLEX)
    session, box = toolbox_for(pricing, {"pages": {"http://x.com/": text}}, config=cfg)

    first = box.dispatch(Action(ActionName.OPEN_URL, {"url": "http://x.com/"}))
    assert first.startswith("[http://x.com/ | viewport 1/2]")
    down = box.dispatch(Action(ActionName.PAGE_DOWN, {}))
    assert "viewport 2/2" in down
    again = box.dispatch(Action(ActionName.PAGE_DOWN, {}))
    assert again.startswith("Already at the last viewport")
    up = box.dispatch(Action(ActionName.PAGE_UP, {}))
    assert "viewport 1/2" in up


def test_toolbox_extracts_a_page_opened_twice_once(tmp_path, pricing, monkeypatch):
    from agentmeter.trace import TraceWriter, read_trace
    from conftest import make_toolbox

    real_extract = tools.extract_static_text
    extracted = []
    monkeypatch.setattr(
        tools, "extract_static_text", lambda html, *a: extracted.append(html) or real_extract(html, *a)
    )
    fetched = []

    class CountingFetcher(FixtureFetcher):
        def fetch(self, url):
            fetched.append(url)
            return super().fetch(url)

    def open_twice(name, bypass_memo):
        writer = TraceWriter(tmp_path / name)
        writer.header("r", "t", {}, "0" * 8, {})
        session = make_session(ScriptedBackend([]), pricing, trace=writer)
        box = make_toolbox(session)
        box.fetcher = CountingFetcher({"http://x.com/": "<p>same page</p>"})
        first = box.dispatch(Action(ActionName.OPEN_URL, {"url": "http://x.com/"}))
        if bypass_memo:
            box._page_texts.clear()
        assert box.dispatch(Action(ActionName.OPEN_URL, {"url": "http://x.com/"})) == first
        writer.close()
        return (tmp_path / name).read_bytes()

    memoized = open_twice("memo.trace", bypass_memo=False)
    assert (len(fetched), len(extracted)) == (2, 1)
    events = [e for e in read_trace(tmp_path / "memo.trace").events if e["type"] == "tool_call"]
    assert len(events) == 2 and events[0] == events[1]
    assert events[0]["tool"] == "fetch_page"
    assert open_twice("bypass.trace", bypass_memo=True) == memoized
    assert (len(fetched), len(extracted)) == (4, 3)


def test_toolbox_paging_requires_complex_strategy_and_open_page(pricing):
    _, box = toolbox_for(pricing, {"pages": {}})
    assert "complex browser strategy" in box.dispatch(Action(ActionName.PAGE_DOWN, {}))
    cfg = dataclasses.replace(default_config(), page_strategy=PageStrategy.BROWSER_COMPLEX)
    _, box = toolbox_for(pricing, {"pages": {}}, config=cfg)
    assert "No page is open" in box.dispatch(Action(ActionName.PAGE_DOWN, {}))


def test_toolbox_open_url_failure_is_an_observation(pricing):
    _, box = toolbox_for(pricing, {"pages": {}})
    out = box.dispatch(Action(ActionName.OPEN_URL, {"url": "http://gone.com/"}))
    assert out.startswith("Could not open http://gone.com/")
    assert "needs a url" in box.dispatch(Action(ActionName.OPEN_URL, {}))


def test_toolbox_read_attachment(tmp_path, pricing):
    doc = tmp_path / "notes.txt"
    doc.write_text("Mass: 740 kg", encoding="utf-8")
    _, box = toolbox_for(pricing, {"attachments": {"notes.txt": str(doc)}})

    named = box.dispatch(Action(ActionName.READ_ATTACHMENT, {"name": "notes.txt"}))
    assert named == "[attachment notes.txt]\nMass: 740 kg"
    # a single attachment is the implicit default
    assert box.dispatch(Action(ActionName.READ_ATTACHMENT, {})) == named
    missing = box.dispatch(Action(ActionName.READ_ATTACHMENT, {"name": "other.txt"}))
    assert "No attachment named 'other.txt'" in missing
    assert "notes.txt" in missing


def test_toolbox_rejects_non_tool_actions(pricing):
    _, box = toolbox_for(pricing, {"pages": {}})
    out = box.dispatch(Action(ActionName.FINAL_ANSWER, {"answer": "x"}))
    assert "not a tool action" in out
