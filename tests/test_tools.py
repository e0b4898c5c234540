import dataclasses
import json
import random
import sys
import threading
import time
import typing
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmeter.actions import Action, ActionName
from agentmeter.backend import Purpose, ScriptEntry, ScriptedBackend
from agentmeter import tools
from agentmeter.config import PageStrategy, default_config
from agentmeter.tools import (
    ATTACHMENT_MAX_CHARS,
    CRAWLER_MAX_CHARS,
    VIEWPORT_CHARS,
    BrowserState,
    FixtureFetcher,
    FixtureSearchProvider,
    PageView,
    SearchProvider,
    SearchResult,
    TransportError,
    expand_queries,
    extract_static_text,
    fetch_page,
    normalize_url,
    page_text,
    paginate,
    parse_query_list,
    render_view,
    search,
)

from conftest import BENCH, count_extractions, make_session
from reference_page_text import reference_extract


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


def test_the_memoized_url_key_is_the_uncached_one():
    urls = ["HTTPS://Example.ORG/Path?q=1#frag", "http://B.com/1#x", "http://b.com/1",
            "  http://a.com/2  ", "\thttps://C.org/0#x\n", "/relative/3", "relative#x", "",
            "ftp://a.com/x", "http:///path", "http://", " HTTP://A.com/y"]
    for url in urls * 2:  # the second round is served from the cache
        absolute = tools._is_absolute_http(url)
        assert tools._merge_key(url) == (normalize_url(url) if absolute else None)
    assert tools._merge_key.cache_info().maxsize == tools.URL_KEYS_CACHED


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


class BarrierProvider(SearchProvider):
    """Answers only once every request of the search has arrived."""

    def __init__(self, name, barrier):
        self.name = name
        self.barrier = barrier

    def search(self, query, limit):
        self.barrier.wait()
        return [SearchResult(query, f"http://{self.name}.com/{query}", "", self.name, 1)]


def test_a_search_has_all_its_requests_in_flight_at_once():
    queries = [f"q{i}" for i in range(5)]
    barrier = threading.Barrier(5 * 5, timeout=5)  # one after another, the first times out
    engines = [BarrierProvider(f"e{j}", barrier) for j in range(5)]
    assert len(queries) * len(engines) <= tools.SEARCH_REQUESTS_IN_FLIGHT
    out = search(engines, queries)
    assert [(r.title, r.provider) for r in out] == [(q, e.name) for q in queries for e in engines]


class SleepyProvider(FixtureSearchProvider):
    """A fixture engine whose every answer takes its own seeded time."""

    def __init__(self, name, responses, rng, fails_on=()):
        super().__init__(name, responses)
        self.sleeps = {query: rng.uniform(0, 0.01) for query in responses}
        self.fails_on = fails_on

    def search(self, query, limit):
        time.sleep(self.sleeps.get(query, 0))
        if query in self.fails_on:
            raise RuntimeError(f"{self.name} down")
        return super().search(query, limit)


def serial_search(providers, queries, limit):
    """The merge one request at a time: rows and warnings in (query, provider) order."""
    merged, seen, warnings = [], set(), []
    for query in queries:
        for engine in providers:
            try:
                rows = engine.search(query, limit)
            except Exception as exc:
                warnings.append(f"provider {engine.name} failed for {query!r}: {exc}")
                continue
            for row in rows:
                if not tools._is_absolute_http(row.url):
                    warnings.append(f"provider {engine.name} returned non-absolute url {row.url!r}")
                elif normalize_url(row.url) not in seen:
                    seen.add(normalize_url(row.url))
                    merged.append(row)
    return merged, warnings


@pytest.mark.parametrize("seed", range(4))
def test_a_concurrent_search_merges_as_a_serial_one(seed, caplog):
    rng = random.Random(seed)
    queries = [f"q{i}" for i in range(4)]
    urls = [f"http://site{i}.com/p" for i in range(12)] + ["/relative", "HTTP://SITE3.com/p#x"]

    def responses():
        return {q: [(f"t{rng.randrange(99)}", rng.choice(urls), "s") for _ in range(5)]
                for q in queries}

    engines = [SleepyProvider(f"e{j}", responses(), rng) for j in range(4)]
    engines.insert(2, SleepyProvider("flaky", responses(), rng, fails_on={"q1", "q3"}))
    expected, warnings = serial_search(engines, queries, 3)
    with caplog.at_level("WARNING", logger="agentmeter.tools"):
        assert search(engines, queries, per_query_limit=3) == expected
    assert [r.getMessage() for r in caplog.records] == warnings
    assert "provider flaky failed for 'q1': flaky down" in warnings


POOL = tools._SEARCH_POOL  # the real one, to which HeldBackPool hands the helpers


class HeldBackPool:
    """The search pool, counting hand-offs and starting each helper only once
    ``release`` is set and ``delay`` has passed; ``entered`` counts the
    helpers that began their part of a wave."""

    def __init__(self, release, delay=0.0):
        self.release = release
        self.delay = delay
        self.submits = 0
        self.entered = 0

    def submit(self, fn):
        self.submits += 1

        def helper():
            self.release.wait(timeout=5)
            time.sleep(self.delay)
            self.entered += 1
            fn()

        return POOL.submit(helper)


class RecordingProvider(FixtureSearchProvider):
    """A fixture engine that notes the thread of every request and calls
    ``after(number of requests so far)`` once it has answered."""

    def __init__(self, name, responses, calls, after=lambda count: None):
        super().__init__(name, responses)
        self.calls = calls
        self.after = after

    def search(self, query, limit):
        rows = super().search(query, limit)
        self.calls.append(threading.get_ident())
        self.after(len(self.calls))
        return rows


def test_engines_that_answer_at_once_run_on_the_calling_thread(monkeypatch):
    release = threading.Event()
    pool = HeldBackPool(release, delay=0.05)
    monkeypatch.setattr(tools, "_SEARCH_POOL", pool)
    queries = [f"q{i}" for i in range(4)]
    rows = {q: [(q, f"http://{q}.com/", "s")] for q in queries}
    calls = []
    engines = [RecordingProvider(f"e{j}", rows, calls, lambda count: count % 20 or release.set())
               for j in range(5)]
    for n in range(1, 4):
        release.clear()
        assert [r.url for r in search(engines, queries)] == [f"http://{q}.com/" for q in queries]
        # one hand-off a search, and it returned only after its helper had come and gone
        assert (pool.submits, pool.entered) == (n, n)
    assert calls == [threading.get_ident()] * 60


def test_a_search_returns_with_no_engine_call_in_flight():
    active, threads = [], set()
    lock = threading.Lock()

    class Slow(FixtureSearchProvider):
        def search(self, query, limit):
            with lock:
                active.append(query)
                threads.add(threading.get_ident())
            time.sleep(0.005)
            with lock:
                active.remove(query)
            return super().search(query, limit)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            engines = [Slow(f"e{j}", {}) for j in range(5)]
            assert search(engines, [f"q{i}" for i in range(4)]) == []
            assert active == []
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) > 1  # engines that block go out on helpers


class Halt(BaseException):
    pass


def test_an_engines_base_exception_reaches_the_caller_when_run_inline():
    calls = []

    def halt(count):
        raise Halt("stop")

    with pytest.raises(Halt, match="stop"):
        search([RecordingProvider("e", {}, calls, halt)], ["q"])
    assert calls == [threading.get_ident()]


def test_an_engines_base_exception_reaches_the_caller_when_run_on_a_helper():
    second_asked = threading.Event()
    threads = {}

    class HaltsSecond(SearchProvider):
        name = "halts"

        def search(self, query, limit):
            threads[query] = threading.get_ident()
            if query == "q0":  # the caller holds the first until a helper has the second
                second_asked.wait(timeout=5)
                return []
            second_asked.set()
            raise Halt(query)

    with pytest.raises(Halt, match="q1"):
        search([HaltsSecond()], ["q0", "q1"])
    assert threads["q0"] == threading.get_ident() != threads["q1"]


def test_a_gateway_less_engine_warns_once_under_concurrency(monkeypatch, caplog):
    class SlowSet(set):
        def __contains__(self, item):
            found = super().__contains__(item)
            time.sleep(0.01)  # widens the gap between the check and the add
            return found

    monkeypatch.delenv(tools.SERP_GATEWAY_ENV, raising=False)
    monkeypatch.setattr(tools.SerpGatewayProvider, "_warned", SlowSet())
    engine = tools.SerpGatewayProvider("bing")
    start = threading.Barrier(10)
    results = []

    def run():
        start.wait(timeout=10)
        results.append(search([engine], ["q"]))

    threads = [threading.Thread(target=run) for _ in range(10)]
    with caplog.at_level("WARNING", logger="agentmeter.tools"):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    assert results == [[]] * 10
    assert [r.getMessage() for r in caplog.records] == [
        f"no SERP gateway configured ({tools.SERP_GATEWAY_ENV}); bing returns no results"
    ]


class LiveResponse:
    status_code = 200

    def __init__(self, body):
        self._body = body

    def raise_for_status(self):
        pass

    def json(self):
        return self._body


def test_a_malformed_live_row_fails_its_engine_and_search_goes_on(monkeypatch, caplog):
    import requests

    def get(url, params, timeout, headers=None):
        if url == tools.WIKIPEDIA_API:  # opensearch: query, titles, descriptions, urls
            return LiveResponse(["q", [{"t": 1}], ["d"], ["http://w.org/"]])
        rows = {"google": [{"title": "t", "url": 5}], "bing": [{"url": "http://b.com/"}]}
        return LiveResponse(rows[params["provider"]])

    monkeypatch.setattr(requests, "get", get)
    monkeypatch.setenv(tools.SERP_GATEWAY_ENV, "http://gateway.test/")
    engines = [tools.SerpGatewayProvider("google"), tools.WikipediaProvider(),
               tools.SerpGatewayProvider("bing"), provider("ok", {"q": [("T", "http://x.com/", "s")]})]
    with caplog.at_level("WARNING", logger="agentmeter.tools"):
        out = search(engines, ["q"])
    # a gateway row without title or snippet reads them as ""
    assert [(r.provider, r.title, r.url, r.snippet) for r in out] == [
        ("bing", "", "http://b.com/", ""), ("ok", "T", "http://x.com/", "s"),
    ]
    assert [r.getMessage() for r in caplog.records] == [
        "provider google failed for 'q': row 1 field url is missing or invalid: 5",
        "provider wikipedia failed for 'q': row 1 field title is missing or invalid: {'t': 1}",
    ]


def test_duckduckgo_unescapes_scraped_titles_and_urls(monkeypatch):
    import requests

    page = (
        '<a rel="nofollow" class="result__a" href="https://example.com/a?x=1&amp;y=2">'
        "Tom &amp; Jerry &#x27;s <b>show</b></a>\n"
        '<a rel="nofollow" class="result__a" '
        'href="//duckduckgo.com/l/?uddg=https%3A%2F%2Fexample.org%2Fb%3Fp%3D1%26q%3D2&amp;rut=abc">'
        "&lt;b&gt; is bold</a>\n"
        '<a rel="nofollow" class="result__a" href="https://example.net/">third</a>'
    )
    seen = []

    def get(url, params, timeout, headers=None):
        seen.append((url, params))
        return http_response(200, page.encode(), "text/html")

    monkeypatch.setattr(requests, "get", get)
    out = tools.DuckDuckGoProvider().search("tom", limit=2)
    assert seen == [("https://html.duckduckgo.com/html/", {"q": "tom"})]
    assert [(r.rank, r.title, r.url) for r in out] == [
        (1, "Tom & Jerry 's show", "https://example.com/a?x=1&y=2"),
        # a redirect's target comes from uddg=; an escaped tag in a title is text
        (2, "<b> is bold", "https://example.org/b?p=1&q=2"),
    ]


def test_concurrent_fetches_from_one_host_keep_the_delay(monkeypatch):
    import requests

    class Page:
        status_code = 200
        headers = {"Content-Type": "text/html"}
        text = "<p>x</p>"
        content = b"<p>x</p>"

    gets, waits = [], []
    monkeypatch.setattr(requests, "get", lambda url, params, timeout, headers: gets.append(url) or Page())
    # a clock that stands still: each wait is the whole gap its fetch keeps
    clock = SimpleNamespace(monotonic=lambda: 100.0, sleep=waits.append)
    monkeypatch.setattr(tools, "time", clock)
    fetcher = tools.HttpFetcher()
    start = threading.Barrier(8)

    def fetch():
        start.wait(timeout=10)
        fetcher.fetch("http://x.com/page")

    threads = [threading.Thread(target=fetch) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(gets) == 8
    assert sorted(waits) == [tools.FETCH_DELAY_S * i for i in range(1, 8)]


def test_two_fetchers_keep_the_delay_between_them(monkeypatch):
    # a sweep builds a fetcher per value; the host's slots are the process's
    import requests

    class Page:
        status_code = 200
        headers = {"Content-Type": "text/html"}
        text = "<p>x</p>"
        content = b"<p>x</p>"

    waits = []
    monkeypatch.setattr(requests, "get", lambda url, params, timeout, headers: Page())
    monkeypatch.setattr(tools, "time", SimpleNamespace(monotonic=lambda: 100.0, sleep=waits.append))
    first, second = tools.HttpFetcher(), tools.HttpFetcher()
    first.fetch("http://x.com/a")
    second.fetch("http://x.com/b")
    second.fetch("http://y.com/")  # another host has a slot free
    first.fetch("http://x.com/c")
    assert waits == [tools.FETCH_DELAY_S, 2 * tools.FETCH_DELAY_S]


def http_response(status: int, body: bytes, content_type: str):
    """A ``requests.Response`` whose encoding is set as the HTTP adapter sets it."""
    import requests

    resp = requests.Response()
    resp.status_code = status
    resp.headers["Content-Type"] = content_type
    resp._content = body
    resp.encoding = requests.utils.get_encoding_from_headers(resp.headers)
    return resp


# every live adapter: how it is built, the URL it requests, a body it reads
LIVE_ADAPTERS = {
    "wikipedia": (tools.WikipediaProvider, tools.WIKIPEDIA_API, b'["q", [], [], []]'),
    "duckduckgo": (tools.DuckDuckGoProvider, "https://html.duckduckgo.com/html/", b"<p></p>"),
    "gateway": (lambda: tools.SerpGatewayProvider("bing"), "http://gateway.test/", b"[]"),
    "fetcher": (tools.HttpFetcher, "http://x.com/p", b"<p>x</p>"),
}


def live_request(adapter: str, monkeypatch, status: int):
    """Run the adapter once against a stub ``requests.get`` answering
    ``status``; the search's results or the fetched page, and the requests sent."""
    import requests

    build, url, body = LIVE_ADAPTERS[adapter]
    sent = []

    def get(target, params=None, timeout=None, headers=None):
        sent.append((target, headers))
        return http_response(status, body, "text/html")

    monkeypatch.setattr(requests, "get", get)
    monkeypatch.setenv(tools.SERP_GATEWAY_ENV, "http://gateway.test/")
    live = build()
    if isinstance(live, tools.HttpFetcher):
        return live.fetch(url), sent
    return search([live], ["q"]), sent


@pytest.mark.parametrize("adapter", LIVE_ADAPTERS)
def test_every_live_request_sends_the_user_agent(adapter, monkeypatch, caplog):
    with caplog.at_level("WARNING", logger="agentmeter.tools"):
        out, sent = live_request(adapter, monkeypatch, 200)
    assert sent == [(LIVE_ADAPTERS[adapter][1], {"User-Agent": tools.USER_AGENT})]
    assert out == ("<p>x</p>" if adapter == "fetcher" else [])
    assert caplog.records == []


@pytest.mark.parametrize("adapter", LIVE_ADAPTERS)
def test_a_status_other_than_200_fails_every_live_request(adapter, monkeypatch, caplog):
    url = LIVE_ADAPTERS[adapter][1]
    if adapter == "fetcher":
        with pytest.raises(TransportError) as err:
            live_request(adapter, monkeypatch, 503)
        assert str(err.value) == f"HTTP 503 for {url}"
        return
    with caplog.at_level("WARNING", logger="agentmeter.tools"):
        out, _ = live_request(adapter, monkeypatch, 503)
    name = LIVE_ADAPTERS[adapter][0]().name
    assert out == []
    assert [r.getMessage() for r in caplog.records] == [
        f"provider {name} failed for 'q': HTTP 503 for {url}"
    ]


@pytest.mark.parametrize(
    "content_type, body, text",
    [
        # no charset named: a UTF-8 body is read as UTF-8 ...
        ("text/html", "<p>café</p>".encode(), "<p>café</p>"),
        ("text/plain", "<p>café</p>".encode(), "<p>café</p>"),
        # ... and any other as requests reads it, ISO-8859-1
        ("text/html", "<p>café</p>".encode("latin-1"), "<p>café</p>"),
        # a named charset is the one used
        ("text/html; charset=ISO-8859-1", "<p>café</p>".encode(), "<p>cafÃ©</p>"),
        ("text/html; charset=utf-8", "<p>café</p>".encode(), "<p>café</p>"),
    ],
)
def test_a_fetched_page_without_a_charset_reads_as_utf8(content_type, body, text, monkeypatch):
    import requests

    resp = http_response(200, body, content_type)
    monkeypatch.setattr(requests, "get", lambda url, **kwargs: resp)
    assert tools.HttpFetcher().fetch("http://x.com/p") == text


@pytest.mark.parametrize(
    "content_type, title",
    [("text/html", "café"), ("text/html; charset=ISO-8859-1", "cafÃ©")],
)
def test_a_duckduckgo_page_without_a_charset_reads_as_utf8(content_type, title, monkeypatch):
    import requests

    body = '<a class="result__a" href="https://example.com/">café</a>'.encode()
    resp = http_response(200, body, content_type)
    monkeypatch.setattr(requests, "get", lambda url, **kwargs: resp)
    assert [r.title for r in tools.DuckDuckGoProvider().search("q", limit=1)] == [title]


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


def test_extract_handles_malformed_markup():
    # unterminated junk must not raise
    assert isinstance(extract_static_text("<p><a href='x'>oops"), str)


def test_unreadable_marked_section_ends_the_text_where_html_parser_stops():
    # html.parser raises AssertionError at "<![" with an unknown keyword
    html = "<p>kept</p><![bogus[ x ]]><p>dropped</p>"
    assert extract_static_text(html) == reference_extract(html) == "kept"


_HTML_FRAGMENTS = st.one_of(
    st.sampled_from([
        "<p>", "</p>", "<h2>", "</h2>", "<li>", "<br>", "<br/>", "<hr/>", "<div>", "</div>",
        "<a href='http://x.com/'>", "<a>", "</a>", "<script>var x = '<p>';</script>",
        "<style>p{}</style>", "<script>", "</style>", "&amp;", "&#160;", "&nbsp;", "&#x85;",
        "&", "&am", "<", "< p", "\x1c", "\x85", "\xa0", " ", "\r\n", "\n",
        # malformed and unusual markup, where html.parser's own rules decide
        "<P>", "</P >", "<H1 CLASS=x>", "<A HREF='u&amp;v'>", "</A>", "<SCRIPT>", "</SCRIPT>",
        "<a href=x/>", "<a href=x/ >", "<br clear=all/>", "<a b c='d'e>", "<a b = 'c'>",
        "<a\x00>", "<p\x0b>", "<a\xa0href='u'>", "<a<b>", "<a ", "<a b='", '<a b="<p>',
        "</", "</>", "</ p>", "</p x>", "</script foo>", "</ script >", "<script>a</b>c</script foo>d</",
        "<!--", "<!-- c -->", "<!-->", "-->", "--!>", "<?", "<?pi>", "<!", "<!x>", "<!doctype html>",
        "<!DOCTYPE", "<![CDATA[x]]>", "<![CDATA[", "<![if IE]>", "<![endif]>", "<![bogus", "]]>",
        "&amp", "&lt", "&#38", "&#x26", "&nbsp", "&copy2", "<noscript>", "</noscript>",
    ]),
    st.builds(lambda word, n: (word + " ") * n, st.sampled_from(["word", "w\xa0x", "y\x1c"]),
              st.integers(min_value=1, max_value=1500)),
    st.text(alphabet="ab <>&;/\n", max_size=20),
    st.text(alphabet="<a b=c'\"/>!-?[]\x0b", max_size=20),
)
_HTML = st.lists(_HTML_FRAGMENTS, max_size=40).map("".join)


# the examples come from the hypothesis profile: 2,000 in CI (conftest.py)
@settings(deadline=None)
@given(_HTML)
def test_extraction_matches_pinned_html_parser(html):
    assert extract_static_text(html) == reference_extract(html)


@pytest.mark.parametrize("name", sorted(p.name for p in (BENCH / "pages").iterdir()) + ["golden"])
def test_extraction_matches_pinned_html_parser_on_fixture_pages(name):
    html = GOLDEN_HTML if name == "golden" else (BENCH / "pages" / name).read_text(encoding="utf-8")
    full = reference_extract(html)
    assert extract_static_text(html) == full
    assert page_text(html) == (full[:CRAWLER_MAX_CHARS], len(full) > CRAWLER_MAX_CHARS)


_UNCLOSED_UNITS = ["<!--a>", "<a"]
_TAG_DENSE_UNITS = ["<p class='x'>w</p>", "<a href='u'>w</a>", "<td>1</td>", "<br/>x"]


@pytest.mark.parametrize("unit", _UNCLOSED_UNITS + _TAG_DENSE_UNITS)
def test_unclosed_markup_extracts_in_linear_time(unit):
    small = unit * (4096 // len(unit))
    # the reference searches to the end of the page for every unclosed unit,
    # so only a small page
    small_text = extract_static_text(small)
    assert small_text == reference_extract(small)
    html = unit * (256 * 1024 // len(unit))
    start = time.perf_counter()
    text, truncated = page_text(html)
    elapsed = time.perf_counter() - start
    assert text.startswith(small_text)
    if unit in _UNCLOSED_UNITS:
        # html.parser passes unclosed markup on as text
        assert small_text == small
        assert (text, truncated) == (html[:CRAWLER_MAX_CHARS], True)
    assert elapsed < 2.0


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
    writer.header({"run_id": "r"})
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


class CountingProvider(FixtureSearchProvider):
    """A fixture engine that keeps each query it is asked."""

    def __init__(self, name, responses):
        super().__init__(name, responses)
        self.asked = []
        self._lock = threading.Lock()

    def search(self, query, limit):
        with self._lock:
            self.asked.append(query)
        return super().search(query, limit)


def test_a_search_asks_each_engine_once_per_distinct_query(tmp_path, pricing):
    from agentmeter.trace import TraceWriter, read_trace

    from conftest import make_toolbox

    # one expansion, padded with the question to four queries
    cfg = dataclasses.replace(default_config(), query_expansion_count=4)
    writer = TraceWriter(tmp_path / "t.trace")
    writer.header({"run_id": "r"})
    session = make_session(ScriptedBackend(search_script()), pricing, trace=writer)
    rows = {"acme history": [("Acme", "http://acme.com/", "s")],
            "acme": [("Acme", "http://acme.com/", "s"), ("Roadrunner", "http://rr.com/", "s")]}
    engines = [CountingProvider("one", rows), CountingProvider("two", rows)]
    out = make_toolbox(session, config=cfg, providers=engines).dispatch(
        Action(ActionName.SEARCH, {"query": "acme"})
    )
    writer.close()
    for engine in engines:
        assert sorted(engine.asked) == ["acme", "acme history"]
    assert "Search results (2):" in out
    # the trace keeps the padded list, so recordings and replays are unchanged
    event = [e for e in read_trace(tmp_path / "t.trace").events if e["type"] == "tool_call"][0]
    assert event["args"]["queries"] == ["acme history", "acme", "acme", "acme"]


class ResultKeepingBackend(ScriptedBackend):
    """A scripted backend that keeps what each tool thunk returned."""

    def __init__(self, entries):
        super().__init__(entries)
        self.results = []

    def run_tool(self, tool, args, thunk):
        result = super().run_tool(tool, args, thunk)
        self.results.append(result)
        return result


def random_providers(rng, queries):
    """One to three providers shaped as in the release gate's merge check:
    mixed-case hosts, fragments, both schemes, repeated URLs, and a relative
    URL one row in ten."""
    providers = []
    for p in range(rng.randint(1, 3)):
        responses = {}
        for query in queries:
            rows = []
            for r in range(rng.randint(0, 5)):
                host = rng.choice(["a.com", "B.com", "c.org"])
                scheme = rng.choice(["http", "https"])
                frag = rng.choice(["", "#x"])
                url = f"{scheme}://{host}/{rng.randint(0, 3)}{frag}"
                if rng.randint(0, 9) == 0:
                    url = f"/relative/{rng.randint(0, 3)}"
                rows.append((f"t{r}", url, "s"))
            responses[query] = rows
        providers.append(provider(f"p{p}", responses))
    return providers


def test_recorded_search_rows_are_the_dataclass_rows(tmp_path, pricing):
    from agentmeter.trace import TraceWriter, read_trace
    from conftest import make_toolbox

    queries = ["q0", "q1", "q2"]
    cfg = dataclasses.replace(default_config(), query_expansion_count=len(queries))
    field_types = typing.get_type_hints(tools.SearchResult)
    rng = random.Random(7)
    recorded = 0
    for trial in range(25):
        providers = random_providers(rng, queries)
        backend = ResultKeepingBackend([ScriptEntry(
            Purpose.QUERY_EXPANSION, "1. q0\n2. q1\n3. q2", times=0,
            prompt_tokens=10, completion_tokens=5,
        )])
        writer = TraceWriter(tmp_path / f"{trial}.trace")
        writer.header({"run_id": "r"})
        box = make_toolbox(make_session(backend, pricing, trace=writer), cfg, providers)
        box.dispatch(Action(ActionName.SEARCH, {"query": "q"}))
        writer.close()

        oracle = [dataclasses.asdict(r) for r in search(providers, queries)]
        [rows] = backend.results
        assert rows == oracle
        for row in rows:
            assert list(row) == list(field_types)
            assert {name: type(value) for name, value in row.items()} == field_types
        [event] = [e for e in read_trace(tmp_path / f"{trial}.trace").events
                   if e["type"] == "tool_call"]
        assert event["result"] == oracle
        recorded += len(rows)
    assert recorded > 0


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

    extracted = count_extractions(monkeypatch)
    fetched = []

    class CountingFetcher(FixtureFetcher):
        def fetch(self, url):
            fetched.append(url)
            return super().fetch(url)

    def open_twice(name, bypass_memo):
        writer = TraceWriter(tmp_path / name)
        writer.header({"run_id": "r"})
        session = make_session(ScriptedBackend([]), pricing, trace=writer)
        box = make_toolbox(session)
        box.fetcher = CountingFetcher({"http://x.com/": "<p>same page</p>"})
        if bypass_memo:
            tools.PAGE_TEXTS.clear()
        first = box.dispatch(Action(ActionName.OPEN_URL, {"url": "http://x.com/"}))
        if bypass_memo:
            tools.PAGE_TEXTS.clear()
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


def test_two_runs_opening_one_page_extract_it_once(pricing, monkeypatch):
    from conftest import make_toolbox

    extracted = count_extractions(monkeypatch)
    pages = {"http://x.com/": "<h1>Shared</h1><p>one page, two runs</p>"}
    views = []
    for run_id in ("r1", "r2"):
        box = make_toolbox(make_session(ScriptedBackend([]), pricing, run_id=run_id), pages=pages)
        views.append(box.dispatch(Action(ActionName.OPEN_URL, {"url": "http://x.com/"})))
    assert views[0] == views[1] and "# Shared" in views[0]
    assert extracted == [pages["http://x.com/"]]


def test_page_cache_evicts_the_least_recently_used_page_past_its_bound(monkeypatch):
    extracted = count_extractions(monkeypatch)
    a, b, c = ("<p>" + k * 40 + "</p>" for k in "abc")
    size = sys.getsizeof(a) + sys.getsizeof("a" * 40)  # HTML plus text of one page
    monkeypatch.setattr(tools.PAGE_TEXTS, "max_bytes", 2 * size)
    page_text(a)
    page_text(b)
    page_text(a)  # a is now the most recently used
    assert len(extracted) == 2
    page_text(c)  # past the bound: b goes, a and c stay
    page_text(a)
    page_text(c)
    assert extracted == [a, b, c]
    page_text(b)
    assert extracted == [a, b, c, b]


def test_page_cache_bound_counts_bytes_not_characters(monkeypatch):
    extracted = count_extractions(monkeypatch)
    narrow, wide = ("<p>" + k * 1000 + "</p>" for k in ("a", "\U0001F600"))
    assert len(narrow) == len(wide)
    monkeypatch.setattr(tools.PAGE_TEXTS, "max_bytes", 2 * (len(narrow) + 1000) + 200)
    page_text(narrow)
    page_text(narrow)
    assert extracted == [narrow]
    page_text(wide)  # 4 bytes a character: over the bound on its own
    page_text(wide)
    assert extracted == [narrow, wide, wide]


def test_a_page_extracted_by_two_threads_at_once_is_held_once(monkeypatch):
    import threading

    real_extract = tools.extract_static_text
    extracted, results = [], []
    second_done = threading.Event()
    html = "<p>new page</p>"

    def extract_in_turn(page):
        extracted.append(page)
        if len(extracted) == 1:  # a second reader misses the cache while this one extracts
            second.start()
            second_done.wait(5)
        text = real_extract(page)
        if len(extracted) == 2:
            second_done.set()
        return text

    monkeypatch.setattr(tools, "extract_static_text", extract_in_turn)
    second = threading.Thread(target=lambda: results.append(page_text(html)))
    results.append(page_text(html))
    second.join()
    assert results == [("new page", False)] * 2 and extracted == [html, html]
    assert tools.PAGE_TEXTS._bytes == sys.getsizeof(html) + sys.getsizeof("new page")
    page_text(html)
    assert len(extracted) == 2


def test_page_cache_holds_a_texts_json_in_its_budget_and_drops_it_with_its_page():
    cache = tools.PageTextCache(max_bytes=10**6)
    encoded = []

    def encode(text):
        encoded.append(text)
        return json.dumps(text)

    a, b = ("<p>" + k * 400 + "</p>" for k in "ab")
    text_a, _ = cache.get(a)
    text_b, _ = cache.get(b)
    pages = cache._bytes
    assert pages == sum(map(sys.getsizeof, (a, text_a, b, text_b)))
    made = cache.text_json(text_a, encode)
    assert made == json.dumps(text_a) and cache._bytes == pages + sys.getsizeof(made)
    assert cache.text_json(text_a, encode) is made and encoded == [text_a]
    # b's JSON takes the budget past its bound, so a, the least recently used, goes with its JSON
    cache.max_bytes = cache._bytes + 1
    cache.text_json(text_b, encode)
    assert cache._bytes == sum(map(sys.getsizeof, (b, text_b, json.dumps(text_b))))
    assert cache.text_json(text_a, encode) is None and encoded == [text_a, text_b]
    cache.get(b)
    assert cache.text_json(text_b, encode) == json.dumps(text_b) and len(encoded) == 2


def test_a_text_the_page_cache_does_not_hold_gets_no_json_and_is_not_kept():
    cache = tools.PageTextCache(max_bytes=10**6)
    text, _ = cache.get("<p>held</p>")
    held = cache._bytes
    for _ in range(2):
        assert cache.text_json("not held", pytest.fail) is None
        assert cache._bytes == held
    assert cache.text_json(text, json.dumps) == '"held"'


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


def test_toolbox_read_attachment_truncates_past_the_limit(tmp_path, pricing):
    at_limit = tmp_path / "at_limit.txt"
    at_limit.write_text("a" * ATTACHMENT_MAX_CHARS, encoding="utf-8")
    over = tmp_path / "over.txt"
    over.write_text("b" * ATTACHMENT_MAX_CHARS + "c", encoding="utf-8")
    attachments = {"at_limit.txt": str(at_limit), "over.txt": str(over)}
    _, box = toolbox_for(pricing, {"attachments": attachments})

    kept = box.dispatch(Action(ActionName.READ_ATTACHMENT, {"name": "at_limit.txt"}))
    assert kept == "[attachment at_limit.txt]\n" + "a" * ATTACHMENT_MAX_CHARS
    cut = box.dispatch(Action(ActionName.READ_ATTACHMENT, {"name": "over.txt"}))
    assert cut == "[attachment over.txt]\n" + "b" * ATTACHMENT_MAX_CHARS + "\n[attachment truncated]"


def test_toolbox_rejects_non_tool_actions(pricing):
    _, box = toolbox_for(pricing, {"pages": {}})
    out = box.dispatch(Action(ActionName.FINAL_ANSWER, {"answer": "x"}))
    assert "not a tool action" in out
