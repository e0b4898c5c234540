"""Web information tools: query expansion, multi-engine search, page reading.

Search fans each expanded query out to every engine in the configured
source set. The calling thread runs the requests of its search, and
helpers on one bounded pool shared by the whole process take those of
engines that block, so those wait at once; the answers are merged in the
calling thread with URL deduplication in a fixed order, so the result list
is deterministic for deterministic providers. Each distinct
page is reduced to static text once per process (a cache shared by every
run and worker, bounded by size) and cut at the crawler limit; the three
page strategies differ only in how much of that text a single
observation exposes and whether the agent may scroll.

Live engine adapters degrade to empty results on failure (a dead engine
must not kill a run); fixture adapters make the whole layer offline and
byte-stable for tests and replays.
"""

from __future__ import annotations

import abc
import logging
import os
import re
import sys
import threading
import time
import urllib.parse
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from html import unescape
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .actions import Action, ActionName
from .backend import Message, Purpose
from .config import (
    AgentConfig,
    InputError,
    PageStrategy,
    SourceSet,
    json_value,
    read_fields,
    read_text,
    refused,
    typed_value,
)
from . import prompts

if TYPE_CHECKING:
    from .session import RunSession

log = logging.getLogger("agentmeter.tools")

VIEWPORT_CHARS = 8000
CRAWLER_MAX_CHARS = 40000
ATTACHMENT_MAX_CHARS = 40000
PAGE_CACHE_MAX_BYTES = 32 * 2**20  # HTML, text and text JSON held by the page-text cache
DEFAULT_PER_QUERY_LIMIT = 5
SERP_GATEWAY_ENV = "AGENTMETER_SERP_URL"
WIKIPEDIA_API = "https://en.wikipedia.org/w/api.php"
USER_AGENT = "agentmeter/0.1 (research harness)"
SEARCH_TIMEOUT_S = 15.0
FETCH_TIMEOUT_S = 30.0
FETCH_DELAY_S = 0.5  # between two live fetches from one host
URL_KEYS_CACHED = 4096  # search merge keys kept per process
# the search pool's threads: the requests of the widest preset search, 5
# queries on 5 engines (the default's is 10 on 2). Each calling thread also
# runs requests of its own search, so one search can have them all in flight
SEARCH_REQUESTS_IN_FLIGHT = 25


class ToolError(RuntimeError):
    pass


class TransportError(ToolError):
    pass


class NonHtmlError(ToolError):
    pass


class FixtureFileError(InputError, ValueError):
    """A ``--fixtures`` file that cannot be used: bad JSON, a bad row, not UTF-8."""


# -- search ------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    title: str
    url: str
    snippet: str
    provider: str
    rank: int  # 1-based position within its provider's response


def normalize_url(url: str) -> str:
    """Dedup key: lowercased scheme and host, fragment dropped."""
    parts = urllib.parse.urlsplit(url.strip())
    return urllib.parse.urlunsplit(
        (parts.scheme.lower(), parts.netloc.lower(), parts.path, parts.query, "")
    )


def _is_absolute_http(url: str) -> bool:
    parts = urllib.parse.urlsplit(url)
    return parts.scheme in ("http", "https") and bool(parts.netloc)


@lru_cache(maxsize=URL_KEYS_CACHED)
def _merge_key(url: str) -> str | None:
    """The search merge's key for a row's URL: ``normalize_url(url)``, or
    None for a URL that is not absolute http(s)."""
    return normalize_url(url) if _is_absolute_http(url) else None


class SearchProvider(abc.ABC):
    """A search engine. ``search`` is called from any thread, the searching
    thread's included, and for one engine from several threads at once."""

    name: str

    @abc.abstractmethod
    def search(self, query: str, limit: int) -> list[SearchResult]:
        raise NotImplementedError


class FixtureSearchProvider(SearchProvider):
    """Offline provider; maps a query to canned (title, url, snippet) rows."""

    def __init__(self, name: str, responses: dict[str, list[tuple[str, str, str]]]):
        self.name = name
        self._responses = dict(responses)

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureSearchProvider":
        """The provider ``fixture`` of a ``searches.json`` file, which maps each
        query to a list of ``[title, url, snippet]`` rows of strings; any other
        file raises ``FixtureFileError``."""
        raw = json_value(read_text(path, FixtureFileError), FixtureFileError,
                         f"{path}: invalid JSON: ")
        where = f"{path}: each query must map to a list of [title, url, snippet] rows: "
        return cls("fixture", refused(FixtureFileError, where, _search_rows, raw))

    def search(self, query: str, limit: int) -> list[SearchResult]:
        rows = self._responses.get(query, [])[:limit]
        # positional: keyword construction of the frozen rows is measurably slower
        return [SearchResult(t, u, s, self.name, rank) for rank, (t, u, s) in enumerate(rows, 1)]


def _search_rows(raw) -> dict[str, list[tuple[str, str, str]]]:
    """The rows of each query of a ``searches.json`` value; any other value
    raises ``ValueError``."""
    return {query: [_search_row(row) for row in typed_value(list, rows)]
            for query, rows in typed_value(dict, raw).items()}


def _search_row(row) -> tuple[str, str, str]:
    strings = tuple(typed_value(str, value) for value in typed_value(list, row))
    if len(strings) != 3:
        raise ValueError(f"{row!r} is not three strings")
    return strings


# a row of a live engine's answer; one that is not all strings fails the engine
_ROW_TYPES = {"title": str, "url": str, "snippet": str}


def _http_get(url: str, timeout_s: float, params: dict | None = None):
    """The response to a GET of ``url`` sent with ``USER_AGENT``: every live
    engine and page request goes through here. A failed request or a status
    other than 200 raises ``TransportError``."""
    import requests

    try:
        resp = requests.get(
            url, params=params, timeout=timeout_s, headers={"User-Agent": USER_AGENT}
        )
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    if resp.status_code != 200:
        raise TransportError(f"HTTP {resp.status_code} for {url}")
    return resp


def _http_text(resp) -> str:
    """The body of a live response as text: UTF-8 when valid and the response
    names no charset, since requests reads such a text/* body as ISO-8859-1."""
    if "charset" not in resp.headers.get("Content-Type", "").lower():
        try:
            return resp.content.decode("utf-8")
        except UnicodeDecodeError:
            pass
    return resp.text


def _live_row(row: dict, provider: str, rank: int, optional=()) -> SearchResult:
    values = read_fields(row, _ROW_TYPES, ToolError, f"row {rank} field ", optional)
    title, snippet = values.get("title", ""), values.get("snippet", "")
    return SearchResult(title, values["url"], snippet, provider, rank)


class WikipediaProvider(SearchProvider):
    """Wikipedia's public opensearch endpoint."""

    name = "wikipedia"

    def search(self, query: str, limit: int) -> list[SearchResult]:
        params = {"action": "opensearch", "search": query, "limit": str(limit), "format": "json"}
        body = _http_get(WIKIPEDIA_API, SEARCH_TIMEOUT_S, params).json()
        titles, descriptions, urls = body[1], body[2], body[3]
        return [
            _live_row({"title": t, "url": u, "snippet": d}, self.name, i)
            for i, (t, d, u) in enumerate(zip(titles, descriptions, urls), 1)
        ]


class DuckDuckGoProvider(SearchProvider):
    """Scrapes the HTML endpoint; best effort only."""

    name = "duckduckgo"

    _RESULT = re.compile(
        r'<a[^>]+class="result__a"[^>]+href="(?P<url>[^"]+)"[^>]*>(?P<title>.*?)</a>',
        re.S,
    )
    _TAGS = re.compile(r"<[^>]+>")

    def search(self, query: str, limit: int) -> list[SearchResult]:
        resp = _http_get("https://html.duckduckgo.com/html/", SEARCH_TIMEOUT_S, {"q": query})
        page = _http_text(resp)
        results = []
        for i, m in enumerate(self._RESULT.finditer(page)):
            if i >= limit:
                break
            # both are scraped from HTML, so their character references are undone
            url = unescape(m.group("url"))
            # ddg wraps targets in a redirect with the real url in uddg=
            redirect = urllib.parse.urlsplit(url)
            target = urllib.parse.parse_qs(redirect.query).get("uddg", [url])[0]
            title = unescape(self._TAGS.sub("", m.group("title"))).strip()
            results.append(
                SearchResult(title=title, url=target, snippet="", provider=self.name, rank=i + 1)
            )
        return results


class SerpGatewayProvider(SearchProvider):
    """Engines without a free API, reached through a user-operated gateway.

    The gateway URL comes from AGENTMETER_SERP_URL and must answer
    GET ?provider=...&q=...&limit=... with a JSON list of objects holding
    a string url and, optionally, a string title and snippet. Without a
    gateway the provider yields nothing, with a single warning per process.
    """

    _warned: set[str] = set()
    _warned_lock = threading.Lock()  # a search's requests to one engine run at once

    def __init__(self, name: str):
        self.name = name

    def search(self, query: str, limit: int) -> list[SearchResult]:
        gateway = os.environ.get(SERP_GATEWAY_ENV)
        if not gateway:
            with SerpGatewayProvider._warned_lock:
                first = self.name not in SerpGatewayProvider._warned
                SerpGatewayProvider._warned.add(self.name)
            if first:
                log.warning(
                    "no SERP gateway configured (%s); %s returns no results",
                    SERP_GATEWAY_ENV,
                    self.name,
                )
            return []
        params = {"provider": self.name, "q": query, "limit": str(limit)}
        return [
            _live_row(row, self.name, i, optional=("title", "snippet"))
            for i, row in enumerate(_http_get(gateway, SEARCH_TIMEOUT_S, params).json(), 1)
        ]


def live_providers(source_set: SourceSet) -> list[SearchProvider]:
    """Provider instances for each engine name, in source-set order."""
    built: list[SearchProvider] = []
    for name in source_set.providers:
        if name == "wikipedia":
            built.append(WikipediaProvider())
        elif name == "duckduckgo":
            built.append(DuckDuckGoProvider())
        else:
            built.append(SerpGatewayProvider(name))
    return built


# the helpers of every search, whichever run or worker makes it
_SEARCH_POOL = ThreadPoolExecutor(SEARCH_REQUESTS_IN_FLIGHT, thread_name_prefix="agentmeter-search")


class _Wave:
    """The provider requests of one search, taken in order by the calling
    thread and by the helpers handed to ``_SEARCH_POOL`` (see ``search``)."""

    def __init__(self, requests: list[tuple[SearchProvider, str]], limit: int):
        # each request's rows, or what its engine raised
        self.answers: list[tuple] = [(None, None)] * len(requests)
        self._requests = requests
        self._limit = limit
        self._next = 0  # the next request to take
        self._handed = False  # a helper is handed and has not started
        self._helpers = 0  # helpers handed and not yet gone
        self._changed = threading.Condition()

    def run(self) -> None:
        """Answer every request; return once every helper has left."""
        try:
            self._take_requests()
        finally:
            with self._changed:
                self._changed.wait_for(lambda: not self._helpers)

    def _help(self) -> None:
        with self._changed:
            self._handed = False
        try:
            self._take_requests()
        finally:
            with self._changed:
                self._helpers -= 1
                if not self._helpers:
                    self._changed.notify()

    def _take_requests(self) -> None:
        n = len(self._requests)
        while True:
            with self._changed:
                i = self._next
                if i == n:
                    return
                if not self._handed and i + 1 < n:
                    # submitted before counted, so a refused submit leaves no helper to wait for
                    _SEARCH_POOL.submit(self._help)
                    self._handed = True
                    self._helpers += 1
                self._next = i + 1
            provider, query = self._requests[i]
            try:
                self.answers[i] = provider.search(query, self._limit), None
            except BaseException as exc:  # raised again by the merge, an Exception as a warning
                self.answers[i] = None, exc
                if not isinstance(exc, Exception):  # an interrupt or exit ends the wave
                    with self._changed:
                        self._next = n


def search(
    providers: Sequence[SearchProvider],
    queries: Sequence[str],
    per_query_limit: int = DEFAULT_PER_QUERY_LIMIT,
) -> list[SearchResult]:
    """Fan out, merge, dedup.

    Every (distinct query, provider) request is asked once; a repeated
    query only at its first position. The calling thread answers the
    requests in order. Whoever takes a request, the caller or a helper,
    first hands a helper to the process's search pool, unless one handed
    for this search has not started yet. So engines that answer at once
    run here at the cost of one hand-off, and engines that block all wait
    at once. The search returns when every request is answered and every
    helper has left. The answers are merged here, in (query position,
    provider position, provider rank) order, and the first occurrence of
    a normalized URL wins. Provider failures and non-absolute URLs are
    dropped with a warning, logged in that same order; an engine's
    ``BaseException`` that is not an ``Exception`` is raised here.
    """
    if not queries:
        raise ValueError("at least one query required")
    requests = [(provider, query) for query in dict.fromkeys(queries) for provider in providers]
    wave = _Wave(requests, per_query_limit)
    wave.run()
    merged: list[SearchResult] = []
    seen: set[str] = set()
    for (provider, query), (rows, exc) in zip(requests, wave.answers):
        if exc is not None:
            if not isinstance(exc, Exception):
                raise exc
            log.warning("provider %s failed for %r: %s", provider.name, query, exc)
            continue
        for row in rows:
            key = _merge_key(row.url)
            if key is None:
                log.warning("provider %s returned non-absolute url %r", provider.name, row.url)
                continue
            if key in seen:
                continue
            seen.add(key)
            merged.append(row)
    return merged


# -- query expansion ---------------------------------------------------------

_LIST_ITEM = re.compile(r"^(?:\d+\s*[.)]\s*|[-*]\s+)(.*)$")


def parse_query_list(text: str) -> list[str]:
    numbered = []
    plain = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _LIST_ITEM.match(line)
        if m:
            numbered.append(m.group(1).strip().strip('"'))
        plain.append(line.strip('"'))
    return [q for q in (numbered or plain) if q]


def expand_queries(
    question: str, k: int, session: "RunSession", model_id: str
) -> list[str]:
    """One reformulation call, deduplicated and padded to exactly k queries."""
    if k < 1:
        raise ValueError("k must be >= 1")
    prompt = prompts.render(prompts.QUERY_EXPANSION, question=question, count=k)
    response = session.call_model(
        Purpose.QUERY_EXPANSION, model_id, (Message("user", prompt),)
    )
    parsed = parse_query_list(response.text)
    if not parsed:
        log.warning("query expansion produced nothing usable; using the question as-is")
    deduped: list[str] = []
    seen: set[str] = set()
    for query in parsed:
        folded = query.lower()
        if folded in seen:
            continue
        seen.add(folded)
        deduped.append(query)
    while len(deduped) < k:
        deduped.append(question)
    return deduped[:k]


# -- page fetching and text extraction ---------------------------------------

_SKIP_TAGS = {"script", "style", "noscript", "template"}
_HEADING_LEVEL = {f"h{i}": i for i in range(1, 7)}
_BLOCK_TAGS = {
    "p", "div", "section", "article", "aside", "header", "footer", "main",
    "nav", "li", "ul", "ol", "dl", "dt", "dd", "table", "thead", "tbody",
    "tr", "blockquote", "pre", "figure", "figcaption", "form", "hr",
} | set(_HEADING_LEVEL)

# what a start tag adds to the text
_START_TEXT = dict.fromkeys(_BLOCK_TAGS | {"br"}, "\n") | {
    tag: "\n" + "#" * level + " " for tag, level in _HEADING_LEVEL.items()
}

# what html.parser looks for to end a <script> or <style>; _PageText.run
# jumps there past the text, which is never shown. Like every pattern here
# it is compiled at import: compiled on first use inside one
# of run_benchmark's worker threads, it pinned that thread's malloc arena,
# and live_fanout peak_rss_mb rose from 73.6 to 82.1 MB.
_CDATA_END = {tag: re.compile(r"</\s*%s\s*>" % tag, re.I) for tag in ("script", "style")}

# html.parser's own patterns. Its locatestarttagend_tolerant is split in
# three: the tag name runs to the first _NAME_STOP, then _SPACE_SLASH, then
# _ATTR as often as it matches.
_STARTTAG_OPEN = re.compile("<[a-zA-Z]")
_NAME_STOP = re.compile(r"[\t\n\r\f />\x00]")
_SPACE_SLASH = re.compile(r"[\s/]*")
_ATTR = re.compile(
    r"""(?<=['"\s/])[^\s/>][^\s/=>]*(?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?(?:\s|/(?!>))*"""
)
_TAGFIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = re.compile(
    r"""((?<=['"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*"""
)
_ENDTAGFIND = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_GT = re.compile(">")
_COMMENT_END = re.compile(r"--\s*>")
_DECL_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
# the end of a "<![" marked section, by its keyword (the last three are MS Office's)
_MARKED_SECTION_END = dict.fromkeys(
    ("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")
) | dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>"))
# what may follow a start tag that html.parser takes for one cut short
_UNFINISHED_TAG_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ="


class _PageText:
    """Collects one page's raw text in ``parts``; ``extract_static_text``
    normalizes it.

    The text follows html.parser's tokenization, as CPython 3.11.7 does it
    for a whole page fed at once and then closed: ``run`` passes the text
    before each "<" through ``unescape`` and, at the "<", takes one step of
    a port of HTMLParser.goahead and the parse_* methods it calls. The port
    gives the same text on every Python; ``PAGE_TEXTS`` runs it once per
    distinct page per process.
    """

    __slots__ = ("html", "parts", "_skip", "_links", "_cdata", "_searched", "_attrs_end")

    def __init__(self, html: str) -> None:
        self.html = html
        self.parts: list[str] = []
        self._skip = 0
        self._links: list[str | None] = []
        self._cdata: str | None = None  # "script" or "style" while inside one
        self._searched: dict[re.Pattern, tuple[int, re.Match | None]] = {}
        self._attrs_end: dict[int, int] = {}  # where a start tag's attributes from here end

    def run(self) -> None:
        html, n = self.html, len(self.html)
        pos = 0
        while pos < n:
            if self._cdata is not None:
                end = _CDATA_END[self._cdata].search(html, pos)
                if end is None:
                    return  # html.parser never passes an unclosed script on
                pos = self._parse_endtag(end.start())
                continue
            lt = html.find("<", pos)
            if lt < 0:
                self.data(unescape(html[pos:]))
                return
            if pos < lt:
                self.data(unescape(html[pos:lt]))
            pos = self._step(lt)

    # -- handlers ---------------------------------------------------------

    def data(self, text: str) -> None:
        if not self._skip:
            self.parts.append(text)

    def starttag(self, tag: str, attrs: Sequence[tuple[str, str | None]]) -> None:
        if tag in _SKIP_TAGS:
            self._skip += 1
            return
        if self._skip:
            return
        text = _START_TEXT.get(tag)
        if text:
            self.parts.append(text)
        if tag == "a":
            self._links.append(dict(attrs).get("href"))

    def startendtag(self, tag: str) -> None:
        if not self._skip and tag in _START_TEXT:
            self.parts.append("\n")

    def endtag(self, tag: str) -> None:
        if tag in _SKIP_TAGS:
            self._skip = max(0, self._skip - 1)
            return
        if self._skip:
            return
        if tag == "a" and self._links:
            href = self._links.pop()
            if href:
                self.parts.append(f" ({href})")
        if tag in _BLOCK_TAGS:
            self.parts.append("\n")

    # -- html.parser, one step at a time ------------------------------------

    def _search(self, pattern: re.Pattern, pos: int) -> re.Match | None:
        """``pattern.search(html, pos)``, remembering the last answer per pattern.

        A search that finds nothing from p finds nothing from a later
        position either, and one that finds a match at q finds the same
        one from anywhere in p..q; so unclosed markup costs one search to
        the end of the page, not one per construct.
        """
        start, found = self._searched.get(pattern, (len(self.html) + 1, None))
        if not (start <= pos and (found is None or pos <= found.start())):
            found = pattern.search(self.html, pos)
            self._searched[pattern] = (pos, found)
        return found

    def _end_after(self, pattern: re.Pattern, pos: int) -> int:
        found = self._search(pattern, pos)
        return -1 if found is None else found.end()

    def _step(self, i: int) -> int:
        """One turn of goahead at the "<" at i; returns where the next starts."""
        html = self.html
        if _STARTTAG_OPEN.match(html, i):
            k = self._parse_starttag(i)
        elif html.startswith("</", i):
            k = self._parse_endtag(i)
        elif html.startswith("<!--", i):
            k = self._end_after(_COMMENT_END, i + 4)
        elif html.startswith("<?", i):
            k = self._end_after(_GT, i + 2)
        elif html.startswith("<!", i):
            k = self._parse_html_declaration(i)
        else:
            self.data("<")
            return i + 1
        if k < 0:
            # unfinished at the end of the page: data up to the next ">" or "<"
            k = self._end_after(_GT, i + 1)
            if k < 0:
                k = html.find("<", i + 1)
                if k < 0:
                    k = i + 1
            self.data(unescape(html[i:k]))
        return k

    def _parse_starttag(self, i: int) -> int:
        endpos = self._check_for_whole_start_tag(i)
        if endpos < 0:
            return endpos
        tag, k, attrs = self._attributes(i, endpos)
        end = self.html[k:endpos].strip()
        if end not in (">", "/>"):
            self.data(self.html[i:endpos])
        elif end == "/>":
            self.startendtag(tag)
        else:
            self.starttag(tag, attrs)
            if tag in _CDATA_END:
                self._cdata = tag
        return endpos

    def _check_for_whole_start_tag(self, i: int) -> int:
        html = self.html
        stop = self._search(_NAME_STOP, i + 2)
        if stop is None:
            return -1  # the tag name runs to the end of the page
        # the attributes end where they would from any position the scan
        # passes, so a tag cut short costs one scan, not one per "<" in it
        p = _SPACE_SLASH.match(html, stop.start()).end()
        passed = []
        while p not in self._attrs_end:
            attr = _ATTR.match(html, p)
            if attr is None:
                break
            passed.append(p)
            p = attr.end()
        j = self._attrs_end.get(p, p)
        for start in passed:
            self._attrs_end[start] = j
        following = html[j : j + 1]
        if following == ">":
            return j + 1
        if following == "/":
            return j + 2 if html.startswith("/>", j) else -1
        if following == "" or following in _UNFINISHED_TAG_CHARS:
            return -1
        return j

    def _attributes(self, i: int, endpos: int) -> tuple[str, int, list[tuple[str, str | None]]]:
        """The start tag at i: its name, where its attributes end, and them."""
        html = self.html
        m = _TAGFIND.match(html, i + 1)
        k = m.end()
        attrs = []
        while k < endpos:
            found = _ATTRFIND.match(html, k)
            if not found:
                break
            name, rest, value = found.group(1, 2, 3)
            if not rest:
                value = None
            elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
                value = value[1:-1]
            if value:
                value = unescape(value)
            attrs.append((name.lower(), value))
            k = found.end()
        return m.group(1).lower(), k, attrs

    def _parse_endtag(self, i: int) -> int:
        gtpos = self._end_after(_GT, i + 1)
        if gtpos < 0:
            return -1
        m = _ENDTAGFIND.match(self.html, i)
        if not m:
            if self._cdata is not None:
                return gtpos  # script or style text, which is never shown
            name = _TAGFIND.match(self.html, i + 2)
            if not name:
                return i + 3 if self.html.startswith("</>", i) else gtpos
            # no ">" lies before gtpos, and the name cannot pass one
            self.endtag(name.group(1).lower())
            return gtpos
        tag = m.group(1).lower()
        if self._cdata is not None and tag != self._cdata:
            return gtpos
        self.endtag(tag)
        self._cdata = None
        return gtpos

    def _parse_html_declaration(self, i: int) -> int:
        html = self.html
        if html.startswith("<![", i):
            return self._parse_marked_section(i)
        if html[i : i + 9].lower() == "<!doctype":
            return self._end_after(_GT, i + 9)
        return self._end_after(_GT, i + 2)  # a bogus comment

    def _parse_marked_section(self, i: int) -> int:
        html, n = self.html, len(self.html)
        if i + 3 == n:
            return -1
        m = _DECL_NAME.match(html, i + 3)
        if m is None:
            return n  # html.parser raises AssertionError: nothing after is read
        if m.end() == n:
            return -1
        end = _MARKED_SECTION_END.get(m.group().strip().lower())
        if end is None:
            return n  # as above
        return self._end_after(end, i + 3)


def extract_static_text(html: str) -> str:
    """Static page text: scripts dropped, # headings, links as "text (url)";
    each line's whitespace runs become one space, and blank lines go."""
    page = _PageText(html)
    page.run()
    lines = (" ".join(raw_line.split()) for raw_line in "".join(page.parts).split("\n"))
    return "\n".join(line for line in lines if line)


class PageTextCache:
    """``page_text`` of the pages seen lately, keyed by their HTML, and the
    trace JSON of each text held once a trace has written it.

    One instance serves every run and worker of the process. The lock is
    held only to look up and insert, never during extraction or encoding,
    so two threads opening a new page at once may both extract it: that
    costs CPU, never a different text. Once the HTML, text and JSON held
    take more than ``max_bytes`` as ``sys.getsizeof`` counts them (1 to 4
    bytes a character, by the widest character of the string), the least
    recently used pages go first, each with the JSON of its text.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._texts: OrderedDict[str, tuple[str, bool]] = OrderedDict()
        self._json: dict[str, str | None] = {}  # each text held: its JSON, once made
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, html: str) -> tuple[str, bool]:
        with self._lock:
            value = self._texts.get(html)
            if value is not None:
                self._texts.move_to_end(html)
                return value
        text = extract_static_text(html)
        value = text[:CRAWLER_MAX_CHARS], len(text) > CRAWLER_MAX_CHARS
        with self._lock:
            if html not in self._texts:  # another thread may have put it in meanwhile
                self._texts[html] = value
                self._json.setdefault(value[0], None)
                self._bytes += sys.getsizeof(html) + sys.getsizeof(value[0])
                self._evict()
        return value

    def text_json(self, text: str, encode: Callable[[str], str]) -> str | None:
        """``encode(text)`` for a text the cache holds, made the first time it
        is asked for and then held with its page; None for any other text,
        which is not kept."""
        with self._lock:
            made = self._json.get(text, "")
        if made is None:
            made = encode(text)
            with self._lock:
                if self._json.get(text, "") is None:  # still held, and not yet made
                    self._json[text] = made
                    self._bytes += sys.getsizeof(made)
                    self._evict()
        return made or None

    def _evict(self) -> None:
        """Drop the least recently used pages while over budget; lock held."""
        while self._bytes > self.max_bytes:
            html, (text, _) = self._texts.popitem(last=False)
            made = self._json.pop(text, None)
            self._bytes -= sys.getsizeof(html) + sys.getsizeof(text)
            if made is not None:
                self._bytes -= sys.getsizeof(made)

    def clear(self) -> None:
        with self._lock:
            self._texts.clear()
            self._json.clear()
            self._bytes = 0


PAGE_TEXTS = PageTextCache(PAGE_CACHE_MAX_BYTES)


def page_text(html: str) -> tuple[str, bool]:
    """The page's static text cut to CRAWLER_MAX_CHARS, and whether it was
    cut; a pure function of the HTML, extracted once per process."""
    return PAGE_TEXTS.get(html)


@dataclass(frozen=True)
class PageView:
    url: str
    viewport_index: int
    viewport_count: int
    text: str
    truncated: bool

    def __post_init__(self) -> None:
        if not 0 <= self.viewport_index < self.viewport_count:
            raise ValueError("viewport index out of range")


def paginate(text: str, size: int = VIEWPORT_CHARS) -> list[str]:
    if not text:
        return [""]
    return [text[i : i + size] for i in range(0, len(text), size)]


class PageFetcher(abc.ABC):
    @abc.abstractmethod
    def fetch(self, url: str) -> str:
        """Return the page's HTML; raises ToolError subtypes on failure."""
        raise NotImplementedError


class HttpFetcher(PageFetcher):
    """Live fetcher with a per-host politeness delay. The slots are kept per
    process, so the delay also holds between fetchers, such as those of a
    sweep's values or of two benchmarks run at once."""

    _HTML_TYPES = ("text/html", "application/xhtml", "text/plain")
    _next_slot: dict[str, float] = {}
    _lock = threading.Lock()

    def _polite_wait(self, host: str) -> None:
        """Wait for the host's next free slot. Slots are reserved under the
        lock and waited for outside it, so workers keep the delay between them."""
        with HttpFetcher._lock:
            now = time.monotonic()
            slot = max(now, HttpFetcher._next_slot.get(host, now))
            HttpFetcher._next_slot[host] = slot + FETCH_DELAY_S
        if slot > now:
            time.sleep(slot - now)

    def fetch(self, url: str) -> str:
        if not _is_absolute_http(url):
            raise TransportError(f"not an http(s) url: {url!r}")
        self._polite_wait(urllib.parse.urlsplit(url).netloc)
        resp = _http_get(url, FETCH_TIMEOUT_S)
        content_type = resp.headers.get("Content-Type", "").lower()
        if content_type and not content_type.startswith(self._HTML_TYPES):
            raise NonHtmlError(f"unsupported content type {content_type!r}")
        return _http_text(resp)


class FixtureFetcher(PageFetcher):
    """Serves pages from memory or a directory of percent-encoded filenames."""

    def __init__(self, pages: dict[str, str]):
        self._pages = dict(pages)

    @classmethod
    def from_dir(cls, root: str | Path) -> "FixtureFetcher":
        pages = {}
        for path in Path(root).iterdir():
            if path.is_file():
                pages[urllib.parse.unquote(path.name)] = read_text(path, FixtureFileError)
        return cls(pages)

    def fetch(self, url: str) -> str:
        try:
            return self._pages[url]
        except KeyError:
            raise TransportError(f"no fixture page for {url!r}") from None


def fetch_page(url: str, strategy: PageStrategy, fetcher: PageFetcher) -> PageView:
    """Fetch and reduce a page to its first view under the given strategy."""
    browser = BrowserState()
    browser.open(url, *page_text(fetcher.fetch(url)))
    return browser.view(strategy)


# -- per-run browsing state and dispatch -------------------------------------


class BrowserState:
    """The currently open page and viewport position for one run."""

    def __init__(self) -> None:
        self.url: str | None = None
        self.base_text: str = ""
        self.truncated: bool = False
        self.viewports: list[str] = []
        self.viewport_index: int = 0

    @property
    def is_open(self) -> bool:
        return self.url is not None

    def open(self, url: str, base_text: str, truncated: bool) -> None:
        self.url = url
        self.base_text = base_text
        self.truncated = truncated
        self.viewports = paginate(base_text)
        self.viewport_index = 0

    def view(self, strategy: PageStrategy) -> PageView:
        assert self.url is not None
        if strategy is PageStrategy.CRAWLER_STATIC:
            return PageView(
                url=self.url,
                viewport_index=0,
                viewport_count=1,
                text=self.base_text,
                truncated=self.truncated,
            )
        return PageView(
            url=self.url,
            viewport_index=self.viewport_index,
            viewport_count=len(self.viewports),
            text=self.viewports[self.viewport_index],
            truncated=self.truncated,
        )

    def scroll(self, delta: int) -> bool:
        """Move the viewport; returns False for a bounds no-op."""
        target = self.viewport_index + delta
        if not 0 <= target < len(self.viewports):
            return False
        self.viewport_index = target
        return True


def render_results(results: Sequence[dict]) -> str:
    if not results:
        return "No search results."
    lines = [f"Search results ({len(results)}):"]
    for i, row in enumerate(results, 1):
        lines.append(f"{i}. {row['title']} - {row['url']}")
        if row.get("snippet"):
            lines.append(f"   {row['snippet']}")
    return "\n".join(lines)


def render_view(view: PageView) -> str:
    header = f"[{view.url} | viewport {view.viewport_index + 1}/{view.viewport_count}]"
    body = view.text if view.text else "(page has no extractable text)"
    out = f"{header}\n{body}"
    if view.truncated and view.viewport_index == view.viewport_count - 1:
        out += "\n[page text truncated]"
    return out


class ToolBox:
    """Binds providers, fetcher, and attachments to one run's session.

    Every external effect goes through session.call_tool so traces hold
    the full tool I/O and replays never touch the network.
    """

    def __init__(
        self,
        session: "RunSession",
        config: AgentConfig,
        providers: Sequence[SearchProvider],
        fetcher: PageFetcher,
        attachments: dict[str, str] | None = None,
    ):
        self.session = session
        self.config = config
        self.providers = list(providers)
        self.fetcher = fetcher
        self.attachments = dict(attachments or {})
        self.browser = BrowserState()

    def dispatch(self, action: Action) -> str:
        """Execute one action; failures come back as observations."""
        handlers = {
            ActionName.SEARCH: self._do_search,
            ActionName.OPEN_URL: self._do_open_url,
            ActionName.PAGE_UP: self._scroll,
            ActionName.PAGE_DOWN: self._scroll,
            ActionName.READ_ATTACHMENT: self._do_read_attachment,
        }
        handler = handlers.get(action.name)
        if handler is None:
            return f"Action {action.name.value} is not a tool action."
        try:
            return handler(action)
        except ToolError as exc:
            return f"Tool error: {exc}"

    def _do_search(self, action: Action) -> str:
        query = action.arguments.get("query", "").strip()
        if not query:
            return "The search action needs a query argument."
        queries = expand_queries(
            query, self.config.query_expansion_count, self.session, self.config.backbone_id
        )
        providers = self.providers

        def thunk() -> list[dict]:
            return [dict(vars(r)) for r in search(providers, queries)]

        results = self.session.call_tool(
            "search",
            {"queries": queries, "providers": [p.name for p in providers]},
            thunk,
        )
        return render_results(results)

    def _do_open_url(self, action: Action) -> str:
        url = action.arguments.get("url", "").strip()
        if not url:
            return "The open_url action needs a url argument."

        def thunk() -> dict:
            text, truncated = page_text(self.fetcher.fetch(url))
            return {"text": text, "truncated": truncated}

        try:
            page = self.session.call_tool("fetch_page", {"url": url}, thunk)
        except ToolError as exc:
            return f"Could not open {url}: {exc}"
        self.browser.open(url, page["text"], page["truncated"])
        return render_view(self.browser.view(self.config.page_strategy))

    def _scroll(self, action: Action) -> str:
        if self.config.page_strategy is not PageStrategy.BROWSER_COMPLEX:
            return f"{action.name.value} is only available under the complex browser strategy."
        if not self.browser.is_open:
            return "No page is open; use open_url first."
        delta = -1 if action.name is ActionName.PAGE_UP else +1
        moved = self.browser.scroll(delta)
        view = self.browser.view(self.config.page_strategy)
        rendered = render_view(view)
        if not moved:
            edge = "first" if delta < 0 else "last"
            return f"Already at the {edge} viewport; showing it again.\n{rendered}"
        return rendered

    def _do_read_attachment(self, action: Action) -> str:
        name = action.arguments.get("name", "").strip()
        if not name and len(self.attachments) == 1:
            name = next(iter(self.attachments))
        if name not in self.attachments:
            listing = ", ".join(sorted(self.attachments)) or "none"
            return f"No attachment named {name!r}. Available: {listing}."
        path = self.attachments[name]

        def thunk() -> dict:
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    text = f.read(ATTACHMENT_MAX_CHARS + 1)
            except OSError as exc:
                raise ToolError(str(exc)) from exc
            truncated = len(text) > ATTACHMENT_MAX_CHARS
            return {"text": text[:ATTACHMENT_MAX_CHARS], "truncated": truncated}

        try:
            payload = self.session.call_tool("read_attachment", {"name": name}, thunk)
        except ToolError as exc:
            return f"Could not read attachment {name!r}: {exc}"
        note = "\n[attachment truncated]" if payload["truncated"] else ""
        return f"[attachment {name}]\n{payload['text']}{note}"
