"""Web information tools: query expansion, multi-engine search, page reading.

Search fans each expanded query out to every engine in the configured
source set, then merges with URL deduplication in a fixed order, so the
result list is deterministic for deterministic providers. Each distinct
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
import json
import logging
import os
import re
import sys
import threading
import time
import urllib.parse
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from html import unescape
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .actions import Action, ActionName
from .backend import Message, Purpose
from .config import (
    AgentConfig,
    InputError,
    PageStrategy,
    SourceSet,
    read_fields,
    read_text,
    typed_value,
)
from . import prompts

if TYPE_CHECKING:
    from .session import RunSession

log = logging.getLogger("agentmeter.tools")

VIEWPORT_CHARS = 8000
CRAWLER_MAX_CHARS = 40000
ATTACHMENT_MAX_CHARS = 40000
PAGE_CACHE_MAX_BYTES = 32 * 2**20  # HTML plus text held by the page-text cache
DEFAULT_PER_QUERY_LIMIT = 5
SERP_GATEWAY_ENV = "AGENTMETER_SERP_URL"
WIKIPEDIA_API = "https://en.wikipedia.org/w/api.php"
USER_AGENT = "agentmeter/0.1 (research harness)"
SEARCH_TIMEOUT_S = 15.0
FETCH_TIMEOUT_S = 30.0
FETCH_DELAY_S = 0.5  # between two live fetches from one host
URL_KEYS_CACHED = 4096  # normalize_url results kept per process


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


@lru_cache(maxsize=URL_KEYS_CACHED)
def normalize_url(url: str) -> str:
    """Dedup key: lowercased scheme and host, fragment dropped."""
    parts = urllib.parse.urlsplit(url.strip())
    return urllib.parse.urlunsplit(
        (parts.scheme.lower(), parts.netloc.lower(), parts.path, parts.query, "")
    )


def _is_absolute_http(url: str) -> bool:
    parts = urllib.parse.urlsplit(url)
    return parts.scheme in ("http", "https") and bool(parts.netloc)


class SearchProvider(abc.ABC):
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
        try:
            raw = json.loads(read_text(path, FixtureFileError))
        except json.JSONDecodeError as exc:
            raise FixtureFileError(f"{path}: invalid JSON: {exc}") from None
        try:
            responses = {
                query: [_search_row(row) for row in typed_value(list, rows)]
                for query, rows in typed_value(dict, raw).items()
            }
        except ValueError as exc:
            message = "each query must map to a list of [title, url, snippet] rows"
            raise FixtureFileError(f"{path}: {message}: {exc}") from None
        return cls("fixture", responses)

    def search(self, query: str, limit: int) -> list[SearchResult]:
        rows = self._responses.get(query, [])[:limit]
        return [
            SearchResult(title=t, url=u, snippet=s, provider=self.name, rank=i + 1)
            for i, (t, u, s) in enumerate(rows)
        ]


def _search_row(row) -> tuple[str, str, str]:
    strings = tuple(typed_value(str, value) for value in typed_value(list, row))
    if len(strings) != 3:
        raise ValueError(f"{row!r} is not three strings")
    return strings


# a row of a live engine's answer; one that is not all strings fails the engine
_ROW_TYPES = {"title": str, "url": str, "snippet": str}


def _live_row(row: dict, provider: str, rank: int, optional=()) -> SearchResult:
    values = read_fields(row, _ROW_TYPES, ToolError, f"row {rank} field ", optional)
    title, snippet = values.get("title", ""), values.get("snippet", "")
    return SearchResult(title, values["url"], snippet, provider, rank)


class WikipediaProvider(SearchProvider):
    """Wikipedia's public opensearch endpoint."""

    name = "wikipedia"

    def search(self, query: str, limit: int) -> list[SearchResult]:
        import requests

        resp = requests.get(
            WIKIPEDIA_API,
            params={
                "action": "opensearch",
                "search": query,
                "limit": str(limit),
                "format": "json",
            },
            timeout=SEARCH_TIMEOUT_S,
            headers={"User-Agent": USER_AGENT},
        )
        resp.raise_for_status()
        body = resp.json()
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
        import requests

        resp = requests.get(
            "https://html.duckduckgo.com/html/",
            params={"q": query},
            timeout=SEARCH_TIMEOUT_S,
            headers={"User-Agent": USER_AGENT},
        )
        resp.raise_for_status()
        results = []
        for i, m in enumerate(self._RESULT.finditer(resp.text)):
            if i >= limit:
                break
            url = m.group("url")
            # ddg wraps targets in a redirect with the real url in uddg=
            redirect = urllib.parse.urlsplit(url)
            target = urllib.parse.parse_qs(redirect.query).get("uddg", [url])[0]
            title = self._TAGS.sub("", m.group("title")).strip()
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

    def __init__(self, name: str):
        self.name = name

    def search(self, query: str, limit: int) -> list[SearchResult]:
        gateway = os.environ.get(SERP_GATEWAY_ENV)
        if not gateway:
            if self.name not in SerpGatewayProvider._warned:
                SerpGatewayProvider._warned.add(self.name)
                log.warning(
                    "no SERP gateway configured (%s); %s returns no results",
                    SERP_GATEWAY_ENV,
                    self.name,
                )
            return []
        import requests

        resp = requests.get(
            gateway,
            params={"provider": self.name, "q": query, "limit": str(limit)},
            timeout=SEARCH_TIMEOUT_S,
        )
        resp.raise_for_status()
        return [
            _live_row(row, self.name, i, optional=("title", "snippet"))
            for i, row in enumerate(resp.json(), 1)
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


def search(
    providers: Sequence[SearchProvider],
    queries: Sequence[str],
    per_query_limit: int = DEFAULT_PER_QUERY_LIMIT,
) -> list[SearchResult]:
    """Fan out, merge, dedup.

    Order is (query position, provider position, provider rank); the
    first occurrence of a normalized URL wins. Provider failures and
    non-absolute URLs are dropped with a warning.
    """
    if not queries:
        raise ValueError("at least one query required")
    merged: list[SearchResult] = []
    seen: set[str] = set()
    for query in queries:
        for provider in providers:
            try:
                rows = provider.search(query, per_query_limit)
            except Exception as exc:
                log.warning("provider %s failed for %r: %s", provider.name, query, exc)
                continue
            for row in rows:
                if not _is_absolute_http(row.url):
                    log.warning("provider %s returned non-absolute url %r", provider.name, row.url)
                    continue
                key = normalize_url(row.url)
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

# Page text follows html.parser's tokenization, as CPython 3.11.7 does it
# for a whole page fed at once and then closed, in one pass: _TOKEN matches
# the common tokens, and every other "<" takes one step of a port of
# HTMLParser.goahead and the parse_* methods it calls. No part of a _TOKEN
# match but its text may hold a "<", so a failed match ends at the next one.
_TOKEN = re.compile(
    r"""
    (?:
        # a start tag whose attributes are space-separated and either bare
        # names or names with a quoted value
        <(?P<tag>[a-zA-Z][^\t\n\r\f\x20/>\x00<]*)
        (?:[\t\n\r\f\x20]+[^\s/>=<]+(?:=(?:"[^"<]*"|'[^'<]*'))?)*
        [\t\n\r\f\x20]*(?P<slash>/?)>
      | </\s*(?P<endtag>[a-zA-Z][-.a-zA-Z0-9:_]*)\s*>
      | (?P<markup><!--[^<]*?--\s*>|<![dD][oO][cC][tT][yY][pP][eE][^<>]*>)
    )?
    (?P<text>[^<]*)
    """,
    re.VERBOSE,
)
# what html.parser looks for to end a <script> or <style>. Like every
# pattern here it is compiled at import: compiled on first use inside one
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
    normalizes it."""

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
            # a match is a token or nothing, then the text after it; an empty
            # one is the end of the page or a "<" for the exact path
            for m in _TOKEN.finditer(html, pos):
                tag, slash, endtag, markup, text = m.groups()
                if tag is not None:
                    tag = tag.lower()
                    if slash:
                        self.startendtag(tag)
                    else:
                        attrs = self._attributes(m.start(), m.start("text"))[2] if tag == "a" else ()
                        self.starttag(tag, attrs)
                        if tag in _CDATA_END:
                            self._cdata = tag
                            pos = m.start("text")
                            break
                elif endtag is not None:
                    self.endtag(endtag.lower())
                elif markup is None and not text:
                    pos = m.start()
                    if pos == n:
                        return
                    pos = self._step(pos)
                    break
                if text:
                    self.data(unescape(text) if "&" in text else text)
            else:
                return

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
    """``page_text`` of the pages seen lately, keyed by their HTML.

    One instance serves every run and worker of the process. The lock is
    held only to look up and insert, never during extraction, so two
    threads opening a new page at once may both extract it: that costs
    CPU, never a different text. Once the HTML and text held take more
    than ``max_bytes`` as ``sys.getsizeof`` counts them (1 to 4 bytes a
    character, by the widest character of the string), the least recently
    used pages go first.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._texts: OrderedDict[str, tuple[str, bool]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, html: str) -> tuple[str, bool]:
        with self._lock:
            value = self._texts.get(html)
            if value is not None:
                self._texts.move_to_end(html)
                return value
        value = _page_text(html)
        with self._lock:
            if html not in self._texts:  # another thread may have put it in meanwhile
                self._texts[html] = value
                self._bytes += _entry_bytes(html, value)
                while self._bytes > self.max_bytes:
                    self._bytes -= _entry_bytes(*self._texts.popitem(last=False))
        return value

    def clear(self) -> None:
        with self._lock:
            self._texts.clear()
            self._bytes = 0


def _entry_bytes(html: str, value: tuple[str, bool]) -> int:
    return sys.getsizeof(html) + sys.getsizeof(value[0])


PAGE_TEXTS = PageTextCache(PAGE_CACHE_MAX_BYTES)


def _page_text(html: str) -> tuple[str, bool]:
    text = extract_static_text(html)
    return text[:CRAWLER_MAX_CHARS], len(text) > CRAWLER_MAX_CHARS


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
        import requests

        if not _is_absolute_http(url):
            raise TransportError(f"not an http(s) url: {url!r}")
        self._polite_wait(urllib.parse.urlsplit(url).netloc)
        try:
            resp = requests.get(
                url, timeout=FETCH_TIMEOUT_S, headers={"User-Agent": USER_AGENT}
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code != 200:
            raise TransportError(f"HTTP {resp.status_code} for {url}")
        content_type = resp.headers.get("Content-Type", "").lower()
        if content_type and not content_type.startswith(self._HTML_TYPES):
            raise NonHtmlError(f"unsupported content type {content_type!r}")
        return resp.text


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
                text = Path(path).read_text(encoding="utf-8", errors="replace")
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
