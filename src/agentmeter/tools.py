"""Web information tools: query expansion, multi-engine search, page reading.

Search fans each expanded query out to every engine in the configured
source set, then merges with URL deduplication in a fixed order, so the
result list is deterministic for deterministic providers. Each distinct
page is reduced to static text at most once per run, and parsing stops
once the text is known to run past the crawler cut; the three page
strategies differ only in how much of that text a single observation
exposes and whether the agent may scroll.

Live engine adapters degrade to empty results on failure (a dead engine
must not kill a run); fixture adapters make the whole layer offline and
byte-stable for tests and replays.
"""

from __future__ import annotations

import abc
import hashlib
import logging
import os
import re
import time
import urllib.parse
from dataclasses import asdict, dataclass
from html.parser import HTMLParser
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .actions import Action, ActionName
from .backend import Message, Purpose
from .config import AgentConfig, PageStrategy, SourceSet
from . import prompts

if TYPE_CHECKING:
    from .session import RunSession

log = logging.getLogger("agentmeter.tools")

VIEWPORT_CHARS = 8000
CRAWLER_MAX_CHARS = 40000
ATTACHMENT_MAX_CHARS = 40000
DEFAULT_PER_QUERY_LIMIT = 5
SERP_GATEWAY_ENV = "AGENTMETER_SERP_URL"


class ToolError(RuntimeError):
    pass


class TransportError(ToolError):
    pass


class NonHtmlError(ToolError):
    pass


class RobotsDeniedError(ToolError):
    pass


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

    def search(self, query: str, limit: int) -> list[SearchResult]:
        rows = self._responses.get(query, [])[:limit]
        return [
            SearchResult(title=t, url=u, snippet=s, provider=self.name, rank=i + 1)
            for i, (t, u, s) in enumerate(rows)
        ]


class WikipediaProvider(SearchProvider):
    """Wikipedia's public opensearch endpoint."""

    name = "wikipedia"

    def __init__(self, lang: str = "en", timeout: float = 15.0):
        self._endpoint = f"https://{lang}.wikipedia.org/w/api.php"
        self._timeout = timeout

    def search(self, query: str, limit: int) -> list[SearchResult]:
        import requests

        resp = requests.get(
            self._endpoint,
            params={
                "action": "opensearch",
                "search": query,
                "limit": str(limit),
                "format": "json",
            },
            timeout=self._timeout,
            headers={"User-Agent": DEFAULT_USER_AGENT},
        )
        resp.raise_for_status()
        body = resp.json()
        titles, descriptions, urls = body[1], body[2], body[3]
        return [
            SearchResult(title=t, url=u, snippet=d, provider=self.name, rank=i + 1)
            for i, (t, d, u) in enumerate(zip(titles, descriptions, urls))
        ]


class DuckDuckGoProvider(SearchProvider):
    """Scrapes the HTML endpoint; best effort only."""

    name = "duckduckgo"

    _RESULT = re.compile(
        r'<a[^>]+class="result__a"[^>]+href="(?P<url>[^"]+)"[^>]*>(?P<title>.*?)</a>',
        re.S,
    )
    _TAGS = re.compile(r"<[^>]+>")

    def __init__(self, timeout: float = 15.0):
        self._timeout = timeout

    def search(self, query: str, limit: int) -> list[SearchResult]:
        import requests

        resp = requests.get(
            "https://html.duckduckgo.com/html/",
            params={"q": query},
            timeout=self._timeout,
            headers={"User-Agent": DEFAULT_USER_AGENT},
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
    title, url, snippet. Without a gateway the provider yields nothing,
    with a single warning per process.
    """

    _warned: set[str] = set()

    def __init__(self, name: str, timeout: float = 15.0):
        self.name = name
        self._timeout = timeout

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
            timeout=self._timeout,
        )
        resp.raise_for_status()
        return [
            SearchResult(
                title=row.get("title", ""),
                url=row.get("url", ""),
                snippet=row.get("snippet", ""),
                provider=self.name,
                rank=i + 1,
            )
            for i, row in enumerate(resp.json())
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

DEFAULT_USER_AGENT = "agentmeter/0.1 (research harness)"

_SKIP_TAGS = {"script", "style", "noscript", "template"}
_HEADING_LEVEL = {f"h{i}": i for i in range(1, 7)}
_BLOCK_TAGS = {
    "p", "div", "section", "article", "aside", "header", "footer", "main",
    "nav", "li", "ul", "ol", "dl", "dt", "dd", "table", "thead", "tbody",
    "tr", "blockquote", "pre", "figure", "figcaption", "form", "hr",
} | set(_HEADING_LEVEL)

# page text gathered between moves of finished lines into the output
_FLUSH_CHARS = 8192


class _PastLimit(Exception):
    """Stops a bounded parse once its output is longer than the limit."""


class _StaticTextParser(HTMLParser):
    """Collects normalized lines; with max_chars, stops once past it.

    Raw text collects in ``parts``. Every _FLUSH_CHARS of data, the lines
    before its last newline are final, since later text can only extend
    the last one, and they move, normalized, into ``lines``.
    """

    def __init__(self, max_chars: int | None = None) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self.lines: list[str] = []
        self.max_chars = max_chars
        self._size = 0  # len("\n".join(self.lines))
        self._unflushed = 0
        self._skip = 0
        self._links: list[str | None] = []

    def flush(self) -> None:
        """Move the lines finished so far, normalized, into ``lines``."""
        done, _, rest = "".join(self.parts).rpartition("\n")
        self.parts = [rest]
        self._unflushed = 0
        for raw_line in done.split("\n"):
            line = " ".join(raw_line.split())
            if line:
                self._size += len(line) + (1 if self.lines else 0)
                self.lines.append(line)

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip += 1
            return
        if self._skip:
            return
        if tag in _HEADING_LEVEL:
            self.parts.append("\n" + "#" * _HEADING_LEVEL[tag] + " ")
        elif tag in _BLOCK_TAGS or tag == "br":
            self.parts.append("\n")
        if tag == "a":
            self._links.append(dict(attrs).get("href"))

    def handle_startendtag(self, tag, attrs):
        if not self._skip and (tag == "br" or tag in _BLOCK_TAGS):
            self.parts.append("\n")

    def handle_endtag(self, tag):
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

    def handle_data(self, data):
        if not self._skip:
            self.parts.append(data)
            self._unflushed += len(data)
            if self._unflushed >= _FLUSH_CHARS:
                self.flush()
                if self.max_chars is not None and self._size > self.max_chars:
                    raise _PastLimit


def extract_static_text(html: str | bytes, max_chars: int | None = None) -> str:
    """Static page text: scripts dropped, # headings, links as "text (url)".

    With max_chars, parsing may stop once the text is known to be longer;
    the result is then a prefix of the full text, longer than max_chars.
    """
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    parser = _StaticTextParser(max_chars)
    try:
        parser.feed(html)
        parser.close()
    except _PastLimit:
        return "\n".join(parser.lines)
    except Exception:  # malformed markup must never crash extraction
        pass
    parser.parts.append("\n")  # the end of the page finishes its last line
    parser.flush()
    return "\n".join(parser.lines)


def page_text(html: str | bytes) -> tuple[str, bool]:
    """The page's static text cut to CRAWLER_MAX_CHARS, and whether it was cut."""
    text = extract_static_text(html, CRAWLER_MAX_CHARS)
    return text[:CRAWLER_MAX_CHARS], len(text) > CRAWLER_MAX_CHARS


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
    """Live fetcher with a per-host politeness delay."""

    _HTML_TYPES = ("text/html", "application/xhtml", "text/plain")

    def __init__(
        self,
        user_agent: str = DEFAULT_USER_AGENT,
        timeout: float = 30.0,
        delay_s: float = 0.5,
        respect_robots: bool = False,
    ):
        self.user_agent = user_agent
        self.timeout = timeout
        self.delay_s = delay_s
        self.respect_robots = respect_robots
        self._last_hit: dict[str, float] = {}
        self._robots: dict[str, object] = {}

    def _polite_wait(self, host: str) -> None:
        if self.delay_s <= 0:
            return
        last = self._last_hit.get(host)
        if last is not None:
            remaining = self.delay_s - (time.monotonic() - last)
            if remaining > 0:
                time.sleep(remaining)
        self._last_hit[host] = time.monotonic()

    def _robots_allowed(self, url: str) -> bool:
        import urllib.robotparser

        host = urllib.parse.urlsplit(url).netloc
        parser = self._robots.get(host)
        if parser is None:
            parser = urllib.robotparser.RobotFileParser(
                f"{urllib.parse.urlsplit(url).scheme}://{host}/robots.txt"
            )
            try:
                parser.read()
            except OSError:
                parser.allow_all = True
            self._robots[host] = parser
        return parser.can_fetch(self.user_agent, url)

    def fetch(self, url: str) -> str:
        import requests

        if not _is_absolute_http(url):
            raise TransportError(f"not an http(s) url: {url!r}")
        if self.respect_robots and not self._robots_allowed(url):
            raise RobotsDeniedError(f"robots.txt disallows {url}")
        self._polite_wait(urllib.parse.urlsplit(url).netloc)
        try:
            resp = requests.get(
                url, timeout=self.timeout, headers={"User-Agent": self.user_agent}
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
                pages[urllib.parse.unquote(path.name)] = path.read_text(encoding="utf-8")
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
        per_query_limit: int = DEFAULT_PER_QUERY_LIMIT,
    ):
        self.session = session
        self.config = config
        self.providers = list(providers)
        self.fetcher = fetcher
        self.attachments = dict(attachments or {})
        self.per_query_limit = per_query_limit
        self.browser = BrowserState()
        # sha256 of fetched HTML -> page_text of it; lives as long as the run
        self._page_texts: dict[bytes, tuple[str, bool]] = {}

    def dispatch(self, action: Action) -> str:
        """Execute one action; failures come back as observations."""
        handlers = {
            ActionName.SEARCH: self._do_search,
            ActionName.OPEN_URL: self._do_open_url,
            ActionName.PAGE_UP: self._do_page_up,
            ActionName.PAGE_DOWN: self._do_page_down,
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
            return [asdict(r) for r in search(providers, queries, self.per_query_limit)]

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
            html = self.fetcher.fetch(url)
            key = hashlib.sha256(html.encode("utf-8", "surrogatepass")).digest()
            if key not in self._page_texts:
                self._page_texts[key] = page_text(html)
            text, truncated = self._page_texts[key]
            return {"text": text, "truncated": truncated}

        try:
            page = self.session.call_tool("fetch_page", {"url": url}, thunk)
        except ToolError as exc:
            return f"Could not open {url}: {exc}"
        self.browser.open(url, page["text"], page["truncated"])
        return render_view(self.browser.view(self.config.page_strategy))

    def _scroll(self, delta: int, direction: str) -> str:
        if self.config.page_strategy is not PageStrategy.BROWSER_COMPLEX:
            return f"{direction} is only available under the complex browser strategy."
        if not self.browser.is_open:
            return "No page is open; use open_url first."
        moved = self.browser.scroll(delta)
        view = self.browser.view(self.config.page_strategy)
        rendered = render_view(view)
        if not moved:
            edge = "first" if delta < 0 else "last"
            return f"Already at the {edge} viewport; showing it again.\n{rendered}"
        return rendered

    def _do_page_up(self, action: Action) -> str:
        return self._scroll(-1, "page_up")

    def _do_page_down(self, action: Action) -> str:
        return self._scroll(+1, "page_down")

    def _do_read_attachment(self, action: Action) -> str:
        name = action.arguments.get("name", "").strip()
        if not name and len(self.attachments) == 1:
            name = next(iter(self.attachments))
        if name not in self.attachments:
            listing = ", ".join(sorted(self.attachments)) or "none"
            return f"No attachment named {name!r}. Available: {listing}."
        path = self.attachments[name]

        def thunk() -> dict:
            text = Path(path).read_text(encoding="utf-8", errors="replace")
            truncated = len(text) > ATTACHMENT_MAX_CHARS
            return {"text": text[:ATTACHMENT_MAX_CHARS], "truncated": truncated}

        try:
            payload = self.session.call_tool("read_attachment", {"name": name}, thunk)
        except OSError as exc:
            return f"Could not read attachment {name!r}: {exc}"
        note = "\n[attachment truncated]" if payload["truncated"] else ""
        return f"[attachment {name}]\n{payload['text']}{note}"
