"""The page-text extractor as html.parser callbacks: the reference for tools'.

``reference_extract`` is the extractor agentmeter used before its one-pass
tokenizer, run on the pinned copy of CPython 3.11.7's html.parser, so the
text it gives does not change with the interpreter that runs the tests.
"""

from __future__ import annotations

from agentmeter import tools
from agentmeter.tools import _BLOCK_TAGS, _HEADING_LEVEL, _SKIP_TAGS, _PastLimit
from pinned_html_parser import HTMLParser


class StaticTextParser(HTMLParser):
    """Collects normalized lines; with max_chars, stops once past it.

    Raw text collects in ``parts``. Every tools._FLUSH_CHARS of data, the
    lines before its last newline are final, since later text can only
    extend the last one, and they move, normalized, into ``lines``.
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
            if self._unflushed >= tools._FLUSH_CHARS:
                self.flush()
                if self.max_chars is not None and self._size > self.max_chars:
                    raise _PastLimit


def reference_extract(html: str | bytes, max_chars: int | None = None) -> str:
    """What ``tools.extract_static_text(html, max_chars)`` must return."""
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    parser = StaticTextParser(max_chars)
    try:
        parser.feed(html)
        parser.close()
    except _PastLimit:
        return "\n".join(parser.lines)
    except AssertionError:  # html.parser's reply to a "<![" it cannot read
        pass
    parser.parts.append("\n")  # the end of the page finishes its last line
    parser.flush()
    return "\n".join(parser.lines)
