"""The page-text extractor as html.parser callbacks: the reference for tools'.

``reference_extract`` is the extractor agentmeter used before its one-pass
tokenizer, run on the pinned copy of CPython 3.11.7's html.parser, so the
text it gives does not change with the interpreter that runs the tests.
"""

from __future__ import annotations

from agentmeter.tools import _BLOCK_TAGS, _HEADING_LEVEL, _SKIP_TAGS
from pinned_html_parser import HTMLParser


class StaticTextParser(HTMLParser):
    """Collects the page's raw text in ``parts``."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip = 0
        self._links: list[str | None] = []

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


def reference_extract(html: str) -> str:
    """What ``tools.extract_static_text(html)`` must return."""
    parser = StaticTextParser()
    try:
        parser.feed(html)
        parser.close()
    except AssertionError:  # html.parser's reply to a "<![" it cannot read
        pass
    lines = (" ".join(raw_line.split()) for raw_line in "".join(parser.parts).split("\n"))
    return "\n".join(line for line in lines if line)
