"""How fast the host runs right now, and times rescaled to one host speed.

The reference machine shares its CPUs with other tenants, and its speed
flips between two states every few seconds: the same CPU-bound code takes
about 1.6 times as long in the slow state, in CPU time as well as in wall
time, and a thread waiting for the GIL waits that much longer too. A run
of 20 seconds catches the two states in varying proportions, so plain
wall-clock figures moved by up to 40% between runs of the same code.

:func:`probe` times a fixed job built only from the standard library
(HTML parsing, regular expressions, JSON and gzip, the mix agentmeter's
own hot paths are made of). It is run between run calls. :func:`rescale`
takes the busy part of a measured span, the time not spent in injected
waits, and rescales it to the speed at which the probe takes
:data:`REFERENCE_S`; it adds the injected latency at its nominal length.
A wait's overrun (waking from the sleep and taking the GIL back) is left
out: on the reference machine it follows the host's load, not the
program. With the host at the reference speed and no overrun, the
rescaled time is the wall time.
"""

from __future__ import annotations

import gzip
import html.parser
import json
import random
import re
import time

# About the probe's median time on the reference machine (2 vCPUs, Xeon at
# 2.0 GHz); the speed every rescaled figure is quoted at.
REFERENCE_S = 0.014


def _page() -> str:
    rng = random.Random("hostspeed")
    words = ("alpha", "beta", "gamma", "delta", "epsilon", "&amp;", "<b>zeta</b>", "eta")
    rows = [
        f"<div class='c{i % 7}'><p>{' '.join(rng.choice(words) for _ in range(12))}</p>"
        f"<a href='/u/{i}'>link {i}</a></div>\n"
        for i in range(200)
    ]
    return "<html><body>" + "".join(rows) + "</body></html>"


_PAGE = _page()


class _Text(html.parser.HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.parts: list[str] = []

    def handle_data(self, data: str) -> None:
        self.parts.append(data)


def probe() -> float:
    """Seconds the fixed job takes now."""
    start = time.perf_counter()
    parser = _Text()
    parser.feed(_PAGE)
    parser.close()
    lines = [re.sub(r"\s+", " ", line).strip() for line in "".join(parser.parts).split("\n")]
    blob = gzip.compress(json.dumps(lines).encode())
    json.loads(gzip.decompress(blob))
    return time.perf_counter() - start


def rescale(busy_s: float, latency_s: float, probe_s: float) -> float:
    """A span of ``busy_s`` seconds of work rescaled to the reference speed,
    plus the injected latency ``latency_s`` at its nominal length."""
    return latency_s + busy_s * REFERENCE_S / probe_s
