"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of (workload shape, seed, task count):
``random.Random`` seeded with a string hashes it with SHA-512, and no code
path calls ``hash()``, so ``PYTHONHASHSEED`` cannot change a byte of the
output. Quantities that set how much work a run does (page sizes, how many
tasks run out of steps, which tasks are solved, how often a URL is
re-opened) are stratified rather than drawn independently, so two seeds
give the same amount of work in a different arrangement.

A generated input directory holds what the program reads (``config.ini``,
``tasks.jsonl``, attachments, ``pages/``, ``searches.json``) and what only
the benchmark reads (``design.json``: the scripted behaviour of the model
stand-in and the outcome each task must reach).
"""

from __future__ import annotations

import json
import math
import random
import urllib.parse
from dataclasses import asdict, dataclass
from pathlib import Path

MODEL_ID = "gpt-4.1"
PER_QUERY_LIMIT = 5  # the program's default rows per (query, provider)
ATTACHMENT_SHARE = 0.25


@dataclass(frozen=True)
class Shape:
    """One workload's program configuration and input distribution."""

    name: str
    config: dict  # [agent] section of config.ini
    providers: tuple[str, ...]  # engine names of the configured source set
    page_bytes: tuple[int, int]  # page HTML size range
    log_uniform: bool  # page sizes log-uniform (else uniform) in the range
    pages_per_task: float  # page pool size relative to the task count
    deck: dict  # tool-action kind -> share of an answering task's tool steps
    tool_steps: tuple[int, int]  # tool steps before final_answer, inclusive
    budget_share: float  # share of tasks that exhaust the step budget
    solved_share: float  # share of tasks whose answer is right


OFFLINE = Shape(
    name="offline",
    config={
        "max_steps": 12,
        "bon_n": 1,
        "memory_mode": "no_extra",
        "page_strategy": "browser_complex",
    },
    providers=("google", "wikipedia"),
    page_bytes=(4 * 1024, 256 * 1024),
    log_uniform=True,
    pages_per_task=0.5,
    deck={"search": 2, "open": 4, "reopen": 2, "page_down": 3, "page_up": 1},
    tool_steps=(3, 9),
    budget_share=1 / 6,
    solved_share=0.7,
)

LIVE = Shape(
    name="live",
    config={
        "max_steps": 8,
        "bon_n": 4,
        "prm_mode": "score",
        "memory_mode": "extra_hybrid",
        "page_strategy": "crawler_static",
        "source_set": "multi",
        "query_expansion_count": 5,
    },
    providers=("google", "wikipedia", "bing", "baidu", "duckduckgo"),
    page_bytes=(512, 2048),
    log_uniform=False,
    pages_per_task=1.0,
    deck={"search": 3, "open": 3, "reopen": 1},
    tool_steps=(2, 6),
    budget_share=1 / 6,
    solved_share=0.7,
)

SHAPES = {s.name: s for s in (OFFLINE, LIVE)}

_WORDS = (
    "river delta harbour census ledger archive museum orbit comet glacier "
    "canal bridge tower railway station treaty charter dynasty province "
    "island summit valley basin plateau estuary lagoon reef forest meadow "
    "engine turbine reactor circuit signal antenna satellite telescope "
    "crystal mineral alloy copper cobalt nickel zinc silver bronze granite "
    "author novel poem sonata opera ballet fresco mosaic chapel cathedral "
    "senate council mayor governor marshal admiral pilot navigator clerk "
    "market tariff export import harvest vineyard orchard mill foundry "
    "season decade century record medal trophy league stadium marathon "
    "species genus fossil pollen enzyme protein neuron vaccine remedy"
).split()

_ENTITIES = ("&amp;", "&lt;", "&gt;", "&quot;", "&#8212;", "&eacute;", "&nbsp;", "&#169;")


def _rng(seed: int, *parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one per equal-width stratum, in shuffled order."""
    points = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(points)
    return points


def _flags(rng: random.Random, n: int, share: float) -> list[bool]:
    """Exactly round(n * share) True values, shuffled."""
    k = round(n * share)
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


# -- pages --------------------------------------------------------------------


def page_url(shape: str, index: int) -> str:
    return f"https://{shape}-{index % 7}.example/wiki/page-{index:05d}"


def page_html(rng: random.Random, size: int, links: list[str]) -> str:
    """HTML of roughly ``size`` bytes: scripts, styles, nested blocks,
    links, tables and character entities, as real article pages carry."""
    out = [
        "<!DOCTYPE html><html><head><title>",
        _words(rng, 5),
        "</title><style>body{margin:0}.nav a{color:#06c}</style>",
        "<script>var cfg={id:%d,tags:['%s']};function t(){return cfg.id*2;}</script>"
        % (rng.randrange(10**6), _words(rng, 3)),
        "</head><body><nav class='nav'><ul>",
    ]
    for url in links[:6]:
        out.append(f"<li><a href='{url}'>{_words(rng, 2)}</a></li>")
    out.append("</ul></nav><main><article><h1>")
    out.append(_words(rng, 4))
    out.append("</h1>")
    length = sum(len(p) for p in out)
    section = 0
    while length < size:
        section += 1
        block = [f"<section id='s{section}'><h2>{_words(rng, 3)}</h2><div class='body'>"]
        for _ in range(rng.randint(2, 4)):
            sentence = _words(rng, rng.randint(12, 30))
            entity = rng.choice(_ENTITIES)
            link = rng.choice(links) if links else "#"
            block.append(
                f"<p>{sentence} {entity} <b>{_words(rng, 2)}</b> "
                f"<a href='{link}'>{_words(rng, 2)}</a> {_words(rng, 8)}.</p>"
            )
        if section % 3 == 0:
            block.append("<table><tbody>")
            for row in range(rng.randint(2, 5)):
                block.append(
                    f"<tr><td>{_words(rng, 1)}</td><td>{rng.randrange(10**5)}</td></tr>"
                )
            block.append("</tbody></table>")
        if section % 4 == 0:
            block.append(
                "<script>window.ads=window.ads||[];ads.push({slot:'%s',w:%d});</script>"
                % (_words(rng, 1), rng.randrange(1000))
            )
        block.append("<div><ul>")
        for _ in range(rng.randint(1, 3)):
            block.append(f"<li>{_words(rng, 6)} &mdash; {_words(rng, 4)}</li>")
        block.append("</ul></div></div></section>")
        chunk = "".join(block)
        out.append(chunk)
        length += len(chunk)
    out.append("</article></main><footer>&copy; example</footer></body></html>")
    return "".join(out)


def page_sizes(rng: random.Random, n: int, lo: int, hi: int, log_uniform: bool) -> list[int]:
    if log_uniform:
        return [int(math.exp(math.log(lo) + u * math.log(hi / lo))) for u in _stratified(rng, n)]
    return [int(lo + u * (hi - lo)) for u in _stratified(rng, n)]


# -- tasks --------------------------------------------------------------------


@dataclass
class TaskDesign:
    """What the model stand-in says in one run, and what the run must end as."""

    task_id: str
    level: int
    question: str
    expected: str
    attachment: str | None
    actions: list[str]  # one ACTION directive per step, final_answer last if any
    thoughts: list[str]  # reasoning text per step
    expansions: list[list[str]]  # expanded queries, one list per search action
    forced_reply: str | None  # reply to the forced-answer call, if the budget runs out
    solved: bool
    terminated_by: str  # "final_answer" | "step_budget"
    salt: int = 0  # varies judge scores and re-asks between runs


def _tool_kinds(rng: random.Random, deck: dict, n: int) -> list[str]:
    """n tool-action kinds in the deck's proportions, search first."""
    pool: list[str] = []
    while len(pool) < n:
        cycle = [k for k, count in deck.items() for _ in range(count)]
        rng.shuffle(cycle)
        pool.extend(cycle)
    kinds = pool[:n]
    if "search" in kinds:
        kinds.remove("search")
    else:
        kinds.pop()
    return ["search", *kinds]


def _spread(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers covering lo..hi as evenly as n allows, shuffled."""
    values = [lo + (i * (hi - lo + 1)) // n for i in range(n)]
    rng.shuffle(values)
    return values


def _kinds(rng: random.Random, shape: Shape, n_tools: int, attachment: str | None) -> list[str]:
    """The task's tool-action kinds; a re-open always follows an open."""
    kinds = _tool_kinds(rng, shape.deck, n_tools)
    if attachment is not None:
        kinds[rng.randrange(1, len(kinds))] = "attachment"
    opened = False
    owed = 0  # re-opens drawn before any page was open, paid back by later opens
    for i, kind in enumerate(kinds):
        if kind == "reopen" and not opened:
            owed += 1
            kinds[i] = "open"
        elif kind == "open" and owed and opened:
            owed -= 1
            kinds[i] = "reopen"
        opened = opened or kinds[i] == "open"
    return kinds


def _design_task(
    rng: random.Random,
    shape: Shape,
    task_id: str,
    level: int,
    kinds: list[str],
    budget: bool,
    solved: bool,
    attachment: str | None,
    new_pages,
) -> TaskDesign:
    k = shape.config.get("query_expansion_count", 10)
    topic = _words(rng, 3)
    expected = str(rng.randrange(1000, 99999))
    actions: list[str] = []
    expansions: list[list[str]] = []
    opened: list[str] = []
    for kind in kinds:
        if kind in ("open", "reopen"):
            url = rng.choice(opened) if kind == "reopen" else next(new_pages)
            actions.append(f'open_url(url="{url}")')
            opened.append(url)
        elif kind == "search":
            s = len(expansions)
            expansions.append([f"{topic} {_words(rng, 2)} {task_id} s{s}q{j}" for j in range(k)])
            actions.append(f'search(query="{topic} {_words(rng, 3)}")')
        elif kind == "attachment":
            actions.append(f'read_attachment(name="{attachment}")')
        else:
            actions.append(f"{kind}()")
    answer = expected if solved else str(int(expected) + 1)
    forced = None
    if budget:
        forced = answer
    else:
        actions.append(f'final_answer(answer="{answer}")')
    thoughts = [_words(rng, rng.randint(20, 90)) for _ in actions]
    return TaskDesign(
        task_id=task_id,
        level=level,
        question=f"What is the {topic} figure recorded for {_words(rng, rng.randint(8, 40))}?",
        expected=expected,
        attachment=attachment,
        actions=actions,
        thoughts=thoughts,
        expansions=expansions,
        forced_reply=forced,
        solved=solved,
        terminated_by="step_budget" if budget else "final_answer",
        salt=rng.randrange(1 << 30),
    )


def _config_ini(shape: Shape) -> str:
    lines = ["[agent]", f"backbone_id = {MODEL_ID}"]
    lines += [f"{key} = {value}" for key, value in shape.config.items()]
    lines += [
        "",
        "[pricing]",
        "effective_date = 2025-06-01",
        "",
        f"[pricing.{MODEL_ID}]",
        "input = 2.00",
        "output = 8.00",
        "",
    ]
    return "\n".join(lines)


def generate(
    out: str | Path,
    shape: Shape,
    seed: int,
    n_tasks: int,
    block: int,
) -> list[TaskDesign]:
    """Write one workload's inputs into ``out`` and return the task designs.

    ``block`` is the number of tasks per run call; each block of that many
    consecutive tasks is stratified on its own.
    """
    out = Path(out)
    pages_dir = out / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)
    lo, hi = shape.page_bytes
    n_pages = max(8, round(n_tasks * shape.pages_per_task))
    urls = [page_url(shape.name, i) for i in range(n_pages)]

    size_rng = _rng(seed, shape.name, "sizes")
    sizes = page_sizes(size_rng, n_pages, lo, hi, shape.log_uniform)
    for i, (url, size) in enumerate(zip(urls, sizes)):
        rng = _rng(seed, shape.name, "page", i)
        links = [urls[rng.randrange(n_pages)] for _ in range(8)]
        html = page_html(rng, size, links)
        (pages_dir / urllib.parse.quote(url, safe="")).write_text(html, encoding="utf-8")

    # Each block of consecutive tasks (one run call) gets the same mix: exact
    # shares of budget, solved and attachment tasks, evenly spread step
    # counts, and new page opens drawn stratified over the page-size range.
    by_size = sorted(range(n_pages), key=sizes.__getitem__)
    designs: list[TaskDesign] = []
    for first in range(0, n_tasks, block):
        ids = range(first, min(first + block, n_tasks))
        rng = _rng(seed, shape.name, "block", first)
        m = len(ids)
        budget = _flags(rng, m, shape.budget_share)
        solved = _flags(rng, m, shape.solved_share)
        attached = _flags(rng, m, ATTACHMENT_SHARE)
        steps = _spread(rng, m, *shape.tool_steps)
        levels = _spread(rng, m, 1, 3)
        task_rngs = [_rng(seed, shape.name, "task", i) for i in ids]
        attachments = [f"{shape.name}-{i:04d}.txt" if a else None for i, a in zip(ids, attached)]
        kinds = [
            _kinds(r, shape, shape.config["max_steps"] if b else n, a)
            for r, b, n, a in zip(task_rngs, budget, steps, attachments)
        ]
        slots = [k.count("open") for k in kinds]
        n_open = sum(slots)
        picks = [by_size[int((j + rng.random()) * n_pages / n_open)] for j in range(n_open)]
        # Largest first, each page to the task with the fewest bytes per open
        # slot, so a task's page bytes follow its number of opens.
        dealt: list[list[int]] = [[] for _ in ids]
        load = [0] * m
        for page in sorted(picks, key=sizes.__getitem__, reverse=True):
            j = min((j for j in range(m) if len(dealt[j]) < slots[j]), key=lambda j: load[j] / slots[j])
            dealt[j].append(page)
            load[j] += sizes[page]
        for j, i in enumerate(ids):
            rng.shuffle(dealt[j])
            designs.append(
                _design_task(
                    task_rngs[j], shape, f"{shape.name}-{i:04d}", levels[j], kinds[j],
                    budget[j], solved[j], attachments[j], (urls[p] for p in dealt[j]),
                )
            )

    searches: dict[str, dict[str, list[list[str]]]] = {p: {} for p in shape.providers}
    search_rng = _rng(seed, shape.name, "searches")
    for design in designs:
        for queries in design.expansions:
            for query in queries:
                for provider in shape.providers:
                    searches[provider][query] = [
                        [_words(search_rng, 4), urls[search_rng.randrange(n_pages)], _words(search_rng, 10)]
                        for _ in range(PER_QUERY_LIMIT)
                    ]

    with open(out / "tasks.jsonl", "w", encoding="utf-8") as f:
        for d in designs:
            row = {
                "task_id": d.task_id,
                "Level": d.level,
                "Question": d.question,
                "Final answer": d.expected,
                "file_name": d.attachment or "",
            }
            f.write(json.dumps(row, sort_keys=True) + "\n")
            if d.attachment:
                text_rng = _rng(seed, shape.name, "attachment", d.task_id)
                body = "\n".join(_words(text_rng, 12) for _ in range(text_rng.randint(5, 40)))
                (out / d.attachment).write_text(body + "\n", encoding="utf-8")
    (out / "searches.json").write_text(
        json.dumps(searches, sort_keys=True, separators=(",", ":")), encoding="utf-8"
    )
    (out / "config.ini").write_text(_config_ini(shape), encoding="utf-8")
    (out / "design.json").write_text(
        json.dumps([asdict(d) for d in designs], sort_keys=True), encoding="utf-8"
    )
    return designs


def load_designs(out: str | Path) -> list[TaskDesign]:
    """The task designs ``generate`` wrote into ``out``."""
    rows = json.loads((Path(out) / "design.json").read_text(encoding="utf-8"))
    return [TaskDesign(**row) for row in rows]
