"""Render aggregate results as a text table, CSV, or an SVG scatter.

All three formats are pure functions of the rows, with no timestamps or
environment-dependent values, so the same benchmark always renders to
the same bytes. CSV carries the integer backing totals next to the
derived columns, which makes a parse -> render round trip lossless.
Infinite dollars-per-solve (nothing solved) prints as the literal
``inf`` everywhere.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, Sequence

from .ledger import (
    AggregateRow,
    ComparisonMetrics,
    EmptyBenchmarkError,
    Scope,
    comparison_metrics,
)

_SCOPE_LABEL = {
    Scope.ALL: "all",
    Scope.L1: "level 1",
    Scope.L2: "level 2",
    Scope.L3: "level 3",
}

FORMATS = ("table", "csv", "svg")


def format_cost(usd: float) -> str:
    if math.isinf(usd):
        return "inf"
    return f"{usd:.4f}"


def filter_scope(rows: Iterable[AggregateRow], scope: str | Scope) -> list[AggregateRow]:
    wanted = scope if isinstance(scope, Scope) else Scope(scope.lower())
    out = [r for r in rows if r.scope is wanted]
    if not out:
        raise EmptyBenchmarkError(f"no row for scope {wanted.value!r}")
    return out


def _grid(headers: Sequence[str], body: Sequence[Sequence[str]], title: str = "") -> str:
    """Text table: first column left-aligned, the rest right-aligned."""
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in body), default=0))
        for i in range(len(headers))
    ]

    def fmt(cells: Sequence[str]) -> str:
        first = cells[0].ljust(widths[0])
        rest = "  ".join(c.rjust(w) for c, w in zip(cells[1:], widths[1:]))
        return f"{first}  {rest}".rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("-" * len(lines[-1]))
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines) + "\n"


def render_table(rows: Sequence[AggregateRow], title: str = "") -> str:
    headers = ("scope", "tasks", "solved", "acc %", "mean $", "$ / solve", "mean tok")
    body = [
        (
            _SCOPE_LABEL[r.scope],
            str(r.task_count),
            str(r.solved_count),
            f"{r.accuracy_pct:.1f}",
            format_cost(r.mean_cost_usd),
            format_cost(r.cost_of_pass_usd),
            f"{r.mean_tokens:.0f}",
        )
        for r in rows
    ]
    return _grid(headers, body, title)


_CSV_FIELDS = (
    "scope",
    "task_count",
    "solved_count",
    "accuracy_pct",
    "mean_cost_usd",
    "cost_of_pass_usd",
    "mean_tokens",
    "total_cost_pico",
    "total_tokens",
)


def render_csv(rows: Sequence[AggregateRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in rows:
        writer.writerow(
            [
                r.scope.value,
                r.task_count,
                r.solved_count,
                f"{r.accuracy_pct:.4f}",
                format_cost(r.mean_cost_usd),
                format_cost(r.cost_of_pass_usd),
                f"{r.mean_tokens:.2f}",
                r.total_cost_pico,
                r.total_tokens,
            ]
        )
    return buf.getvalue()


def parse_csv(text: str) -> list[AggregateRow]:
    """Rebuild rows from render_csv output using the integer columns."""
    return [AggregateRow.from_dict(rec) for rec in csv.DictReader(io.StringIO(text))]


# -- svg scatter -------------------------------------------------------------

_SVG_W, _SVG_H = 640, 420
_MARGIN = 56
_POINT_COLOR = {
    Scope.ALL: "#1f3d7a",
    Scope.L1: "#2e7d32",
    Scope.L2: "#e65100",
    Scope.L3: "#b71c1c",
}


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def render_svg(
    rows: Sequence[AggregateRow],
    labels: Sequence[str] | None = None,
    title: str = "accuracy vs mean cost",
) -> str:
    """Scatter of (mean cost per task, accuracy) with one dot per row.

    Coordinates are rounded to 0.01 px so output is byte-stable across
    platforms.
    """
    if not rows:
        raise ValueError("nothing to plot")
    if labels is not None and len(labels) != len(rows):
        raise ValueError("one label per row required")

    xs = [r.mean_cost_usd for r in rows]
    x_lo, x_hi = 0.0, max(xs) * 1.1 if max(xs) > 0 else 1.0
    y_lo, y_hi = 0.0, 100.0
    plot_w = _SVG_W - 2 * _MARGIN
    plot_h = _SVG_H - 2 * _MARGIN

    def px(x: float) -> float:
        return round(_MARGIN + (x - x_lo) / (x_hi - x_lo) * plot_w, 2)

    def py(y: float) -> float:
        return round(_SVG_H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * plot_h, 2)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis = 'stroke="#444" stroke-width="1"'
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" {axis}/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" {axis}/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x}" y1="{_SVG_H - _MARGIN}" x2="{x}" '
            f'y2="{_SVG_H - _MARGIN + 5}" {axis}/>'
        )
        parts.append(
            f'<text x="{x}" y="{_SVG_H - _MARGIN + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.3f}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{_MARGIN - 5}" y1="{y}" x2="{_MARGIN}" y2="{y}" {axis}/>')
        parts.append(
            f'<text x="{_MARGIN - 9}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.0f}</text>'
        )
    parts.append(
        f'<text x="{_SVG_W / 2:.2f}" y="{_SVG_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">mean cost per task (USD)</text>'
    )
    parts.append(
        f'<text x="16" y="{_SVG_H / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_SVG_H / 2:.2f})">accuracy (%)</text>'
    )
    for i, r in enumerate(rows):
        cx, cy = px(r.mean_cost_usd), py(r.accuracy_pct)
        color = _POINT_COLOR[r.scope]
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="{color}" fill-opacity="0.85"/>')
        label = labels[i] if labels is not None else _SCOPE_LABEL[r.scope]
        parts.append(
            f'<text x="{cx + 8:.2f}" y="{cy + 4:.2f}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report(rows: Sequence[AggregateRow], fmt: str, title: str = "") -> str:
    if fmt == "table":
        return render_table(rows, title=title)
    if fmt == "csv":
        return render_csv(rows)
    if fmt == "svg":
        return render_svg(rows, title=title or "accuracy vs mean cost")
    raise ValueError(f"unknown format {fmt!r}; choose one of {', '.join(FORMATS)}")


def render_comparison(
    ours: AggregateRow, baseline: AggregateRow, metrics: ComparisonMetrics | None = None
) -> str:
    """Two-row summary plus the cost-reduction / retention deltas."""
    m = metrics or comparison_metrics(ours, baseline)
    lines = [
        render_table([baseline], title="baseline").rstrip(),
        "",
        render_table([ours], title="candidate").rstrip(),
        "",
        f"cost reduction:        {m.cost_reduction_pct:.1f}%",
        f"performance retention: {m.performance_retention_pct:.1f}%",
    ]
    return "\n".join(lines) + "\n"


def render_sweep_table(
    entries: Sequence[tuple[str, AggregateRow]], axis: str
) -> str:
    """One line per swept value, using each benchmark's all-tasks row."""
    headers = (axis, "tasks", "acc %", "mean $", "$ / solve", "mean tok")
    body = [
        (
            value,
            str(r.task_count),
            f"{r.accuracy_pct:.1f}",
            format_cost(r.mean_cost_usd),
            format_cost(r.cost_of_pass_usd),
            f"{r.mean_tokens:.0f}",
        )
        for value, r in entries
    ]
    return _grid(headers, body)
