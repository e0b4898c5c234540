import csv
import io
import math
from xml.etree import ElementTree

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agentmeter.ledger import AggregateRow, Scope
from agentmeter.report import (
    filter_scope,
    format_cost,
    render_csv,
    render_report,
    render_svg,
    render_sweep_table,
    render_table,
)

PICO = 10**12


def row(scope=Scope.ALL, tasks=4, solved=2, cost_usd=1.0, tokens=4000):
    return AggregateRow(
        scope=scope,
        task_count=tasks,
        solved_count=solved,
        total_cost_pico=int(cost_usd * tasks * PICO),
        total_tokens=tokens,
    )


SAMPLE = [
    row(Scope.ALL, 4, 2, 0.5, 4000),
    row(Scope.L1, 2, 2, 0.25, 1500),
    row(Scope.L2, 2, 0, 0.75, 2500),
]


def test_format_cost():
    assert format_cost(1.23456789) == "1.2346"
    assert format_cost(math.inf) == "inf"
    assert format_cost(0.0) == "0.0000"


def test_filter_scope():
    assert filter_scope(SAMPLE, "l1") == [SAMPLE[1]]
    assert filter_scope(SAMPLE, Scope.ALL) == [SAMPLE[0]]
    with pytest.raises(ValueError, match="l3"):
        filter_scope(SAMPLE, "l3")


TABLE_GOLDEN = (
    "scope    tasks  solved  acc %  mean $  $ / solve  mean tok\n"
    "----------------------------------------------------------\n"
    "all          4       2   50.0  0.5000     1.0000      1000\n"
    "level 1      2       2  100.0  0.2500     0.2500       750\n"
    "level 2      2       0    0.0  0.7500        inf      1250\n"
)


def test_render_table_golden():
    assert render_table(SAMPLE, title="demo") == "demo\n" + TABLE_GOLDEN
    assert render_table(SAMPLE) == TABLE_GOLDEN


def parse_csv(text):
    """Reference parser: rows rebuilt from render_csv output's integer columns."""
    counts = ("task_count", "solved_count", "total_cost_pico", "total_tokens")
    return [
        AggregateRow(Scope(rec["scope"]), *(int(rec[k]) for k in counts))
        for rec in csv.DictReader(io.StringIO(text))
    ]


def test_csv_round_trip_is_exact():
    text = render_csv(SAMPLE)
    lines = text.splitlines()
    assert lines[0].startswith("scope,task_count")
    assert parse_csv(text) == SAMPLE


@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=10**13),
    st.integers(min_value=0, max_value=10**6),
)
def test_csv_round_trip_property(tasks, solved, cost, tokens):
    r = AggregateRow(
        scope=Scope.L2,
        task_count=tasks,
        solved_count=min(solved, tasks),
        total_cost_pico=cost,
        total_tokens=tokens,
    )
    assert parse_csv(render_csv([r])) == [r]


def test_csv_prints_inf_for_unsolved():
    text = render_csv([row(Scope.ALL, 2, 0, 1.0)])
    assert ",inf," in text


def test_svg_is_deterministic_and_places_points():
    one = render_svg(SAMPLE)
    two = render_svg(SAMPLE)
    assert one == two
    assert one.startswith("<svg ")
    assert one.count("<circle ") == 3
    # x axis runs 0 .. 1.1*max mean cost; margins are 56 px on a 640x420 canvas
    # all row: mean cost 0.5 of max 0.75*1.1=0.825 -> 56 + 0.5/0.825*528
    expected_x = round(56 + 0.5 / 0.825 * 528, 2)
    assert f'cx="{expected_x}"' in one
    # accuracy 50% sits halfway up the 308 px plot: 420-56-154
    assert 'cy="210.0"' in one
    assert "accuracy (%)" in one and "mean cost per task (USD)" in one


def test_svg_validation():
    with pytest.raises(ValueError):
        render_svg([])
    with pytest.raises(ValueError):
        render_svg(SAMPLE, labels=["just one"])
    labeled = render_svg(SAMPLE, labels=["a", "b", "c"])
    assert ">a</text>" in labeled


def test_svg_escapes_title_and_labels():
    svg = render_svg(SAMPLE, labels=["a<b", "c&d", "e>f"], title="x & <y>")
    texts = [t.text for t in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "x & <y>"
    assert texts[-3:] == ["a<b", "c&d", "e>f"]


def test_render_report_dispatch():
    assert render_report(SAMPLE, "table").startswith("scope")
    assert render_report(SAMPLE, "csv").startswith("scope,")
    assert render_report(SAMPLE, "svg").startswith("<svg")
    with pytest.raises(ValueError, match="table, csv, svg"):
        render_report(SAMPLE, "pdf")


def test_render_sweep_table():
    out = render_sweep_table(
        [("4", row(Scope.ALL, 3, 1, 0.2)), ("8", row(Scope.ALL, 3, 2, 0.4))],
        axis="max_steps",
    )
    assert out == (
        "max_steps  tasks  acc %  mean $  $ / solve  mean tok\n"
        "----------------------------------------------------\n"
        "4              3   33.3  0.2000     0.6000      1333\n"
        "8              3   66.7  0.4000     0.6000      1333\n"
    )
    # a value wider than the axis name widens the first column
    out = render_sweep_table(
        [("x", row(Scope.ALL, 3, 1, 0.2)), ("memory_long_value", row(Scope.ALL, 3, 0, 0.4))],
        axis="a",
    )
    assert out == (
        "a                  tasks  acc %  mean $  $ / solve  mean tok\n"
        "------------------------------------------------------------\n"
        "x                      3   33.3  0.2000     0.6000      1333\n"
        "memory_long_value      3    0.0  0.4000        inf      1333\n"
    )
