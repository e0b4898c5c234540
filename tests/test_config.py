import dataclasses
import math
from enum import Enum

import pytest

from agentmeter.config import (
    SWEEPABLE_FIELDS,
    AgentConfig,
    ConfigIssue,
    InvalidConfigError,
    MemoryMode,
    MissingPricingError,
    ModelPricing,
    PageStrategy,
    PricingTable,
    PrmMode,
    SourceSet,
    coerce_field,
    config_from_snapshot,
    config_hash,
    config_issues,
    config_snapshot,
    default_config,
    default_pricing,
    efficient_config,
    parse_config,
    validate_config,
)
from agentmeter.harness import sweep_configs
from agentmeter.money import MoneyResolutionError


def test_default_config_values():
    cfg = default_config()
    assert cfg.backbone_id == "gpt-4.1"
    assert cfg.max_steps == 12
    assert cfg.plan_interval == 1
    assert cfg.source_set is SourceSet.SIMPLE
    assert cfg.query_expansion_count == 10
    assert cfg.bon_n == 1
    assert cfg.memory_mode is MemoryMode.SIMPLE
    assert cfg.page_strategy is PageStrategy.CRAWLER_STATIC
    assert cfg.prm_mode is PrmMode.SCORE
    assert cfg.temperature == 0.0
    assert cfg.bon_temperature == 0.7


def test_efficient_preset_diff_is_exactly_three_fields():
    base, eff = default_config(), efficient_config()
    diff = {
        f.name
        for f in dataclasses.fields(AgentConfig)
        if getattr(base, f.name) != getattr(eff, f.name)
    }
    assert diff == {"max_steps", "source_set", "query_expansion_count"}
    assert eff.max_steps == 8
    assert eff.source_set is SourceSet.MULTI
    assert eff.query_expansion_count == 5


def test_source_set_providers():
    assert SourceSet.SIMPLE.providers == ("google", "wikipedia")
    assert SourceSet.MULTI.providers == (
        "google",
        "wikipedia",
        "bing",
        "baidu",
        "duckduckgo",
    )


def test_memory_modes_are_six():
    assert len(MemoryMode) == 6


def test_judge_model_defaults_to_backbone():
    cfg = default_config()
    assert cfg.judge_model_id == cfg.backbone_id
    other = dataclasses.replace(cfg, prm_backbone_id="gpt-4.1-mini")
    assert other.judge_model_id == "gpt-4.1-mini"


def test_config_is_frozen():
    cfg = default_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_steps = 5


# -- pricing -----------------------------------------------------------------


def test_per_million_is_exact():
    p = ModelPricing.per_million("2.00", "8.00")
    assert p.input_pico_per_token == 2_000_000
    assert p.output_pico_per_token == 8_000_000


def test_per_million_rejects_sub_pico_rates():
    with pytest.raises(MoneyResolutionError):
        ModelPricing.per_million("0.0000001", "1.00")  # 1e-7 USD / 1M = 1e-13 / token


def test_negative_prices_rejected():
    with pytest.raises(ValueError):
        ModelPricing(-1, 0)


def test_pricing_lookup_and_missing():
    table = PricingTable({"m": ModelPricing(1, 2)})
    assert table.lookup("m").output_pico_per_token == 2
    assert "m" in table and "x" not in table
    with pytest.raises(MissingPricingError):
        table.lookup("x")


def test_pricing_snapshot_round_trip():
    table = default_pricing()
    clone = PricingTable.from_snapshot(table.snapshot())
    assert clone.models() == tuple(sorted(table.models()))
    for model in table.models():
        assert clone.lookup(model) == table.lookup(model)
    assert clone.effective_date == table.effective_date


def test_default_pricing_covers_default_backbone():
    validate_config(default_config(), default_pricing())


# -- validation --------------------------------------------------------------


def test_validate_flags_bad_ranges(pricing):
    bad = dataclasses.replace(
        default_config(), max_steps=0, retrieval_k=-2, temperature=math.nan, bon_temperature=math.inf
    )
    issues = config_issues(bad, pricing)
    assert {i.field for i in issues} == {
        "max_steps", "retrieval_k", "temperature", "bon_temperature"
    }
    with pytest.raises(InvalidConfigError):
        validate_config(bad, pricing)


def test_validate_flags_missing_pricing():
    cfg = default_config()
    issues = config_issues(cfg, PricingTable({}))
    assert any(i.kind == "missing_pricing" for i in issues)


def test_validate_checks_judge_model_pricing(pricing):
    cfg = dataclasses.replace(default_config(), prm_backbone_id="other-model")
    issues = config_issues(cfg, pricing)
    assert any(i.field == "prm_backbone_id" for i in issues)


def test_issue_is_plain_data():
    issue = ConfigIssue("range", "max_steps", "msg")
    assert issue.kind == "range"


# -- snapshot / hash ---------------------------------------------------------


def test_snapshot_round_trip():
    cfg = dataclasses.replace(
        efficient_config(),
        memory_mode=MemoryMode.EXTRA_HYBRID,
        page_strategy=PageStrategy.BROWSER_COMPLEX,
        prm_mode=PrmMode.LIST,
        bon_n=4,
    )
    assert config_from_snapshot(config_snapshot(cfg)) == cfg


def test_hash_is_stable_and_sensitive():
    a = config_hash(default_config())
    assert a == config_hash(default_config())
    assert len(a) == 8
    assert a != config_hash(efficient_config())


def test_sweepable_fields():
    assert set(SWEEPABLE_FIELDS) == {
        "backbone_id",
        "max_steps",
        "plan_interval",
        "source_set",
        "query_expansion_count",
        "bon_n",
        "memory_mode",
    }


# -- INI round trip ----------------------------------------------------------


def test_parse_partial_agent_section():
    cfg, table = parse_config("[agent]\nmax_steps = 4\n")
    assert cfg.max_steps == 4
    assert cfg.plan_interval == default_config().plan_interval
    assert table.models() == ()


def test_parse_pricing_sections():
    text = (
        "[pricing]\neffective_date = 2025-01-31\n"
        "[pricing.m1]\ninput = 0.40\noutput = 1.60\n"
    )
    _, table = parse_config(text)
    assert table.effective_date.isoformat() == "2025-01-31"
    assert table.lookup("m1").input_pico_per_token == 400_000


def test_parse_rejects_unknown_enum_value():
    with pytest.raises(ValueError):
        parse_config("[agent]\nsource_set = everything\n")


# -- field coercion ----------------------------------------------------------


def _field_values():
    """Every AgentConfig field with a non-default value; every enum value."""
    base = default_config()
    for f in dataclasses.fields(AgentConfig):
        default = getattr(base, f.name)
        if isinstance(default, Enum):
            values = list(type(default))
        elif isinstance(default, int):
            values = [default + 1]
        elif isinstance(default, float):
            values = [default + 0.25]
        else:  # model ids, including the optional judge model
            values = ["gpt-4.1-mini"]
        for value in values:
            label = value.value if isinstance(value, Enum) else value
            yield pytest.param(f.name, value, id=f"{f.name}={label}")


@pytest.mark.parametrize("name,value", _field_values())
def test_every_field_round_trips_through_every_reader(name, value):
    cfg = dataclasses.replace(default_config(), **{name: value})
    assert coerce_field(name, value) is value
    raw = value.value if isinstance(value, Enum) else str(value)
    assert parse_config(f"[agent]\n{name} = {raw}\n")[0] == cfg
    assert config_from_snapshot(config_snapshot(cfg)) == cfg
    if name in SWEEPABLE_FIELDS:
        assert sweep_configs(default_config(), name, [raw]) == [cfg]
    if isinstance(value, Enum):
        upper = raw.upper()
        assert parse_config(f"[agent]\n{name} = {upper}\n")[0] == cfg
        assert config_from_snapshot({**config_snapshot(cfg), name: upper}) == cfg
        if name in SWEEPABLE_FIELDS:
            assert sweep_configs(default_config(), name, [upper]) == [cfg]


def test_coerce_field_rejects_unknown_field():
    with pytest.raises(TypeError, match="no_such_field"):
        coerce_field("no_such_field", "1")
    with pytest.raises(TypeError):
        config_from_snapshot({**config_snapshot(default_config()), "no_such_field": 1})
