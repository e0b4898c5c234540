import dataclasses
import math
from enum import Enum
from pathlib import Path

import pytest

import agentmeter
from agentmeter.config import (
    AgentConfig,
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
    config_snapshot,
    default_config,
    default_pricing,
    efficient_config,
    json_value,
    parse_config,
    read_fields,
    refused,
    validate_config,
)
from agentmeter.harness import sweep_configs
from agentmeter.money import MoneyResolutionError

from conftest import FIXTURES, trace_lines


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
    with pytest.raises(InvalidConfigError) as exc:
        validate_config(bad, pricing)
    assert str(exc.value) == (
        "max_steps must be >= 1, got 0; "
        "retrieval_k must be >= 1, got -2; "
        "temperature must be a finite number >= 0, got nan; "
        "bon_temperature must be a finite number >= 0, got inf"
    )


def test_validate_flags_missing_pricing():
    with pytest.raises(InvalidConfigError, match="^no pricing entry for 'gpt-4.1'$"):
        validate_config(default_config(), PricingTable({}))


def test_validate_checks_judge_model_pricing(pricing):
    cfg = dataclasses.replace(default_config(), prm_backbone_id="other-model")
    with pytest.raises(InvalidConfigError, match="^no pricing entry for 'other-model'$"):
        validate_config(cfg, pricing)


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


def test_a_field_added_later_leaves_recorded_configs_their_hash():
    later = dataclasses.make_dataclass(
        "LaterConfig", [("max_cost_usd", float | None, dataclasses.field(default=None))],
        bases=(AgentConfig,), frozen=True,
    )
    for cfg in (default_config(), efficient_config()):
        at_default = later(**vars(cfg))
        assert config_snapshot(at_default) == config_snapshot(cfg)
        assert config_hash(at_default) == config_hash(cfg)
        changed = dataclasses.replace(at_default, max_cost_usd=0.5)
        assert config_snapshot(changed) == {**config_snapshot(cfg), "max_cost_usd": 0.5}
        assert config_hash(changed) != config_hash(cfg)
    # a trace recorded before the field existed names the hash its config still has
    header = trace_lines(next((FIXTURES / "level9").iterdir()))[0]
    recorded = later(**vars(config_from_snapshot(header["config"])))
    assert config_hash(recorded) == header["config_hash"]


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


@pytest.mark.parametrize("text", ["20250601", "2025-W23-7", "2025-6-1", "soon"])
def test_parse_refuses_an_effective_date_not_yyyy_mm_dd(text):
    message = rf"^\[pricing\] effective_date: Invalid isoformat string: '{text}'$"
    with pytest.raises(InvalidConfigError, match=message):
        parse_config(f"[pricing]\neffective_date = {text}\n")


@pytest.mark.parametrize("value", [0, False, "", [], {}, "20250601", "2025-W23-7"])
def test_pricing_snapshot_refuses_an_effective_date_not_null_or_yyyy_mm_dd(value):
    snapshot = {**default_pricing().snapshot(), "effective_date": value}
    with pytest.raises(ValueError):
        PricingTable.from_snapshot(snapshot)
    no_date = {**snapshot, "effective_date": None}
    assert PricingTable.from_snapshot(no_date).effective_date is None


def test_parse_rejects_unknown_agent_key():
    with pytest.raises(InvalidConfigError, match="AgentConfig has no field 'max_step'"):
        parse_config("[agent]\nmax_step = 3\n")


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
    assert sweep_configs(default_config(), name, [raw]) == [cfg]
    if isinstance(value, Enum):
        upper = raw.upper()
        assert parse_config(f"[agent]\n{name} = {upper}\n")[0] == cfg
        assert config_from_snapshot({**config_snapshot(cfg), name: upper}) == cfg
        assert sweep_configs(default_config(), name, [upper]) == [cfg]


def test_snapshot_values_must_have_the_field_type():
    # bool is no int, an int no str, and a fraction no whole step count
    for name, value in [("max_steps", True), ("max_steps", 12.7), ("temperature", True),
                        ("backbone_id", 5), ("source_set", "bogus"), ("source_set", 1)]:
        with pytest.raises(InvalidConfigError, match=f"{name}: {value!r} is not a valid"):
            config_from_snapshot({name: value})
    # an int stands for a float; None passes only for an optional field
    assert config_from_snapshot({"temperature": 1}).temperature == 1.0
    assert config_from_snapshot({"prm_backbone_id": None}).prm_backbone_id is None
    with pytest.raises(InvalidConfigError, match="backbone_id: None is not a valid str"):
        config_from_snapshot({"backbone_id": None})
    # text from INI files and sweep axes is parsed first; enum values in any case
    cfg = parse_config("[agent]\nmax_steps = 12\nsource_set = MULTI\n")[0]
    assert (cfg.max_steps, cfg.source_set) == (12, SourceSet.MULTI)
    assert sweep_configs(default_config(), "max_steps", ["12"])[0].max_steps == 12
    assert sweep_configs(default_config(), "source_set", ["MULTI"])[0].source_set is SourceSet.MULTI


def test_read_fields_types_each_field_of_a_record():
    kinds = {"name": str, "count": int, "note": str | None}

    def read(raw, **options):
        return read_fields(raw, kinds, InvalidConfigError, "r.jsonl:1: field ", **options)

    assert read({"name": "a", "count": 2, "note": None}) == {"name": "a", "count": 2, "note": None}
    # an optional field left out is left out; a missing one that is not optional is refused
    assert read({"name": "a", "count": 2}, optional=("note",)) == {"name": "a", "count": 2}
    with pytest.raises(InvalidConfigError) as info:
        read({"name": "a", "count": 2})
    assert str(info.value) == "r.jsonl:1: field note is missing or invalid: None"
    # a bool is no int; with text, an integer string is parsed
    with pytest.raises(InvalidConfigError) as info:
        read({"name": "a", "count": True, "note": None})
    assert str(info.value) == "r.jsonl:1: field count is missing or invalid: True"
    assert read({"name": "a", "count": "3", "note": None}, text=True)["count"] == 3
    with pytest.raises(InvalidConfigError, match="field count is missing or invalid: '3'"):
        read({"name": "a", "count": "3", "note": None})


def test_refused_turns_a_value_error_or_too_deep_a_value_into_the_readers_error():
    assert refused(InvalidConfigError, "r.jsonl:1: ", int, "12") == 12
    with pytest.raises(InvalidConfigError) as info:
        refused(InvalidConfigError, "r.jsonl:1: ", int, "x")
    assert str(info.value) == "r.jsonl:1: invalid literal for int() with base 10: 'x'"
    assert info.value.__cause__ is None and info.value.__suppress_context__
    with pytest.raises(InvalidConfigError, match="^r.jsonl:1: invalid JSON: maximum recursion"):
        json_value("[" * 100_000, InvalidConfigError, "r.jsonl:1: invalid JSON: ")
    with pytest.raises(KeyError):  # any other error is the caller's fault, not the input's
        refused(InvalidConfigError, "", {}.__getitem__, "k")


def test_only_config_decodes_json_files():
    # config.json_value is the one decoder of the files the program reads, so
    # each of them refuses bad JSON the same way; replies from outside services
    # (tts' raw_decode of a judge's reply, a response's .json()) are not files
    package = Path(agentmeter.__file__).parent
    decoding = {p.name for p in package.rglob("*.py") if "json.load" in p.read_text(encoding="utf-8")}
    assert decoding == {"config.py"}


def test_coerce_field_rejects_unknown_field():
    with pytest.raises(TypeError, match="no_such_field"):
        coerce_field("no_such_field", "1")
    with pytest.raises(TypeError):
        config_from_snapshot({**config_snapshot(default_config()), "no_such_field": 1})
