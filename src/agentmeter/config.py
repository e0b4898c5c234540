"""Experiment configuration: agent component settings, model pricing, presets.

A configuration pins every component that the benchmark harness can vary:
the backbone model, the step budget, the replanning cadence, the search
source set and query-expansion count, the best-of-N width, and the memory
mode. Configurations and pricing tables are immutable after load and safe
to share across concurrent runs.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from datetime import date
from enum import Enum
from functools import cache
from pathlib import Path
from typing import get_args, get_type_hints

from .money import TOKENS_PER_MILLION, MoneyResolutionError, usd_to_pico

GPT_4_1 = "gpt-4.1"


class SourceSet(Enum):
    """Which search engines a run fans queries out to."""

    SIMPLE = "simple"
    MULTI = "multi"

    @property
    def providers(self) -> tuple[str, ...]:
        if self is SourceSet.SIMPLE:
            return ("google", "wikipedia")
        return ("google", "wikipedia", "bing", "baidu", "duckduckgo")


class MemoryMode(Enum):
    """How step history and auxiliary memory are rendered into the actor context."""

    SIMPLE = "simple"
    SUMMARIZED = "summarized"
    NO_EXTRA = "no_extra"
    EXTRA_SUMMARIZED = "extra_summarized"
    EXTRA_FIXED = "extra_fixed"
    EXTRA_HYBRID = "extra_hybrid"


class PrmMode(Enum):
    """How best-of-N candidates are judged: per-candidate score or one list pick."""

    SCORE = "score"
    LIST = "list"


class PageStrategy(Enum):
    """How fetched pages are turned into observations.

    The static crawler extracts the whole page text at once; the simple
    browser shows only the first viewport; the complex browser adds
    page_up/page_down navigation over viewports.
    """

    CRAWLER_STATIC = "crawler_static"
    BROWSER_SIMPLE = "browser_simple"
    BROWSER_COMPLEX = "browser_complex"


@dataclass(frozen=True)
class AgentConfig:
    """One full experiment configuration row.

    The dataclass defaults are the baseline setup that component sweeps
    start from. ``temperature`` drives the single-sample actor;
    ``bon_temperature`` is used only when ``bon_n > 1`` (identical
    candidates would make best-of-N pointless). Neither sampling
    temperature is prescribed anywhere upstream; both are documented
    implementer choices, as are ``retrieval_k`` and ``note_max_chars``.
    """

    backbone_id: str = GPT_4_1
    max_steps: int = 12
    plan_interval: int = 1
    source_set: SourceSet = SourceSet.SIMPLE
    query_expansion_count: int = 10
    bon_n: int = 1
    memory_mode: MemoryMode = MemoryMode.SIMPLE
    page_strategy: PageStrategy = PageStrategy.CRAWLER_STATIC
    prm_mode: PrmMode = PrmMode.SCORE
    prm_backbone_id: str | None = None
    temperature: float = 0.0
    bon_temperature: float = 0.7
    retrieval_k: int = 3
    note_max_chars: int = 2000

    @property
    def judge_model_id(self) -> str:
        """Model used by the best-of-N judge; falls back to the actor backbone."""
        return self.prm_backbone_id or self.backbone_id


def default_config() -> AgentConfig:
    """Baseline configuration every component sweep varies one field of."""
    return AgentConfig()


def efficient_config() -> AgentConfig:
    """Cost-tuned preset: shorter step budget, wider source set, fewer query expansions."""
    return replace(
        default_config(),
        max_steps=8,
        source_set=SourceSet.MULTI,
        query_expansion_count=5,
    )


efficient_agents_config = efficient_config


@dataclass(frozen=True)
class ModelPricing:
    """Per-token prices held as integer pico-dollars (1e-12 USD) per token."""

    input_pico_per_token: int
    output_pico_per_token: int

    def __post_init__(self) -> None:
        for price in (self.input_pico_per_token, self.output_pico_per_token):
            if type(price) is not int:  # an exact ledger takes whole pico-dollars
                raise TypeError(f"per-token prices must be integers, got {price!r}")
        if self.input_pico_per_token < 0 or self.output_pico_per_token < 0:
            raise ValueError("per-token prices must be non-negative")

    @classmethod
    def per_million(cls, input_usd: float | str, output_usd: float | str) -> "ModelPricing":
        """Build from USD-per-1M-token prices, the unit used in config files."""
        return cls(_pico_per_token(input_usd), _pico_per_token(output_usd))


def _pico_per_token(usd_per_million: float | str) -> int:
    """Exact pico-dollars per token of a non-negative USD-per-1M-tokens price."""
    pico_total = usd_to_pico(usd_per_million)
    if pico_total % TOKENS_PER_MILLION:
        raise MoneyResolutionError(
            f"{usd_per_million!r} USD/1M tokens is finer than 1e-12 USD per token"
        )
    if pico_total < 0:
        raise ValueError(f"{usd_per_million!r} is negative")
    return pico_total // TOKENS_PER_MILLION


def _iso_date(text: str) -> date:
    """The date of ``YYYY-MM-DD`` text, the one form every Python reads as
    such; any other text, such as ``20250601``, raises ``ValueError``."""
    value = date.fromisoformat(text)  # from 3.11 it also reads other ISO 8601 forms
    if value.isoformat() != text:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return value


class MissingPricingError(LookupError):
    """A model id has no pricing entry; silent zero prices are never assumed."""

    def __init__(self, model_id: str):
        super().__init__(f"no pricing entry for model {model_id!r}")
        self.model_id = model_id


class PricingTable:
    """Immutable model-id -> ModelPricing mapping."""

    def __init__(self, entries: dict[str, ModelPricing], effective_date: date | None = None):
        self._entries = dict(entries)
        self.effective_date = effective_date

    def lookup(self, model_id: str) -> ModelPricing:
        try:
            return self._entries[model_id]
        except KeyError:
            raise MissingPricingError(model_id) from None

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._entries

    def models(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def snapshot(self) -> dict:
        """JSON-safe exact dump, used in trace headers."""
        data: dict = {
            model: {
                "input_pico_per_token": p.input_pico_per_token,
                "output_pico_per_token": p.output_pico_per_token,
            }
            for model, p in sorted(self._entries.items())
        }
        return {
            "effective_date": self.effective_date.isoformat() if self.effective_date else None,
            "models": data,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "PricingTable":
        """The table a :meth:`snapshot` dump holds; anything else raises ``ValueError``."""
        try:
            entries = {
                model: ModelPricing(p["input_pico_per_token"], p["output_pico_per_token"])
                for model, p in data["models"].items()
            }
            eff = typed_value(str | None, data.get("effective_date"))
            return cls(entries, None if eff is None else _iso_date(eff))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"not a pricing snapshot ({type(exc).__name__}: {exc})") from None


def default_pricing() -> PricingTable:
    """Public list prices (USD per 1M tokens) for the usual backbones.

    Convenience only; benchmarks meant to be compared over time should
    pin prices in a config file instead.
    """
    return PricingTable(
        {
            "gpt-4.1": ModelPricing.per_million("2.00", "8.00"),
            "gpt-4.1-mini": ModelPricing.per_million("0.40", "1.60"),
            "gpt-4.1-nano": ModelPricing.per_million("0.10", "0.40"),
            "o4-mini": ModelPricing.per_million("1.10", "4.40"),
            "claude-3.7-sonnet": ModelPricing.per_million("3.00", "15.00"),
        },
        effective_date=date(2025, 6, 1),
    )


class InputError(Exception):
    """Input that cannot be used. Every error for a file, field or recording
    the program refuses derives from it; the CLI exits 2 on it."""


class InvalidConfigError(InputError, ValueError):
    pass


class UnknownFieldError(InvalidConfigError, TypeError):
    """A key that names no AgentConfig field: a TypeError too, as an unknown
    keyword argument is."""


_POSITIVE_FIELDS = (
    "max_steps",
    "plan_interval",
    "bon_n",
    "query_expansion_count",
    "retrieval_k",
    "note_max_chars",
)


def config_issues(cfg: AgentConfig, pricing: PricingTable) -> list[str]:
    issues = []
    for name in _POSITIVE_FIELDS:
        value = getattr(cfg, name)
        if value < 1:
            issues.append(f"{name} must be >= 1, got {value}")
    for name in ("temperature", "bon_temperature"):
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value >= 0):
            issues.append(f"{name} must be a finite number >= 0, got {value}")
    for model in (cfg.backbone_id, cfg.prm_backbone_id):
        if model is not None and model not in pricing:
            issues.append(f"no pricing entry for {model!r}")
    return issues


def validate_config(cfg: AgentConfig, pricing: PricingTable) -> AgentConfig:
    """Return the config unchanged if every invariant holds, else raise."""
    issues = config_issues(cfg, pricing)
    if issues:
        raise InvalidConfigError("; ".join(issues))
    return cfg


SWEEPABLE_FIELDS = (
    "backbone_id",
    "max_steps",
    "plan_interval",
    "source_set",
    "query_expansion_count",
    "bon_n",
    "memory_mode",
)


def config_snapshot(cfg: AgentConfig) -> dict:
    """JSON-safe field dump (enum fields by value)."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = value.value if isinstance(value, Enum) else value
    return out


@cache  # one entry per kind named in the program's field tables
def _kinds(kind) -> tuple:
    """The kinds ``typed_value`` accepts for ``kind``: each member of a union."""
    return get_args(kind) or (kind,)


def typed_value(kind, value, text: bool = False):
    """``value`` if its type is exactly ``kind``, the one rule for a value read
    from a file; anything else raises ``ValueError``. A bool is no int; an int
    may stand for a float; None passes only for an optional kind; an enum is
    given by its value, in any case. With ``text``, a str for a number kind is
    parsed first, as INI values, sweep values and task Levels are."""
    if type(value) is kind:  # the common case, without the cost of get_args
        return value
    kinds = _kinds(kind)
    for k in kinds:
        if type(value) is k:
            return value
        try:
            if k is float and type(value) is int:
                return float(value)
            if text and k in (int, float) and type(value) is str:
                return k(value)
        except (OverflowError, ValueError):  # OverflowError: an int too large for a float
            pass
        if type(value) is str and issubclass(k, Enum):
            member = k._value2member_map_.get(value.lower())
            if member is not None:
                return member
    raise ValueError(f"{value!r} is not a valid {kinds[0].__name__}")


def read_fields(raw: dict, kinds: dict, error, where: str, optional=(), text: bool = False) -> dict:
    """``typed_value`` of each field of record ``raw`` that ``kinds`` maps to
    its kind: the one reader of a record read from a file or a recording. A
    field missing from ``raw`` is left out if it is ``optional``; otherwise,
    or when its value is refused, ``error`` is raised with the message
    ``<where><name> is missing or invalid: <value!r>``. ``where`` ends just
    before the field name, such as ``"tasks.jsonl:3: field "``."""
    values = {}
    for name, kind in kinds.items():
        if name in raw:
            value = raw[name]
            try:
                values[name] = typed_value(kind, value, text)
                continue
            except ValueError:
                pass
        elif name in optional:
            continue
        else:
            value = None
        raise error(f"{where}{name} is missing or invalid: {value!r}")
    return values


_FIELD_TYPES = get_type_hints(AgentConfig)


def coerce_field(name: str, value):
    """``typed_value`` of a value for AgentConfig field ``name``, text parsed
    first: the one conversion used by config files, trace snapshots and
    sweep axes. A bad value raises ``InvalidConfigError``."""
    try:
        kind = _FIELD_TYPES[name]
    except KeyError:
        raise UnknownFieldError(f"AgentConfig has no field {name!r}") from None
    try:
        return typed_value(kind, value, text=True)
    except ValueError as exc:
        raise InvalidConfigError(f"{name}: {exc}") from None


def config_from_snapshot(data: dict) -> AgentConfig:
    """The config of a trace header's snapshot or an ``[agent]`` section.

    A missing key keeps its default; a key that names no field raises
    ``InvalidConfigError``.
    """
    return AgentConfig(**{name: coerce_field(name, value) for name, value in data.items()})


def config_hash(cfg: AgentConfig) -> str:
    """Short stable digest used in trace file names."""
    canon = json.dumps(config_snapshot(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:8]


# -- config file I/O ---------------------------------------------------------
#
# UTF-8 key/value document. Section [agent] holds the experiment fields;
# one [pricing.<model-id>] section per model with input/output prices in
# USD per 1M tokens. Environment variables never override these values;
# they carry API credentials only.


def parse_config(text: str, source: str = "<string>") -> tuple[AgentConfig, PricingTable]:
    """Read a config document; what is not valid raises ``InvalidConfigError``."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep model ids and keys case-sensitive
    try:
        parser.read_string(text, source=source)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise InvalidConfigError(f"{source}: {' '.join(str(exc).split())}") from None

    cfg = config_from_snapshot(sections.get("agent", {}))

    entries: dict[str, ModelPricing] = {}
    effective: date | None = None
    for section, values in sections.items():
        if section == "pricing":
            if values.get("effective_date"):
                effective = _file_value(section, values, "effective_date", _iso_date)
        elif section.startswith("pricing."):
            prices = [_file_value(section, values, key, _pico_per_token) for key in ("input", "output")]
            entries[section[len("pricing.") :]] = ModelPricing(*prices)
    return cfg, PricingTable(entries, effective)


def _file_value(section: str, values: dict, key: str, convert):
    """``convert`` of the value of ``key``; a missing or bad value raises
    ``InvalidConfigError`` naming the section and key."""
    try:
        if key not in values:
            raise ValueError("missing")
        return convert(values[key])
    except ValueError as exc:  # MoneyResolutionError among them
        raise InvalidConfigError(f"[{section}] {key}: {exc}") from None


def load_config(path: str | Path) -> tuple[AgentConfig, PricingTable]:
    return parse_config(read_text(path, InvalidConfigError), source=str(path))


# -- input files -------------------------------------------------------------


def read_text(path: str | Path, error) -> str:
    """The text of UTF-8 file ``path``; other bytes raise ``error(message)``
    citing ``file:line``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # its object is the whole file
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 ({exc.reason})") from None


def jsonl_objects(path: str | Path, error, noun: str):
    """``(line number, object)`` for each non-blank line of UTF-8 JSONL file
    ``path``; a line that is not a JSON object raises ``error(message)``
    citing ``file:line``."""
    for lineno, line in enumerate(read_text(path, error).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise error(f"{path}:{lineno}: {noun} must be a JSON object")
        yield lineno, raw
