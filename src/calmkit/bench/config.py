"""Structured key-value experiment configs.

A config is a plain text document of `key = value` lines with `#` comments.
Keys are dotted paths into the sections below; unknown keys are rejected with
the list of valid ones. Every key has a documented default, so the empty
document is a complete default experiment. Every integer key but `seed`, which
lies in [0, 2^63), stays below 2^32, and `family.num_tasks` at most MAX_TASKS.
The `plan.*` and `ties.*` sections parse straight into `MergePlan` and
`TiesConfig`, so their checks run when the config is resolved.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any

from ..baselines import TiesConfig
from ..calm import MergePlan, partition
from ..nn import ContractError
from ..tasks import TaskFamily, TrainConfig, model_spec

METHODS = ("avg", "ta", "ties", "calm")
SAMPLING_MODES = ("ems", "cb_ems")
MASK_OBJECTIVES = ("pseudo", "supervised", "entropy")
REPORT_TOKENS = ("accuracy", "layer_density", "density_trace", "objective_trace",
                 "magnitude_overlap")
SUITES = ("sampling_rate", "strategy", "order", "reg_coef", "lr", "components")
# The most tasks a family may have, checked as the key parses: the pipeline trains,
# samples and merges each task in turn, and `partition` permutes every task id.
MAX_TASKS = 1024


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class SamplingConfig:
    mode: str = "cb_ems"
    rate: float = 0.9
    objective: str = "pseudo"

    def __post_init__(self):
        if self.mode not in SAMPLING_MODES:
            raise ConfigError(f"sampling.mode must be one of {SAMPLING_MODES}")
        if not 0.0 < self.rate <= 1.0:
            raise ConfigError(f"sampling.rate must lie in (0, 1], got {self.rate}")
        if self.objective not in MASK_OBJECTIVES:
            raise ConfigError(f"sampling.objective must be one of {MASK_OBJECTIVES}")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """A resolved experiment; `build_config` draws the plan's sequence from the seed when
    the config names none."""

    seed: int = 0
    method: str = "calm"
    report: tuple[str, ...] = ("accuracy",)
    family: TaskFamily = field(default_factory=TaskFamily)
    train: TrainConfig = field(default_factory=TrainConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    plan: MergePlan
    ties: TiesConfig = field(default_factory=TiesConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        for token in self.report:
            if token not in REPORT_TOKENS:
                raise ConfigError(f"unknown report token {token!r}; valid: {REPORT_TOKENS}")
        if self.family.num_tasks < 2:
            raise ConfigError("family.num_tasks must be >= 2 for merging experiments")


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _str_tuple(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parser(default: Any):
    """The text parser for a key, chosen by the type of its default."""
    if isinstance(default, tuple):
        return _str_tuple if isinstance(default[0], str) else _int_tuple
    return {bool: _bool, int: int, float: float, str: str}[type(default)]


def _schema() -> dict[str, tuple[str | None, str, Any]]:
    """key -> (section, field, parser); section None targets ExperimentConfig itself.

    The keys are each section's fields that have a default, in field order. The
    sections' seeds are not keys, as they follow the top-level seed; plan.sequential_set,
    whose default is drawn from the seed, comes first in the plan section.
    """
    keys: dict[str, tuple[str | None, str, Any]] = {}
    for section, cls in ((None, ExperimentConfig), ("family", TaskFamily), ("train", TrainConfig),
                         ("sampling", SamplingConfig), ("plan", MergePlan), ("ties", TiesConfig)):
        if section == "plan":
            keys["plan.sequential_set"] = ("plan", "sequential_set", _int_tuple)
        for f in fields(cls):
            if f.default is not MISSING and not (section and f.name == "seed"):
                keys[f"{section}.{f.name}" if section else f.name] = (section, f.name,
                                                                       _parser(f.default))
    return keys


_KEYS = _schema()
CONFIG_KEYS = tuple(_KEYS)


def parse_entries(text: str) -> dict[str, str]:
    """Raw `key = value` pairs from a config document."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; valid keys: {', '.join(CONFIG_KEYS)}"
            )
        entries[key] = value
    return entries


def build_config(entries: dict[str, str]) -> ExperimentConfig:
    sections: dict[str | None, dict[str, Any]] = {section: {} for section, _, _ in _KEYS.values()}
    for key, raw in entries.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}; valid keys: {', '.join(CONFIG_KEYS)}")
        section, name, parser = _KEYS[key]
        try:
            value = parser(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {raw!r} ({exc})") from exc
        most = MAX_TASKS if key == "family.num_tasks" else 2**32 - 1
        if parser in (int, _int_tuple) and key != "seed" and max(
                value if isinstance(value, tuple) else (value,), default=0) > most:
            raise ConfigError(f"key {key!r}: {raw!r} exceeds the maximum {most}")
        sections[section][name] = value
    seed = sections[None].get("seed", 0)
    if not 0 <= seed < 2**63:
        raise ConfigError(f"seed must lie in [0, 2^63), got {seed}")
    sections["family"].setdefault("seed", seed)
    built: dict[str, Any] = {}
    for section, make in (("family", TaskFamily), ("train", TrainConfig),
                          ("sampling", SamplingConfig), ("ties", TiesConfig)):
        try:
            built[section] = make(**sections[section])
        except ContractError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    try:  # the model's own checks: hidden widths and activation
        model_spec(built["family"], built["train"])
    except ContractError as exc:
        raise ConfigError(f"train: {exc}") from exc
    num_tasks = built["family"].num_tasks
    try:  # a config that names no sequence takes the seeded partition's first 2 tasks
        plan = replace(partition(range(num_tasks), min(2, num_tasks), seed), **sections["plan"])
        plan.bulk_set(num_tasks)
    except ContractError as exc:
        raise ConfigError(f"plan: {exc}") from exc
    return ExperimentConfig(**sections[None], plan=plan, **built)


def apply_overrides(config: ExperimentConfig, overrides: dict[str, Any]) -> ExperimentConfig:
    """Re-resolve a config with extra `key = value` pairs on top; values may be text or
    typed, and the resolved plan.sequential_set holds unless they name it."""
    merged = dict(config_entries(config))
    merged.update({key: _format_value(value) for key, value in overrides.items()})
    return build_config(merged)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_entries(config: ExperimentConfig) -> dict[str, str]:
    entries: dict[str, str] = {}
    for key, (section, name, _) in _KEYS.items():
        holder = config if section is None else getattr(config, section)
        entries[key] = _format_value(getattr(holder, name))
    return entries


def config_text(config: ExperimentConfig) -> str:
    """Deterministic textual form of a fully resolved config."""
    lines = [f"{key} = {value}" for key, value in config_entries(config).items()]
    return "\n".join(lines) + "\n"


def default_config_text() -> str:
    return config_text(build_config({}))

