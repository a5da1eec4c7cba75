"""Run configuration: flat key=value text with [section] headers, validated
before any computation, plus the content hash used in reproducibility
manifests."""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .errors import KacOuError
from .model import KacOuModel

__all__ = ["ConfigError", "RunConfig", "load_config", "config_hash"]

# the spellings configparser itself accepts: 1/true/yes/on and 0/false/no/off
_BOOLEAN_STATES = configparser.ConfigParser.BOOLEAN_STATES
_BOOLEAN_HINT = " as a boolean (1/true/yes/on or 0/false/no/off)"

MODEL_KEYS = ("lambda0", "lambda1", "a0", "a1", "b0", "b1", "gamma0", "gamma1")


class ConfigError(KacOuError):
    """Invalid or missing configuration entry; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass
class RunConfig:
    """Parsed configuration: the model block plus raw per-command sections."""

    model: KacOuModel
    seed: int
    out_dir: str
    sections: dict = field(default_factory=dict)
    raw_text: str = ""

    def get(self, section: str, key: str, default=None, cast=float):
        if cast is bool:
            return self._parse(section, key, default, _boolean, _BOOLEAN_HINT)
        return self._parse(section, key, default, cast)

    def get_list(self, section: str, key: str, default=None, cast=float):
        def parse(raw):
            return [cast(tok) for tok in raw.replace(",", " ").split()]

        return self._parse(section, key, default, parse)

    def _parse(self, section: str, key: str, default, parse, what: str = ""):
        """`parse` applied to the entry's text, or `default` when the entry is
        absent; a missing required key or a ValueError is a ConfigError."""
        block = self.sections.get(section, {})
        if key not in block:
            if default is None:
                raise ConfigError(f"{section}.{key}", "required key is missing")
            return default
        raw = block[key]
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}", f"cannot parse {raw!r}{what}") from exc


def _boolean(raw: str) -> bool:
    value = _BOOLEAN_STATES.get(raw.strip().lower())
    if value is None:
        raise ValueError(raw)
    return value


def _apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(item, "override must look like section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(target, "override key must be section.key")
        section, key = target.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section.strip(), key.strip(), value.strip())


def _parse_model(parser: configparser.ConfigParser) -> KacOuModel:
    if not parser.has_section("model"):
        raise ConfigError("model", "missing [model] section")
    values = {}
    for key in MODEL_KEYS:
        if not parser.has_option("model", key):
            raise ConfigError(f"model.{key}", "required key is missing")
        raw = parser.get("model", key)
        try:
            values[key] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"model.{key}", f"cannot parse {raw!r}") from exc
        if not math.isfinite(values[key]):
            raise ConfigError(f"model.{key}", f"must be finite, got {raw!r}")
    if values["lambda0"] <= 0.0:
        raise ConfigError("model.lambda0", "switching rate must be positive")
    if values["lambda1"] <= 0.0:
        raise ConfigError("model.lambda1", "switching rate must be positive")
    if values["b0"] < 0.0:
        raise ConfigError("model.b0", "diffusion amplitude must be >= 0")
    if values["b1"] < 0.0:
        raise ConfigError("model.b1", "diffusion amplitude must be >= 0")
    return KacOuModel.from_values(**values)


def _canonical_text(parser: configparser.ConfigParser) -> str:
    lines = []
    for section in sorted(parser.sections()):
        for key in sorted(parser.options(section)):
            lines.append(f"{section}.{key}={parser.get(section, key)}")
    return "\n".join(lines) + "\n"


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_config(path: str | None, overrides=None, text: str | None = None) -> RunConfig:
    """Read and validate a config file (or literal text) with overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if text is None:
        if path is None:
            raise ConfigError("config", "no configuration given")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    parser.read_string(text)
    _apply_overrides(parser, overrides)

    model = _parse_model(parser)
    canonical = _canonical_text(parser)

    seed = 0
    if parser.has_option("run", "seed"):
        try:
            seed = int(parser.get("run", "seed"))
        except ValueError as exc:
            raise ConfigError("run.seed", "seed must be an integer") from exc
    out_dir = parser.get("run", "out_dir") if parser.has_option("run", "out_dir") else "out"

    sections = {s: dict(parser.items(s)) for s in parser.sections()}
    return RunConfig(model=model, seed=seed, out_dir=out_dir, sections=sections, raw_text=canonical)
