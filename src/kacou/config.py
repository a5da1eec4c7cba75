"""Run configuration: flat key=value text with [section] headers, validated
before any computation, plus the content hash used in reproducibility
manifests."""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .errors import KacOuError, ParameterError
from .model import KacOuModel, _finite, _state, _whole

__all__ = ["ConfigError", "RunConfig", "load_config", "config_hash"]

# the spellings configparser itself accepts: 1/true/yes/on and 0/false/no/off
_BOOLEAN_STATES = configparser.ConfigParser.BOOLEAN_STATES
_BOOLEAN_HINT = " as a boolean (1/true/yes/on or 0/false/no/off)"

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

    def get_list(self, section: str, key: str, default=None):
        return self._parse(section, key, default, lambda raw: [float(tok) for tok in raw.replace(",", " ").split()])

    def finite(self, name: str, default=None, least: float = -math.inf, many: bool = False):
        """A finite number of at least `least`."""
        return self._read(name, default, many, _finite, least=least)

    def positive(self, name: str, default=None, many: bool = False):
        """A finite, positive number."""
        return self._read(name, default, many, _finite, positive=True)

    def count(self, name: str, default=None, least: int = 1, most: float = math.inf, many: bool = False):
        """A whole number from `least` to `most`, as an int."""
        value = self._read(name, default, many, _whole, _integer, least=least)
        if (top := max(value if many else [value])) > most:
            raise ConfigError(name, f"must be at most {most:.3g}, got {top:.15g}")
        return value

    def state(self, name: str, default=None) -> int:
        """A chain state, 0 or 1."""
        return self._read(name, default, False, _state)

    def _read(self, name: str, default, many: bool, reader, parse=float, **rule):
        """The value readers' common part: kacou.model's `reader`(value, name, **rule) on the entry at
        "section.key" `name` (on each entry of its nonempty list with `many`) or `default`, a refusal a ConfigError."""
        section, key = name.split(".", 1)
        value = self.get_list(section, key, default) if many else self.get(section, key, default, parse)
        if many and not value:
            raise ConfigError(name, "must list at least one value")
        try:
            return [reader(v, name, **rule) for v in value] if many else reader(value, name, **rule)
        except ParameterError as exc:
            raise ConfigError(name, str(exc).removeprefix(f"{name} ")) from exc

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


def _integer(raw: str):
    """An integer's text as an int, every digit kept (a seed's too), any other number's as a float."""
    return int(raw) if raw.strip().lstrip("+-").isdigit() else float(raw)


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
        section, key = (part.strip() for part in target.split(".", 1))
        if section == parser.default_section:  # configparser's defaults, which add_section refuses
            raise ConfigError(f"{section}.{key}", f"override section must not be {section}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())


def _canonical_text(sections: dict) -> str:
    """Every entry as section.key=value, sorted by section and then key."""
    lines = []
    for section in sorted(sections):
        for key in sorted(sections[section]):
            lines.append(f"{section}.{key}={sections[section][key]}")
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

    sections = {s: dict(parser.items(s)) for s in parser.sections()}
    cfg = RunConfig(model=None, seed=0, out_dir="out", sections=sections, raw_text=_canonical_text(sections))
    cfg.model = KacOuModel.from_values(
        cfg.positive("model.lambda0"),
        cfg.positive("model.lambda1"),
        cfg.finite("model.a0"),
        cfg.finite("model.a1"),
        cfg.finite("model.b0", least=0.0),
        cfg.finite("model.b1", least=0.0),
        cfg.finite("model.gamma0"),
        cfg.finite("model.gamma1"),
    )
    cfg.seed = cfg.count("run.seed", 0, least=-math.inf)
    cfg.out_dir = cfg.get("run", "out_dir", "out", cast=str)
    return cfg
