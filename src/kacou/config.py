"""Run configuration: flat key=value text with [section] headers, validated
before any computation, plus the content hash used in reproducibility
manifests.  KEYS names every key a command reads, with its reader and its
default; a config that sets any other key is refused."""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .errors import KacOuError, ParameterError
from .model import KacOuModel, _finite, _state, _whole
from .scaling import ScalingKind
from .simulate import SimCaps

__all__ = ["ConfigError", "KEYS", "Key", "RunConfig", "load_config", "config_hash"]


class ConfigError(KacOuError):
    """Invalid or missing configuration entry; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def _integer(raw: str):
    """An integer's text as an int, every digit kept (a seed's too), any other number's as a float."""
    return int(raw) if raw.strip().lstrip("+-").isdigit() else float(raw)


# each number kind's parse of the text, and kacou.model's reader of the number
_NUMBERS = {"finite": (float, _finite), "whole": (_integer, _whole), "state": (float, _state)}


@dataclass(frozen=True)
class Key:
    """How one config key is read.  A number kind, "finite", "whole" or
    "state", hands the number to kacou.model's _finite, _whole or _state with
    the keyword arguments `rule`, and refuses one above `most`; with `many`,
    each entry of a nonempty list split at commas and spaces.  "text" is the
    text as given, and a dict a choice: the value of the name given, in any
    case.  `default` is None where the key is required."""

    kind: str | dict
    default: object = None
    rule: dict = field(default_factory=dict)
    most: float = math.inf
    many: bool = False

    def read(self, raw: str, name: str):
        """The value of the text `raw` set for key `name`; a refusal is a ConfigError naming the key."""
        if self.kind == "text":
            return raw
        if isinstance(self.kind, dict):
            if raw.lower() not in self.kind:
                raise ConfigError(name, f"must be one of {', '.join(self.kind)}, got {raw!r}")
            return self.kind[raw.lower()]
        parse, reader = _NUMBERS[self.kind]
        try:
            values = [parse(tok) for tok in raw.replace(",", " ").split()] if self.many else [parse(raw)]
        except ValueError as exc:
            raise ConfigError(name, f"cannot parse {raw!r}") from exc
        if not values:
            raise ConfigError(name, "must list at least one value")
        try:
            values = [reader(v, name, **self.rule) for v in values]
        except ParameterError as exc:
            raise ConfigError(name, str(exc).removeprefix(f"{name} ")) from exc
        if (top := max(values)) > self.most:
            raise ConfigError(name, f"must be at most {self.most:.3g}, got {top:.15g}")
        return values if self.many else values[0]


_POSITIVE = {"positive": True}
# a flag: the spellings configparser itself accepts, 1/yes/true/on and 0/no/false/off
_FLAG = configparser.ConfigParser.BOOLEAN_STATES

# Every key a command reads.  A grid count is at most 1e6: each point is a
# CSV row (a path's row in simulate), allocated before any is written.
KEYS = {
    "model.lambda0": Key("finite", rule=_POSITIVE),
    "model.lambda1": Key("finite", rule=_POSITIVE),
    "model.a0": Key("finite"),
    "model.a1": Key("finite"),
    "model.b0": Key("finite", rule={"least": 0.0}),
    "model.b1": Key("finite", rule={"least": 0.0}),
    "model.gamma0": Key("finite"),
    "model.gamma1": Key("finite"),
    "run.seed": Key("whole", 0),
    "run.out_dir": Key("text", "out"),
    "fpt.q_grid": Key("finite", rule=_POSITIVE, many=True),  # the integral oracle needs q > 0
    "fpt.x": Key("finite"),
    "fpt.y": Key("finite"),
    "fpt.state": Key("state"),
    "fpt.mc_samples": Key("whole", 200_000, {"least": 1000}),
    "invariant.grid_points": Key("whole", 401, {"least": 1}, most=1e6),
    "simulate.mode": Key({"path": "path", "fpt": "fpt"}, "path"),
    "simulate.n_paths": Key("whole", 1, {"least": 1}),
    "simulate.x0": Key("finite", 0.0),
    "simulate.state0": Key("state", 0),
    "simulate.horizon": Key("finite", 10.0, _POSITIVE),
    "simulate.with_noise": Key(_FLAG, False),
    "simulate.eval_points": Key("whole", 201, {"least": 1}, most=1e6),
    "simulate.x": Key("finite"),
    "simulate.y": Key("finite"),
    "simulate.cap_horizon": Key("finite", SimCaps.horizon, _POSITIVE),
    "simulate.cap_switches": Key("whole", SimCaps.max_switches, {"least": 1}),
    "scaling.kind": Key(dict(telegraph=ScalingKind.KAC_ASYMMETRIC, kac_classic=ScalingKind.KAC_CLASSIC,
                             fast_switching=ScalingKind.FAST_SWITCHING, case_a=ScalingKind.CASE_A,
                             case_b=ScalingKind.CASE_B, case_c=ScalingKind.CASE_C)),
    "scaling.nu": Key("finite", 1.0, _POSITIVE),
    "scaling.sigma0": Key("finite", rule=_POSITIVE),
    "scaling.delta": Key("finite", 0.0),
    "scaling.sigma0_a": Key("finite", rule=_POSITIVE),
    "scaling.delta_a": Key("finite", 0.0),
    "scaling.sigma0_g": Key("finite", rule=_POSITIVE),
    "scaling.delta_g": Key("finite", 0.0),
    "scaling.t": Key("finite", 1.0, _POSITIVE),
    "scaling.n_list": Key("whole", [10, 100, 1000], {"least": 1}, many=True),
    "scaling.n_paths": Key("whole", 100_000, {"least": 2}),  # a sample variance needs two draws
    "scaling.x0": Key("finite", 0.0),
}


@dataclass
class RunConfig:
    """Parsed configuration: the model, seed and output directory, plus each
    section's entries as text, read by name as KEYS says."""

    model: KacOuModel
    seed: int
    out_dir: str
    sections: dict = field(default_factory=dict)
    raw_text: str = ""

    def __getitem__(self, name: str):
        """The value of the key `name`, "section.key", or its default where the config leaves it out."""
        section, key = name.split(".")
        raw = self.sections.get(section, {}).get(key)
        if raw is None and KEYS[name].default is None:
            raise ConfigError(name, "required key is missing")
        return KEYS[name].default if raw is None else KEYS[name].read(raw, name)

    def get(self, section: str, key: str):
        return self[f"{section}.{key}"]


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
    return "".join(f"{s}.{key}={value}\n" for s in sorted(sections) for key, value in sorted(sections[s].items()))


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
    for name in (f"{section}.{key}" for section in sections for key in sections[section]):
        if name not in KEYS:  # a misspelt key, which no command would read
            import difflib  # only a refusal needs it

            near = difflib.get_close_matches(name, KEYS, n=1)
            raise ConfigError(name, "unknown key" + (f" (nearest known key: {near[0]})" if near else ""))
    cfg = RunConfig(model=None, seed=0, out_dir="out", sections=sections, raw_text=_canonical_text(sections))
    names = ("lambda0", "lambda1", "a0", "a1", "b0", "b1", "gamma0", "gamma1")
    cfg.model = KacOuModel.from_values(*(cfg[f"model.{name}"] for name in names))
    cfg.seed, cfg.out_dir = cfg["run.seed"], cfg["run.out_dir"]
    return cfg
