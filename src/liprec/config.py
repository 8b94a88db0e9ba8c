"""Line-oriented experiment configuration.

Format: `[section]` headers followed by `key = value` lines, `#` starts
a comment, blank lines ignored. Sections are `[model]`,
`[distributions.<param>]` (one per model parameter), `[experiment]`,
`[output]` and `[assertions]`. Values stay strings until a typed getter
consumes them, so error messages can carry the original line number.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from . import cramer, models
from .errors import ConfigError
from .randomness import DistributionSpec

_SECTION_RE = re.compile(r"^\[([a-z0-9_.]+)\]$")
_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_TOP_SECTIONS = ("model", "experiment", "output", "assertions")
# [experiment] keys that take one of a fixed set of words, checked on parsing
_CHOICES = {"mode": cramer.MODES, "sampler": ("backward", "forward")}


@dataclass(frozen=True)
class ConfigValue:
    text: str
    line: int


@dataclass(frozen=True)
class Config:
    path: str
    model: dict = field(default_factory=dict)
    distributions: dict = field(default_factory=dict)  # param -> {key: ConfigValue}
    experiment: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)

    def section(self, name):
        """A top section by name, or `distributions.<param>`'s entries."""
        top, _, param = name.partition(".")
        return self.distributions[param] if param else getattr(self, top)


def parse_config(text, path="<config>"):
    """Parse config text into a Config of raw ConfigValue entries."""
    cfg = Config(path=path)
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                raise ConfigError(f"{path}:{lineno}: bad section header {line!r}")
            name = m.group(1)
            if name in _TOP_SECTIONS:
                current = cfg.section(name)
            elif name.startswith("distributions."):
                param = name.split(".", 1)[1]
                if not _KEY_RE.match(param):
                    raise ConfigError(
                        f"{path}:{lineno}: bad parameter name in [{name}]"
                    )
                current = cfg.distributions.setdefault(param, {})
            else:
                raise ConfigError(f"{path}:{lineno}: unknown section [{name}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"{path}:{lineno}: bad key name {key!r}")
        if key in current:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        current[key] = ConfigValue(value, lineno)
    for key, choices in _CHOICES.items():
        cv = cfg.experiment.get(key)
        if cv is not None and cv.text not in choices:
            why = f"expected one of {', '.join(choices)}, got {cv.text!r}"
            _fail(cfg, "experiment", key, cv, why)
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, path=str(path))


def config_digest(cfg, version):
    """sha256 over the canonical key order plus the package version."""
    parts = []
    for name in _TOP_SECTIONS:
        sec = cfg.section(name)
        for key in sorted(sec):
            parts.append(f"{name}.{key}={sec[key].text}")
    for param in sorted(cfg.distributions):
        for key in sorted(cfg.distributions[param]):
            parts.append(
                f"distributions.{param}.{key}={cfg.distributions[param][key].text}"
            )
    blob = "\n".join(parts) + "\n" + version
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# typed getters


def _fail(cfg, section, key, cv, why):
    where = f"{cfg.path}:{cv.line}" if cv is not None else cfg.path
    raise ConfigError(f"{where}: [{section}] {key}: {why}")


def _floats(text):
    return tuple(float(p.strip()) for p in text.split(",") if p.strip())


def _get(cfg, section, key, default, parse=str, why="", required=False):
    """[section] `key` through `parse`, or `default` when the key is absent.

    An absent key raises when `required`. A value that `parse` rejects
    (ValueError or KeyError) raises with `why` formatted with its text.
    """
    cv = cfg.section(section).get(key)
    if cv is None:
        if required:
            raise ConfigError(f"{cfg.path}: [{section}] missing required key {key!r}")
        return default
    try:
        return parse(cv.text)
    except (KeyError, ValueError):
        _fail(cfg, section, key, cv, why.format(cv.text))


def get_str(cfg, section, key, default=None):
    return _get(cfg, section, key, default, required=default is None)


def get_float(cfg, section, key, default=None):
    return _get(cfg, section, key, default, float, "not a number: {!r}", default is None)


def get_int(cfg, section, key, default=None):
    return _get(cfg, section, key, default, int, "not an integer: {!r}", default is None)


def get_bool(cfg, section, key, default=False):
    parse = {"true": True, "false": False}.__getitem__
    return _get(cfg, section, key, default, parse, "expected true or false, got {!r}")


def get_floats(cfg, section, key, default=None, length=None):
    """A comma list of numbers as a tuple; with `length`, exactly that many."""
    values = _get(cfg, section, key, default, _floats, "not a comma list of numbers: {!r}")
    if length is not None and values is not None and len(values) != length:
        why = f"expected {length} number(s), got {len(values)}"
        _fail(cfg, section, key, cfg.section(section)[key], why)
    return values


# ---------------------------------------------------------------------------
# model construction

_DIST_KEYS = {"kind", "params", "atoms", "weights"}
_MODEL_CONSTANT_KEYS = {"arch1": ("gamma", "beta", "lambda"), "affine": ("axis",)}


def _build_distribution(cfg, param, entries):
    section = f"distributions.{param}"
    for key in entries:
        if key not in _DIST_KEYS:
            _fail(cfg, section, key, entries[key], "unknown key")
    kind = get_str(cfg, section, "kind")
    params, atoms, weights = (
        _get(cfg, section, key, (), _floats, "bad number list {!r}")
        for key in ("params", "atoms", "weights")
    )
    try:
        if kind == "discrete":
            if not weights:
                weights = tuple(1.0 / len(atoms) for _ in atoms) if atoms else ()
            return DistributionSpec("discrete", atoms=atoms, weights=weights)
        return DistributionSpec(kind, params=params)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{cfg.path}: [{section}]: {exc}") from exc


def build_model(cfg):
    """ModelSpec from the [model] and [distributions.*] sections."""
    family = get_str(cfg, "model", "family")
    dimension = get_int(cfg, "model", "dimension", default=1)
    keys = _MODEL_CONSTANT_KEYS.get(family, ())
    for key, cv in cfg.model.items():
        if key not in ("family", "dimension") + keys:
            _fail(cfg, "model", key, cv, f"unknown key for family {family!r}")
    getter = get_floats if family == "affine" else get_float
    constants = {key: getter(cfg, "model", key) for key in keys if key in cfg.model}
    laws = {
        param: _build_distribution(cfg, param, entries)
        for param, entries in cfg.distributions.items()
    }
    return models.make_model(family, dimension=dimension, laws=laws, constants=constants)
