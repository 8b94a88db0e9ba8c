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
        return getattr(self, name)


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


def get_str(cfg, section, key, default=None):
    sec = cfg.section(section)
    if key not in sec:
        if default is None:
            raise ConfigError(f"{cfg.path}: [{section}] missing required key {key!r}")
        return default
    return sec[key].text


def get_float(cfg, section, key, default=None):
    sec = cfg.section(section)
    if key not in sec:
        if default is None:
            raise ConfigError(f"{cfg.path}: [{section}] missing required key {key!r}")
        return default
    cv = sec[key]
    try:
        return float(cv.text)
    except ValueError:
        _fail(cfg, section, key, cv, f"not a number: {cv.text!r}")


def get_int(cfg, section, key, default=None):
    sec = cfg.section(section)
    if key not in sec:
        if default is None:
            raise ConfigError(f"{cfg.path}: [{section}] missing required key {key!r}")
        return default
    cv = sec[key]
    try:
        return int(cv.text)
    except ValueError:
        _fail(cfg, section, key, cv, f"not an integer: {cv.text!r}")


def get_bool(cfg, section, key, default=False):
    sec = cfg.section(section)
    if key not in sec:
        return default
    cv = sec[key]
    if cv.text in ("true", "false"):
        return cv.text == "true"
    _fail(cfg, section, key, cv, f"expected true or false, got {cv.text!r}")


def get_floats(cfg, section, key, default=None):
    sec = cfg.section(section)
    if key not in sec:
        return default
    cv = sec[key]
    try:
        return tuple(float(p.strip()) for p in cv.text.split(",") if p.strip())
    except ValueError:
        _fail(cfg, section, key, cv, f"not a comma list of numbers: {cv.text!r}")


# ---------------------------------------------------------------------------
# model construction

_DIST_KEYS = {"kind", "params", "atoms", "weights"}
_MODEL_CONSTANT_KEYS = {
    "arch1": {"gamma", "beta", "lambda"},
    "affine": {"axis"},
}


def _build_distribution(cfg, param, entries):
    for key in entries:
        if key not in _DIST_KEYS:
            _fail(cfg, f"distributions.{param}", key, entries[key], "unknown key")
    if "kind" not in entries:
        raise ConfigError(
            f"{cfg.path}: [distributions.{param}] missing required key 'kind'"
        )
    kind = entries["kind"].text

    def floats(key):
        cv = entries.get(key)
        if cv is None:
            return ()
        try:
            return tuple(float(p.strip()) for p in cv.text.split(",") if p.strip())
        except ValueError:
            _fail(cfg, f"distributions.{param}", key, cv, f"bad number list {cv.text!r}")

    params = floats("params")
    atoms = floats("atoms")
    weights = floats("weights")
    try:
        if kind == "discrete":
            if not weights:
                weights = tuple(1.0 / len(atoms) for _ in atoms) if atoms else ()
            return DistributionSpec("discrete", atoms=atoms, weights=weights)
        return DistributionSpec(kind, params=params)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(
            f"{cfg.path}: [distributions.{param}]: {exc}"
        ) from exc


def build_model(cfg):
    """ModelSpec from the [model] and [distributions.*] sections."""
    family = get_str(cfg, "model", "family")
    dimension = get_int(cfg, "model", "dimension", default=1)
    allowed = {"family", "dimension"} | _MODEL_CONSTANT_KEYS.get(family, set())
    for key, cv in cfg.model.items():
        if key not in allowed:
            _fail(cfg, "model", key, cv, f"unknown key for family {family!r}")
    constants = {}
    if family == "arch1":
        for key in ("gamma", "beta", "lambda"):
            if key in cfg.model:
                constants[key] = get_float(cfg, "model", key)
    if family == "affine" and "axis" in cfg.model:
        constants["axis"] = get_floats(cfg, "model", "axis")
    laws = {
        param: _build_distribution(cfg, param, entries)
        for param, entries in cfg.distributions.items()
    }
    return models.make_model(family, dimension=dimension, laws=laws, constants=constants)
