"""Line-oriented experiment configuration.

Format: `[section]` headers followed by `key = value` lines, `#` starts
a comment, blank lines ignored. Sections are `[model]`,
`[distributions.<param>]` (one per model parameter), `[experiment]`,
`[output]` and `[assertions]`. Values stay strings until a typed getter
consumes them, so error messages can carry the original line number.
Every key of the last three sections has one entry in `KEYS`, its getter
and its domain; `parse_config` checks each one present, so a malformed
value fails before any stage, and the runners read them through `setting`.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass, field

from . import cramer, models
from .errors import ConfigError
from .randomness import KIND_TABLE, DistributionSpec

_SECTION_RE = re.compile(r"^\[([a-z0-9_.]+)\]$")
_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_RUNNER_SECTIONS = ("experiment", "output", "assertions")  # the sections KEYS covers
_TOP_SECTIONS = ("model", *_RUNNER_SECTIONS)


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
    for (section, key), (getter, domain) in KEYS.items():  # build_model refuses the rest
        if key in cfg.section(section):
            value = getter(cfg, section, key, None)
            if domain is not None and (why := domain(value)) is not None:
                raise ConfigError(f"[{section}] {key} {why}")
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


_LIST_WHY = "not a comma list of numbers: {!r}"


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
    """A number; `default` (None unless given) when the key is absent."""
    return _get(cfg, section, key, default, float, "not a number: {!r}")


def get_int(cfg, section, key, default=None):
    return _get(cfg, section, key, default, int, "not an integer: {!r}", default is None)


def get_bool(cfg, section, key, default=False):
    parse = {"true": True, "false": False}.__getitem__
    return _get(cfg, section, key, default, parse, "expected true or false, got {!r}")


def get_floats(cfg, section, key, default=None, length=None):
    """A nonempty comma list of numbers as a tuple; with `length`, exactly that many."""
    values = _get(cfg, section, key, None, _floats, _LIST_WHY)
    if values is None:
        return default
    if not values or length is not None and len(values) != length:
        if length is None:
            why = "expected at least one number, got none"
        else:
            why = f"expected {length} number(s), got {len(values)}"
        _fail(cfg, section, key, cfg.section(section)[key], why)
    return values


# ---------------------------------------------------------------------------
# the key table


def _one_of(*words, number=False):
    """The getter of a key that takes one of `words` or, with `number`, a number."""
    other = float if number else {}.__getitem__
    why = f"expected one of {', '.join(words)}{' or a number' if number else ''}, got {{!r}}"
    return lambda cfg, section, key, default: _get(
        cfg, section, key, default, lambda text: text if text in words else other(text), why
    )


def _above(floor, word=None):
    """The domain of finite numbers, above `floor` when `word` names it."""

    def complaint(value):
        # a word the getter took, such as alpha's solve, holds no number
        numbers = value if isinstance(value, tuple) else () if isinstance(value, str) else (value,)
        if word and not all(v > floor for v in numbers):
            return f"must be {word}, got {value}"
        if not all(isinstance(v, int) or math.isfinite(v) for v in numbers):
            return f"must be finite, got {', '.join(map(str, numbers))}"
        return None

    return complaint


_REAL, _POSITIVE = _above(None), _above(0, "positive")


def _bracket(value):
    """The root bracket's domain: finite ends with 0 < lo < hi."""
    why = _REAL(value)
    if why is None and not 0 < value[0] < value[1]:
        why = f"must satisfy 0 < lo < hi, got {value[0]}, {value[1]}"
    return why


# (section, key) -> (getter, domain) for every key a runner reads. The
# getter parses the text, refusing it with its line; the domain (None:
# every parsed value) names what is wrong with a parsed value
KEYS = {
    **{("experiment", k): (get_float, _POSITIVE) for k in ("tol", "solver_tol", "epsilon")},
    **{
        ("experiment", k): (get_int, _POSITIVE)
        for k in (
            "count", "n", "replicas", "max_depth", "max_cloud_depth", "word_guard",
            "mc_samples", "t_points", "hill_points",
        )
    },
    ("experiment", "seed"): (get_int, _above(-1, "nonnegative")),
    ("experiment", "bracket"): (functools.partial(get_floats, length=2), _bracket),
    ("experiment", "s_grid"): (get_floats, _REAL),
    # any length here: its read checks that against the model's dimension
    ("experiment", "x0"): (functools.partial(_get, parse=_floats, why=_LIST_WHY), _REAL),
    ("experiment", "mode"): (_one_of(*cramer.MODES), None),
    ("experiment", "sampler"): (_one_of("backward", "exact", "forward"), None),
    ("experiment", "alpha"): (_one_of("solve", number=True), _POSITIVE),
    ("experiment", "center"): (_one_of("auto", "stationary_mean", number=True), _REAL),
    ("output", "svg"): (get_bool, None),
    **{("assertions", k): (get_bool, None) for k in ("nonarithmetic", "linear_on_support")},
}


def setting(cfg, section, key, default=None, length=None):
    """[section] `key` through its KEYS getter, which `parse_config` has
    run on it, or `default` when absent (an integer with no default is
    required). With `length`, a number list must hold that many numbers."""
    if length is not None:
        return get_floats(cfg, section, key, default, length)
    return KEYS[section, key][0](cfg, section, key, default)


# ---------------------------------------------------------------------------
# model construction

_DIST_KEYS = {"kind"}.union(*(row.fields for row in KIND_TABLE.values()))
# a model constant's getter, by the type its family row gives it
_GETTERS = {float: get_float, tuple: get_floats}


def _build_distribution(cfg, param, entries):
    section = f"distributions.{param}"
    for key in entries:
        if key not in _DIST_KEYS:
            _fail(cfg, section, key, entries[key], "unknown key")
    kind = get_str(cfg, section, "kind")
    row = KIND_TABLE.get(kind)  # an unknown kind is refused by name below
    fields = row.fields if row is not None else ()
    for key, cv in entries.items():
        if fields and key not in ("kind", *fields):
            _fail(cfg, section, key, cv, f"a {kind} law takes {' and '.join(fields)}, not {key}")
    values = {key: _get(cfg, section, key, (), _floats, "bad number list {!r}") for key in fields}
    if values.get("atoms") and not values["weights"]:  # equal weights by default
        values["weights"] = tuple(1.0 / len(values["atoms"]) for _ in values["atoms"])
    try:
        return DistributionSpec(kind, **values)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{cfg.path}: [{section}]: {exc}") from exc


def build_model(cfg):
    """ModelSpec from the [model] and [distributions.*] sections.

    Every verb builds its model first, so this also rejects the keys of
    [experiment], [output] and [assertions] that no runner reads.
    """
    for section in _RUNNER_SECTIONS:
        for key, cv in cfg.section(section).items():
            if (section, key) not in KEYS:
                _fail(cfg, section, key, cv, "unknown key")
    family = get_str(cfg, "model", "family")
    dimension = get_int(cfg, "model", "dimension", default=1)
    row = models.FAMILY_TABLE.get(family)
    types = row.constants if row is not None else {}
    for key, cv in cfg.model.items():
        if key not in ("family", "dimension", *types):
            _fail(cfg, "model", key, cv, f"unknown key for family {family!r}")
    constants = {k: _GETTERS[t](cfg, "model", k) for k, t in types.items() if k in cfg.model}
    laws = {
        param: _build_distribution(cfg, param, entries)
        for param, entries in cfg.distributions.items()
    }
    return models.make_model(family, dimension=dimension, laws=laws, constants=constants)
