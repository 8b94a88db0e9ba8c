"""Scalar distribution algebra and reproducible random streams.

Every stream is an SFC64 generator seeded by a SeedSequence keyed by
(master_seed, replica, purpose), so any draw sequence can be regenerated
independently of scheduling or worker count. A stream is read from its
start only: nothing seeks into one by counter.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
# numpy loads numpy.random lazily; every verb draws from these streams,
# so it is imported with the package rather than in the middle of a run
from numpy.random import SFC64, Generator, SeedSequence

from .errors import ConfigError, PreconditionError

DEFAULT_MC_SAMPLES = 10**6
BIT_GENERATOR = SFC64  # the one bit generator behind every stream
_ATOM_TOL = 1e-12  # atoms closer than this are one value


@dataclass(frozen=True)
class DistributionSpec:
    """One scalar law: `kind` names its `KIND_TABLE` row, which says what
    the law reads, `params` or `atoms` and `weights`."""

    kind: str
    params: tuple = ()
    atoms: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        row = KIND_TABLE.get(self.kind)
        why = f"unknown distribution kind {self.kind!r}" if row is None else row.check(self)
        if why is not None:
            raise ConfigError(why)


def constant(value):
    return DistributionSpec("constant", (float(value),))


def discrete(atoms, weights):
    return DistributionSpec(
        "discrete",
        atoms=tuple(float(v) for v in atoms),
        weights=tuple(float(w) for w in weights),
    )


def lognormal(meanlog, sdlog):
    return DistributionSpec("lognormal", (float(meanlog), float(sdlog)))


def uniform(low, high):
    return DistributionSpec("uniform", (float(low), float(high)))


def normal(mean, sd):
    return DistributionSpec("normal", (float(mean), float(sd)))


# ---------------------------------------------------------------------------
# streams


def _purpose_tag(purpose):
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(master_seed, replica=0, purpose=""):
    """Generator for the (master_seed, replica, purpose) stream key.

    Identical keys give bit-identical draw sequences; distinct keys give
    independent streams, spawned apart by the SeedSequence spawn key.
    """
    if master_seed < 0 or replica < 0:
        raise PreconditionError("seed and replica index must be nonnegative")
    ss = SeedSequence(
        entropy=int(master_seed), spawn_key=(int(replica), _purpose_tag(purpose))
    )
    return Generator(BIT_GENERATOR(ss))


# ---------------------------------------------------------------------------
# the law questions, each a lookup in its kind's row


def sample(dist, rng, size=None):
    """Draw from `dist`: a scalar for size=None, else an ndarray of that
    shape, a read-only view for a constant law (copy it before writing)."""
    return KIND_TABLE[dist.kind].sample(dist, rng, size)


def atoms(dist):
    """[(value, weight)] of a constant or discrete law, None for the others."""
    return KIND_TABLE[dist.kind].atoms(dist)


def support(dist):
    """(lowest, highest) value of the law's range; a lognormal's is (0, inf)."""
    return KIND_TABLE[dist.kind].support(dist)


def signed_mean(dist):
    """E X in closed form, or None."""
    return KIND_TABLE[dist.kind].mean(dist)


def abs_moment(dist, s):
    """E|X|^s in closed form, or None when the law has no closed form."""
    return KIND_TABLE[dist.kind].moment(dist, s)


def abs_log_moment(dist, s):
    """E(|X|^s log|X|) in closed form, or None: d/ds of `abs_moment`."""
    return KIND_TABLE[dist.kind].log_moment(dist, s)


def scaled_abs_law(dist, c):
    """Law of |c X| as a DistributionSpec, or None."""
    return KIND_TABLE[dist.kind].scaled_abs(dist, abs(float(c)))


def abs_law(dist):
    """Law of |X| as a DistributionSpec, or None."""
    return KIND_TABLE[dist.kind].absolute(dist)


def power_law(dist, p):
    """Law of X^p for positive X, or None. Used for |M| = sqrt(A) style maps."""
    if p <= 0:
        raise PreconditionError("power_law needs p > 0")
    return KIND_TABLE[dist.kind].power(dist, p)


def abs_affine_law(dist, shift, scale):
    """Law of |shift + scale X|, atoms only (constant/discrete), else None."""
    return KIND_TABLE[dist.kind].abs_affine(dist, shift, scale)


def is_symmetric(dist):
    """True when the law is symmetric about 0 (exact, not sampled)."""
    return KIND_TABLE[dist.kind].symmetric(dist)


def _merged_atoms(dist, f=float):
    """Sorted (f(value), weight) of the positive-weight atoms, merged within _ATOM_TOL."""
    table = []
    for v, w in sorted((f(v), w) for v, w in atoms(dist) if w > 0):
        if table and v - table[-1][0] <= _ATOM_TOL:
            table[-1] = (table[-1][0], table[-1][1] + w)
        else:
            table.append((v, w))
    return table


def atom_count(dist):
    """Number of positive-weight atoms of |X| for atomic laws, else None."""
    return None if atoms(dist) is None else len(_merged_atoms(dist, abs))


def arithmetic_risk(dist):
    """Flag |M| laws so concentrated that non-arithmeticity needs asserting.

    Atomic laws with at most two distinct |atoms| can generate an
    arithmetic subgroup; the theorems then need a user-supplied assertion.
    """
    n = atom_count(dist)
    return n is not None and n <= 2


# ---------------------------------------------------------------------------
# the kind table


def _none(dist, *args):
    return None  # the kind has no closed form for this question


@dataclass(frozen=True)
class Kind:
    """One law kind, a row of `KIND_TABLE`, which each law function looks up.
    Its callables take the DistributionSpec first; `_none` is no closed form."""

    fields: tuple  # the DistributionSpec fields the kind reads, and config keys
    check: Callable  # dist -> why the law is refused, or None
    sample: Callable  # (dist, rng, size), see `sample`
    support: Callable  # dist -> (lowest, highest)
    symmetric: Callable = lambda dist: False
    mean: Callable = _none  # E X
    moment: Callable = _none  # (dist, s) -> E|X|^s
    log_moment: Callable = _none  # (dist, s) -> E|X|^s log|X|
    scaled_abs: Callable = _none  # (dist, c >= 0) -> the law of |c X|
    absolute: Callable = _none  # the law of |X|, or None
    power: Callable = _none  # (dist, p > 0) -> the law of X^p, or None
    abs_affine: Callable = _none  # (dist, shift, scale) -> |shift + scale X|
    atoms: Callable = _none  # [(value, weight)] of an atomic law


def _params(count, bad=lambda *params: False, why=None):
    """The check of a law of `count` parameters, `why` when `bad(*params)`.
    A nan that `bad` lets through is named by the finiteness test."""

    def check(dist):
        p = dist.params
        if len(p) != count:
            return f"{dist.kind} law needs {count} parameter(s), got {len(p)}"
        if bad(*p):
            return why
        if not all(map(math.isfinite, p)):
            return f"{dist.kind} law parameters must be finite, got {p}"

    return check


def _check_discrete(dist):
    if len(dist.atoms) == 0 or len(dist.atoms) != len(dist.weights):
        return "discrete law needs matching atoms/weights"
    if any(w < 0 for w in dist.weights):
        return "discrete weights must be nonnegative"
    if abs(sum(dist.weights) - 1.0) > 1e-9:
        return "discrete weights must sum to 1"
    if not all(map(math.isfinite, (*dist.atoms, *dist.weights))):
        return "discrete atoms and weights must be finite"


def _atomic_symmetric(dist):
    table = _merged_atoms(dist)
    return all(
        abs(a + b) <= _ATOM_TOL and abs(p - q) <= _ATOM_TOL
        for (a, p), (b, q) in zip(table, reversed(table))
    )


def _atomic(fields, check, sample, atoms, rebuild):
    """An atomic kind's row: its closed forms read `atoms(dist)`, and a transform
    maps the atom values and keeps the weights through `rebuild(dist, values)`."""

    def mapped(f):
        return lambda dist, *args: rebuild(dist, [f(v, *args) for v, _ in atoms(dist)])

    return Kind(
        fields, check, sample, atoms=atoms,
        support=lambda dist: (min(atoms(dist))[0], max(atoms(dist))[0]),
        symmetric=_atomic_symmetric,
        mean=lambda dist: float(sum(w * v for v, w in atoms(dist))),
        moment=lambda dist, s: float(sum(w * abs(v) ** s for v, w in atoms(dist))),
        log_moment=lambda dist, s: sum(
            (w * abs(v) ** s * math.log(abs(v)) for v, w in atoms(dist) if v != 0.0), 0.0
        ),
        scaled_abs=mapped(lambda v, c: c * abs(v)),
        absolute=mapped(abs),
        power=lambda dist, p: None if min(atoms(dist))[0] < 0 else mapped(pow)(dist, p),
        abs_affine=mapped(lambda v, shift, scale: abs(shift + scale * v)),
    )


def _sample_discrete(dist, rng, size):
    idx = rng.choice(len(dist.atoms), size=size, p=np.asarray(dist.weights))
    vals = np.asarray(dist.atoms)[idx]
    return float(vals) if size is None else vals


def _sample_lognormal(dist, rng, size):
    # The normals rng.lognormal would draw, through numpy's vector exp:
    # same stream position, within 1 ulp of its per-element libm exp.
    mu, sigma = dist.params
    x = np.asarray(rng.standard_normal(size), dtype=float)
    x *= sigma
    x += mu
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    return float(x) if size is None else x


KIND_TABLE = {
    "constant": _atomic(  # params (value,)
        ("params",), _params(1),
        # a batch is a read-only view: no memory pass for one value
        lambda dist, rng, size: (
            dist.params[0] if size is None else np.broadcast_to(dist.params[0], size)
        ),
        atoms=lambda dist: [(dist.params[0], 1.0)],
        # a constant stays a constant: a discrete law would draw through
        # rng.choice, which moves the stream
        rebuild=lambda dist, values: constant(values[0]),
    ),
    "discrete": _atomic(  # params (), atoms and their weights
        ("atoms", "weights"), _check_discrete, _sample_discrete,
        atoms=lambda dist: list(zip(dist.atoms, dist.weights)),
        rebuild=lambda dist, values: discrete(values, dist.weights),
    ),
    "lognormal": Kind(  # params (meanlog, sdlog)
        ("params",), _params(2, lambda mu, sd: sd <= 0, "lognormal sdlog must be positive"),
        _sample_lognormal, support=lambda dist: (0.0, math.inf),
        mean=lambda dist: math.exp(dist.params[0] + 0.5 * dist.params[1] * dist.params[1]),
        moment=lambda dist, s: math.exp(s * dist.params[0] + 0.5 * (s * dist.params[1]) ** 2),
        log_moment=lambda dist, s: (dist.params[0] + s * dist.params[1] ** 2) * abs_moment(dist, s),
        scaled_abs=lambda dist, c: (
            lognormal(dist.params[0] + math.log(c), dist.params[1]) if c else constant(0.0)
        ),
        absolute=lambda dist: dist,
        power=lambda dist, p: lognormal(p * dist.params[0], p * dist.params[1]),
    ),
    "uniform": Kind(  # params (low, high)
        ("params",), _params(2, lambda lo, hi: not lo < hi, "uniform needs low < high"),
        lambda dist, rng, size: rng.uniform(dist.params[0], dist.params[1], size),
        support=lambda dist: dist.params,
        symmetric=lambda dist: dist.params[0] == -dist.params[1],
        mean=lambda dist: 0.5 * (dist.params[0] + dist.params[1]),
        absolute=lambda dist: dist if dist.params[0] >= 0 else None,
    ),
    "normal": Kind(  # params (mean, sd)
        ("params",), _params(2, lambda mean, sd: sd <= 0, "normal sd must be positive"),
        lambda dist, rng, size: rng.normal(dist.params[0], dist.params[1], size),
        support=lambda dist: (-math.inf, math.inf),
        symmetric=lambda dist: dist.params[0] == 0.0,
        mean=lambda dist: float(dist.params[0]),
    ),
}
