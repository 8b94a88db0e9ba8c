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

import numpy as np
# numpy loads numpy.random lazily; every verb draws from these streams,
# so it is imported with the package rather than in the middle of a run
from numpy.random import SFC64, Generator, SeedSequence

from .errors import ConfigError, PreconditionError

DEFAULT_MC_SAMPLES = 10**6
BIT_GENERATOR = SFC64  # the one bit generator behind every stream

_KINDS = ("constant", "discrete", "lognormal", "uniform", "normal")


@dataclass(frozen=True)
class DistributionSpec:
    """One scalar law. `params` meaning depends on `kind`:

    constant:  (value,)
    discrete:  () with atoms/weights set
    lognormal: (meanlog, sdlog)
    uniform:   (low, high)
    normal:    (mean, sd)
    """

    kind: str
    params: tuple = ()
    atoms: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "discrete":
            if len(self.atoms) == 0 or len(self.atoms) != len(self.weights):
                raise ConfigError("discrete law needs matching atoms/weights")
            if any(w < 0 for w in self.weights):
                raise ConfigError("discrete weights must be nonnegative")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ConfigError("discrete weights must sum to 1")
            if not all(map(math.isfinite, (*self.atoms, *self.weights))):
                raise ConfigError("discrete atoms and weights must be finite")
            return
        n_expected = {"constant": 1, "lognormal": 2, "uniform": 2, "normal": 2}[self.kind]
        if len(self.params) != n_expected:
            raise ConfigError(
                f"{self.kind} law needs {n_expected} parameter(s), got {len(self.params)}"
            )
        if self.kind == "lognormal":
            if self.params[1] <= 0:
                raise ConfigError("lognormal sdlog must be positive")
        elif self.kind == "uniform":
            if not self.params[0] < self.params[1]:
                raise ConfigError("uniform needs low < high")
        elif self.kind == "normal":
            if self.params[1] <= 0:
                raise ConfigError("normal sd must be positive")
        if not all(map(math.isfinite, self.params)):
            raise ConfigError(f"{self.kind} law parameters must be finite, got {self.params}")


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
# sampling


def sample(dist, rng, size=None):
    """Draw from `dist`; scalar for size=None, else ndarray of that shape.

    A constant law's batch is a read-only view; copy it before writing.
    """
    kind = dist.kind
    if kind == "constant":
        # a read-only view: no memory pass for a batch of one value
        v = dist.params[0]
        return v if size is None else np.broadcast_to(v, size)
    if kind == "discrete":
        idx = rng.choice(len(dist.atoms), size=size, p=np.asarray(dist.weights))
        vals = np.asarray(dist.atoms)[idx]
        return float(vals) if size is None else vals
    if kind == "lognormal":
        # The normals rng.lognormal would draw, through numpy's vector exp:
        # same stream position, within 1 ulp of its per-element libm exp.
        mu, sigma = dist.params
        x = np.asarray(rng.standard_normal(size), dtype=float)
        x *= sigma
        x += mu
        with np.errstate(over="ignore"):
            np.exp(x, out=x)
        return float(x) if size is None else x
    if kind == "uniform":
        return rng.uniform(dist.params[0], dist.params[1], size)
    return rng.normal(dist.params[0], dist.params[1], size)


# ---------------------------------------------------------------------------
# atomic laws


def atoms(dist):
    """[(value, weight)] of a constant or discrete law, None for the others."""
    if dist.kind == "constant":
        return [(dist.params[0], 1.0)]
    if dist.kind == "discrete":
        return list(zip(dist.atoms, dist.weights))
    return None


def _with_atoms(dist, values):
    """An atomic law of dist's kind and weights on new atom values.

    A constant stays a constant: a discrete law draws through rng.choice,
    which would move the stream.
    """
    if dist.kind == "constant":
        return constant(values[0])
    return discrete(values, dist.weights)


def support(dist):
    """(lowest, highest) value of the law's range; a lognormal's is (0, inf)."""
    items = atoms(dist)
    if items is not None:
        return min(items)[0], max(items)[0]
    ends = {"lognormal": (0.0, math.inf), "normal": (-math.inf, math.inf)}
    return ends.get(dist.kind, dist.params)


# ---------------------------------------------------------------------------
# closed-form absolute moments


def signed_mean(dist):
    """E X in closed form, or None."""
    kind = dist.kind
    items = atoms(dist)
    if items is not None:
        return float(sum(w * v for v, w in items))
    if kind == "lognormal":
        mu, sigma = dist.params
        return math.exp(mu + 0.5 * sigma * sigma)
    if kind == "uniform":
        lo, hi = dist.params
        return 0.5 * (lo + hi)
    if kind == "normal":
        return float(dist.params[0])
    return None


def abs_moment(dist, s):
    """E|X|^s in closed form, or None when the law has no closed form."""
    items = atoms(dist)
    if items is not None:
        return float(sum(w * abs(v) ** s for v, w in items))
    if dist.kind == "lognormal":
        mu, sig = dist.params
        return math.exp(s * mu + 0.5 * (s * sig) ** 2)
    return None


def abs_log_moment(dist, s):
    """E(|X|^s log|X|) in closed form, or None.

    For lognormal this is d/ds of the moment: (mu + s sig^2) E|X|^s.
    """
    items = atoms(dist)
    if items is not None:
        total = 0.0
        for v, w in items:
            av = abs(v)
            if av == 0.0:
                continue
            total += w * av**s * math.log(av)
        return total
    if dist.kind == "lognormal":
        mu, sig = dist.params
        return (mu + s * sig**2) * math.exp(s * mu + 0.5 * (s * sig) ** 2)
    return None


# ---------------------------------------------------------------------------
# law transforms (None when the result leaves the algebra)


def scaled_abs_law(dist, c):
    """Law of |c X| as a DistributionSpec, or None."""
    c = abs(float(c))
    items = atoms(dist)
    if items is not None:
        return _with_atoms(dist, [c * abs(v) for v, _ in items])
    if dist.kind == "lognormal":
        if c == 0.0:
            return constant(0.0)
        return lognormal(dist.params[0] + math.log(c), dist.params[1])
    return None


def abs_law(dist):
    """Law of |X| as a DistributionSpec, or None."""
    items = atoms(dist)
    if items is not None:
        return _with_atoms(dist, [abs(v) for v, _ in items])
    if dist.kind == "lognormal":
        return dist
    if dist.kind == "uniform" and dist.params[0] >= 0:
        return dist
    return None


def power_law(dist, p):
    """Law of X^p for positive X, or None. Used for |M| = sqrt(A) style maps."""
    if p <= 0:
        raise PreconditionError("power_law needs p > 0")
    items = atoms(dist)
    if items is not None:
        if any(v < 0 for v, _ in items):
            return None
        return _with_atoms(dist, [v**p for v, _ in items])
    if dist.kind == "lognormal":
        return lognormal(p * dist.params[0], p * dist.params[1])
    return None


def abs_affine_law(dist, shift, scale):
    """Law of |shift + scale X|, atoms only (constant/discrete), else None."""
    items = atoms(dist)
    if items is None:
        return None
    return _with_atoms(dist, [abs(shift + scale * v) for v, _ in items])


# ---------------------------------------------------------------------------
# structural predicates


def is_symmetric(dist):
    """True when the law is symmetric about 0 (exact, not sampled)."""
    kind = dist.kind
    if kind == "constant":
        return dist.params[0] == 0.0
    if kind == "normal":
        return dist.params[0] == 0.0
    if kind == "uniform":
        return dist.params[0] == -dist.params[1]
    if kind == "discrete":
        table = sorted(zip(dist.atoms, dist.weights))
        flipped = sorted((-v, w) for v, w in table)
        return all(
            abs(a - b) <= 1e-12 and abs(p - q) <= 1e-12
            for (a, p), (b, q) in zip(table, flipped)
        )
    return False


def atom_count(dist):
    """Number of atoms of |X| for purely atomic laws, None for continuous."""
    items = atoms(dist)
    if items is None:
        return None
    return len({round(abs(v), 15) for v, _ in items})


def arithmetic_risk(dist):
    """Flag |M| laws so concentrated that non-arithmeticity needs asserting.

    Atomic laws with at most two distinct |atoms| can generate an
    arithmetic subgroup; the theorems then need a user-supplied assertion.
    """
    n = atom_count(dist)
    return n is not None and n <= 2
