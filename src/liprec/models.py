"""Model zoo: the catalog of random Lipschitz map families.

Each family fixes how a parameter draw theta acts on a point:

affine          psi(x) = scale * R x + shift, similarity in d <= 3
extremal        psi(x) = max(a x, b)
letac           psi(x) = a * max(x, b) + c
sqrt_quadratic  psi(x) = sqrt(a x^2 + b x + c), b^2 - 4 a c < 0
arch1           psi(x) = |gamma |x| + sqrt(beta + lambda x^2) a|

A draw theta is a dict from parameter name (in `required_params` order)
to a float, or to an array for a batch of draws; all operations accept
either and broadcast against the point argument. A family is one
`Family` row of `FAMILY_TABLE`, and each public function below looks the
row up. A row's map is written once and serves `apply` with and without
`out`. `apply_dilated` is `apply` on dilated translation parameters, so
it agrees bit for bit with a closed form written with t, and at t = 1
with `apply`. A row's `composite` is the closed form of a backward
composition psi_1 o ... o psi_n (extremal, letac and affine), which the
backward sampler carries per member. A row's `exact` gives the
`ExactWalk` of an exact stationary draw where one exists: extremal, with
a ~ lognormal(mu, sigma), mu < 0, and a law of b whose range lies in
[b_lo, b_hi], 0 < b_lo <= b_hi < inf (a constant, a uniform with a
positive low end, a discrete law with positive atoms).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import randomness as rnd
from .errors import ConfigError, DomainError, PreconditionError

_SQRTQUAD_MAX_REDRAWS = 100


@dataclass(frozen=True)
class ModelSpec:
    family: str
    dimension: int = 1
    laws: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)


def required_params(family, dimension=1):
    return FAMILY_TABLE[family].params(dimension)


def make_model(family, dimension=1, laws=None, constants=None):
    """Validated ModelSpec constructor; raises ConfigError on bad input."""
    laws = dict(laws or {})
    constants = dict(constants or {})
    row = FAMILY_TABLE.get(family)
    if row is None:
        raise ConfigError(f"unknown family {family!r}")
    if dimension not in row.dimensions:
        *rest, last = map(str, row.dimensions)
        raise ConfigError(
            f"{family} dimension must be {', '.join(rest)} or {last}"
            if rest else f"family {family} is one-dimensional"
        )
    names = row.params(dimension)
    missing = [p for p in names if p not in laws]
    if missing:
        raise ConfigError(f"missing parameter law(s): {', '.join(missing)}")
    extra = [p for p in laws if p not in names]
    if extra:
        raise ConfigError(f"unknown parameter law(s): {', '.join(sorted(extra))}")
    if row.check is not None:
        constants = row.check(dimension, laws, constants)
    return ModelSpec(family, dimension, laws, constants)


def _arch1_check(dimension, laws, constants):
    for name in FAMILY_TABLE["arch1"].constants:
        if name not in constants:
            raise ConfigError(f"arch1 needs model constant {name!r}")
        if constants[name] < 0:
            raise ConfigError(f"arch1 constant {name} must be >= 0")
        if not math.isfinite(constants[name]):
            raise ConfigError(f"arch1 constant {name} must be finite, got {constants[name]}")
    if not rnd.is_symmetric(laws["a"]):
        raise ConfigError("arch1 innovation law must be symmetric")
    return constants


def _affine_check(dimension, laws, constants):
    """The d = 3 rotation axis, normalized; d < 3 reads no axis."""
    if dimension == 3:
        axis = np.asarray(constants.get("axis", (0.0, 0.0, 1.0)), dtype=float)
        if axis.shape != (3,) or not np.linalg.norm(axis) > 0:
            raise ConfigError("affine d=3 needs a nonzero 3-vector axis")
        if not np.isfinite(axis).all():
            raise ConfigError(f"affine d=3 axis must be finite, got {', '.join(map(str, axis))}")
        constants["axis"] = tuple(axis / np.linalg.norm(axis))
    return constants


# ---------------------------------------------------------------------------
# geometry helpers


def zero_point(spec):
    return 0.0 if spec.dimension == 1 else np.zeros(spec.dimension)


def radius(spec, x):
    """|x|: absolute value in 1-d, euclidean norm along the last axis else."""
    x = np.asarray(x, dtype=float)
    if spec.dimension == 1:
        return np.abs(x)
    return np.linalg.norm(x, axis=-1)


def _rotate(spec, theta, x):
    d = spec.dimension
    if d == 1:
        return x
    x = np.asarray(x, dtype=float)
    ang = np.asarray(theta["angle"], dtype=float)
    c, s = np.cos(ang), np.sin(ang)
    if d == 2:
        return np.stack(
            [c * x[..., 0] - s * x[..., 1], s * x[..., 0] + c * x[..., 1]], axis=-1
        )
    k = np.asarray(spec.constants["axis"], dtype=float)
    # Rodrigues rotation about the fixed axis
    kx = np.cross(np.broadcast_to(k, x.shape), x)
    # elementwise, not a BLAS dot, so a batch rounds like a single point
    kdot = x[..., 0] * k[0] + x[..., 1] * k[1] + x[..., 2] * k[2]
    c = c[..., None] if np.ndim(c) else c
    s = s[..., None] if np.ndim(s) else s
    return x * c + kx * s + np.multiply.outer(kdot, k) * (1.0 - c)


def _affine_linear(spec, theta, x, out=None):
    """scale * R x for an affine draw: its linear part applied to x."""
    rx = _rotate(spec, theta, x)
    scale = theta["scale"]
    if spec.dimension > 1:
        scale = np.asarray(scale, dtype=float)
        if scale.ndim:
            scale = scale[..., None]
    return np.multiply(scale, rx, out=out)


def _shift_vector(spec, theta):
    """The shift in 1-d; the shift_i stacked along the last axis else."""
    d = spec.dimension
    if d == 1:
        return theta["shift"]
    comps = [np.asarray(theta[f"shift_{i}"], dtype=float) for i in range(1, d + 1)]
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


# ---------------------------------------------------------------------------
# theta sampling


def sample_theta(spec, rng, size=None):
    """Draw theta (or a batch of `size` draws) in a fixed parameter order."""
    row = FAMILY_TABLE[spec.family]
    if row.sample is not None:
        return row.sample(spec, rng, size)
    values = {name: rnd.sample(spec.laws[name], rng, size) for name in row.params(spec.dimension)}
    for name, bound in row.domain.items():
        v = np.asarray(values[name])
        if np.any(v <= 0 if bound == "positive" else v < 0):
            raise DomainError(f"{spec.family} parameter {name} must be {bound}")
    return values


def _sqrtquad_outside(theta):
    """The draws outside sqrt_quadratic's domain: a <= 0 or b^2 - 4ac >= 0."""
    a, b, c = (np.asarray(theta[k]) for k in "abc")
    return (a <= 0) | (b * b - 4.0 * a * c >= 0)


def _sample_sqrtquad(spec, rng, size):
    """a, b and c in turn, then the draws outside the domain redrawn.
    Only the random parameters are redrawn, in place: a constant law's
    batch stays a read-only view, and drawing it reads nothing."""
    laws = spec.laws
    n = 1 if size is None else int(size)
    theta = {k: rnd.sample(laws[k], rng, n) for k in ("a", "b", "c")}
    random = [k for k in theta if laws[k].kind != "constant"]
    for _ in range(_SQRTQUAD_MAX_REDRAWS):
        bad = _sqrtquad_outside(theta)
        k = int(np.count_nonzero(bad))
        if k == 0:
            break
        for name in random:
            theta[name][bad] = rnd.sample(laws[name], rng, k)
    else:
        raise ConfigError(
            "sqrt_quadratic laws keep violating b^2 - 4ac < 0 after "
            f"{_SQRTQUAD_MAX_REDRAWS} redraws"
        )
    if size is None:
        return {k: float(v[0]) for k, v in theta.items()}
    return theta


def _check_sqrtquad(theta):
    a, b, c = (np.asarray(theta[k], dtype=float) for k in "abc")
    bad = b * b - 4.0 * a * c >= 0
    if np.any(bad):
        i = np.argmax(bad)  # the first bad tuple, in the broadcast shape
        a, b, c = (float(np.broadcast_to(v, bad.shape).flat[i]) for v in (a, b, c))
        raise DomainError(f"sqrt_quadratic tuple (a={a}, b={b}, c={c}) violates b^2 - 4ac < 0")


# ---------------------------------------------------------------------------
# the maps


def apply(spec, theta, x, out=None):
    """psi_theta(x), by the map of the family's row.

    With `out`, x must be a float array and `out` an array of its shape.
    The map is written into `out`, which is returned and may be x
    itself: only the operations that no longer read x write into it.
    The bits are those of `out=None`. On a Python scalar x and scalar
    draws the result is an np.float64.
    """
    if out is None and not np.isscalar(x):
        x = np.asarray(x, dtype=float)
    return FAMILY_TABLE[spec.family].map(spec, theta, x, out)


# A row's map updates temporaries of x's shape in place with `*=` and `+=`,
# which rebind on scalars; an operation that may broadcast wider than x (a
# batch of draws against a grid of points) writes into `out` or allocates.


def _affine_map(spec, theta, x, out=None):
    return np.add(_affine_linear(spec, theta, x, out), _shift_vector(spec, theta), out=out)


def _extremal_map(spec, theta, x, out=None):
    return np.maximum(np.multiply(theta["a"], x, out=out), theta["b"], out=out)


def _letac_map(spec, theta, x, out=None):
    m = np.maximum(x, theta["b"], out=out)
    return np.add(np.multiply(theta["a"], m, out=out), theta["c"], out=out)


def _sqrtquad_map(spec, theta, x, out=None):
    _check_sqrtquad(theta)
    t = theta["a"] * x
    t *= x
    q = np.add(np.add(t, theta["b"] * x, out=out), theta["c"], out=out)
    return np.sqrt(q, out=out)


def _arch1_map(spec, theta, x, out=None):
    k = spec.constants
    r = k["lambda"] * x
    r *= x
    s = np.sqrt(k["beta"] + r)  # a dilated beta may be wider than x
    g = np.abs(x)
    g *= k["gamma"]  # read x before `out`, which may be x, is written
    return np.abs(np.add(g, np.multiply(s, theta["a"], out=out), out=out), out=out)


def apply_dilated(spec, theta, x, t):
    """t * psi_theta(x / t) for t > 0: `apply` with dilated parameters.

    The row's `dilation` gives the power of t that multiplies each
    translation parameter, or constant (arch1's beta).
    """
    if np.any(np.asarray(t) <= 0):
        raise PreconditionError("dilation parameter t must be positive")
    theta, constants = dict(theta), dict(spec.constants)
    for name, power in FAMILY_TABLE[spec.family].dilation.items():
        for values in (theta, constants):
            if name in values:
                values[name] = (t if power == 1 else t * t) * values[name]
    return apply(replace(spec, constants=constants), theta, x)


# ---------------------------------------------------------------------------
# backward composites: Z_n = Z_{n-1} o psi_n in closed form
#
# For three families the composition of n maps stays in a small class, so
# backward iteration can carry each member's few numbers instead of its
# draws. `init(spec, count)` is the identity map for `count` members,
# `update(spec, z, theta)` returns Z o psi_theta, and
# `evaluate(spec, z, x0)` returns Z(x0). A state is a dict of arrays with
# one entry per member.


def _extremal_init(spec, count):
    return {"a": np.ones(count), "b": np.full(count, -np.inf)}


def _extremal_update(spec, z, theta):
    # max(A max(a x, b), D) = max(A a x, max(D, A b)), since A > 0
    return {"a": z["a"] * theta["a"], "b": np.maximum(z["b"], z["a"] * theta["b"])}


def _letac_init(spec, count):
    return {"A": np.ones(count), "C": np.zeros(count), "D": np.full(count, -np.inf)}


def _letac_update(spec, z, theta):
    # psi(x) = max(a x + c, a b + c), so max(A psi(x) + C, D) is
    # max(A a x + A c + C, max(D, A (a b + c) + C)), since A > 0
    a, b, c = theta["a"], theta["b"], theta["c"]
    A, C = z["A"], z["C"]
    return {"A": A * a, "C": C + A * c, "D": np.maximum(z["D"], A * (a * b + c) + C)}


def _letac_evaluate(spec, z, x0):
    return np.maximum(z["A"] * x0 + z["C"], z["D"])


def _affine_init(spec, count):
    z = {"scale": np.ones(count)}
    if spec.dimension > 1:
        z["angle"] = np.zeros(count)
    z["shift"] = np.zeros(count if spec.dimension == 1 else (count, spec.dimension))
    return z


def _affine_update(spec, z, theta):
    # S R(Phi) (s R(angle) x + shift) + C: the rotations share one axis,
    # so they commute and their angles add
    new = {"scale": z["scale"] * theta["scale"]}
    if spec.dimension > 1:
        new["angle"] = np.remainder(z["angle"] + theta["angle"], math.tau)
    new["shift"] = z["shift"] + _affine_linear(spec, z, _shift_vector(spec, theta))
    return new


def _affine_evaluate(spec, z, x0):
    return _affine_linear(spec, z, x0) + z["shift"]


def composite(spec):
    """(init, update, evaluate) of the family's backward composite, or None."""
    return FAMILY_TABLE[spec.family].composite


# ---------------------------------------------------------------------------
# exact stationary draws: psi(x) = max(a x, b) with b in [b_lo, b_hi],
# 0 < b_lo <= b_hi < inf, has the stationary law of sup_{n >= 0} b_{n+1}
# exp(S_n), S_n = log a_1 + ... + log a_n, and `chains.stationary_batch`
# with sampler "exact" draws it exactly; with a constant b it is b exp(M),
# M = sup_n S_n


@dataclass(frozen=True)
class ExactWalk:
    """The walk behind an exact stationary draw sup_n b_{n+1} exp(S_n).

    Under the law of log a tilted by a^alpha the walk's steps are
    N(drift, sigma^2), and under a's own law N(-drift, sigma^2); a
    tilted first passage of height H is kept with probability
    exp(-alpha H).
    """

    b: float  # b's constant value, or the top of its range
    drift: float
    sigma: float
    alpha: float
    b_law: rnd.DistributionSpec | None = None  # None: b is the constant `b`


def _extremal_exact_refusal(spec):
    """Why the exact sampler does not apply to an extremal model, or None."""
    b, a = spec.laws["b"], spec.laws["a"]
    lo, hi = rnd.support(b)
    if not 0 < lo <= hi < math.inf:
        return f"b must be bounded and bounded away from 0, got {_law_text(b)}"
    if a.kind != "lognormal" or not a.params[0] < 0:
        return f"a must be lognormal(mu, sigma) with mu < 0, got {_law_text(a)}"
    return None


def _law_text(law):
    return f"{law.kind}({', '.join(map(repr, law.params or law.atoms))})"


def _extremal_exact(spec):
    if _extremal_exact_refusal(spec) is not None:
        return None
    mu, sigma = spec.laws["a"].params
    b = spec.laws["b"]
    # E a^alpha = exp(alpha mu + alpha^2 sigma^2 / 2) = 1, and tilting
    # N(mu, sigma^2) by exp(alpha y) shifts its mean to mu + alpha sigma^2,
    # which is -mu; -mu itself is the drift, free of that sum's rounding
    return ExactWalk(
        rnd.support(b)[1], -mu, sigma, -2.0 * mu / sigma**2,
        None if b.kind == "constant" else b,
    )


def exact_walk(spec):
    """The model's ExactWalk, or None when it admits no exact draw."""
    exact = FAMILY_TABLE[spec.family].exact
    return None if exact is None else exact(spec)


def exact_refusal(spec):
    """Why the model admits no exact stationary draw, or None when it does."""
    if FAMILY_TABLE[spec.family].exact is None:
        return f"the family must be extremal, got {spec.family}"
    return _extremal_exact_refusal(spec)


# ---------------------------------------------------------------------------
# the linear part, the limit map, per-draw bounds and derived scalar laws
# (None when outside the closed-form algebra)


def limit_map(spec, theta, x):
    """The t -> 0 limit of the dilated map; positively homogeneous in x."""
    return FAMILY_TABLE[spec.family].limit_map(spec, theta, x)


def m_scale(spec, theta):
    """|M_theta|: modulus of the linear part."""
    return FAMILY_TABLE[spec.family].m_scale(spec, theta)


def linear_apply(spec, theta, x):
    """M_theta x: the linear part applied to x (signed, rotated)."""
    return FAMILY_TABLE[spec.family].linear(spec, theta, x)


def lipschitz_bound(spec, theta):
    return FAMILY_TABLE[spec.family].lipschitz(spec, theta)


def cancellation_bound(spec, theta):
    """Bound on |psi_theta(x) - M_theta x| over the stationary support."""
    return FAMILY_TABLE[spec.family].cancellation(spec, theta)


def smoothness_bound(spec, theta):
    """Bound Q with |t psi(x/t) - limit_map(x)| <= t Q for all x, t in (0,1]."""
    return FAMILY_TABLE[spec.family].smoothness(spec, theta)


def _scaled_linear(spec, theta, x):
    return m_scale(spec, theta) * np.asarray(x, dtype=float)


def _abs_limit(spec, theta, x):
    return m_scale(spec, theta) * np.abs(x)


def _sqrtquad_bound(spec, theta, cancellation=False):
    """|b| / sqrt(a) + c / sqrt(vmin), vmin = c - b^2 / 4a, the smoothness
    bound; the cancellation bound has sqrt(c) for the second term where b >= 0."""
    a, b, c = theta["a"], theta["b"], theta["c"]
    floor = c / np.sqrt(c - b * b / (4.0 * a))
    if cancellation:
        floor = np.where(np.asarray(b) >= 0, np.sqrt(c), floor)
    return np.abs(b) / np.sqrt(a) + floor


def _arch1_m_scale(spec, theta):
    k = spec.constants
    return np.abs(k["gamma"] + math.sqrt(k["lambda"]) * np.asarray(theta["a"], dtype=float))


def _arch1_lipschitz(spec, theta):
    k = spec.constants
    return k["gamma"] + math.sqrt(k["lambda"]) * np.abs(theta["a"])


def linear_scale_law(spec):
    """Law of |M| as a DistributionSpec, or None when not representable."""
    return FAMILY_TABLE[spec.family].scale_law(spec)


def cancellation_law(spec):
    """Law of the cancellation bound |N|, or None."""
    return FAMILY_TABLE[spec.family].cancellation_law(spec)


def _enumerated_law(spec, value=cancellation_bound):
    """The law of `value(spec, theta)` over the theta atoms, or None."""
    if any(rnd.atoms(law) is None for law in spec.laws.values()):
        return None
    pairs = theta_atoms(spec)
    return rnd.discrete([float(value(spec, th)) for th, _ in pairs], [p for _, p in pairs])


def theta_atoms(spec):
    """All atoms of the theta law as (theta, probability) pairs.

    Only defined when every parameter law is atomic. A family whose
    sampler redraws the draws outside its domain (sqrt_quadratic) draws
    the product law conditioned on the domain, so the tuples outside it
    are dropped and the others' weights renormalised.
    """
    row = FAMILY_TABLE[spec.family]
    names = row.params(spec.dimension)
    tables = [rnd.atoms(spec.laws[name]) for name in names]
    for name, table in zip(names, tables):
        if table is None:
            raise PreconditionError(
                f"theta enumeration needs atomic laws; {name} is {spec.laws[name].kind}"
            )
    pairs = [
        ({name: v for name, (v, _) in zip(names, combo)}, math.prod(p for _, p in combo))
        for combo in itertools.product(*tables)
    ]
    if row.outside is None:
        return pairs
    outside, domain = row.outside
    kept = [(th, p) for th, p in pairs if not outside(th)]
    total = math.fsum(p for _, p in kept)
    if not total > 0:
        sections = ", ".join(f"[distributions.{name}]" for name in names)
        raise ConfigError(f"no atom tuple of {sections} with positive weight has {domain}")
    if len(kept) < len(pairs):
        kept = [(th, p / total) for th, p in kept]
    return kept


def _sqrtquad_scale_law(spec):
    """|M| = sqrt(a) as the sampler draws it, conditioned on the domain:
    over the tuples `theta_atoms` keeps once it drops one, under a's own law
    where no draw can be redrawn, and else None (a sampled curve)."""
    laws = spec.laws
    tables = [rnd.atoms(laws[k]) for k in "abc"]
    if None not in tables:
        if len(theta_atoms(spec)) < math.prod(map(len, tables)):
            return _enumerated_law(spec, m_scale)
    else:  # judged on the laws' ranges: a lognormal is positive but nears 0
        (a_lo, _), (b_lo, b_hi), (c_lo, _) = (rnd.support(laws[k]) for k in "abc")
        sure = all(lo > 0 or laws[k].kind == "lognormal" for k, lo in (("a", a_lo), ("c", c_lo)))
        b2 = max(b_lo * b_lo, b_hi * b_hi)
        if not (sure and (b2 == 0 or b2 < 4.0 * a_lo * c_lo)):
            return None
    return rnd.power_law(laws["a"], 0.5)


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class Family:
    """One map family. Its callables take the ModelSpec, then theta."""

    params: Callable  # dimension -> the parameter names, in draw order
    map: Callable  # (spec, theta, x, out=None) -> psi_theta(x), see `apply`
    m_scale: Callable  # |M_theta|, the modulus of the linear part
    limit_map: Callable  # (spec, theta, x), see `limit_map`
    smoothness: Callable  # Q of `smoothness_bound`
    scale_law: Callable  # spec -> the law of |M|, or None
    dimensions: tuple = (1,)
    constants: dict = field(default_factory=dict)  # name -> float or tuple, as config parses it
    check: Callable | None = None  # (dimension, laws, constants) -> constants
    domain: dict = field(default_factory=dict)  # parameter -> "positive" or ">= 0" for every draw
    sample: Callable | None = None  # (spec, rng, size) -> theta; None: law by law
    lipschitz: Callable = m_scale
    linear: Callable = _scaled_linear  # (spec, theta, x) -> M_theta x
    cancellation: Callable = smoothness_bound
    cancellation_law: Callable = _enumerated_law
    dilation: dict = field(default_factory=dict)  # parameter or constant -> power of t
    composite: tuple | None = None  # (init, update, evaluate); None: replay
    # (theta -> mask of the draws outside the domain, the domain as text):
    # the sampler redraws those, so `theta_atoms` drops them
    outside: tuple | None = None
    exact: Callable | None = None  # spec -> its ExactWalk, or None
    linear_maps: bool = False  # psi_theta(x) = scale * R x + shift everywhere


def _affine_params(d):
    shifts = ["shift"] if d == 1 else [f"shift_{i}" for i in range(1, d + 1)]
    return ["scale", *(["angle"] if d >= 2 else []), *shifts]


FAMILY_TABLE = {
    "affine": Family(
        _affine_params, _affine_map, domain={"scale": "positive"}, dimensions=(1, 2, 3),
        constants={"axis": tuple}, check=_affine_check, scale_law=lambda spec: spec.laws["scale"],
        m_scale=lambda spec, th: th["scale"], linear=_affine_linear, limit_map=_affine_linear,
        smoothness=lambda spec, th: radius(spec, _shift_vector(spec, th)),
        cancellation_law=lambda spec: (
            rnd.abs_law(spec.laws["shift"]) if spec.dimension == 1 else None
        ),
        dilation={"shift": 1, "shift_1": 1, "shift_2": 1, "shift_3": 1},
        composite=(_affine_init, _affine_update, _affine_evaluate), linear_maps=True,
    ),
    "extremal": Family(
        lambda d: ["a", "b"], _extremal_map, domain={"a": "positive"},
        m_scale=lambda spec, th: th["a"], scale_law=lambda spec: spec.laws["a"],
        limit_map=lambda spec, th, x: np.maximum(th["a"] * x, 0.0),
        smoothness=lambda spec, th: np.abs(th["b"]), dilation={"b": 1},
        cancellation=lambda spec, th: 2.0 * np.abs(th["b"]),
        cancellation_law=lambda spec: rnd.scaled_abs_law(spec.laws["b"], 2.0),
        # an extremal composite is an extremal draw
        composite=(_extremal_init, _extremal_update, _extremal_map),
        exact=_extremal_exact,
    ),
    "letac": Family(
        lambda d: ["a", "b", "c"], _letac_map, domain={"a": "positive", "b": ">= 0"},
        m_scale=lambda spec, th: th["a"], scale_law=lambda spec: spec.laws["a"],
        limit_map=lambda spec, th, x: th["a"] * np.maximum(x, 0.0),
        smoothness=lambda spec, th: th["a"] * th["b"] + np.abs(th["c"]),
        dilation={"b": 1, "c": 1}, composite=(_letac_init, _letac_update, _letac_evaluate),
    ),
    "sqrt_quadratic": Family(
        lambda d: ["a", "b", "c"], _sqrtquad_map, sample=_sample_sqrtquad,
        outside=(_sqrtquad_outside, "a > 0 and b^2 - 4ac < 0"),
        m_scale=lambda spec, th: np.sqrt(th["a"]), limit_map=_abs_limit,
        scale_law=_sqrtquad_scale_law,
        smoothness=_sqrtquad_bound, dilation={"b": 1, "c": 2},
        cancellation=lambda spec, th: _sqrtquad_bound(spec, th, cancellation=True),
    ),
    "arch1": Family(
        lambda d: ["a"], _arch1_map, check=_arch1_check,
        constants=dict.fromkeys(("gamma", "beta", "lambda"), float),
        m_scale=_arch1_m_scale, lipschitz=_arch1_lipschitz, limit_map=_abs_limit,
        smoothness=lambda spec, th: math.sqrt(spec.constants["beta"]) * np.abs(th["a"]),
        scale_law=lambda spec: rnd.abs_affine_law(
            spec.laws["a"], spec.constants["gamma"], math.sqrt(spec.constants["lambda"])
        ),
        cancellation_law=lambda spec: rnd.scaled_abs_law(
            spec.laws["a"], math.sqrt(spec.constants["beta"])
        ),
        dilation={"beta": 2},
    ),
}
FAMILIES = tuple(FAMILY_TABLE)
