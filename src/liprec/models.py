"""Model zoo: the catalog of random Lipschitz map families.

Each family fixes how a parameter draw theta acts on a point:

affine          psi(x) = scale * R x + shift, similarity in d <= 3
extremal        psi(x) = max(a x, b)
letac           psi(x) = a * max(x, b) + c
sqrt_quadratic  psi(x) = sqrt(a x^2 + b x + c), b^2 - 4 a c < 0
arch1           psi(x) = |gamma |x| + sqrt(beta + lambda x^2) a|

A draw theta is a dict from parameter name (in `required_params` order)
to a float, or to an array for a batch of draws; all operations accept
either and broadcast against the point argument. `sample_theta` draws a
batch parameter after parameter from one stream. `apply` holds the one
closed form per family. `apply_dilated` forms t * psi_theta(x / t) as
`apply` on dilated translation parameters: the same products that a
closed form written with t forms, so the two agree bit for bit, and at
t = 1 it is bit-identical to `apply`. `composite` gives, for extremal,
letac and affine, the closed form of a backward composition
psi_1 o ... o psi_n, which the backward sampler carries per member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import randomness as rnd
from .errors import ConfigError, DomainError, PreconditionError

FAMILIES = ("affine", "extremal", "letac", "sqrt_quadratic", "arch1")

_SQRTQUAD_MAX_REDRAWS = 100
# the power of t each translation parameter takes in the dilated map
_DILATION_POWERS = {
    "extremal": {"b": 1},
    "letac": {"b": 1, "c": 1},
    "sqrt_quadratic": {"b": 1, "c": 2},
}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    dimension: int = 1
    laws: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)


def required_params(family, dimension=1):
    if family == "affine":
        names = ["scale"]
        if dimension >= 2:
            names.append("angle")
        if dimension == 1:
            names.append("shift")
        else:
            names.extend(f"shift_{i}" for i in range(1, dimension + 1))
        return names
    if family == "extremal":
        return ["a", "b"]
    if family in ("letac", "sqrt_quadratic"):
        return ["a", "b", "c"]
    if family == "arch1":
        return ["a"]
    raise ConfigError(f"unknown family {family!r}")


def make_model(family, dimension=1, laws=None, constants=None):
    """Validated ModelSpec constructor; raises ConfigError on bad input."""
    laws = dict(laws or {})
    constants = dict(constants or {})
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    if family == "affine":
        if dimension not in (1, 2, 3):
            raise ConfigError("affine dimension must be 1, 2 or 3")
    elif dimension != 1:
        raise ConfigError(f"family {family} is one-dimensional")
    missing = [p for p in required_params(family, dimension) if p not in laws]
    if missing:
        raise ConfigError(f"missing parameter law(s): {', '.join(missing)}")
    extra = [p for p in laws if p not in required_params(family, dimension)]
    if extra:
        raise ConfigError(f"unknown parameter law(s): {', '.join(sorted(extra))}")
    if family == "arch1":
        for name in ("gamma", "beta", "lambda"):
            if name not in constants:
                raise ConfigError(f"arch1 needs model constant {name!r}")
            if constants[name] < 0:
                raise ConfigError(f"arch1 constant {name} must be >= 0")
        if not rnd.is_symmetric(laws["a"]):
            raise ConfigError("arch1 innovation law must be symmetric")
    if family == "affine" and dimension == 3:
        axis = np.asarray(constants.get("axis", (0.0, 0.0, 1.0)), dtype=float)
        if axis.shape != (3,) or not np.linalg.norm(axis) > 0:
            raise ConfigError("affine d=3 needs a nonzero 3-vector axis")
        constants["axis"] = tuple(axis / np.linalg.norm(axis))
    return ModelSpec(family, dimension, laws, constants)


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
    return scale * rx if out is None else np.multiply(scale, rx, out=out)


def _shift_vector(spec, theta):
    d = spec.dimension
    if d == 1:
        return np.asarray(theta["shift"], dtype=float)
    comps = [np.asarray(theta[f"shift_{i}"], dtype=float) for i in range(1, d + 1)]
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


# ---------------------------------------------------------------------------
# theta sampling


def sample_theta(spec, rng, size=None):
    """Draw theta (or a batch of `size` draws) in a fixed parameter order."""
    fam = spec.family
    laws = spec.laws
    if fam == "sqrt_quadratic":
        return _sample_sqrtquad(spec, rng, size)
    values = {}
    for name in required_params(fam, spec.dimension):
        values[name] = rnd.sample(laws[name], rng, size)
    return _check_domain(fam, values)


def _check_domain(fam, values):
    """`values` after the per-family domain checks of a theta draw."""
    if fam in ("extremal", "letac"):
        _require_positive(values["a"], fam, "a")
    if fam == "affine":
        _require_positive(values["scale"], fam, "scale")
    if fam == "letac" and np.any(np.asarray(values["b"]) < 0):
        raise DomainError("letac parameter b must be >= 0")
    return values


def _require_positive(v, fam, name):
    if np.any(np.asarray(v) <= 0):
        raise DomainError(f"{fam} parameter {name} must be positive")


def _sample_sqrtquad(spec, rng, size):
    """a, b and c in turn, then the draws with a <= 0 or b^2 - 4ac >= 0
    redrawn. Only the random parameters are redrawn, in place: a constant
    law's batch stays a read-only view, and drawing it reads nothing."""
    laws = spec.laws
    n = 1 if size is None else int(size)
    theta = {k: rnd.sample(laws[k], rng, n) for k in ("a", "b", "c")}
    random = [k for k in theta if laws[k].kind != "constant"]
    for _ in range(_SQRTQUAD_MAX_REDRAWS):
        a, b, c = theta.values()
        bad = (a <= 0) | (b * b - 4.0 * a * c >= 0)
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
    a = np.asarray(theta["a"], dtype=float)
    b = np.asarray(theta["b"], dtype=float)
    c = np.asarray(theta["c"], dtype=float)
    bad = b * b - 4.0 * a * c >= 0
    if np.any(bad):
        i = int(np.argmax(np.atleast_1d(bad)))
        aa = float(np.atleast_1d(a)[i if a.ndim else 0])
        bb = float(np.atleast_1d(b)[i if b.ndim else 0])
        cc = float(np.atleast_1d(c)[i if c.ndim else 0])
        raise DomainError(
            f"sqrt_quadratic tuple (a={aa}, b={bb}, c={cc}) violates b^2 - 4ac < 0"
        )


# ---------------------------------------------------------------------------
# the maps


def apply(spec, theta, x, out=None):
    """psi_theta(x), in closed form per family.

    With `out`, x must be a float array and `out` an array of its shape.
    The map is written into `out`, which is returned and may be x
    itself: only the operations that no longer read x write into it.
    The bits are those of `out=None`.
    """
    fam = spec.family
    if out is not None:
        return _APPLY_INTO[fam](spec, theta, x, out)
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    if fam == "affine":
        shift = theta["shift"] if spec.dimension == 1 else _shift_vector(spec, theta)
        return _affine_linear(spec, theta, x) + shift
    if fam == "extremal":
        return np.maximum(theta["a"] * x, theta["b"])
    if fam == "letac":
        return theta["a"] * np.maximum(x, theta["b"]) + theta["c"]
    if fam == "sqrt_quadratic":
        _check_sqrtquad(theta)
        return np.sqrt(theta["a"] * x * x + theta["b"] * x + theta["c"])
    g = spec.constants["gamma"]
    beta = spec.constants["beta"]
    lam = spec.constants["lambda"]
    return np.abs(g * np.abs(x) + np.sqrt(beta + lam * x * x) * theta["a"])


# `apply` into `out`, one per family: the same operations in the same
# order, with each temporary reused, so a step allocates little


def _affine_into(spec, theta, x, out):
    shift = theta["shift"] if spec.dimension == 1 else _shift_vector(spec, theta)
    return np.add(_affine_linear(spec, theta, x, out), shift, out=out)


def _extremal_into(spec, theta, x, out):
    return np.maximum(np.multiply(theta["a"], x, out=out), theta["b"], out=out)


def _letac_into(spec, theta, x, out):
    np.multiply(theta["a"], np.maximum(x, theta["b"], out=out), out=out)
    return np.add(out, theta["c"], out=out)


def _sqrtquad_into(spec, theta, x, out):
    _check_sqrtquad(theta)
    t = theta["a"] * x
    t *= x
    np.add(t, theta["b"] * x, out=out)
    out += theta["c"]
    return np.sqrt(out, out=out)


def _arch1_into(spec, theta, x, out):
    r = spec.constants["lambda"] * x
    r *= x
    np.sqrt(np.add(spec.constants["beta"], r, out=r), out=r)
    r *= theta["a"]
    np.add(spec.constants["gamma"] * np.abs(x), r, out=out)
    return np.abs(out, out=out)


_APPLY_INTO = {
    "affine": _affine_into,
    "extremal": _extremal_into,
    "letac": _letac_into,
    "sqrt_quadratic": _sqrtquad_into,
    "arch1": _arch1_into,
}


def apply_dilated(spec, theta, x, t):
    """t * psi_theta(x / t) for t > 0: `apply` with dilated parameters.

    The affine shifts, extremal b and letac b and c are multiplied by t,
    sqrt_quadratic b by t and c by t^2, and arch1's constant beta by t^2.
    """
    if np.any(np.asarray(t) <= 0):
        raise PreconditionError("dilation parameter t must be positive")
    if spec.family == "arch1":
        beta = (t * t) * spec.constants["beta"]
        return apply(replace(spec, constants={**spec.constants, "beta": beta}), theta, x)
    if spec.family == "affine":
        powers = {k: 1 for k in theta if k.startswith("shift")}
    else:
        powers = _DILATION_POWERS[spec.family]
    scaled = {k: (t if p == 1 else t * t) * theta[k] for k, p in powers.items()}
    return apply(spec, {**theta, **scaled}, x)


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


# family -> (init, update, evaluate); an extremal composite is an extremal draw
_COMPOSITES = {
    "extremal": (_extremal_init, _extremal_update, apply),
    "letac": (_letac_init, _letac_update, _letac_evaluate),
    "affine": (_affine_init, _affine_update, _affine_evaluate),
}


def composite(spec):
    """(init, update, evaluate) of the family's backward composite, or None."""
    return _COMPOSITES.get(spec.family)


def limit_map(spec, theta, x):
    """The t -> 0 limit of the dilated map; positively homogeneous in x."""
    fam = spec.family
    if fam == "affine":
        return _affine_linear(spec, theta, x)
    if fam == "extremal":
        return np.maximum(theta["a"] * x, 0.0)
    if fam == "letac":
        return theta["a"] * np.maximum(x, 0.0)
    return m_scale(spec, theta) * np.abs(x)


def m_scale(spec, theta):
    """|M_theta|: modulus of the linear part."""
    fam = spec.family
    if fam == "affine":
        scale = theta["scale"]
        return np.asarray(scale, dtype=float) if np.ndim(scale) else scale
    if fam in ("extremal", "letac"):
        return theta["a"]
    if fam == "sqrt_quadratic":
        return np.sqrt(theta["a"])
    g = spec.constants["gamma"]
    lam = spec.constants["lambda"]
    return np.abs(g + math.sqrt(lam) * np.asarray(theta["a"], dtype=float))


def linear_apply(spec, theta, x):
    """M_theta x: the linear part applied to x (signed, rotated)."""
    if spec.family == "affine":
        return _affine_linear(spec, theta, x)
    return m_scale(spec, theta) * np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# per-draw bounds


def lipschitz_bound(spec, theta):
    if spec.family != "arch1":
        return m_scale(spec, theta)
    g = spec.constants["gamma"]
    lam = spec.constants["lambda"]
    return g + math.sqrt(lam) * np.abs(theta["a"])


def cancellation_bound(spec, theta):
    """Bound on |psi_theta(x) - M_theta x| over the stationary support."""
    fam = spec.family
    if fam == "extremal":
        return 2.0 * np.abs(theta["b"])
    if fam == "sqrt_quadratic":
        a, b, c = theta["a"], theta["b"], theta["c"]
        vmin = c - b * b / (4.0 * a)
        floor = np.where(np.asarray(b) >= 0, np.sqrt(c), c / np.sqrt(vmin))
        return np.abs(b) / np.sqrt(a) + floor
    return smoothness_bound(spec, theta)


def smoothness_bound(spec, theta):
    """Bound Q with |t psi(x/t) - limit_map(x)| <= t Q for all x, t in (0,1]."""
    fam = spec.family
    if fam == "affine":
        return radius(spec, _shift_vector(spec, theta))
    if fam == "extremal":
        return np.abs(theta["b"])
    if fam == "letac":
        return theta["a"] * theta["b"] + np.abs(theta["c"])
    if fam == "sqrt_quadratic":
        a, b, c = theta["a"], theta["b"], theta["c"]
        vmin = c - b * b / (4.0 * a)
        return np.abs(b) / np.sqrt(a) + c / np.sqrt(vmin)
    beta = spec.constants["beta"]
    return math.sqrt(beta) * np.abs(theta["a"])


# ---------------------------------------------------------------------------
# derived scalar laws (None when outside the closed-form algebra)


def linear_scale_law(spec):
    """Law of |M| as a DistributionSpec, or None when not representable."""
    fam = spec.family
    if fam == "affine":
        return spec.laws["scale"]
    if fam in ("extremal", "letac"):
        return spec.laws["a"]
    if fam == "sqrt_quadratic":
        return rnd.power_law(spec.laws["a"], 0.5)
    g = spec.constants["gamma"]
    lam = spec.constants["lambda"]
    return rnd.abs_affine_law(spec.laws["a"], g, math.sqrt(lam))


def cancellation_law(spec):
    """Law of the cancellation bound |N|, or None."""
    fam = spec.family
    if fam == "affine":
        if spec.dimension != 1:
            return None
        return rnd.abs_law(spec.laws["shift"])
    if fam == "extremal":
        return rnd.scaled_abs_law(spec.laws["b"], 2.0)
    if fam == "arch1":
        beta = spec.constants["beta"]
        return rnd.scaled_abs_law(spec.laws["a"], math.sqrt(beta))
    if any(rnd.atoms(law) is None for law in spec.laws.values()):
        return None
    pairs = theta_atoms(spec)
    bounds = [float(cancellation_bound(spec, th)) for th, _ in pairs]
    return rnd.discrete(bounds, [p for _, p in pairs])


def theta_atoms(spec):
    """All atoms of the theta law as (theta, probability) pairs.

    Only defined when every parameter law is atomic.
    """
    names = required_params(spec.family, spec.dimension)
    tables = [rnd.atoms(spec.laws[name]) for name in names]
    for name, table in zip(names, tables):
        if table is None:
            raise PreconditionError(
                f"theta enumeration needs atomic laws; {name} is {spec.laws[name].kind}"
            )
    out = []
    for combo in itertools.product(*tables):
        theta = {name: item[0] for name, item in zip(names, combo)}
        out.append((theta, math.prod(item[1] for item in combo)))
    return out
