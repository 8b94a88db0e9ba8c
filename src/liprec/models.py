"""Model zoo: the catalog of random Lipschitz map families.

Each family fixes how a parameter draw theta acts on a point:

affine          psi(x) = scale * R x + shift, similarity in d <= 3
extremal        psi(x) = max(a x, b)
letac           psi(x) = a * max(x, b) + c
sqrt_quadratic  psi(x) = sqrt(a x^2 + b x + c), b^2 - 4 a c < 0
arch1           psi(x) = |gamma |x| + sqrt(beta + lambda x^2) a|

All operations accept scalar draws or batches of draws (array-valued
fields) and broadcast against the point argument. Dilations are computed
in closed form, so apply(theta, x) is bit-identical to the dilated map
at t = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import randomness as rnd
from .errors import ConfigError, DomainError, PreconditionError

FAMILIES = ("affine", "extremal", "letac", "sqrt_quadratic", "arch1")

_SQRTQUAD_MAX_REDRAWS = 100


@dataclass(frozen=True)
class ModelSpec:
    family: str
    dimension: int = 1
    laws: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ThetaDraw:
    """One parameter draw (scalar fields) or a batch (array fields)."""

    family: str
    values: dict


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


def point_dim(spec):
    return spec.dimension if spec.family == "affine" else 1


def zero_point(spec):
    d = point_dim(spec)
    return 0.0 if d == 1 else np.zeros(d)


def radius(spec, x):
    """|x|: absolute value in 1-d, euclidean norm along the last axis else."""
    x = np.asarray(x, dtype=float)
    if point_dim(spec) == 1:
        return np.abs(x)
    return np.linalg.norm(x, axis=-1)


def _rotate(spec, theta, x):
    d = spec.dimension
    if d == 1:
        return x
    x = np.asarray(x, dtype=float)
    ang = np.asarray(theta.values["angle"], dtype=float)
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


def _affine_linear(spec, theta, x):
    """scale * R x for an affine draw: its linear part applied to x."""
    rx = _rotate(spec, theta, x)
    if spec.dimension == 1:
        return theta.values["scale"] * rx
    scale = np.asarray(theta.values["scale"], dtype=float)
    if scale.ndim:
        scale = scale[..., None]
    return scale * rx


def _shift_vector(spec, theta):
    d = spec.dimension
    if d == 1:
        return np.asarray(theta.values["shift"], dtype=float)
    comps = [np.asarray(theta.values[f"shift_{i}"], dtype=float) for i in range(1, d + 1)]
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
    if fam in ("extremal", "letac"):
        _require_positive(values["a"], fam, "a")
    if fam == "affine":
        _require_positive(values["scale"], fam, "scale")
    if fam == "letac" and np.any(np.asarray(values["b"]) < 0):
        raise DomainError("letac parameter b must be >= 0")
    return ThetaDraw(fam, values)


def _require_positive(v, fam, name):
    if np.any(np.asarray(v) <= 0):
        raise DomainError(f"{fam} parameter {name} must be positive")


def _sample_sqrtquad(spec, rng, size):
    laws = spec.laws
    n = 1 if size is None else int(size)
    a = np.atleast_1d(np.asarray(rnd.sample(laws["a"], rng, n), dtype=float))
    b = np.atleast_1d(np.asarray(rnd.sample(laws["b"], rng, n), dtype=float))
    c = np.atleast_1d(np.asarray(rnd.sample(laws["c"], rng, n), dtype=float))
    for _ in range(_SQRTQUAD_MAX_REDRAWS):
        bad = (a <= 0) | (b * b - 4.0 * a * c >= 0)
        k = int(np.count_nonzero(bad))
        if k == 0:
            break
        a[bad] = rnd.sample(laws["a"], rng, k)
        b[bad] = rnd.sample(laws["b"], rng, k)
        c[bad] = rnd.sample(laws["c"], rng, k)
    else:
        raise ConfigError(
            "sqrt_quadratic laws keep violating b^2 - 4ac < 0 after "
            f"{_SQRTQUAD_MAX_REDRAWS} redraws"
        )
    if size is None:
        return ThetaDraw("sqrt_quadratic", {"a": float(a[0]), "b": float(b[0]), "c": float(c[0])})
    return ThetaDraw("sqrt_quadratic", {"a": a, "b": b, "c": c})


def _check_sqrtquad(theta):
    a = np.asarray(theta.values["a"], dtype=float)
    b = np.asarray(theta.values["b"], dtype=float)
    c = np.asarray(theta.values["c"], dtype=float)
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


def apply(spec, theta, x):
    """psi_theta(x)."""
    return apply_dilated(spec, theta, x, 1.0)


def apply_dilated(spec, theta, x, t):
    """t * psi_theta(x / t) for t > 0, in closed form per family."""
    if np.any(np.asarray(t) <= 0):
        raise PreconditionError("dilation parameter t must be positive")
    fam = spec.family
    v = theta.values
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    if fam == "affine":
        shift = v["shift"] if spec.dimension == 1 else _shift_vector(spec, theta)
        return _affine_linear(spec, theta, x) + t * shift
    if fam == "extremal":
        return np.maximum(v["a"] * x, t * v["b"])
    if fam == "letac":
        return v["a"] * np.maximum(x, t * v["b"]) + t * v["c"]
    if fam == "sqrt_quadratic":
        _check_sqrtquad(theta)
        rad = v["a"] * x * x + t * v["b"] * x + (t * t) * v["c"]
        return np.sqrt(rad)
    g = spec.constants["gamma"]
    beta = spec.constants["beta"]
    lam = spec.constants["lambda"]
    ax = np.abs(x)
    return np.abs(g * ax + np.sqrt((t * t) * beta + lam * x * x) * v["a"])


def limit_map(spec, theta, x):
    """The t -> 0 limit of the dilated map; positively homogeneous in x."""
    fam = spec.family
    v = theta.values
    if fam == "affine":
        return _affine_linear(spec, theta, x)
    if fam == "extremal":
        return np.maximum(v["a"] * x, 0.0)
    if fam == "letac":
        return v["a"] * np.maximum(x, 0.0)
    return m_scale(spec, theta) * np.abs(x)


def m_scale(spec, theta):
    """|M_theta|: modulus of the linear part."""
    fam = spec.family
    v = theta.values
    if fam == "affine":
        return np.asarray(v["scale"], dtype=float) if np.ndim(v["scale"]) else v["scale"]
    if fam in ("extremal", "letac"):
        return v["a"]
    if fam == "sqrt_quadratic":
        return np.sqrt(v["a"])
    g = spec.constants["gamma"]
    lam = spec.constants["lambda"]
    return np.abs(g + math.sqrt(lam) * np.asarray(v["a"], dtype=float))


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
    return g + math.sqrt(lam) * np.abs(theta.values["a"])


def cancellation_bound(spec, theta):
    """Bound on |psi_theta(x) - M_theta x| over the stationary support."""
    fam = spec.family
    v = theta.values
    if fam == "extremal":
        return 2.0 * np.abs(v["b"])
    if fam == "sqrt_quadratic":
        a, b, c = v["a"], v["b"], v["c"]
        vmin = c - b * b / (4.0 * a)
        floor = np.where(np.asarray(b) >= 0, np.sqrt(c), c / np.sqrt(vmin))
        return np.abs(b) / np.sqrt(a) + floor
    return smoothness_bound(spec, theta)


def smoothness_bound(spec, theta):
    """Bound Q with |t psi(x/t) - limit_map(x)| <= t Q for all x, t in (0,1]."""
    fam = spec.family
    v = theta.values
    if fam == "affine":
        return radius(spec, _shift_vector(spec, theta))
    if fam == "extremal":
        return np.abs(v["b"])
    if fam == "letac":
        return v["a"] * v["b"] + np.abs(v["c"])
    if fam == "sqrt_quadratic":
        a, b, c = v["a"], v["b"], v["c"]
        vmin = c - b * b / (4.0 * a)
        return np.abs(b) / np.sqrt(a) + c / np.sqrt(vmin)
    beta = spec.constants["beta"]
    return math.sqrt(beta) * np.abs(v["a"])


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
    """All atoms of the theta law as (ThetaDraw, probability) pairs.

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
        values = {name: item[0] for name, item in zip(names, combo)}
        prob = math.prod(item[1] for item in combo)
        out.append((ThetaDraw(spec.family, values), prob))
    return out
