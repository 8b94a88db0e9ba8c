"""Stable-limit machinery for normalized Birkhoff sums.

The limit law's characteristic exponent is an integral against the tail
measure of the stationary law. Its ingredients:

* phi(x) = sum_k limit-map compositions applied to x (a.s. convergent
  series, positively homogeneous in x),
* h(v, x) = E exp(i <v, phi(x)>), the series' characteristic kernel,
* Lambda functionals estimated by small-g rescaling of stationary
  samples, split at radius 1: the outer part is a plain Monte Carlo
  average, the inner part a deterministic radial quadrature against the
  polar decomposition, with phi drawn once per direction and rescaled by
  homogeneity so the near-zero cancellation is exact in the sample.

Four regimes, keyed by the tail exponent alpha: below 1 no centering,
at 1 a slowly-varying centering from xi, in (1,2) mean centering, at 2
a Gaussian limit with (n log n)^(1/2) norming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, tails
from .errors import ConvergenceError, PreconditionError
from .randomness import stream

PHI_MAX_TERMS = 10**5
_GAUSS_NODES = 16
_PANEL_MIN_EXP = 41  # radial panels [2^-41, 1]
_KS_C99 = 1.6276236115189503  # sqrt(-ln(0.005)/2)


def _cexpm1(t):
    """exp(i t) - 1 without cancellation at small t."""
    return -2.0 * np.sin(0.5 * t) ** 2 + 1j * np.sin(t)


def _dot(v, x, dim):
    if dim == 1:
        return v * x
    return np.asarray(x) @ np.asarray(v)


def _radius(x, dim):
    x = np.asarray(x, dtype=float)
    return np.abs(x) if dim == 1 else np.linalg.norm(x, axis=-1)


def _panels(quad_points=_GAUSS_NODES):
    """(nodes, weights) of Gauss quadrature on each dyadic panel
    [2^-k-1, 2^-k] of (2^-41, 1], largest panel first."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    for k in range(_PANEL_MIN_EXP):
        lo, hi = 2.0 ** (-k - 1), 2.0 ** (-k)
        yield 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * weights


# ---------------------------------------------------------------------------
# the phi series and its kernel


def phi_series_batch(spec, xs, trunc_tol=1e-8, rng=None, max_terms=PHI_MAX_TERMS):
    """One phi draw per row of xs, truncated once the running contraction
    product times |x| drops below trunc_tol (or the iterate hits 0)."""
    if rng is None:
        raise PreconditionError("phi series needs an explicit stream")
    xs = np.asarray(xs, dtype=float)
    n = xs.shape[0]
    z = xs.copy()
    total = np.zeros_like(xs)
    prod = np.ones(n)
    r0 = models.radius(spec, xs)
    active = np.nonzero(prod * r0 >= trunc_tol)[0]
    terms = 0
    while active.size:
        terms += 1
        if terms > max_terms:
            raise ConvergenceError(
                f"phi series did not truncate within {max_terms} terms"
            )
        theta = models.sample_theta(spec, rng, active.size)
        znew = models.limit_map(spec, theta, z[active])
        z[active] = znew
        total[active] += znew
        prod[active] *= np.asarray(models.m_scale(spec, theta), dtype=float)
        alive = (prod[active] * r0[active] >= trunc_tol) & (
            models.radius(spec, znew) > 0
        )
        active = active[alive]
    return total


class ModelKernel:
    """Adapters feeding a model's phi series into the C_alpha integrator."""

    def __init__(self, spec, trunc_tol=1e-8):
        self.spec = spec
        self.dim = models.point_dim(spec)
        self.trunc_tol = trunc_tol

    def h_values(self, pts, v, reps, rng):
        """Inner-MC estimate of h(v, .) at each point; pts shape (m,) or (m, d)."""
        pts = np.asarray(pts, dtype=float)
        m = pts.shape[0]
        xs = np.repeat(pts, reps, axis=0)
        phis = phi_series_batch(self.spec, xs, self.trunc_tol, rng)
        vals = np.exp(1j * _dot(v, phis, self.dim)).reshape(m, reps)
        return vals.mean(axis=1)

    def phi_draws(self, pts, reps, rng):
        """phi samples at each point: returns shape (reps, m) or (reps, m, d)."""
        pts = np.asarray(pts, dtype=float)
        m = pts.shape[0]
        xs = np.concatenate([pts] * reps, axis=0)
        phis = phi_series_batch(self.spec, xs, self.trunc_tol, rng)
        if self.dim == 1:
            return phis.reshape(reps, m)
        return phis.reshape(reps, m, self.dim)


class FlatKernel:
    """h == 1 (phi == 0): the synthetic kernel used by integrator oracles."""

    def __init__(self, dim=1):
        self.dim = dim

    def h_values(self, pts, v, reps, rng):
        return np.ones(np.asarray(pts).shape[0], dtype=complex)

    def phi_draws(self, pts, reps, rng):
        pts = np.asarray(pts, dtype=float)
        shape = (reps, pts.shape[0]) if self.dim == 1 else (reps, pts.shape[0], self.dim)
        return np.zeros(shape)


# ---------------------------------------------------------------------------
# Lambda functionals


def lambda_functional(f, samples, g, alpha, zero_radius=None, dim=1):
    """g^(-alpha) E f(g S) -> (estimate, se).

    f must vanish on a ball around the origin and the caller must declare
    its radius: the rescaling trick only converges for such test
    functions, so an undeclared radius is a precondition violation. f is
    called once, on the rescaled points beyond that radius, and gives one
    value per point; every other point counts as 0.
    """
    if zero_radius is None or zero_radius <= 0:
        raise PreconditionError(
            "lambda_functional needs the declared radius on which f vanishes"
        )
    if g <= 0:
        raise PreconditionError("scale g must be positive")
    y = g * np.asarray(samples)
    beyond = _radius(y, dim) > zero_radius
    fy = np.asarray(f(y[beyond]))
    vals = np.zeros(len(y), dtype=np.result_type(fy, 0.0))
    vals[beyond] = fy
    scale = g ** (-alpha)
    n = len(vals)
    if np.iscomplexobj(vals):
        se = scale * math.sqrt((vals.real.var() + vals.imag.var()) / n)
        return scale * complex(vals.mean()), se
    return scale * float(vals.mean()), scale * float(vals.std() / math.sqrt(n))


def lambda_functional_scheduled(f, samples, g_schedule, alpha, zero_radius=None, dim=1):
    """Evaluate at each g; certify by agreement of the two smallest scales.

    Returns (value, se, agreed) where value/se come from the smallest g.
    """
    gs = sorted(g_schedule, reverse=True)
    if len(gs) < 2:
        raise PreconditionError("schedule needs at least two scales")
    results = [lambda_functional(f, samples, g, alpha, zero_radius, dim) for g in gs]
    (v1, s1), (v2, s2) = results[-2], results[-1]
    agreed = abs(v1 - v2) <= 3.0 * (s1 + s2) + 1e-12
    return results[-1][0], results[-1][1], bool(agreed)


def xi(t, samples, dim=1):
    """Centering function E[t S / (1 + |t S|^2)] from stationary samples."""
    x = np.asarray(samples, dtype=float)
    r2 = _radius(x, dim) ** 2
    if dim == 1:
        return float(np.mean(t * x / (1.0 + t * t * r2)))
    return np.asarray(np.mean(t * x / (1.0 + t * t * r2)[:, None], axis=0))


def tau(t, samples, alpha, tail_constant, dim=1, quad_points=_GAUSS_NODES):
    """Tail-measure centering drift at scale t, alpha = 1 only.

    Lambda-integral of x/(1+|tx|^2) - x/(1+|x|^2), split at radius 1:
    outer part by sample rescaling, inner part by radial quadrature
    against the direction masses.
    """
    if abs(alpha - 1.0) > 1e-9:
        raise PreconditionError("tau is only defined in the alpha = 1 regime")
    if t <= 0:
        raise PreconditionError("tau needs t > 0")
    if dim != 1:
        raise PreconditionError("tau estimator implemented for dim = 1")

    def f(y):
        r2 = np.abs(y) ** 2
        return y * (1.0 / (1.0 + t * t * r2) - 1.0 / (1.0 + r2))

    outer, se, agreed = lambda_functional_scheduled(
        f, samples, (0.04, 0.02), 1.0, zero_radius=1.0
    )
    dirs, masses = tails.direction_masses(samples, 1.0, tail_constant, dim=1)
    inner = 0.0
    for r, wq in _panels(quad_points):
        radial = (1.0 / (1.0 + t * t * r * r) - 1.0 / (1.0 + r * r)) * r ** (-1.0)
        inner += float(np.sum(wq * radial))
    drift = float(sum(m_ * w_ for w_, m_ in zip(dirs, masses)))  # sum sigma_w * w
    return drift * inner + outer, se, agreed


# ---------------------------------------------------------------------------
# the characteristic exponent C_alpha


@dataclass(frozen=True)
class CAlphaEstimate:
    value: complex
    se: float
    inner: complex
    outer: complex
    outer_agreed: bool
    alpha: float


def _regime_correction(alpha):
    """Integrand correction subtracted per regime, as corr(a, r2) with
    a = <v, x> and r2 = |x|^2."""
    if alpha < 1.0:
        return lambda a, r2: 0.0
    if abs(alpha - 1.0) <= 1e-9:
        return lambda a, r2: 1j * a / (1.0 + r2)
    return lambda a, r2: 1j * a


def c_alpha(
    v,
    alpha,
    samples,
    tail_constant,
    kernel,
    g_schedule=(0.04, 0.02),
    inner_reps=512,
    outer_reps=256,
    master_seed=0,
    dim=1,
    se_groups=8,
):
    """Characteristic exponent C_alpha(v) for alpha in (0, 2).

    Outer part (radius > 1): lambda_functional_scheduled of the integrand,
    with an inner Monte Carlo h at each rescaled point beyond radius 1; a
    schedule of fewer than two scales is a precondition violation. Inner
    part (radius <= 1): dyadic-panel Gauss quadrature of the polar
    integrand per direction, with one common set of phi draws rescaled
    across radii.
    """
    if not 0 < alpha < 2:
        raise PreconditionError("c_alpha covers 0 < alpha < 2; use c_two at 2")
    if not 2 <= se_groups <= inner_reps:
        raise PreconditionError(
            f"c_alpha needs 2 <= se_groups <= inner_reps, got {se_groups} and {inner_reps}"
        )
    corr = _regime_correction(alpha)
    rng_h = stream(master_seed, 0, "c-alpha-h")
    rng_phi = stream(master_seed, 0, "c-alpha-phi")

    def outer_integrand(pts):
        a = _dot(v, pts, dim)
        hvals = kernel.h_values(pts, v, outer_reps, rng_h)
        return _cexpm1(a) * hvals - corr(a, _radius(pts, dim) ** 2)

    outer, outer_se, agreed = lambda_functional_scheduled(
        outer_integrand, samples, g_schedule, alpha, zero_radius=1.0, dim=dim
    )

    # inner part: directions weighted by sigma masses
    dirs, masses = tails.direction_masses(samples, alpha, tail_constant, dim=dim)
    dir_pts = np.asarray(dirs, dtype=float)
    phis = kernel.phi_draws(dir_pts, inner_reps, rng_phi)  # (reps, m[, d])
    a_dir = _dot(v, dir_pts, dim)  # (m,)
    b = _dot(v, phis, dim)  # (reps, m)

    groups = np.array_split(np.arange(inner_reps), se_groups)
    group_totals = np.zeros(se_groups, dtype=complex)
    for r, w in _panels():
        wq = w * r ** (-alpha - 1.0)
        # e_facts: (reps, m, q); mean over reps gives h at radius r
        phase = b[:, :, None] * r[None, None, :]
        base = _cexpm1(a_dir[:, None] * r[None, :])  # (m, q)
        corr_vals = corr(a_dir[:, None] * r[None, :], r[None, :] ** 2)
        for gi, idxs in enumerate(groups):
            hg = np.exp(1j * phase[idxs]).mean(axis=0)  # (m, q)
            group_totals[gi] += np.einsum("m,mq,q->", masses, base * hg - corr_vals, wq)
    # h over all reps is the size-weighted mean of the group means, and the
    # integrand is affine in h, so the total is that mean of group totals
    sizes = np.array([len(idxs) for idxs in groups])
    inner_total = complex(np.dot(sizes, group_totals) / inner_reps)
    inner_se = float(
        math.sqrt(
            (group_totals.real.var(ddof=1) + group_totals.imag.var(ddof=1))
            / se_groups
        )
    )

    value = inner_total + outer
    se = math.sqrt(inner_se**2 + outer_se**2)
    return CAlphaEstimate(
        value=complex(value),
        se=float(se),
        inner=complex(inner_total),
        outer=complex(outer),
        outer_agreed=bool(agreed),
        alpha=float(alpha),
    )


def c_two(v, samples, tail_constant, kernel, inner_reps=512, master_seed=0, dim=1):
    """Gaussian-regime exponent
    C_2(v) = -1/4 * sum_w sigma_w (<v,w>^2 + 2 <v,w> <v, E phi(w)>).

    Returns (value, se); the expectation E phi(w) is the only sampled
    quantity.
    """
    rng = stream(master_seed, 0, "c-two-phi")
    dirs, masses = tails.direction_masses(samples, 2.0, tail_constant, dim=dim)
    dir_pts = np.asarray(dirs, dtype=float)
    phis = kernel.phi_draws(dir_pts, inner_reps, rng)  # (reps, m[, d])
    a = _dot(v, dir_pts, dim)  # (m,)
    b = _dot(v, phis, dim)  # (reps, m)
    bmean = b.mean(axis=0)
    bse = b.std(axis=0, ddof=1) / math.sqrt(inner_reps)
    value = -0.25 * float(np.sum(masses * (a * a + 2.0 * a * bmean)))
    se = 0.25 * float(np.sqrt(np.sum((masses * 2.0 * a * bse) ** 2)))
    return value, se


# ---------------------------------------------------------------------------
# normalization and diagnostics


@dataclass(frozen=True)
class LimitParams:
    alpha: float
    regime: str  # sub1 | eq1 | mid | eq2
    center: float = 0.0


def limit_params(alpha, center=0.0, snap_tol=1e-6):
    """Resolve the regime from alpha; snaps to the boundary cases."""
    if alpha <= 0 or alpha > 2 + snap_tol:
        raise PreconditionError("alpha must lie in (0, 2]")
    if abs(alpha - 1.0) <= snap_tol:
        return LimitParams(1.0, "eq1", center)
    if abs(alpha - 2.0) <= snap_tol:
        return LimitParams(2.0, "eq2", center)
    if alpha < 1.0:
        return LimitParams(float(alpha), "sub1", 0.0)
    return LimitParams(float(alpha), "mid", center)


def normalize_birkhoff(sums, n, params, xi_value=None):
    """Map raw Birkhoff sums S_n to the regime's normalized statistic."""
    s = np.asarray(sums, dtype=float)
    if params.regime == "sub1":
        return s * n ** (-1.0 / params.alpha)
    if params.regime == "eq1":
        if xi_value is None:
            raise PreconditionError("alpha = 1 normalization needs xi(1/n)")
        return s / n - n * xi_value
    if params.regime == "mid":
        return (s - n * params.center) * n ** (-1.0 / params.alpha)
    if n < 2:
        raise PreconditionError("the alpha = 2 normalization sqrt(n log n) needs n >= 2")
    return (s - n * params.center) / math.sqrt(n * math.log(n))


def empirical_cf(samples, t_grid, vs=None, dim=1):
    """Rows (t, v_index, re, im, se) of the empirical characteristic function."""
    x = np.asarray(samples)
    if vs is None:
        vs = [1.0] if dim == 1 else [np.eye(dim)[0]]
    rows = []
    n = len(x)
    for vi, v in enumerate(vs):
        proj = _dot(v, x, dim)
        for t in t_grid:
            vals = np.exp(1j * float(t) * proj)
            se = math.sqrt((vals.real.var() + vals.imag.var()) / n)
            rows.append((float(t), vi, float(vals.real.mean()), float(vals.imag.mean()), se))
    return rows


@dataclass(frozen=True)
class StableFit:
    alpha_hat: float
    intercept: float
    t_values: np.ndarray
    cf_modulus: np.ndarray


def stable_index_fit(samples, t_window=None, n_points=8):
    """Slope of log(-log |CF|) against log t: the stable index.

    The window must keep |CF| inside (0.05, 1); outside it the double log
    is numerically meaningless and a precondition error is raised.
    """
    x = np.asarray(samples, dtype=float)

    def cf_mod(ts):
        return np.abs(np.exp(1j * np.outer(ts, x)).mean(axis=1))

    if t_window is None:
        t_ref = 1.0 / max(np.quantile(np.abs(x), 0.9), 1e-12)
        ladder = t_ref * 2.0 ** np.arange(-24.0, 25.0)
        mods = cf_mod(ladder)
        usable = np.nonzero((mods > 0.25) & (mods < 0.85))[0]
        if usable.size < 2:
            raise PreconditionError("no usable CF window found for the index fit")
        t_window = (ladder[usable[0]], ladder[usable[-1]])
    ts = np.geomspace(t_window[0], t_window[1], n_points)
    mods = cf_mod(ts)
    if np.any(mods <= 0.05) or np.any(mods >= 1.0):
        raise PreconditionError(
            "CF modulus leaves (0.05, 1) inside the fit window"
        )
    yy = np.log(-np.log(mods))
    xx = np.log(ts)
    slope, intercept = np.polyfit(xx, yy, 1)
    return StableFit(float(slope), float(intercept), ts, mods)


@dataclass(frozen=True)
class GaussianCheck:
    ks_stat: float
    ks_critical: float
    skewness: float
    excess_kurtosis: float
    passed: bool


def gaussian_check(samples, level_critical=_KS_C99):
    """KS distance to the moment-fitted normal plus shape statistics."""
    from scipy import stats

    x = np.asarray(samples, dtype=float)
    sd = x.std()
    if sd == 0:
        raise PreconditionError("degenerate sample: zero variance")
    ks = stats.kstest(x, "norm", args=(x.mean(), sd)).statistic
    crit = level_critical / math.sqrt(len(x))
    skew = float(stats.skew(x))
    kurt = float(stats.kurtosis(x))
    return GaussianCheck(float(ks), float(crit), skew, kurt, bool(ks < crit))


def sample_stable_symmetric(alpha, size, rng):
    """Reference sampler: symmetric alpha-stable with CF exp(-|t|^alpha).

    Classical polar/exponential transform; test infrastructure for
    comparing simulated limits against an exact law.
    """
    if not 0 < alpha <= 2:
        raise PreconditionError("alpha must lie in (0, 2]")
    u = rng.uniform(-math.pi / 2, math.pi / 2, size)
    if alpha == 1.0:
        return np.tan(u)
    w = rng.exponential(1.0, size)
    num = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    rest = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return num * rest
