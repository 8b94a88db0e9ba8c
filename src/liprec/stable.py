"""Stable-limit machinery for normalized Birkhoff sums.

The limit law's characteristic exponent is an integral against the tail
measure of the stationary law. Its ingredients:

* phi(x) = sum_k limit-map compositions applied to x (a.s. convergent
  series, positively homogeneous in x), drawn by a kernel's one method
  `phi_draws(pts, reps, rng)`,
* h(v, x) = E exp(i <v, phi(x)>), the series' characteristic kernel,
  a mean over those draws,
* Lambda functionals estimated by small-g rescaling of stationary
  samples, split at radius 1: the outer part is a plain Monte Carlo
  average, the inner part a deterministic radial quadrature against the
  polar decomposition, with phi drawn once per direction and rescaled by
  homogeneity so the near-zero cancellation is exact in the sample.

Four regimes, keyed by the tail exponent alpha: below 1 no centering,
at 1 a slowly-varying centering from xi, in (1,2) mean centering, at 2
a Gaussian limit with (n log n)^(1/2) norming.

The dimension comes from the data: samples and points are batches of
shape (n,) in 1-d or (n, d) in R^d, and a scalar v means 1-d.
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
_INNER_REPS = 512  # phi draws per direction in the inner parts of C_alpha and C_2
_OUTER_REPS = 256  # phi draws per rescaled point in the outer part of C_alpha
_OUTER_BLOCK = 1024  # rescaled points whose phi draws C_alpha holds at once
_SE_GROUPS = 8  # equal groups of the inner phi draws behind C_alpha's inner se
_SNAP_TOL = 1e-6  # alpha this close to 1 or 2 takes that boundary regime
_FIT_POINTS = 8  # t values in the stable index fit
FIT_MIN_SAMPLES = 144  # 3 / sqrt(n) <= 0.25, the index fit's lower |CF| band


def _cexpm1(t):
    """exp(i t) - 1 without cancellation at small t."""
    return -2.0 * np.sin(0.5 * t) ** 2 + 1j * np.sin(t)


def _dot(v, x):
    """<v, x> per point; a scalar v means 1-d points."""
    if np.ndim(v) == 0:
        return v * x
    return np.asarray(x) @ np.asarray(v)


def _radius(x):
    """|x| per point of a batch of shape (n,) or (n, d)."""
    x = np.asarray(x, dtype=float)
    return np.abs(x) if x.ndim == 1 else np.linalg.norm(x, axis=-1)


def _panels():
    """(nodes, weights) of Gauss quadrature on each dyadic panel
    [2^-k-1, 2^-k] of (2^-41, 1], largest panel first."""
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    for k in range(_PANEL_MIN_EXP):
        lo, hi = 2.0 ** (-k - 1), 2.0 ** (-k)
        yield 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * weights


# ---------------------------------------------------------------------------
# the phi series and its kernel


def phi_series_batch(spec, xs, rng, trunc_tol=1e-8):
    """One phi draw per row of xs, truncated once the running contraction
    product times |x| drops below trunc_tol (or the iterate hits 0)."""
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
        if terms > PHI_MAX_TERMS:
            raise ConvergenceError(
                f"phi series did not truncate within {PHI_MAX_TERMS} terms"
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
    """A model's phi series, as the C_alpha and C_2 integrators draw it."""

    def __init__(self, spec):
        self.spec = spec

    def phi_draws(self, pts, reps, rng):
        """`reps` phi draws at each of the points `pts`, shape (m,) or
        (m, d); returns shape (reps,) + pts.shape, one draw per point a row."""
        pts = np.asarray(pts, dtype=float)
        phis = phi_series_batch(self.spec, np.concatenate([pts] * reps), rng)
        return phis.reshape((reps,) + pts.shape)


class FlatKernel:
    """phi == 0, so h == 1: the synthetic kernel used by integrator oracles."""

    def phi_draws(self, pts, reps, rng):
        return np.zeros((reps,) + np.shape(pts))


# ---------------------------------------------------------------------------
# Lambda functionals


def lambda_functional(f, samples, g, alpha, zero_radius=None):
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
    beyond = _radius(y) > zero_radius
    fy = np.asarray(f(y[beyond]))
    vals = np.zeros(len(y), dtype=np.result_type(fy, 0.0))
    vals[beyond] = fy
    scale = g ** (-alpha)
    n = len(vals)
    if np.iscomplexobj(vals):
        se = scale * math.sqrt((vals.real.var() + vals.imag.var()) / n)
        return scale * complex(vals.mean()), se
    return scale * float(vals.mean()), scale * float(vals.std() / math.sqrt(n))


def lambda_functional_scheduled(f, samples, g_schedule, alpha, zero_radius=None):
    """Evaluate at the two smallest scales; certify by their agreement.

    Returns (value, se, agreed) where value/se come from the smallest g.
    Larger scales of the schedule are not evaluated.
    """
    gs = sorted(g_schedule)
    if len(gs) < 2:
        raise PreconditionError("schedule needs at least two scales")
    # larger scale first: an integrand that draws (c_alpha's) keeps its stream order
    v_next, s_next = lambda_functional(f, samples, gs[1], alpha, zero_radius)
    value, se = lambda_functional(f, samples, gs[0], alpha, zero_radius)
    agreed = abs(v_next - value) <= 3.0 * (s_next + se) + 1e-12
    return value, se, bool(agreed)


def xi(t, samples):
    """Centering function E[t S / (1 + |t S|^2)] from stationary samples:
    a float for samples of shape (n,), a d-vector for shape (n, d)."""
    x = np.asarray(samples, dtype=float)
    r2 = _radius(x) ** 2
    if x.ndim == 1:
        return float(np.mean(t * x / (1.0 + t * t * r2)))
    return np.mean(t * x / (1.0 + t * t * r2)[:, None], axis=0)


def tau(t, samples, alpha, tail_constant):
    """Tail-measure centering drift at scale t, alpha = 1 only.

    Lambda-integral of x/(1+|tx|^2) - x/(1+|x|^2), split at radius 1:
    outer part by sample rescaling, inner part by radial quadrature
    against the direction masses. Implemented for 1-d samples.
    """
    if abs(alpha - 1.0) > 1e-9:
        raise PreconditionError("tau is only defined in the alpha = 1 regime")
    if t <= 0:
        raise PreconditionError("tau needs t > 0")
    if np.ndim(samples) != 1:
        raise PreconditionError("tau estimator implemented for 1-d samples")

    def f(y):
        r2 = np.abs(y) ** 2
        return y * (1.0 / (1.0 + t * t * r2) - 1.0 / (1.0 + r2))

    outer, se, agreed = lambda_functional_scheduled(
        f, samples, (0.04, 0.02), 1.0, zero_radius=1.0
    )
    dirs, masses = tails.direction_masses(samples, 1.0, tail_constant)
    inner = 0.0
    for r, wq in _panels():
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
    outer_agreed: bool


def _regime_correction(alpha):
    """Integrand correction subtracted per regime, as corr(a, r2) with
    a = <v, x> and r2 = |x|^2."""
    if alpha < 1.0:
        return lambda a, r2: 0.0
    if abs(alpha - 1.0) <= 1e-9:
        return lambda a, r2: 1j * a / (1.0 + r2)
    return lambda a, r2: 1j * a


def c_alpha(v, alpha, samples, tail_constant, kernel, g_schedule=(0.04, 0.02), master_seed=0):
    """Characteristic exponent C_alpha(v) for alpha in (0, 2).

    Outer part (radius > 1): lambda_functional_scheduled of the integrand,
    with h at each rescaled point beyond radius 1 the mean of
    exp(i <v, phi>) over _OUTER_REPS phi draws, drawn for _OUTER_BLOCK
    points at a time so the draws held do not grow with the sample; a
    schedule of fewer than two scales is a precondition violation. Inner
    part (radius <= 1): dyadic-panel Gauss quadrature of the polar
    integrand per direction, with one common set of _INNER_REPS phi draws
    rescaled across radii.
    The inner se is the spread of the totals of _SE_GROUPS equal groups
    of those draws; it leaves out the noise of the direction masses.
    """
    if not 0 < alpha < 2:
        raise PreconditionError("c_alpha covers 0 < alpha < 2; use c_two at 2")
    corr = _regime_correction(alpha)
    rng_h = stream(master_seed, 0, "c-alpha-h")
    rng_phi = stream(master_seed, 0, "c-alpha-phi")

    def outer_integrand(pts):
        a = _dot(v, pts)
        # h per point, _OUTER_BLOCK points at a time: a block's (reps,
        # points) draws are freed before the next block draws
        h = np.empty(len(pts), dtype=complex)
        for lo in range(0, len(pts), _OUTER_BLOCK):
            phi = kernel.phi_draws(pts[lo:lo + _OUTER_BLOCK], _OUTER_REPS, rng_h)
            h[lo:lo + _OUTER_BLOCK] = np.exp(1j * _dot(v, phi)).mean(axis=0)
        return _cexpm1(a) * h - corr(a, _radius(pts) ** 2)

    outer, outer_se, agreed = lambda_functional_scheduled(
        outer_integrand, samples, g_schedule, alpha, zero_radius=1.0
    )

    # inner part: directions weighted by sigma masses
    dirs, masses = tails.direction_masses(samples, alpha, tail_constant)
    a_dir = _dot(v, dirs)  # (m,)
    b = _dot(v, kernel.phi_draws(dirs, _INNER_REPS, rng_phi))  # (reps, m)
    group_totals = np.zeros(_SE_GROUPS, dtype=complex)
    for r, w in _panels():
        wq = w * r ** (-alpha - 1.0)
        # phase: (reps, m, q); a group's mean of exp(i phase) is h at radius r
        phase = b[:, :, None] * r[None, None, :]
        base = _cexpm1(a_dir[:, None] * r[None, :])  # (m, q)
        corr_vals = corr(a_dir[:, None] * r[None, :], r[None, :] ** 2)
        for gi, group in enumerate(np.split(phase, _SE_GROUPS)):
            hg = np.exp(1j * group).mean(axis=0)  # (m, q)
            group_totals[gi] += np.einsum("m,mq,q->", masses, base * hg - corr_vals, wq)
    # the groups are equal and the integrand is affine in h, so the total
    # over all draws is the mean of the group totals
    inner_total = complex(group_totals.mean())
    inner_se = math.sqrt(
        (group_totals.real.var(ddof=1) + group_totals.imag.var(ddof=1)) / _SE_GROUPS
    )
    return CAlphaEstimate(
        value=complex(inner_total + outer),
        se=float(math.sqrt(inner_se**2 + outer_se**2)),
        outer_agreed=bool(agreed),
    )


def c_two(v, samples, tail_constant, kernel, master_seed=0):
    """Gaussian-regime exponent
    C_2(v) = -1/4 * sum_w sigma_w (<v,w>^2 + 2 <v,w> <v, E phi(w)>).

    Returns (value, se). E phi(w), the only sampled quantity, is the mean
    of _INNER_REPS phi draws per direction, and se is their sample std
    over sqrt(_INNER_REPS). At alpha = 2 the Cramer condition is
    E M^2 = 1, so every term of phi has second moment 1 and phi has
    infinite variance: se is not a valid standard error. On an affine
    model where E phi(1) = E M / (1 - E M), the closed form is
    C_2(1) = -4.1448, and phi seeds gave -3.657 +/- 0.187 and
    -4.364 +/- 0.396.
    """
    rng = stream(master_seed, 0, "c-two-phi")
    dirs, masses = tails.direction_masses(samples, 2.0, tail_constant)
    a = _dot(v, dirs)  # (m,)
    b = _dot(v, kernel.phi_draws(dirs, _INNER_REPS, rng))  # (reps, m)
    bmean = b.mean(axis=0)
    bse = b.std(axis=0, ddof=1) / math.sqrt(_INNER_REPS)
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


def limit_params(alpha, center=0.0):
    """Resolve the regime from alpha; snaps to the boundary cases."""
    if not 0 < alpha <= 2 + _SNAP_TOL:
        raise PreconditionError("alpha must lie in (0, 2]")
    if abs(alpha - 1.0) <= _SNAP_TOL:
        return LimitParams(1.0, "eq1", center)
    if abs(alpha - 2.0) <= _SNAP_TOL:
        return LimitParams(2.0, "eq2", center)
    if alpha < 1.0:
        return LimitParams(float(alpha), "sub1", 0.0)
    return LimitParams(float(alpha), "mid", center)


def require_normalizable(n, regime):
    """Refuse a chain length that the regime's normalization cannot scale."""
    if regime == "eq2" and n < 2:
        raise PreconditionError("the alpha = 2 normalization sqrt(n log n) needs n >= 2")


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
    require_normalizable(n, params.regime)
    return (s - n * params.center) / math.sqrt(n * math.log(n))


def empirical_cf(samples, t_grid, vs=None):
    """Rows (t, v_index, re, im, se) of the empirical characteristic function.

    The default direction is the first coordinate axis: 1.0 for samples of
    shape (n,), e_1 for shape (n, d).
    """
    x = np.asarray(samples)
    if vs is None:
        vs = [1.0] if x.ndim == 1 else [np.eye(x.shape[1])[0]]
    rows = []
    n = len(x)
    for vi, v in enumerate(vs):
        proj = _dot(v, x)
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


def _cf_modulus(ts, x):
    """|mean exp(i t x)| for each t, one t at a time: no (t, n) array.

    The array `np.abs` of the complex means rounds as the (t, n) matrix
    form did; Python's scalar `abs` can differ in the last bit.
    """
    return np.abs([np.exp(1j * (t * x)).mean() for t in ts])


def require_fit_samples(n):
    """Refuse an index fit on fewer than FIT_MIN_SAMPLES samples."""
    if n < FIT_MIN_SAMPLES:
        raise PreconditionError(
            f"the stable index fit needs at least {FIT_MIN_SAMPLES} samples, "
            f"got {n}: below that the empirical |CF| is noise in its band"
        )


def stable_index_fit(samples, t_window=None):
    """Slope of log(-log |CF|) against log t: the stable index.

    The empirical |CF| has a noise floor near 1/sqrt(n), so the ladder's
    band (0.25, 0.85) is only noise unless 3/sqrt(n) <= 0.25: fewer than
    FIT_MIN_SAMPLES samples is a precondition error. The window must
    keep |CF| inside (0.05, 1); outside it the double log is numerically
    meaningless and a precondition error is raised.
    """
    x = np.asarray(samples, dtype=float)
    require_fit_samples(len(x))
    if t_window is None:
        t_ref = 1.0 / max(np.quantile(np.abs(x), 0.9), 1e-12)
        ladder = t_ref * 2.0 ** np.arange(-24.0, 25.0)
        mods = _cf_modulus(ladder, x)
        usable = np.nonzero((mods > 0.25) & (mods < 0.85))[0]
        if usable.size < 2:
            raise PreconditionError("no usable CF window found for the index fit")
        t_window = (ladder[usable[0]], ladder[usable[-1]])
    ts = np.geomspace(t_window[0], t_window[1], _FIT_POINTS)
    mods = _cf_modulus(ts, x)
    if np.any(mods <= 0.05) or np.any(mods >= 1.0):
        raise PreconditionError(
            "CF modulus leaves (0.05, 1) inside the fit window"
        )
    yy = np.log(-np.log(mods))
    xx = np.log(ts)
    slope, intercept = np.polyfit(xx, yy, 1)
    return StableFit(float(slope), float(intercept), ts)


@dataclass(frozen=True)
class GaussianCheck:
    ks_stat: float
    ks_critical: float
    skewness: float
    excess_kurtosis: float
    passed: bool


def gaussian_check(samples):
    """KS distance to the moment-fitted normal plus shape statistics."""
    from scipy import stats

    x = np.asarray(samples, dtype=float)
    sd = x.std()
    if sd == 0:
        raise PreconditionError("degenerate sample: zero variance")
    ks = stats.kstest(x, "norm", args=(x.mean(), sd)).statistic
    crit = _KS_C99 / math.sqrt(len(x))
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
