"""Cramér condition: moment generating curve kappa(s) = E|M|^s, its root,
and the assumption checkers that gate the heavy-tail machinery.

kappa is computed in closed form whenever the |M| law stays inside the
distribution algebra; otherwise a common-random-number Monte Carlo
estimate is used, of the law or, on a model without one, of |M| of theta
draws, so the root bisection sees a monotone curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from . import randomness as rnd
from .errors import BracketError, MomentDivergenceError, PreconditionError

CLOSED_FORM_TOL = 1e-6
MONTE_CARLO_TOL = 1e-3
MODES = ("auto", "closed_form", "monte_carlo")
_CHECK_TOL = 1e-10  # slack of the cancellation and smoothness checks


@dataclass(frozen=True)
class Moments:
    """E|M|^s and E|M|^s log|M| with their se: from the closed-form `law`,
    or from the |M| draws `x` (se 0 for the closed form). Build one with
    `moments` from an |M| law, or with `moment_curve`, which without one
    draws |M| from theta; every quantity of one Cramér problem reads it."""

    law: object = None
    x: object = None

    @property
    def tol(self):
        """The root tolerance this curve supports: 1e-6 closed form, 1e-3 sampled."""
        return CLOSED_FORM_TOL if self.x is None else MONTE_CARLO_TOL

    def __call__(self, s, log=False):
        if self.x is None:
            return (rnd.abs_log_moment if log else rnd.abs_moment)(self.law, s), 0.0
        # A non-finite mean comes back as (inf, inf): divergence beyond the
        # finite-moment range is a signal, not a crash.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            p = self.x**s
            if log:
                p = np.where(self.x > 0, p * np.log(self.x), 0.0)
            if not np.all(np.isfinite(p)):
                return math.inf, math.inf
            m = float(p.mean())
            if not math.isfinite(m):
                return math.inf, math.inf
            return m, float(p.std() / math.sqrt(len(p)))

    def m_alpha(self, alpha):
        """(E(|M|^alpha log|M|), se); must be positive at the Cramér root."""
        value, se = self(alpha, log=True)
        if value <= 0:
            raise PreconditionError(
                f"m_alpha = {value:.6g} <= 0: alpha is not a valid Cramér exponent "
                "for this law"
            )
        return value, se


def require_sampling(mode, kind):
    """Refuse an unknown moment `mode`, and `closed_form` for |M| drawn from
    a law of `kind` whose moments have no closed form."""
    if mode not in MODES:
        raise PreconditionError(f"unknown moment mode {mode!r}")
    if mode == "closed_form":
        raise PreconditionError(f"no closed-form moments for kind {kind!r}")


def moments(m_law, mode="auto", rng=None, n_samples=rnd.DEFAULT_MC_SAMPLES):
    """The law's Moments under `mode`: closed form, or one |M| sample of
    `n_samples` drawn now from `rng` (common random numbers keep the
    empirical curve convex, so bisection on it is safe)."""
    if mode in ("auto", "closed_form") and rnd.abs_moment(m_law, 1.0) is not None:
        return Moments(law=m_law)
    require_sampling(mode, m_law.kind)
    if rng is None:
        raise PreconditionError("monte carlo moments need a stream")
    if n_samples < 1:
        raise PreconditionError(f"mc_samples must be at least 1, got {n_samples}")
    return Moments(x=np.abs(rnd.sample(m_law, rng, n_samples)))


def moment_curve(m_law, mode, master_seed, n_samples, spec=None):
    """The moment curve of one Cramér problem, drawn (when sampled) from the
    `(master_seed, 0, "moments")` stream: of `m_law`, or without one of |M|
    of `spec`'s theta draws (arch1, or sqrt_quadratic where the domain
    conditions a)."""
    rng = rnd.stream(master_seed, 0, "moments")
    if m_law is not None:
        return moments(m_law, mode, rng, n_samples)
    th = models.sample_theta(spec, rng, n_samples)
    return Moments(x=np.asarray(models.m_scale(spec, th), dtype=float))


def solve_cramer(curve, bracket, tol=None):
    """Root of kappa(s) = 1 on s > 0 by bisection of the Moments `curve`,
    to `tol` (the curve's own `tol` when None)."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise PreconditionError("bracket must satisfy 0 < lo < hi")
    tol = curve.tol if tol is None else tol

    def kap(s):
        return curve(s)[0]

    k_hi = kap(hi)
    if not math.isfinite(k_hi):
        raise MomentDivergenceError(
            f"kappa diverges at s={hi}; the root bracket crosses the finite-moment range"
        )
    k_lo = kap(lo)
    if not (k_lo < 1.0 < k_hi):
        raise BracketError(
            f"no Cramér root in bracket: kappa({lo})={k_lo:.6g}, kappa({hi})={k_hi:.6g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: no finer root exists
            break
        if kap(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# assumption checkers


@dataclass(frozen=True)
class CheckReport:
    name: str
    value: float
    se: float
    passed: bool
    detail: str = ""


def check_contraction(spec, n_samples, rng):
    """Estimate E log L_theta; PASS iff mean + 3 se < 0."""
    theta = models.sample_theta(spec, rng, n_samples)
    lip = np.asarray(models.lipschitz_bound(spec, theta), dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.log(lip)
    mean = float(logs.mean())
    se = float(logs.std() / math.sqrt(n_samples))
    return CheckReport("contraction", mean, se, mean + 3 * se < 0, "E log L + 3 se < 0")


def check_cancellation(spec, batch_samples, n_theta, rng):
    """|psi(x) - M x| <= |N| on sampled stationary points.

    Violations are reported, not raised: a positive fraction is the
    expected outcome when the support assumption itself fails.
    """
    x = np.asarray(batch_samples)
    idx = np.arange(n_theta) % len(x)
    x = x[idx]
    theta = models.sample_theta(spec, rng, n_theta)
    gap = models.radius(
        spec, models.apply(spec, theta, x) - models.linear_apply(spec, theta, x)
    )
    excess = gap - np.asarray(models.cancellation_bound(spec, theta), dtype=float)
    worst = float(excess.max())
    frac = float(np.mean(excess > _CHECK_TOL))
    return CheckReport(
        "cancellation", worst, 0.0, worst <= _CHECK_TOL, f"violating fraction {frac:.3g}"
    )


def check_smoothness(spec, x_grid, t_grid, n_theta, rng):
    """sup |t psi(x/t) - limit_map(x)| - t Q over grids; PASS iff <= _CHECK_TOL.

    `x_grid` holds points: shape (m,) in 1-d, (m, d) in d dimensions.
    """
    theta = models.sample_theta(spec, rng, n_theta)
    shaped = {k: np.reshape(v, (n_theta, 1)) for k, v in theta.items()}
    x = np.asarray(x_grid, dtype=float)
    q = np.reshape(models.smoothness_bound(spec, theta), (n_theta, 1))
    worst = -math.inf
    for t in t_grid:
        if not 0 < t <= 1:
            raise PreconditionError("smoothness grid needs t in (0, 1]")
        gap = models.radius(
            spec,
            models.apply_dilated(spec, shaped, x, t) - models.limit_map(spec, shaped, x),
        )
        worst = max(worst, float((gap - t * q).max()))
    return CheckReport("smoothness", worst, 0.0, worst <= _CHECK_TOL, "dilated-map envelope")


def nontriviality_probe(
    n_law, m_law, s_grid, rng=None, n_samples=rnd.DEFAULT_MC_SAMPLES
):
    """Rows (s, E|N|^s / kappa(s), (ratio)^(1/s)) plus a boundedness flag.

    A root staying bounded along the grid is evidence that the moment
    ratio condition holds with room to spare; steep growth flags risk.
    """
    num = moments(n_law, rng=rng, n_samples=n_samples)
    den = moments(m_law, rng=rng, n_samples=n_samples)
    rows = []
    for s in s_grid:
        ratio = num(s)[0] / den(s)[0]
        rows.append((float(s), float(ratio), float(ratio ** (1.0 / s))))
    roots = [r[2] for r in rows]
    bounded = roots[-1] <= 1.5 * max(roots[0], 1e-300) if len(roots) > 1 else True
    return rows, bounded

