"""Shared numeric helpers for the test suite."""

import math

import numpy as np

from liprec import chains, models
from liprec.errors import CapacityError, ConvergenceError
from liprec.randomness import stream

KS_C99 = 1.6276236115189503  # sqrt(-ln(0.005)/2)


def ks_critical_one(n, c=KS_C99):
    return c / math.sqrt(n)


def ks_critical_two(n, m, c=KS_C99):
    return c * math.sqrt((n + m) / (n * m))


# ---------------------------------------------------------------------------
# whole-block backward sampler: the reference for chains._backward_block


def _where_points(spec, mask, a, b):
    if models.point_dim(spec) == 1:
        return np.where(mask, a, b)
    return np.where(mask[:, None], a, b)


def reference_backward_block(spec, x0, tol, max_depth, rng, count):
    """The backward block with every step on every member; same outputs.

    The stop rule runs on the whole block under a mask, every full draw is
    stored, and the replay applies each draw to all members and keeps the
    result with `where` for those still running at that step.
    """
    x0_pts = chains._as_points(spec, x0, count)
    log_prod = np.zeros(count)
    osc_max = np.zeros(count)
    depth = np.zeros(count, dtype=np.int64)
    cert = np.full(count, np.inf)
    draws = []
    active = np.ones(count, dtype=bool)
    n_param = len(models.required_params(spec.family, spec.dimension))

    step = 0
    while step < max_depth:
        step += 1
        if step * count * n_param > chains._STORAGE_CAP:
            raise CapacityError(
                "backward draw storage guard tripped; lower max_depth, tol "
                "or the block size"
            )
        theta = models.sample_theta(spec, rng, count)
        draws.append(theta)
        lip = np.asarray(models.lipschitz_bound(spec, theta), dtype=float)
        osc = models.radius(spec, models.apply(spec, theta, x0_pts) - x0_pts)
        with np.errstate(divide="ignore"):
            log_prod += np.log(lip)
        np.maximum(osc_max, osc, out=osc_max)
        q = np.minimum(np.exp(log_prod / step), chains._Q_CAP)
        envelope = np.minimum(osc_max / (1.0 - q), chains._R_ENVELOPE)
        bound = np.exp(log_prod) * envelope
        newly = active & (bound < tol)
        depth[newly] = step
        cert[newly] = bound[newly]
        active &= ~newly
        if not active.any():
            break
    if active.any():
        worst = float(np.min(np.exp(log_prod[active])))
        raise ConvergenceError(
            f"backward iteration hit max_depth={max_depth} with running "
            f"bound still {worst:.3e} * envelope >= tol={tol}"
        )

    z = x0_pts.copy()
    for j in range(len(draws) - 1, -1, -1):
        y = models.apply(spec, draws[j], z)
        z = _where_points(spec, depth >= j + 1, y, z)
    return z, depth, cert


def reference_stationary_batch(spec, count, tol, master_seed, block_size, x0=None):
    """(samples, depths, bounds) of chains.stationary_batch, block by block."""
    if x0 is None:
        x0 = models.zero_point(spec)
    parts = [
        reference_backward_block(
            spec, x0, tol, chains.DEFAULT_MAX_DEPTH, stream(master_seed, b, "stationary"),
            min(block_size, count - lo),
        )
        for b, lo in enumerate(range(0, count, block_size))
    ]
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


# ---------------------------------------------------------------------------
# sampled moments in plain numpy: the reference for the cramer moment path


def _abs_draws(law, rng, n):
    """|X| for n draws of a uniform or lognormal law, as randomness.sample draws them."""
    if law.kind == "uniform":
        return np.abs(rng.uniform(law.params[0], law.params[1], n))
    mu, sigma = law.params
    return np.exp(mu + sigma * rng.standard_normal(n))


def _mean_se(p):
    return float(p.mean()), float(p.std() / math.sqrt(len(p)))


def reference_cramer_report(law, s_grid, bracket, master_seed, n_samples, tol=1e-3):
    """(kappa values, kappa se, alpha, m_alpha, m_alpha se, s_infinity) of the
    sampled cramer_report, each from its own stream, with every moment finite."""
    x = _abs_draws(law, stream(master_seed, 0, "kappa-grid"), n_samples)
    curve = [_mean_se(x**s) for s in s_grid]

    x = _abs_draws(law, stream(master_seed, 0, "cramer-root"), n_samples)
    lo, hi = bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float((x**mid).mean()) < 1.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)

    x = _abs_draws(law, stream(master_seed, 0, "m-alpha"), n_samples)
    m_alpha, m_alpha_se = _mean_se(x**alpha * np.log(x))

    if law.kind != "uniform":
        return (
            tuple(c[0] for c in curve), tuple(c[1] for c in curve),
            alpha, m_alpha, m_alpha_se, math.inf,  # closed-form law: every moment finite
        )
    rng = stream(master_seed, 0, "s-infinity")
    s_inf, s = 0.0, 1.0
    for _ in range(24):
        with np.errstate(over="ignore"):
            p = _abs_draws(law, rng, 10**5) ** s
            if not np.all(np.isfinite(p)):
                break
            value, se = _mean_se(p)
        if not math.isfinite(value) or se > 0.5 * value:
            break
        s_inf, s = s, 2.0 * s
    return (
        tuple(c[0] for c in curve), tuple(c[1] for c in curve),
        alpha, m_alpha, m_alpha_se, s_inf,
    )


def reference_arch1_m_alpha(gamma, lam, sd, alpha, master_seed, n_samples):
    """E M^alpha log M for arch1 with a ~ normal(0, sd): M = |gamma + sqrt(lam) a|."""
    a = stream(master_seed, 0, "m-alpha").normal(0.0, sd, n_samples)
    m = np.abs(gamma + math.sqrt(lam) * a)
    return float((m**alpha * np.log(m)).mean())
