"""Heavy-tail measurements on stationary samples.

The centerpiece is the pairwise tail-constant estimator
C = E(|psi_theta(S)|^alpha - |M_theta S|^alpha) / (alpha m_alpha)
with theta drawn fresh and *paired* against each stationary sample: both
terms must see the same (theta, S) or the cancellation that makes the
expectation finite is destroyed. The fresh draws are made a chunk at a
time, chunk c from its own stream `(master_seed, c, purpose)`, so the
estimator's memory does not grow with a full theta batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .errors import PreconditionError
from .randomness import stream

MOM_BLOCKS = 32
# Points of the survival grid over the plateau window, and of the Hill ladder
DEFAULT_T_POINTS = 32
DEFAULT_HILL_POINTS = 24
_PLATEAU_Q = (0.99, 0.9999)  # radius quantiles bounding the plateau window
_DIRECTION_Q = 0.999  # radius quantile above which samples give directions
_DIRECTION_BINS = 64  # bins per angular coordinate in d >= 2
# Pairs per chunk of the paired differences (_paired_gap); chunk c draws
# its theta from stream (master_seed, c, purpose), so this is part of the
# stream layout, as chains.BLOCK_SIZE is
_PAIR_CHUNK = 1 << 16


def default_hill_k(n):
    """floor(n^(2/3)), via the exact integer condition k^3 <= n^2."""
    k = int(round(n ** (2.0 / 3.0)))
    while k**3 > n**2:
        k -= 1
    while (k + 1) ** 3 <= n**2:
        k += 1
    return k


def survival_curve(samples, t_grid, alpha):
    """Rows (t, p_hat, t^alpha * p_hat) with p_hat = P(sample > t)."""
    return _survival_sorted(np.sort(np.asarray(samples, dtype=float)), t_grid, alpha)


def _survival_sorted(x, t_grid, alpha):
    """survival_curve of the ascending array x."""
    n = len(x)
    rows = []
    for t in t_grid:
        p = 1.0 - np.searchsorted(x, t, side="right") / n
        rows.append((float(t), float(p), float(t**alpha * p)))
    return rows


def _check_rung(k, n):
    if not 1 <= k < n:
        raise PreconditionError(f"hill needs 1 <= k < n, got k={k}, n={n}")


def _sorted_top(x, k):
    """The top k + 1 order statistics of x, ascending."""
    n = len(x)
    top = np.partition(x, n - k - 1)[n - k - 1 :]
    top.sort()
    return top


def _hill_from_top(top, k):
    """Hill estimate from the sorted top k + 1 order statistics."""
    cutoff = top[0]
    if cutoff <= 0:
        raise PreconditionError("hill cutoff order statistic is nonpositive")
    log_excess = np.log(top[1:] / cutoff)
    total = float(log_excess.sum())
    if total <= 0:
        raise PreconditionError("hill log-excesses are all zero (tied samples)")
    return k / total


def hill_estimator(samples, k):
    """Hill estimate of the tail index from the top k order statistics."""
    x = np.asarray(samples, dtype=float)
    _check_rung(k, len(x))
    return _hill_from_top(_sorted_top(x, k), k)


def hill_curve(samples, ks):
    """Hill ladder [(k, hill_estimator(samples, k)) for k in ks].

    Every rung reads the same top order statistics, so the top of the
    largest in-range rung is sorted once and each rung takes its top as
    a slice: the same values, so the same bits, as hill_estimator. An
    error is raised at the first rung that fails, as rung by rung.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    ks = [int(k) for k in ks]
    k_max = max((k for k in ks if 1 <= k < n), default=None)
    top = None if k_max is None else _sorted_top(x, k_max)
    return _hill_ladder(top, n, ks)


def _hill_ladder(top, n, ks):
    """hill_curve of n samples, given an ascending array whose last
    k + 1 values are the top order statistics for every in-range rung k."""
    ladder = []
    for k in ks:
        _check_rung(k, n)
        ladder.append((k, _hill_from_top(top[-(k + 1) :], k)))
    return ladder


def plateau_window(samples):
    """Default diagnostic window: between the two _PLATEAU_Q quantiles."""
    return _window(np.quantile(np.asarray(samples, dtype=float), _PLATEAU_Q))


def _window(quantiles):
    lo, hi = quantiles
    if not 0 < lo < hi:
        raise PreconditionError("plateau window is degenerate for these samples")
    return float(lo), float(hi)


def empirical_tail_constant(samples, alpha):
    """Median of t^alpha P(sample > t) over a log grid in the plateau window."""
    window = plateau_window(samples)
    grid = np.geomspace(window[0], window[1], DEFAULT_T_POINTS)
    rows = survival_curve(samples, grid, alpha)
    return float(np.median([r[2] for r in rows]))


# ---------------------------------------------------------------------------
# the explicit tail constant


def _mom_se(values):
    """Robust standard error of the mean via block medians.

    Block means are computed on a contiguous split; their median absolute
    deviation, normal-scaled, replaces the raw std which is unstable when
    the summands are themselves heavy-tailed.
    """
    values = np.asarray(values, dtype=float)
    usable = (len(values) // MOM_BLOCKS) * MOM_BLOCKS
    means = values[:usable].reshape(MOM_BLOCKS, -1).mean(axis=1)
    center = np.median(means)
    mad = np.median(np.abs(means - center))
    return 1.4826 * float(mad) / math.sqrt(MOM_BLOCKS), means


@dataclass(frozen=True)
class GoldieEstimate:
    constant: float
    se: float
    alpha: float
    m_alpha: float
    se_unreliable: bool = False


def _paired_gap(spec, master_seed, purpose, x, s):
    """|psi_theta(x)|^s - |M_theta x|^s, one term per (theta, x) pair.

    Chunk c of `_PAIR_CHUNK` pairs draws its theta as
    `sample_theta(spec, stream(master_seed, c, purpose), m)`, as a
    sampler block draws, so neither the draw nor the maps' temporaries
    hold more than a chunk.
    """
    d = np.empty(len(x))
    for c, lo in enumerate(range(0, len(x), _PAIR_CHUNK)):
        xc = x[lo : lo + _PAIR_CHUNK]
        th = models.sample_theta(spec, stream(master_seed, c, purpose), len(xc))
        lhs = models.radius(spec, models.apply(spec, th, xc)) ** s
        rhs = models.radius(spec, models.linear_apply(spec, th, xc)) ** s
        d[lo : lo + len(xc)] = lhs - rhs
    return d


def _require_goldie_inputs(x, alpha, m_alpha):
    if alpha <= 0 or m_alpha <= 0:
        raise PreconditionError("goldie_constant needs alpha > 0 and m_alpha > 0")
    if len(x) < MOM_BLOCKS:
        raise PreconditionError(
            f"goldie_constant needs at least {MOM_BLOCKS} samples for its "
            f"standard error, got {len(x)}"
        )


def goldie_constant(spec, batch_samples, alpha, m_alpha, master_seed=0):
    """Pairwise estimator of the tail constant; returns a GoldieEstimate.

    Its standard error splits the terms into MOM_BLOCKS blocks, so it
    needs at least MOM_BLOCKS samples.
    """
    x = np.asarray(batch_samples)
    _require_goldie_inputs(x, alpha, m_alpha)
    d = _paired_gap(spec, master_seed, "goldie", x, alpha)
    d /= alpha * m_alpha
    value = float(d.mean())
    se, block_means = _mom_se(d)
    spread = np.abs(block_means - np.median(block_means))
    mad = np.median(spread)
    unreliable = bool(alpha >= 2 and mad > 0 and spread.max() > 20 * mad)
    return GoldieEstimate(value, se, float(alpha), float(m_alpha), unreliable)


def sigma_mass(tail_constant, alpha):
    """Total mass of the spherical part of the tail measure: alpha * C."""
    return alpha * tail_constant


def direction_masses(samples, alpha, tail_constant):
    """Apportion sigma_mass over directions of the largest samples.

    The dimension is read from the batch: samples of shape (n,) split
    exactly over {+1, -1}; shape (n, 2) or (n, 3) uses _DIRECTION_BINS
    per angular coordinate and returns only directions that carry large
    samples. Any other shape is a precondition error.
    """
    total = sigma_mass(tail_constant, alpha)
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        cut = np.quantile(np.abs(x), _DIRECTION_Q)
        big = x[np.abs(x) >= cut]
        frac_plus = float(np.mean(big > 0)) if len(big) else 0.5
        return np.array([1.0, -1.0]), np.array(
            [total * frac_plus, total * (1.0 - frac_plus)]
        )
    if x.ndim != 2 or x.shape[1] not in (2, 3):
        raise PreconditionError(
            f"direction_masses takes samples of shape (n,), (n, 2) or (n, 3), got {x.shape}"
        )
    r = np.linalg.norm(x, axis=-1)
    cut = np.quantile(r, _DIRECTION_Q)
    big = x[r >= cut]
    u = big / np.linalg.norm(big, axis=-1, keepdims=True)
    if x.shape[1] == 2:
        ang = np.arctan2(u[:, 1], u[:, 0])
        hist, edges = np.histogram(ang, bins=_DIRECTION_BINS, range=(-np.pi, np.pi))
        centers = 0.5 * (edges[:-1] + edges[1:])
        dirs = np.stack([np.cos(centers), np.sin(centers)], axis=-1)
        weights = hist / hist.sum()
        keep = weights > 0
        return dirs[keep], total * weights[keep]
    az = np.arctan2(u[:, 1], u[:, 0])
    el = np.arcsin(np.clip(u[:, 2], -1, 1))
    hist, az_e, el_e = np.histogram2d(
        az, el, bins=_DIRECTION_BINS, range=[(-np.pi, np.pi), (-np.pi / 2, np.pi / 2)]
    )
    az_c = 0.5 * (az_e[:-1] + az_e[1:])
    el_c = 0.5 * (el_e[:-1] + el_e[1:])
    aa, ee = np.meshgrid(az_c, el_c, indexing="ij")
    dirs = np.stack(
        [np.cos(ee) * np.cos(aa), np.cos(ee) * np.sin(aa), np.sin(ee)], axis=-1
    ).reshape(-1, 3)
    weights = (hist / hist.sum()).reshape(-1)
    keep = weights > 0
    return dirs[keep], total * weights[keep]


# ---------------------------------------------------------------------------
# stationary moment identity


def moment_identity_residual(spec, s, batch_samples, kappa_s, master_seed=0):
    """Normalized residual of E|S|^s (1 - kappa(s)) = E(|psi(S)|^s - |MS|^s).

    Computed as one mean of per-pair differences, so the correlation
    between the two sides cancels inside the standard error. Requires
    s below the tail exponent (kappa_s < 1).
    """
    if not kappa_s < 1.0:
        raise PreconditionError(
            f"moment identity needs kappa(s) < 1, got {kappa_s}; s is at or "
            "beyond the tail exponent"
        )
    x = np.asarray(batch_samples)
    n = len(x)
    gap = _paired_gap(spec, master_seed, "identity", x, s)
    diff = models.radius(spec, x) ** s * (1.0 - kappa_s) - gap
    se = float(diff.std() / math.sqrt(n))
    mean = float(diff.mean())
    z = abs(mean) / se if se > 0 else math.inf if mean else 0.0
    return z, mean, se


def moment_upper_bound(n_moment_beta, kappa_beta, beta):
    """(E|N|^beta)^(1/beta) / (1 - kappa(beta)^(1/beta)); needs kappa < 1."""
    if not 0 < beta:
        raise PreconditionError("beta must be positive")
    if not kappa_beta < 1.0:
        raise PreconditionError("moment bound needs kappa(beta) < 1")
    return n_moment_beta ** (1.0 / beta) / (1.0 - kappa_beta ** (1.0 / beta))


# ---------------------------------------------------------------------------
# assembled report


@dataclass(frozen=True)
class TailReport:
    alpha: float
    m_alpha: float
    goldie: GoldieEstimate
    sigma_mass: float
    survival: list = field(default_factory=list)
    hill: list = field(default_factory=list)
    plateau: tuple = (0.0, 0.0)
    plateau_deviation: float = math.nan
    flags: tuple = ()


def tail_report(
    spec,
    batch_samples,
    alpha,
    m_alpha,
    master_seed=0,
    t_points=DEFAULT_T_POINTS,
    hill_points=DEFAULT_HILL_POINTS,
):
    """Survival grid, Hill ladder, tail constant and plateau diagnostics.

    The radii are sorted once, in place, and the window, the survival
    grid and the ladder all read that array, with the bits of
    plateau_window, survival_curve and hill_curve. They are freed
    before the tail constant, so the two full-length arrays are never
    held together.
    """
    x = np.asarray(batch_samples)
    _require_goldie_inputs(x, alpha, m_alpha)
    radii = models.radius(spec, x)  # a new array, so ours to reorder
    # the quantiles partition the radii in place; the values they read, and
    # so their bits, do not depend on the order numpy leaves behind
    window = _window(np.quantile(radii, _PLATEAU_Q, overwrite_input=True))
    radii.sort()
    t_grid = np.geomspace(window[0], window[1], t_points)
    surv = _survival_sorted(radii, t_grid, alpha)
    n = len(radii)
    k_top = default_hill_k(n)
    ks = np.unique(np.geomspace(max(8, k_top // 64), k_top, hill_points).astype(int))
    hill = _hill_ladder(radii, n, [int(k) for k in ks])
    del radii
    est = goldie_constant(spec, x, alpha, m_alpha, master_seed)
    if est.constant > 0:
        dev = max(abs(r[2] / est.constant - 1.0) for r in surv)
    else:
        dev = math.nan
    flags = []
    if est.se_unreliable:
        flags.append("se unreliable")
    if not est.constant > 0:
        flags.append("nonpositive tail constant")
    return TailReport(
        alpha=float(alpha),
        m_alpha=float(m_alpha),
        goldie=est,
        sigma_mass=sigma_mass(est.constant, alpha),
        survival=surv,
        hill=hill,
        plateau=window,
        plateau_deviation=float(dev),
        flags=tuple(flags),
    )
