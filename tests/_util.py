"""Shared numeric helpers for the test suite."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from liprec import chains, models, stable, support
from liprec import randomness as rnd
from liprec.errors import CapacityError, ConfigError, ConvergenceError, PreconditionError
from liprec.randomness import stream

KS_C99 = 1.6276236115189503  # sqrt(-ln(0.005)/2)


def ks_critical_one(n, c=KS_C99):
    return c / math.sqrt(n)


def ks_critical_two(n, m, c=KS_C99):
    return c * math.sqrt((n + m) / (n * m))


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak in bytes of the allocations it made)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


# ---------------------------------------------------------------------------
# one scalar forward chain: the reference for chains.birkhoff_sums


@dataclass(frozen=True)
class Trajectory:
    """Forward path: states[k] = X_k, partial_sums[k] = X_1 + ... + X_k."""

    states: np.ndarray
    partial_sums: np.ndarray


def forward_chain(spec, x0, n, rng):
    """Iterate X_k = psi_{theta_k}(X_{k-1}) one scalar draw at a time."""
    d = spec.dimension
    shape = (n + 1,) if d == 1 else (n + 1, d)
    states = np.empty(shape)
    sums = np.empty(shape)
    x = np.asarray(x0, dtype=float) if d > 1 else float(x0)
    states[0] = x
    sums[0] = 0.0
    running = np.zeros(d) if d > 1 else 0.0
    for k in range(1, n + 1):
        theta = models.sample_theta(spec, rng)
        x = models.apply(spec, theta, x)
        running = running + x
        states[k] = x
        sums[k] = running
    return Trajectory(states, sums)


def reference_forward(spec, x0, n, count, master_seed, purpose, want_sums):
    """Forward chains one block after another, a new state array per step.

    The reference for the bytes of chains.birkhoff_sums (purpose
    "birkhoff", want_sums) and chains.forward_endpoints ("forward"):
    block b draws chunks of up to FORWARD_STEPS steps from the
    (master_seed, b, purpose) stream, and the blocks are concatenated.
    """
    parts = []
    for b, start in enumerate(range(0, count, chains.FORWARD_BLOCK)):
        size = min(chains.FORWARD_BLOCK, count - start)
        rng = stream(master_seed, b, purpose)
        z = np.broadcast_to(np.asarray(x0, dtype=float), (size, *np.shape(x0))).copy()
        acc = np.zeros_like(z)
        for first in range(0, n, chains.FORWARD_STEPS):
            k = min(chains.FORWARD_STEPS, n - first)
            chunk = models.sample_theta(spec, rng, k * size)
            for j in range(k):
                part = slice(j * size, (j + 1) * size)
                z = models.apply(spec, {p: v[part] for p, v in chunk.items()}, z)
                acc += z
        parts.append(acc if want_sums else z)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# each map written per family in plain arithmetic: the reference for
# models.apply, whose family rows write each map once as ufunc calls that
# serve both `out=None` and `out=`


def reference_apply(spec, theta, x):
    """psi_theta(x), one closed form per family."""
    fam = spec.family
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    if fam == "affine":
        rx = models._rotate(spec, theta, x)
        scale = theta["scale"]
        if spec.dimension > 1 and np.ndim(scale):
            scale = np.asarray(scale, dtype=float)[..., None]
        shift = theta["shift"] if spec.dimension == 1 else models._shift_vector(spec, theta)
        return scale * rx + shift
    if fam == "extremal":
        return np.maximum(theta["a"] * x, theta["b"])
    if fam == "letac":
        return theta["a"] * np.maximum(x, theta["b"]) + theta["c"]
    if fam == "sqrt_quadratic":
        models._check_sqrtquad(theta)
        return np.sqrt(theta["a"] * x * x + theta["b"] * x + theta["c"])
    g = spec.constants["gamma"]
    beta = spec.constants["beta"]
    lam = spec.constants["lambda"]
    return np.abs(g * np.abs(x) + np.sqrt(beta + lam * x * x) * theta["a"])


# ---------------------------------------------------------------------------
# the dilated map written per family with t: the reference for
# models.apply_dilated, which dilates the parameters and calls apply


def reference_apply_dilated(spec, theta, x, t):
    """t * psi_theta(x / t), one closed form per family."""
    fam = spec.family
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    if fam == "affine":
        shift = theta["shift"] if spec.dimension == 1 else models._shift_vector(spec, theta)
        return models._affine_linear(spec, theta, x) + t * shift
    if fam == "extremal":
        return np.maximum(theta["a"] * x, t * theta["b"])
    if fam == "letac":
        return theta["a"] * np.maximum(x, t * theta["b"]) + t * theta["c"]
    if fam == "sqrt_quadratic":
        return np.sqrt(theta["a"] * x * x + t * theta["b"] * x + (t * t) * theta["c"])
    g = spec.constants["gamma"]
    beta = spec.constants["beta"]
    lam = spec.constants["lambda"]
    return np.abs(g * np.abs(x) + np.sqrt((t * t) * beta + lam * x * x) * theta["a"])


# ---------------------------------------------------------------------------
# sqrt_quadratic draws with every parameter copied and every parameter
# redrawn: the reference for models._sample_sqrtquad, which keeps a
# constant law's read-only view and redraws only the random parameters


def reference_sample_sqrtquad(spec, rng, size):
    """(a, b, c) batches of `size` draws, each a writable float copy."""
    laws = spec.laws
    a = np.array(rnd.sample(laws["a"], rng, size), dtype=float)
    b = np.array(rnd.sample(laws["b"], rng, size), dtype=float)
    c = np.array(rnd.sample(laws["c"], rng, size), dtype=float)
    for _ in range(models._SQRTQUAD_MAX_REDRAWS):
        bad = (a <= 0) | (b * b - 4.0 * a * c >= 0)
        k = int(np.count_nonzero(bad))
        if k == 0:
            return {"a": a, "b": b, "c": c}
        a[bad] = rnd.sample(laws["a"], rng, k)
        b[bad] = rnd.sample(laws["b"], rng, k)
        c[bad] = rnd.sample(laws["c"], rng, k)
    raise ConfigError("sqrt_quadratic rejection did not finish")


# ---------------------------------------------------------------------------
# one word at a time: the reference for support's batched fixed points


def compose(spec, word, x):
    """Apply the composition word[0] o word[1] o ... o word[-1] to x."""
    for theta in reversed(word):
        x = models.apply(spec, theta, x)
    return x


def fixed_point(spec, word, x0=None, tol=support.FIXPOINT_TOL, max_iter=support._MAX_BANACH_ITER):
    """Fixed point of a contracting composition, within tol (certified).

    Stops when the step shrinks below tol * (1 - L) / L, the a posteriori
    Banach bound for the composition's Lipschitz product L.
    """
    if not word:
        raise PreconditionError("empty composition word")
    lip = math.prod(float(models.lipschitz_bound(spec, th)) for th in word)
    if not lip < 1.0:
        raise PreconditionError(f"composition is not contracting (L = {lip:.6g})")
    x = models.zero_point(spec) if x0 is None else x0
    threshold = tol * (1.0 - lip) / lip if lip > 0 else math.inf
    for _ in range(max_iter):
        nxt = compose(spec, word, x)
        step = float(models.radius(spec, nxt - x))
        x = nxt
        if step <= threshold:
            return x
    raise ConvergenceError(
        f"fixed-point iteration did not certify within {max_iter} steps "
        f"(L = {lip:.6g})"
    )


# ---------------------------------------------------------------------------
# masked whole-block backward sampler: the reference for chains._backward_block


def _where_points(spec, mask, a, b):
    if spec.dimension == 1:
        return np.where(mask, a, b)
    return np.where(mask[:, None], a, b)


def reference_backward_block(spec, x0, tol, max_depth, rng, count, replay=False):
    """The backward block with every step on every member; same outputs.

    Each step draws theta for the `active` members only, in ascending
    index, and scatters the draws into full-block arrays under that mask;
    a stopped member's entries are NaN, so one that reached an output
    would show there. The stop rule runs on the whole block under the
    mask. A family with a composite updates every member's composed map
    at every step and evaluates it at x0 for the members that stop there,
    in the update order of `models.composite`. With `replay`, or for the
    other families, every scattered draw is stored, and the replay
    applies each draw to all members and keeps the result with `where`
    for those still running at that step.
    """
    comp = None if replay else models.composite(spec)
    x0_pts = chains._as_points(spec, x0, count)
    z = x0_pts.copy()
    log_prod = np.zeros(count)
    osc_max = np.zeros(count)
    depth = np.zeros(count, dtype=np.int64)
    cert = np.full(count, np.inf)
    draws = []
    active = np.ones(count, dtype=bool)
    n_param = len(models.required_params(spec.family, spec.dimension))
    if comp is not None:
        init, update, evaluate = comp
        state = init(spec, count)

    step = made = 0
    while step < max_depth:
        step += 1
        n_live = int(active.sum())
        made += n_live * n_param
        if made > chains._STORAGE_CAP:
            raise CapacityError(
                "backward draw storage guard tripped; lower [experiment] count "
                f"below {count}, the block size, or raise tol so the chains "
                "stop sooner"
            )
        theta = {}
        for k, v in models.sample_theta(spec, rng, n_live).items():
            theta[k] = np.full(count, np.nan)
            theta[k][active] = v
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
        if comp is None:
            draws.append(theta)
        else:
            state = update(spec, state, theta)
            z[newly] = evaluate(spec, {k: v[newly] for k, v in state.items()}, x0_pts[newly])
        if not active.any():
            break
    if active.any():
        worst = float(np.min(np.exp(log_prod[active])))
        raise ConvergenceError(
            f"backward iteration hit max_depth={max_depth} with running "
            f"bound still {worst:.3e} * envelope >= tol={tol}"
        )

    for j in range(len(draws) - 1, -1, -1):
        y = models.apply(spec, draws[j], z)
        z = _where_points(spec, depth >= j + 1, y, z)
    return z, depth, cert


def reference_stationary_batch(spec, count, tol, master_seed, x0=None, replay=False):
    """(samples, depths, bounds) of chains.stationary_batch, block by block
    in blocks of chains.BLOCK_SIZE."""
    block_size = chains.BLOCK_SIZE
    if x0 is None:
        x0 = models.zero_point(spec)
    parts = [
        reference_backward_block(
            spec, x0, tol, chains.DEFAULT_MAX_DEPTH, stream(master_seed, b, "stationary"),
            min(block_size, count - lo), replay,
        )
        for b, lo in enumerate(range(0, count, block_size))
    ]
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


# ---------------------------------------------------------------------------
# paired differences on a whole theta batch: the reference for
# tails._paired_gap, which draws and uses theta a chunk at a time


def reference_chunked_theta(spec, master_seed, purpose, n, chunk):
    """The theta batch of n pairs as tails._paired_gap draws it: chunk c
    is `sample_theta` on stream (master_seed, c, purpose), concatenated."""
    parts = [
        models.sample_theta(spec, stream(master_seed, c, purpose), min(chunk, n - lo))
        for c, lo in enumerate(range(0, n, chunk))
    ]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def reference_paired_gap(spec, theta, x, s):
    """|psi_theta(x)|^s - |M_theta x|^s, one term per (theta, x) pair."""
    lhs = models.radius(spec, models.apply(spec, theta, x)) ** s
    rhs = models.radius(spec, models.linear_apply(spec, theta, x)) ** s
    return lhs - rhs


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


def reference_cramer_solution(law, s_grid, bracket, master_seed, n_samples, tol=1e-3):
    """(kappa values, kappa se, alpha, m_alpha, m_alpha se) of a sampled
    Cramér problem: the grid, the root and m_alpha from one |M| sample on
    the "moments" stream."""
    x = _abs_draws(law, stream(master_seed, 0, "moments"), n_samples)
    curve = [_mean_se(x**s) for s in s_grid]
    lo, hi = bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float((x**mid).mean()) < 1.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    m_alpha, m_alpha_se = _mean_se(x**alpha * np.log(x))
    return tuple(c[0] for c in curve), tuple(c[1] for c in curve), alpha, m_alpha, m_alpha_se


def reference_arch1_m_alpha(gamma, lam, sd, alpha, master_seed, n_samples):
    """E M^alpha log M for arch1 with a ~ normal(0, sd): M = |gamma + sqrt(lam) a|."""
    a = stream(master_seed, 0, "moments").normal(0.0, sd, n_samples)
    m = np.abs(gamma + math.sqrt(lam) * a)
    return float((m**alpha * np.log(m)).mean())


# ---------------------------------------------------------------------------
# the CF modulus as a (t, n) matrix: the reference for stable.stable_index_fit,
# which evaluates it one t at a time


def _matrix_cf_modulus(ts, x):
    """|mean exp(i t x)| per t from the (t, n) matrix, 8 t values per
    matrix: each row's mean is its own reduction, so the row count does
    not change a bit, and 8 rows keep the suite's memory small."""
    return np.concatenate([
        np.abs(np.exp(1j * np.outer(ts[lo:lo + 8], x)).mean(axis=1))
        for lo in range(0, len(ts), 8)
    ])


def reference_stable_index_fit(samples, t_window=None):
    """stable.stable_index_fit with its CF modulus built as a matrix."""
    x = np.asarray(samples, dtype=float)
    if t_window is None:
        t_ref = 1.0 / max(np.quantile(np.abs(x), 0.9), 1e-12)
        ladder = t_ref * 2.0 ** np.arange(-24.0, 25.0)
        mods = _matrix_cf_modulus(ladder, x)
        usable = np.nonzero((mods > 0.25) & (mods < 0.85))[0]
        t_window = (ladder[usable[0]], ladder[usable[-1]])
    ts = np.geomspace(t_window[0], t_window[1], stable._FIT_POINTS)
    mods = _matrix_cf_modulus(ts, x)
    slope, intercept = np.polyfit(np.log(ts), np.log(-np.log(mods)), 1)
    return stable.StableFit(float(slope), float(intercept), ts)
