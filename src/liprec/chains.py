"""Forward and backward iteration engines.

Backward iteration composes fresh draws innermost, so the iterate is a.s.
Cauchy once the running Lipschitz product is small; we stop at the first
depth where product * oscillation-envelope < tol and return that bound as
a residual certificate.

Batches run in fixed blocks, one counter-based stream per block, merged
by block index: results are a pure function of (spec, master_seed, count)
no matter how many worker threads execute the blocks.

Draw layout of the backward sampler: every step draws theta for the whole
block, members that have already stopped included, so member i's step-j
draw is fixed by the block's stream, the block size, i and j. A member's
draws therefore depend neither on x0 nor on when the other members stop;
runs from two seed points, or at two tolerances, see the same thetas.
Only the draw spans the whole block: the stop rule runs on the members
still running, and only their thetas are stored and replayed, so that
work and memory scale with the draws used, not the draws made.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import CapacityError, ConvergenceError, PreconditionError
from .randomness import stream

DEFAULT_TOL = 1e-9
DEFAULT_MAX_DEPTH = 10**5
BLOCK_SIZE = 16384

_Q_CAP = 0.95  # contraction-rate clip for the oscillation envelope
_R_ENVELOPE = 1e9  # hard cap on the oscillation envelope
# Memory guard: draw scalars made per block (step * size * params). The
# storage keeps only the live members' thetas, so this count is an upper
# bound on what is stored.
_STORAGE_CAP = 1 << 27


@dataclass(frozen=True)
class StationaryBatch:
    samples: np.ndarray
    stop_depths: np.ndarray
    residual_bounds: np.ndarray
    tol: float
    block_size: int = BLOCK_SIZE

    def draw_counters(self):
        """Stop-depth mean and max, and theta draws made vs used.

        A block draws theta for all its members until its deepest member
        stops, so it makes size * max-depth draws; members use their depths.
        Only the draws follow `theta_drawn`: the stop rule, the stored
        draws and the replay cover the live members, so they follow
        `theta_used`.
        """
        d = self.stop_depths
        blocks = (d[lo:lo + self.block_size] for lo in range(0, len(d), self.block_size))
        return {
            "stop_depth_mean": float(d.mean()),
            "stop_depth_max": int(d.max()),
            "theta_drawn": sum(len(b) * int(b.max()) for b in blocks),
            "theta_used": int(d.sum()),
        }


def _as_points(spec, x0, count):
    d = models.point_dim(spec)
    x0 = np.asarray(x0, dtype=float)
    if d == 1:
        return np.broadcast_to(x0, (count,)).copy()
    return np.broadcast_to(x0, (count, d)).copy()


# ---------------------------------------------------------------------------
# forward iteration


def _forward_block(spec, x0, n, rng, count, want_sums):
    z = _as_points(spec, x0, count)
    acc = np.zeros_like(z) if want_sums else None
    for _ in range(n):
        theta = models.sample_theta(spec, rng, count)
        z = models.apply(spec, theta, z)
        if want_sums:
            acc += z
    return acc if want_sums else z


def _require_sizes(n, label, count):
    if n < 1 or count < 1:
        raise PreconditionError(
            f"forward chains need n >= 1 and {label} >= 1, got n = {n}, {label} = {count}"
        )


def _run_blocks(worker, count, block_size, threads):
    starts = list(range(0, count, block_size))
    jobs = [(b, min(block_size, count - s)) for b, s in enumerate(starts)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda j: worker(*j), jobs))
    else:
        parts = [worker(*j) for j in jobs]
    return parts


def birkhoff_sums(spec, x0, n, replicas, master_seed, threads=1, block_size=BLOCK_SIZE):
    """S_n = X_1 + ... + X_n for `replicas` independent chains."""
    _require_sizes(n, "replicas", replicas)

    def worker(block, size):
        rng = stream(master_seed, block, "birkhoff")
        return _forward_block(spec, x0, n, rng, size, want_sums=True)

    return np.concatenate(_run_blocks(worker, replicas, block_size, threads))


def forward_endpoints(spec, x0, n, count, master_seed, threads=1, block_size=BLOCK_SIZE):
    """X_n for `count` independent forward chains (law comparison helper)."""
    _require_sizes(n, "count", count)

    def worker(block, size):
        rng = stream(master_seed, block, "forward")
        return _forward_block(spec, x0, n, rng, size, want_sums=False)

    return np.concatenate(_run_blocks(worker, count, block_size, threads))


# ---------------------------------------------------------------------------
# backward iteration


def _backward_block(spec, x0, tol, max_depth, rng, count):
    """Certified backward samples for one block; returns (points, depths, bounds).

    Only the theta draw spans the whole block. The stop rule, the stored
    draws and the replay run on `live`, the ascending indices of the
    members still running, and on the arrays kept beside it.
    """
    # every row is x0 until the replay, which runs in place, so the leading
    # rows serve as the live members' x0
    z = _as_points(spec, x0, count)
    depth = np.zeros(count, dtype=np.int64)
    cert = np.full(count, np.inf)
    live = np.arange(count)
    log_prod = np.zeros(count)
    osc_max = np.zeros(count)
    steps = []  # (live, their thetas) per step: all the replay reads
    n_param = len(models.required_params(spec.family, spec.dimension))

    step = 0
    while step < max_depth:
        step += 1
        if step * count * n_param > _STORAGE_CAP:
            raise CapacityError(
                "backward draw storage guard tripped; lower [experiment] count "
                f"below {count}, the block size, or raise tol so the chains "
                "stop sooner"
            )
        theta = models.sample_theta(spec, rng, count)
        theta = models.ThetaDraw(theta.family, {k: v[live] for k, v in theta.values.items()})
        steps.append((live, theta))
        x0_live = z[: len(live)]
        lip = np.asarray(models.lipschitz_bound(spec, theta), dtype=float)
        osc = models.radius(spec, models.apply(spec, theta, x0_live) - x0_live)
        with np.errstate(divide="ignore"):
            log_prod += np.log(lip)
        np.maximum(osc_max, osc, out=osc_max)
        q = np.minimum(np.exp(log_prod / step), _Q_CAP)
        envelope = np.minimum(osc_max / (1.0 - q), _R_ENVELOPE)
        bound = np.exp(log_prod) * envelope
        stop = bound < tol
        if stop.any():
            done = live[stop]
            depth[done] = step
            cert[done] = bound[stop]
            keep = ~stop
            live, log_prod, osc_max = live[keep], log_prod[keep], osc_max[keep]
            if not len(live):
                break
    if len(live):
        worst = float(np.min(np.exp(log_prod)))
        raise ConvergenceError(
            f"backward iteration hit max_depth={max_depth} with running "
            f"bound still {worst:.3e} * envelope >= tol={tol}"
        )

    # replay innermost-first: member i uses draws 1..depth[i], that is the
    # steps whose live set holds i; popping frees the newest storage first
    while steps:
        idx, theta = steps.pop()
        z[idx] = models.apply(spec, theta, z[idx])
    return z, depth, cert


def stationary_batch(
    spec,
    count,
    tol=DEFAULT_TOL,
    master_seed=0,
    max_depth=DEFAULT_MAX_DEPTH,
    x0=None,
    threads=1,
    block_size=BLOCK_SIZE,
):
    """`count` certified draws from the stationary law, deterministically.

    Block b uses the (master_seed, b, "stationary") stream; merging is by
    block index, so thread count cannot change a single output bit.
    """
    if count <= 0:
        raise PreconditionError("count must be positive")
    if x0 is None:
        x0 = models.zero_point(spec)

    d = models.point_dim(spec)
    samples = np.empty((count,) if d == 1 else (count, d))
    depths = np.empty(count, dtype=np.int64)
    certs = np.empty(count)

    # each block writes its slice as it finishes, so no block's outputs
    # stay alive on its worker thread's heap until a final concatenation
    def worker(block, size):
        rng = stream(master_seed, block, "stationary")
        part = slice(block * block_size, block * block_size + size)
        samples[part], depths[part], certs[part] = _backward_block(
            spec, x0, tol, max_depth, rng, size
        )

    _run_blocks(worker, count, block_size, threads)
    return StationaryBatch(samples, depths, certs, tol, block_size)
