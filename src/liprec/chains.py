"""Forward and backward iteration engines.

Backward iteration composes fresh draws innermost, so the iterate is a.s.
Cauchy once the running Lipschitz product is small; we stop at the first
depth where product * oscillation-envelope < tol and return that bound as
a residual certificate.

Batches run in fixed blocks, one `randomness.stream` per block, read from
its start and merged by block index: results are a pure function of
(spec, master_seed, count) no matter how many worker threads execute the
blocks, and a larger batch's leading blocks repeat a smaller batch's full
blocks. Block sizes are constants, never derived from the thread count or
the batch size.

Draw layout of the backward sampler: step j of block b makes one
`models.sample_theta` call on the (master_seed, b, "stationary") stream,
sized to the members still running, which take its values in ascending
member index. A member's step-j draw is therefore fixed by the stream
and the live counts of steps 1..j, and those depend on x0 and tol: runs
from two seed points, or at two tolerances, draw from the same law but
not the same thetas. Draws, stop rule and composition all cover the live
members only, so every draw made is used. Extremal, letac and affine
maps compose in closed form (`models.composite`): each live member
carries its composed map Z_j = psi_1 o ... o psi_j, a few numbers, and
its sample is Z(x0) at its stop depth, so a block's memory does not grow
with depth. The sample rounds once where nested maps round at every
step, so it can differ from the nested value in the last bits. sqrt_quadratic and arch1
store each step's live random draws and replay them innermost-first: a
member runs at step j exactly when its stop depth is at least j, so the
live sets are rebuilt from the depths, and a constant law's parameter is
its value, a float that numpy broadcasts.

Draw layout of the forward engine: blocks of FORWARD_BLOCK members, each
drawing FORWARD_STEPS steps per `sample_theta` call, so that a step's
Python work is paid once per chunk of steps and two threads can share a
run of about 1e4 chains. Member i of block b takes its step-s draw from
element (s mod FORWARD_STEPS) * size + i of chunk s // FORWARD_STEPS of
the (master_seed, b, purpose) stream, where size is the block's member
count; the last chunk has the steps left.
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
BLOCK_SIZE = 16384  # backward sampler
FORWARD_BLOCK = 4096
FORWARD_STEPS = 16

_Q_CAP = 0.95  # contraction-rate clip for the oscillation envelope
_R_ENVELOPE = 1e9  # hard cap on the oscillation envelope
# Draw budget per block: the draw scalars made, live count times parameter
# count summed over the steps, so a composite and a replay family trip at
# the same step. It bounds what a replay stores, the live members' random
# thetas; a composite stores no draws.
_STORAGE_CAP = 1 << 27


@dataclass(frozen=True)
class StationaryBatch:
    samples: np.ndarray
    stop_depths: np.ndarray
    residual_bounds: np.ndarray
    tol: float

    def draw_counters(self):
        """Stop-depth mean, quantiles and max, and the theta draws made.

        A quantile is the smallest depth at which at least that share of
        the members have stopped. A member draws theta at each step down
        to its stop depth, so `theta_used`, the sum of the depths, counts
        every draw the sampler made.
        """
        d = self.stop_depths
        # np.quantile(d, ..., method="inverted_cdf") without its full copy
        # of d: the first depth whose running count reaches len(d) * p
        ranks = np.cumsum(np.bincount(d))
        p50, p90, p99 = np.searchsorted(ranks, len(d) * np.array((0.5, 0.9, 0.99)))
        return {
            "stop_depth_mean": float(d.mean()),
            "stop_depth_p50": int(p50),
            "stop_depth_p90": int(p90),
            "stop_depth_p99": int(p99),
            "stop_depth_max": int(d.max()),
            "theta_used": int(d.sum()),
        }


def _as_points(spec, x0, count):
    d = spec.dimension
    x0 = np.asarray(x0, dtype=float)
    if d == 1:
        return np.broadcast_to(x0, (count,)).copy()
    return np.broadcast_to(x0, (count, d)).copy()


# ---------------------------------------------------------------------------
# forward iteration


def _forward_block(spec, x0, n, rng, count, want_sums):
    z = _as_points(spec, x0, count)
    acc = np.zeros_like(z) if want_sums else None
    for first in range(0, n, FORWARD_STEPS):
        k = min(FORWARD_STEPS, n - first)
        chunk = models.sample_theta(spec, rng, k * count)
        for j in range(k):
            part = slice(j * count, (j + 1) * count)
            z = models.apply(spec, {name: v[part] for name, v in chunk.items()}, z)
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


def birkhoff_sums(spec, x0, n, replicas, master_seed, threads=1):
    """S_n = X_1 + ... + X_n for `replicas` independent chains."""
    _require_sizes(n, "replicas", replicas)

    def worker(block, size):
        rng = stream(master_seed, block, "birkhoff")
        return _forward_block(spec, x0, n, rng, size, want_sums=True)

    return np.concatenate(_run_blocks(worker, replicas, FORWARD_BLOCK, threads))


def forward_endpoints(spec, x0, n, count, master_seed, threads=1):
    """X_n for `count` independent forward chains (law comparison helper)."""
    _require_sizes(n, "count", count)

    def worker(block, size):
        rng = stream(master_seed, block, "forward")
        return _forward_block(spec, x0, n, rng, size, want_sums=False)

    return np.concatenate(_run_blocks(worker, count, FORWARD_BLOCK, threads))


# ---------------------------------------------------------------------------
# backward iteration


def _backward_block(spec, x0, tol, max_depth, rng, count):
    """Certified backward samples for one block; returns (points, depths, bounds).

    Everything runs on `live`, the ascending indices of the members
    still running, and on the arrays kept beside it: each step draws
    theta for the live members only, in that order. A family with a
    composite carries each live member's composed map and evaluates it
    at x0 when the member stops. The other families store each step's
    random draws and replay them: the replay rebuilds the live sets from
    the stop depths, and a constant law's parameter is the law's value.
    """
    comp = models.composite(spec)
    x0_pts = _as_points(spec, x0, count)  # every row is x0
    # the replay runs in place on x0's rows; the composite writes each
    # member's sample as it stops
    z = x0_pts if comp is None else np.empty_like(x0_pts)
    depth = np.zeros(count, dtype=np.int64)
    cert = np.full(count, np.inf)
    live = np.arange(count)
    log_prod = np.zeros(count)
    osc_max = np.zeros(count)
    if comp is not None:
        init, update, evaluate = comp
        state = init(spec, count)
    steps = []  # replay only: the live members' random draws per step
    n_param = len(models.required_params(spec.family, spec.dimension))
    # the law's value, not the step's batch, which for sqrt_quadratic is a
    # copy that the replay storage would keep alive; a float broadcasts
    # with the same bits as an array of it
    fixed = {k: law.params[0] for k, law in spec.laws.items() if law.kind == "constant"}

    step = made = 0
    while step < max_depth:
        step += 1
        made += len(live) * n_param
        if made > _STORAGE_CAP:
            raise CapacityError(
                "backward draw storage guard tripped; lower [experiment] count "
                f"below {count}, the block size, or raise tol so the chains "
                "stop sooner"
            )
        drawn = {
            k: v for k, v in models.sample_theta(spec, rng, len(live)).items() if k not in fixed
        }
        theta = {**drawn, **fixed}
        x0_live = x0_pts[: len(live)]
        lip = np.asarray(models.lipschitz_bound(spec, theta), dtype=float)
        osc = models.radius(spec, models.apply(spec, theta, x0_live) - x0_live)
        np.maximum(osc_max, osc, out=osc_max)
        # on a model that does not contract, exp(log_prod) overflows to inf;
        # an inf bound stops no member, so the depth guards end the run
        with np.errstate(divide="ignore", over="ignore"):
            log_prod += np.log(lip)
            q = np.minimum(np.exp(log_prod / step), _Q_CAP)
            envelope = np.minimum(osc_max / (1.0 - q), _R_ENVELOPE)
            bound = np.exp(log_prod) * envelope
        if comp is None:
            steps.append(drawn)
        else:
            # there the composed scale overflows too, and inf - inf or
            # inf * 0 in a translation part is nan; such members never stop
            with np.errstate(over="ignore", invalid="ignore"):
                state = update(spec, state, theta)
        stop = bound < tol
        if stop.any():
            done = live[stop]
            depth[done] = step
            cert[done] = bound[stop]
            keep = ~stop
            live, log_prod, osc_max = live[keep], log_prod[keep], osc_max[keep]
            if comp is not None:
                stopped = {k: v[stop] for k, v in state.items()}
                z[done] = evaluate(spec, stopped, x0_pts[: len(done)])
                state = {k: v[keep] for k, v in state.items()}
            if not len(live):
                break
    if len(live):
        with np.errstate(over="ignore"):
            worst = float(np.min(np.exp(log_prod)))
        raise ConvergenceError(
            f"backward iteration hit max_depth={max_depth} with running "
            f"bound still {worst:.3e} * envelope >= tol={tol}"
        )

    # replay innermost-first: member i uses draws 1..depth[i], that is the
    # steps whose live set holds i, the members with depth >= step in the
    # ascending order the live set had; popping frees the newest storage first
    while steps:
        idx = np.flatnonzero(depth >= len(steps))
        z[idx] = models.apply(spec, {**steps.pop(), **fixed}, z[idx])
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

    d = spec.dimension
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
    return StationaryBatch(samples, depths, certs, tol)
