"""Forward and backward iteration engines, and exact stationary draws.

`stationary_batch(sampler="backward")` composes fresh draws innermost, so
the iterate is a.s. Cauchy once the running Lipschitz product is small;
it stops at the first depth where product * oscillation-envelope < tol
and returns that bound as a residual certificate.

Where a model has an `models.exact_walk` (extremal, a ~ lognormal(mu,
sigma) with mu < 0, and b in [b_lo, b_hi] with 0 < b_lo <= b_hi < inf),
`sampler="exact"` draws the stationary law sup_n b_{n+1} exp(S_n), S_n =
log a_1 + ... + log a_n, with no truncation. A later term can beat the
best one so far, b* exp(S*), only if the walk climbs above
u = log(b* exp(S*)) - log(b_hi). A member at or below u walks under the
a^alpha-tilted step law N(-mu, sigma^2) until it first goes above u and
keeps that passage with probability exp(-alpha H), H the height it
climbed, so a kept path is one of the untilted walk conditioned to pass
u; its first rejection ends it, since the walk then never passes u
(Ensor & Glynn 2000; Blanchet & Wallwater 2015). A member above u takes
one N(mu, sigma^2) step. With a constant b, u is the walk's maximum
M = sup_n S_n, no member is ever above it, and the sample is b exp(M).
Its residual is 0.

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
step, so it can differ from the nested value in the last bits.
sqrt_quadratic and arch1 store each step's draw and replay it
innermost-first: a member runs at step j exactly when its stop depth is
at least j, so the live sets are rebuilt from the depths; a constant
law's stored draw is a read-only view of one value.

Draw layout of the exact sampler: block b reads the (master_seed, b,
"exact") stream, a purpose of its own so that it shares no draw with
the backward sampler. It draws one b per member before step 1; then
step j draws one standard normal per member still walking, one uniform
per member whose tilted walk went above u at step j, and one b per
member that landed on a new position at step j (a kept passage or a
plain step), each group in ascending member index. A constant b draws
nothing from the stream. A member's stop depth is its walk steps, so
the normals drawn are the sum of the depths.

A batch keeps its samples and each member's stop depth, and keeps the
residual bounds only when its caller asks, since only `simulate` writes
them. Stop depths are int32: the storage guard `_STORAGE_CAP` (2^27)
counts at least one draw per live member per step, so no block runs
2^31 steps. After the blocks finish, the heap pages their temporaries
freed in the worker threads' malloc arenas are handed back to the OS.

Draw layout of the forward engine: blocks of FORWARD_BLOCK members, each
drawing FORWARD_STEPS steps per `sample_theta` call, so that a step's
Python work is paid once per chunk of steps. Member i of block b takes
its step-s draw from element (s mod FORWARD_STEPS) * size + i of chunk
s // FORWARD_STEPS of the (master_seed, b, purpose) stream, where size
is the block's member count; the last chunk has the steps left.

Schedule of every engine: the blocks wait in one first-in, first-out
queue, and each worker thread takes the next block, runs its turn and
puts it back if work is left. A forward turn (`_forward_block`) is one
chunk of steps, a backward or exact turn (`_backward_block`,
`_exact_block`) the whole block. A
block's turns thus run in order, one thread at a time, and read its
stream in the layouts above for any thread count, while blocks of
unequal size (1e4 chains are 4096 + 4096 + 1808) keep every thread busy
until the run ends. The run raises the error of the lowest-index block
that raised, so errors do not depend on the thread count either. A
forward step updates the block's states in place (`models.apply(...,
out=)`); the states, running sums and backward samples are the block's
slices of the run's output arrays.
"""

from __future__ import annotations

import functools
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import models
from . import randomness as rnd
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
    stop_depths: np.ndarray  # int32
    residual_bounds: np.ndarray | None  # None unless the caller kept them
    tol: float

    def draw_counters(self):
        """Stop-depth mean, quantiles and max, and the theta draws made.

        A quantile is the smallest depth at which at least that share of
        the members have stopped. A member draws theta at each step down
        to its stop depth, so `theta_used`, the sum of the depths, counts
        every draw the sampler made; for the exact sampler it counts the
        walk's normals, and leaves out its uniforms and its draws of b.
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


def _points_shape(spec, count):
    return (count,) if spec.dimension == 1 else (count, spec.dimension)


def _as_points(spec, x0, count):
    return np.broadcast_to(np.asarray(x0, dtype=float), _points_shape(spec, count)).copy()


# ---------------------------------------------------------------------------
# forward iteration


@dataclass(slots=True)
class _ForwardBlock:
    """One forward block between turns: its stream and its chains."""

    rng: np.random.Generator
    z: np.ndarray  # the members' states
    acc: np.ndarray | None  # their running sums; None for endpoints
    step: int = 0  # the steps taken


def _forward_block(spec, block, n):
    """One turn: the block's next chunk of up to FORWARD_STEPS steps.

    The steps update `block.z` and `block.acc` in place. Returns whether
    steps are left.
    """
    size = len(block.z)
    k = min(FORWARD_STEPS, n - block.step)
    chunk = models.sample_theta(spec, block.rng, k * size)
    rows = {name: v.reshape(k, size) for name, v in chunk.items()}  # row j: step j
    z, acc = block.z, block.acc
    for j in range(k):
        models.apply(spec, {name: r[j] for name, r in rows.items()}, z, out=z)
        if acc is not None:
            acc += z
    block.step += k
    return block.step < n


def _take_turns(turn, blocks, threads):
    """Call `turn(block)` on every block until it returns False.

    At most one worker per block, and no more than `threads`, share one
    first-in, first-out queue of the blocks (see the module docstring).
    A turn that raises drops the blocks after its own from the queue,
    and those before it run on, so the exception re-raised here, that
    of the lowest-index block that raised, is the same at every thread
    count.
    """
    ready = deque(enumerate(blocks))
    lock = threading.Lock()
    failed = {}  # block index -> the exception its turn raised

    def work():
        while True:
            with lock:
                if not ready:
                    return
                i, block = ready.popleft()
                if failed and i > min(failed):
                    continue
            try:
                more = turn(block)
            except Exception as exc:  # Ctrl-C at one thread stops at once
                with lock:
                    failed[i] = exc
                continue
            if more:
                with lock:
                    ready.append((i, block))

    workers = min(threads, len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(work) for _ in range(workers)]:
                future.result()
    else:
        work()
    if failed:
        raise failed[min(failed)]


def _forward_run(spec, x0, n, count, master_seed, purpose, want_sums, threads):
    """The sums, or the endpoints, of `count` forward chains of n steps.

    Block b's states, and its running sums, are its slices of one array
    each, so the blocks' results need no concatenation.
    """
    states = _as_points(spec, x0, count)
    sums = np.zeros_like(states) if want_sums else None
    blocks = [
        _ForwardBlock(
            stream(master_seed, b, purpose),
            states[s : s + FORWARD_BLOCK],
            None if sums is None else sums[s : s + FORWARD_BLOCK],
        )
        for b, s in enumerate(range(0, count, FORWARD_BLOCK))
    ]
    _take_turns(lambda block: _forward_block(spec, block, n), blocks, threads)
    return states if sums is None else sums


def require_forward_sizes(n, label, count):
    """Refuse forward chains of fewer than one step, or fewer than one chain."""
    if n < 1 or count < 1:
        raise PreconditionError(
            f"forward chains need n >= 1 and {label} >= 1, got n = {n}, {label} = {count}"
        )


def birkhoff_sums(spec, x0, n, replicas, master_seed, threads=1):
    """S_n = X_1 + ... + X_n for `replicas` independent chains."""
    require_forward_sizes(n, "replicas", replicas)
    return _forward_run(spec, x0, n, replicas, master_seed, "birkhoff", True, threads)


def forward_endpoints(spec, x0, n, count, master_seed, threads=1):
    """X_n for `count` independent forward chains from x0 (None: the origin)."""
    require_forward_sizes(n, "count", count)
    if x0 is None:
        x0 = models.zero_point(spec)
    return _forward_run(spec, x0, n, count, master_seed, "forward", False, threads)


# ---------------------------------------------------------------------------
# backward iteration


def _no_contraction(log_prod):
    """A guard's advice when no live running Lipschitz product is below 1, else ''."""
    if log_prod.min() < 0:
        return ""
    return (
        "no running Lipschitz product has fallen below 1: these maps do not "
        "contract, so no count, tol or max_depth will help"
    )


def _backward_block(spec, x0, tol, max_depth, rng, count):
    """Certified backward samples for one block; returns (points, depths, bounds).

    Everything runs on `live`, the ascending indices of the members
    still running, and on the arrays kept beside it: each step draws
    theta for the live members only, in that order, and x0 broadcasts
    against the draw. A family with a composite carries each live
    member's composed map and evaluates it at x0 when the member stops.
    The other families store each step's draw and replay it: the replay
    rebuilds the live sets from the stop depths.
    """
    comp = models.composite(spec)
    # the replay runs in place on rows of x0; the composite writes each
    # member's sample as it stops
    z = _as_points(spec, x0, count) if comp is None else np.empty(_points_shape(spec, count))
    depth = np.zeros(count, dtype=np.int32)  # see the module docstring
    cert = np.full(count, np.inf)
    live = np.arange(count)
    log_prod = np.zeros(count)
    osc_max = np.zeros(count)
    if comp is not None:
        init, update, evaluate = comp
        state = init(spec, count)
    steps = []  # replay only: the live members' draw per step
    n_param = len(models.required_params(spec.family, spec.dimension))

    step = made = 0
    while step < max_depth:
        step += 1
        made += len(live) * n_param
        if made > _STORAGE_CAP:
            raise CapacityError(
                "backward draw storage guard tripped; "
                + (
                    _no_contraction(log_prod)
                    or f"lower [experiment] count below {count}, the block size, "
                    "or raise tol so the chains stop sooner"
                )
            )
        theta = models.sample_theta(spec, rng, len(live))
        lip = models.lipschitz_bound(spec, theta)
        osc = models.radius(spec, models.apply(spec, theta, x0) - x0)
        np.maximum(osc_max, osc, out=osc_max)
        # on a model that does not contract, exp(log_prod) overflows to inf;
        # an inf bound stops no member, so the depth guards end the run
        with np.errstate(divide="ignore", over="ignore"):
            log_prod += np.log(lip)
            q = np.minimum(np.exp(log_prod / step), _Q_CAP)
            envelope = np.minimum(osc_max / (1.0 - q), _R_ENVELOPE)
            bound = np.exp(log_prod) * envelope
        if comp is None:
            steps.append(theta)
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
                z[done] = evaluate(spec, {k: v[stop] for k, v in state.items()}, x0)
                state = {k: v[keep] for k, v in state.items()}
            if not len(live):
                break
    if len(live):
        with np.errstate(over="ignore"):
            worst = float(np.min(np.exp(log_prod)))
        why = _no_contraction(log_prod)
        raise ConvergenceError(
            f"backward iteration hit max_depth={max_depth} with running "
            f"bound still {worst:.3e} * envelope >= tol={tol}" + (why and f"; {why}")
        )

    # replay innermost-first: member i uses draws 1..depth[i], that is the
    # steps whose live set holds i, the members with depth >= step in the
    # ascending order the live set had; popping frees the newest storage first
    while steps:
        idx = np.flatnonzero(depth >= len(steps))
        z[idx] = models.apply(spec, steps.pop(), z[idx])
    return z, depth, cert


def _trim_heap():
    """Hand freed heap pages back to the OS; a no-op without glibc's malloc_trim.

    The blocks' temporaries are freed in the worker threads' malloc
    arenas, which keep the pages resident until trimmed.
    """
    import ctypes  # here, so that start-up does not load it

    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def _walk_mode(walk, gap):
    """The threshold and step mean of members whose best term's key lies
    `gap` above their position: a tilted test, passed above gap, where
    gap >= 0, and a plain step, which always lands (threshold -inf),
    where the position is above it."""
    test = gap >= 0
    return np.where(test, gap, -np.inf), np.where(test, walk.drift, -walk.drift)


def _exact_block(walk, max_depth, rng, count):
    """Exact stationary draws for one block; returns (points, walk steps,
    None), None for residual bounds that are 0 from the start.

    A member's terms b exp(S) are compared by their key S + log(b / b_hi),
    and its walk is kept relative to its last position. At or below its
    best key it walks under the tilted step law N(drift, sigma^2) until
    it first goes above that key, keeps that passage of height H with
    probability exp(-alpha H), and its first rejected one ends it with
    the sample b* exp(S*) of its best term. Above its best key it takes
    one step N(-drift, sigma^2). A kept passage or a plain step lands on
    a new position, which draws its b. The arrays beside `live` hold the
    live members' walk since their position, and their threshold and step
    mean from `_walk_mode`; the others are indexed by member.
    """
    law = walk.b_law or rnd.constant(walk.b)

    def draw_b(k):
        """k draws of b and their log(b / b_hi); a constant b draws nothing."""
        b = rnd.sample(law, rng, k)
        return b, np.log(b / walk.b)  # exactly 0 at b_hi

    # by member: the position of its best term, that term's b and key,
    # and its position now
    top_s = np.zeros(count)
    top_b, best = draw_b(count)
    top_b = np.array(top_b)  # a constant b's draw is a read-only view
    at = np.zeros(count)
    depth = np.zeros(count, dtype=np.int32)
    # by live member: its walk since its position, threshold and step mean
    live = np.arange(count)
    s = np.zeros(count)
    thr, mean = _walk_mode(walk, best)
    step = 0
    while len(live):
        if step == max_depth:
            raise ConvergenceError(
                f"exact walk hit max_depth={max_depth} with {len(live)} of "
                f"{count} members still walking"
            )
        step += 1
        z = rng.standard_normal(len(live))
        z *= walk.sigma
        z += mean
        s += z
        up = np.flatnonzero(s > thr)
        if not len(up):
            continue
        h = s[up]
        test = thr[up] >= 0
        keep = ~test  # a plain step always lands
        keep[test] = rng.random(np.count_nonzero(test)) < np.exp(-walk.alpha * h[test])
        land, ends = up[keep], up[~keep]
        if len(land):
            i = live[land]
            h = h[keep]
            h += at[i]
            at[i] = h
            s[land] = 0.0
            # a constant b's new position is its best term and keeps its
            # threshold 0 and tilted mean, so there is nothing more to move
            if walk.b_law is not None:
                b, key = draw_b(len(land))
                key += h
                new = key > best[i]
                won = i[new]
                best[won] = key[new]
                top_s[won] = h[new]
                top_b[won] = b[new]
                thr[land], mean[land] = _walk_mode(walk, best[i] - h)
        if len(ends):
            depth[live[ends]] = step
            going = np.ones(len(live), dtype=bool)
            going[ends] = False
            live, s, thr, mean = live[going], s[going], thr[going], mean[going]
    if walk.b_law is None:
        top_s = at  # every position a constant b's walk lands on is its best
    np.exp(top_s, out=top_s)
    top_s *= top_b
    return top_s, depth, None


def engine_form(spec, sampler):
    """The engine `stationary_batch` runs for `sampler`: `exact`, or for
    `backward` `composite` (`models.composite`) or `replay`."""
    if sampler == "exact":
        return "exact"
    if sampler != "backward":
        raise PreconditionError(f"sampler must be 'backward' or 'exact', got {sampler!r}")
    return "replay" if models.composite(spec) is None else "composite"


def stationary_batch(
    spec, count, tol=DEFAULT_TOL, master_seed=0, max_depth=DEFAULT_MAX_DEPTH, x0=None,
    threads=1, keep_bounds=False, sampler="backward",
):
    """`count` certified draws from the stationary law, deterministically.

    `backward` iterates from x0 (None: the origin) to residual bounds
    below tol, block b on the (master_seed, b, "stationary") stream.
    `exact`, for a model with an `models.exact_walk`, reads the
    (master_seed, b, "exact") stream and not tol, takes no x0, and gives
    walk steps as stop depths, residual bounds of 0 and a tol of 0.0.
    Merging is by block index, so thread count cannot change a single
    output bit. The residual bounds are kept only with `keep_bounds`;
    they do not change the samples or the stop depths.
    """
    if engine_form(spec, sampler) == "exact":
        walk = models.exact_walk(spec)
        if walk is None:
            raise PreconditionError(f"no exact stationary draw: {models.exact_refusal(spec)}")
        if x0 is not None:
            raise PreconditionError("the exact sampler has no start point; x0 must be None")
        purpose, tol = "exact", 0.0
        block = functools.partial(_exact_block, walk, max_depth)
    else:
        purpose = "stationary"
        x0 = models.zero_point(spec) if x0 is None else x0
        block = functools.partial(_backward_block, spec, x0, tol, max_depth)
    if count <= 0:
        raise PreconditionError("count must be positive")
    samples = np.empty(_points_shape(spec, count))
    depths = np.empty(count, dtype=np.int32)
    # an exact draw leaves its zero bounds unwritten, on untouched pages
    certs = np.zeros(count) if keep_bounds else None

    # one turn per block, which writes its slice as it finishes, so no
    # block's outputs stay alive on its worker thread's heap until a
    # final concatenation
    def turn(start):
        part = slice(start, min(start + BLOCK_SIZE, count))
        rng = stream(master_seed, start // BLOCK_SIZE, purpose)
        samples[part], depths[part], cert = block(rng, part.stop - part.start)
        if keep_bounds and cert is not None:
            certs[part] = cert
        return False

    _take_turns(turn, range(0, count, BLOCK_SIZE), threads)
    _trim_heap()
    return StationaryBatch(samples, depths, certs, tol)
