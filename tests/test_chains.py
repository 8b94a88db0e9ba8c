import sys
import threading
import time

import numpy as np
import pytest
from scipy import stats

from liprec import chains, models, randomness as rnd
from liprec.errors import CapacityError, ConvergenceError, DomainError, PreconditionError
from liprec.randomness import stream

from _util import (
    forward_chain,
    ks_critical_two,
    reference_backward_block,
    reference_forward,
    reference_stationary_batch,
    traced_peak,
)


def _oracle_models():
    """Every family, plus affine in d = 2 and d = 3 (off-axis rotation)."""
    return {
        "affine": models.make_model(
            "affine",
            laws={"scale": rnd.lognormal(-0.6, 0.7), "shift": rnd.normal(0.3, 1.0)},
        ),
        "letac": models.make_model(
            "letac",
            laws={
                "a": rnd.lognormal(-0.8, 0.5),
                "b": rnd.uniform(0.0, 0.5),
                "c": rnd.normal(0.0, 0.5),
            },
        ),
        "sqrt_quadratic": models.make_model(
            "sqrt_quadratic",
            laws={
                "a": rnd.uniform(0.2, 0.7),
                "b": rnd.uniform(-0.2, 0.2),
                "c": rnd.uniform(0.5, 1.0),
            },
        ),
        "arch1": models.make_model(
            "arch1",
            laws={"a": rnd.normal(0.0, 0.6)},
            constants={"gamma": 0.3, "beta": 0.8, "lambda": 0.25},
        ),
        "affine_d2": models.make_model(
            "affine",
            dimension=2,
            laws={
                "scale": rnd.lognormal(-0.7, 0.4),
                "angle": rnd.uniform(-1.0, 1.0),
                "shift_1": rnd.normal(1.0, 0.5),
                "shift_2": rnd.constant(0.0),
            },
        ),
        "affine_d3": models.make_model(
            "affine",
            dimension=3,
            laws={
                "scale": rnd.lognormal(-0.7, 0.4),
                "angle": rnd.uniform(-3.0, 3.0),
                "shift_1": rnd.constant(1.0),
                "shift_2": rnd.normal(0.0, 0.5),
                "shift_3": rnd.discrete((0.0, 0.5), (0.5, 0.5)),
            },
            constants={"axis": (1.0, 2.0, 0.5)},
        ),
    }


ORACLE_MODELS = _oracle_models()
# a constant law in each position, which the replay passes as its value
CONSTANT_LAW_MODELS = {
    "letac_const_b": models.make_model(
        "letac",
        laws={
            "a": rnd.lognormal(-0.8, 0.5),
            "b": rnd.constant(0.3),
            "c": rnd.normal(0.0, 0.5),
        },
    ),
    "letac_const_c": models.make_model(
        "letac",
        laws={
            "a": rnd.lognormal(-0.8, 0.5),
            "b": rnd.uniform(0.0, 0.5),
            "c": rnd.constant(0.2),
        },
    ),
    "affine_d2_const_angle": models.make_model(
        "affine",
        dimension=2,
        laws={
            "scale": rnd.lognormal(-0.7, 0.4),
            "angle": rnd.constant(0.7),
            "shift_1": rnd.normal(1.0, 0.5),
            "shift_2": rnd.normal(0.0, 0.5),
        },
    ),
    "sqrt_quadratic_const_c": models.make_model(
        "sqrt_quadratic",
        laws={
            "a": rnd.uniform(0.2, 0.7),
            "b": rnd.uniform(-0.2, 0.2),
            "c": rnd.constant(0.8),
        },
    ),
}
# two random parameters, so a chunk's draw interleaves them
SMOOTH = models.make_model(
    "extremal", laws={"a": rnd.lognormal(-0.75, 1.0), "b": rnd.uniform(1.0, 2.0)}
)


def test_forward_chain_shapes_and_prefix_sums(bench_spec):
    g = stream(11, 0, "traj")
    traj = forward_chain(bench_spec, 0.7, 64, g)
    assert traj.states.shape == (65,)
    assert traj.partial_sums.shape == (65,)
    assert traj.partial_sums[0] == 0.0
    # partial_sums[k] must equal the running sum of states[1..k]
    assert np.allclose(traj.partial_sums, np.concatenate([[0.0], np.cumsum(traj.states[1:])]))


def test_forward_endpoints_match_chain_tails(bench_spec):
    n = 40
    ends = chains.forward_endpoints(bench_spec, 0.0, n, 6, master_seed=9, threads=1)
    assert ends.shape == (6,)
    assert np.all(np.isfinite(ends))


def test_backward_matches_forward_in_law(bench_spec):
    # independent streams on both sides: the same-seed pairing would
    # couple the samples and break the two-sample KS assumptions
    n = 60
    count = 10_000
    fwd = chains.forward_endpoints(bench_spec, 0.0, n, count, master_seed=101, threads=4)
    batch = chains.stationary_batch(bench_spec, count, tol=1e-9, master_seed=202, threads=4)
    stat = stats.ks_2samp(fwd, batch.samples).statistic
    assert stat < ks_critical_two(count, count)


def test_backward_residuals_certify_tolerance(bench_batch_100k):
    assert np.all(bench_batch_100k.residual_bounds <= bench_batch_100k.tol)
    assert np.all(bench_batch_100k.stop_depths >= 1)


@pytest.mark.parametrize("name", ["smooth", "arch1"])
def test_backward_law_insensitive_to_seed_point(name):
    # the live sets steer the draws, so two seed points do not see the same
    # thetas; the law is what must not depend on x0. Independent streams
    # keep the two-sample KS assumptions (a composite and a replay family)
    spec = SMOOTH if name == "smooth" else ORACLE_MODELS[name]
    count = 20_000
    a = chains.stationary_batch(spec, count, master_seed=31, x0=0.0)
    b = chains.stationary_batch(spec, count, master_seed=32, x0=10.0)
    stat = stats.ks_2samp(a.samples, b.samples).statistic
    assert stat < ks_critical_two(count, count)


def _block_live_counts(depths, block_size):
    """Per block in order, the live count #(depth >= j) of each step j."""
    counts = []
    for lo in range(0, len(depths), block_size):
        d = depths[lo:lo + block_size]
        counts += [int((d >= j).sum()) for j in range(1, int(d.max()) + 1)]
    return counts


def test_draw_counters_count_the_draws_made(bench_spec, monkeypatch):
    # each step draws theta for the members still running, so a block's
    # draw sizes start at its size, never grow, and sum to theta_used
    sizes = []
    real = models.sample_theta

    def counting(spec, rng, size=None):
        sizes.append(size)
        return real(spec, rng, size)

    monkeypatch.setattr(models, "sample_theta", counting)
    monkeypatch.setattr(chains, "BLOCK_SIZE", 1024)
    batch = chains.stationary_batch(bench_spec, 2500, master_seed=5)
    got = batch.draw_counters()
    ranked = np.sort(batch.stop_depths)
    assert got == {
        "stop_depth_mean": float(batch.stop_depths.mean()),
        # the smallest depth by which at least that share of members stopped
        "stop_depth_p50": int(ranked[1249]),
        "stop_depth_p90": int(ranked[2249]),
        "stop_depth_p99": int(ranked[2474]),
        "stop_depth_max": int(batch.stop_depths.max()),
        "theta_used": int(batch.stop_depths.sum()),
    }
    assert sizes == _block_live_counts(batch.stop_depths, 1024)
    assert sum(sizes) == got["theta_used"]
    # a new block starts wherever the size grows: at 1024, 1024 and 452
    starts = [0] + [i for i in range(1, len(sizes)) if sizes[i] > sizes[i - 1]]
    assert [sizes[i] for i in starts] == [1024, 1024, 452]


def test_thread_count_cannot_change_bytes(bench_spec):
    count = 40_000  # spans three backward blocks and ten forward blocks
    one = chains.stationary_batch(bench_spec, count, master_seed=7, threads=1)
    four = chains.stationary_batch(bench_spec, count, master_seed=7, threads=4)
    assert one.samples.tobytes() == four.samples.tobytes()
    assert np.array_equal(one.stop_depths, four.stop_depths)
    # two random parameters share each chunk's draw, and n = 37 leaves a
    # ragged last chunk of steps
    n = 37
    assert count > 2 * chains.FORWARD_BLOCK and n % chains.FORWARD_STEPS
    for forward in (chains.birkhoff_sums, chains.forward_endpoints):
        runs = [forward(SMOOTH, 0.0, n, count, master_seed=7, threads=t) for t in (1, 2, 4)]
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()


def test_blocks_write_disjoint_slices_under_thread_switching(bench_spec, monkeypatch):
    # every block writes its own slice of the shared outputs; with many
    # small blocks, more threads than cores and frequent switches, a lost
    # or misplaced write would break equality with the serial run
    monkeypatch.setattr(chains, "BLOCK_SIZE", 64)
    one = chains.stationary_batch(bench_spec, 5000, master_seed=3, keep_bounds=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = chains.stationary_batch(
            bench_spec, 5000, master_seed=3, threads=8, keep_bounds=True
        )
    finally:
        sys.setswitchinterval(interval)
    assert many.samples.tobytes() == one.samples.tobytes()
    assert many.stop_depths.tobytes() == one.stop_depths.tobytes()
    assert many.residual_bounds.tobytes() == one.residual_bounds.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", ["smooth", "arch1"])
def test_batch_without_bounds_keeps_samples_and_depths(name, threads, monkeypatch):
    # a composite and a replay family: dropping the bounds must not move
    # a sample or a depth, and the depths are int32
    spec = SMOOTH if name == "smooth" else ORACLE_MODELS[name]
    monkeypatch.setattr(chains, "BLOCK_SIZE", 1024)
    full = chains.stationary_batch(spec, 5000, master_seed=23, keep_bounds=True)
    lean = chains.stationary_batch(spec, 5000, master_seed=23, threads=threads)
    assert lean.residual_bounds is None
    assert full.residual_bounds.shape == (5000,)
    assert lean.stop_depths.dtype == full.stop_depths.dtype == np.int32
    assert lean.samples.tobytes() == full.samples.tobytes()
    assert lean.stop_depths.tobytes() == full.stop_depths.tobytes()
    assert lean.draw_counters() == full.draw_counters()


def test_heap_trim_twice_is_harmless(bench_spec, monkeypatch):
    chains._trim_heap()
    chains._trim_heap()
    monkeypatch.setattr(chains, "BLOCK_SIZE", 1024)
    batch = chains.stationary_batch(bench_spec, 3000, master_seed=4, threads=2)
    assert np.isfinite(batch.samples).all()


def test_block_boundary_is_seed_stable(bench_spec):
    # per-block streams: growing the batch by whole blocks must not
    # disturb earlier samples (within a partial block draws are shared)
    small = chains.stationary_batch(bench_spec, chains.BLOCK_SIZE, master_seed=13)
    big = chains.stationary_batch(bench_spec, 2 * chains.BLOCK_SIZE, master_seed=13)
    assert np.array_equal(big.samples[: chains.BLOCK_SIZE], small.samples)
    m = chains.FORWARD_BLOCK
    small = chains.forward_endpoints(bench_spec, 0.0, 20, m, master_seed=13)
    big = chains.forward_endpoints(bench_spec, 0.0, 20, 3 * m, master_seed=13)
    assert np.array_equal(big[:m], small)


def test_backward_depth_guard(bench_spec):
    with pytest.raises(ConvergenceError) as ref:
        reference_backward_block(bench_spec, 0.0, 1e-300, 5, stream(0, 0, "stationary"), 64)
    with pytest.raises(
        ConvergenceError,
        match=r"max_depth=5 with running bound still \d\.\d{3}e[+-]\d+ \* envelope >= tol=1e-300$",
    ) as got:
        chains.stationary_batch(bench_spec, 64, tol=1e-300, max_depth=5)
    # the worst running bound is taken over the same still-running members
    assert str(got.value) == str(ref.value)


def test_backward_depth_guard_on_a_model_that_does_not_contract():
    # E log L > 0: the running product overflows long before max_depth, and
    # the guard must still end the run with its own error, not numpy's
    spec = models.make_model(
        "arch1",
        laws={"a": rnd.discrete((-2.0, -1.0, 1.0, 2.0), (0.25,) * 4)},
        constants={"gamma": 1.0, "beta": 0.8, "lambda": 0.25},
    )
    with pytest.raises(ConvergenceError, match=r"max_depth=2000 with running bound still inf "):
        chains.stationary_batch(spec, 64, max_depth=2000)


def test_backward_storage_guard_trips_at_the_reference_step(bench_spec, monkeypatch):
    # 64 members, 2 parameters: the guard sums the live counts times 2, so
    # a cap of 29 * 128, which 64 draws a step would pass on step 30, trips
    # on step 45 (3718 draws), when 3 members still run (the deepest stops
    # at 58)
    monkeypatch.setattr(chains, "_STORAGE_CAP", 29 * 128)
    sizes = []
    real = models.sample_theta

    def counting(spec, rng, size=None):
        sizes.append(size)
        return real(spec, rng, size)

    monkeypatch.setattr(models, "sample_theta", counting)
    with pytest.raises(CapacityError) as ref:
        reference_backward_block(bench_spec, 0.0, 1e-9, 100, stream(0, 0, "stationary"), 64)
    ref_sizes, sizes[:] = list(sizes), []
    with pytest.raises(CapacityError) as got:
        chains.stationary_batch(bench_spec, 64, tol=1e-9, max_depth=100)
    assert str(got.value) == str(ref.value)
    # the remedies are keys a config can set: count for the block, and tol
    assert str(got.value).endswith(
        "lower [experiment] count below 64, the block size, or raise tol so "
        "the chains stop sooner"
    )
    assert sizes == ref_sizes == [64] * 14 + [
        63, 63, 63, 62, 61, 60, 56, 54, 54, 49, 44, 38, 36, 34, 31,
        28, 24, 22, 19, 18, 17, 16, 13, 8, 5, 5, 5, 4, 4, 4,
    ]


@pytest.mark.parametrize("name", ["sqrt_quadratic", "sqrt_quadratic_const_c", "arch1"])
def test_backward_storage_holds_only_random_draws(name):
    # the families without a composite replay their draws, and store 8 B
    # per random parameter per member-step: no live index and no constant
    # law's values. Above that, the block's traced peak holds the first
    # step's draw and the stop rule's arrays, 59-83 B per member here;
    # the bound allows 100. Storing the index and every parameter
    # would take 32 (sqrt_quadratic) or 16 B (arch1) per member-step,
    # 1.1-3.4 MB more on these blocks.
    spec = {**ORACLE_MODELS, **CONSTANT_LAW_MODELS}[name]
    n_random = sum(law.kind != "constant" for law in spec.laws.values())
    count = 4096
    (_, depth, _), peak = traced_peak(
        chains._backward_block,
        spec, 0.0, 1e-9, chains.DEFAULT_MAX_DEPTH, stream(0, 0, "stationary"), count,
    )
    stored = 8 * n_random * int(depth.sum())
    assert stored < peak < stored + 100 * count


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize(
    "name", ["extremal", "letac_atomic", "smooth", "letac", "affine", "affine_d2", "affine_d3"]
)
def test_composite_block_memory_is_flat_in_depth(name, tol, bench_spec, letac_spec):
    # a family with a composite stores nothing per step: the block's traced
    # peak is its outputs, the first step's draw, the stop rule's arrays
    # and the composed maps, 139-171 B per member in 1-d, 244 in 2-d and
    # 385 in 3-d at either tol, though 1e-12 takes about a third
    # more steps. A replay would store 8 B per random parameter per
    # member-step on top, 200 to 1340 B per member on these blocks, which
    # the bound does not hold.
    spec = {"extremal": bench_spec, "letac_atomic": letac_spec, "smooth": SMOOTH, **ORACLE_MODELS}
    spec = spec[name]
    count = 4096
    _, peak = traced_peak(
        chains._backward_block,
        spec, models.zero_point(spec), tol, chains.DEFAULT_MAX_DEPTH,
        stream(0, 0, "stationary"), count,
    )
    assert peak < (100 + 120 * spec.dimension) * count


def _not_contracting(name):
    """E log L = 0.5 > 0: the composed scale overflows long before max_depth."""
    if name == "extremal":
        return models.make_model(
            "extremal", laws={"a": rnd.lognormal(0.5, 1.0), "b": rnd.constant(1.0)}
        )
    if name == "affine":
        return models.make_model(
            "affine", laws={"scale": rnd.lognormal(0.5, 1.0), "shift": rnd.normal(0.0, 1.0)}
        )
    return models.make_model(
        "affine",
        dimension=2,
        laws={
            "scale": rnd.lognormal(0.5, 1.0),
            "angle": rnd.uniform(-1.0, 1.0),
            "shift_1": rnd.normal(0.0, 1.0),
            "shift_2": rnd.constant(0.0),
        },
    )


@pytest.mark.parametrize("name", ["extremal", "affine", "affine_d2"])
def test_composite_depth_guard_on_a_model_that_does_not_contract(name):
    # the composed map's scale overflows to inf and its translation part
    # meets inf - inf and inf * 0; the guard must still end the run with
    # its own error, not numpy's overflow or invalid-value warning
    with pytest.raises(ConvergenceError, match=r"max_depth=2000 with running bound still inf "):
        chains.stationary_batch(_not_contracting(name), 64, max_depth=2000)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 99, 100, 101, 2500, 16384, 99_999])
def test_draw_counter_quantiles_match_inverted_cdf(n):
    # the counters rank depths through their histogram; they must give
    # np.quantile's inverted-CDF depths on ties, spikes and long tails
    rng = np.random.default_rng(n)
    for depths in (
        rng.integers(1, 40, n),
        np.full(n, 7),
        1 + np.floor(rng.pareto(1.2, n) * 5).astype(np.int64),
    ):
        batch = chains.StationaryBatch(np.zeros(n), depths, np.zeros(n), 1e-9)
        got = batch.draw_counters()
        want = np.quantile(depths, (0.5, 0.9, 0.99), method="inverted_cdf")
        assert [got["stop_depth_p50"], got["stop_depth_p90"], got["stop_depth_p99"]] == [
            int(w) for w in want
        ]


def _seed_point(spec):
    x0 = np.linspace(0.7, -0.4, spec.dimension)
    return float(x0[0]) if x0.size == 1 else x0


@pytest.mark.parametrize("from_zero", [True, False])
@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize(
    "name", ["extremal", "letac_atomic", *ORACLE_MODELS, *CONSTANT_LAW_MODELS]
)
def test_backward_block_matches_whole_block_reference(
    name, tol, from_zero, bench_spec, letac_spec, monkeypatch
):
    # the live-set sampler must give the masked reference's bytes; 2500
    # members in blocks of 1024 leave a partial last block of 452
    spec = {
        "extremal": bench_spec, "letac_atomic": letac_spec, **ORACLE_MODELS, **CONSTANT_LAW_MODELS
    }[name]
    x0 = None if from_zero else _seed_point(spec)
    monkeypatch.setattr(chains, "BLOCK_SIZE", 1024)
    batch = chains.stationary_batch(spec, 2500, tol=tol, master_seed=19, x0=x0, keep_bounds=True)
    samples, depths, bounds = reference_stationary_batch(spec, 2500, tol, 19, x0=x0)
    assert batch.samples.tobytes() == samples.tobytes()
    assert np.array_equal(batch.stop_depths, depths)
    assert batch.residual_bounds.tobytes() == bounds.tobytes()
    assert len(set(depths.tolist())) > 1  # members stop at different steps


@pytest.mark.parametrize("name", ["extremal", *ORACLE_MODELS])
def test_backward_sample_matches_whole_block_reference(name, bench_spec):
    spec = bench_spec if name == "extremal" else ORACLE_MODELS[name]
    x0 = _seed_point(spec)
    # a one-member block: the single backward sample
    for seed in range(4):
        got = chains._backward_block(
            spec, x0, 1e-12, chains.DEFAULT_MAX_DEPTH, stream(seed, 0, "one"), 1
        )
        want = reference_backward_block(
            spec, x0, 1e-12, chains.DEFAULT_MAX_DEPTH, stream(seed, 0, "one"), 1
        )
        assert got[0].tobytes() == want[0].tobytes()
        assert (got[1][0], got[2][0]) == (want[1][0], want[2][0])


# the composite against the replay: Z_n(x0) rounds A x0 and the running
# translation once, where the replay rounds n nested maps. On these
# models (tol 1e-9 and 1e-12, 2500 members) values differ by at most
# 4.6e-13 relative, and by at most 9.3e-15 relative beyond an atol of
# 1e-13, which is far below either tol and covers samples near 0
COMPOSITE_RTOL = 1e-12
COMPOSITE_ATOL = 1e-13
# affine at alpha = 0.4: deep chains (mean stop depth 121, max 503 at tol
# 1e-9) and large samples
AFFINE_ALPHA_04 = models.make_model(
    "affine", laws={"scale": rnd.lognormal(-0.2, 1.0), "shift": rnd.normal(0.0, 1.0)}
)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize(
    "name", ["extremal", "smooth", "letac_atomic", "letac", "affine", "affine_d2", "affine_d3",
             "affine_alpha_04", "letac_const_b", "letac_const_c", "affine_d2_const_angle"]
)
def test_composite_matches_replay_reference(name, tol, bench_spec, letac_spec, monkeypatch):
    # the composed map is the same function as the nested draws: values
    # agree to rounding, while depths, bounds and counters are exact
    spec = {
        "extremal": bench_spec, "smooth": SMOOTH, "letac_atomic": letac_spec,
        "affine_alpha_04": AFFINE_ALPHA_04, **ORACLE_MODELS, **CONSTANT_LAW_MODELS,
    }[name]
    assert models.composite(spec) is not None
    x0 = _seed_point(spec)
    monkeypatch.setattr(chains, "BLOCK_SIZE", 1024)
    batch = chains.stationary_batch(spec, 2500, tol=tol, master_seed=19, x0=x0, keep_bounds=True)
    samples, depths, bounds = reference_stationary_batch(spec, 2500, tol, 19, x0=x0, replay=True)
    assert np.allclose(batch.samples, samples, rtol=COMPOSITE_RTOL, atol=COMPOSITE_ATOL)
    assert np.array_equal(batch.stop_depths, depths)
    assert batch.residual_bounds.tobytes() == bounds.tobytes()
    replayed = chains.StationaryBatch(samples, depths, bounds, tol)
    assert batch.draw_counters() == replayed.draw_counters()


def test_stationary_batch_rejects_empty(bench_spec):
    with pytest.raises(PreconditionError):
        chains.stationary_batch(bench_spec, 0)


def test_affine_d2_batch_shape():
    spec = models.make_model(
        "affine",
        dimension=2,
        laws={
            "scale": rnd.lognormal(-0.7, 0.4),
            "angle": rnd.uniform(-1.0, 1.0),
            "shift_1": rnd.constant(1.0),
            "shift_2": rnd.constant(0.0),
        },
    )
    batch = chains.stationary_batch(spec, 2048, master_seed=17, threads=2)
    assert batch.samples.shape == (2048, 2)
    assert np.all(np.isfinite(batch.samples))


def test_affine_closed_center_matches_batch():
    # E S = E N / (1 - E M) for the contracting affine recursion
    spec = models.make_model(
        "affine",
        laws={"scale": rnd.uniform(0.1, 0.5), "shift": rnd.constant(1.0)},
    )
    batch = chains.stationary_batch(spec, 200_000, master_seed=23, threads=4)
    want = 1.0 / (1.0 - 0.3)
    se = batch.samples.std(ddof=1) / np.sqrt(batch.samples.size)
    assert abs(batch.samples.mean() - want) < 4 * se


def test_moment_bound_finite_below_alpha(bench_spec, bench_batch_100k):
    # E|S|^beta finite for beta < alpha = 1.5; crude stability probe at 0.75
    x = np.abs(bench_batch_100k.samples)
    halves = np.array_split(x**0.75, 10)
    means = np.array([h.mean() for h in halves])
    assert means.std(ddof=1) / means.mean() < 0.05


def test_birkhoff_sums_match_trajectory(bench_spec):
    # a one-replica block consumes draws exactly like the scalar chain
    n = 25
    sums = chains.birkhoff_sums(bench_spec, 0.3, n, 1, master_seed=47, threads=1)
    g = stream(47, 0, "birkhoff")
    traj = forward_chain(bench_spec, 0.3, n, g)
    assert sums[0] == traj.partial_sums[n]


def test_forward_draw_layout():
    # member i takes its step-s draw from element (s mod k) * size + i of
    # the block stream's chunk s // k, with k = FORWARD_STEPS
    size, n, k = 3, 37, chains.FORWARD_STEPS
    got = chains.forward_endpoints(SMOOTH, 0.5, n, size, master_seed=5)
    rng = stream(5, 0, "forward")
    chunks = [models.sample_theta(SMOOTH, rng, min(k, n - s) * size) for s in range(0, n, k)]
    for i in range(size):
        x = 0.5
        for s in range(n):
            theta = {p: float(v[(s % k) * size + i]) for p, v in chunks[s // k].items()}
            x = models.apply(SMOOTH, theta, x)
        assert x == got[i]


FORWARD_MODELS = {**ORACLE_MODELS, **CONSTANT_LAW_MODELS, "extremal": SMOOTH}
# 1, 2, 3 and 10 forward blocks, the last one short
FORWARD_COUNTS = (100, 5000, 10_000, 9 * chains.FORWARD_BLOCK + 1000)
FORWARD_RUNS = ((chains.birkhoff_sums, "birkhoff", True), (chains.forward_endpoints, "forward", False))


@pytest.mark.parametrize("name", sorted(FORWARD_MODELS))
def test_forward_turns_keep_the_block_by_block_bytes(name):
    # blocks take turns on whichever thread is free; neither that nor
    # frequent thread switches may move a byte of the serial run
    spec = FORWARD_MODELS[name]
    x0 = np.full(spec.dimension, 0.5) if spec.dimension > 1 else 0.5
    n = 21  # a ragged last chunk
    assert n % chains.FORWARD_STEPS
    interval = sys.getswitchinterval()
    for count in FORWARD_COUNTS:
        for forward, purpose, want_sums in FORWARD_RUNS:
            want = reference_forward(spec, x0, n, count, 3, purpose, want_sums).tobytes()
            for threads in (1, 2, 3, 8):
                assert forward(spec, x0, n, count, 3, threads=threads).tobytes() == want
            sys.setswitchinterval(1e-6)
            try:
                runs = [forward(spec, x0, n, count, 3, threads=t) for t in (2, 8)]
            finally:
                sys.setswitchinterval(interval)
            assert all(r.tobytes() == want for r in runs)


@pytest.mark.parametrize("threads", [1, 3])
def test_forward_turns_run_in_order_one_thread_at_a_time(monkeypatch, threads):
    turn = chains._forward_block
    lock = threading.Lock()
    busy, log = set(), []  # the blocks in a turn; (block, steps taken) per turn

    def watched(spec, block, n):
        with lock:
            assert id(block) not in busy, "a block ran on two threads at once"
            busy.add(id(block))
            log.append((id(block), block.step))
        try:
            return turn(spec, block, n)
        finally:
            with lock:
                busy.discard(id(block))

    monkeypatch.setattr(chains, "_forward_block", watched)
    n, count = 101, 9 * chains.FORWARD_BLOCK + 1000  # 7 chunks, 10 blocks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        chains.birkhoff_sums(SMOOTH, 0.0, n, count, master_seed=5, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    blocks = list(dict.fromkeys(b for b, _ in log))
    chunks = list(range(0, n, chains.FORWARD_STEPS))
    assert len(blocks) == 10
    for b in blocks:
        assert [step for c, step in log if c == b] == chunks
    if threads == 1:
        # one queue, first in first out: each chunk of every block in turn
        assert log == [(b, step) for step in chunks for b in blocks]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_turn_stops_the_other_workers(monkeypatch, threads):
    # the first block's third chunk fails while every other block could
    # still run; the blocks after a failing one are dropped
    turn, take_turns = chains._forward_block, chains._take_turns
    lock = threading.Lock()
    log, first = [], []

    def failing(spec, block, n):
        with lock:
            log.append("start")
            fail = block is first[0] and block.step == 2 * chains.FORWARD_STEPS
            if fail:
                log.append("raise")
        if fail:
            raise DomainError("the third chunk fails")
        return turn(spec, block, n)

    def recording(fn, blocks, threads):
        first.append(blocks[0])
        return take_turns(fn, blocks, threads)

    monkeypatch.setattr(chains, "_forward_block", failing)
    monkeypatch.setattr(chains, "_take_turns", recording)
    count = 9 * chains.FORWARD_BLOCK + 1000  # 10 blocks of 7 chunks
    with pytest.raises(DomainError, match="^the third chunk fails$"):
        chains.birkhoff_sums(SMOOTH, 0.0, 101, count, master_seed=5, threads=threads)
    late = log[log.index("raise") + 1 :]
    # alone, nothing starts after it; the other worker may start the turn
    # it was taking, and one more before the failure is on record
    assert len(late) <= 2 * (threads - 1)


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_turns_raise_the_lowest_failing_blocks_error(threads):
    # block 4 fails on its first turn, block 2 on its second and block 1
    # on its third: block 1's error is raised whichever fails first in
    # time, and block 0, below it, runs all four of its turns
    fail_at = {1: 2, 2: 1, 4: 0}
    for _ in range(5):
        taken = [0] * 6

        def turn(i):
            t = taken[i]
            taken[i] += 1
            if fail_at.get(i) == t:
                raise DomainError(f"block {i} fails on turn {t}")
            time.sleep(1e-3)
            return taken[i] < 4

        with pytest.raises(DomainError, match="^block 1 fails on turn 2$"):
            chains._take_turns(turn, list(range(6)), threads)
        assert taken[0] == 4


def test_backward_error_is_the_first_blocks_at_every_thread_count(monkeypatch):
    # every block hits the depth guard, each with its own worst bound; the
    # batch must report block 0's at any thread count, however the
    # blocks' failures are ordered in time
    spec = models.make_model(
        "extremal", laws={"a": rnd.lognormal(-0.05, 1.0), "b": rnd.uniform(1.0, 2.0)}
    )
    monkeypatch.setattr(chains, "BLOCK_SIZE", 512)
    messages = []
    for b in range(4):
        with pytest.raises(ConvergenceError) as exc:
            chains._backward_block(spec, 0.0, 1e-12, 40, stream(3, b, "stationary"), 512)
        messages.append(str(exc.value))
    assert len(set(messages)) == 4
    for threads in (1, 2, 8):
        for _ in range(5):
            with pytest.raises(ConvergenceError) as exc:
                chains.stationary_batch(
                    spec, 4 * 512, tol=1e-12, master_seed=3, max_depth=40, threads=threads
                )
            assert str(exc.value) == messages[0]


def test_paired_theta_independent_of_batch(bench_spec):
    th = models.sample_theta(bench_spec, stream(7, 0, "pairs"), 4096)
    batch = chains.stationary_batch(bench_spec, 4096, master_seed=7)
    r = np.corrcoef(th["a"], batch.samples)[0, 1]
    assert abs(r) < 0.05
