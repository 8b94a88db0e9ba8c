"""The exact stationary sampler of extremal models with a bounded b > 0.

The bounds below are fixed from the model (the Spitzer series of P(X = b)
and of the tail constant, and check 3's 1% KS level), not from the draws.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from liprec import chains, cli, models, tails
from liprec import randomness as rnd
from liprec.errors import ConvergenceError, PreconditionError
from liprec.randomness import stream

from _util import ks_critical_two

MU, SIGMA = -0.75, 1.0  # the benchmark's a ~ lognormal(mu, sigma), b = 1
ALPHA = -2.0 * MU / SIGMA**2  # 1.5
M_ALPHA = -MU  # E a^alpha log a: the mean of the tilted step
SMOOTH_B = rnd.uniform(1.0, 2.0)  # the tail benchmark's b: no atom in the law


def _spitzer_sum(terms=400):
    """sum_n P(S_n > 0) / n for S_n a sum of n N(mu, sigma^2) steps."""
    n = np.arange(1, terms + 1)
    return float(np.sum(stats.norm.cdf(MU * np.sqrt(n) / SIGMA) / n))


def _extremal(b):
    return models.make_model("extremal", laws={"a": rnd.lognormal(MU, SIGMA), "b": b})


@pytest.fixture(scope="module")
def exact_400k(bench_spec):
    return chains.exact_batch(bench_spec, 400_000, master_seed=2002, threads=2)


@pytest.fixture(scope="module")
def smooth_spec():
    return _extremal(SMOOTH_B)


@pytest.fixture(scope="module")
def smooth_exact_400k(smooth_spec):
    return chains.exact_batch(smooth_spec, 400_000, master_seed=2011, threads=2)


@pytest.fixture(scope="module")
def smooth_backward_400k(smooth_spec):
    return chains.stationary_batch(smooth_spec, 400_000, master_seed=2012, threads=2)


def test_exact_walk_parameters(bench_spec):
    walk = models.exact_walk(bench_spec)
    assert walk == models.ExactWalk(b=1.0, drift=0.75, sigma=1.0, alpha=1.5)
    assert models.exact_refusal(bench_spec) is None


def test_exact_matches_backward_in_law(bench_spec, bench_batch_100k):
    n = 100_000
    exact = chains.exact_batch(bench_spec, n, master_seed=2001, threads=2)
    ks = stats.ks_2samp(exact.samples, bench_batch_100k.samples).statistic
    assert ks < ks_critical_two(n, n)


def test_exact_atom_at_b_matches_spitzer_series(exact_400k):
    # P(X = b) = P(M = 0) = P(the walk never goes above 0)
    p = math.exp(-_spitzer_sum())
    assert abs(p - 0.689157) < 5e-7
    n = len(exact_400k.samples)
    p_hat = np.count_nonzero(exact_400k.samples == 1.0) / n
    assert abs(p_hat - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
    assert np.all(exact_400k.samples >= 1.0)


def test_exact_goldie_constant_matches_spitzer_series(bench_spec, exact_400k):
    # C = b^alpha exp(-sum_n [P(S_n > 0) + P_alpha(S_n <= 0)] / n) / (alpha m_alpha),
    # and both probabilities are Phi(mu sqrt(n) / sigma) for a lognormal a
    series_c = math.exp(-2.0 * _spitzer_sum()) / (ALPHA * M_ALPHA)
    assert abs(series_c - 0.422166) < 5e-7
    est = tails.goldie_constant(bench_spec, exact_400k.samples, ALPHA, M_ALPHA, master_seed=2003)
    assert abs(est.constant - series_c) <= 3.0 * est.se


def test_exact_batch_fields(bench_spec):
    batch = chains.exact_batch(bench_spec, 5000, master_seed=4, keep_bounds=True)
    assert batch.stop_depths.dtype == np.int32
    assert batch.stop_depths.min() >= 1
    assert batch.residual_bounds.tobytes() == np.zeros(5000).tobytes()
    assert batch.tol == 0.0
    assert chains.exact_batch(bench_spec, 5000, master_seed=4).residual_bounds is None


def test_exact_bytes_do_not_depend_on_threads_or_batch_size(bench_spec):
    n = 2 * chains.BLOCK_SIZE + 500
    runs = [chains.exact_batch(bench_spec, n, master_seed=6, threads=t) for t in (1, 2, 8)]
    for other in runs[1:]:
        assert other.samples.tobytes() == runs[0].samples.tobytes()
        assert other.stop_depths.tobytes() == runs[0].stop_depths.tobytes()
    # a smaller batch's full block is the larger batch's leading block
    small = chains.exact_batch(bench_spec, chains.BLOCK_SIZE + 7, master_seed=6)
    lead = slice(0, chains.BLOCK_SIZE)
    assert small.samples[lead].tobytes() == runs[0].samples[lead].tobytes()
    assert small.stop_depths[lead].tobytes() == runs[0].stop_depths[lead].tobytes()


def _reference_exact_block(walk, rng, count):
    """Member by member, in the documented draw layout: step j draws one
    normal per member still walking, then one uniform per member whose
    walk went above 0, both in ascending member order."""
    m = [0.0] * count
    s = [0.0] * count
    depth = [0] * count
    live = list(range(count))
    step = 0
    while live:
        step += 1
        z = rng.standard_normal(len(live))
        for i, zi in zip(live, z):
            s[i] += zi * walk.sigma + walk.drift
        up = [i for i in live if s[i] > 0]
        u = rng.random(len(up))
        for i, ui in zip(up, u):
            h, s[i] = s[i], 0.0
            if ui < math.exp(-walk.alpha * h):
                m[i] += h
            else:
                depth[i] = step
        live = [i for i in live if not depth[i]]
    return np.array([walk.b * math.exp(v) for v in m]), np.array(depth)


def test_exact_draw_layout_matches_member_by_member_reference(bench_spec):
    walk = models.exact_walk(bench_spec)
    for count in (1, 300):
        batch = chains.exact_batch(bench_spec, count, master_seed=8)
        want, depth = _reference_exact_block(walk, stream(8, 0, "exact"), count)
        np.testing.assert_allclose(batch.samples, want, rtol=1e-15, atol=0)
        assert batch.stop_depths.tolist() == depth.tolist()


def _reference_bounded_block(walk, rng, count):
    """Member by member, in the documented bounded-b layout: one b per
    member, then per step one normal per member still walking, one uniform
    per tester whose walk passed its best key, and one b per member that
    landed on a new position, each in ascending member order. A term's key
    is its position plus log(b / b_hi); a member whose position is above
    its best key takes a plain N(mu, sigma^2) step, which always lands."""

    def draw_b(k):
        b = rnd.sample(walk.b_law, rng, k)
        return list(b), list(np.log(b / walk.b))

    top_b, best = draw_b(count)
    top_s, at, s, depth = [0.0] * count, [0.0] * count, [0.0] * count, [0] * count
    live = list(range(count))
    step = 0
    while live:
        step += 1
        z = rng.standard_normal(len(live))
        for i, zi in zip(live, z):
            test = best[i] - at[i] >= 0
            s[i] += zi * walk.sigma + (walk.drift if test else -walk.drift)
        up = [i for i in live if best[i] - at[i] < 0 or s[i] > best[i] - at[i]]
        tests = [i for i in up if best[i] - at[i] >= 0]
        u = rng.random(len(tests))
        ends = {i for i, ui in zip(tests, u) if not ui < math.exp(-walk.alpha * s[i])}
        land = [i for i in up if i not in ends]
        b, key = draw_b(len(land))
        for i, bi, ki in zip(land, b, key):
            at[i] += s[i]
            s[i] = 0.0
            if ki + at[i] > best[i]:
                best[i], top_s[i], top_b[i] = ki + at[i], at[i], bi
        for i in ends:
            depth[i] = step
        live = [i for i in live if not depth[i]]
    return np.array([bi * math.exp(si) for bi, si in zip(top_b, top_s)]), np.array(depth)


@pytest.mark.parametrize(
    "b", [SMOOTH_B, rnd.discrete((1.0, 1.5, 2.0), (0.5, 0.25, 0.25))], ids=["uniform", "discrete"]
)
def test_exact_bounded_b_layout_matches_member_by_member_reference(b):
    spec = _extremal(b)
    walk = models.exact_walk(spec)
    assert walk == models.ExactWalk(b=2.0, drift=0.75, sigma=1.0, alpha=1.5, b_law=b)
    for count in (1, 300):
        batch = chains.exact_batch(spec, count, master_seed=9)
        want, depth = _reference_bounded_block(walk, stream(9, 0, "exact"), count)
        np.testing.assert_allclose(batch.samples, want, rtol=1e-15, atol=0)
        assert batch.stop_depths.tolist() == depth.tolist()


def test_exact_bounded_b_matches_backward_in_law(smooth_exact_400k, smooth_backward_400k):
    x, y = smooth_exact_400k.samples, smooth_backward_400k.samples
    assert stats.ks_2samp(x, y).statistic < ks_critical_two(len(x), len(y))
    assert x.min() >= 1.0 and x.max() > 2.0


@pytest.mark.parametrize("b", [rnd.constant(1.0), SMOOTH_B], ids=["constant", "uniform"])
def test_exact_law_is_invariant_under_one_step(b):
    # X and max(a X, b) with a fresh (a, b) have the same law when X is stationary
    spec, n = _extremal(b), 100_000
    x = chains.exact_batch(spec, n, master_seed=2021, threads=2).samples
    theta = models.sample_theta(spec, stream(2022, 0, "one step"), n)
    stepped = models.apply(spec, theta, x)
    other = chains.exact_batch(spec, n, master_seed=2023, threads=2).samples
    assert stats.ks_2samp(stepped, other).statistic < ks_critical_two(n, n)


def test_exact_bounded_b_goldie_constant_matches_backward(
    smooth_spec, smooth_exact_400k, smooth_backward_400k
):
    exact, backward = (
        tails.goldie_constant(smooth_spec, batch.samples, ALPHA, M_ALPHA, master_seed=seed)
        for batch, seed in ((smooth_exact_400k, 2013), (smooth_backward_400k, 2014))
    )
    assert abs(exact.constant - backward.constant) <= 3.0 * math.hypot(exact.se, backward.se)


def test_exact_bounded_b_bytes_do_not_depend_on_threads_or_batch_size(smooth_spec):
    n = 2 * chains.BLOCK_SIZE + 500
    runs = [chains.exact_batch(smooth_spec, n, master_seed=6, threads=t) for t in (1, 2, 8)]
    for other in runs[1:]:
        assert other.samples.tobytes() == runs[0].samples.tobytes()
        assert other.stop_depths.tobytes() == runs[0].stop_depths.tobytes()
    small = chains.exact_batch(smooth_spec, chains.BLOCK_SIZE + 7, master_seed=6)
    lead = slice(0, chains.BLOCK_SIZE)
    assert small.samples[lead].tobytes() == runs[0].samples[lead].tobytes()
    assert small.stop_depths[lead].tobytes() == runs[0].stop_depths[lead].tobytes()


def test_exact_depth_guard(bench_spec):
    with pytest.raises(ConvergenceError, match=r"exact walk hit max_depth=1 with \d+ of 1000"):
        chains.exact_batch(bench_spec, 1000, master_seed=3, max_depth=1)
    assert chains.exact_batch(bench_spec, 1000, master_seed=3, max_depth=100).stop_depths.max() > 1


_NOT_ADMITTED = {
    "mu = 0": (
        "extremal", {"a": rnd.lognormal(0.0, 1.0), "b": rnd.constant(1.0)},
        "a must be lognormal(mu, sigma) with mu < 0, got lognormal(0.0, 1.0)",
    ),
    "mu > 0": (
        "extremal", {"a": rnd.lognormal(0.5, 1.0), "b": rnd.constant(1.0)},
        "a must be lognormal(mu, sigma) with mu < 0, got lognormal(0.5, 1.0)",
    ),
    "a uniform": (
        "extremal", {"a": rnd.uniform(0.2, 1.5), "b": rnd.constant(1.0)},
        "a must be lognormal(mu, sigma) with mu < 0, got uniform(0.2, 1.5)",
    ),
    "b = 0": (
        "extremal", {"a": rnd.lognormal(-0.75, 1.0), "b": rnd.constant(0.0)},
        "b must be bounded and bounded away from 0, got constant(0.0)",
    ),
    "b < 0": (
        "extremal", {"a": rnd.lognormal(-0.75, 1.0), "b": rnd.constant(-1.0)},
        "b must be bounded and bounded away from 0, got constant(-1.0)",
    ),
    "b lognormal": (
        "extremal", {"a": rnd.lognormal(-0.75, 1.0), "b": rnd.lognormal(0.0, 1.0)},
        "b must be bounded and bounded away from 0, got lognormal(0.0, 1.0)",
    ),
    "b uniform from 0": (
        "extremal", {"a": rnd.lognormal(-0.75, 1.0), "b": rnd.uniform(0.0, 1.0)},
        "b must be bounded and bounded away from 0, got uniform(0.0, 1.0)",
    ),
    "b atom at 0": (
        "extremal",
        {"a": rnd.lognormal(-0.75, 1.0), "b": rnd.discrete((0.0, 1.0), (0.5, 0.5))},
        "b must be bounded and bounded away from 0, got discrete(0.0, 1.0)",
    ),
    "affine": (
        "affine", {"scale": rnd.lognormal(-0.75, 1.0), "shift": rnd.constant(1.0)},
        "the family must be extremal, got affine",
    ),
    "letac": (
        "letac",
        {"a": rnd.lognormal(-0.75, 1.0), "b": rnd.constant(1.0), "c": rnd.constant(0.0)},
        "the family must be extremal, got letac",
    ),
}


@pytest.mark.parametrize("case", list(_NOT_ADMITTED))
def test_models_without_an_exact_walk(case):
    family, laws, why = _NOT_ADMITTED[case]
    spec = models.make_model(family, laws=laws)
    assert models.exact_walk(spec) is None
    assert models.exact_refusal(spec) == why
    with pytest.raises(PreconditionError) as err:
        chains.exact_batch(spec, 10)
    assert str(err.value) == f"no exact stationary draw: {why}"


def _law_section(name, law):
    text = f"[distributions.{name}]\nkind = {law.kind}\n"
    if law.kind == "discrete":
        return text + f"atoms = {', '.join(map(repr, law.atoms))}\n" + (
            f"weights = {', '.join(map(repr, law.weights))}\n"
        )
    return text + f"params = {', '.join(map(repr, law.params))}\n"


def _config(family, laws, experiment):
    text = f"[model]\nfamily = {family}\n\n"
    text += "\n".join(_law_section(name, law) for name, law in laws.items())
    return text + "\n[experiment]\n" + experiment


@pytest.mark.parametrize("case", list(_NOT_ADMITTED))
def test_cli_sampler_exact_refuses_a_model_without_one(case, tmp_path, capsys):
    family, laws, why = _NOT_ADMITTED[case]
    path = tmp_path / "run.cfg"
    path.write_text(_config(family, laws, "count = 100\nsampler = exact\n"))
    out = tmp_path / "o"
    for verb in ("simulate", "tail"):
        assert cli.main([verb, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"liprec {verb}: error: [experiment] sampler = exact needs an exact "
            f"stationary law: {why}\n"
        )
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("sampler", ["", "sampler = exact\n"], ids=["default", "chosen"])
def test_cli_exact_refuses_a_start_point(sampler, tmp_path, capsys):
    laws = {"a": rnd.lognormal(MU, SIGMA), "b": rnd.constant(1.0)}
    path = tmp_path / "run.cfg"
    path.write_text(_config("extremal", laws, "count = 100\nx0 = 2.0\n" + sampler))
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "set sampler = backward" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()
    path.write_text(_config("extremal", laws, "count = 100\nx0 = 2.0\nsampler = backward\n"))
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0


def test_cli_exact_depth_guard_exits_3(tmp_path, capsys):
    laws = {"a": rnd.lognormal(MU, SIGMA), "b": rnd.constant(1.0)}
    path = tmp_path / "run.cfg"
    path.write_text(_config("extremal", laws, "count = 1000\nmax_depth = 1\n"))
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert "exact walk hit max_depth=1" in capsys.readouterr().err
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert (entry["status"], entry["exit_code"]) == ("failed", 3)
    assert entry["stream_layout"]["backward_form"] == "exact"


@pytest.mark.parametrize("verb", ["simulate", "tail", "check", "limit"])
def test_cli_default_sampler_is_exact_where_admitted(verb, tmp_path, bench_spec):
    laws = {"a": rnd.lognormal(MU, SIGMA), "b": rnd.constant(1.0)}
    experiment = "count = 2000\nalpha = 1.5\nn = 64\nreplicas = 256\n"
    path = tmp_path / "run.cfg"
    path.write_text(_config("extremal", laws, experiment))
    out = tmp_path / "o"
    assert cli.main([verb, "--config", str(path), "--out", str(out), "--seed", "4"]) == 0
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["stream_layout"]["backward_form"] == "exact"
    depths = chains.exact_batch(bench_spec, 2000, master_seed=4).stop_depths
    assert entry["backward"]["theta_used"] == int(depths.sum())
