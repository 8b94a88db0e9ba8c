import math

import numpy as np
import pytest

from liprec import models, randomness as rnd, tails
from liprec.chains import stationary_batch
from liprec.errors import DomainError, PreconditionError
from liprec.randomness import stream

from _util import reference_chunked_theta, reference_paired_gap, traced_peak

ALPHA_BENCH = 1.5
M_ALPHA_BENCH = 0.75


def _pareto(alpha, size, seed, x_m=1.0):
    u = stream(seed, 0, "pareto").random(size)
    return x_m * u ** (-1.0 / alpha)


def test_default_hill_k():
    assert tails.default_hill_k(10**6) == 10_000  # exact: 10^4 cubed is 10^12
    assert tails.default_hill_k(1000) == 100
    assert tails.default_hill_k(999) == 99


@pytest.mark.parametrize("alpha", [0.8, 1.5])
def test_hill_recovers_pareto_index(alpha):
    x = _pareto(alpha, 10**6, seed=int(alpha * 100))
    k = tails.default_hill_k(len(x))
    est = tails.hill_estimator(x, k)
    assert abs(est - alpha) / alpha < 0.05


def test_hill_input_guards():
    with pytest.raises(PreconditionError):
        tails.hill_estimator(np.ones(100), 0)
    with pytest.raises(PreconditionError):
        tails.hill_estimator(np.ones(100), 100)
    with pytest.raises(PreconditionError):
        tails.hill_estimator(np.ones(100), 10)  # ties: zero log-excesses
    # the ladder raises rung by rung, in the order the rungs are given
    with pytest.raises(PreconditionError, match="1 <= k < n"):
        tails.hill_curve(np.ones(100), [0, 10])
    with pytest.raises(PreconditionError, match="tied samples"):
        tails.hill_curve(np.ones(100), [10, 100])


@pytest.mark.parametrize("tied", [False, True])
def test_hill_curve_matches_rung_by_rung(tied):
    x = _pareto(1.5, 10**5, seed=7)
    if tied:
        x = np.floor(x * 4) / 4  # many equal order statistics
    ks = np.unique(np.geomspace(8, tails.default_hill_k(len(x)), 24).astype(int))
    ref = [(int(k), tails.hill_estimator(x, int(k))) for k in ks]
    assert tails.hill_curve(x, ks) == ref  # float == is bit equality here


def test_survival_curve_probabilities():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    rows = tails.survival_curve(x, [0.5, 2.0, 4.0], alpha=1.0)
    assert rows[0][1] == 1.0
    assert rows[1][1] == 0.5  # strict survival: P(X > 2) with ties at 2
    assert rows[2][1] == 0.0
    assert rows[1][2] == pytest.approx(2.0 * 0.5)


def test_plateau_window_ordering(bench_batch_100k):
    radii = np.abs(bench_batch_100k.samples)
    lo, hi = tails.plateau_window(radii)
    assert 0 < lo < hi
    q99 = np.quantile(radii, 0.99)
    assert lo == pytest.approx(q99)


def test_goldie_constant_positive_on_benchmark(bench_spec, bench_batch_1m):
    est = tails.goldie_constant(
        bench_spec, bench_batch_1m.samples, ALPHA_BENCH, M_ALPHA_BENCH, master_seed=5
    )
    assert est.constant > 0
    assert est.constant > 4 * est.se
    emp = tails.empirical_tail_constant(
        np.abs(bench_batch_1m.samples), ALPHA_BENCH
    )
    assert abs(est.constant / emp - 1.0) < 0.2


def test_goldie_scale_equivariance(bench_spec, bench_batch_1m):
    # S -> cS scales the tail constant by c^alpha; both the pairwise
    # estimator and the survival plateau must track it
    c = 2.0
    scaled_spec = models.make_model(
        "extremal",
        laws={
            "a": bench_spec.laws["a"],
            "b": rnd.constant(c),  # b: 1 -> 2 gives S -> 2S for max(ax, b)
        },
    )
    base = tails.goldie_constant(
        bench_spec, bench_batch_1m.samples, ALPHA_BENCH, M_ALPHA_BENCH, master_seed=5
    )
    scaled = tails.goldie_constant(
        scaled_spec, c * bench_batch_1m.samples, ALPHA_BENCH, M_ALPHA_BENCH, master_seed=5
    )
    ratio = scaled.constant / base.constant
    assert abs(ratio / c**ALPHA_BENCH - 1.0) < 0.2


# a random parameter after a constant one, more than one random parameter,
# and a point dimension of 2: each moves where a parameter's batch starts
PAIRED_MODELS = {
    "letac_normal_c": models.make_model(
        "letac",
        laws={
            "a": rnd.lognormal(-0.8, 0.5),
            "b": rnd.constant(0.3),
            "c": rnd.normal(0.0, 0.5),
        },
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
    "arch1": models.make_model(
        "arch1",
        laws={"a": rnd.normal(0.0, 0.6)},
        constants={"gamma": 0.3, "beta": 0.8, "lambda": 0.25},
    ),
    "sqrt_quadratic": models.make_model(
        "sqrt_quadratic",
        laws={
            "a": rnd.uniform(0.2, 0.7),
            "b": rnd.uniform(-0.2, 0.2),
            "c": rnd.discrete((0.5, 1.0), (0.5, 0.5)),
        },
    ),
}


def _check_paired_chunks(spec, alpha, monkeypatch):
    # theta is drawn and used a chunk at a time, chunk c from stream
    # (seed, c, purpose); a ragged last chunk must leave every term as the
    # whole-batch expression gives it on the concatenated draws
    x = stationary_batch(spec, 4567, master_seed=9).samples
    theta = reference_chunked_theta(spec, 3, "goldie", len(x), 1000)
    d = reference_paired_gap(spec, theta, x, alpha) / (alpha * M_ALPHA_BENCH)
    monkeypatch.setattr(tails, "_PAIR_CHUNK", 1000)
    est = tails.goldie_constant(spec, x, alpha, M_ALPHA_BENCH, master_seed=3)
    assert est.constant == float(d.mean())
    assert est.se == tails._mom_se(d)[0]
    # the moment identity shares the chunked pairs; any kappa(s) < 1 will do
    s, kappa_s = alpha / 2, 0.6
    theta = reference_chunked_theta(spec, 11, "identity", len(x), 1000)
    diff = models.radius(spec, x) ** s * (1.0 - kappa_s) - reference_paired_gap(spec, theta, x, s)
    se = float(diff.std() / math.sqrt(len(x)))
    z, mean, got_se = tails.moment_identity_residual(spec, s, x, kappa_s, master_seed=11)
    assert (z, mean, got_se) == (abs(float(diff.mean())) / se, float(diff.mean()), se)


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_goldie_chunks_match_whole_batch(bench_spec, monkeypatch, alpha):
    _check_paired_chunks(bench_spec, alpha, monkeypatch)


@pytest.mark.parametrize("name", sorted(PAIRED_MODELS))
def test_paired_chunks_match_whole_batch_on_more_models(name, monkeypatch):
    _check_paired_chunks(PAIRED_MODELS[name], 1.2, monkeypatch)


def test_goldie_needs_one_sample_per_se_block(bench_spec):
    # fewer samples than MOM_BLOCKS would leave empty se blocks and a nan se
    x = np.ones(tails.MOM_BLOCKS - 1)
    with pytest.raises(PreconditionError, match="at least 32 samples .* got 31"):
        tails.goldie_constant(bench_spec, x, ALPHA_BENCH, M_ALPHA_BENCH)
    est = tails.goldie_constant(bench_spec, np.ones(tails.MOM_BLOCKS), ALPHA_BENCH, M_ALPHA_BENCH)
    assert math.isfinite(est.constant) and math.isfinite(est.se)


@pytest.mark.parametrize(
    "family, laws, message",
    [
        ("extremal", {"a": rnd.normal(0.5, 1.0), "b": rnd.constant(1.0)},
         "extremal parameter a must be positive"),
        ("affine", {"scale": rnd.normal(0.5, 1.0), "shift": rnd.constant(1.0)},
         "affine parameter scale must be positive"),
        ("letac", {"a": rnd.constant(0.5), "b": rnd.normal(0.5, 1.0), "c": rnd.constant(0.0)},
         "letac parameter b must be >= 0"),
    ],
)
def test_paired_draws_run_the_domain_checks(family, laws, message, monkeypatch):
    # each chunk is checked as sample_theta checks the whole batch
    spec = models.make_model(family, laws=laws)
    x = np.ones(5000)
    with pytest.raises(DomainError) as whole:
        models.sample_theta(spec, stream(0, 0, "goldie"), len(x))
    monkeypatch.setattr(tails, "_PAIR_CHUNK", 1000)
    with pytest.raises(DomainError) as chunked:
        tails.goldie_constant(spec, x, ALPHA_BENCH, M_ALPHA_BENCH)
    assert str(chunked.value) == str(whole.value) == message


def test_goldie_vanishes_for_pure_scale():
    # shift identically zero: psi(x) = Mx exactly, so every pair cancels
    spec = models.make_model(
        "affine",
        laws={"scale": rnd.lognormal(-0.75, 1.0), "shift": rnd.constant(0.0)},
    )
    x = stream(9, 0, "cloud").normal(size=20_000)
    est = tails.goldie_constant(spec, x, ALPHA_BENCH, M_ALPHA_BENCH)
    assert est.constant == pytest.approx(0.0, abs=1e-14)
    assert est.se == pytest.approx(0.0, abs=1e-14)


def test_letac_support_has_no_tail(letac_spec, letac_batch_10k):
    # stationary support is {-5/6, 0}: survival beyond 5/6 is exactly zero
    radii = np.abs(letac_batch_10k.samples)
    rows = tails.survival_curve(radii, [0.9, 2.0, 10.0], alpha=1.8509424119862664)
    assert all(r[1] == 0.0 for r in rows)


def test_moment_identity_on_benchmark(bench_spec, bench_batch_1m):
    s = 0.75
    kappa_s = math.exp(s * -0.75 + 0.5 * s**2)  # lognormal closed form
    z, mean, se = tails.moment_identity_residual(
        bench_spec, s, bench_batch_1m.samples, kappa_s, master_seed=11
    )
    assert se > 0
    assert z <= 3.0, f"identity residual {mean} is {z:.2f} se from zero"


def test_moment_identity_needs_subcritical_s(bench_spec, bench_batch_100k):
    with pytest.raises(PreconditionError):
        tails.moment_identity_residual(
            bench_spec, 1.5, bench_batch_100k.samples, kappa_s=1.0
        )


def test_moment_upper_bound_formula_and_guards():
    got = tails.moment_upper_bound(1.0, 0.25, 0.5)
    assert got == pytest.approx(1.0 / (1.0 - 0.25**2.0))
    with pytest.raises(PreconditionError):
        tails.moment_upper_bound(1.0, 1.2, 0.5)
    with pytest.raises(PreconditionError):
        tails.moment_upper_bound(1.0, 0.5, -1.0)


def test_moment_bound_dominates_batch(bench_spec, bench_batch_1m):
    beta = 0.75
    kappa_b = math.exp(beta * -0.75 + 0.5 * beta**2)
    n_moment = 1.0  # b identically 1, so E|N|^beta = 1
    bound = tails.moment_upper_bound(n_moment, kappa_b, beta)
    emp = float(np.mean(np.abs(bench_batch_1m.samples) ** beta)) ** (1.0 / beta)
    assert emp <= bound


def test_direction_masses_one_dimensional(bench_batch_1m):
    # benchmark chain is nonnegative: all tail mass sits on +1
    dirs, masses = tails.direction_masses(
        bench_batch_1m.samples, ALPHA_BENCH, tail_constant=2.0
    )
    assert list(dirs) == [1.0, -1.0]
    assert masses[0] == pytest.approx(1.5 * 2.0)
    assert masses[1] == 0.0
    assert masses.sum() == pytest.approx(tails.sigma_mass(2.0, ALPHA_BENCH))


def test_direction_masses_sign_split():
    x = np.concatenate([_pareto(1.0, 200_000, seed=1), -_pareto(1.0, 200_000, seed=2)])
    dirs, masses = tails.direction_masses(x, 1.0, tail_constant=1.0)
    assert masses.sum() == pytest.approx(1.0)
    # 400 points above the 0.999 radius quantile: sd of the split is 0.05
    assert abs(masses[0] - masses[1]) < 0.15


def test_direction_masses_d2_concentrates():
    g = stream(21, 0, "plane")
    r = _pareto(1.5, 40_000, seed=3)
    ang = g.normal(0.0, 0.05, size=40_000)  # tight beam around +x
    pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    dirs, masses = tails.direction_masses(pts, 1.5, tail_constant=1.0)
    assert masses.sum() == pytest.approx(1.5)
    lead = dirs[np.argmax(masses)]
    assert lead[0] > 0.99


@pytest.mark.parametrize("shape", [(1000, 1), (1000, 4), (10, 10, 2)])
def test_direction_masses_rejects_other_shapes(shape):
    x = stream(23, 0, "shape").standard_cauchy(shape)
    with pytest.raises(PreconditionError, match="shape"):
        tails.direction_masses(x, 1.0, tail_constant=1.0)


def test_direction_masses_d3_isotropic():
    g = stream(22, 0, "space")
    u = g.standard_normal((200_000, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    pts = _pareto(1.5, 200_000, seed=4)[:, None] * u
    dirs, masses = tails.direction_masses(pts, 1.5, tail_constant=1.0)
    assert masses.sum() == pytest.approx(tails.sigma_mass(1.0, 1.5))
    assert np.allclose(np.linalg.norm(dirs, axis=-1), 1.0)
    assert np.all(masses > 0)
    # 200 samples above the 0.999 radius quantile, spread over the sphere
    assert len(dirs) > 100
    assert np.linalg.norm(masses @ dirs) < 0.3 * masses.sum()


def test_tail_report_bundle(bench_spec, bench_batch_100k):
    rep = tails.tail_report(
        bench_spec, bench_batch_100k.samples, ALPHA_BENCH, M_ALPHA_BENCH, master_seed=5
    )
    assert rep.goldie.constant > 0
    assert rep.sigma_mass == pytest.approx(ALPHA_BENCH * rep.goldie.constant)
    assert len(rep.survival) == 32
    assert rep.plateau[0] < rep.plateau[1]
    assert all(k1 < k2 for (k1, _), (k2, _) in zip(rep.hill, rep.hill[1:]))
    assert math.isfinite(rep.plateau_deviation)


@pytest.mark.parametrize("name", ["smooth", "affine_d2", "tied"])
def test_tail_report_reads_the_public_bits(name, bench_spec):
    # the report sorts the radii once, in place; its window, survival rows
    # and ladder must be what the public readers give on the radii
    spec = {
        "smooth": models.make_model(
            "extremal", laws={"a": rnd.lognormal(-0.75, 1.0), "b": rnd.uniform(1.0, 2.0)}
        ),
        "affine_d2": PAIRED_MODELS["affine_d2"],
        "tied": bench_spec,  # constant b: many samples equal b exactly
    }[name]
    x = stationary_batch(spec, 30_000, master_seed=17).samples
    before = x.tobytes()
    radii = models.radius(spec, x)
    if name == "tied":
        assert len(np.unique(radii)) < len(radii) // 2
    rep = tails.tail_report(spec, x, 1.2, 0.5, master_seed=3)
    assert x.tobytes() == before
    window = tails.plateau_window(radii)
    grid = np.geomspace(window[0], window[1], tails.DEFAULT_T_POINTS)
    ks = [k for k, _ in rep.hill]
    assert rep.plateau == window
    assert rep.survival == tails.survival_curve(radii, grid, 1.2)  # float == is bit equality
    assert rep.hill == tails.hill_curve(radii, ks)
    assert rep.goldie == tails.goldie_constant(spec, x, 1.2, 0.5, master_seed=3)
    # the public readers leave their input as it was
    assert radii.tobytes() == models.radius(spec, x).tobytes()


def test_tail_report_checks_goldie_inputs_first(bench_spec):
    # the tail constant now runs last, but its errors still come first
    with pytest.raises(PreconditionError, match="alpha > 0 and m_alpha > 0"):
        tails.tail_report(bench_spec, np.ones(10), 0.0, 0.5)
    with pytest.raises(PreconditionError, match="at least 32 samples .* got 10"):
        tails.tail_report(bench_spec, np.ones(10), 1.5, 0.5)


def test_tail_report_traced_peak_at_1e6_samples(bench_spec):
    # the radii are sorted in place and freed before the tail constant, so
    # the peak is the tail constant's own: its 8 MB of paired gaps plus a
    # chunk's temporaries, 11.7 MB; holding the radii beside the gaps and
    # sorting copies of them read 18.6 MB
    x = 1.0 + _pareto(1.5, 10**6, seed=41)
    rep, peak = traced_peak(tails.tail_report, bench_spec, x, ALPHA_BENCH, M_ALPHA_BENCH)
    assert rep.goldie.constant > 0
    assert peak < 13e6
