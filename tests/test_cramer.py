import math

import numpy as np
import pytest
from _util import reference_arch1_m_alpha, reference_cramer_report
from hypothesis import given
from hypothesis import strategies as st

from liprec import config, cramer, experiments, models, randomness as rnd
from liprec.chains import stationary_batch
from liprec.errors import BracketError, MomentDivergenceError, PreconditionError
from liprec.randomness import stream

# frozen solver targets, computed independently of the solver:
# discrete root by high-precision bisection on (3/4)(1/3)^s + (1/4)2^s = 1,
# lognormal root from the identity kappa(s) = exp(s mu + s^2 sigma^2 / 2)
LETAC_ALPHA = 1.8509424119862664
LETAC_M_ALPHA = 0.5172669583221807
BENCH_LAW = rnd.lognormal(-0.75, 1.0)  # root exactly 1.5, m_alpha exactly 0.75


def letac_scale_law():
    return rnd.discrete(atoms=(1.0 / 3.0, 2.0), weights=(0.75, 0.25))


def test_kappa_at_zero_is_one():
    for law in (BENCH_LAW, letac_scale_law(), rnd.constant(0.5)):
        value, se = cramer.moments(law)(0.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert se == 0.0


@given(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_kappa_log_convex_on_closed_laws(s1, s2):
    # log kappa((s1+s2)/2) <= (log kappa(s1) + log kappa(s2)) / 2
    for law in (BENCH_LAW, letac_scale_law()):
        curve = cramer.moments(law)
        mid = 0.5 * (s1 + s2)
        k1 = math.log(curve(s1)[0])
        k2 = math.log(curve(s2)[0])
        km = math.log(curve(mid)[0])
        assert km <= 0.5 * (k1 + k2) + 1e-9


def test_letac_root_and_derivative():
    curve = cramer.moments(letac_scale_law())
    alpha = cramer.solve_cramer(curve, bracket=(0.5, 3.0), tol=1e-9)
    assert alpha == pytest.approx(LETAC_ALPHA, abs=1e-6)
    ma, se = curve.m_alpha(alpha)
    assert ma == pytest.approx(LETAC_M_ALPHA, abs=1e-6)
    assert se == 0.0


def test_lognormal_root_closed_form():
    curve = cramer.moments(BENCH_LAW)
    alpha = cramer.solve_cramer(curve, bracket=(0.5, 3.0), tol=1e-9)
    assert alpha == pytest.approx(1.5, abs=1e-8)
    ma, _ = curve.m_alpha(alpha)
    # (mu + s sigma^2) kappa(s) at the root, kappa = 1 there
    assert ma == pytest.approx(0.75, abs=1e-7)


def test_root_shifts_down_when_scale_grows():
    # multiplying M by c > 1 shifts mu by log c; alpha = -2 mu / sigma^2 drops
    bumped = rnd.lognormal(-0.75 + math.log(1.1), 1.0)
    a0 = cramer.solve_cramer(cramer.moments(BENCH_LAW), bracket=(0.1, 3.0))
    a1 = cramer.solve_cramer(cramer.moments(bumped), bracket=(0.1, 3.0))
    assert a1 < a0
    assert a1 == pytest.approx(2 * (0.75 - math.log(1.1)), abs=1e-5)


def test_monte_carlo_solve_tracks_closed_truth():
    curve = cramer.moments(BENCH_LAW, "monte_carlo", stream(201, 0, "mc-root"), 400_000)
    assert curve.tol == cramer.MONTE_CARLO_TOL
    alpha = cramer.solve_cramer(curve, bracket=(0.5, 3.0))
    assert alpha == pytest.approx(1.5, abs=0.05)


def test_monte_carlo_solve_is_seed_reproducible():
    a, b = (
        cramer.solve_cramer(
            cramer.moments(BENCH_LAW, "monte_carlo", stream(7, 0, "r"), 50_000), (0.5, 3.0)
        )
        for _ in range(2)
    )
    assert a == b


def test_bracket_and_divergence_errors():
    curve = cramer.moments(letac_scale_law())
    with pytest.raises(BracketError):
        cramer.solve_cramer(curve, bracket=(0.01, 0.1))
    with pytest.raises(PreconditionError):
        cramer.solve_cramer(curve, bracket=(2.0, 1.0))
    # sigma = 50: some draw has s log|M| past the double range at s = 4,
    # so the empirical moment overflows and the solver must say so
    heavy = rnd.lognormal(0.0, 50.0)
    with pytest.raises(MomentDivergenceError):
        cramer.solve_cramer(
            cramer.moments(heavy, "monte_carlo", stream(5, 0, "heavy"), 200_000),
            bracket=(0.5, 4.0),
        )


def test_m_alpha_rejects_subcritical_point():
    # below the root the derivative-type moment is negative for this law
    with pytest.raises(PreconditionError):
        cramer.moments(BENCH_LAW).m_alpha(0.2)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_sampled_moments_need_one_draw(n_samples):
    # 0 draws gave a nan mean (and a misleading divergence error); -5 died in numpy
    with pytest.raises(PreconditionError, match=f"mc_samples must be at least 1, got {n_samples}"):
        cramer.moments(rnd.uniform(0.2, 1.6), rng=stream(3, 0, "m"), n_samples=n_samples)
    assert cramer.moments(BENCH_LAW, n_samples=n_samples).tol == cramer.CLOSED_FORM_TOL


def test_bisection_stops_at_adjacent_floats():
    # a tolerance below the spacing of doubles near the root used to loop forever
    alpha = cramer.solve_cramer(cramer.moments(BENCH_LAW), (0.5, 3.0), tol=1e-300)
    assert alpha == pytest.approx(1.5, abs=1e-12)


def test_s_infinity_probe():
    assert cramer.s_infinity_probe(BENCH_LAW) == math.inf
    # normal has no closed moments here; the ladder stops at a finite rung
    # once the empirical moment turns unreliable
    got = cramer.s_infinity_probe(rnd.normal(0.0, 1.0), rng=stream(31, 0, "probe"))
    assert 1.0 <= got < math.inf


@pytest.mark.filterwarnings("error")
def test_s_infinity_probe_raises_no_warning():
    # at s = 1024 every draw of |M| ~ uniform(0.2, 1.6) is finite but its
    # square overflows: the se must not warn while the ladder stops
    law = rnd.uniform(0.2, 1.6)
    got = cramer.s_infinity_probe(law, rng=stream(3, 0, "s-infinity"))
    assert 1.0 <= got < math.inf


@pytest.mark.parametrize(
    "law, mode",
    [(rnd.uniform(0.2, 1.6), "auto"), (BENCH_LAW, "monte_carlo")],
    ids=["uniform", "lognormal-monte-carlo"],
)
def test_sampled_report_matches_plain_numpy(law, mode):
    s_grid = (0.25, 0.5, 1.0, 1.5, 2.0)
    rep = cramer.cramer_report(
        law, s_grid, (0.05, 8.0), mode=mode, master_seed=3, n_samples=200_000
    )
    assert rep.method == "monte_carlo"
    got = (
        rep.kappa_values, rep.kappa_se, rep.alpha,
        rep.m_alpha, rep.m_alpha_se, rep.s_infinity_lower_bound,
    )
    assert got == reference_cramer_report(law, s_grid, (0.05, 8.0), 3, 200_000)


def test_resolve_alpha_sampled_m_alpha_matches_plain_numpy():
    # arch1 with a ~ normal has no representable |M| law, so m_alpha is
    # sampled from theta draws
    text = (
        "[model]\nfamily = arch1\ngamma = 0.1\nbeta = 1.0\nlambda = 1.0\n"
        "[distributions.a]\nkind = normal\nparams = 0.0, 1.0\n"
        "[experiment]\nalpha = 1.5\nmc_samples = 200000\n"
    )
    cfg = config.parse_config(text)
    spec = config.build_model(cfg)
    assert models.linear_scale_law(spec) is None
    alpha, m_al = experiments._resolve_alpha(cfg, spec, 3)
    assert alpha == 1.5
    assert m_al == reference_arch1_m_alpha(0.1, 1.0, 1.0, 1.5, 3, 200_000)


def test_checks_pass_on_benchmark(bench_spec, rng):
    rep = cramer.check_contraction(bench_spec, 20_000, rng)
    assert rep.passed and rep.value < 0
    batch = stationary_batch(bench_spec, 4096, master_seed=3)
    rep = cramer.check_cancellation(bench_spec, batch.samples, 4096, rng)
    assert rep.passed
    rep = cramer.check_smoothness(
        bench_spec, np.linspace(-4, 4, 41), (1.0, 0.5, 0.1, 0.01), 256, rng
    )
    assert rep.passed


def test_cancellation_check_flags_negative_points(bench_spec, rng):
    # extremal maps are not affine-like at negative arguments
    fake_support = np.linspace(-6.0, -1.0, 512)
    rep = cramer.check_cancellation(bench_spec, fake_support, 4096, rng)
    assert not rep.passed


def test_nontriviality_probe_bounded(bench_spec, rng):
    rows, bounded = cramer.nontriviality_probe(
        rnd.constant(1.0), BENCH_LAW, s_grid=(0.5, 1.0, 1.5), rng=rng
    )
    assert bounded
    assert [r[0] for r in rows] == [0.5, 1.0, 1.5]
    for s_val, ratio, root in rows:
        assert root == pytest.approx(ratio ** (1.0 / s_val), rel=1e-12)


def test_cramer_report_bundle():
    rep = cramer.cramer_report(
        letac_scale_law(), s_grid=np.linspace(0.1, 2.0, 8), bracket=(0.5, 3.0)
    )
    assert rep.method == "closed_form"
    assert rep.alpha == pytest.approx(LETAC_ALPHA, abs=1e-5)
    assert rep.m_alpha == pytest.approx(LETAC_M_ALPHA, abs=1e-5)
    assert rep.s_infinity_lower_bound == math.inf
    assert len(rep.kappa_values) == 8
    assert all(se == 0.0 for se in rep.kappa_se)
