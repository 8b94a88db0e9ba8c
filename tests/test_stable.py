import cmath
import math

import numpy as np
import pytest

from liprec import models, stable
from liprec import randomness as rnd
from liprec.errors import PreconditionError
from liprec.randomness import stream

from _util import ks_critical_one, reference_stable_index_fit, traced_peak

ALPHA = 1.5
# Gamma(-1/2) e^{-i pi/4}: the alpha = 1/2 stable constant for unit
# one-sided tail mass, C = sqrt(2 pi) (1 + i) / sqrt(2)
C_HALF = complex(-2.5066282746310005, 2.5066282746310005)


def _pareto(alpha, size, seed, x_m=1.0):
    u = stream(seed, 0, "pareto").random(size)
    return x_m * u ** (-1.0 / alpha)


def _isotropic_pareto_2d(alpha, size, seed, x_m):
    """Points x_m U^(-1/alpha) (cos A, sin A), A uniform: |X| has tail
    constant x_m^alpha and the law is rotation invariant."""
    g = stream(seed, 0, "iso")
    r = x_m * g.random(size) ** (-1.0 / alpha)
    ang = g.uniform(-np.pi, np.pi, size)
    return r[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)


# ---------------------------------------------------------------------------
# the h kernel and the phi series


def _h(spec, x, reps, rng):
    """(E exp(i phi(x)) estimate, se) from `reps` phi draws at the point x."""
    vals = np.exp(1j * stable.phi_series_batch(spec, np.full(reps, float(x)), rng=rng))
    return complex(vals.mean()), math.sqrt((vals.real.var() + vals.imag.var()) / reps)


def test_h_modulus_bounded(bench_spec, bench_batch_100k, rng):
    pts = bench_batch_100k.samples[:5]
    for x in pts:
        val, se = _h(bench_spec, x, 512, rng)
        assert abs(val) <= 1.0 + 3 * se


def test_h_holder_continuity(bench_spec, rng):
    # |h(x) - h(y)| <= 2 kappa(delta)/(1 - kappa(delta)) ... the working
    # bound used here: 2/(1 - kappa(delta)) |x - y|^delta, delta = alpha/2
    delta = 0.75
    kappa_delta = math.exp(-0.75 * delta + 0.5 * delta**2)
    lip = 2.0 / (1.0 - kappa_delta)
    x, y = 1.0, 1.2
    hx, se_x = _h(bench_spec, x, 4096, stream(1, 0, "hx"))
    hy, se_y = _h(bench_spec, y, 4096, stream(1, 0, "hy"))
    assert abs(hx - hy) <= lip * abs(x - y) ** delta + 3 * (se_x + se_y)


def test_phi_series_positive_homogeneity(bench_spec):
    # phi(c x) = c phi(x) pathwise when the streams share a seed and the
    # truncation tolerance is scaled with the input, which keeps the
    # stopping decisions (based on prod * |x|) identical step by step
    xs = np.array([0.5, 1.0, 2.0])
    a = stable.phi_series_batch(
        bench_spec, 3.0 * xs, trunc_tol=3e-8, rng=stream(8, 0, "phi")
    )
    b = stable.phi_series_batch(bench_spec, xs, trunc_tol=1e-8, rng=stream(8, 0, "phi"))
    assert np.allclose(a, 3.0 * b, rtol=1e-9, atol=1e-12)


def test_model_kernel_matches_h(bench_spec):
    # the mean of exp(i phi) over a column of the kernel's draws is h at that point
    pts = np.array([0.8, 1.6])
    draws = stable.ModelKernel(bench_spec).phi_draws(pts, reps=512, rng=stream(4, 0, "kh"))
    assert draws.shape == (512, 2)
    for x, col in zip(pts, draws.T):
        vals = np.exp(1j * col)
        se = math.sqrt((vals.real.var() + vals.imag.var()) / len(vals))
        want, want_se = _h(bench_spec, x, 4096, stream(4, 1, "kh"))
        assert abs(vals.mean() - want) <= 4 * math.hypot(se, want_se)


def test_flat_kernel_identities(rng):
    kern = stable.FlatKernel()
    pts = np.array([1.0, 2.0, 3.0])
    assert np.all(kern.phi_draws(pts, reps=4, rng=rng) == 0.0)
    assert kern.phi_draws(pts, reps=4, rng=rng).shape == (4, 3)


@pytest.mark.parametrize("flat", [False, True])
def test_phi_draws_shape_in_2d(flat):
    spec = models.make_model(
        "affine",
        dimension=2,
        laws={
            "scale": rnd.lognormal(-0.7, 0.4),
            "angle": rnd.uniform(-1.0, 1.0),
            "shift_1": rnd.normal(1.0, 0.5),
            "shift_2": rnd.constant(0.0),
        },
    )
    kern = stable.FlatKernel() if flat else stable.ModelKernel(spec)
    pts = np.array([[1.0, 0.0], [0.0, 2.0], [-0.5, 0.5]])
    draws = kern.phi_draws(pts, reps=8, rng=stream(4, 0, "kp2"))
    assert draws.shape == (8, 3, 2)
    assert np.all(np.isfinite(draws))


# ---------------------------------------------------------------------------
# the tail functional Lambda


def test_lambda_functional_on_pareto():
    # Lambda(1_{x > 1}) = C for the one-sided alpha-Pareto law with C = x_m^alpha
    alpha, x_m = 1.5, 2.0
    x = _pareto(alpha, 10**6, seed=44, x_m=x_m)

    def f(pts):
        return (pts > 1.0).astype(float)

    val, se = stable.lambda_functional(f, x, g=0.05, alpha=alpha, zero_radius=0.5)
    want = x_m**alpha
    assert abs(val - want) <= 4 * se + 0.05 * want


def test_lambda_functional_reads_the_radius_in_2d():
    # Lambda(1_{|x| > 1}) = x_m^alpha for the isotropic law: the (n, 2)
    # samples are cut at their Euclidean radius
    alpha, x_m = 1.5, 2.0
    pts = _isotropic_pareto_2d(alpha, 10**5, seed=6, x_m=x_m)
    val, se = stable.lambda_functional(
        lambda p: np.ones(len(p)), pts, g=0.05, alpha=alpha, zero_radius=1.0
    )
    assert abs(val - x_m**alpha) <= 4 * se


def test_lambda_needs_zero_radius():
    x = _pareto(1.5, 1000, seed=3)
    with pytest.raises(PreconditionError):
        stable.lambda_functional(lambda p: p, x, g=0.1, alpha=1.5)
    with pytest.raises(PreconditionError):
        stable.lambda_functional(lambda p: p, x, g=0.1, alpha=1.5, zero_radius=0.0)


def test_lambda_calls_f_only_beyond_zero_radius():
    # f need not be defined inside the ball it vanishes on
    x = np.array([-3.0, -0.5, 0.0, 0.2, 1.0, 2.0, 5.0])

    def f(pts):
        assert np.all(np.abs(pts) > 0.5), pts
        return np.ones(len(pts))

    val, _ = stable.lambda_functional(f, x, g=0.5, alpha=1.0, zero_radius=0.5)
    assert val == pytest.approx(2.0 * 3 / 7)  # 3 of the 7 rescaled points lie beyond 0.5


def test_lambda_scheduled_agreement():
    alpha, x_m = 1.5, 2.0
    x = _pareto(alpha, 10**6, seed=45, x_m=x_m)

    def f(pts):
        return (pts > 1.0).astype(float)

    val, se, agreed = stable.lambda_functional_scheduled(
        f, x, g_schedule=(0.1, 0.05, 0.025), alpha=alpha, zero_radius=0.5
    )
    assert agreed
    assert abs(val - x_m**alpha) <= 4 * se + 0.05 * x_m**alpha


def test_xi_smooth_centering():
    x = np.array([-3.0, 0.5, 1.0, 4.0])
    got = stable.xi(1.0, x)
    assert got == pytest.approx(np.mean(x / (1.0 + x**2)))
    got = stable.xi(0.25, x)
    assert got == pytest.approx(np.mean(0.25 * x / (1.0 + 0.0625 * x**2)))


def test_tau_two_on_exact_pareto():
    # alpha = 1, sigma_+ = 1: tau(2) = -ln 2 by the Frullani integral
    x = _pareto(1.0, 10**6, seed=46, x_m=1.0)
    val, se, agreed = stable.tau(2.0, x, alpha=1.0, tail_constant=1.0)
    assert agreed
    assert abs(val - (-math.log(2.0))) <= 4 * se + 0.02


def test_tau_rejects_other_alpha():
    x = _pareto(1.5, 1000, seed=3)
    with pytest.raises(PreconditionError):
        stable.tau(2.0, x, alpha=1.5, tail_constant=1.0)


# ---------------------------------------------------------------------------
# the stable constant


def test_c_alpha_frozen_target_flat_kernel():
    # exact alpha = 1/2 Pareto tail with x_m = 4 has tail constant
    # C = x_m^alpha = 2, hence unit one-sided mass alpha C = 1; the
    # integral is then exactly Gamma(-1/2) e^{-i pi/4}
    alpha, x_m = 0.5, 4.0
    x = _pareto(alpha, 4 * 10**5, seed=47, x_m=x_m)
    est = stable.c_alpha(
        1.0,
        alpha,
        x,
        tail_constant=2.0,
        kernel=stable.FlatKernel(),
        g_schedule=(0.25, 0.125),
        master_seed=12,
    )
    err = abs(est.value - C_HALF)
    assert err <= 4 * est.se + 0.02 * abs(C_HALF), f"{est.value} vs {C_HALF}"
    assert est.outer_agreed


def test_c_alpha_outer_memory_does_not_scale_with_the_reps():
    # every point lies beyond radius 1 at g = 0.25; the outer part holds
    # the phi draws of one block of points, not (256 x points) arrays
    # (about 8 KB per point), so the peak stays near the per-point arrays
    n = 2 * 10**5
    x = _pareto(0.5, n, seed=47, x_m=4.0)
    est, peak = traced_peak(
        stable.c_alpha, 1.0, 0.5, x, 2.0, stable.FlatKernel(), (0.25, 0.125), 12
    )
    assert peak <= 256 * n, f"{peak / n:.0f} B per sample"
    assert est.outer_agreed


class _PointKernel:
    """phi draws that are a fixed function of (rep, point): blocking the
    points may reorder a kernel's stream, but with this kernel it may
    not change a bit."""

    def phi_draws(self, pts, reps, rng):
        pts = np.asarray(pts, dtype=float)
        k = np.arange(reps, dtype=float).reshape((reps,) + (1,) * pts.ndim)
        return 0.5 * np.sin(k + pts)


@pytest.mark.parametrize("dim", [1, 2])
def test_c_alpha_outer_blocks_keep_the_bits(dim, monkeypatch):
    if dim == 1:
        x, v = _pareto(0.5, 5000, seed=48, x_m=4.0), 1.0
    else:
        x, v = _isotropic_pareto_2d(0.5, 5000, seed=48, x_m=4.0), np.array([0.6, -0.8])
    kw = dict(kernel=_PointKernel(), g_schedule=(0.25, 0.125), master_seed=12)
    blocked = stable.c_alpha(v, 0.5, x, 2.0, **kw)
    monkeypatch.setattr(stable, "_OUTER_BLOCK", len(x))  # one block: the whole-array form
    assert stable.c_alpha(v, 0.5, x, 2.0, **kw) == blocked


def test_c_alpha_needs_two_scales():
    x = _pareto(0.5, 1000, seed=3, x_m=4.0)
    with pytest.raises(PreconditionError, match="at least two scales"):
        stable.c_alpha(
            1.0, 0.5, x, tail_constant=2.0, kernel=stable.FlatKernel(), g_schedule=(0.1,)
        )


def test_c_alpha_positive_homogeneity_in_v():
    alpha, x_m = 0.5, 4.0
    x = _pareto(alpha, 10**5, seed=48, x_m=x_m)
    kw = dict(
        tail_constant=2.0,  # matches the sampled law: C = x_m^alpha
        kernel=stable.FlatKernel(),
        g_schedule=(0.25, 0.125),
        master_seed=13,
    )
    c1 = stable.c_alpha(1.0, alpha, x, **kw)
    c2 = stable.c_alpha(2.0, alpha, x, **kw)
    want = 2.0**alpha * c1.value
    assert abs(c2.value - want) <= 3 * (c2.se + 2.0**alpha * c1.se) + 0.02 * abs(want)


def test_c_alpha_reflection_in_2d_is_conjugation():
    # C(-v) = conj C(v) term by term when phi == 0; the dimension comes
    # from the (n, 2) samples and the 2-vector v
    pts = _isotropic_pareto_2d(0.5, 20_000, seed=5, x_m=4.0)
    kw = dict(kernel=stable.FlatKernel(), g_schedule=(0.25, 0.125), master_seed=7)
    v = np.array([0.6, 0.8])
    c_pos = stable.c_alpha(v, 0.5, pts, 2.0, **kw)
    c_neg = stable.c_alpha(-v, 0.5, pts, 2.0, **kw)
    assert c_neg.value == c_pos.value.conjugate()
    assert c_neg.se == c_pos.se
    assert c_pos.value.real < 0


def test_c_alpha_real_part_negative_on_benchmark(bench_spec, bench_batch_100k):
    est = stable.c_alpha(
        1.0,
        ALPHA,
        bench_batch_100k.samples,
        tail_constant=1.0,
        kernel=stable.ModelKernel(bench_spec),
        master_seed=14,
    )
    assert est.value.real < 0
    assert est.value.real + 2 * est.se < 0


def test_c_two_quadratic_form():
    # h constant 1, phi identically 0: C_2(v) = -(1/4) sigma_mass v^2
    x = np.concatenate([_pareto(2.0, 50_000, seed=49), -_pareto(2.0, 50_000, seed=50)])
    val, se = stable.c_two(
        1.0, x, tail_constant=1.0, kernel=stable.FlatKernel(), master_seed=3
    )
    want = -0.25 * 2.0 * 1.0  # sigma_mass = alpha C = 2
    assert val.real == pytest.approx(want, abs=3 * se + 1e-9)
    assert abs(val.imag) <= 1e-12


# ---------------------------------------------------------------------------
# limit regimes and normalization


def test_limit_params_regimes():
    assert stable.limit_params(0.7).regime == "sub1"
    assert stable.limit_params(1.0 + 1e-9).regime == "eq1"
    assert stable.limit_params(1.4, center=2.0).regime == "mid"
    assert stable.limit_params(2.0 - 1e-9).regime == "eq2"
    assert stable.limit_params(0.7, center=5.0).center == 0.0  # no centering below 1
    with pytest.raises(PreconditionError):
        stable.limit_params(0.0)
    for alpha in (2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError):
            stable.limit_params(alpha)


def test_normalize_birkhoff_exact_values():
    n = 16
    sums = np.array([8.0])
    got = stable.normalize_birkhoff(sums, n, stable.limit_params(0.8))
    assert got[0] == pytest.approx(8.0 * 16 ** (-1.25))
    got = stable.normalize_birkhoff(
        np.array([20.0]), n, stable.limit_params(1.5, center=1.0)
    )
    assert got[0] == pytest.approx((20.0 - 16.0) * 16 ** (-1.0 / 1.5))
    got = stable.normalize_birkhoff(
        np.array([20.0]), n, stable.limit_params(2.0, center=1.0)
    )
    assert got[0] == pytest.approx(4.0 / math.sqrt(16 * math.log(16)))
    got = stable.normalize_birkhoff(
        np.array([32.0]), n, stable.limit_params(1.0), xi_value=0.1
    )
    assert got[0] == pytest.approx(32.0 / 16 - 16 * 0.1)
    with pytest.raises(PreconditionError):
        stable.normalize_birkhoff(np.array([1.0]), n, stable.limit_params(1.0))


# ---------------------------------------------------------------------------
# empirical CF tooling and the reference sampler


def test_cms_sampler_matches_stable_cf():
    for alpha in (0.8, 1.0, 1.5):
        x = stable.sample_stable_symmetric(alpha, 200_000, stream(16, 0, "cms"))
        rows = stable.empirical_cf(x, t_grid=[0.3, 0.7, 1.1])
        for t, _, re, im, se in rows:
            want = math.exp(-abs(t) ** alpha)
            assert abs(re - want) <= 4 * se
            assert abs(im) <= 4 * se  # symmetric law: CF is real


def test_cms_rejects_bad_alpha(rng):
    with pytest.raises(PreconditionError):
        stable.sample_stable_symmetric(2.5, 10, rng)


def test_index_fit_recovers_alpha():
    for alpha in (0.8, 1.5):
        x = stable.sample_stable_symmetric(alpha, 200_000, stream(17, 0, "fit"))
        fit = stable.stable_index_fit(x)
        assert abs(fit.alpha_hat - alpha) < 0.05
        # intercept encodes the scale: CF = exp(-c t^alpha), c = 1 here
        assert abs(math.exp(fit.intercept) - 1.0) < 0.1


def test_index_fit_insensitive_to_centering():
    # |CF| ignores translation, so the slope is unchanged on a fixed
    # window (the automatic window keys off |x| quantiles and may move)
    x = stable.sample_stable_symmetric(1.5, 100_000, stream(18, 0, "ctr"))
    fit = stable.stable_index_fit(x)
    window = (fit.t_values[0], fit.t_values[-1])
    shifted = stable.stable_index_fit(x + 7.0, t_window=window)
    assert fit.alpha_hat == pytest.approx(shifted.alpha_hat, abs=1e-9)


@pytest.mark.parametrize("n", [10_000, 200_000])
@pytest.mark.parametrize("alpha", [0.8, 1.5])
def test_index_fit_matches_matrix_reference(alpha, n):
    # the fit evaluates |CF| one t at a time; the (t, n) matrix form it
    # replaced gives the same bytes, with its own window and a given one
    x = stable.sample_stable_symmetric(alpha, n, stream(22, 0, "fit-ref"))
    auto = stable.stable_index_fit(x)
    window = (1.2 * auto.t_values[0], 0.9 * auto.t_values[-1])
    for got, want in [
        (auto, reference_stable_index_fit(x)),
        (stable.stable_index_fit(x, window), reference_stable_index_fit(x, window)),
    ]:
        assert np.float64(got.alpha_hat).tobytes() == np.float64(want.alpha_hat).tobytes()
        assert np.float64(got.intercept).tobytes() == np.float64(want.intercept).tobytes()
        assert got.t_values.tobytes() == want.t_values.tobytes()


def test_index_fit_memory_does_not_scale_with_the_ladder():
    # one t at a time holds t x, i t x and exp(i t x): about 40 B per
    # sample. The (49, n) matrix of the ladder takes about 1.5 KB per
    # sample, and 8 t values at a time still take about 260 B.
    n = 200_000
    x = stable.sample_stable_symmetric(1.5, n, stream(23, 0, "fit-mem"))
    _, peak = traced_peak(stable.stable_index_fit, x)
    assert peak < 64 * n


@pytest.mark.parametrize("n", [3, 16, stable.FIT_MIN_SAMPLES - 1])
def test_index_fit_refuses_too_few_samples(n):
    # below 144 samples the |CF| noise floor 1/sqrt(n) reaches the
    # ladder's band (0.25, 0.85), so the fit would read noise
    x = stable.sample_stable_symmetric(1.5, n, stream(24, 0, "fit-few"))
    with pytest.raises(PreconditionError, match=f"at least 144 samples, got {n}"):
        stable.stable_index_fit(x)
    with pytest.raises(PreconditionError, match="at least 144 samples"):
        stable.stable_index_fit(x, t_window=(0.5, 2.0))


def test_index_fit_needs_usable_window():
    with pytest.raises(PreconditionError):
        stable.stable_index_fit(np.zeros(1000))
    x = stable.sample_stable_symmetric(1.5, 10_000, stream(19, 0, "win"))
    with pytest.raises(PreconditionError):
        stable.stable_index_fit(x, t_window=(50.0, 100.0))  # |CF| below 0.05


def test_empirical_cf_row_layout():
    x = np.array([0.0, 1.0, -1.0, 2.0])
    rows = stable.empirical_cf(x, t_grid=[0.5, 1.0])
    assert len(rows) == 2
    t0 = rows[0]
    want = np.exp(0.5j * x).mean()
    assert t0[0] == 0.5 and t0[1] == 0
    assert t0[2] == pytest.approx(want.real)
    assert t0[3] == pytest.approx(want.imag)


def test_empirical_cf_default_direction_is_first_axis():
    x = stable.sample_stable_symmetric(1.5, 20_000, stream(21, 0, "cf2")).reshape(-1, 2)
    assert stable.empirical_cf(x, [0.3, 0.9]) == stable.empirical_cf(x[:, 0], [0.3, 0.9])


def test_gaussian_check_accepts_normal_rejects_stable():
    g = stream(20, 0, "gauss").normal(size=10_000)
    rep = stable.gaussian_check(g)
    assert rep.passed
    assert rep.ks_stat < ks_critical_one(10_000)
    s = stable.sample_stable_symmetric(1.5, 10_000, stream(20, 0, "notgauss"))
    rep = stable.gaussian_check(s)
    assert not rep.passed
    with pytest.raises(PreconditionError):
        stable.gaussian_check(np.ones(100))
