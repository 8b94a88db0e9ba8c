"""End-to-end acceptance suite: one check per shipped guarantee.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
check, ``ACCEPTANCE <n> PASS/FAIL <detail>``. Checks with a stated time
budget enforce it inside the same assert. Checks 7 and 9 compare
finite-chain output against its limit law at sample sizes where the
finite-n transient still dominates the Monte Carlo noise; they fail by
a margin the printed line reports, and README.md walks through why the
margin is structural rather than a defect.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from liprec import chains, cli, cramer, models, stable, support, tails
from liprec import randomness as rnd
from liprec.randomness import stream

KS_C99 = 1.6276236115189503

LETAC_ALPHA = 1.8509424119862664
BENCH_ALPHA = 1.5
BENCH_M_ALPHA = 0.75
# E A^s for A ~ lognormal(-0.75, 1) at s = 0.75
BENCH_KAPPA_075 = math.exp(0.75 * -0.75 + 0.5 * 0.75**2)
C_HALF = complex(-2.5066282746310005, 2.5066282746310005)

BENCH_CONFIG = """\
[model]
family = extremal

[distributions.a]
kind = lognormal
params = -0.75, 1.0

[distributions.b]
kind = constant
params = 1.0
"""

_BENCH = {}


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


def _bench_batch(bench_spec):
    """One million certified stationary draws, built once per module.

    Built here rather than via the session fixture so the build cost
    lands inside check 4's time budget.
    """
    if "batch" not in _BENCH:
        _BENCH["batch"] = chains.stationary_batch(
            bench_spec, 10**6, tol=1e-9, master_seed=77, threads=4
        )
    return _BENCH["batch"]


def test_01_letac_cramer_root(letac_spec):
    t0 = time.perf_counter()
    law = models.linear_scale_law(letac_spec)
    alpha = cramer.solve_cramer(cramer.moments(law), (1.0, 3.0))
    wall = time.perf_counter() - t0
    err = abs(alpha - LETAC_ALPHA)
    ok = err < 1e-3 and wall < 1.0
    line = _report(
        1, ok, f"alpha={alpha:.6f} err={err:.2e} (tol 1e-3), wall={wall:.3f}s (budget 1s)"
    )
    assert ok, line


def test_02_letac_support_cloud_and_coverage(letac_spec):
    t0 = time.perf_counter()
    cloud = support.enumerate_fixed_points(letac_spec, max_depth=6)
    batch = chains.stationary_batch(
        letac_spec, 10_000, tol=1e-9, master_seed=5, threads=2
    )
    cov = support.coverage_check(cloud, batch.samples, epsilon=1e-6)
    wall = time.perf_counter() - t0
    pts = np.sort(np.atleast_1d(cloud.points))
    target = np.array([-5.0 / 6.0, 0.0])
    gap = float(np.abs(pts - target).max()) if pts.size == 2 else math.inf
    ok = pts.size == 2 and gap < 1e-9 and cov.fraction_covered == 1.0 and wall < 10.0
    line = _report(
        2,
        ok,
        f"cloud size={pts.size} max atom gap={gap:.2e} (tol 1e-9), "
        f"coverage={cov.fraction_covered:.4f} at eps=1e-6, wall={wall:.1f}s (budget 10s)",
    )
    assert ok, line


def _explicit_max_samples(count, seed, mu=-0.75, sigma=1.0):
    """Direct draws of sup_k (A_1 ... A_k) B for the extremal benchmark.

    B is the constant 1, so each path's supremum is tracked over the
    running product of multipliers; a path stops once its product can
    no longer move the maximum (relative floor 1e-9).
    """
    rng = stream(seed, 0, "explicit-max")
    best = np.full(count, -np.inf)
    prod = np.ones(count)
    idx = np.arange(count)
    while idx.size:
        np.maximum.at(best, idx, prod[idx])
        prod[idx] = prod[idx] * rng.lognormal(mu, sigma, idx.size)
        idx = idx[prod[idx] >= best[idx] * 1e-9]
    return best


def test_03_backward_vs_explicit_law(bench_spec):
    t0 = time.perf_counter()
    n = 10**5
    back = chains.stationary_batch(bench_spec, n, tol=1e-9, master_seed=301, threads=4)
    expl = _explicit_max_samples(n, seed=302)
    ks = stats.ks_2samp(back.samples, expl).statistic
    crit = KS_C99 * math.sqrt((n + n) / (n * n))
    wall = time.perf_counter() - t0
    ok = ks < crit and wall < 30.0
    line = _report(
        3,
        ok,
        f"two-sample KS={ks:.5f} vs 1% critical {crit:.5f} at n={n} each, "
        f"wall={wall:.1f}s (budget 30s)",
    )
    assert ok, line


def test_04_hill_index_and_tail_constant(bench_spec):
    t0 = time.perf_counter()
    batch = _bench_batch(bench_spec)
    x = np.abs(np.asarray(batch.samples))
    k = tails.default_hill_k(len(x))
    a_hat = tails.hill_estimator(x, k)
    gold = tails.goldie_constant(
        bench_spec, batch.samples, BENCH_ALPHA, BENCH_M_ALPHA, master_seed=78
    )
    emp = tails.empirical_tail_constant(x, BENCH_ALPHA)
    dev = gold.constant / emp - 1.0
    wall = time.perf_counter() - t0
    hill_ok = 1.35 <= a_hat <= 1.65
    gold_ok = abs(dev) <= 0.15
    ok = hill_ok and gold_ok and wall < 300.0
    line = _report(
        4,
        ok,
        f"hill(k={k})={a_hat:.4f} in [1.35,1.65]: {hill_ok}; "
        f"C={gold.constant:.5f} (se {gold.se:.5f}) vs plateau {emp:.5f}, "
        f"rel dev={dev:+.4f} (tol 0.15), wall={wall:.1f}s (budget 300s)",
    )
    assert ok, line


def test_05_moment_identity(bench_spec):
    batch = _bench_batch(bench_spec)
    z, mean, se = tails.moment_identity_residual(
        bench_spec, 0.75, batch.samples, BENCH_KAPPA_075, master_seed=79
    )
    ok = z <= 3.0
    line = _report(
        5, ok, f"s=0.75 residual mean={mean:.3g} se={se:.3g} z={z:.2f} (tol 3)"
    )
    assert ok, line


def test_06_explicit_moment_bound(bench_spec):
    batch = _bench_batch(bench_spec)
    x = np.abs(np.asarray(batch.samples))
    beta = 0.75
    m = float(np.mean(x**beta))
    se_m = float(np.std(x**beta) / math.sqrt(len(x)))
    lhs = m ** (1.0 / beta)
    se_lhs = (1.0 / beta) * m ** (1.0 / beta - 1.0) * se_m
    # the shift is the constant 1, so E|N|^beta = 1 exactly
    bound = tails.moment_upper_bound(1.0, BENCH_KAPPA_075, beta)
    ok = lhs <= bound + 3 * se_lhs
    line = _report(
        6,
        ok,
        f"(E|S|^0.75)^(4/3)={lhs:.4f} (se {se_lhs:.5f}) vs bound {bound:.4f} + 3 se",
    )
    assert ok, line


@pytest.mark.parametrize("alpha,seed", [(0.8, 701), (1.5, 751)])
def test_07_stable_limit_index_and_cf(alpha, seed):
    t0 = time.perf_counter()
    mu = -alpha / 2.0
    spec = models.make_model(
        "affine", laws={"scale": rnd.lognormal(mu, 1.0), "shift": rnd.constant(1.0)}
    )
    center = 0.0 if alpha < 1.0 else 1.0 / (1.0 - math.exp(mu + 0.5))
    params = stable.limit_params(alpha, center=center)
    reps = 10**4
    sums_big = chains.birkhoff_sums(spec, 0.0, 10**4, reps, seed, threads=4)
    norm_big = stable.normalize_birkhoff(sums_big, 10**4, params)
    fit = stable.stable_index_fit(norm_big)
    sums_small = chains.birkhoff_sums(spec, 0.0, 10**3, reps, seed + 1, threads=4)
    norm_small = stable.normalize_birkhoff(sums_small, 10**3, params)
    cf_big = stable.empirical_cf(norm_big, fit.t_values)
    cf_small = stable.empirical_cf(norm_small, fit.t_values)
    worst = 0.0
    for rb, rs in zip(cf_big, cf_small):
        d = abs(complex(rb[2], rb[3]) - complex(rs[2], rs[3]))
        se = math.sqrt(rb[4] ** 2 + rs[4] ** 2)
        worst = max(worst, d / se)
    wall = time.perf_counter() - t0
    idx_ok = abs(fit.alpha_hat - alpha) <= 0.15
    cf_ok = worst <= 3.0
    ok = idx_ok and cf_ok and wall < 600.0
    note = "" if cf_ok else "; finite-n drift between chain lengths, see README"
    line = _report(
        7,
        ok,
        f"alpha={alpha}: alpha_hat={fit.alpha_hat:.4f} (tol 0.15) {idx_ok}; "
        f"CF n=1e4 vs 1e3 worst z={worst:.2f} (tol 3) {cf_ok}; "
        f"wall={wall:.0f}s (budget 600s){note}",
    )
    assert ok, line


def test_08_cf_real_part_negative(bench_spec):
    batch = _bench_batch(bench_spec)
    gold = tails.goldie_constant(
        bench_spec, batch.samples, BENCH_ALPHA, BENCH_M_ALPHA, master_seed=78
    )
    est = stable.c_alpha(
        1.0,
        BENCH_ALPHA,
        np.asarray(batch.samples)[:200_000],
        tail_constant=gold.constant,
        kernel=stable.ModelKernel(bench_spec),
        master_seed=80,
    )
    hi = est.value.real + 2 * est.se
    ok = hi < 0.0
    line = _report(
        8, ok, f"C(1)={est.value:.4f} se={est.se:.4f}, Re + 2 se = {hi:.4f} < 0: {ok}"
    )
    assert ok, line


def test_09_gaussian_boundary_shape():
    spec = models.make_model(
        "affine", laws={"scale": rnd.lognormal(-1.0, 1.0), "shift": rnd.constant(1.0)}
    )
    center = 1.0 / (1.0 - math.exp(-0.5))
    params = stable.limit_params(2.0, center=center)
    sums = chains.birkhoff_sums(spec, 0.0, 10**4, 10**4, 901, threads=4)
    norm = stable.normalize_birkhoff(sums, 10**4, params)
    chk = stable.gaussian_check(norm)
    shape_ok = abs(chk.skewness) <= 0.15 and abs(chk.excess_kurtosis) <= 0.3
    ok = chk.passed and shape_ok
    note = "" if ok else "; sqrt(n log n) scaling converges at log rate, see README"
    line = _report(
        9,
        ok,
        f"KS={chk.ks_stat:.4f} vs critical {chk.ks_critical:.4f}, "
        f"skew={chk.skewness:.3f} (tol 0.15), excess kurt={chk.excess_kurtosis:.2f} "
        f"(tol 0.3){note}",
    )
    assert ok, line


def test_10_flat_kernel_closed_form():
    u = stream(1012, 0, "pareto").random(4 * 10**5)
    x = 4.0 * u**-2.0
    est = stable.c_alpha(
        1.0,
        0.5,
        x,
        tail_constant=2.0,
        kernel=stable.FlatKernel(),
        g_schedule=(0.25, 0.125),
        master_seed=1012,
    )
    z = abs(est.value - C_HALF) / est.se
    ok = z <= 3.0
    line = _report(
        10,
        ok,
        f"C(1)={est.value:.4f} vs Gamma(-1/2) e^(-i pi/4) = {C_HALF:.4f}, "
        f"z={z:.2f} (tol 3)",
    )
    assert ok, line


def test_11_thread_count_invariance(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CONFIG + "\n[experiment]\ncount = 40000\n")
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        rc = cli.main(
            ["simulate", "--config", str(cfg), "--seed", "5",
             "--out", str(out), "--threads", str(threads)]
        )
        assert rc == 0
        outs[threads] = (out / "samples.csv").read_bytes()
    ok = outs[1] == outs[8]
    line = _report(
        11, ok, f"samples.csv threads 1 vs 8: {len(outs[1])} bytes, identical={ok}"
    )
    assert ok, line


def test_12_component_suite_green():
    root = Path(__file__).resolve().parent.parent
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "tests", "-q",
            "--ignore=tests/test_acceptance.py", "-p", "no:cacheprovider",
        ],
        cwd=root,
        capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - t0
    tail_line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "?"
    ok = proc.returncode == 0
    line = _report(12, ok, f"component suite: {tail_line} ({wall:.0f}s)")
    if not ok:
        print(proc.stdout[-2000:])
        print(proc.stderr[-2000:])
    assert ok, line
