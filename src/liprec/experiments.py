"""Experiment runners behind the CLI verbs.

Each runner takes a parsed Config plus (out_dir, seed, threads), computes
its tables, writes CSV files with fixed headers, optionally SVG figures,
and returns the summary lines the CLI prints, each built beside the value
it shows. A stage that samples the stationary law draws it through
`_Stage.backward`. Each stage appends one JSON line to manifest.jsonl
carrying its status (a failed stage adds the exception class and
message), the config digest, the seed, numpy's version and SIMD
dispatch, wall time, the stream layout (the backward and forward block
sizes, the forward steps per draw, the paired-difference chunk size
and, for a stage that ran the backward sampler, its form: `composite`
or `replay`), a sha256 per output file, for a stage that ran the
backward sampler its stop depths and draws, and for `tail` the
report's flags. Config keys are read through the typed getters of
`config`, which own every lookup, default and error message.
All sampled stages draw from block-indexed streams, so the thread count
never changes an output byte.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import time

import numpy as np

from . import chains, cramer, models, stable, support, svgplots, tails
from . import config as cfgmod
from . import randomness as rnd
from ._version import VERSION
from .config import get_bool, get_float, get_floats, get_int, get_str
from .errors import AssertionFlagError, ConfigError, LiprecError, PreconditionError
from .randomness import stream

DEFAULT_COUNT = 65536
# Rows formatted and written at a time. A chunk's row strings are held at
# once; 1 << 16 rows raised a 4e5-row run's peak RSS by about 7%.
_CSV_CHUNK = 1 << 13


def _fmt(v):
    """One cell as text. Numbers and bools never need quoting; other text
    gets csv's minimal quoting (a check detail may hold a comma)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return _quoted(str(v))


def _quoted(text):
    """`text` as csv.writer writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]  # drop the empty last field and the newline


def _cells(column):
    """One column chunk as strings, the same strings _fmt gives per cell."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return map(repr, column.tolist())
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return map(str, column.tolist())
    return map(_fmt, column)


def _csv_text(header, columns):
    """The table's text: the header line, then _CSV_CHUNK rows at a time."""
    n = len(columns[0]) if columns else 0
    yield ",".join(map(_fmt, header)) + "\n"
    for lo in range(0, n, _CSV_CHUNK):
        rows = zip(*(_cells(c[lo:lo + _CSV_CHUNK]) for c in columns))
        yield "\n".join(map(",".join, rows)) + "\n"


def write_csv(out_dir, name, header, columns):
    """Write a table given column by column and return its sha256.

    Floats use repr for exact round-trips and byte-stable output. Rows
    are formatted and written _CSV_CHUNK at a time, and the sha256 is
    taken from the bytes as they are written.
    """
    digest = hashlib.sha256()
    with open(os.path.join(out_dir, name), "wb") as fh:
        for text in _csv_text(header, list(columns)):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _numpy_build():
    """numpy's version and the SIMD targets it dispatches to on this CPU.

    numpy picks kernels such as its vector `exp` by CPU at run time, so
    these explain a last-bit difference between two machines' outputs.
    The extension module is loaded with numpy itself.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "version": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_found": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
    }


def _append_manifest(out_dir, record):
    with open(os.path.join(out_dir, "manifest.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


class _Stage:
    """Times a stage and logs its outputs to the manifest, failed or not."""

    def __init__(self, out_dir, name, digest, seed, threads):
        self.out_dir = out_dir
        self.name = name
        self.digest = digest
        self.seed = seed
        self.threads = threads
        self.outputs = {}
        self.extra = {}  # further manifest entries, such as "backward"
        # which bit generator, block and chunk sizes, and for a backward
        # stage which engine form, wrote the sampled outputs
        self.layout = {
            "bit_generator": rnd.BIT_GENERATOR.__name__,
            "backward_block": chains.BLOCK_SIZE,
            "forward_block": chains.FORWARD_BLOCK,
            "forward_steps": chains.FORWARD_STEPS,
            "pair_chunk": tails._PAIR_CHUNK,
        }

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def csv(self, name, header, columns):
        self.outputs[name] = write_csv(self.out_dir, name, header, columns)

    def svg(self, name, plot, *args):
        """Write `plot(path, *args)` and record the sha256 it returns."""
        self.outputs[name] = plot(os.path.join(self.out_dir, name), *args)

    def backward(self, spec, count, tol, **kw):
        """The stage's backward batch, its stop depths and draws recorded."""
        self.layout["backward_form"] = "replay" if models.composite(spec) is None else "composite"
        batch = chains.stationary_batch(
            spec, count, tol=tol, master_seed=self.seed, threads=self.threads, **kw
        )
        self.extra["backward"] = batch.draw_counters()
        return batch

    def __exit__(self, exc_type, exc, tb):
        record = {
            "stage": self.name,
            "status": "ok" if exc_type is None else "failed",
            "config_digest": self.digest,
            "seed": self.seed,
            "threads": self.threads,
            "version": VERSION,
            "numpy": _numpy_build(),
            "wall_s": round(time.perf_counter() - self.t0, 6),
            "stream_layout": self.layout,
            "outputs": self.outputs,
            **self.extra,
        }
        if exc_type is not None:
            record["error_type"] = exc_type.__name__
            record["error"] = str(exc)
            if isinstance(exc, LiprecError):
                record["exit_code"] = exc.exit_code  # what the CLI exits with
        _append_manifest(self.out_dir, record)
        return False


def _prologue(cfg, out_dir, seed):
    spec = cfgmod.build_model(cfg)
    digest = cfgmod.config_digest(cfg, VERSION)
    if seed is None:
        seed = get_int(cfg, "experiment", "seed", default=0)
    os.makedirs(out_dir, exist_ok=True)
    return spec, digest, int(seed)


def _point_header(dim):
    return [f"x{i + 1}" for i in range(dim)]


def _point_columns(points):
    """Coordinate columns of a point array: (n,) or (n, d)."""
    pts = np.asarray(points)
    return [pts] if pts.ndim == 1 else list(pts.T)


def _want_svg(cfg):
    return get_bool(cfg, "output", "svg", default=False)


# ---------------------------------------------------------------------------
# alpha resolution and assertion gates shared by tail and limit runs


def _positive(key, value):
    """`value` of [experiment] `key`, which must be positive."""
    if value is not None and not value > 0:
        raise ConfigError(f"[experiment] {key} must be positive, got {value}")
    return value


def _moment_settings(cfg):
    """The root bracket, moment mode, Monte Carlo sample count and solver
    tolerance (None: the moment curve's own)."""
    bracket = get_floats(cfg, "experiment", "bracket", (0.05, 8.0), length=2)
    mode = get_str(cfg, "experiment", "mode", default="auto")
    n_samples = _positive(
        "mc_samples", get_int(cfg, "experiment", "mc_samples", default=rnd.DEFAULT_MC_SAMPLES)
    )
    tol = _positive("solver_tol", get_float(cfg, "experiment", "solver_tol"))
    return bracket, mode, n_samples, tol


def _resolve_alpha(cfg, spec, seed):
    """(alpha, m_alpha) from config: an explicit alpha or the solved root.

    The root and m_alpha read one moment curve, drawn (when sampled) from
    the `(seed, 0, "moments")` stream as `cramer.cramer_report` draws it,
    so `tail` and `limit` report `cramer`'s numbers. Without an |M| law
    the curve is |M| of theta draws on that stream.
    """
    text = get_str(cfg, "experiment", "alpha", default="solve")
    m_law = models.linear_scale_law(spec)
    bracket, mode, n_samples, tol = _moment_settings(cfg)
    if text != "solve":
        try:
            alpha = float(text)
        except ValueError:
            raise ConfigError(
                f"[experiment] alpha must be a number or 'solve', got {text!r}"
            ) from None
    elif m_law is None:
        raise ConfigError("no representable scale law for this model; set alpha explicitly")
    rng = stream(seed, 0, "moments")
    if m_law is not None:
        curve = cramer.moments(m_law, mode, rng, n_samples)
    else:
        # the families without an |M| law, sqrt_quadratic and arch1, read
        # |M| from the law of a, so a sampled curve is the only one
        cramer.require_sampling(mode, spec.laws["a"].kind)
        th = models.sample_theta(spec, rng, n_samples)
        curve = cramer.Moments(x=np.asarray(models.m_scale(spec, th), dtype=float))
    if text == "solve":
        alpha = cramer.solve_cramer(curve, bracket, tol)
    m_al, _ = curve.m_alpha(alpha)
    return float(alpha), float(m_al)


def _require_nonarithmetic(cfg, spec):
    m_law = models.linear_scale_law(spec)
    if m_law is None:
        return
    if rnd.arithmetic_risk(m_law) and not get_bool(cfg, "assertions", "nonarithmetic"):
        raise AssertionFlagError(
            "the scale law has at most two atoms and may generate an arithmetic "
            "subgroup; set [assertions] nonarithmetic = true to run tail or "
            "limit experiments on it"
        )


def _require_linearity(cfg, spec, pilot):
    """Gate on the pilot's support; `pilot()` is drawn only when checked."""
    if spec.family == "affine":
        return
    x = np.asarray(pilot())
    if (x > 0).any() and (x < 0).any():
        if not get_bool(cfg, "assertions", "linear_on_support"):
            raise AssertionFlagError(
                "the sampled stationary support is two-sided but this family's "
                "one-step maps are not linear on it; set [assertions] "
                "linear_on_support = true to run the limit experiment anyway"
            )


def _closed_center(spec):
    """E S for scalar affine models with closed-form means, else None."""
    if spec.family != "affine" or spec.dimension != 1:
        return None
    em = rnd.signed_mean(spec.laws["scale"])
    en = rnd.signed_mean(spec.laws["shift"])
    if em is None or en is None or not abs(em) < 1:
        return None
    return en / (1.0 - em)


# ---------------------------------------------------------------------------
# the six runners


def run_cramer(cfg, out_dir, seed=None, threads=1):
    spec, digest, seed = _prologue(cfg, out_dir, seed)
    m_law = models.linear_scale_law(spec)
    if m_law is None:
        raise ConfigError("no representable scale law; the moment curve needs one")
    bracket, mode, n_samples, tol = _moment_settings(cfg)
    s_grid = get_floats(cfg, "experiment", "s_grid", default=None)
    if s_grid is None:
        s_grid = tuple(np.linspace(bracket[0], bracket[1], 25))
    with _Stage(out_dir, "cramer", digest, seed, threads) as st:
        rep = cramer.cramer_report(
            m_law,
            s_grid,
            bracket,
            tol=tol,
            mode=mode,
            master_seed=seed,
            n_samples=n_samples,
        )
        st.csv("cramer.csv", ["s", "kappa", "se"], [rep.s_grid, rep.kappa_values, rep.kappa_se])
        st.csv(
            "cramer_solution.csv",
            ["alpha", "m_alpha", "s_infinity_lower_bound", "method", "solver_tolerance"],
            [
                [rep.alpha],
                [rep.m_alpha],
                [rep.s_infinity_lower_bound],
                [rep.method],
                [rep.solver_tolerance],
            ],
        )
        if _want_svg(cfg):
            st.svg("kappa.svg", svgplots.kappa_plot, rep.s_grid, rep.kappa_values, rep.alpha)
    return [
        f"alpha = {rep.alpha:.6f} ({rep.method}), m_alpha = {rep.m_alpha:.6f}",
        f"finite-moment range extends past s = {rep.s_infinity_lower_bound:.3f}",
    ]


def run_simulate(cfg, out_dir, seed=None, threads=1):
    spec, digest, seed = _prologue(cfg, out_dir, seed)
    count = get_int(cfg, "experiment", "count", default=DEFAULT_COUNT)
    tol = get_float(cfg, "experiment", "tol", default=chains.DEFAULT_TOL)
    max_depth = get_int(cfg, "experiment", "max_depth", default=chains.DEFAULT_MAX_DEPTH)
    mode = get_str(cfg, "experiment", "sampler", default="backward")
    dim = spec.dimension
    x0_cfg = get_floats(cfg, "experiment", "x0", length=dim)
    x0 = models.zero_point(spec) if x0_cfg is None else (
        float(x0_cfg[0]) if dim == 1 else np.asarray(x0_cfg, dtype=float)
    )
    with _Stage(out_dir, "simulate", digest, seed, threads) as st:
        if mode == "backward":
            batch = st.backward(spec, count, tol, max_depth=max_depth, x0=x0)
            columns = _point_columns(batch.samples) + [
                batch.stop_depths,
                batch.residual_bounds,
            ]
            header = _point_header(dim) + ["stop_depth", "residual_bound"]
        else:
            n = get_int(cfg, "experiment", "n", default=1024)
            pts = chains.forward_endpoints(spec, x0, n, count, seed, threads)
            columns = _point_columns(pts)
            header = _point_header(dim)
        st.csv("samples.csv", header, columns)
    return [f"wrote {len(columns[0])} samples"]


def run_tail(cfg, out_dir, seed=None, threads=1):
    spec, digest, seed = _prologue(cfg, out_dir, seed)
    _require_nonarithmetic(cfg, spec)
    count = get_int(cfg, "experiment", "count", default=DEFAULT_COUNT)
    tol = get_float(cfg, "experiment", "tol", default=chains.DEFAULT_TOL)
    t_points = _positive(
        "t_points", get_int(cfg, "experiment", "t_points", default=tails.DEFAULT_T_POINTS)
    )
    hill_points = _positive(
        "hill_points", get_int(cfg, "experiment", "hill_points", default=tails.DEFAULT_HILL_POINTS)
    )
    with _Stage(out_dir, "tail", digest, seed, threads) as st:
        alpha, m_al = _resolve_alpha(cfg, spec, seed)
        # only the samples: the depths and bounds are freed before the report
        samples = st.backward(spec, count, tol).samples
        rep = tails.tail_report(
            spec, samples, alpha, m_al, master_seed=seed,
            t_points=t_points, hill_points=hill_points,
        )
        st.extra["tail"] = {"flags": list(rep.flags)}
        st.csv("tail_survival.csv", ["t", "p_hat", "t_alpha_p"], zip(*rep.survival))
        st.csv("hill.csv", ["k", "alpha_hat"], zip(*rep.hill))
        st.csv(
            "goldie.csv",
            ["C", "se", "alpha", "m_alpha"],
            [[rep.goldie.constant], [rep.goldie.se], [rep.alpha], [rep.m_alpha]],
        )
        if _want_svg(cfg):
            st.svg(
                "survival.svg", svgplots.survival_plot, rep.survival, alpha, rep.goldie.constant
            )
            st.svg("hill.svg", svgplots.hill_plot, rep.hill, alpha)
    return [
        f"alpha = {rep.alpha:.6f}, tail constant C = "
        f"{rep.goldie.constant:.6f} +/- {rep.goldie.se:.2g}",
        f"plateau deviation {rep.plateau_deviation:.4f}",
    ] + [f"note: {f}" for f in rep.flags]


def run_limit(cfg, out_dir, seed=None, threads=1):
    spec, digest, seed = _prologue(cfg, out_dir, seed)
    if spec.dimension != 1:
        raise ConfigError("the limit experiment is one-dimensional")
    _require_nonarithmetic(cfg, spec)
    n = get_int(cfg, "experiment", "n")
    replicas = get_int(cfg, "experiment", "replicas")
    count = get_int(cfg, "experiment", "count", default=DEFAULT_COUNT)
    tol = get_float(cfg, "experiment", "tol", default=chains.DEFAULT_TOL)
    center_text = get_str(cfg, "experiment", "center", default="auto")
    with _Stage(out_dir, "limit", digest, seed, threads) as st:
        alpha, m_al = _resolve_alpha(cfg, spec, seed)

        @functools.cache
        def pilot():
            # drawn on first use: a closed-form center needs no pilot
            return st.backward(spec, count, tol).samples

        _require_linearity(cfg, spec, pilot)
        center = None  # a number, or None for 'auto' and 'stationary_mean'
        if center_text not in ("auto", "stationary_mean"):
            try:
                center = float(center_text)
            except ValueError:
                raise ConfigError(
                    f"[experiment] center must be a number, 'auto' or "
                    f"'stationary_mean', got {center_text!r}"
                ) from None
        if stable.limit_params(alpha).regime not in ("mid", "eq2"):
            center = 0.0
        elif center is None:
            closed = _closed_center(spec) if center_text == "auto" else None
            center = float(pilot().mean()) if closed is None else closed
        params = stable.limit_params(alpha, center)
        sums = chains.birkhoff_sums(
            spec, models.zero_point(spec), n, replicas, seed, threads=threads
        )
        xi_value = stable.xi(1.0 / n, pilot()) if params.regime == "eq1" else None
        norm = stable.normalize_birkhoff(sums, n, params, xi_value)
        st.csv("limit_samples.csv", ["replica", "value"], [np.arange(len(norm)), norm])
        # the fit's window is the CF grid in both regimes
        try:
            fit = stable.stable_index_fit(norm)
        except PreconditionError as exc:
            raise PreconditionError(f"[experiment] replicas = {replicas}: {exc}") from None
        lines = [f"regime {params.regime}, alpha = {alpha:.6f}"]
        if params.regime == "eq2":
            chk = stable.gaussian_check(norm)
            shown = (None, None)  # a Gaussian limit gets no fitted line
            fit_rows = [
                ("ks_stat", chk.ks_stat),
                ("ks_critical", chk.ks_critical),
                ("skewness", chk.skewness),
                ("excess_kurtosis", chk.excess_kurtosis),
                ("passed", chk.passed),
            ]
            lines.append(
                f"KS {chk.ks_stat:.5f} vs critical {chk.ks_critical:.5f}, "
                f"skew {chk.skewness:.4f}, excess kurtosis {chk.excess_kurtosis:.4f}"
            )
        else:
            shown = (fit.alpha_hat, fit.intercept)
            fit_rows = [
                ("alpha_hat", fit.alpha_hat),
                ("intercept", fit.intercept),
                ("window_lo", float(fit.t_values[0])),
                ("window_hi", float(fit.t_values[-1])),
            ]
            lines.append(f"index fit alpha_hat = {fit.alpha_hat:.4f}")
        st.csv("limit_fit.csv", ["statistic", "value"], zip(*fit_rows))
        cf_rows = stable.empirical_cf(norm, fit.t_values)
        st.csv("cf.csv", ["t", "v_index", "re", "im", "se"], zip(*cf_rows))
        if _want_svg(cfg):
            st.svg(
                "cf.svg",
                svgplots.cf_plot,
                [r[0] for r in cf_rows],
                [math.hypot(r[2], r[3]) for r in cf_rows],
                *shown,
            )
            if params.regime == "eq2":
                st.svg("qq.svg", svgplots.qq_plot, norm)
    return lines


def run_support(cfg, out_dir, seed=None, threads=1):
    spec, digest, seed = _prologue(cfg, out_dir, seed)
    max_depth = get_int(cfg, "experiment", "max_cloud_depth", default=12)
    epsilon = get_float(cfg, "experiment", "epsilon", default=1e-6)
    count = get_int(cfg, "experiment", "count", default=10000)
    tol = get_float(cfg, "experiment", "tol", default=chains.DEFAULT_TOL)
    word_guard = get_int(cfg, "experiment", "word_guard", default=support.WORD_GUARD)
    dim = spec.dimension
    with _Stage(out_dir, "support", digest, seed, threads) as st:
        cloud = support.enumerate_fixed_points(spec, max_depth, word_guard=word_guard)
        samples = st.backward(spec, count, tol).samples
        cov = support.coverage_check(cloud, samples, epsilon)
        frontier = support.closure_frontier(spec, cloud)
        st.csv(
            "support.csv",
            _point_header(dim) + ["depth"],
            _point_columns(cloud.points) + [cloud.depths],
        )
        st.csv(
            "support_coverage.csv",
            ["fraction_covered", "max_distance", "epsilon", "count", "frontier_escape"],
            [
                [cov.fraction_covered],
                [cov.max_distance],
                [cov.epsilon],
                [cov.count],
                [frontier],
            ],
        )
        if _want_svg(cfg) and dim <= 2:
            st.svg("cloud.svg", svgplots.cloud_plot, cloud.points)
    return [
        f"cloud size {len(cloud.points)}, coverage "
        f"{cov.fraction_covered:.4f} at epsilon {cov.epsilon:g}",
        f"frontier escape {frontier:.4f}",
    ]


def run_check(cfg, out_dir, seed=None, threads=1):
    spec, digest, seed = _prologue(cfg, out_dir, seed)
    n_theta = _positive("mc_samples", get_int(cfg, "experiment", "mc_samples", default=100000))
    count = get_int(cfg, "experiment", "count", default=4096)
    tol = get_float(cfg, "experiment", "tol", default=chains.DEFAULT_TOL)
    with _Stage(out_dir, "check", digest, seed, threads) as st:
        rng = stream(seed, 0, "check")
        reports = [cramer.check_contraction(spec, n_theta, rng)]
        samples = st.backward(spec, count, tol).samples
        reports.append(cramer.check_cancellation(spec, samples, 256, rng))
        radii = models.radius(spec, samples)
        x_hi = float(np.quantile(radii, 0.9)) + 1.0
        x_grid = np.linspace(0.0, x_hi, 5)
        d = spec.dimension
        if d > 1:  # the same radii along each coordinate axis: (5 d, d) points
            x_grid = np.concatenate([np.outer(x_grid, axis) for axis in np.eye(d)])
        t_grid = np.linspace(0.25, 1.0, 4)
        reports.append(cramer.check_smoothness(spec, x_grid, t_grid, 256, rng))
        m_law = models.linear_scale_law(spec)
        n_law = models.cancellation_law(spec)
        if m_law is not None and n_law is not None:
            s_grid = get_floats(cfg, "experiment", "s_grid", default=(0.25, 0.5, 1.0, 2.0))
            rows, bounded = cramer.nontriviality_probe(
                n_law, m_law, s_grid, rng=rng, n_samples=n_theta
            )
            reports.append(
                cramer.CheckReport(
                    name="moment_ratio_bounded",
                    value=rows[-1][2],
                    se=0.0,
                    passed=bool(bounded),
                    detail=f"root at s={rows[-1][0]:g}",
                )
            )
        if m_law is not None:
            risk = rnd.arithmetic_risk(m_law)
            reports.append(
                cramer.CheckReport(
                    name="nonarithmetic_scale",
                    value=float(rnd.atom_count(m_law) or -1),
                    se=0.0,
                    passed=not risk,
                    detail="atom count; -1 means continuous",
                )
            )
        st.csv(
            "check.csv",
            ["name", "value", "se", "passed", "detail"],
            zip(*[(r.name, r.value, r.se, r.passed, r.detail) for r in reports]),
        )
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: value {r.value:.6g}" for r in reports]
    lines.append("all checks passed" if all(r.passed for r in reports) else "some checks failed")
    return lines


RUNNERS = {
    "cramer": run_cramer,
    "simulate": run_simulate,
    "tail": run_tail,
    "limit": run_limit,
    "support": run_support,
    "check": run_check,
}
