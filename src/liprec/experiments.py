"""Experiment runners behind the CLI verbs.

Each runner takes a parsed Config plus (out_dir, seed, threads), computes
its tables, writes CSV files with fixed headers, optionally SVG figures,
and returns the summary lines the CLI prints, each built beside the value
it shows. Each runner that samples the stationary law (all but
`cramer`) settles its draw with `_draw` before its stage opens: the
sampler, count, tol, max_depth and x0, with every refusal among them.
The stage draws it through `_Stage.backward`. `cramer`, `tail` and
`limit` likewise settle their Cramér problem with `_problem` and solve
it in the stage with `_solve`. Each stage appends one
JSON line to manifest.jsonl carrying its status (a failed stage adds
the exception class and message), the config digest, the seed, numpy's
version and SIMD dispatch, wall time, the stream layout (the backward
and forward block sizes, the forward steps per draw, the paired
difference chunk size and, for a stage that drew the stationary law,
its form: `exact`, `composite` or `replay`), a sha256 per output file,
for such a stage its stop depths and draws, and for `tail` the
report's flags. Config keys are read through `config.setting`: the
key table `config.KEYS` owns every parse, domain and error message, and
each default sits at the read that uses it.
All sampled stages draw from block-indexed streams, so the thread count
never changes an output byte.
"""

from __future__ import annotations

import collections
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
from .config import setting
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

    def backward(self, spec, draw, keep_bounds=False):
        """The stage's `chains.stationary_batch` of a `_Draw`, whose fields are
        its keywords; the engine form is recorded first, so a failed stage
        keeps it, and the stop depths and draws after."""
        self.layout["backward_form"] = chains.engine_form(spec, draw.sampler)
        batch = chains.stationary_batch(
            spec, master_seed=self.seed, threads=self.threads, keep_bounds=keep_bounds,
            **draw._asdict(),
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
    if models.FAMILY_TABLE[spec.family].outside is not None and all(
        rnd.atoms(law) is not None for law in spec.laws.values()
    ):
        models.theta_atoms(spec)  # refuses atoms with no tuple in the domain
    digest = cfgmod.config_digest(cfg, VERSION)
    if seed is None:
        seed = setting(cfg, "experiment", "seed", 0)
    os.makedirs(out_dir, exist_ok=True)
    return spec, digest, int(seed)


def _point_header(dim):
    return [f"x{i + 1}" for i in range(dim)]


def _point_columns(points):
    """Coordinate columns of a point array: (n,) or (n, d)."""
    pts = np.asarray(points)
    return [pts] if pts.ndim == 1 else list(pts.T)


# how a verb draws the stationary law, settled before its stage opens
_Draw = collections.namedtuple("_Draw", "sampler count tol max_depth x0")


def _draw(cfg, spec, count, forward=False):
    """[experiment] sampler, count (default `count`), tol, max_depth and x0.

    The sampler is the one given, else `exact` where the model admits an
    exact stationary draw and `backward` elsewhere. `exact` on a model
    that admits none is refused, and so is an `x0` under the exact
    sampler, which has no start point; x0 stays None, the origin, unless
    set. `forward` is refused unless the verb runs it (`simulate`).
    """
    sampler = setting(cfg, "experiment", "sampler", "")
    if sampler == "forward" and not forward:
        raise ConfigError("[experiment] sampler = forward runs only in simulate")
    if sampler == "exact" and (why := models.exact_refusal(spec)) is not None:
        raise ConfigError(f"[experiment] sampler = exact needs an exact stationary law: {why}")
    sampler = sampler or ("backward" if models.exact_refusal(spec) else "exact")
    x0 = setting(cfg, "experiment", "x0", length=spec.dimension)
    if x0 is not None and sampler == "exact":
        raise ConfigError(
            "[experiment] x0: the exact sampler has no start point; "
            "set sampler = backward to iterate from x0"
        )
    if x0 is not None:  # parsed as a tuple of floats
        x0 = x0[0] if spec.dimension == 1 else np.asarray(x0)
    return _Draw(
        sampler,
        setting(cfg, "experiment", "count", count),
        setting(cfg, "experiment", "tol", chains.DEFAULT_TOL),
        setting(cfg, "experiment", "max_depth", chains.DEFAULT_MAX_DEPTH),
        x0,
    )


# ---------------------------------------------------------------------------
# the Cramér problem, and assertion gates shared by tail and limit runs

# the Cramér problem a verb solves, settled before its stage opens
_Problem = collections.namedtuple("_Problem", "m_law alpha mode mc_samples bracket solver_tol")
_CLOSED_FORM_WHY = (
    "[experiment] mode = closed_form needs a law of |M|, and this model "
    "has none: its |M| moments are sampled from theta draws"
)


def _problem(cfg, spec, alpha=None):
    """The |M| law (None: |M| of theta draws), alpha (`alpha`, else
    [experiment] alpha; "solve" asks for the root), mode, mc_samples,
    bracket and solver_tol (None: the moment curve's own). `mode =
    closed_form` on a curve that would be sampled is refused here."""
    m_law = models.linear_scale_law(spec)
    mode = setting(cfg, "experiment", "mode", "auto")
    if mode == "closed_form" and m_law is None:
        raise ConfigError(_CLOSED_FORM_WHY)
    if mode == "closed_form" and rnd.abs_moment(m_law, 1.0) is None:
        cramer.require_sampling(mode, m_law.kind)
    return _Problem(
        m_law,
        setting(cfg, "experiment", "alpha", "solve") if alpha is None else alpha,
        mode,
        setting(cfg, "experiment", "mc_samples", rnd.DEFAULT_MC_SAMPLES),
        setting(cfg, "experiment", "bracket", (0.05, 8.0)),
        setting(cfg, "experiment", "solver_tol"),
    )


def _solve(problem, spec, seed):
    """(curve, alpha, m_alpha, tol): the `problem`'s `cramer.moment_curve`,
    its root to `tol` or the given alpha, and m_alpha read from the same
    curve (which refuses an alpha whose m_alpha is <= 0)."""
    curve = cramer.moment_curve(problem.m_law, problem.mode, seed, problem.mc_samples, spec)
    tol = curve.tol if problem.solver_tol is None else problem.solver_tol
    alpha = problem.alpha
    if alpha == "solve":
        alpha = cramer.solve_cramer(curve, problem.bracket, tol)
    return curve, float(alpha), float(curve.m_alpha(alpha)[0]), tol


def _atomic_scale_law(spec):
    """The law whose atoms bound |M|'s: the |M| law, or without one an
    atomic a, since |M| is a function of a in arch1 and sqrt_quadratic."""
    m_law = models.linear_scale_law(spec)
    return spec.laws["a"] if m_law is None and rnd.atoms(spec.laws["a"]) else m_law


def _require_nonarithmetic(cfg, spec):
    m_law = _atomic_scale_law(spec)
    if m_law is None:
        return
    if rnd.arithmetic_risk(m_law) and not setting(cfg, "assertions", "nonarithmetic", False):
        raise AssertionFlagError(
            "the scale law has at most two atoms and may generate an arithmetic "
            "subgroup; set [assertions] nonarithmetic = true to run tail or "
            "limit experiments on it"
        )


def _require_linearity(cfg, spec, pilot):
    """Gate on the pilot's support; `pilot()` is drawn only when checked."""
    if models.FAMILY_TABLE[spec.family].linear_maps:
        return
    x = np.asarray(pilot())
    if (x > 0).any() and (x < 0).any():
        if not setting(cfg, "assertions", "linear_on_support", False):
            raise AssertionFlagError(
                "the sampled stationary support is two-sided but this family's "
                "one-step maps are not linear on it; set [assertions] "
                "linear_on_support = true to run the limit experiment anyway"
            )


def _replicas_error(replicas, exc):
    """`exc`, an index fit's refusal, as an error that names [experiment] replicas."""
    return PreconditionError(f"[experiment] replicas = {replicas}: {exc}")


def _closed_center(spec):
    """E S for scalar models with linear maps (scale x + shift) and closed-form means."""
    if not models.FAMILY_TABLE[spec.family].linear_maps or spec.dimension != 1:
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
    problem = _problem(cfg, spec, alpha="solve")
    s_grid = setting(cfg, "experiment", "s_grid")
    if s_grid is None:
        s_grid = np.linspace(*problem.bracket, 25).tolist()
    with _Stage(out_dir, "cramer", digest, seed, threads) as st:
        curve, alpha, m_al, tol = _solve(problem, spec, seed)
        kappa, se = zip(*map(curve, s_grid))
        method = "closed_form" if curve.x is None else "monte_carlo"
        # every law kind has all moments finite, and so has every |M| built
        # from them, so the finite-moment range never ends
        s_inf = math.inf
        st.csv("cramer.csv", ["s", "kappa", "se"], [s_grid, kappa, se])
        st.csv(
            "cramer_solution.csv",
            ["alpha", "m_alpha", "s_infinity_lower_bound", "method", "solver_tolerance"],
            [[alpha], [m_al], [s_inf], [method], [float(tol)]],
        )
        if setting(cfg, "output", "svg", False):
            st.svg("kappa.svg", svgplots.kappa_plot, s_grid, kappa, alpha)
    return [
        f"alpha = {alpha:.6f} ({method}), m_alpha = {m_al:.6f}",
        f"finite-moment range extends past s = {s_inf:.3f}",
    ]


def run_simulate(cfg, out_dir, seed=None, threads=1):
    spec, digest, seed = _prologue(cfg, out_dir, seed)
    draw = _draw(cfg, spec, DEFAULT_COUNT, forward=True)
    dim = spec.dimension
    with _Stage(out_dir, "simulate", digest, seed, threads) as st:
        if draw.sampler != "forward":
            batch = st.backward(spec, draw, keep_bounds=True)
            columns = _point_columns(batch.samples) + [
                batch.stop_depths,
                batch.residual_bounds,
            ]
            header = _point_header(dim) + ["stop_depth", "residual_bound"]
        else:
            n = setting(cfg, "experiment", "n", 1024)
            pts = chains.forward_endpoints(spec, draw.x0, n, draw.count, seed, threads)
            columns = _point_columns(pts)
            header = _point_header(dim)
        st.csv("samples.csv", header, columns)
    return [f"wrote {len(columns[0])} samples"]


def run_tail(cfg, out_dir, seed=None, threads=1):
    spec, digest, seed = _prologue(cfg, out_dir, seed)
    _require_nonarithmetic(cfg, spec)
    t_points = setting(cfg, "experiment", "t_points", tails.DEFAULT_T_POINTS)
    hill_points = setting(cfg, "experiment", "hill_points", tails.DEFAULT_HILL_POINTS)
    draw = _draw(cfg, spec, DEFAULT_COUNT)
    problem = _problem(cfg, spec)
    with _Stage(out_dir, "tail", digest, seed, threads) as st:
        _, alpha, m_al, _ = _solve(problem, spec, seed)
        # only the samples: the stop depths are freed before the report
        samples = st.backward(spec, draw).samples
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
        if setting(cfg, "output", "svg", False):
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
    n = setting(cfg, "experiment", "n")
    replicas = setting(cfg, "experiment", "replicas")
    center = setting(cfg, "experiment", "center", "auto")
    draw = _draw(cfg, spec, DEFAULT_COUNT)
    problem = _problem(cfg, spec)
    with _Stage(out_dir, "limit", digest, seed, threads) as st:
        # refusals that need no pilot or chain come before either is drawn;
        # m_alpha goes unused, but `_solve` refuses an alpha whose m_alpha <= 0
        _, alpha, _, _ = _solve(problem, spec, seed)
        regime = stable.limit_params(alpha).regime
        stable.require_normalizable(n, regime)
        try:
            stable.require_fit_samples(replicas)
        except PreconditionError as exc:
            raise _replicas_error(replicas, exc) from None

        @functools.cache
        def pilot():
            # drawn on first use: a closed-form center needs no pilot
            return st.backward(spec, draw).samples

        _require_linearity(cfg, spec, pilot)
        if regime not in ("mid", "eq2"):
            center = 0.0
        elif isinstance(center, str):
            closed = _closed_center(spec) if center == "auto" else None
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
            raise _replicas_error(replicas, exc) from None
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
        if setting(cfg, "output", "svg", False):
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
    cloud_depth = setting(cfg, "experiment", "max_cloud_depth", 12)
    epsilon = setting(cfg, "experiment", "epsilon", 1e-6)
    word_guard = setting(cfg, "experiment", "word_guard", support.WORD_GUARD)
    draw = _draw(cfg, spec, 10000)
    dim = spec.dimension
    with _Stage(out_dir, "support", digest, seed, threads) as st:
        cloud = support.enumerate_fixed_points(spec, cloud_depth, word_guard=word_guard)
        samples = st.backward(spec, draw).samples
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
        if setting(cfg, "output", "svg", False) and dim <= 2:
            st.svg("cloud.svg", svgplots.cloud_plot, cloud.points)
    return [
        f"cloud size {len(cloud.points)}, coverage "
        f"{cov.fraction_covered:.4f} at epsilon {cov.epsilon:g}",
        f"frontier escape {frontier:.4f}",
    ]


def run_check(cfg, out_dir, seed=None, threads=1):
    spec, digest, seed = _prologue(cfg, out_dir, seed)
    n_theta = setting(cfg, "experiment", "mc_samples", 100000)
    s_grid = setting(cfg, "experiment", "s_grid", (0.25, 0.5, 1.0, 2.0))
    draw = _draw(cfg, spec, 4096)
    with _Stage(out_dir, "check", digest, seed, threads) as st:
        rng = stream(seed, 0, "check")
        reports = [cramer.check_contraction(spec, n_theta, rng)]
        # maps that surely do not contract (E log L - 3 se >= 0) have no
        # stationary law to draw: skip the probes that read its samples
        if not reports[0].value - 3 * reports[0].se >= 0:
            samples = st.backward(spec, draw).samples
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
        atomic = _atomic_scale_law(spec)
        if atomic is not None:
            risk = rnd.arithmetic_risk(atomic)
            reports.append(
                cramer.CheckReport(
                    name="nonarithmetic_scale",
                    value=float(rnd.atom_count(atomic) or -1),
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
