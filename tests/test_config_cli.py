import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import liprec
from liprec import chains, cli, config, experiments, tails
from liprec._version import VERSION
from liprec.errors import ConfigError

LETAC_MODEL = """\
[model]
family = letac

[distributions.a]
kind = discrete
atoms = 0.3333333333333333, 2.0
weights = 0.75, 0.25

[distributions.b]
kind = constant
params = 0.5

[distributions.c]
kind = constant
params = -1.0
"""

BENCH_MODEL = """\
[model]
family = extremal

[distributions.a]
kind = lognormal
params = -0.75, 1.0

[distributions.b]
kind = constant
params = 1.0
"""

AFFINE_ALPHA2_MODEL = """\
[model]
family = affine

[distributions.scale]
kind = lognormal
params = -1.0, 1.0

[distributions.shift]
kind = constant
params = 1.0
"""

TWO_SIDED_LETAC_MODEL = """\
[model]
family = letac

[distributions.a]
kind = lognormal
params = -0.75, 1.0

[distributions.b]
kind = constant
params = 0.0

[distributions.c]
kind = normal
params = 0.0, 1.0
"""


AFFINE_2D_MODEL = """\
[model]
family = affine
dimension = 2

[distributions.scale]
kind = constant
params = 0.5

[distributions.angle]
kind = constant
params = 1.0

[distributions.shift_1]
kind = constant
params = 1.0

[distributions.shift_2]
kind = constant
params = 0.0
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run(argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# parser behavior


def test_parse_sections_and_comments(tmp_path):
    text = LETAC_MODEL + "\n[experiment]\nalpha = solve  # solve it\n"
    cfg = config.parse_config(text, "p.cfg")
    assert cfg.experiment["alpha"].text == "solve"
    assert set(cfg.distributions) == {"a", "b", "c"}


@pytest.mark.parametrize(
    "text, needle",
    [
        ("[nosuch]\n", ":1: unknown section"),
        ("[model]\nFamily = x\n", ":2: bad key name"),
        ("[model]\nfamily = a\nfamily = b\n", ":3: duplicate key"),
        ("family = letac\n", ":1: key outside any [section]"),
        ("[model]\nfamily letac\n", ":2: expected key = value"),
        ("[distributions.BAD]\n", ":1: bad section header"),
        ("[distributions.a.b]\n", ":1: bad parameter name"),
        ("[experiment]\nseed = 1\nmode = montecarlo\n", ":3: [experiment] mode: expected one of"),
        ("[experiment]\nsampler = fwd\n", ":2: [experiment] sampler: expected one of"),
    ],
)
def test_parse_errors_carry_line_numbers(text, needle):
    with pytest.raises(ConfigError) as exc:
        config.parse_config(text, "p.cfg")
    assert needle in str(exc.value)
    assert str(exc.value).startswith("p.cfg:")


def test_build_model_reports_bad_values(tmp_path):
    bad = LETAC_MODEL.replace("kind = constant", "kind = nosuchkind", 1)
    cfg = config.parse_config(bad, "p.cfg")
    with pytest.raises(ConfigError):
        config.build_model(cfg)


def test_typed_getters(tmp_path):
    cfg = config.parse_config(
        "[experiment]\nn = 12\nrate = 0.5\nflag = true\ngrid = 1, 2.5\nname = abc\n"
    )
    assert config.get_int(cfg, "experiment", "n") == 12
    assert config.get_float(cfg, "experiment", "rate") == 0.5
    assert config.get_bool(cfg, "experiment", "flag") is True
    assert config.get_floats(cfg, "experiment", "grid") == (1.0, 2.5)
    assert config.get_str(cfg, "experiment", "name") == "abc"
    assert config.get_int(cfg, "experiment", "missing", default=7) == 7
    assert config.get_bool(cfg, "experiment", "missing") is False
    assert config.get_bool(cfg, "experiment", "missing", default=True) is True
    assert config.get_floats(cfg, "experiment", "missing") is None
    assert config.get_floats(cfg, "experiment", "missing", (1.0, 2.0), length=2) == (1.0, 2.0)
    assert config.get_floats(cfg, "experiment", "grid", length=2) == (1.0, 2.5)
    with pytest.raises(ConfigError, match="missing required key"):
        config.get_int(cfg, "experiment", "missing")
    with pytest.raises(ConfigError):
        config.get_int(cfg, "experiment", "rate")
    with pytest.raises(ConfigError) as exc:
        config.get_str(cfg, "experiment", "gone")
    assert str(exc.value) == "<config>: [experiment] missing required key 'gone'"
    bad = config.parse_config(
        "[experiment]\nflag = yes\nrate = fast\ngrid = 1, x\nthree = 1, 2, 3\n", "b.cfg"
    )
    for getter, key, why in [
        (config.get_bool, "flag", ":2: [experiment] flag: expected true or false, got 'yes'"),
        (config.get_float, "rate", ":3: [experiment] rate: not a number: 'fast'"),
        (config.get_floats, "grid", ":4: [experiment] grid: not a comma list of numbers: '1, x'"),
    ]:
        with pytest.raises(ConfigError) as exc:
            getter(bad, "experiment", key)
        assert str(exc.value) == "b.cfg" + why
    with pytest.raises(ConfigError) as exc:
        config.get_floats(bad, "experiment", "three", length=2)
    assert str(exc.value) == "b.cfg:5: [experiment] three: expected 2 number(s), got 3"


def test_config_digest_semantics():
    a = config.parse_config(LETAC_MODEL)
    same = config.parse_config("# a comment\n" + LETAC_MODEL.replace(" = ", "="))
    b = config.parse_config(LETAC_MODEL.replace("0.75", "0.7"))
    assert config.config_digest(a, VERSION) == config.config_digest(same, VERSION)
    assert config.config_digest(a, VERSION) != config.config_digest(b, VERSION)
    assert config.config_digest(a, VERSION) != config.config_digest(a, "other-version")


# ---------------------------------------------------------------------------
# CLI exit codes


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["--version"])
    assert exc.value.code == 0
    assert VERSION in capsys.readouterr().out


def test_cli_bad_config_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "[model]\nfamily = nosuch\n")
    assert _run(["cramer", "--config", path, "--out", tmp_path]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_unreadable_config_exits_2(tmp_path, capsys):
    absent = tmp_path / "absent.cfg"
    assert _run(["cramer", "--config", absent, "--out", tmp_path]) == 2


DISCRETE_AFFINE = """\
[model]
family = affine

[distributions.scale]
kind = discrete
atoms = 0.3333333333333333, 2.0
weights = 0.75, 0.25

[distributions.shift]
kind = constant
params = 1.0
"""


def test_cli_assertion_gate_exits_5(tmp_path, capsys):
    # two-atom scale law: tail analysis demands the nonarithmetic flag
    path = _write(tmp_path, DISCRETE_AFFINE + "\n[experiment]\ncount = 20000\n")
    out = tmp_path / "t5"
    assert _run(["tail", "--config", path, "--out", out]) == 5
    err = capsys.readouterr().err
    assert "nonarithmetic" in err

    flagged = DISCRETE_AFFINE + (
        "\n[experiment]\ncount = 20000\n\n[assertions]\nnonarithmetic = true\n"
    )
    path = _write(tmp_path, flagged, name="flagged.cfg")
    assert _run(["tail", "--config", path, "--out", out]) == 0


def test_cli_tail_degenerate_support_fails_cleanly(tmp_path, capsys):
    # the two-point stationary law has no tail: the flagged run must
    # stop with a clear diagnostic instead of fabricating a plateau
    path = _write(
        tmp_path,
        LETAC_MODEL
        + "\n[experiment]\ncount = 2000\n\n[assertions]\nnonarithmetic = true\n",
    )
    assert _run(["tail", "--config", path, "--out", tmp_path / "o"]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_cli_bracket_failure_exits_3(tmp_path, capsys):
    text = BENCH_MODEL + "\n[experiment]\nbracket = 0.05, 0.2\n"
    path = _write(tmp_path, text)
    assert _run(["cramer", "--config", path, "--out", tmp_path / "t3"]) == 3
    assert "bracket" in capsys.readouterr().err


def test_cli_mode_typo_fails_before_any_output(tmp_path, capsys):
    text = BENCH_MODEL + "\n[experiment]\nmode = montecarlo\n"
    path = _write(tmp_path, text)
    out = tmp_path / "typo"
    assert _run(["cramer", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{path}:13: [experiment] mode: expected one of" in err
    assert "'montecarlo'" in err
    assert not (out / "cramer.csv").exists()


@pytest.mark.parametrize(
    "verb, model, setting",
    [
        ("cramer", BENCH_MODEL, "bracket = 1.0"),
        ("tail", BENCH_MODEL, "bracket = 1.0"),
        ("limit", BENCH_MODEL, "bracket = 1.0"),
        ("cramer", BENCH_MODEL, "bracket = 0.5, 3.0, 4.0"),
        ("simulate", BENCH_MODEL, "x0 ="),
        ("simulate", BENCH_MODEL, "x0 = 1, 2"),
        ("simulate", AFFINE_2D_MODEL, "x0 = 1"),
    ],
)
def test_cli_wrong_length_vector_exits_2(tmp_path, capsys, verb, model, setting):
    text = model + "\n[experiment]\nn = 64\nreplicas = 64\ncount = 64\n" + setting + "\n"
    path = _write(tmp_path, text)
    line = text.splitlines().index(setting) + 1
    key = setting.split()[0]
    assert _run([verb, "--config", path, "--out", tmp_path / "o"]) == 2
    assert f"{path}:{line}: [experiment] {key}: expected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, model, setting, needle",
    [
        ("limit", AFFINE_ALPHA2_MODEL, "alpha = 1.5\nn = 64\nreplicas = 0", "replicas = 0"),
        ("limit", AFFINE_ALPHA2_MODEL, "alpha = 1.5\nn = 64\nreplicas = -1", "replicas = -1"),
        ("limit", AFFINE_ALPHA2_MODEL, "alpha = 1.5\nn = 0\nreplicas = 64", "n = 0, replicas"),
        ("limit", AFFINE_ALPHA2_MODEL, "alpha = 2\nn = 1\nreplicas = 64", "needs n >= 2"),
        ("simulate", BENCH_MODEL, "sampler = forward\ncount = 0", "n = 1024, count = 0"),
        ("simulate", BENCH_MODEL, "sampler = forward\nn = -1\ncount = 64", "n = -1, count"),
    ],
    ids=["replicas0", "replicas-1", "n0", "alpha2-n1", "forward-count0", "forward-n-1"],
)
def test_cli_forward_sizes_exit_2(tmp_path, capsys, verb, model, setting, needle):
    # too few steps or chains used to end in a traceback, a division by
    # zero, or (n < 0) samples that were x0 itself
    path = _write(tmp_path, model + "\n[experiment]\n" + setting + "\n")
    out = tmp_path / "o"
    assert _run([verb, "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"liprec {verb}: error: ") and needle in err
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["status"] == "failed"
    assert entry["error_type"] == "PreconditionError"
    assert entry["exit_code"] == 2
    assert entry["outputs"] == {}


_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def _python(code):
    """Run `code` in a fresh interpreter that imports this liprec; stdout."""
    src = os.path.dirname(os.path.dirname(liprec.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats and scipy.spatial costs most of a start-up;
    # the alpha = 2 Gaussian check, the QQ plot and a d >= 2 support cloud
    # load them, inside the call
    assert _python("import sys, liprec, liprec.cli; " + _SCIPY_LOADED) == "[]"


def test_one_dimensional_support_run_leaves_scipy_unloaded(tmp_path):
    # a 1-d cloud's neighbour searches sort instead of building a kd-tree
    path = _write(tmp_path, LETAC_MODEL + "\n[experiment]\ncount = 500\n")
    args = ["support", "--config", str(path), "--out", str(tmp_path / "o")]
    code = f"import sys; from liprec import cli; print(cli.main({args!r})); " + _SCIPY_LOADED
    assert _python(code).splitlines()[-2:] == ["0", "[]"]


def test_cli_capacity_exits_4(tmp_path, capsys):
    text = LETAC_MODEL + "\n[experiment]\nword_guard = 10\nmax_cloud_depth = 20\n"
    path = _write(tmp_path, text)
    assert _run(["support", "--config", path, "--out", tmp_path / "t4"]) == 4
    # the failed stage still leaves its manifest record
    lines = (tmp_path / "t4" / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["stage"] == "support"
    assert entry["status"] == "failed"
    assert entry["error_type"] == "CapacityError"
    assert entry["error"] == "word enumeration exceeded the 10 guard at depth 3"
    assert entry["exit_code"] == 4
    assert entry["outputs"] == {}


def test_cli_cramer_writes_solution(tmp_path, capsys):
    path = _write(tmp_path, LETAC_MODEL + "\n[experiment]\nbracket = 0.5, 3.0\n")
    out = tmp_path / "ok"
    assert _run(["cramer", "--config", path, "--out", out]) == 0
    assert "alpha" in capsys.readouterr().out
    got = (out / "cramer_solution.csv").read_text().splitlines()
    assert got[0] == "alpha,m_alpha,s_infinity_lower_bound,method,solver_tolerance"
    alpha = float(got[1].split(",")[0])
    assert abs(alpha - 1.8509424119862664) < 1e-3


def test_cli_threads_do_not_change_bytes(tmp_path):
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 40000\n")
    out1, out3 = tmp_path / "one", tmp_path / "three"
    assert _run(["simulate", "--config", path, "--seed", 5, "--out", out1]) == 0
    assert _run(
        ["simulate", "--config", path, "--seed", 5, "--out", out3, "--threads", 3]
    ) == 0
    assert (out1 / "samples.csv").read_bytes() == (out3 / "samples.csv").read_bytes()


def test_cli_seed_changes_samples(tmp_path):
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 1000\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["simulate", "--config", path, "--seed", 1, "--out", a]) == 0
    assert _run(["simulate", "--config", path, "--seed", 2, "--out", b]) == 0
    assert (a / "samples.csv").read_bytes() != (b / "samples.csv").read_bytes()


# ---------------------------------------------------------------------------
# output schemas, one verb at a time


def _header(path):
    return path.read_text().splitlines()[0]


def test_csv_schemas_simulate_backward(tmp_path):
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 500\n")
    out = tmp_path / "o"
    assert _run(["simulate", "--config", path, "--out", out]) == 0
    assert _header(out / "samples.csv") == "x1,stop_depth,residual_bound"
    body = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
    assert body.shape == (500, 3)
    assert np.all(body[:, 2] <= 1e-9)


def test_csv_schemas_simulate_forward(tmp_path):
    path = _write(
        tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 50\nsampler = forward\nn = 64\n"
    )
    out = tmp_path / "o"
    assert _run(["simulate", "--config", path, "--out", out]) == 0
    assert _header(out / "samples.csv") == "x1"


def test_csv_schemas_tail(tmp_path):
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 20000\n")
    out = tmp_path / "o"
    assert _run(["tail", "--config", path, "--out", out]) == 0
    assert _header(out / "tail_survival.csv") == "t,p_hat,t_alpha_p"
    assert _header(out / "hill.csv") == "k,alpha_hat"
    assert _header(out / "goldie.csv") == "C,se,alpha,m_alpha"


def test_csv_schemas_limit(tmp_path):
    path = _write(
        tmp_path, BENCH_MODEL + "\n[experiment]\nn = 256\nreplicas = 4000\ncount = 4000\n"
    )
    out = tmp_path / "o"
    assert _run(["limit", "--config", path, "--out", out]) == 0
    assert _header(out / "limit_samples.csv") == "replica,value"
    assert _header(out / "limit_fit.csv") == "statistic,value"
    assert _header(out / "cf.csv") == "t,v_index,re,im,se"


def test_cli_limit_gaussian_boundary(tmp_path):
    # alpha = 2: the limit is Gaussian and limit_fit.csv holds the KS and
    # shape statistics instead of a stable index fit
    path = _write(
        tmp_path,
        AFFINE_ALPHA2_MODEL
        + "\n[experiment]\nalpha = 2\nn = 256\nreplicas = 2000\ncount = 2000\n"
        + "\n[output]\nsvg = true\n",
    )
    out = tmp_path / "o"
    assert _run(["limit", "--config", path, "--out", out]) == 0
    rows = (out / "limit_fit.csv").read_text().splitlines()
    assert rows[0] == "statistic,value"
    stats = dict(r.split(",") for r in rows[1:])
    assert list(stats) == [
        "ks_stat", "ks_critical", "skewness", "excess_kurtosis", "passed"
    ]
    for name in ("ks_stat", "skewness", "excess_kurtosis"):
        assert np.isfinite(float(stats[name]))
    assert (out / "qq.svg").read_text().startswith(("<svg", "<?xml"))


def test_cli_limit_closed_center_draws_no_pilot(tmp_path, monkeypatch):
    # an affine model with a closed-form mean reads no backward pilot
    def refuse(*args, **kwargs):
        raise AssertionError("stationary_batch called")

    monkeypatch.setattr(chains, "stationary_batch", refuse)
    path = _write(
        tmp_path, AFFINE_ALPHA2_MODEL + "\n[experiment]\nn = 256\nreplicas = 2000\n"
    )
    out = tmp_path / "o"
    assert _run(["limit", "--config", path, "--out", out]) == 0
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["status"] == "ok"
    assert "backward" not in entry


def test_cli_limit_two_sided_support_needs_linearity_flag(tmp_path, capsys):
    # letac maps are not linear on a two-sided support: the pilot that
    # shows it is still drawn, and its counters reach the manifest
    path = _write(
        tmp_path,
        TWO_SIDED_LETAC_MODEL
        + "\n[experiment]\nalpha = 1.5\nn = 64\nreplicas = 2000\ncount = 2000\n",
    )
    out = tmp_path / "o"
    assert _run(["limit", "--config", path, "--out", out]) == 5
    assert "linear_on_support" in capsys.readouterr().err
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["status"] == "failed"
    assert entry["error_type"] == "AssertionFlagError"
    assert entry["backward"]["theta_used"] >= 2000


def test_csv_schemas_support_and_check(tmp_path):
    path = _write(
        tmp_path,
        LETAC_MODEL
        + "\n[experiment]\ncount = 2000\nmax_cloud_depth = 6\n"
        + "\n[assertions]\nnonarithmetic = true\n",
    )
    out = tmp_path / "o"
    assert _run(["support", "--config", path, "--out", out]) == 0
    assert _header(out / "support.csv") == "x1,depth"
    assert (
        _header(out / "support_coverage.csv")
        == "fraction_covered,max_distance,epsilon,count,frontier_escape"
    )
    out2 = tmp_path / "o2"
    assert _run(["check", "--config", path, "--out", out2]) == 0
    assert _header(out2 / "check.csv") == "name,value,se,passed,detail"


def _table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_cli_stdout_restates_outputs(tmp_path, capsys):
    # every line a verb prints is read back from the file it summarizes
    def run(verb, model, experiment, assertions=""):
        i = len(list(tmp_path.glob("*.cfg")))
        text = model + "\n[experiment]\n" + experiment + assertions
        path = _write(tmp_path, text, name=f"run{i}.cfg")
        out = tmp_path / f"o{i}"
        capsys.readouterr()
        assert _run([verb, "--config", path, "--out", out]) == 0
        return out, capsys.readouterr().out.splitlines()

    out, lines = run("cramer", LETAC_MODEL, "bracket = 0.5, 3.0\n")
    sol = _table(out / "cramer_solution.csv")[0]
    assert lines == [
        f"alpha = {float(sol['alpha']):.6f} ({sol['method']}), "
        f"m_alpha = {float(sol['m_alpha']):.6f}",
        f"finite-moment range extends past s = {float(sol['s_infinity_lower_bound']):.3f}",
    ]

    for sampler in ("backward", "forward"):
        out, lines = run("simulate", BENCH_MODEL, f"count = 300\nsampler = {sampler}\nn = 16\n")
        assert lines == [f"wrote {len(_table(out / 'samples.csv'))} samples"]

    out, lines = run("tail", BENCH_MODEL, "count = 2000\n")
    gold = _table(out / "goldie.csv")[0]
    c = float(gold["C"])
    dev = max(abs(float(r["t_alpha_p"]) / c - 1.0) for r in _table(out / "tail_survival.csv"))
    flags = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])["tail"]["flags"]
    assert lines == [
        f"alpha = {float(gold['alpha']):.6f}, tail constant C = "
        f"{c:.6f} +/- {float(gold['se']):.2g}",
        f"plateau deviation {dev:.4f}",
    ] + [f"note: {f}" for f in flags]

    out, lines = run("limit", BENCH_MODEL, "alpha = 1.5\nn = 64\nreplicas = 2000\ncount = 2000\n")
    fit = {r["statistic"]: r["value"] for r in _table(out / "limit_fit.csv")}
    assert lines == [
        "regime mid, alpha = 1.500000",
        f"index fit alpha_hat = {float(fit['alpha_hat']):.4f}",
    ]
    out, lines = run("limit", AFFINE_ALPHA2_MODEL, "alpha = 2\nn = 256\nreplicas = 2000\n")
    fit = {r["statistic"]: float(r["value"]) for r in _table(out / "limit_fit.csv")[:-1]}
    assert lines == [
        "regime eq2, alpha = 2.000000",
        f"KS {fit['ks_stat']:.5f} vs critical {fit['ks_critical']:.5f}, "
        f"skew {fit['skewness']:.4f}, excess kurtosis {fit['excess_kurtosis']:.4f}",
    ]

    flag = "\n[assertions]\nnonarithmetic = true\n"
    out, lines = run("support", LETAC_MODEL, "count = 2000\nmax_cloud_depth = 6\n", flag)
    cov = _table(out / "support_coverage.csv")[0]
    assert lines == [
        f"cloud size {len(_table(out / 'support.csv'))}, coverage "
        f"{float(cov['fraction_covered']):.4f} at epsilon {float(cov['epsilon']):g}",
        f"frontier escape {float(cov['frontier_escape']):.4f}",
    ]

    out, lines = run("check", LETAC_MODEL, "count = 2000\n", flag)
    rows = _table(out / "check.csv")
    passed = [r["passed"] == "true" for r in rows]
    assert lines == [
        f"{'PASS' if ok else 'FAIL'} {r['name']}: value {float(r['value']):.6g}"
        for r, ok in zip(rows, passed)
    ] + ["all checks passed" if all(passed) else "some checks failed"]


def test_manifest_records_each_stage(tmp_path):
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 300\n")
    out = tmp_path / "o"
    assert _run(["simulate", "--config", path, "--seed", 9, "--out", out]) == 0
    lines = (out / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(lines[-1])
    assert entry["stage"] == "simulate"
    assert entry["status"] == "ok"
    assert entry["seed"] == 9
    assert entry["version"] == VERSION
    assert entry["numpy"]["version"] == np.__version__
    assert set(entry["numpy"]) == {"version", "simd_baseline", "simd_found"}
    assert all(isinstance(f, str) for f in entry["numpy"]["simd_found"])
    assert "samples.csv" in entry["outputs"]
    cfg = config.load_config(path)
    assert entry["config_digest"] == config.config_digest(cfg, VERSION)
    digest = entry["outputs"]["samples.csv"]
    got = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
    assert digest == got
    # one block: it draws 300 thetas per step down to the deepest member
    depths = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)[:, 1]
    assert entry["backward"] == {
        "stop_depth_mean": float(depths.mean()),
        "stop_depth_max": int(depths.max()),
        "theta_drawn": 300 * int(depths.max()),
        "theta_used": int(depths.sum()),
    }


def test_tail_manifest_records_report_flags(tmp_path, monkeypatch, capsys):
    # the notes the CLI prints for a tail report also reach its record
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 2000\n")
    assert _run(["tail", "--config", path, "--out", tmp_path / "o"]) == 0
    entry = json.loads((tmp_path / "o" / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["tail"] == {"flags": []}
    real = tails.goldie_constant

    def flagged(*args, **kwargs):
        est = real(*args, **kwargs)
        return dataclasses.replace(est, constant=-est.constant, se_unreliable=True)

    monkeypatch.setattr(tails, "goldie_constant", flagged)
    capsys.readouterr()
    assert _run(["tail", "--config", path, "--out", tmp_path / "f"]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note: ")]
    assert notes == ["note: se unreliable", "note: nonpositive tail constant"]
    entry = json.loads((tmp_path / "f" / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["tail"] == {"flags": ["se unreliable", "nonpositive tail constant"]}


def test_public_names_resolve():
    # every exported name exists, so a star import succeeds
    for name in liprec.__all__:
        assert hasattr(liprec, name), name
    namespace = {}
    exec("from liprec import *", namespace)
    assert set(liprec.__all__) <= set(namespace)


def test_write_csv_matches_csv_writer(tmp_path):
    # numeric cells are joined directly; text keeps csv's minimal quoting
    n = experiments._CSV_CHUNK + 3  # crosses a chunk boundary
    rng = np.random.default_rng(0)
    floats = rng.standard_normal(n) * 1e5
    ints = rng.integers(-5, 5, n)
    pool = ("a, b", True, 1.5, 'say "hi"', 7, "", "two\nlines", False)
    mixed = [pool[i % len(pool)] for i in range(n)]

    def ref_cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return repr(v) if isinstance(v, float) else str(v)

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["x", "k", "note"])
    w.writerows(zip(map(repr, floats.tolist()), map(str, ints.tolist()), map(ref_cell, mixed)))
    want = buf.getvalue().encode("utf-8")
    sha = experiments.write_csv(tmp_path, "t.csv", ["x", "k", "note"], [floats, ints, mixed])
    assert (tmp_path / "t.csv").read_bytes() == want
    assert sha == hashlib.sha256(want).hexdigest()
    experiments.write_csv(tmp_path, "empty.csv", ["x", "k"], [np.array([]), []])
    assert (tmp_path / "empty.csv").read_bytes() == b"x,k\n"


def test_svg_outputs_when_requested(tmp_path):
    path = _write(
        tmp_path,
        BENCH_MODEL + "\n[experiment]\ncount = 20000\n\n[output]\nsvg = true\n",
    )
    out = tmp_path / "o"
    assert _run(["tail", "--config", path, "--out", out]) == 0
    for name in ("survival.svg", "hill.svg"):
        text = (out / name).read_text()
        assert text.startswith("<svg") or text.startswith("<?xml")


def test_svg_outputs_are_hashed_into_manifest(tmp_path):
    path = _write(
        tmp_path,
        LETAC_MODEL
        + "\n[experiment]\ncount = 2000\nmax_cloud_depth = 6\n"
        + "\n[output]\nsvg = true\n",
    )
    out = tmp_path / "o"
    assert _run(["support", "--config", path, "--out", out]) == 0
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    got = hashlib.sha256((out / "cloud.svg").read_bytes()).hexdigest()
    assert entry["outputs"]["cloud.svg"] == got
