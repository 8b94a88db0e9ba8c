import ast
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import liprec
from liprec import chains, cli, config, experiments, tails
from liprec import randomness as rnd
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


# arch1 with a ~ normal: no law of |M| is representable, so m_alpha
# comes from theta draws
ARCH1_NORMAL_MODEL = """\
[model]
family = arch1
gamma = 0.1
beta = 1.0
lambda = 1.0

[distributions.a]
kind = normal
params = 0.0, 1.0
"""


# extremal with a ~ uniform: |M| has no closed-form moments, so the
# moment curve is sampled
SAMPLED_SCALE_MODEL = """\
[model]
family = extremal

[distributions.a]
kind = uniform
params = 0.2, 1.5

[distributions.b]
kind = uniform
params = 1.0, 2.0
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


AFFINE_3D_MODEL = """\
[model]
family = affine
dimension = 3
axis = 1.0, 2.0, 0.5

[distributions.scale]
kind = uniform
params = 0.3, 0.9

[distributions.angle]
kind = constant
params = 1.0

[distributions.shift_1]
kind = constant
params = 1.0

[distributions.shift_2]
kind = constant
params = 0.0

[distributions.shift_3]
kind = constant
params = -1.0
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


def test_runner_keys_match_the_getters():
    # every key literal the runners pass to a typed getter, by section
    with open(experiments.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    read = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id.startswith("get_")
            and len(node.args) >= 3
        ):
            section, key = (a.value for a in node.args[1:3])
            read.setdefault(section, set()).add(key)
    assert read == config._RUNNER_KEYS


@pytest.mark.parametrize("section", ["experiment", "output", "assertions"])
def test_build_model_rejects_unknown_runner_keys(section):
    cfg = config.parse_config(BENCH_MODEL + f"\n[{section}]\ncuont = 50\n", "p.cfg")
    with pytest.raises(ConfigError) as exc:
        config.build_model(cfg)
    assert str(exc.value) == f"p.cfg:13: [{section}] cuont: unknown key"


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
    assert config.get_float(cfg, "experiment", "missing") is None
    assert config.get_float(cfg, "experiment", "missing", default=0.25) == 0.25
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
    empty = config.parse_config("[experiment]\ngrid =\n", "e.cfg")
    with pytest.raises(ConfigError) as exc:
        config.get_floats(empty, "experiment", "grid", default=(1.0,))
    assert str(exc.value) == "e.cfg:2: [experiment] grid: expected at least one number, got none"


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


def test_cli_tail_with_fewer_samples_than_se_blocks_exits_2(tmp_path, capsys):
    # 20 samples cannot fill the tail constant's 32 se blocks: a clean
    # error, not a nan se in goldie.csv
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 20\n")
    out = tmp_path / "o"
    assert _run(["tail", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("liprec tail: error: ") and "at least 32 samples" in err
    assert not (out / "goldie.csv").exists()


def test_cli_misspelled_key_exits_2_with_its_line(tmp_path, capsys):
    text = BENCH_MODEL + "\n[experiment]\ncuont = 50\n"
    path = _write(tmp_path, text)
    out = tmp_path / "typo"
    assert _run(["simulate", "--config", path, "--out", out]) == 2
    assert f"{path}:13: [experiment] cuont: unknown key" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


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


@pytest.mark.parametrize("verb", ["cramer", "check"])
def test_cli_empty_list_exits_2_with_its_line(tmp_path, capsys, verb):
    # an empty s_grid died in check (IndexError on its last row) and gave
    # cramer a header-only cramer.csv
    text = LETAC_MODEL + "\n[experiment]\ncount = 256\nmc_samples = 1000\ns_grid =\n"
    path = _write(tmp_path, text)
    line = text.splitlines().index("s_grid =") + 1
    out = tmp_path / "o"
    assert _run([verb, "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"liprec {verb}: error: {path}:{line}: [experiment] s_grid: "
        "expected at least one number, got none\n"
    )
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "verb, model, setting, message",
    [
        ("tail", BENCH_MODEL, "t_points = 0", "t_points must be positive, got 0"),
        ("tail", BENCH_MODEL, "t_points = -1", "t_points must be positive, got -1"),
        ("tail", BENCH_MODEL, "hill_points = 0", "hill_points must be positive, got 0"),
        ("tail", BENCH_MODEL, "hill_points = -1", "hill_points must be positive, got -1"),
        ("cramer", BENCH_MODEL, "solver_tol = 0", "solver_tol must be positive, got 0.0"),
        ("tail", BENCH_MODEL, "solver_tol = -4", "solver_tol must be positive, got -4.0"),
        ("cramer", SAMPLED_SCALE_MODEL, "mc_samples = 0", "mc_samples must be positive, got 0"),
        ("cramer", SAMPLED_SCALE_MODEL, "mc_samples = -5", "mc_samples must be positive, got -5"),
        ("tail", SAMPLED_SCALE_MODEL, "mc_samples = 0", "mc_samples must be positive, got 0"),
        ("tail", ARCH1_NORMAL_MODEL + "\n[experiment]\nalpha = 1.5", "mc_samples = -5",
         "mc_samples must be positive, got -5"),
        ("check", SAMPLED_SCALE_MODEL, "mc_samples = 0", "mc_samples must be positive, got 0"),
    ],
    ids=[
        "t_points0", "t_points-1", "hill_points0", "hill_points-1", "solver_tol0",
        "solver_tol-4", "cramer-mc_samples0", "cramer-mc_samples-5", "tail-mc_samples0",
        "tail-theta-mc_samples-5", "check-mc_samples0",
    ],
)
def test_cli_nonpositive_sizes_exit_2(tmp_path, capsys, verb, model, setting, message):
    # t_points = 0 died in max() of an empty sequence, -1 in numpy's
    # geomspace; hill_points = 0 wrote a header-only hill.csv; mc_samples
    # = 0 warned and then blamed a divergent moment; solver_tol <= 0 was
    # read as "the default"
    if "[experiment]" not in model:
        model += "\n[experiment]"
    path = _write(tmp_path, model + "\ncount = 2000\n" + setting + "\n")
    out = tmp_path / "o"
    assert _run([verb, "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err == f"liprec {verb}: error: [experiment] {message}\n"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("verb", ["tail", "limit"])
def test_cli_closed_form_mode_without_a_scale_law_exits_2(tmp_path, capsys, verb):
    # arch1 with a normal a has no |M| law, so m_alpha comes from theta
    # draws, which closed_form forbids as it does in cramer
    text = ARCH1_NORMAL_MODEL + (
        "\n[experiment]\nalpha = 2.0\nmode = closed_form\ncount = 2000\nn = 64\nreplicas = 256\n"
    )
    path = _write(tmp_path, text)
    out = tmp_path / "o"
    assert _run([verb, "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"liprec {verb}: error: no closed-form moments for kind 'normal'\n"
    )
    assert not list(out.glob("*.csv"))
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert (entry["status"], entry["exit_code"]) == ("failed", 2)


@pytest.mark.parametrize("setting", ["", "solver_tol = 1e-5\n"], ids=["default-tol", "solver-tol"])
def test_cli_cramer_and_tail_share_one_moment_curve(tmp_path, setting):
    # the |M| law is sampled: both verbs draw its one sample from the same
    # stream and solve it to the same tolerance, so they agree to the bit
    text = SAMPLED_SCALE_MODEL + "\n[experiment]\nmc_samples = 200000\ncount = 2000\n" + setting
    path = _write(tmp_path, text)
    assert _run(["cramer", "--config", path, "--seed", 3, "--out", tmp_path / "c"]) == 0
    assert _run(["tail", "--config", path, "--seed", 3, "--out", tmp_path / "t"]) == 0
    with open(tmp_path / "c" / "cramer_solution.csv", newline="") as fh:
        sol = next(csv.DictReader(fh))
    with open(tmp_path / "t" / "goldie.csv", newline="") as fh:
        gold = next(csv.DictReader(fh))
    assert (gold["alpha"], gold["m_alpha"]) == (sol["alpha"], sol["m_alpha"])
    assert (sol["method"], float(sol["solver_tolerance"])) == (
        "monte_carlo", 1e-5 if setting else 1e-3
    )


@pytest.mark.parametrize(
    "verb, model, setting",
    [
        ("cramer", BENCH_MODEL, "bracket = 1.0"),
        ("tail", BENCH_MODEL, "bracket = 1.0"),
        ("limit", BENCH_MODEL, "bracket = 1.0"),
        ("limit", BENCH_MODEL + "\n[experiment]\nalpha = 1.5\n", "bracket = 1.0"),
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


@pytest.mark.parametrize("replicas", [3, 16])
def test_cli_limit_refuses_index_fit_on_too_few_replicas(tmp_path, capsys, replicas):
    # the empirical |CF| of a few replicas is noise in the fit's band, so
    # its alpha_hat means nothing (3 or 16 replicas gave values near 0)
    text = f"alpha = 1.5\nn = 64\nreplicas = {replicas}"
    path = _write(tmp_path, AFFINE_ALPHA2_MODEL + "\n[experiment]\n" + text + "\n")
    out = tmp_path / "o"
    assert _run(["limit", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"liprec limit: error: [experiment] replicas = {replicas}: the stable index "
        f"fit needs at least 144 samples, got {replicas}: below that the empirical "
        "|CF| is noise in its band\n"
    )
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert (entry["status"], entry["error_type"], entry["exit_code"]) == (
        "failed", "PreconditionError", 2
    )


@pytest.mark.parametrize("threads", [0, -3])
@pytest.mark.parametrize("verb", [verb for verb, _ in cli._VERBS])
def test_cli_threads_below_one_exit_2(tmp_path, capsys, verb, threads):
    # a count below 1 names no thread count, so no verb may run with it
    # (serially) and record it in the manifest
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\nn = 64\nreplicas = 256\ncount = 64\n")
    out = tmp_path / "o"
    assert _run([verb, "--config", path, "--out", out, "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err == f"liprec {verb}: error: --threads must be at least 1, got {threads}\n"
    assert not out.exists()


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


def test_cli_limit_checks_center_in_every_regime(tmp_path, capsys):
    # alpha < 1 needs no centering, but a malformed center is still an error
    text = BENCH_MODEL + "\n[experiment]\nalpha = 0.8\nn = 64\nreplicas = 2000\ncount = 2000\n"
    good = _write(tmp_path, text + "center = 5.0\n", "good.cfg")
    assert _run(["limit", "--config", good, "--out", tmp_path / "g"]) == 0
    assert capsys.readouterr().out.startswith("regime sub1, ")
    bad = _write(tmp_path, text + "center = abc\n", "bad.cfg")
    out = tmp_path / "b"
    assert _run(["limit", "--config", bad, "--out", out]) == 2
    message = "[experiment] center must be a number, 'auto' or 'stationary_mean', got 'abc'"
    assert capsys.readouterr().err == f"liprec limit: error: {message}\n"
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["status"] == "failed"
    assert entry["error_type"] == "ConfigError"
    assert entry["error"] == message
    assert entry["exit_code"] == 2
    assert entry["outputs"] == {}


def test_cli_non_contracting_model_exits_3_with_one_error_line(tmp_path, capsys):
    text = """\
[model]
family = arch1
gamma = 1.0
beta = 0.8
lambda = 0.25

[distributions.a]
kind = discrete
atoms = -2, -1, 1, 2

[experiment]
count = 64
max_depth = 2000
"""
    path = _write(tmp_path, text)
    assert _run(["simulate", "--config", path, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("liprec simulate: error: backward iteration hit max_depth=2000")


# E log a = 0.5 > 0: the composed scale of the backward composite overflows
_NOT_CONTRACTING = {
    "extremal": """\
[model]
family = extremal

[distributions.a]
kind = lognormal
params = 0.5, 1.0

[distributions.b]
kind = constant
params = 1.0
""",
    "affine": """\
[model]
family = affine

[distributions.scale]
kind = lognormal
params = 0.5, 1.0

[distributions.shift]
kind = normal
params = 0.0, 1.0
""",
}


@pytest.mark.parametrize("family", ["extremal", "affine"])
def test_cli_non_contracting_composite_model_exits_3_with_one_error_line(family, tmp_path, capsys):
    # the composed map overflows to inf (and to nan in the affine
    # translation); the run must end with the depth guard's one line
    text = _NOT_CONTRACTING[family] + "\n[experiment]\ncount = 64\nmax_depth = 2000\n"
    path = _write(tmp_path, text)
    out = tmp_path / "o"
    assert _run(["simulate", "--config", path, "--out", out]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("liprec simulate: error: backward iteration hit max_depth=2000")
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["status"] == "failed"
    assert entry["stream_layout"]["backward_form"] == "composite"


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


@pytest.mark.parametrize(
    "model, dim", [(AFFINE_2D_MODEL, 2), (AFFINE_3D_MODEL, 3)], ids=["d2", "d3"]
)
def test_cli_check_smoothness_grid_holds_points(tmp_path, monkeypatch, model, dim):
    # the grid is 5 radii along each coordinate axis, a (5 d, d) array
    grids = []
    check = experiments.cramer.check_smoothness

    def spy(spec, x_grid, *args):
        grids.append(np.shape(x_grid))
        return check(spec, x_grid, *args)

    monkeypatch.setattr(experiments.cramer, "check_smoothness", spy)
    path = _write(tmp_path, model + "\n[experiment]\ncount = 2000\nmc_samples = 20000\n")
    out = tmp_path / "o"
    assert _run(["check", "--config", path, "--out", out]) == 0
    assert grids == [(5 * dim, dim)]
    row = next(r for r in _table(out / "check.csv") if r["name"] == "smoothness")
    assert math.isfinite(float(row["value"])) and row["passed"] == "true"


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
    assert entry["stream_layout"] == {
        "bit_generator": "SFC64",
        "backward_block": 16384,
        "forward_block": 4096,
        "forward_steps": 16,
        "pair_chunk": 65536,
        "backward_form": "composite",  # extremal carries its composed map
    }
    assert entry["numpy"]["version"] == np.__version__
    assert set(entry["numpy"]) == {"version", "simd_baseline", "simd_found"}
    assert all(isinstance(f, str) for f in entry["numpy"]["simd_found"])
    assert "samples.csv" in entry["outputs"]
    cfg = config.load_config(path)
    assert entry["config_digest"] == config.config_digest(cfg, VERSION)
    digest = entry["outputs"]["samples.csv"]
    got = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
    assert digest == got
    # one block: each member draws one theta per step down to its depth
    depths = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)[:, 1]
    ranked = np.sort(depths)  # p-quantile: the depth of rank ceil(p * 300)
    assert entry["backward"] == {
        "stop_depth_mean": float(depths.mean()),
        "stop_depth_p50": int(ranked[149]),
        "stop_depth_p90": int(ranked[269]),
        "stop_depth_p99": int(ranked[296]),
        "stop_depth_max": int(depths.max()),
        "theta_used": int(depths.sum()),
    }
    # arch1 has no composite and replays its draws; a forward run draws no
    # backward batch and names no backward form
    arch1 = """\
[model]
family = arch1
gamma = 0.3
beta = 0.8
lambda = 0.25

[distributions.a]
kind = normal
params = 0.0, 0.6

[experiment]
count = 300
"""
    for sampler, form in (("backward", "replay"), ("forward", None)):
        out = tmp_path / sampler
        path = _write(tmp_path, arch1 + f"sampler = {sampler}\nn = 16\n", f"{sampler}.cfg")
        assert _run(["simulate", "--config", path, "--out", out]) == 0
        entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
        assert entry["stream_layout"].get("backward_form") == form


def test_manifest_names_the_bit_generator(tmp_path):
    # read from the class randomness draws with, on a backward verb and a
    # forward one
    runs = (
        ("simulate", BENCH_MODEL + "\n[experiment]\ncount = 300\n"),
        ("limit", AFFINE_ALPHA2_MODEL + "\n[experiment]\nn = 256\nreplicas = 2000\n"),
    )
    for verb, text in runs:
        out = tmp_path / verb
        path = _write(tmp_path, text, f"{verb}.cfg")
        assert _run([verb, "--config", path, "--out", out]) == 0
        entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
        assert entry["stage"] == verb
        assert entry["stream_layout"]["bit_generator"] == rnd.BIT_GENERATOR.__name__ == "SFC64"


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
