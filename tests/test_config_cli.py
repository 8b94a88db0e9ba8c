import ast
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import liprec
from liprec import chains, cli, config, experiments, models, tails
from liprec import randomness as rnd
from liprec._version import VERSION
from liprec.errors import ConfigError, DomainError

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


# a valid value for a model constant of each type a family row gives
_CONSTANT_TEXT = {float: "0.5", tuple: "1.0, 2.0, 0.5"}


@pytest.mark.parametrize("family", models.FAMILIES)
def test_build_model_reads_the_family_row(family):
    # the row alone decides which [model] keys and dimensions config accepts
    row = models.FAMILY_TABLE[family]
    others = {
        k: t for r in models.FAMILY_TABLE.values() for k, t in r.constants.items()
        if k not in row.constants
    }

    def build(dimension, extra=()):
        params = models.required_params(family, dimension if dimension in row.dimensions else 1)
        text = f"[model]\nfamily = {family}\ndimension = {dimension}\n"
        for key, kind in [*row.constants.items(), *extra]:
            text += f"{key} = {_CONSTANT_TEXT[kind]}\n"
        text += "".join(f"[distributions.{p}]\nkind = constant\nparams = 0.0\n" for p in params)
        return config.build_model(config.parse_config(text, "p.cfg"))

    for dimension in range(1, 5):
        if dimension in row.dimensions:
            spec = build(dimension)
            assert (spec.family, spec.dimension) == (family, dimension)
            assert set(spec.constants) == set(row.constants)
        else:
            with pytest.raises(ConfigError, match="dimension must be|one-dimensional"):
                build(dimension)
    for key, kind in others.items():
        with pytest.raises(ConfigError, match=f"{key}: unknown key for family '{family}'"):
            build(1, [(key, kind)])


_FINITE_AFFINE = AFFINE_3D_MODEL.replace("kind = uniform\nparams = 0.3, 0.9", "kind = discrete\n"
                                         "atoms = 0.3, 0.9\nweights = 0.5, 0.5")


@pytest.mark.parametrize(
    "model, old, new, message",
    [
        (AFFINE_ALPHA2_MODEL, "params = 1.0\n", "params = inf\n",
         "[distributions.shift]: constant law parameters must be finite, got (inf,)"),
        (AFFINE_ALPHA2_MODEL, "params = -1.0, 1.0", "params = nan, 1.0",
         "[distributions.scale]: lognormal law parameters must be finite, got (nan, 1.0)"),
        (AFFINE_ALPHA2_MODEL, "params = -1.0, 1.0", "params = 0.0, inf",
         "[distributions.scale]: lognormal law parameters must be finite, got (0.0, inf)"),
        (ARCH1_NORMAL_MODEL, "params = 0.0, 1.0", "params = 0.0, nan",
         "[distributions.a]: normal law parameters must be finite, got (0.0, nan)"),
        (SAMPLED_SCALE_MODEL, "params = 1.0, 2.0", "params = 1.0, inf",
         "[distributions.b]: uniform law parameters must be finite, got (1.0, inf)"),
        (_FINITE_AFFINE, "atoms = 0.3, 0.9", "atoms = 0.3, inf",
         "[distributions.scale]: discrete atoms and weights must be finite"),
        (_FINITE_AFFINE, "weights = 0.5, 0.5", "weights = nan, nan",
         "[distributions.scale]: discrete atoms and weights must be finite"),
        (ARCH1_NORMAL_MODEL, "gamma = 0.1", "gamma = nan", "arch1 constant gamma must be finite, got nan"),
        (ARCH1_NORMAL_MODEL, "beta = 1.0", "beta = inf", "arch1 constant beta must be finite, got inf"),
        (AFFINE_3D_MODEL, "axis = 1.0, 2.0, 0.5", "axis = 1.0, inf, 0.5",
         "affine d=3 axis must be finite, got 1.0, inf, 0.5"),
    ],
    ids=["shift-inf", "lognormal-nan", "lognormal-inf", "normal-nan", "uniform-inf", "atom-inf",
         "weights-nan", "gamma-nan", "beta-inf", "axis-inf"],
)
def test_cli_refuses_non_finite_laws_and_constants(tmp_path, capsys, model, old, new, message):
    # each passed its <= or < test: shift = inf wrote 20000 inf samples,
    # each with a residual bound near 1e-10 (exit 0); lognormal(nan, 1)
    # sampled until the storage guard tripped (exit 4); an inf axis
    # component normalized to nan. Each is refused before any stage runs
    assert old in model
    path = _write(tmp_path, model.replace(old, new, 1) + "\n[experiment]\ncount = 2000\n")
    out = tmp_path / "o"
    assert _run(["simulate", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("liprec simulate: error: ") and err.endswith(f"{message}\n")
    assert not (out / "manifest.jsonl").exists()
    assert not list(out.glob("*.csv"))


def test_runner_keys_match_the_getters():
    # the runners read exactly the table's keys, each through the one
    # table lookup, and call no typed getter of their own
    with open(experiments.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", None) or node.func.attr
            assert not name.startswith("get_"), f"line {node.lineno} calls {name}"
            if name == "setting":
                section, key = (a.value for a in node.args[1:3])
                read.add((section, key))
    assert read == set(config.KEYS)


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


def test_cli_zero_weight_atom_does_not_pass_the_nonarithmetic_gate(tmp_path, capsys):
    # a weight-0 atom is not in the law: |M| still takes two values, so
    # tail needs the flag, and check counts two atoms
    text = BENCH_MODEL.replace(
        "kind = lognormal\nparams = -0.75, 1.0",
        "kind = discrete\natoms = 0.5, 2.0, 7.0\nweights = 0.6, 0.4, 0.0",
    )
    path = _write(tmp_path, text + "\n[experiment]\ncount = 2000\n")
    assert _run(["tail", "--config", path, "--out", tmp_path / "t"]) == 5
    assert "nonarithmetic" in capsys.readouterr().err
    assert _run(["check", "--config", path, "--out", tmp_path / "k"]) == 0
    rows = {r["name"]: r for r in _table(tmp_path / "k" / "check.csv")}
    assert (rows["nonarithmetic_scale"]["value"], rows["nonarithmetic_scale"]["passed"]) == (
        "2.0", "false"
    )


@pytest.mark.parametrize(
    "atoms, weights",
    [("-1.0, 1.0, 1.0", "0.5, 0.25, 0.25"), ("-1.0, 1.0, 3.0", "0.5, 0.5, 0.0")],
    ids=["repeated-atom", "zero-weight-atom"],
)
def test_cli_arch1_takes_a_symmetric_law_with_repeated_or_zero_weight_atoms(
    tmp_path, capsys, atoms, weights
):
    text = ARCH1_NORMAL_MODEL.replace(
        "kind = normal\nparams = 0.0, 1.0", f"kind = discrete\natoms = {atoms}\nweights = {weights}"
    )
    assert _run(["cramer", "--config", _write(tmp_path, text), "--out", tmp_path / "o"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "model, old, key",
    [
        (BENCH_MODEL, "params = -0.75, 1.0", "atoms = 5, 6"),
        (BENCH_MODEL, "params = -0.75, 1.0", "weights = 0.5, 0.5"),
        (LETAC_MODEL, "weights = 0.75, 0.25", "params = 1.0"),
    ],
    ids=["lognormal-atoms", "lognormal-weights", "discrete-params"],
)
def test_cli_refuses_a_law_key_its_kind_does_not_take(tmp_path, capsys, model, old, key):
    # each key was dropped without a word, and the run went on
    assert old in model
    text = model.replace(old, f"{old}\n{key}", 1)
    path = _write(tmp_path, text)
    line = text.splitlines().index(key) + 1
    kind, takes = ("discrete", "atoms and weights") if key.startswith("params") else ("lognormal", "params")
    name = key.split(" ")[0]
    out = tmp_path / "o"
    assert _run(["cramer", "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"liprec cramer: error: {path}:{line}: [distributions.a] {name}: "
        f"a {kind} law takes {takes}, not {name}\n"
    )
    assert not out.exists()


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
        ("tail", BENCH_MODEL, "solver_tol = inf", "solver_tol must be finite, got inf"),
        ("cramer", BENCH_MODEL, "solver_tol = inf", "solver_tol must be finite, got inf"),
        ("support", LETAC_MODEL, "epsilon = nan", "epsilon must be positive, got nan"),
        ("support", LETAC_MODEL, "epsilon = inf", "epsilon must be finite, got inf"),
        ("support", LETAC_MODEL, "epsilon = 0", "epsilon must be positive, got 0.0"),
        ("support", LETAC_MODEL, "max_cloud_depth = 0", "max_cloud_depth must be positive, got 0"),
        ("simulate", BENCH_MODEL, "x0 = nan", "x0 must be finite, got nan"),
        ("simulate", BENCH_MODEL, "x0 = inf", "x0 must be finite, got inf"),
        ("tail", BENCH_MODEL, "bracket = 0.05, inf", "bracket must be finite, got 0.05, inf"),
        ("cramer", BENCH_MODEL, "s_grid = 0.5, inf", "s_grid must be finite, got 0.5, inf"),
        ("check", LETAC_MODEL, "s_grid = 0.5, nan", "s_grid must be finite, got 0.5, nan"),
        ("tail", BENCH_MODEL, "alpha = nan", "alpha must be positive, got nan"),
        ("tail", BENCH_MODEL, "alpha = inf\n\n[output]\nsvg = true", "alpha must be finite, got inf"),
        ("tail", BENCH_MODEL, "alpha = -1", "alpha must be positive, got -1.0"),
        ("limit", BENCH_MODEL, "n = 64\nreplicas = 256\nalpha = nan", "alpha must be positive, got nan"),
    ],
    ids=[
        "t_points0", "t_points-1", "hill_points0", "hill_points-1", "solver_tol0",
        "solver_tol-4", "cramer-mc_samples0", "cramer-mc_samples-5", "tail-mc_samples0",
        "tail-theta-mc_samples-5", "check-mc_samples0", "solver_tol-inf", "cramer-solver_tol-inf",
        "epsilon-nan", "epsilon-inf", "epsilon0", "max_cloud_depth0", "x0-nan", "x0-inf",
        "bracket-inf", "cramer-s_grid-inf", "check-s_grid-nan", "tail-alpha-nan",
        "tail-alpha-inf-svg", "tail-alpha-1", "limit-alpha-nan",
    ],
)
def test_cli_nonpositive_sizes_exit_2(tmp_path, capsys, verb, model, setting, message):
    # t_points = 0 died in max() of an empty sequence, -1 in numpy's
    # geomspace; hill_points = 0 wrote a header-only hill.csv; mc_samples
    # = 0 warned and then blamed a divergent moment; solver_tol <= 0 was
    # read as "the default". Non-finite numbers: solver_tol = inf solved
    # to the bracket's midpoint; epsilon = nan gave coverage 0 (exit 0);
    # max_cloud_depth = 0 exited 3 after enumerating; x0 = nan or inf
    # sampled until the storage guard tripped (exit 4); a bracket end at
    # inf exited 3; alpha = nan wrote a nan tail constant in tail and
    # blamed replicas in limit, and alpha = inf crashed the svg axis
    if "[experiment]" not in model:
        model += "\n[experiment]"
    path = _write(tmp_path, model + "\ncount = 2000\n" + setting + "\n")
    out = tmp_path / "o"
    assert _run([verb, "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err == f"liprec {verb}: error: [experiment] {message}\n"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "verb, setting, message",
    [
        ("simulate", "tol = 0", "tol must be positive, got 0.0"),
        ("simulate", "tol = -1e-9", "tol must be positive, got -1e-09"),
        ("simulate", "tol = nan", "tol must be positive, got nan"),
        ("simulate", "max_depth = 0", "max_depth must be positive, got 0"),
        ("tail", "tol = 0", "tol must be positive, got 0.0"),
        ("limit", "tol = nan", "tol must be positive, got nan"),
        ("support", "tol = -1e-9", "tol must be positive, got -1e-09"),
        ("check", "tol = 0", "tol must be positive, got 0.0"),
        ("simulate", "tol = inf", "tol must be finite, got inf"),
        ("tail", "tol = inf", "tol must be finite, got inf"),
    ],
    ids=[
        "tol0", "tol-1e-9", "tol-nan", "max_depth0", "tail-tol0", "limit-tol-nan",
        "support-tol-1e-9", "check-tol0", "tol-inf", "tail-tol-inf",
    ],
)
def test_cli_backward_tol_and_max_depth_must_be_positive(tmp_path, capsys, verb, setting, message):
    # tol = 0 sampled for seconds until the storage guard tripped (exit 4),
    # tol = nan ran every member to max_depth (exit 3), max_depth = 0
    # exited 3, and tol = inf stopped every member at depth 1 (exit 0);
    # each is refused before any sampling
    text = BENCH_MODEL + "\n[experiment]\ncount = 1000\nn = 64\nreplicas = 256\n" + setting + "\n"
    path = _write(tmp_path, text)
    out = tmp_path / "o"
    assert _run([verb, "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err == f"liprec {verb}: error: [experiment] {message}\n"
    assert not (out / "samples.csv").exists()
    assert not list(out.glob("*.csv"))


# a cheap run that reads each key, as (verb, model, [experiment] settings);
# a key not listed is tried on simulate
_KEY_RUNS = {
    **dict.fromkeys(
        ("solver_tol", "mc_samples", "bracket", "s_grid"), ("cramer", BENCH_MODEL, {})
    ),
    **dict.fromkeys(("alpha", "t_points", "hill_points"), ("tail", BENCH_MODEL, {"count": "2000"})),
    **dict.fromkeys(
        ("epsilon", "max_cloud_depth", "word_guard"),
        ("support", LETAC_MODEL, {"count": "256", "max_cloud_depth": "4"}),
    ),
    **dict.fromkeys(
        ("replicas", "center"),
        ("limit", AFFINE_ALPHA2_MODEL, {"alpha": "1.5", "n": "64", "replicas": "256", "count": "256"}),
    ),
}
# the values each domain admits of nan, inf, -inf, 0 and -1; a finite
# number list takes them in one slot
_KEY_ADMITS = {"seed": ("0",), **dict.fromkeys(("s_grid", "x0", "center"), ("0", "-1"))}
_KEY_TEMPLATES = {"bracket": "{}, 8.0"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize(
    "key", sorted(k for (s, k), (_, domain) in config.KEYS.items() if domain is not None)
)
def test_cli_every_numeric_key_is_checked_before_any_stage(tmp_path, capsys, key, value):
    # each value outside the key's domain exits 2 naming the key, before
    # any stage starts; each inside it starts one
    verb, model, settings = _KEY_RUNS.get(key, ("simulate", AFFINE_ALPHA2_MODEL, {"count": "256"}))
    settings = {**settings, key: _KEY_TEMPLATES.get(key, "{}").format(value)}
    text = model + "\n[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items())
    out = tmp_path / "o"
    code = _run([verb, "--config", _write(tmp_path, text), "--out", out])
    err = capsys.readouterr().err
    if value in _KEY_ADMITS.get(key, ()):
        assert (out / "manifest.jsonl").exists(), err
    else:
        assert code == 2
        assert err.startswith(f"liprec {verb}: error: ") and f"[experiment] {key}" in err
        assert not (out / "manifest.jsonl").exists()


@pytest.mark.parametrize("verb", ["tail", "limit"])
def test_cli_closed_form_mode_without_a_scale_law_exits_2(tmp_path, capsys, verb):
    # arch1 with a normal a has no |M| law, so m_alpha comes from theta
    # draws, which closed_form forbids as it does in cramer; nothing needs
    # to be drawn to know it, so no stage starts
    text = ARCH1_NORMAL_MODEL + (
        "\n[experiment]\nalpha = 2.0\nmode = closed_form\ncount = 2000\nn = 64\nreplicas = 256\n"
    )
    path = _write(tmp_path, text)
    out = tmp_path / "o"
    assert _run([verb, "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err == f"liprec {verb}: error: {_CLOSED_FORM_WHY}\n"
    assert not (out / "manifest.jsonl").exists()


_CLOSED_FORM_WHY = (
    "[experiment] mode = closed_form needs a law of |M|, and this model has none: "
    "its |M| moments are sampled from theta draws"
)
# sqrt_quadratic whose continuous laws allow a redraw of a, so |M| = sqrt(a)
# has no law: a itself is lognormal, whose moments have a closed form
SQRTQUAD_CONDITIONED_MODEL = """\
[model]
family = sqrt_quadratic

[distributions.a]
kind = lognormal
params = -1.5, 1.0

[distributions.b]
kind = uniform
params = -0.6, 0.6

[distributions.c]
kind = constant
params = 1.0
"""


@pytest.mark.parametrize("verb", ["tail", "limit"])
def test_cli_closed_form_mode_names_the_missing_scale_law(tmp_path, capsys, verb):
    text = SQRTQUAD_CONDITIONED_MODEL + (
        "\n[experiment]\nalpha = 2.0\nmode = closed_form\ncount = 2000\nn = 64\nreplicas = 256\n"
    )
    out = tmp_path / "o"
    assert _run([verb, "--config", _write(tmp_path, text), "--out", out]) == 2
    assert capsys.readouterr().err == f"liprec {verb}: error: {_CLOSED_FORM_WHY}\n"
    assert not (out / "manifest.jsonl").exists()


@pytest.mark.parametrize("model", ["arch1", "sqrt_quadratic"])
@pytest.mark.parametrize("verb", ["tail", "limit"])
def test_cli_alpha_solve_without_a_scale_law_exits_2_before_any_stage(
    tmp_path, capsys, verb, model
):
    text = {"arch1": ARCH1_NORMAL_MODEL, "sqrt_quadratic": SQRTQUAD_CONDITIONED_MODEL}[model]
    text += "\n[experiment]\ncount = 2000\nn = 64\nreplicas = 256\n"
    out = tmp_path / "o"
    assert _run([verb, "--config", _write(tmp_path, text), "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"liprec {verb}: error: no representable scale law for this model; set alpha explicitly\n"
    )
    assert not (out / "manifest.jsonl").exists()


@pytest.mark.parametrize("bracket", ["0, 8.0", "-1, 8.0", "3.0, 1.0", "2.0, 2.0"])
@pytest.mark.parametrize("verb", ["cramer", "simulate", "tail", "limit", "support", "check"])
def test_cli_bracket_order_is_checked_before_any_stage(tmp_path, capsys, verb, bracket):
    # on every verb, whether it solves for alpha or not
    model = LETAC_MODEL if verb == "support" else BENCH_MODEL
    text = model + f"\n[experiment]\nalpha = 1.5\ncount = 256\nbracket = {bracket}\n"
    out = tmp_path / "o"
    assert _run([verb, "--config", _write(tmp_path, text), "--out", out]) == 2
    lo, hi = (float(v) for v in bracket.split(","))
    assert capsys.readouterr().err == (
        f"liprec {verb}: error: [experiment] bracket must satisfy 0 < lo < hi, got {lo}, {hi}\n"
    )
    assert not (out / "manifest.jsonl").exists()


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
        # every verb that draws the stationary law checks x0's length
        ("tail", BENCH_MODEL, "x0 = 1, 2"),
        ("limit", BENCH_MODEL, "x0 = 1, 2"),
        ("support", LETAC_MODEL, "x0 = 1, 2"),
        ("check", BENCH_MODEL, "x0 = 1, 2"),
    ],
)
def test_cli_wrong_length_vector_exits_2(tmp_path, capsys, verb, model, setting):
    text = model + "\n[experiment]\nn = 64\nreplicas = 64\ncount = 64\n" + setting + "\n"
    path = _write(tmp_path, text)
    line = text.splitlines().index(setting) + 1
    key = setting.split()[0]
    assert _run([verb, "--config", path, "--out", tmp_path / "o"]) == 2
    assert f"{path}:{line}: [experiment] {key}: expected" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.jsonl").exists()


@pytest.mark.parametrize(
    "verb, model, setting, needle, in_stage",
    [
        ("limit", AFFINE_ALPHA2_MODEL, "alpha = 1.5\nn = 64\nreplicas = 0",
         "[experiment] replicas must be positive, got 0", False),
        ("limit", AFFINE_ALPHA2_MODEL, "alpha = 1.5\nn = 64\nreplicas = -1",
         "[experiment] replicas must be positive, got -1", False),
        ("limit", AFFINE_ALPHA2_MODEL, "alpha = 1.5\nn = 0\nreplicas = 64",
         "[experiment] n must be positive, got 0", False),
        ("limit", AFFINE_ALPHA2_MODEL, "alpha = 2\nn = 1\nreplicas = 64", "needs n >= 2", True),
        ("simulate", BENCH_MODEL, "sampler = forward\ncount = 0",
         "[experiment] count must be positive, got 0", False),
        ("simulate", BENCH_MODEL, "sampler = forward\nn = -1\ncount = 64",
         "[experiment] n must be positive, got -1", False),
    ],
    ids=["replicas0", "replicas-1", "n0", "alpha2-n1", "forward-count0", "forward-n-1"],
)
def test_cli_forward_sizes_exit_2(tmp_path, capsys, verb, model, setting, needle, in_stage):
    # too few steps or chains used to end in a traceback, a division by
    # zero, or (n < 0) samples that were x0 itself. A size below 1 is
    # refused as the config is read; n = 1 at alpha = 2 only in the stage
    path = _write(tmp_path, model + "\n[experiment]\n" + setting + "\n")
    out = tmp_path / "o"
    assert _run([verb, "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"liprec {verb}: error: ") and needle in err
    if not in_stage:
        assert not (out / "manifest.jsonl").exists()
        return
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert entry["status"] == "failed"
    assert entry["error_type"] == "PreconditionError"
    assert entry["exit_code"] == 2
    assert entry["outputs"] == {}


@pytest.mark.parametrize("threads", [1, 2])
def test_cli_forward_domain_error_stops_every_turn(tmp_path, capsys, monkeypatch, threads):
    # scale ~ normal(0.5, 0.2) is not positive in about 0.6% of draws, so
    # the first chunk of each of the ten blocks fails its domain check;
    # each worker stops at its first failing turn and starts no other
    turn = chains._forward_block
    lock = threading.Lock()
    log = []

    def watched(spec, block, n):
        with lock:
            log.append("start")
        try:
            return turn(spec, block, n)
        except DomainError:
            with lock:
                log.append("raise")
            raise

    monkeypatch.setattr(chains, "_forward_block", watched)
    model = AFFINE_ALPHA2_MODEL.replace(
        "kind = lognormal\nparams = -1.0, 1.0", "kind = normal\nparams = 0.5, 0.2"
    )
    assert model != AFFINE_ALPHA2_MODEL
    text = model + "\n[experiment]\nsampler = forward\nn = 64\ncount = 40000\n"
    path = _write(tmp_path, text)
    out = tmp_path / "o"
    assert _run(["simulate", "--config", path, "--out", out, "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err == "liprec simulate: error: affine parameter scale must be positive\n"
    assert log.count("start") == log.count("raise") <= threads
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert (entry["status"], entry["error_type"], entry["exit_code"]) == (
        "failed", "DomainError", 2
    )
    assert entry["outputs"] == {}


@pytest.mark.parametrize("center", ["nan", "inf", "-inf"])
def test_cli_limit_refuses_a_center_that_is_not_finite(tmp_path, capsys, center):
    # a non-finite center used to run every chain, write non-finite
    # samples and then blame [experiment] replicas; it is refused as the
    # config is read, before any stage
    text = f"alpha = 1.5\nn = 100\nreplicas = 1000\ncenter = {center}"
    path = _write(tmp_path, AFFINE_ALPHA2_MODEL + "\n[experiment]\n" + text + "\n")
    out = tmp_path / "o"
    assert _run(["limit", "--config", path, "--out", out]) == 2
    message = f"[experiment] center must be finite, got {center}"
    assert capsys.readouterr().err == f"liprec limit: error: {message}\n"
    assert not (out / "manifest.jsonl").exists()


def test_cli_limit_refuses_too_few_replicas_before_sampling(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("birkhoff_sums called")

    monkeypatch.setattr(chains, "birkhoff_sums", refuse)
    text = "alpha = 1.5\nn = 100\nreplicas = 100"
    path = _write(tmp_path, AFFINE_ALPHA2_MODEL + "\n[experiment]\n" + text + "\n")
    out = tmp_path / "o"
    assert _run(["limit", "--config", path, "--out", out]) == 2
    assert "[experiment] replicas = 100: the stable index fit needs" in capsys.readouterr().err
    assert not (out / "limit_samples.csv").exists()


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


@pytest.mark.parametrize("verb", [verb for verb, _ in cli._VERBS])
def test_cli_negative_seed_exits_2(tmp_path, capsys, verb):
    # a negative seed names no stream: it used to fail inside the stage and
    # leave a failed record. The flag is checked before the config is
    # read, so a missing config file is never reached
    out = tmp_path / "o"
    assert _run([verb, "--config", tmp_path / "none.cfg", "--out", out, "--seed", -1]) == 2
    assert capsys.readouterr().err == f"liprec {verb}: error: --seed must be nonnegative, got -1\n"
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
    # the exact sampler's thread invariance is acceptance check 11's
    text = BENCH_MODEL + "\n[experiment]\ncount = 40000\nsampler = backward\n"
    path = _write(tmp_path, text)
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
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 500\nsampler = backward\n")
    out = tmp_path / "o"
    assert _run(["simulate", "--config", path, "--out", out]) == 0
    assert _header(out / "samples.csv") == "x1,stop_depth,residual_bound"
    body = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
    assert body.shape == (500, 3)
    assert np.all(body[:, 2] <= 1e-9)


def test_csv_schemas_simulate_exact(tmp_path):
    # the default sampler on the benchmark model: same columns, and every
    # residual is exactly 0
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 500\n")
    out = tmp_path / "o"
    assert _run(["simulate", "--config", path, "--out", out]) == 0
    rows = (out / "samples.csv").read_text().splitlines()
    assert rows[0] == "x1,stop_depth,residual_bound"
    assert len(rows) == 501
    assert all(r.endswith(",0.0") for r in rows[1:])
    body = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
    assert np.all(body[:, 0] >= 1.0) and np.all(body[:, 1] >= 1)


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
    why = "expected one of auto, stationary_mean or a number, got 'abc'"
    message = f"{bad}:17: [experiment] center: {why}"
    assert capsys.readouterr().err == f"liprec limit: error: {message}\n"
    assert not (out / "manifest.jsonl").exists()


SQRTQUAD_ATOMIC_MODEL = """\
[model]
family = sqrt_quadratic

[distributions.a]
kind = discrete
atoms = 0.25, 1.0

[distributions.b]
kind = discrete
atoms = -3.0, 0.2

[distributions.c]
kind = constant
params = 1.0
"""


def test_cli_atom_tuples_outside_the_domain_are_dropped(tmp_path, capsys):
    # (0.25, -3, 1) and (1, -3, 1) break b^2 - 4ac < 0: the sampler never
    # draws them, and the enumerated law drops them too, so `check` no
    # longer computes a nan bound for them and `support` no longer builds
    # their maps
    path = _write(tmp_path, SQRTQUAD_ATOMIC_MODEL + "\n[experiment]\ncount = 2000\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for verb in ("check", "support"):
            out = tmp_path / verb
            assert _run([verb, "--config", path, "--out", out, "--seed", 3]) == 0
            for table in out.glob("*.csv"):
                for row in _table(table):
                    for v in row.values():
                        try:
                            assert math.isfinite(float(v))
                        except ValueError:
                            pass  # a name or a detail
    assert len(_table(tmp_path / "support" / "support.csv")) > 0
    # with no tuple in the domain, both refuse before any stage
    bad = SQRTQUAD_ATOMIC_MODEL.replace("atoms = -3.0, 0.2", "atoms = -3.0, 2.0")
    path = _write(tmp_path, bad + "\n[experiment]\ncount = 2000\n", "bad.cfg")
    capsys.readouterr()
    for verb in ("check", "support"):
        out = tmp_path / f"bad-{verb}"
        assert _run([verb, "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "[distributions.a], [distributions.b], [distributions.c]" in err
        assert not (out / "manifest.jsonl").exists()


def test_cli_cramer_solves_the_scale_law_the_sampler_draws(tmp_path, capsys):
    # a in {0.09, 2.25}, b in {-0.7, 0.2}, c = 1: the sampler redraws
    # (0.09, -0.7, 1), so sqrt(a) is 0.3 with probability 1/3 and 1.5 with
    # 2/3. The law of a before conditioning gave alpha = 1.497376
    text = SQRTQUAD_ATOMIC_MODEL.replace("0.25, 1.0", "0.09, 2.25").replace("-3.0, 0.2", "-0.7, 0.2")
    assert _run(["cramer", "--config", _write(tmp_path, text), "--out", tmp_path / "o"]) == 0
    sol = _table(tmp_path / "o" / "cramer_solution.csv")[0]
    lo, hi = 0.05, 8.0  # the default bracket; log E|M|^s falls, then rises through 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if 0.3**mid / 3 + 2 * 1.5**mid / 3 > 1 else (mid, hi)
    assert abs(float(sol["alpha"]) - lo) <= float(sol["solver_tolerance"])
    assert round(lo, 6) == 0.508232
    # with b continuous the conditioned law of a has no closed form: cramer
    # refuses it, and tail reads m_alpha from the conditioned sampler's draws
    cont = text.replace("kind = discrete\natoms = -0.7, 0.2", "kind = uniform\nparams = -0.7, 0.2")
    cont += "\n[experiment]\nalpha = 2.0\ncount = 2000\nmc_samples = 100000\n"
    path = _write(tmp_path, cont, "c.cfg")
    capsys.readouterr()
    assert _run(["cramer", "--config", path, "--out", tmp_path / "c"]) == 2
    assert capsys.readouterr().err == (
        "liprec cramer: error: no representable scale law; the moment curve needs one\n"
    )
    # sqrt(a) still takes at most two values, so the nonarithmetic gate
    # holds, and check still reports the risk
    assert _run(["tail", "--config", path, "--out", tmp_path / "t"]) == 5
    assert _run(["check", "--config", path, "--out", tmp_path / "k"]) == 0
    rows = {r["name"]: r for r in _table(tmp_path / "k" / "check.csv")}
    assert (rows["nonarithmetic_scale"]["value"], rows["nonarithmetic_scale"]["passed"]) == (
        "2.0", "false"
    )
    path = _write(tmp_path, cont + "\n[assertions]\nnonarithmetic = true\n", "t.cfg")
    assert _run(["tail", "--config", path, "--out", tmp_path / "t"]) == 0
    gold = _table(tmp_path / "t" / "goldie.csv")[0]
    assert float(gold["alpha"]) == 2.0 and float(gold["m_alpha"]) > 0


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


# each verb besides simulate that draws the stationary law, on a model it
# runs on; limit centers at the stationary mean, so it draws its pilot
_DRAW_RUNS = {
    "tail": (BENCH_MODEL, "count = 2000\n"),
    "limit": (BENCH_MODEL, "count = 2000\nn = 64\nreplicas = 256\ncenter = stationary_mean\n"),
    "support": (LETAC_MODEL, "count = 2000\nmax_cloud_depth = 4\n"),
    "check": (BENCH_MODEL, "count = 2000\nmc_samples = 2000\n"),
}


def _draw_run(tmp_path, verb, settings, model=None):
    """(exit code, output dir) of `verb` on its _DRAW_RUNS config plus `settings`."""
    own_model, own = _DRAW_RUNS[verb]
    text = (model or own_model) + "\n[experiment]\n" + own + settings
    out = tmp_path / "o"
    return _run([verb, "--config", _write(tmp_path, text), "--out", out]), out


@pytest.mark.parametrize("verb", list(_DRAW_RUNS))
def test_cli_max_depth_caps_every_backward_draw(tmp_path, capsys, verb):
    # tail, limit, support and check ignored max_depth and exited 0
    code, out = _draw_run(tmp_path, verb, "sampler = backward\nmax_depth = 1\n")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"liprec {verb}: error: backward iteration hit max_depth=1 ")
    entry = json.loads((out / "manifest.jsonl").read_text().splitlines()[-1])
    assert (entry["stage"], entry["status"], entry["exit_code"]) == (verb, "failed", 3)


@pytest.mark.parametrize("verb", list(_DRAW_RUNS))
def test_cli_x0_under_the_default_exact_sampler_exits_2(tmp_path, capsys, verb):
    # the benchmark model's default sampler is exact, which has no start
    # point; tail, limit, support and check ignored x0 and ran
    code, out = _draw_run(tmp_path, verb, "x0 = 5.0\n", model=BENCH_MODEL)
    assert code == 2
    assert capsys.readouterr().err == (
        f"liprec {verb}: error: [experiment] x0: the exact sampler has no start "
        "point; set sampler = backward to iterate from x0\n"
    )
    assert not (out / "manifest.jsonl").exists()


@pytest.mark.parametrize("verb", list(_DRAW_RUNS))
def test_cli_backward_draw_starts_at_x0_with_the_configured_max_depth(
    tmp_path, monkeypatch, verb
):
    real = chains.stationary_batch
    seen = []

    def recorded(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs).arguments
        seen.append(tuple(bound.get(k) for k in ("sampler", "x0", "max_depth")))
        return real(*args, **kwargs)

    monkeypatch.setattr(chains, "stationary_batch", recorded)
    runs = {"set": "sampler = backward\nx0 = 0.25\nmax_depth = 3000\n", "default": ""}
    for name, settings in runs.items():
        (tmp_path / name).mkdir()
        code, _ = _draw_run(tmp_path / name, verb, settings)
        assert code == 0
    # by default the benchmark model is drawn exactly, and no run sets x0
    default = "exact" if _DRAW_RUNS[verb][0] == BENCH_MODEL else "backward"
    assert seen == [("backward", 0.25, 3000), (default, None, chains.DEFAULT_MAX_DEPTH)]


@pytest.mark.parametrize("verb", list(_DRAW_RUNS))
def test_cli_forward_sampler_outside_simulate_exits_2(tmp_path, capsys, verb):
    # tail, limit, support and check ran the backward engine instead
    code, out = _draw_run(tmp_path, verb, "sampler = forward\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"liprec {verb}: error: [experiment] sampler = forward runs only in simulate\n"
    )
    assert not (out / "manifest.jsonl").exists()


# L = gamma + sqrt(lambda) |a| = 1.1 on every draw, so no count, tol or
# max_depth lets the backward sampler stop
_NO_CONTRACTION_ARCH1 = """\
[model]
family = arch1
gamma = 0.1
beta = 1.0
lambda = 1.0

[distributions.a]
kind = discrete
atoms = -1, 1
"""
_NO_CONTRACTION = (
    "no running Lipschitz product has fallen below 1: these maps do not contract, "
    "so no count, tol or max_depth will help\n"
)


def test_cli_backward_guards_say_when_the_maps_do_not_contract(tmp_path, capsys, monkeypatch):
    # both guards advised more of what cannot help: a lower count or a
    # larger tol, or (by its running bound) a larger max_depth; a smaller
    # draw budget trips the storage guard at step 51, not 33555
    monkeypatch.setattr(chains, "_STORAGE_CAP", 4000 * 50)
    path = _write(tmp_path, _NO_CONTRACTION_ARCH1 + "\n[experiment]\ncount = 4000\n")
    assert _run(["simulate", "--config", path, "--out", tmp_path / "cap"]) == 4
    assert capsys.readouterr().err == (
        "liprec simulate: error: backward draw storage guard tripped; " + _NO_CONTRACTION
    )
    text = _NO_CONTRACTION_ARCH1 + "\n[experiment]\ncount = 100\nmax_depth = 2000\n"
    path = _write(tmp_path, text)
    assert _run(["simulate", "--config", path, "--out", tmp_path / "depth"]) == 3
    assert capsys.readouterr().err == (
        "liprec simulate: error: backward iteration hit max_depth=2000 with running "
        "bound still 6.101e+82 * envelope >= tol=1e-09; " + _NO_CONTRACTION
    )


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
    # extremal carries its composed map
    _check_simulate_manifest(tmp_path, "sampler = backward\n", "composite")
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


def test_manifest_records_the_exact_sampler(tmp_path):
    # the default where the model admits an exact draw
    _check_simulate_manifest(tmp_path, "", "exact")


def _check_simulate_manifest(tmp_path, sampler, form):
    path = _write(tmp_path, BENCH_MODEL + "\n[experiment]\ncount = 300\n" + sampler)
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
        "backward_form": form,
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
    # one block: each member draws one theta (exact: one normal) per step
    # down to its depth
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
