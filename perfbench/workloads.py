"""Benchmark workloads: config text, stated size, output checks.

Each workload is one `liprec` verb on one fixed model. The workload seed
is passed to the verb as `--seed`; the config never changes with it.
A check returns a list of problems, empty when the outputs are right.
`tail-1m` is runnable but not in BENCHMARK.json: its run time is bimodal
across seeds (see perfbench/README.md). `tail-smooth-1m` is the gated
tail workload: the same pipeline on a law of b without atoms.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

THREADS = 2

_EXTREMAL = """\
[model]
family = extremal

[distributions.a]
kind = lognormal
params = -0.75, 1.0

[distributions.b]
kind = constant
params = 1.0
"""

# The extremal model with b ~ uniform(1, 2): the same a, so alpha = 1.5,
# but the stationary law has no atom, so the Hill ladder sees no ties.
_EXTREMAL_SMOOTH = _EXTREMAL.replace(
    "kind = constant\nparams = 1.0\n", "kind = uniform\nparams = 1.0, 2.0\n"
)

_AFFINE = """\
[model]
family = affine

[distributions.scale]
kind = lognormal
params = -0.75, 1.0

[distributions.shift]
kind = constant
params = 1.0
"""

_LETAC = """\
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

# `tail` bisects the closed-form moment curve to the solver's default
# tolerance, 1e-6 (liprec.cramer.CLOSED_FORM_TOL), so alpha is 1.5 to
# within that, not to machine precision.
ALPHA_TOL = 1e-6
SIMULATE_COUNT = 400_000
SIMULATE_TOL = 1e-9
LIMIT_N = 10_000
LIMIT_REPLICAS = 10_000
SUPPORT_DEPTH = 13


def _rows(out_dir, name):
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_tail(out_dir):
    problems = []
    gold = _rows(out_dir, "goldie.csv")[0]
    alpha = float(gold["alpha"])
    if not abs(alpha - 1.5) <= ALPHA_TOL:
        problems.append(f"alpha {alpha!r} is not 1.5 to within {ALPHA_TOL:g}")
    hill = _rows(out_dir, "hill.csv")
    top = max(hill, key=lambda r: int(r["k"]))
    a_hat = float(top["alpha_hat"])
    if not 1.35 <= a_hat <= 1.65:
        problems.append(f"hill alpha_hat {a_hat} at k={top['k']} outside [1.35, 1.65]")
    plateau = float(np.median([float(r["t_alpha_p"]) for r in _rows(out_dir, "tail_survival.csv")]))
    c = float(gold["C"])
    if not abs(c / plateau - 1.0) <= 0.15:
        problems.append(f"tail constant {c} not within 15% of plateau median {plateau}")
    return problems


def _check_simulate(out_dir):
    problems = []
    path = os.path.join(out_dir, "samples.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != "x1,stop_depth,residual_bound":
        return [f"samples.csv header {header!r}"]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (SIMULATE_COUNT, 3):
        return [f"samples.csv has shape {table.shape}, want ({SIMULATE_COUNT}, 3)"]
    x, depth, bound = table.T
    if not np.all(bound < SIMULATE_TOL):
        problems.append(f"{int(np.sum(bound >= SIMULATE_TOL))} residual bounds >= tol")
    if not np.all(depth >= 1):
        problems.append(f"{int(np.sum(depth < 1))} stop depths below 1")
    if not np.all(x >= 1.0):
        problems.append(f"{int(np.sum(x < 1.0))} samples below 1")
    return problems


def _check_limit(out_dir):
    fit = {r["statistic"]: r["value"] for r in _rows(out_dir, "limit_fit.csv")}
    a_hat = float(fit["alpha_hat"])
    if not abs(a_hat - 1.5) <= 0.15:
        return [f"alpha_hat {a_hat} not within 0.15 of 1.5"]
    return []


def _check_support(out_dir):
    problems = []
    pts = np.sort([float(r["x1"]) for r in _rows(out_dir, "support.csv")])
    want = np.array([-5.0 / 6.0, 0.0])
    if pts.shape != want.shape or not np.all(np.abs(pts - want) <= 1e-9):
        problems.append(f"cloud {pts.tolist()} is not {{-5/6, 0}} to within 1e-9")
    cov = float(_rows(out_dir, "support_coverage.csv")[0]["fraction_covered"])
    if cov != 1.0:
        problems.append(f"coverage {cov} is not 1.0")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    config: str
    items: int  # work items per invocation, the unit of `throughput`
    size: str
    check: Callable[[str], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tail-1m",
            verb="tail",
            config=_EXTREMAL + "\n[experiment]\ncount = 1000000\n\n[output]\nsvg = true\n",
            items=1_000_000,
            size="1e6 certified backward samples; item = one sample",
            check=_check_tail,
        ),
        Workload(
            name="tail-smooth-1m",
            verb="tail",
            config=_EXTREMAL_SMOOTH + "\n[experiment]\ncount = 1000000\n\n[output]\nsvg = true\n",
            items=1_000_000,
            size="1e6 certified backward samples, b ~ uniform(1, 2); item = one sample",
            check=_check_tail,
        ),
        Workload(
            name="simulate-400k",
            verb="simulate",
            config=_EXTREMAL
            + f"\n[experiment]\ncount = {SIMULATE_COUNT}\ntol = {SIMULATE_TOL!r}\n",
            items=SIMULATE_COUNT,
            size="4e5 certified backward samples written as CSV; item = one sample",
            check=_check_simulate,
        ),
        Workload(
            name="limit-affine",
            verb="limit",
            config=_AFFINE
            + f"\n[experiment]\nn = {LIMIT_N}\nreplicas = {LIMIT_REPLICAS}\n\n[output]\nsvg = true\n",
            items=LIMIT_N * LIMIT_REPLICAS,
            size="n = 1e4 steps x 1e4 replicas of forward chains; item = one chain step",
            check=_check_limit,
        ),
        Workload(
            name="support-letac",
            verb="support",
            config=_LETAC
            + f"\n[experiment]\nmax_cloud_depth = {SUPPORT_DEPTH}\ncount = 100000\n\n[output]\nsvg = true\n",
            items=2 ** (SUPPORT_DEPTH + 1) - 2,
            size="all two-atom words up to depth 13 plus 1e5 coverage samples; item = one word",
            check=_check_support,
        ),
    )
}
