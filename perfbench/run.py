"""liprec benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a liprec checkout; the package is imported from
`src/`. Each invocation is one `liprec` verb in a fresh process
(perfbench/child.py), one at a time, with `--threads 2` and the workload
seed as `--seed`. Outputs are checked after every invocation and their
sha256s recorded. The last stdout line is the result JSON; the full
record (machine, toolchain, per-invocation times, sha256s, trace) is the
line before it and is also written to .perfbench_work/records/.

--trace 0: closed loop of untraced invocations for S seconds (at least
MIN_INVOCATIONS); reports the median setup_s, run_s and run_cpu_s and
the largest peak RSS.
--trace 1: one untraced and two traced invocations (2 and 1 threads);
reports the per-layer metrics of the 2-thread traced one and checks that
all three wrote the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

from tracer import SVG_PLOTS
from workloads import THREADS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_INVOCATIONS = 3
RUN_CAP_S = 170.0  # a run must end within 180 s
UNSTABLE_OUTPUTS = ("manifest.jsonl",)  # carries wall times and the thread count


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _import_times(stderr):
    """Cumulative import time in seconds per module, from -X importtime."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        times[parts[2].strip()] = int(parts[1]) / 1e6
    return times


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(
            root, ".perfbench_work", f"{workload.name}-seed{seed}-pid{os.getpid()}"
        )
        os.makedirs(self.work, exist_ok=True)
        self.config = os.path.join(self.work, "bench.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(workload.config)
        self.started = time.monotonic()
        self.invocations = []

    def invoke(self, threads, traced):
        """Run the verb once in a fresh process, check and hash its outputs."""
        tag = len(self.invocations)
        out = os.path.join(self.work, f"out{tag}")
        result_path = os.path.join(self.work, f"result{tag}.json")
        argv = [
            self.workload.verb, "--config", self.config, "--seed", str(self.seed),
            "--out", out, "--threads", str(threads),
        ]
        interp = [sys.executable] + (["-X", "importtime"] if traced else [])
        env = dict(os.environ, PYTHONPATH=self.src)
        timeout = max(1.0, RUN_CAP_S - (time.monotonic() - self.started))
        inv = {
            "threads": threads, "traced": traced, "problems": [], "outputs": {},
        }
        mode = "traced" if traced else "plain"
        spawn_t = time.monotonic()
        cmd = interp + [
            os.path.join(HERE, "child.py"), repr(spawn_t), result_path,
            mode, "--", *argv,
        ]
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=self.root, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            inv["problems"].append(f"timed out after {timeout:.0f} s")
        else:
            inv["wall_s"] = time.monotonic() - spawn_t
            inv["exit_code"] = proc.returncode
            if proc.returncode != 0 or not os.path.exists(result_path):
                tail = proc.stderr.strip().splitlines()[-3:]
                inv["problems"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
            else:
                self._read_result(inv, result_path, proc.stderr, out)
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                inv["outputs"][name] = _sha256(os.path.join(out, name))
        shutil.rmtree(out, ignore_errors=True)
        self.invocations.append(inv)
        return inv

    def _read_result(self, inv, result_path, stderr, out):
        with open(result_path, encoding="utf-8") as fh:
            inv.update(json.load(fh))
        if not inv["liprec_file"].startswith(self.src + os.sep):
            inv["problems"].append(f"liprec imported from {inv['liprec_file']}, not {self.src}")
        if inv["traced"]:
            inv["import_s"] = _import_times(stderr)
        try:
            inv["problems"] += self.workload.check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            inv["problems"].append(f"output check raised {exc!r}")

    def check_same_bytes(self):
        """Every invocation that wrote outputs must match the first one's bytes."""
        ref = None
        for i, inv in enumerate(self.invocations):
            if not inv["outputs"]:
                continue
            stable = {k: v for k, v in inv["outputs"].items() if k not in UNSTABLE_OUTPUTS}
            if ref is None:
                ref = (i, inv["threads"], stable)
            elif stable != ref[2]:
                changed = sorted(k for k in set(stable) | set(ref[2]) if stable.get(k) != ref[2].get(k))
                inv["problems"].append(
                    f"outputs {changed} at {inv['threads']} threads differ from "
                    f"invocation {ref[0]} at {ref[1]} threads"
                )

    def elapsed(self):
        return time.monotonic() - self.started


def timed_run(bench, seconds):
    """End-to-end metrics over a closed loop of invocations.

    `setup_s`, `run_s` and `run_cpu_s` are medians over the invocations.
    `peak_rss_mb` is the largest: it depends on how the worker threads'
    blocks overlap in time, and the largest is what a user must
    provision. A new invocation starts only if the last one's time says
    it ends within `seconds`, but there are at least MIN_INVOCATIONS.
    """
    while True:
        round_t = bench.elapsed()
        bench.invoke(THREADS, traced=False)
        round_s = bench.elapsed() - round_t
        if bench.elapsed() + 1.5 * round_s > RUN_CAP_S:
            break
        if len(bench.invocations) >= MIN_INVOCATIONS and bench.elapsed() + round_s > seconds:
            break
    bench.check_same_bytes()
    ok = [inv for inv in bench.invocations if not inv["problems"]]
    timed = [inv for inv in bench.invocations if "run_s" in inv]
    if not timed:
        raise BenchError("no invocation produced a measurement")
    run_s = statistics.median(inv["run_s"] for inv in timed)
    return {
        "setup_s": (statistics.median(inv["setup_s"] for inv in timed), "s"),
        "run_s": (run_s, "s"),
        "run_cpu_s": (statistics.median(inv["run_cpu_s"] for inv in timed), "s"),
        "throughput": (bench.workload.items / run_s, "items/s"),
        "peak_rss_mb": (max(inv["peak_rss_mb"] for inv in timed), "MB"),
        "ok_frac": (len(ok) / len(bench.invocations), "fraction"),
    }


def _chains_wall(spans):
    return sum(spans.get(n, [0, 0.0, 0.0])[1] for n in ("chains.stationary_batch", "chains.birkhoff_sums"))


def layer_metrics(plain, traced2, traced1):
    """Per-layer metrics from the 2-thread traced invocation.

    Busy and self times named *_s with unit thread-s are summed over the
    worker threads and can exceed wall time.
    """
    spans = traced2["trace"]["spans"]
    counters = traced2["trace"]["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    drawn = counters.get("chains.theta_drawn", 0)
    used = counters.get("chains.theta_used", 0)
    samples = counters.get("chains.samples", 0)
    wall1 = _chains_wall(traced1["trace"]["spans"])
    wall2 = _chains_wall(spans)
    imports = traced2.get("import_s", {})
    return {
        "chains.backward_s": (busy("chains.stationary_batch"), "s"),
        "chains.backward_self_s": (self_s("chains._backward_block"), "thread-s"),
        "chains.theta_drawn": (drawn, "count"),
        "chains.theta_used": (used, "count"),
        "chains.draw_efficiency": (used / drawn if drawn else 0.0, "ratio"),
        "chains.stop_depth_mean": (used / samples if samples else 0.0, "steps"),
        "chains.stop_depth_max": (counters.get("chains.stop_depth_max", 0), "steps"),
        "chains.birkhoff_s": (busy("chains.birkhoff_sums"), "s"),
        "chains.birkhoff_self_s": (self_s("chains._forward_block"), "thread-s"),
        "chains.blocks": (calls("chains._backward_block") + calls("chains._forward_block"), "count"),
        "chains.speedup_2t": (wall1 / wall2 if wall2 else 0.0, "x"),
        "models.sample_theta_s": (busy("models.sample_theta"), "thread-s"),
        "models.sample_theta_calls": (calls("models.sample_theta"), "count"),
        "models.apply_s": (busy("models.apply"), "thread-s"),
        "models.apply_calls": (calls("models.apply"), "count"),
        "models.lipschitz_bound_calls": (calls("models.lipschitz_bound"), "count"),
        "randomness.sample_s": (busy("randomness.sample"), "thread-s"),
        "randomness.sample_calls": (calls("randomness.sample"), "count"),
        "tails.report_s": (busy("tails.tail_report"), "s"),
        "tails.hill_s": (busy("tails.hill_curve"), "s"),
        "tails.hill_rungs": (calls("tails.hill_estimator"), "count"),
        "tails.goldie_s": (busy("tails.goldie_constant"), "s"),
        "tails.survival_s": (busy("tails.survival_curve"), "s"),
        "experiments.write_csv_s": (busy("experiments.write_csv"), "s"),
        "experiments.runner_self_s": (self_s("experiments.runner"), "s"),
        "experiments.csv_bytes": (counters.get("experiments.csv_bytes", 0), "bytes"),
        "support.enumerate_s": (busy("support.enumerate_fixed_points"), "s"),
        "support.cloud_points": (counters.get("support.cloud_points", 0), "count"),
        "support.coverage_s": (busy("support.coverage_check"), "s"),
        "support.frontier_s": (busy("support.closure_frontier"), "s"),
        "stable.index_fit_s": (busy("stable.stable_index_fit"), "s"),
        "stable.empirical_cf_s": (busy("stable.empirical_cf"), "s"),
        "stable.normalize_s": (busy("stable.normalize_birkhoff"), "s"),
        "cramer.solve_s": (busy("cramer.solve_cramer"), "s"),
        "config.load_s": (busy("config.load_config") + busy("config.build_model"), "s"),
        "svgplots.write_s": (sum(busy(f"svgplots.{n}") for n in SVG_PLOTS), "s"),
        "svgplots.bytes": (counters.get("svgplots.bytes", 0), "bytes"),
        "stable.import_s": (imports.get("liprec.stable", 0.0), "s"),
        "support.import_s": (imports.get("liprec.support", 0.0), "s"),
        "liprec.import_s": (imports.get("liprec", 0.0), "s"),
        "trace.overhead_s": (traced2["run_s"] - plain["run_s"], "s"),
    }


def traced_run(bench):
    """Per-layer metrics, plus the 1- vs 2-thread and traced vs untraced byte check."""
    plain = bench.invoke(THREADS, traced=False)
    traced2 = bench.invoke(THREADS, traced=True)
    traced1 = bench.invoke(1, traced=True)
    bench.check_same_bytes()
    if any("run_s" not in inv for inv in (plain, traced2, traced1)):
        raise BenchError("a traced-run invocation produced no measurement")
    return layer_metrics(plain, traced2, traced1)


def machine_info():
    info = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = "missing"
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip()] = value.strip()
    return info


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "liprec", "__init__.py")):
        print(f"perfbench: no liprec source under {root}/src; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = Bench(root, workload, args.seed)
    try:
        metrics = traced_run(bench) if args.trace else timed_run(bench, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        for inv in bench.invocations:
            for problem in inv["problems"]:
                print(f"perfbench: {problem}", file=sys.stderr)
    failed = sum(1 for inv in bench.invocations if inv["problems"])
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "threads": THREADS,
        "size": workload.size,
        "items": workload.items,
        "machine": machine_info(),
        "invocations": bench.invocations,
    }
    records = os.path.join(root, ".perfbench_work", "records")
    os.makedirs(records, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(records, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.invocations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
