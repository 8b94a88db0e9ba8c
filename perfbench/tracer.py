"""Per-layer spans and counters for one liprec process.

The tracer wraps functions of the imported `liprec` modules from outside
the package: every reference to a hooked function in any `liprec`
module namespace (and in `experiments.RUNNERS`) is replaced by a timing
wrapper. Each thread keeps its own span stack, so a span's self time is
its duration minus the spans it called on the same thread. Busy and
self times are summed over threads. Spans and counters stay in memory
until `summary()`.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

_BACKWARD_BLOCK = "chains._backward_block"


def _draw_size(args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


def _after_sample_theta(tracer, parent, args, kwargs, result):
    if parent == _BACKWARD_BLOCK:
        tracer.count("chains.theta_drawn", _draw_size(args, kwargs))


def _after_stationary_batch(tracer, parent, args, kwargs, result):
    depths = result.stop_depths
    tracer.count("chains.theta_used", int(depths.sum()))
    tracer.count("chains.samples", int(depths.size))
    tracer.maximum("chains.stop_depth_max", int(depths.max()))


def _after_enumerate(tracer, parent, args, kwargs, result):
    tracer.count("support.cloud_points", len(result.points))


def _after_write_csv(tracer, parent, args, kwargs, result):
    tracer.count("experiments.csv_bytes", os.path.getsize(os.path.join(args[0], args[1])))


def _after_svg(tracer, parent, args, kwargs, result):
    tracer.count("svgplots.bytes", os.path.getsize(args[0]))


SVG_PLOTS = ("survival_plot", "hill_plot", "cf_plot", "qq_plot", "cloud_plot", "kappa_plot")

# (module, function, after-hook); private names are the per-block worker
# functions, whose spans run on the pool threads.
HOOKS = (
    ("config", "load_config", None),
    ("config", "build_model", None),
    ("randomness", "sample", None),
    ("models", "sample_theta", _after_sample_theta),
    ("models", "apply", None),
    ("models", "lipschitz_bound", None),
    ("chains", "stationary_batch", _after_stationary_batch),
    ("chains", "birkhoff_sums", None),
    ("chains", "_backward_block", None),
    ("chains", "_forward_block", None),
    ("cramer", "solve_cramer", None),
    ("tails", "tail_report", None),
    ("tails", "hill_curve", None),
    ("tails", "hill_estimator", None),
    ("tails", "goldie_constant", None),
    ("tails", "survival_curve", None),
    ("stable", "stable_index_fit", None),
    ("stable", "empirical_cf", None),
    ("stable", "normalize_birkhoff", None),
    ("support", "enumerate_fixed_points", _after_enumerate),
    ("support", "coverage_check", None),
    ("support", "closure_frontier", None),
    ("experiments", "write_csv", _after_write_csv),
    *(("svgplots", name, _after_svg) for name in SVG_PLOTS),
)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tables = []
        self.counters = {}
        self.missing = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def count(self, name, value):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name, fn, after=None):
        """Return fn timed as span `name`; `after` sees each call's result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = tracer._thread_state()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                row = table.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
            if after is not None:
                after(tracer, parent, args, kwargs, result)
            return result

        return traced

    def install(self, verb):
        """Hook HOOKS and the runner for `verb` into the loaded liprec modules."""
        loaded = [m for n, m in sys.modules.items() if n == "liprec" or n.startswith("liprec.")]
        experiments = sys.modules["liprec.experiments"]
        for mod_name, fn_name, after in HOOKS:
            fn = getattr(sys.modules.get(f"liprec.{mod_name}"), fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = self.wrap(f"{mod_name}.{fn_name}", fn, after)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)
        runner = experiments.RUNNERS[verb]
        experiments.RUNNERS[verb] = self.wrap("experiments.runner", runner)

    def summary(self):
        """{"spans": {name: [calls, busy_s, self_s]}, "counters", "missing"}."""
        spans = {}
        with self._lock:
            for table in self._tables:
                for name, (calls, busy, self_s) in table.items():
                    row = spans.setdefault(name, [0, 0.0, 0.0])
                    row[0] += calls
                    row[1] += busy
                    row[2] += self_s
            counters = dict(self.counters)
        return {"spans": spans, "counters": counters, "missing": list(self.missing)}
