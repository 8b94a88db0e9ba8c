"""One `liprec` CLI invocation in a fresh process, timed from outside.

    python3 perfbench/child.py SPAWN_T RESULT_JSON MODE -- <liprec argv>

SPAWN_T is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so `setup_s` covers
interpreter start, `import liprec.cli`, config parsing and model
building. `run_s` is the wall time of `cli.main(argv)` and `run_cpu_s`
its CPU time summed over threads. MODE is `plain` or `traced` (the tracer
is installed after set-up and its summary is added). The measurements go to
RESULT_JSON; the process exits with cli.main's code.
"""

import json
import os
import resource
import sys
import time


def _cpu_s():
    """User plus system CPU time of this process, all threads."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    spawn_t = float(sys.argv[1])
    result_path = sys.argv[2]
    mode = sys.argv[3]
    argv = sys.argv[5:]
    config_path = argv[argv.index("--config") + 1]

    import liprec.cli as cli
    from liprec import config

    config.build_model(config.load_config(config_path))
    setup_s = time.monotonic() - spawn_t

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(argv[0])

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - t0
    run_cpu_s = _cpu_s() - cpu0

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "liprec_file": os.path.abspath(cli.__file__),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
