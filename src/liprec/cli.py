"""Command line front end.

Six verbs share the same flags: --config (required), --seed (overrides
the config seed, at least 0), --out (output directory) and --threads (at
least 1).
Exit codes: 0 success, 2 configuration or domain problem, 3 convergence
failure, 4 capacity guard, 5 missing assertion flag. On success the CLI
prints the summary lines the verb's runner returns; on failure, one
error line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from ._version import VERSION
from .config import load_config
from .errors import ConfigError, LiprecError

_VERBS = (
    ("cramer", "solve the moment-curve root and tabulate the curve"),
    ("simulate", "draw certified stationary samples or forward endpoints"),
    ("tail", "survival curve, Hill ladder and the tail constant"),
    ("limit", "normalized Birkhoff sums and their limit diagnostics"),
    ("support", "fixed-point cloud of the stationary support"),
    ("check", "standing-assumption probes for the configured model"),
)


def build_parser():
    p = argparse.ArgumentParser(
        prog="liprec",
        description="iterated random Lipschitz maps: simulation and tail constants",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, help_text in _VERBS:
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--threads", type=int, default=1, help="worker threads")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        cfg = load_config(args.config)
        lines = experiments.RUNNERS[args.verb](
            cfg, args.out, seed=args.seed, threads=args.threads
        )
    except LiprecError as exc:
        print(f"liprec {args.verb}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
