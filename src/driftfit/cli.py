"""Command-line entry point: one subcommand per experiment."""
from __future__ import annotations

import argparse
import json
import sys

from .config import EXPERIMENTS, ConfigError, from_dict, parse_config
from .experiments import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftfit",
        description="Continuous-time stochastic gradient drift estimation "
                    "for SDEs: simulation, covariance prediction, and "
                    "Monte Carlo verification experiments.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"experiment": args.experiment}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    try:
        if args.config is not None:
            cfg = parse_config(args.config, overrides=overrides)
        else:
            cfg = from_dict(overrides, source="<cli>")
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    report, status = run_experiment(cfg, args.out)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return status


if __name__ == "__main__":
    sys.exit(main())
