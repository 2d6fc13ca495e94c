"""Command-line entry points: scatter run / validate / version. A run
writes into --out, else into out_<config stem> beside the config."""

import argparse
import os
import sys

from . import __version__
from .config import parse_config
from .errors import ConfigError, ScatterError
from .runner import run_scan


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="scatter",
        description="Scattering amplitude scans from an INI config: "
                    "eikonal, Born, partial-wave, and reference closed "
                    "forms, with CSV/report artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scan config")
    run.add_argument("config", help="path to the INI config file")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="output directory (default: out_<config stem> "
                          "beside the config)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress progress output")

    val = sub.add_parser("validate", help="parse and check a config")
    val.add_argument("config", help="path to the INI config file")

    sub.add_parser("version", help="print the tool version")
    return parser


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _cmd_validate(args):
    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {len(cfg.sources)} source(s), {len(cfg.k_values)} k "
          f"value(s), {cfg.theta.count}-point {cfg.theta.spacing} "
          f"theta grid")
    return 0


def _cmd_run(args):
    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out or os.path.join(
        os.path.dirname(os.path.abspath(args.config)),
        "out_" + os.path.splitext(os.path.basename(args.config))[0])
    try:
        manifest = run_scan(cfg, out_dir=out_dir)
    except (ScatterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        for o in manifest.outcomes:
            status = "ok" if o.error is None else f"FAILED: {o.error}"
            print(f"{o.source} k={o.k:.12g}: {status} "
                  f"[{o.wall_clock:.2f} s]")
        for w in manifest.warnings:
            print(f"warning: {w}")
        print(f"wrote {len(manifest.csv_files) + len(manifest.aux_files)} "
              f"files + manifest.txt to {manifest.output_dir}")
    if manifest.outcomes and manifest.all_failed:
        return 1
    if manifest.failed:
        return 2
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
