"""Command-line entry point.

One subcommand per scenario in ``config.SCENARIOS``, "_" written as "-":

    lgsim lg-run --config cfg.json [--seed N] [--out DIR] [--format F]

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 I/O error. The LGSIM_OUT_DIR environment variable overrides the
default output directory (but not --out or the config's own setting).
"""

from __future__ import annotations

import argparse
import sys

from .config import FORMATS, SCENARIOS, config_to_dict, load_config, parse_config
from .errors import ValidationError
from .harness import execute, resolve_out_dir, write_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3

_SUBCOMMANDS = {name.replace("_", "-"): name for name in SCENARIOS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgsim",
        description="Strong-vs-weak measurement simulator and ensemble budgeter",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _SUBCOMMANDS:
        p = sub.add_parser(command, help=f"run the {command} scenario")
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", default=None, choices=FORMATS, help="report format")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scenario = _SUBCOMMANDS[args.command]

    try:
        cfg = load_config(args.config)
        if cfg.scenario != scenario:
            raise ValidationError(
                f"config.scenario: is '{cfg.scenario}' but the '{args.command}' "
                "subcommand was invoked"
            )
        if args.seed is not None or args.format is not None:
            data = config_to_dict(cfg)
            if args.seed is not None:
                data["seed"] = args.seed
            if args.format is not None:
                data["output"]["format"] = args.format
            cfg = parse_config(data)
        report = execute(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        out_dir = resolve_out_dir(args.out, cfg)
        written = write_report(report, out_dir, cfg.output.format)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    for path in written:
        print(path)
    if scenario == "verify" and not report["payload"]["passed"]:
        failed = [c["name"] for c in report["payload"]["checks"] if c["status"] == "fail"]
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
