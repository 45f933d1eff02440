"""Command-line interface: run scenarios, validate them, list presets."""

import argparse
import sys
from pathlib import Path

from .errors import FpkprojError, ValidationError
from .runner import run_scenario
from .scenario import load_scenario, presets_text

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpkproj",
        description="Finite-dimensional projections of scalar Fokker-Planck dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("scenario", help="path to a scenario YAML file")
    run.add_argument("--output-dir", default=None,
                     help="directory for result files (default runs/<name>)")
    run.add_argument("--override", action="append", default=[],
                     metavar="KEY=VALUE", help="dotted-path scenario override")
    run.add_argument("--quiet", action="store_true", help="suppress the summary line")

    val = sub.add_parser("validate", help="check a scenario file against the schema")
    val.add_argument("scenario", help="path to a scenario YAML file")
    val.add_argument("--override", action="append", default=[],
                     metavar="KEY=VALUE", help="dotted-path scenario override")

    presets = sub.add_parser("presets", help="inspect built-in presets")
    presets.add_argument("action", choices=["list"], help="what to do")

    runall = sub.add_parser("run-all", help="run every scenario in a directory")
    runall.add_argument("directory", help="directory containing scenario YAML files")
    runall.add_argument("--output-dir", default=None,
                        help="parent directory for per-scenario results")
    runall.add_argument("--quiet", action="store_true", help="suppress summary lines")
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, overrides=args.override)
    out_dir = Path(args.output_dir) if args.output_dir else Path("runs") / scenario.name
    run_scenario(scenario, out_dir, quiet=args.quiet)
    if not args.quiet:
        print(f"results written to {out_dir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario, overrides=args.override)
    print(f"OK: {scenario.name} ({scenario.method}, family {scenario.family['type']}, "
          f"t_end {scenario.numerics.t_end:g})")
    return EXIT_OK


def _cmd_run_all(args) -> int:
    directory = Path(args.directory)
    files = sorted(directory.glob("*.yaml")) + sorted(directory.glob("*.yml"))
    if not files:
        raise ValidationError(f"no scenario files found in {directory}")
    parent = Path(args.output_dir) if args.output_dir else Path("runs")
    for path in files:
        scenario = load_scenario(path)
        run_scenario(scenario, parent / scenario.name, quiet=args.quiet)
    if not args.quiet:
        print(f"ran {len(files)} scenarios into {parent}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "presets":
            print(presets_text())
            return EXIT_OK
        return _cmd_run_all(args)
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except FpkprojError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
