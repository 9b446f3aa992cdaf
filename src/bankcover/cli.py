"""Command line surface: expectation queries, tables, simulation, self-checks.

Exit codes: 0 success, 1 validation failure, 2 bad usage, 3 series not
certified, 4 I/O failure, 5 internal error (any other exception, reported as
one ``error: internal:`` line on stderr).  The BANKCOVER_OUT_DIR environment
variable sets the default output directory for table and figure files; --out
wins over it.  An --out that is a directory, or ends in a path separator (the
directory is then made if missing), gets the file ``<name>.csv`` or
``<name>.svg`` inside it.  A file that already holds exactly the bytes keeps
its data and gets a new modification time; any other is truncated and
written, and a read-only file exits 4 either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .coupon import BankSpec, InvalidSpecError, SeriesCapError, expected_tests
from .simulate import SimulationConfig, run_experiment
from .tables import FIGURE_NAMES, TABLE_NAMES, _write_text, build_table, render_figure_svg
from .validate import LEVELS, format_report, run_checks

OUT_DIR_ENV = "BANKCOVER_OUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bankcover",
        description="Coverage times for randomized tests drawn from question banks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expect = sub.add_parser("expect", help="mean number of tests until full coverage")
    expect.add_argument("--a", type=int, required=True, help="alternatives per bank")
    expect.add_argument("--q", type=int, required=True, help="questions per test")
    expect.set_defaults(handler=_cmd_expect)

    table = sub.add_parser("table", help="write a reference dataset as CSV")
    table.add_argument("name", choices=TABLE_NAMES)
    table.add_argument("--out", default=None, help="output file or directory")
    table.set_defaults(handler=_cmd_write, suffix=".csv", render=lambda table: table.to_csv())

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo experiment")
    simulate.add_argument("--a", type=int, required=True)
    simulate.add_argument("--q", type=int, required=True)
    simulate.add_argument("--reps", type=int, required=True)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument(
        "--workers",
        type=int,
        default=1,
        help="at most this many threads, one block of replications per task "
        "(and at most one per available CPU); the record does not depend on it",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    validate = sub.add_parser("validate", help="run the self-check battery")
    validate.add_argument("--level", choices=LEVELS, default="quick")
    validate.set_defaults(handler=_cmd_validate)

    figure = sub.add_parser("figure", help="render a figure dataset as SVG")
    figure.add_argument("name", choices=FIGURE_NAMES)
    figure.add_argument("--out", default=None, help="output file or directory")
    figure.set_defaults(handler=_cmd_write, suffix=".svg", render=render_figure_svg)

    return parser


def _out_path(explicit: str | None, default_name: str) -> Path:
    if explicit:
        path = Path(explicit)
        # Path drops a trailing separator, which names a directory: make it
        if explicit.endswith((os.sep, os.altsep or os.sep)):
            path.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            return path / default_name
        return path
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / default_name


def _cmd_expect(args: argparse.Namespace) -> int:
    estimate = expected_tests(BankSpec(args.a, args.q))
    print(f"{estimate.value:.12g} (tail <= {estimate.tail_bound:.3g}, terms = {estimate.terms})")
    return EXIT_OK


def _cmd_write(args: argparse.Namespace) -> int:
    path = _out_path(args.out, f"{args.name}{args.suffix}")
    _write_text(path, args.render(build_table(args.name)))
    print(path)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        BankSpec(args.a, args.q), args.reps, args.seed, args.workers
    )
    result = run_experiment(config)
    record = {
        "spec": {"a": args.a, "q": args.q},
        "reps": args.reps,
        "seed": args.seed,
        "mean": result.mean,
        "variance": result.variance,
        "std_error_mean": result.std_error_mean,
        "min": result.min,
        "max": result.max,
        "generator_id": result.generator_id,
    }
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    results = run_checks(args.level)
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep main returning.
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InvalidSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SeriesCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
