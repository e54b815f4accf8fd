"""Command-line front end.

Subcommands::

    weakmeas run <scenario> [--format csv|json] [--out PATH] [--dim D] [--tolerance X]
    weakmeas sweep <scenario> --grid 0.16,0.08,0.04,0.02 [--format ...] [--out ...]
    weakmeas sample <scenario> --pointer 0 --shots 1000000 --seed 42 [--out PATH]
    weakmeas catalog list

Scenarios are referenced by catalog name or file path; the catalog directory
can be overridden with the WEAKMEAS_CATALOG environment variable.  The exit
status is 0 only when every run passes its tolerance (sweeps pass when the
fitted slope is within 2 +/- ``harness.SLOPE_WINDOW`` = 0.3, or when their
errors are at the ladder route's rounding floor).  Each option
may be given once; a repeated one exits 2, like any other usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import harness, scenario as scen
from .errors import WeakMeasurementError


#: Namespace entry in which :class:`_StoreOnce` records the options given;
#: not an identifier, so it never collides with an option's ``dest``.
_GIVEN = "options given"


class _StoreOnce(argparse.Action):
    """Store an option's one value, refusing a second occurrence in one command line.

    The parser is shared between calls, so the options already given are
    recorded on the namespace being filled, never on the action.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if isinstance(values, list):
            # argparse drops a "--" given as the value ("--seed=--") and passes [].
            raise argparse.ArgumentError(self, "expected one argument")
        given = namespace.__dict__.setdefault(_GIVEN, set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "may be given only once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _grid(text: str) -> tuple[float, ...]:
    """The numbers of a comma-separated ``--grid``, skipping blank entries.

    A tuple, since :class:`_StoreOnce` reads a list value as a dropped ``--``.
    """
    grid = []
    for position, entry in enumerate(text.split(","), start=1):
        if entry.strip():
            try:
                grid.append(float(entry))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"entry {position} ({entry.strip()!r}) is not a number"
                ) from None
    return tuple(grid)


def _option(parser: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    parser.add_argument(flag, action=_StoreOnce, **kwargs)


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    _option(parser, "--format", choices=("csv", "json"), default="json")
    _option(parser, "--out", metavar="PATH", help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``weakmeas`` argument grammar, built once per process.

    Every call returns the same parser object, so :func:`main` only parses.
    Parsing leaves it unchanged (all per-call state lives in the returned
    ``Namespace``); callers must not mutate it, for example with
    ``set_defaults`` or ``add_argument``, since the change would reach every
    later call.
    """
    parser = argparse.ArgumentParser(
        prog="weakmeas",
        description="Simulate weak and joint weak measurements and verify the "
        "extracted weak values against analytic oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario through every extraction route")
    p_run.add_argument("scenario", help="catalog name or scenario file path")
    _option(p_run, "--dim", type=int, help="override the Fock truncation")
    _option(p_run, "--tolerance", type=float, help="override the absolute pass/fail tolerance")
    _add_output_options(p_run)

    p_sweep = sub.add_parser("sweep", help="rerun over a lambda grid and fit the error slope")
    p_sweep.add_argument("scenario")
    _option(
        p_sweep,
        "--grid",
        type=_grid,
        required=True,
        help="comma-separated lambda values in (0, 0.2], at least four",
    )
    _option(p_sweep, "--dim", type=int, help="override the Fock truncation")
    _add_output_options(p_sweep)

    p_sample = sub.add_parser("sample", help="draw pointer positions from a conditioned state")
    p_sample.add_argument("scenario")
    _option(p_sample, "--pointer", type=int, default=0)
    _option(p_sample, "--shots", type=int, required=True)
    _option(p_sample, "--seed", type=int, required=True)
    _option(p_sample, "--dim", type=int, help="override the Fock truncation")
    _option(p_sample, "--out", metavar="PATH", help="write raw positions as one-column CSV")

    p_catalog = sub.add_parser("catalog", help="inspect the scenario catalog")
    p_catalog.add_argument("action", choices=("list",))
    return parser


def _emit(result, fmt: str, out: str | None) -> None:
    text = harness.emit_report(result, fmt=fmt)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_run(args) -> int:
    report = harness.run_experiment(args.scenario, dim=args.dim, tolerance=args.tolerance)
    _emit(report, args.format, args.out)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    result = harness.sweep_lambda(args.scenario, args.grid, dim=args.dim)
    _emit(result, args.format, args.out)
    return 0 if result.passed else 1


def _cmd_sample(args) -> int:
    positions, summary = harness.sample_experiment(
        args.scenario, args.pointer, args.shots, args.seed, dim=args.dim
    )
    if args.out:
        with open(args.out, "wb") as fh:
            fh.writelines(harness.emit_positions(positions))
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_catalog(args) -> int:
    for name in scen.catalog_names():
        with harness._naming(name):
            description = scen.resolve_scenario(name).description or ""
        print(f"{name:24s} {description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "sample": _cmd_sample,
        "catalog": _cmd_catalog,
    }
    try:
        return handlers[args.command](args)
    except (WeakMeasurementError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
