"""Command-line front end.

Subcommands::

    weakmeas run <scenario> [--format csv|json] [--out PATH] [--dim D] [--tolerance X]
    weakmeas sweep <scenario> --grid 0.16,0.08,0.04,0.02 [--format ...] [--out ...]
    weakmeas sample <scenario> --pointer 0 --shots 1000000 --seed 42 [--out PATH]
    weakmeas catalog list

Scenarios are referenced by catalog name or file path; the catalog directory
can be overridden with the WEAKMEAS_CATALOG environment variable.  The exit
status is 0 only when every run passes its tolerance (sweeps pass when the
fitted slope is within 2 +/- ``harness.SLOPE_WINDOW`` = 0.3).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, scenario as scen
from .errors import WeakMeasurementError
from .evolution import evolve_exact, post_select

#: Shots that ``sample --out`` formats with one ``%`` operation and writes with
#: one call.  Per-shot writes cost more than the sampling itself; formatting
#: the whole file at once would hold it in memory as one string.
SAMPLE_WRITE_CHUNK = 4096


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakmeas",
        description="Simulate weak and joint weak measurements and verify the "
        "extracted weak values against analytic oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario through every extraction route")
    p_run.add_argument("scenario", help="catalog name or scenario file path")
    p_run.add_argument("--dim", type=int, help="override the Fock truncation")
    p_run.add_argument(
        "--tolerance", type=float, help="override the absolute pass/fail tolerance"
    )
    _add_output_options(p_run)

    p_sweep = sub.add_parser("sweep", help="rerun over a lambda grid and fit the error slope")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument(
        "--grid",
        required=True,
        help="comma-separated lambda values in (0, 0.2], at least four",
    )
    p_sweep.add_argument("--dim", type=int, help="override the Fock truncation")
    _add_output_options(p_sweep)

    p_sample = sub.add_parser("sample", help="draw pointer positions from a conditioned state")
    p_sample.add_argument("scenario")
    p_sample.add_argument("--pointer", type=int, default=0)
    p_sample.add_argument("--shots", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--dim", type=int, help="override the Fock truncation")
    p_sample.add_argument("--out", metavar="PATH", help="write raw positions as one-column CSV")

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
    grid = [float(x) for x in args.grid.split(",") if x.strip()]
    result = harness.sweep_lambda(args.scenario, grid, dim=args.dim)
    _emit(result, args.format, args.out)
    return 0 if result.passed else 1


def _cmd_sample(args) -> int:
    scenario = scen.resolve_scenario(args.scenario)
    if args.dim is not None:
        scenario = scenario.with_fock_dim(args.dim)
    scen.ensure_valid(scenario)
    harness.check_sample_request(scenario, args.pointer, args.shots, args.seed)
    result = post_select(evolve_exact(scenario), scenario)
    positions = harness.sample_positions(
        result, scenario, args.pointer, args.shots, args.seed
    )
    mean = float(np.mean(positions))
    std = float(np.std(positions))
    summary = {
        "scenario": args.scenario,
        "pointer_index": args.pointer,
        "n_shots": args.shots,
        "seed": args.seed,
        "mean": mean,
        "std": std,
        "stderr": std / np.sqrt(args.shots),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("position\n")
            for start in range(0, args.shots, SAMPLE_WRITE_CHUNK):
                chunk = positions[start : start + SAMPLE_WRITE_CHUNK].tolist()
                fh.write(("%.12g\n" * len(chunk)) % tuple(chunk))
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_catalog(args) -> int:
    for name in scen.catalog_names():
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
