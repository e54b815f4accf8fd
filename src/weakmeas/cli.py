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
import math
import sys
from pathlib import Path

import numpy as np

from . import harness, scenario as scen
from .errors import CapacityError, WeakMeasurementError
from .evolution import evolve_exact, post_select


@functools.cache
def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables over the four-digit groups 0..9999.

    The first holds each group's ASCII digits, each followed by an 0xFF slot
    byte, as one uint64; the second counts the group's trailing zero digits
    (4 for 0).  Built on first use, one digit column at a time, so commands
    other than ``sample --out`` do not hold them.
    """
    quad = np.arange(10_000, dtype=np.uint16)
    digits = np.full((10_000, 8), 0xFF, dtype=np.uint8)
    trailing = np.zeros(10_000, dtype=np.int64)
    for k, power in enumerate((1000, 100, 10, 1)):
        digits[:, 2 * k] = ord("0") + quad // power % 10
        trailing += quad % (10 * power) == 0
    tables = digits.view(np.uint64).ravel(), trailing
    for table in tables:
        table.flags.writeable = False
    return tables


#: Exact powers of ten 10^0..10^15, the scales that put 12 digits before the point.
_POW10 = np.array([float(10**k) for k in range(16)])

#: The product ``|x| 10^(11-e)`` is off by at most 2^-53 10^12 ~ 1.1e-4 from its
#: exact value, so one this close to a half goes through ``%`` instead.
_TIE_MARGIN = 2.5e-4


def _line_mask(shown: int, exp10: int, negative: bool) -> bytes:
    """The 32-byte AND mask that turns a row of digits into one NUL-padded line.

    The first 8 bytes hold the sign, then "0." and the leading zeros of a
    number below 1.  The other 24 cover 12 digit/slot pairs: the first
    ``shown`` digits are kept, the decimal point follows digit ``exp10`` when
    a digit follows it, and the newline follows the last digit.
    """
    head = (b"-" if negative else b"") + (b"0." + b"0" * (-1 - exp10) if exp10 < 0 else b"")
    pairs = [[0xFF if k < shown else 0, 0] for k in range(12)]
    if 0 <= exp10 < shown - 1:
        pairs[exp10][1] = ord(".")
    pairs[shown - 1][1] = ord("\n")
    return head.ljust(8, b"\0") + bytes(b for pair in pairs for b in pair)


#: Line masks by ``32 shown + 2 (exponent + 4) + negative``, four uint64 words each.
_LINE_MASKS = np.frombuffer(
    b"".join(
        _line_mask(shown, e, negative)
        for shown in range(13)
        for e in range(-4, 12)
        for negative in (False, True)
    ),
    dtype=np.uint64,
).reshape(-1, 4)


def _format_g12(values: np.ndarray) -> bytes:
    """The bytes of ``"%.12g\\n" % x`` for every float64 ``x`` in ``values``, in order.

    A value printed in fixed notation (exponent -4..11) is rounded to the
    12 digits ``m = rint(|x| 10^(11-e))``.  Its row is an all-ones word
    followed by the digits of ``m``, four per lookup, each with an 0xFF slot
    byte; one AND with :func:`_line_mask` keeps the sign, the leading zeros,
    the shown digits, the point and the newline, and zeroes the rest, which
    one ``translate`` drops.  A value whose rounding cannot be proven to
    match ``%`` (zero, exponent notation, non-finite, a fraction near a tie,
    a wrong exponent guess) is formatted by ``%`` itself into its row.
    """
    x = np.asarray(values, dtype=np.float64)
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1e12)
    mag = np.where(fast, mag, 1.0)
    exp10 = np.clip(np.floor(np.log10(mag)), -4, 11).astype(np.int64)
    scaled = mag * _POW10[11 - exp10]
    rounded = np.rint(scaled)
    fast &= (scaled >= 1e11) & (rounded < 1e12) & (np.abs(scaled - rounded) < 0.5 - _TIE_MARGIN)

    digits4, trailing4 = _quad_tables()
    m = np.where(fast, rounded, 1e11).astype(np.int64)
    hi = m // 10**8
    rest = (m - hi * 10**8).astype(np.int32)
    mid = rest // 10**4
    lo = rest - mid * 10**4
    trailing = trailing4[lo]
    zeros = np.flatnonzero(lo == 0)
    trailing[zeros] += np.where(mid[zeros] != 0, trailing4[mid[zeros]], 4 + trailing4[hi[zeros]])
    shown = 12 - np.minimum(trailing, 11 - exp10)

    rows = np.empty((x.size, 4), dtype=np.uint64)
    rows[:, 0] = np.iinfo(np.uint64).max
    rows[:, 1] = digits4[hi]
    rows[:, 2] = digits4[mid]
    rows[:, 3] = digits4[lo]
    rows &= np.take(_LINE_MASKS, 32 * shown + 2 * exp10 + 8 + (x < 0), axis=0)
    slow = np.flatnonzero(~fast)
    lines = rows.view(np.uint8)
    for i, value in zip(slow.tolist(), x[slow].tolist()):
        line = b"%.12g\n" % value
        lines[i] = 0
        lines[i, : len(line)] = np.frombuffer(line, dtype=np.uint8)
    return rows.tobytes().translate(None, b"\0")


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
    with harness._naming(args.scenario):
        scenario = scen.ensure_valid(harness._load(args.scenario, args.dim))
        harness.check_sample_request(scenario, args.pointer, args.shots, args.seed)
        result = post_select(evolve_exact(scenario), scenario)
        positions = harness.sample_positions(
            result, scenario, args.pointer, args.shots, args.seed
        )
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(positions))
        if not math.isfinite(mean):
            raise CapacityError(f"the sampled positions' mean is {mean}, past the float range")
    # Deviations scaled by 2^-e, 2^e just above the largest |position|, square without
    # overflow or underflow (std < 2^e); a power-of-two scale is exact, so in range
    # the bits are those of the unscaled sum.
    e = math.frexp(max(-positions.min(), positions.max()))[1]
    step = harness.SAMPLE_CHUNK
    chunks = [positions[start : start + step] for start in range(0, args.shots, step)]
    squares = math.fsum(float(np.sum(np.ldexp(chunk - mean, -e) ** 2)) for chunk in chunks)
    std = math.ldexp(math.sqrt(squares / args.shots), e)
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
        with open(args.out, "wb") as fh:
            fh.write(b"position\n")
            for chunk in chunks:
                fh.write(_format_g12(chunk))
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
