"""Experiment orchestration: single runs, coupling sweeps, and pointer sampling.

A run evolves a scenario, post-selects, applies every extraction route that
fits the pointers, and compares each against the analytic oracle under the
quadratic tolerance model.  A sweep is a run at every point of a grid of
expansion parameters, and fits the log-log slope of the extraction error,
which should be 2 (the next-order correction is quadratic in the coupling)
unless the errors are rounding noise.  Both go through one report builder
over copies of one scenario that differ only in their couplings: it
validates, evolves and post-selects each copy in turn, builds each pointer
operator and each dense correlator product once for all of them (those
operators do not depend on lambda), checks the route identity at each, and
returns one report per copy.  The copies share the scenario's system frame,
so the frame is built once per sweep.
Sampling draws pointer positions from the conditioned marginal density by
inverse-CDF lookup, reproducing the statistics an ensemble would record.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    GridError,
    TruncationLeakageError,
    UnsupportedScenarioError,
    WeakMeasurementError,
)
from .evolution import PostSelectionResult, evolve_exact, post_select
from .pointers import FockPointerSpec, fock_operators, position_wavefunctions
from .scenario import LAMBDA_WARN_LIMIT, Scenario, ensure_valid, resolve_scenario
from .tensor import _as_number, _require_shape
from .weak_values import (
    ConditionedPoint,
    _route_scale,
    analytic_oracle,
    correlator_decomposition,
    extract_joint_fock,
    extract_joint_spin,
    extraction_tolerance,
    pointer_shift_check,
    second_order_error,
)

#: Number of grid points used for position densities and inverse-CDF sampling.
SAMPLING_GRID_POINTS = 2**12

#: Largest shot count one sample set draws.  :func:`sample_positions` holds
#: the positions (128 MiB of float64 at the cap) and one chunk of draws, and
#: ``weakmeas sample`` adds only chunk-sized temporaries (+137 MB at 2^24 shots).
MAX_SHOTS = 2**24

#: Shots that sampling draws and sorts, and :func:`sample_experiment` squares and
#: :func:`emit_positions` writes (about 1.4 MB of formatter peak), at once.  Philox
#: hands out the same stream in chunks as in one call, and ``np.interp`` maps every
#: draw on its own (finding grid cells faster for sorted draws), so a chunked draw
#: leaves every bit as a whole-array draw would, while holding one chunk of draws
#: and indices.  The draws are ordered by their top 16 bits (a radix sort), not
#: fully: ``np.interp`` returns the one cell ``cdf[j] <= x < cdf[j+1]`` in any order.
SAMPLE_CHUNK = 2**13

#: Probability mass a position density may leave off its grid.
DENSITY_MASS_TOL = 1e-9

#: A sweep passes when its fitted log-log slope is within this of 2.
SLOPE_WINDOW = 0.3

#: A sweep whose errors are rounding noise (a scenario whose exact lambda^2 term
#: is 0) also passes: fewer than two of its points exceed this multiple of the
#: ladder route's rounding, eps |route scale| (1 + |A_w|).  The shipped
#: rounding-level sweeps reach 0.124 of that unit and the others 1.03e7.  It is
#: also a run's least default tolerance: the rounding grows like 1/lambda.
ROUNDING_FLOOR_MULTIPLE = 10.0

#: Fock dimension the sweep escalates to when the leakage guard trips.
SWEEP_ESCALATED_DIM = 16

#: The lowering and correlator routes are one identity, so a run fails unless they
#: agree to this multiple of ``1 + |A_w|``; the test suite's Fock runs reach 3.5e-16.
ROUTE_IDENTITY_TOL = 1e-12

#: Fock runs pass within this multiple of the exact second-order error
#: ``|c2|`` when that exceeds the coarse tolerance model; the margin absorbs
#: the order-lambda^4 remainder and truncation residue.
SECOND_ORDER_MARGIN = 2.0

_CSV_COLUMNS = (
    "scenario",
    "method",
    "lambda",
    "re_extracted",
    "im_extracted",
    "re_analytic",
    "im_analytic",
    "abs_error",
    "prob_success",
    "pass",
)


@dataclass(frozen=True)
class WeakValueReport:
    """Extracted weak values by route, against the analytic oracle.

    ``extracted`` maps each route that fits the pointers to its value, in
    route order: ``lowering`` and ``correlators`` when every pointer is Fock,
    ``spin`` (the same ladder route) for any scenario with a spin pointer,
    mixed Fock/spin ones included.
    """

    scenario: str
    analytic: complex
    prob_success: float
    lambda_max: float
    tolerance: float
    extracted: dict[str, complex]
    xp_shift: tuple[float, float] | None = None

    @property
    def abs_errors(self) -> dict[str, float]:
        """``|extracted - analytic|`` per route."""
        return {route: abs(value - self.analytic) for route, value in self.extracted.items()}

    @property
    def passed(self) -> bool:
        """Whether every route is within ``tolerance`` of the oracle."""
        return all(error <= self.tolerance for error in self.abs_errors.values())


@dataclass(frozen=True)
class SweepResult:
    """Extraction error versus expansion parameter, with a power-law fit.

    ``at_rounding_floor`` says that fewer than two errors exceed
    :data:`ROUNDING_FLOOR_MULTIPLE` times the ladder route's rounding, so the
    slope fits noise; such a sweep passes whatever its slope.
    """

    scenario: str
    lambda_grid: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_slope: float
    fitted_intercept: float
    at_rounding_floor: bool

    @property
    def passed(self) -> bool:
        return self.at_rounding_floor or abs(self.fitted_slope - 2.0) <= SLOPE_WINDOW


def _rounding_floor(scenario: Scenario, analytic: complex) -> float:
    """The rounding floor, ``ROUNDING_FLOOR_MULTIPLE eps |route scale| (1 + |A_w|)``."""
    scale = abs(_route_scale(scenario))
    return ROUNDING_FLOOR_MULTIPLE * math.ulp(1.0) * (1.0 + abs(analytic)) * scale


def _reports(scenarios: list[Scenario], tolerance: float | None = None) -> list[WeakValueReport]:
    """Evolve, post-select and extract along every route that fits the pointers.

    Takes copies of one scenario that differ only in their couplings and
    returns one report per copy, in order.  Each copy is validated, evolved
    and post-selected in turn; the oracle is taken once, after the first
    validation.  Each pointer operator and correlator product is built once
    for all copies.  All-Fock pointers take the lowering and correlator
    routes, and a copy whose two values differ by more than
    :data:`ROUTE_IDENTITY_TOL` ``(1 + |A_w|)`` raises
    :class:`WeakMeasurementError`.  Any spin pointer, mixed with Fock ones or
    not, leaves no quadratures to correlate, so the ladder route alone is
    reported, as the spin route.  A given ``tolerance`` (a number, not negative)
    replaces the default: the largest of :func:`extraction_tolerance`,
    :func:`_rounding_floor` and (all-Fock) :data:`SECOND_ORDER_MARGIN` ``|c2|``.
    """
    if tolerance is not None and (tolerance := _as_number(tolerance, "tolerance")) < 0.0:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    points: list[ConditionedPoint] = []
    for scenario in scenarios:
        ensure_valid(scenario)
        if not points:
            analytic = analytic_oracle(scenario)
        points.append((post_select(evolve_exact(scenario), scenario), scenario))

    fock = all(isinstance(p, FockPointerSpec) for p in scenarios[0].pointers)
    if fock:
        routes = []
        lowering = extract_joint_fock(points)
        for value, (_, correlators) in zip(lowering, correlator_decomposition(points)):
            gap = abs(value - correlators)
            if gap > ROUTE_IDENTITY_TOL * (1.0 + abs(analytic)):
                raise WeakMeasurementError(
                    f"lowering and correlator routes differ by {gap:.3e}, beyond the "
                    f"route identity {ROUTE_IDENTITY_TOL:.0e} (1 + |A_w|)"
                )
            routes.append({"lowering": value, "correlators": correlators})
    else:
        routes = [{"spin": value} for value in extract_joint_spin(points)]

    reports = []
    for (result, scenario), extracted in zip(points, routes):
        xp_shift = None
        if fock and scenario.n_pointers == 1:
            xp_shift = pointer_shift_check(result, scenario)
        tol = tolerance
        if tol is None:
            tol = max(
                extraction_tolerance(scenario.lambda_max, analytic),
                _rounding_floor(scenario, analytic),
            )
            if fock:
                tol = max(tol, SECOND_ORDER_MARGIN * abs(second_order_error(scenario)))
        reports.append(
            WeakValueReport(
                scenario=scenario.name or "scenario",
                analytic=analytic,
                prob_success=result.prob_success,
                lambda_max=scenario.lambda_max,
                tolerance=tol,
                extracted=extracted,
                xp_shift=xp_shift,
            )
        )
    return reports


def run_scenario(scenario: Scenario, tolerance: float | None = None) -> WeakValueReport:
    """Evolve, post-select, and extract along every applicable route.

    Raises :class:`WeakMeasurementError` when the lowering and correlator
    routes break their identity (:data:`ROUTE_IDENTITY_TOL`).
    """
    [report] = _reports([scenario], tolerance)
    return report


@contextlib.contextmanager
def _naming(scenario_ref: str | Path):
    """Prefix ``scenario_ref`` to a ``WeakMeasurementError`` or ``ValueError`` raised inside."""
    try:
        yield
    except (WeakMeasurementError, ValueError) as exc:
        exc.args = (f"{scenario_ref}: {exc}",)
        raise


def _load(scenario_ref: str | Path, dim: int | None) -> Scenario:
    """The scenario a command names, with every Fock pointer at ``dim`` levels if given."""
    scenario = resolve_scenario(scenario_ref)
    return scenario if dim is None else scenario.with_fock_dim(dim)


def run_experiment(
    scenario_ref: str | Path,
    dim: int | None = None,
    tolerance: float | None = None,
) -> WeakValueReport:
    """Load a scenario by catalog name or path and run it.

    A :class:`WeakMeasurementError` or ``ValueError`` raised while loading or
    running names ``scenario_ref`` first.

    Parameters
    ----------
    scenario_ref : str or Path
        Catalog name (e.g. ``"aav_qubit"``) or path to a scenario file.
    dim : int, optional
        Override the truncation of every Fock pointer.
    tolerance : float, optional
        Override the absolute pass/fail tolerance.
    """
    with _naming(scenario_ref):
        scenario = _load(scenario_ref, dim)
        return replace(run_scenario(scenario, tolerance), scenario=str(scenario_ref))


def sweep_lambda(
    scenario_ref: str | Path, grid, dim: int | None = None
) -> SweepResult:
    """Rerun a scenario over a decreasing lambda grid and fit the error slope.

    Couplings are rescaled to realize each grid value while pointer widths
    and truncations stay fixed, and the grid goes through the report builder
    of :func:`run_scenario`, largest point first, so each point's error is
    that of :func:`run_scenario` at the same lambda: the ladder route's
    (lowering, or spin when any pointer is spin).  The sweep passes when the
    slope is within :data:`SLOPE_WINDOW` of 2 or when it is at the rounding
    floor (:class:`SweepResult`).  If a point trips the
    truncation guard, every Fock pointer is escalated to
    :data:`SWEEP_ESCALATED_DIM` levels (or its largest Fock truncation) and
    the grid is rerun; a trip at the largest point stops the first pass
    before any other point is evolved.  Entry i is a number named ``grid[i]``
    (:func:`_as_number`); a :class:`WeakMeasurementError` or ``ValueError``
    raised after the grid is checked names ``scenario_ref`` first.
    """
    grid = [_as_number(g, f"grid[{i}]") for i, g in enumerate(grid)]
    if len(grid) < 4:
        raise ValueError(f"a sweep needs at least 4 grid points, got {len(grid)}")
    if len(set(grid)) != len(grid):
        raise ValueError("sweep grid contains duplicate values")
    bad = [g for g in grid if not 0.0 < g <= LAMBDA_WARN_LIMIT]
    if bad:
        raise ValueError(
            f"sweep grid values must be finite and lie in (0, {LAMBDA_WARN_LIMIT}], got {bad}"
        )
    grid = sorted(grid, reverse=True)

    with _naming(scenario_ref):
        scenario = _load(scenario_ref, dim)
        copies = [scenario.with_lambda(lam) for lam in grid]
        try:
            reports = _reports(copies)
        except TruncationLeakageError:
            fock_dims = [p.dim for p in scenario.pointers if isinstance(p, FockPointerSpec)]
            scenario = scenario.with_fock_dim(max([SWEEP_ESCALATED_DIM] + fock_dims))
            copies = [scenario.with_lambda(lam) for lam in grid]
            reports = _reports(copies)
    errors = [next(iter(report.abs_errors.values())) for report in reports]
    above_floor = sum(
        error > _rounding_floor(copy, report.analytic)
        for copy, error, report in zip(copies, errors, reports)
    )

    log_lam = np.log(np.asarray(grid))
    log_err = np.log(np.maximum(np.asarray(errors), 1e-300))
    slope, intercept = np.polyfit(log_lam, log_err, 1)
    return SweepResult(
        scenario=str(scenario_ref),
        lambda_grid=tuple(grid),
        errors=tuple(errors),
        fitted_slope=float(slope),
        fitted_intercept=float(intercept),
        at_rounding_floor=above_floor < 2,
    )


# ---------------------------------------------------------------------------
# Pointer-position sampling
# ---------------------------------------------------------------------------


def sampling_grid(spec: FockPointerSpec) -> np.ndarray:
    """Position grid spanning +/- (6 sigma + 4 sigma sqrt(d))."""
    half = 6.0 * spec.sigma + 4.0 * spec.sigma * math.sqrt(spec.dim)
    return np.linspace(-half, half, SAMPLING_GRID_POINTS)


def _chunks(values: np.ndarray):
    """Consecutive slices of ``values``, :data:`SAMPLE_CHUNK` long (the last may be shorter)."""
    return (values[i : i + SAMPLE_CHUNK] for i in range(0, len(values), SAMPLE_CHUNK))


def _sampled_pointer(scenario: Scenario, pointer_index: int) -> FockPointerSpec:
    """The pointer a density is taken of; raises unless the integer index names a Fock pointer."""
    pointer_index = _as_number(pointer_index, "pointer_index", integer=True)
    if not 0 <= pointer_index < scenario.n_pointers:
        raise UnsupportedScenarioError(
            f"pointer index {pointer_index} is out of range for a scenario with "
            f"{scenario.n_pointers} pointer(s)"
        )
    spec = scenario.pointers[pointer_index]
    if not isinstance(spec, FockPointerSpec):
        raise UnsupportedScenarioError("position sampling requires a Fock pointer")
    return spec


def _shot_request(n_shots: int, seed: int) -> tuple[int, int]:
    """``n_shots`` in 1..:data:`MAX_SHOTS` and ``seed`` >= 0, as integers; refuses any other."""
    n_shots = _as_number(n_shots, "n_shots", integer=True)
    seed = _as_number(seed, "seed", integer=True)
    if n_shots > MAX_SHOTS:
        raise CapacityError(f"{n_shots} shots exceed the cap {MAX_SHOTS}")
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return n_shots, seed


def position_density(
    result: PostSelectionResult, scenario: Scenario, pointer_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Marginal position density of one conditioned pointer on its sampling grid.

    Synthesizes the reduced density matrix of the chosen pointer in the
    oscillator eigenbasis on :func:`sampling_grid`.  A state not of the
    scenario's pointer layout raises :class:`LayoutError`.  Raises
    :class:`GridError` if more than :data:`DENSITY_MASS_TOL` of the mass falls
    off the grid, or if the mass is not finite (a grid past the float range),
    or if the density's first moment misses the pointer's ``<X>`` by more
    than the grid's half-width times :data:`DENSITY_MASS_TOL` (the off-grid
    mass, at the grid's edge) plus one rounding per grid point.
    """
    _require_shape(result.conditioned, scenario.pointer_dims)
    spec = _sampled_pointer(scenario, pointer_index)
    moved = np.moveaxis(result.conditioned, pointer_index, 0)
    moved = moved.reshape(len(moved), -1)
    reduced = moved @ moved.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        grid = sampling_grid(spec)
        basis = position_wavefunctions(spec, grid)
        density = np.einsum("mx,mn,nx->x", basis, reduced, basis).real
        mass = float(np.trapezoid(density, grid))
        moment = float(np.trapezoid(grid * density, grid))
        x_mean = float(np.einsum("mn,nm->", fock_operators(spec)[0], reduced).real)
    if not abs(1.0 - mass) <= DENSITY_MASS_TOL:
        raise GridError(
            f"density mass off the sampling grid: 1 - integral = {1.0 - mass:.3e}"
        )
    bound = abs(grid[-1]) * (DENSITY_MASS_TOL + SAMPLING_GRID_POINTS * math.ulp(1.0))
    if not abs(moment - x_mean) <= bound:
        raise GridError(
            f"density first moment {moment:.6e} misses <X> = {x_mean:.6e} "
            f"by more than {bound:.3e}"
        )
    return grid, np.maximum(density, 0.0)


def sample_positions(
    result: PostSelectionResult,
    scenario: Scenario,
    pointer_index: int,
    n_shots: int,
    seed: int,
) -> np.ndarray:
    """Draw ``n_shots`` positions of one pointer by inverse-CDF sampling.

    Returns them as a read-only array.  Uses the counter-based Philox
    generator keyed on ``seed``, so samples are bitwise reproducible.  Raises
    :class:`GridError` if a position is not finite: on a very wide pointer
    (sigma near 1e303 or more) a grid step over a tail cell's CDF step overflows.
    Checks the shot count and seed, then (:func:`position_density`) the pointer.
    """
    n_shots, seed = _shot_request(n_shots, seed)
    grid, density = position_density(result, scenario, pointer_index)
    steps = 0.5 * (density[1:] + density[:-1]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    cdf /= cdf[-1]
    rng = np.random.Generator(np.random.Philox(seed))
    positions = np.empty(n_shots)
    for chunk in _chunks(positions):
        draws = rng.random(chunk.size)
        order = np.argsort((draws * 65536).astype(np.uint16), kind="stable")
        chunk[order] = np.interp(draws[order], cdf, grid)
        if not np.isfinite(chunk).all():
            raise GridError(
                f"a position drawn at pointer width sigma = "
                f"{scenario.pointers[pointer_index].sigma:.6g} is past the "
                "float range: the inverse CDF's slope overflows on a tail cell"
            )
    positions.flags.writeable = False
    return positions


def sample_experiment(
    scenario_ref: str | Path, pointer_index: int, n_shots: int, seed: int, dim: int | None = None
) -> tuple[np.ndarray, dict]:
    """Load a scenario by catalog name or path and draw ``n_shots`` positions of one pointer.

    Refuses a bad request before evolving, so it costs no evolution; :func:`sample_positions`,
    public for library callers who evolve themselves, checks it again.  Returns the read-only
    positions and their summary: a mean past the float range raises :class:`CapacityError`,
    and ``std`` sums the deviations scaled by 2^-e, 2^e above the largest |position|,
    exactly and without overflow or underflow.  Errors name ``scenario_ref`` first.
    """
    with _naming(scenario_ref):
        scenario = ensure_valid(_load(scenario_ref, dim))
        n_shots, seed = _shot_request(n_shots, seed)
        _sampled_pointer(scenario, pointer_index)
        result = post_select(evolve_exact(scenario), scenario)
        positions = sample_positions(result, scenario, pointer_index, n_shots, seed)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(positions))
        if not math.isfinite(mean):
            raise CapacityError(f"the sampled positions' mean is {mean}, past the float range")
    e = math.frexp(max(-positions.min(), positions.max()))[1]
    squares = math.fsum(float(np.sum(np.ldexp(c - mean, -e) ** 2)) for c in _chunks(positions))
    std = math.ldexp(math.sqrt(squares / n_shots), e)
    return positions, {
        "scenario": str(scenario_ref),
        "pointer_index": int(pointer_index),
        "n_shots": n_shots,
        "seed": seed,
        "mean": mean,
        "std": std,
        "stderr": std / math.sqrt(n_shots),
    }


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _sig(x: float) -> str:
    return f"{x:.12g}"


def report_rows(report: WeakValueReport) -> list[dict[str, str]]:
    """CSV rows of a run report, one per extraction route."""
    rows = []
    errors = report.abs_errors
    for method, value in report.extracted.items():
        rows.append(
            {
                "scenario": report.scenario,
                "method": method,
                "lambda": _sig(report.lambda_max),
                "re_extracted": _sig(value.real),
                "im_extracted": _sig(value.imag),
                "re_analytic": _sig(report.analytic.real),
                "im_analytic": _sig(report.analytic.imag),
                "abs_error": _sig(errors[method]),
                "prob_success": _sig(report.prob_success),
                "pass": str(errors[method] <= report.tolerance).lower(),
            }
        )
    return rows


def sweep_rows(result: SweepResult) -> list[dict[str, str]]:
    """CSV rows of a sweep: one per grid point plus a slope summary row."""
    rows = [
        {
            "scenario": result.scenario,
            "method": "error",
            "lambda": _sig(lam),
            "abs_error": _sig(err),
        }
        for lam, err in zip(result.lambda_grid, result.errors)
    ]
    rows.append(
        {
            "scenario": result.scenario,
            "method": "slope",
            "re_extracted": _sig(result.fitted_slope),
            "im_extracted": _sig(result.fitted_intercept),
            "pass": str(result.passed).lower(),
        }
    )
    return rows


def _maybe_pair(z: complex | None) -> list[float] | None:
    return None if z is None else [z.real, z.imag]


def report_json(report: WeakValueReport) -> dict:
    """JSON form of a report; full float precision so values round-trip."""
    return {
        "scenario": report.scenario,
        "analytic": _maybe_pair(report.analytic),
        "extracted_lowering": _maybe_pair(report.extracted.get("lowering")),
        "extracted_correlators": _maybe_pair(report.extracted.get("correlators")),
        "extracted_spin": _maybe_pair(report.extracted.get("spin")),
        "xp_shift": list(report.xp_shift) if report.xp_shift is not None else None,
        "prob_success": report.prob_success,
        "lambda_max": report.lambda_max,
        "tolerance": report.tolerance,
        "abs_errors": dict(report.abs_errors),
        "passed": report.passed,
    }


def sweep_json(result: SweepResult) -> dict:
    return {**asdict(result), "passed": result.passed}


@functools.cache
def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables over the four-digit groups 0..9999, for :func:`_format_g12`.

    The first holds each group's ASCII digits, each followed by an 0xFF slot
    byte, as one uint64; the second counts the group's trailing zero digits
    (4 for 0).  Built on first use, one digit column at a time, so commands
    other than ``sample --out`` do not hold them (nor :func:`_line_masks`).
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


@functools.cache
def _line_masks() -> np.ndarray:
    """The 32-byte AND masks that turn a row of digits into one NUL-padded line.

    Mask ``32 shown + 2 (exp10 + 4) + negative`` is four uint64 words.  Its first 8 bytes
    hold the sign, then "0." and the leading zeros of a number below 1.  The other 24 cover
    12 digit/slot pairs: the first ``shown`` digits are kept, the decimal point follows
    digit ``exp10`` when a digit follows it, and the newline follows the last digit.
    """
    masks = []
    for shown, exp10, negative in itertools.product(range(13), range(-4, 12), (False, True)):
        head = (b"-" if negative else b"") + (b"0." + b"0" * (-1 - exp10) if exp10 < 0 else b"")
        pairs = [[0xFF if k < shown else 0, 0] for k in range(12)]
        if 0 <= exp10 < shown - 1:
            pairs[exp10][1] = ord(".")
        pairs[shown - 1][1] = ord("\n")
        masks.append(head.ljust(8, b"\0") + bytes(b for pair in pairs for b in pair))
    return np.frombuffer(b"".join(masks), dtype=np.uint64).reshape(-1, 4)


def _format_g12(values: np.ndarray) -> bytes:
    """The bytes of ``"%.12g\\n" % x`` for every float64 ``x`` in ``values``, in order.

    A value printed in fixed notation (exponent -4..11) is rounded to the
    12 digits ``m = rint(|x| 10^(11-e))``.  Its row starts as its
    :func:`_line_masks` entry (sign, leading zeros, point and newline), and
    the digits of ``m``, four per lookup, each with an 0xFF slot byte, are
    ANDed into its last three words: the shown digits stay and the rest is
    zeroed, which one ``translate`` drops.  A value whose rounding cannot be
    proven to match ``%`` (zero, exponent notation, non-finite, a fraction
    near a tie, a wrong exponent guess) has its row written by ``%`` itself.
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

    rows = np.take(_line_masks(), 32 * shown + 2 * exp10 + 8 + (x < 0), axis=0)
    rows[:, 1] &= digits4[hi]
    rows[:, 2] &= digits4[mid]
    rows[:, 3] &= digits4[lo]
    slow = np.flatnonzero(~fast)
    lines = rows.view(np.uint8)
    for i, value in zip(slow.tolist(), x[slow].tolist()):
        line = b"%.12g\n" % value
        lines[i] = 0
        lines[i, : len(line)] = np.frombuffer(line, dtype=np.uint8)
    return rows.tobytes().translate(None, b"\0")


def emit_positions(positions: np.ndarray) -> Iterator[bytes]:
    """A positions file's bytes, lazily: ``position``, then ``%.12g`` lines per :func:`_chunks`."""
    return itertools.chain([b"position\n"], map(_format_g12, _chunks(positions)))


def emit_report(result: WeakValueReport | SweepResult, fmt: str = "csv") -> str:
    """Render a run report or a sweep result as CSV or JSON.

    Parameters
    ----------
    result : WeakValueReport or SweepResult
        What to render.
    fmt : {"csv", "json"}
        Output format.  CSV prints 12 significant digits; JSON keeps full
        precision so parsed values equal the originals.
    """
    run = isinstance(result, WeakValueReport)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=_CSV_COLUMNS, restval="", lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(report_rows(result) if run else sweep_rows(result))
        return buffer.getvalue()
    if fmt == "json":
        return json.dumps(report_json(result) if run else sweep_json(result), indent=2)
    raise ValueError(f"unknown report format {fmt!r}")
