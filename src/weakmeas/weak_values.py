"""Weak-value oracles and extraction routes from conditioned pointer states.

The analytic oracle, :func:`analytic_oracle`, is the weak value of the
symmetrized product of a scenario's observables (``<F|A|I> / <F|I>`` for one).
Three extraction routes recover it from simulated pointer states:

* the lowering-operator route, ``prod_j (2 sigma_j / gt_j) <prod_j a_j>``
  on the conditioned state, a non-Hermitian expectation the simulation can
  take directly;
* the correlator route, which expands every ``a_j`` into its pointer's X and P
  ``readouts()`` and recombines the resulting 2^N Hermitian correlation
  functions, the quantities an ensemble experiment would actually measure.
  Its recombined value equals the lowering route identically (same state,
  same operator algebra), and that forced equality is a standing self-test;
* the spin route, ``prod_j 1/(gt_j s_j) <prod_j S-_j>``: the lowering route
  with each pointer's own ladder operator and scale, so one ladder route
  takes Fock, spin and mixed pointer lists alike.  The correlator route and
  the Fock diagnostics read quadratures and refuse any other pointer.

Each route is one function over a sequence of (conditioned result, scenario)
points that share their pointers (:func:`extract_joint_fock`,
:func:`correlator_decomposition`, :func:`extract_joint_spin`), returning one
value per point.  The operators depend only on each pointer's width and
truncation, so each is built once and applied to every point.  The ladder
routes apply each pointer's ``d_j x d_j`` operator to its own axis of the
conditioned tensor and form no pointer-space matrix; the correlator route
builds each of its 2^N products as a dense ``kron``, so the route identity
compares two independent evaluations.  A run passes its one point, a
coupling sweep all its grid points.

Extraction always uses the exactly evolved, exactly projected state, so the
residual error measures genuine higher-order coupling effects.  The leading
correction is quadratic in the pointer expansion parameter lambda, and for
Fock pointers it is known exactly: expanding
``<F| exp(sum_j lambda_j A_j (a_j^dag - a_j)) |I> |0>`` to second order gives

    c2 = sum_j lambda_j^2 / 2 [W(2e_j) W(1) - 2 |W(e_j)|^2 W(1)
                                + 2 conj(W(e_j)) W(1 + e_j) - W(1 + 2e_j)],

where ``W(k)`` is the symmetrized weak value of the multiset that uses
``A_i`` ``k_i`` times and ``1 = (1, ..., 1)``.  The terms ``W(1 + e_j)`` are
weak values of partial products with one factor repeated; they grow like
``1/|<F|I>|`` even when the joint value ``W(1)`` stays small.  The formula
holds for non-commuting observables.  :func:`second_order_error` evaluates
it, and :func:`extraction_tolerance` is the coarse model that bounds the
error for every pointer kind.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterable, Sequence
from functools import reduce

import numpy as np

from .errors import (
    CapacityError,
    UnsupportedScenarioError,
    WeakMeasurementError,
    ZeroCouplingError,
)
from .evolution import PostSelectionResult, evolve_exact, scenario_frame
from .pointers import FockPointerSpec, fock_operators
from .scenario import Scenario, weak_value_denominator
from .tensor import expectation, kron, product_expectation

#: Symmetrized weak values take at most this many observables.  The word-sum
#: recursion visits 2^N multisets for the joint value and (N + 1) 2^N for the
#: second-order term, whose words are N + 2 operators long.
SYMMETRIZATION_CAP = 8

#: Coefficient and floor of :func:`extraction_tolerance`.
TOLERANCE_COEFFICIENT = 3.0
TOLERANCE_FLOOR = 1e-9

CorrelatorTable = dict[str, float]

#: A conditioned state and the scenario it was evolved from.
ConditionedPoint = tuple[PostSelectionResult, Scenario]


def analytic_weak_value(observable: np.ndarray, pre: np.ndarray, post: np.ndarray) -> complex:
    """Exact weak value ``<F|A|I> / <F|I>``; no weak-coupling approximation."""
    denom = weak_value_denominator(pre, post)
    numer = np.vdot(post, observable @ pre)
    return complex(numer / denom)


def _symmetrized_values(
    scenario: Scenario, multisets: Iterable[tuple[int, ...]]
) -> dict[tuple[int, ...], complex]:
    """Symmetrized weak values ``W(k) = <F|T_k|I> / (<F|I> m! / prod_i k_i!)``.

    ``T_k`` sums the distinct words that use embedded observable i ``k_i``
    times (``m = sum_i k_i``), so ``W(k)`` averages their weak values.
    ``T_k |I>`` comes from the recursion ``T_k = sum_{j: k_j > 0} A_j T_{k - e_j}``
    with ``T_0 |I> = |I>``, memoized on the scenario.  A value past the float
    range (observables whose products overflow) raises :class:`CapacityError`,
    with numpy's overflow warnings silenced.
    """
    observables = scenario.embedded_observables()
    n = len(observables)
    if n > SYMMETRIZATION_CAP:
        raise CapacityError(
            f"symmetrization over {n} observables exceeds the cap N <= {SYMMETRIZATION_CAP}"
        )
    denom = weak_value_denominator(scenario.pre, scenario.post)
    vectors = scenario._once("_word_sums", lambda: {(0,) * n: scenario.pre})

    def word_sum(k: tuple[int, ...]) -> np.ndarray:
        vec = vectors.get(k)
        if vec is None:
            vec = sum(
                observables[j] @ word_sum(k[:j] + (kj - 1,) + k[j + 1 :])
                for j, kj in enumerate(k)
                if kj
            )
            vec.flags.writeable = False
            vectors[k] = vec
        return vec

    values = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for k in multisets:
            words = math.factorial(sum(k)) // math.prod(math.factorial(kj) for kj in k)
            values[k] = complex(np.vdot(scenario.post, word_sum(k)) / (words * denom))
    for k, value in values.items():
        if not cmath.isfinite(value):
            raise CapacityError(
                f"the symmetrized weak value W{k} is {value}, past the float range"
            )
    return values


def _route_pointers(scenarios: Sequence[Scenario]) -> tuple:
    """The pointers the scenarios share, of any kind.

    Every gt must be non-zero and every route scale finite; a scale that
    overflows would print the extracted value as inf or NaN.
    """
    if not scenarios:
        raise ValueError("extraction needs at least one conditioned state")
    for scenario in scenarios:
        if any(gt == 0.0 for gt in scenario.couplings):
            raise ZeroCouplingError(
                "extraction divides by gt; the weak limit is taken by shrinking a "
                "finite coupling, not by setting it to zero"
            )
        scale = _route_scale(scenario)
        if not math.isfinite(scale):
            raise ZeroCouplingError(
                f"the route scale overflows to {scale} at couplings "
                f"{list(scenario.couplings)}; the weak limit needs couplings whose "
                "rescaling stays finite"
            )
    pointers = scenarios[0].pointers
    if any(scenario.pointers != pointers for scenario in scenarios[1:]):
        raise ValueError("batched extraction needs every scenario to share its pointers")
    return pointers


def _fock_pointers(scenarios: Sequence[Scenario]) -> tuple:
    """:func:`_route_pointers` for a route that reads Fock quadratures; refuses other kinds."""
    if not all(isinstance(p, FockPointerSpec) for s in scenarios for p in s.pointers):
        raise UnsupportedScenarioError("this extraction route requires Fock pointers")
    return _route_pointers(scenarios)


def _route_scale(scenario: Scenario) -> float:
    return math.prod(p.route_scale(gt) for p, gt in zip(scenario.pointers, scenario.couplings))


def _ladder_route(points: Sequence[ConditionedPoint]) -> list[complex]:
    """``prod_j route_scale_j <prod_j L_j>`` at every point, with ``L_j = lowering()``.

    Each pointer brings its own ladder operator and scale, so the pointers may
    be of any kinds, mixed included.  The product is never formed: each
    ``L_j`` acts on its own axis of the conditioned ``(d_1, ..., d_N)`` tensor
    (:func:`~weakmeas.tensor.product_expectation`), so the route holds only
    state-sized arrays and the ``d_j x d_j`` factors, built once for all points.
    """
    pointers = _route_pointers([scenario for _, scenario in points])
    factors = [p.lowering() for p in pointers]
    return [
        complex(product_expectation(r.conditioned, factors) * _route_scale(s)) for r, s in points
    ]


def extract_joint_fock(points: Sequence[ConditionedPoint]) -> list[complex]:
    """Joint weak values from the product of pointer lowering operators.

    Evaluates ``<prod_j a_j>`` on each conditioned pointer state (the lowering
    operators isolate the component displaced by the interaction) and
    rescales by ``prod_j (2 sigma_j / gt_j)``.  Each ``a_j`` is applied to its
    own pointer's axis, so no pointer-space matrix is formed.  The same ladder
    route as :func:`extract_joint_spin`; the two stay separate functions while
    the benchmark traces each by name.
    """
    return _ladder_route(points)


def correlator_decomposition(
    points: Sequence[ConditionedPoint],
) -> list[tuple[CorrelatorTable, complex]]:
    """All 2^N quadrature correlators of each conditioned state, plus their recombination.

    Each table entry keys a signature string (one readout letter per pointer,
    ``X`` or ``P``) to the real expectation value of the corresponding
    Hermitian product, the quantities measurable on identically prepared
    ensembles.  Recombining them with the product of the weights in each
    pointer's ``readouts()``, times the route scale, reproduces the lowering
    route exactly; the recombined value is returned alongside the table.
    Each of the 2^N products is a dense ``kron`` over the pointer space,
    built once, applied to every state, and freed before the next one is
    built, so one dense product is alive at a time.  The lowering route
    contracts axis by axis instead, so the route identity the harness checks
    compares two independent evaluations.
    """
    pointers = _fock_pointers([scenario for _, scenario in points])
    tables: list[CorrelatorTable] = [{} for _ in points]
    recombined = [0.0 + 0.0j for _ in points]
    for signature in itertools.product(*(p.readouts() for p in pointers)):
        letters, factors, weights = zip(*signature)
        key = "".join(letters)
        weight = math.prod(weights, start=1.0 + 0.0j)
        product = kron(factors)
        for i, (result, _) in enumerate(points):
            value = expectation(result.conditioned, product)
            tables[i][key] = float(value.real)
            recombined[i] += weight * value
        del product
    return [
        (table, complex(value * _route_scale(scenario)))
        for table, value, (_, scenario) in zip(tables, recombined, points)
    ]


def pointer_shift_check(
    result: PostSelectionResult, scenario: Scenario
) -> tuple[float, float]:
    """Conditioned single-pointer quadrature means ``(<X>, <P>)``.

    Only defined for one Fock pointer; the shifts are proportional to the
    real and imaginary parts of the weak value, ``<X> = gt Re(A_w)`` and
    ``<P> = (gt / 2 sigma^2) Im(A_w)`` to leading order.
    """
    if scenario.n_pointers != 1:
        raise UnsupportedScenarioError("quadrature shifts are a single-pointer diagnostic")
    _fock_pointers([scenario])
    x, p = fock_operators(scenario.pointers[0])
    x_mean = product_expectation(result.conditioned, [x]).real
    p_mean = product_expectation(result.conditioned, [p]).real
    return float(x_mean), float(p_mean)


def extract_joint_spin(points: Sequence[ConditionedPoint]) -> list[complex]:
    """Joint weak values from spin pointers: ``prod_j 1/(gt_j s_j) <prod_j S-_j>``.

    Each ``S-_j`` is applied to its own pointer's axis, so no pointer-space
    matrix is formed.  The same ladder route as :func:`extract_joint_fock`,
    kept apart while the benchmark traces each; runs report it for any
    scenario with a spin pointer, mixed included.
    """
    return _ladder_route(points)


def strong_position_estimate(scenario: Scenario) -> complex:
    """Strong-measurement analog: ``prod_j (1/gt_j) <prod_j X_j>`` without post-selection.

    For commuting observables (a diagonal system frame; others are refused)
    and independent zero-mean pointers the position correlation of the evolved
    (un-projected) state equals ``<I|prod_j A_j|I>`` exactly, up to truncation
    leakage.  Each ``X_j`` acts on its own axis of the evolved
    ``(S, d_1, ..., d_N)`` tensor, as the ladder route applies its factors,
    so no full-space operator is formed.
    """
    _fock_pointers([scenario])
    if not scenario_frame(scenario)[2]:
        raise UnsupportedScenarioError(
            "the strong-measurement analog requires commuting observables"
        )
    xs = [fock_operators(pointer)[0] for pointer in scenario.pointers]
    value = product_expectation(evolve_exact(scenario), xs)
    scale = math.prod(1.0 / gt for gt in scenario.couplings)
    return complex(value * scale)


def analytic_oracle(scenario: Scenario) -> complex:
    """Weak value of the symmetrized product, ``<F|P{A}|I> / (N! <F|I>)``.

    ``P{A}`` sums the product of the embedded observables over all N!
    orderings, which is what the simultaneous coupling of N pointers probes:
    ``W(1, ..., 1)`` of :func:`_symmetrized_values`.  For commuting
    observables (a diagonal system frame, kept on the scenario with the word
    sums) it must equal the plain product, and is checked against it.
    """
    ones = (1,) * len(scenario.observables)
    value = _symmetrized_values(scenario, [ones])[ones]

    if scenario_frame(scenario)[2]:
        with np.errstate(over="ignore", invalid="ignore"):
            product = reduce(np.matmul, scenario.embedded_observables())
            direct = analytic_weak_value(product, scenario.pre, scenario.post)
        if not abs(value - direct) <= 1e-12 * (1.0 + abs(direct)):  # NaN, an overflow, fails too
            raise WeakMeasurementError(
                f"symmetrized value {value} does not reduce to the plain-product "
                f"value {direct} for commuting observables"
            )
    return value


def second_order_error(scenario: Scenario) -> complex:
    """Exact lambda^2 term ``c2`` of the Fock lowering route minus the oracle.

    The lowering route reads ``analytic_oracle(scenario) + c2 + O(lambda^4)``
    up to Fock truncation, with ``c2`` the sum given in the module docstring.
    Its symmetrized weak values come from the word-sum recursion over the
    embedded observables, continuing the scenario's word sums, so after
    :func:`analytic_oracle` only the longer words are new.
    """
    _fock_pointers([scenario])
    n = len(scenario.observables)
    ones = (1,) * n

    def bumped(base: tuple[int, ...], j: int, by: int) -> tuple[int, ...]:
        return base[:j] + (base[j] + by,) + base[j + 1 :]

    zero = (0,) * n
    multisets = [ones] + [
        bumped(base, j, by) for j in range(n) for base in (zero, ones) for by in (1, 2)
    ]
    w = _symmetrized_values(scenario, multisets)
    joint = w[ones]
    c2 = 0j
    for j, lam in enumerate(scenario.lambdas):
        single = w[bumped(zero, j, 1)]
        c2 += 0.5 * lam**2 * (
            w[bumped(zero, j, 2)] * joint
            - 2.0 * abs(single) ** 2 * joint
            + 2.0 * single.conjugate() * w[bumped(ones, j, 1)]
            - w[bumped(ones, j, 2)]
        )
    return complex(c2)


def extraction_tolerance(lambda_max: float, analytic: complex) -> float:
    """Absolute tolerance for comparing an extracted value with the oracle.

    The next-to-leading term in the extracted value is quadratic in the
    expansion parameter; under strong post-selection its prefactor picks up
    ratios of matrix elements that grow with the weak value (for one
    two-level observable the relative error is exactly
    ``lambda^2 |1 - A_w^2|``).  The cubic factor ``(1 + |A_w|)^3`` bounds
    that growth uniformly, and :data:`TOLERANCE_COEFFICIENT` covers the
    factor-2 transition-pair correction plus truncation residue.
    :data:`TOLERANCE_FLOOR` is a fixed floor; the extraction's rounding,
    about ``eps |route scale| (1 + |A_w|)``, grows like ``1/lambda`` past it,
    so :func:`~weakmeas.harness.run_scenario` also takes the sweep's floor.

    The model sees only the joint value ``A_w``.  Joint extractions also
    carry the weak values of partial products, which the exact lambda^2 term
    of :func:`second_order_error` contains, so for Fock pointers
    :func:`~weakmeas.harness.run_scenario` also raises it to twice ``|c2|``.

    Raises :class:`WeakMeasurementError` when ``(1 + |A_w|)^3`` overflows a
    float, which happens once ``|A_w|`` passes about 5.6e102.
    """
    try:
        growth = (1.0 + abs(analytic)) ** 3
    except OverflowError:
        raise WeakMeasurementError(
            f"|A_w| = {abs(analytic):.3e} overflows the tolerance model "
            "3 lambda^2 (1 + |A_w|)^3"
        ) from None
    return TOLERANCE_COEFFICIENT * lambda_max**2 * growth + TOLERANCE_FLOOR
