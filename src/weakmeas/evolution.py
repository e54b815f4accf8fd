"""Interaction-Hamiltonian assembly, exact propagation, and post-selection.

The coupling Hamiltonian is ``H = sum_j gt_j A_j P_j`` with ``A_j`` the
system observable and ``P_j`` the momentum quadrature of Fock pointer j
(for spin pointers the coupling operator is ``-S_y``).  The interaction
time is folded into ``gt``, so states are propagated by ``exp(-i H)`` with
hbar = 1.

Propagation is by spectral decomposition, never by a truncated series, so
quadratic-in-coupling effects are exact up to Fock truncation.  There is one
route, through the coupling frame.  Each pointer j is rotated into the
eigenbasis ``V_j`` of its coupling operator ``C_j`` (eigenvalues ``c_j``), and
the system into the frame ``W`` of :func:`_system_frame`: the eigenbasis of
A_0, refined by each later A_j in turn within the level clusters of those
before it.  A scenario builds its frame once (:func:`scenario_frame`), for
evolution and for the oracle.  The C_j act on different factors, so in this
frame H is block-diagonal, with one system-sized block
``sum_j gt_j c_{j,k_j} W^dag A_j W`` per pointer eigenvector tuple
``(k_1, ..., k_N)``, whether or not the A_j commute.  When they commute,
every ``W^dag A_j W`` is diagonal (to :data:`DIAGONAL_TOL`) and the
exponential is an elementwise phase; otherwise one batched ``eigh``
diagonalizes all blocks.  No full-space matrix is formed,
the result equals the dense spectral propagator to rounding, and
:func:`build_hamiltonian` assembles the dense H only as a reference.

The evolved state is the read-only ``(S, d_1, ..., d_N)`` amplitude tensor
the propagation works on: the system on axis 0, then one axis per pointer.
:func:`post_select` contracts axis 0 with ``<F|`` and leaves the
``(d_1, ..., d_N)`` conditioned pointer tensor.  Truncation is monitored by
a leakage guard: after evolution the population of the top two levels of
every Fock pointer must stay below :data:`LEAKAGE_GUARD`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PostSelectionFailureError, TruncationLeakageError
from .pointers import FockPointerSpec
from .scenario import Scenario
from .tensor import Operator, _check_capacity, _embed, _require_shape, _rotate, require_hermitian

#: Maximum tolerated population in the top two levels of any Fock pointer.  The
#: lowering route's truncation error measured at most 0.05 of that population in
#: units of 1 + |A_w|, so under the guard truncation stays below 5e-10 (1 + |A_w|).
LEAKAGE_GUARD = 1e-8

#: Post-selection probabilities below this floor are treated as failed runs.
PROB_FLOOR = 1e-12

#: A rotated observable W^dag A_j W counts as diagonal when no off-diagonal
#: entry exceeds this fraction of max|A_j|; the nested frame left at most 0.021
#: of it on 2 to 8 commuting single-qubit observables in random bases.  The
#: phase shortcut drops those entries.  Since ||exp(-iH) - exp(-iH')|| <= ||H - H'||,
#: that moves the evolved state by at most DIAGONAL_TOL * S * sum_j |gt_j|
#: max|A_j| ||C_j|| in norm (S the system dimension), which is below 3e-13 on
#: every shipped catalog scenario.
DIAGONAL_TOL = 1e-13


@dataclass(frozen=True)
class PostSelectionResult:
    """Pointer-space state conditioned on a successful post-selection.

    ``conditioned`` is the read-only ``(d_1, ..., d_N)`` amplitude tensor, one
    axis per pointer, stored unit-normalized; pointer expectation values do
    not depend on that choice of scalar rescaling, and ``prob_success``
    (the squared norm of the raw projection) keeps the alternative
    normalization recoverable.
    """

    conditioned: np.ndarray
    prob_success: float


def _apply(blocks: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Multiply block k into the system vector ``tensor[:, k]`` for every k."""
    vectors = np.moveaxis(tensor, 0, -1)[..., None]
    return np.moveaxis((blocks @ vectors)[..., 0], -1, 0)


def _joint_shape(scenario: Scenario) -> tuple[int, ...]:
    """``(S, d_1, ..., d_N)``: the system dimension, then one axis per pointer."""
    return (math.prod(scenario.system_dims),) + scenario.pointer_dims


def build_hamiltonian(scenario: Scenario) -> Operator:
    """Assemble ``sum_j gt_j A_j P_j`` over all factors and verify Hermiticity.

    A dense reference only: propagation never forms the full-space matrix.
    """
    terms = None
    for j, (obs_full, gt, pointer) in enumerate(
        zip(scenario.embedded_observables(), scenario.couplings, scenario.pointers)
    ):
        block = _embed(pointer.coupling(), (j,), scenario.pointer_dims)
        term = gt * np.kron(obs_full, block)
        terms = term if terms is None else terms + term
    hamiltonian = Operator(scenario.system_dims + scenario.pointer_dims, terms)
    require_hermitian(hamiltonian.matrix)
    return hamiltonian


def top_level_leakage(tensor: np.ndarray, scenario: Scenario) -> list[float]:
    """Population in the top two levels of each Fock pointer (0.0 for spin) of an
    evolved ``(S, d_1, ..., d_N)`` tensor; another shape raises ``LayoutError``."""
    _require_shape(tensor, _joint_shape(scenario))
    out = []
    for axis, pointer in enumerate(scenario.pointers, start=1):
        if isinstance(pointer, FockPointerSpec):
            moved = np.moveaxis(tensor, axis, 0).reshape(pointer.dim, -1)
            pops = np.sum(np.abs(moved) ** 2, axis=1)
            out.append(float(pops[-2:].sum()))
        else:
            out.append(0.0)
    return out


def _check_leakage(tensor: np.ndarray, scenario: Scenario) -> None:
    for j, leak in enumerate(top_level_leakage(tensor, scenario)):
        if leak > LEAKAGE_GUARD:
            raise TruncationLeakageError(
                j, leak, scenario.pointers[j].dim, LEAKAGE_GUARD, scenario.lambdas[j]
            )


def _nested_eigenbasis(matrices: np.ndarray, tols: np.ndarray) -> np.ndarray:
    """The eigenbasis of A_0, refined by each later A_j in turn within the level
    clusters (levels less than ``tols`` apart) of those before it."""
    levels, basis = np.linalg.eigh(matrices[0])
    cuts = np.diff(levels) > tols[0]  # cuts[i]: columns i, i + 1 in different clusters
    for matrix, tol in zip(matrices[1:], tols[1:]):
        bounds = [0, *(np.flatnonzero(cuts) + 1).tolist(), len(basis)]
        for start, stop in zip(bounds, bounds[1:]):
            if stop - start > 1:
                part = basis[:, start:stop]
                levels, vectors = np.linalg.eigh(part.conj().T @ matrix @ part)
                basis[:, start:stop] = part @ vectors
                cuts[start : stop - 1] |= np.diff(levels) > tol
    return basis


def _system_frame(observables) -> tuple[np.ndarray, np.ndarray, bool]:
    """The system frame ``W``, the stacked ``W^dag A_j W``, and whether all are diagonal.

    ``W`` is :func:`_nested_eigenbasis` of the A_j.  When they commute it
    diagonalizes every one of them, so the flag is True when they commute to
    :data:`DIAGONAL_TOL`; otherwise it is only a basis, and the batched ``eigh``
    of :func:`evolve_exact` accepts any basis.
    """
    matrices = np.stack(observables)
    tols = DIAGONAL_TOL * np.abs(matrices).max(axis=(1, 2))
    basis = _nested_eigenbasis(matrices, tols)
    rotated = basis.conj().T @ matrices @ basis
    off_diagonal = np.abs(rotated * (1.0 - np.eye(len(basis)))).max(axis=(1, 2))
    basis.flags.writeable = rotated.flags.writeable = False  # a scenario shares its frame
    return basis, rotated, bool(np.all(off_diagonal <= tols))


def scenario_frame(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, bool]:
    """:func:`_system_frame` of the scenario's embedded observables, built once per scenario
    and shared with its ``with_lambda``/``with_fock_dim`` copies."""
    return scenario._once("_frame", lambda: _system_frame(scenario.embedded_observables()))


def evolve_exact(scenario: Scenario) -> np.ndarray:
    """Propagate the pre-selected joint state by ``exp(-i H)``, exactly.

    The initial state is the pre-selection joined with every pointer in its
    level 0 (Fock |0>, spin |m = -s>).  The result is a read-only
    ``(S, d_1, ..., d_N)`` tensor: the system amplitudes on axis 0, then
    one axis per pointer.  The state is propagated in the coupling frame
    described in the module docstring.

    Raises
    ------
    CapacityError
        If the joint state or the batched ``eigh`` blocks would take more
        than :data:`~weakmeas.tensor.MAX_ARRAY_BYTES`.
    TruncationLeakageError
        If any Fock pointer ends with more than :data:`LEAKAGE_GUARD`
        population in its top two levels.
    """
    shape = _joint_shape(scenario)
    _check_capacity(math.prod(shape) * 16)
    initial = np.zeros(shape, dtype=np.complex128)
    initial[(slice(None),) + (0,) * len(scenario.pointers)] = scenario.pre
    system_basis, rotated, diagonal = scenario_frame(scenario)
    pointer_frames = []
    for axis, (pointer, gt) in enumerate(zip(scenario.pointers, scenario.couplings), start=1):
        levels, basis = np.linalg.eigh(pointer.coupling())
        pointer_frames.append((axis, gt * levels, basis))
    tensor = _rotate(system_basis.conj().T, initial, 0)
    if diagonal:
        # The phase exp(-i sum_j gt_j c_{j,k_j} b_{j,s}) is a product over
        # pointers.  Applying each factor inside its own pointer's frame, one
        # pointer at a time, keeps the displaced amplitudes (of order
        # lambda^n) accurate relative to their own size; a single phase over
        # the joint frame would leave absolute errors of order 1e-16 in them.
        system_levels = np.diagonal(rotated, axis1=1, axis2=2).real
        for axis, scaled_levels, basis in pointer_frames:
            phase = np.exp(-1j * np.outer(system_levels[axis - 1], scaled_levels))
            shape = [1] * tensor.ndim
            shape[0], shape[axis] = phase.shape
            in_frame = _rotate(basis.conj().T, tensor, axis)
            tensor = _rotate(basis, phase.reshape(shape) * in_frame, axis)
    else:
        # blocks[k_1, ..., k_N] = sum_j gt_j c_{j,k_j} W^dag A_j W
        _check_capacity(math.prod(scenario.pointer_dims) * rotated[0].size * 16)
        blocks = 0.0
        for axis, scaled_levels, basis in pointer_frames:
            tensor = _rotate(basis.conj().T, tensor, axis)
            shape = [1] * (tensor.ndim + 1)
            shape[axis - 1] = scaled_levels.size
            blocks = blocks + scaled_levels.reshape(shape) * rotated[axis - 1]
        values, vectors = np.linalg.eigh(blocks)
        coeffs = _apply(vectors.conj().swapaxes(-1, -2), tensor)
        tensor = _apply(vectors, np.moveaxis(np.exp(-1j * values), -1, 0) * coeffs)
        for axis, _, basis in pointer_frames:
            tensor = _rotate(basis, tensor, axis)
    evolved = _rotate(system_basis, tensor, 0)
    evolved.flags.writeable = False
    _check_leakage(evolved, scenario)
    return evolved


def post_select(tensor: np.ndarray, scenario: Scenario) -> PostSelectionResult:
    """Contract axis 0 of an evolved ``(S, d_1, ..., d_N)`` state with ``<F|``.

    Returns the unit-normalized, read-only ``(d_1, ..., d_N)`` conditioned
    pointer tensor together with the success probability (squared norm of
    the raw projection).  A tensor of another shape raises ``LayoutError``.
    """
    shape = _joint_shape(scenario)
    _require_shape(tensor, shape)
    projected = scenario.post.conj() @ tensor.reshape(shape[0], -1)
    prob = float(np.vdot(projected, projected).real)
    if prob < PROB_FLOOR:
        raise PostSelectionFailureError(
            f"post-selection probability {prob:.3e} below the floor {PROB_FLOOR:.0e}"
        )
    conditioned = (projected / math.sqrt(prob)).reshape(shape[1:])
    conditioned.flags.writeable = False
    return PostSelectionResult(conditioned=conditioned, prob_success=prob)
