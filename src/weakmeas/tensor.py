"""Dense complex linear algebra over tensor-product Hilbert spaces.

A scenario's observables and pre/post states, pointer operators (built fresh
on every call, see :mod:`weakmeas.pointers`) and amplitude tensors are plain
``complex128`` arrays; a tensor has one axis per factor, system factors
first, then one per measurement pointer in declaration order.  Every array a
scenario or an :class:`Operator` holds passes :func:`_frozen_complex` once,
when it is built: it is copied, checked (finite; square, or one axis for a
state) and made read-only, so nothing the caller keeps can change it and it
is safe to share across threads.

:class:`Operator` remains only where the program forms a full-space matrix:
the Kronecker product :func:`kron` and the dense references
:func:`hermitian_propagator` and ``evolution.build_hamiltonian``.  It holds
the factor dims beside its matrix and defines no arithmetic.  :func:`_embed`
lifts a matrix on some factors to all of them; it checks only the array cap,
because its target slots and sizes are those ``Scenario`` construction has
already checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, HermiticityError, LayoutError, ZeroNormError

#: Hard cap on the bytes of one large complex array (a Kronecker product, an
#: embedded operator, the evolution's starting state and batched eigh blocks),
#: checked before it is allocated.  2^28 bytes is a 4096-row complex matrix.
MAX_ARRAY_BYTES = 2**28

#: Relative tolerance of the Hermiticity check max|M - M^dag| <= tol * max|M|.
HERMITIAN_TOL = 1e-12


def _frozen_complex(values, kind: str, ndim: int) -> np.ndarray:
    """A read-only complex copy of ``values``, always its own; raises unless finite
    and of ``ndim`` equal axes (a vector, or a square matrix)."""
    arr = np.array(values, dtype=np.complex128, order="C")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{kind} contains non-finite entries")
    if arr.ndim != ndim or len(set(arr.shape)) != 1:
        expected = "a square matrix" if ndim == 2 else "a vector"
        raise LayoutError(f"{kind} shape {arr.shape} is not {expected}")
    arr.flags.writeable = False
    return arr


def _as_number(value, field: str, integer: bool = False) -> int | float:
    """``value`` as an int if ``integer``, else as a finite float.

    Python and numpy scalars count; ``True`` and ``False`` do not.  Any other
    type raises :class:`TypeError`, and a real number no float holds (an
    integer past the float range, ``NaN``, an infinity) :class:`ValueError`,
    each naming ``field``.
    """
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if not isinstance(value, kinds) or isinstance(value, bool):
        noun = "an integer" if integer else "a number"
        raise TypeError(f"{field}: expected {noun}, got {value!r}")
    if integer:
        return int(value)
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{field}: number too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{field}: expected a finite number, got {number!r}")
    return number


def _require_shape(tensor: np.ndarray, dims: tuple[int, ...]) -> None:
    if tensor.shape != dims:
        raise LayoutError(f"state shape {tensor.shape} does not match the layout {dims}")


def require_hermitian(matrix: np.ndarray) -> None:
    """Raise :class:`HermiticityError` unless max|M - M^dag| <= HERMITIAN_TOL * max|M|."""
    defect = np.abs(matrix - matrix.conj().T).max()
    if defect > HERMITIAN_TOL * np.abs(matrix).max():
        raise HermiticityError(
            f"operator fails the Hermiticity check (max|M - M^dag| = {defect:.3e})"
        )


@dataclass(frozen=True, eq=False)
class Operator:
    """Full-space matrix over tensor factors of the given ``dims``.

    ``matrix`` is checked by :func:`_frozen_complex` and must have
    ``prod(dims)`` rows.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        matrix = _frozen_complex(self.matrix, "operator", 2)
        if len(matrix) != self.dim:
            raise LayoutError(f"operator shape {matrix.shape} does not match the dims {self.dims}")
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def _check_capacity(nbytes: int) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise CapacityError(f"{nbytes} bytes exceed the array cap {MAX_ARRAY_BYTES}")


def kron(factors: Sequence[np.ndarray]) -> Operator:
    """Kronecker product of square arrays, in the declared factor order.

    Returns an :class:`Operator` with one factor per input, of the dimension
    read from its shape.  Each extra factor takes one broadcast multiply,
    ``P[i, k, j, l] = P[i, j] F[k, l]``, on operands shaped as ``np.kron``
    shapes them, so numpy runs the same multiply loop and the result has the
    same bits, signed zeros included.
    Raises :class:`CapacityError` when the product would take more than
    :data:`MAX_ARRAY_BYTES`.
    """
    if not factors:
        raise LayoutError("kron needs at least one factor")
    _check_capacity(math.prod(f.size for f in factors) * 16)
    product = factors[0]
    for factor in factors[1:]:
        rows = product.shape[0] * len(factor)
        product = (product[:, None, :, None] * factor[None, :, None, :]).reshape(rows, rows)
    return Operator(tuple(len(f) for f in factors), product)


def _embed(matrix: np.ndarray, target: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Embed ``matrix``, acting on the factors ``target`` in that order, into the
    space of factor ``dims``, as a read-only array that acts as the identity on
    every other factor.

    The caller guarantees what ``Scenario`` construction checks: distinct,
    in-range target slots and a matrix of their size.  The result may not take
    more than :data:`MAX_ARRAY_BYTES`.
    """
    k = len(dims)
    dim = math.prod(dims)
    _check_capacity(dim**2 * 16)

    rest = tuple(i for i in range(k) if i not in target)
    rest_dim = math.prod(dims[i] for i in rest)
    big = np.kron(matrix, np.eye(rest_dim, dtype=np.complex128))

    # big is ordered (target..., rest...); permute tensor axes back to factor order
    order_from = target + rest
    dims_from = [dims[i] for i in order_from]
    perm = [order_from.index(i) for i in range(k)]
    tensor = big.reshape(dims_from + dims_from)
    tensor = tensor.transpose(perm + [k + p for p in perm])
    embedded = np.ascontiguousarray(tensor.reshape(dim, dim))
    embedded.flags.writeable = False
    return embedded


def hermitian_propagator(hamiltonian: Operator, tau: float) -> Operator:
    """Unitary ``exp(-i tau H)`` of a Hermitian operator, by spectral decomposition.

    The spectral route is exact for any coupling strength, which keeps
    quadratic-in-coupling effects free of series-truncation artifacts.
    """
    require_hermitian(hamiltonian.matrix)
    eigvals, eigvecs = np.linalg.eigh(hamiltonian.matrix)
    phases = np.exp(-1j * float(tau) * eigvals)
    unitary = (eigvecs * phases) @ eigvecs.conj().T
    return Operator(hamiltonian.dims, unitary)


def _norm_sq(state: np.ndarray) -> float:
    norm_sq = float(np.vdot(state, state).real)
    if norm_sq == 0.0:
        raise ZeroNormError("expectation value of a zero-norm state is undefined")
    return norm_sq


def expectation(state: np.ndarray, op: Operator) -> complex:
    """Expectation value <psi|O|psi> / <psi|psi> of an amplitude tensor.

    The state's shape must equal ``op.dims``, one axis per factor; it
    need not be normalized.  The operator may be non-Hermitian, in which case
    the full complex value is returned.
    """
    _require_shape(state, op.dims)
    norm_sq = _norm_sq(state)
    return complex(np.vdot(state, op.matrix @ state.reshape(-1)) / norm_sq)


def _rotate(matrix: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    """Apply ``matrix`` to one axis of ``tensor``."""
    return np.moveaxis(np.tensordot(matrix, tensor, axes=(1, axis)), 0, axis)


def product_expectation(state: np.ndarray, factors: Sequence[np.ndarray]) -> complex:
    """Expectation <psi|F_1 x ... x F_n|psi> / <psi|psi> of a product of one-axis operators.

    The factors are plain square arrays, whose dims are read from their
    shapes.  Factor k acts on axis ``state.ndim - n + k``, so the factors take
    the trailing axes in order and any leading axis (a system held beside its
    pointers) carries the identity.  Each factor is one ``tensordot`` along
    its own axis: no operator over the product space is formed, and the cost
    is that of n state-sized products rather than one D x D matrix.  The
    shape and zero-norm checks are those of :func:`expectation`.
    """
    lead = state.ndim - len(factors)
    dims = tuple(len(f) for f in factors)
    if not factors or lead < 0 or state.shape[lead:] != dims:
        raise LayoutError(f"state shape {state.shape} does not end in the factor dims {dims}")
    norm_sq = _norm_sq(state)
    moved = state
    for axis, factor in enumerate(factors, start=lead):
        moved = _rotate(factor, moved, axis)
    return complex(np.vdot(state, moved) / norm_sq)
