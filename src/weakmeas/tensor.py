"""Dense complex linear algebra over tensor-product Hilbert spaces.

:class:`Operator`, :class:`StateVector` and :class:`FactorLayout` are checked
containers, kept where a layout or a check carries information: a scenario's
observables (also as :func:`embed_factors` places them on the system layout)
and pre/post states, which come from outside the program; the full-space
product :func:`kron` returns; and the dense reference
:func:`hermitian_propagator`.  They only check and hold their contents
(finite, square, matching the layout, read-only) and define no arithmetic, so
products and sums are taken on the ``.matrix`` and ``.amps`` arrays; being
immutable, they are safe to share across threads.  Pointer operators are plain
``complex128`` arrays, built fresh on every call (see :mod:`weakmeas.pointers`),
and joint and pointer states are plain amplitude tensors, one axis per factor:
system factors first, then one per measurement pointer in declaration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, HermiticityError, LayoutError, ZeroNormError

#: Hard cap on the bytes of one large complex array (a Kronecker product, an
#: embedded operator, the evolution's starting state and batched eigh blocks),
#: checked before it is allocated.  2^28 bytes is a 4096-row complex matrix.
MAX_ARRAY_BYTES = 2**28

#: Relative tolerance of the Hermiticity check max|M - M^dag| <= tol * max|M|.
HERMITIAN_TOL = 1e-12

#: Absolute tolerance of the normalization check | ||psi|| - 1 | <= tol.
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class FactorLayout:
    """Ordered factor dimensions of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise LayoutError("a layout needs at least one factor")
        if any(d < 1 for d in dims):
            raise LayoutError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        """Total dimension (product of the factor dimensions)."""
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)


def _frozen_complex(values, kind: str, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a read-only complex array; raises unless finite and of ``shape``."""
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{kind} contains non-finite entries")
    if arr.shape != shape:
        raise LayoutError(f"{kind} shape {arr.shape} does not match the layout's {shape}")
    if arr.flags.writeable:
        if np.shares_memory(arr, values):
            arr = arr.copy()
        arr.flags.writeable = False
    return arr


def _require_shape(tensor: np.ndarray, dims: tuple[int, ...]) -> None:
    if tensor.shape != dims:
        raise LayoutError(f"state shape {tensor.shape} does not match the layout {dims}")


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix acting on a tensor-product space.

    Parameters
    ----------
    layout : FactorLayout
        Factor structure of the space the matrix acts on.
    matrix : array_like
        Square ``layout.dim`` x ``layout.dim`` complex matrix.
    """

    layout: FactorLayout
    matrix: np.ndarray

    def __post_init__(self):
        matrix = _frozen_complex(self.matrix, "operator", (self.layout.dim,) * 2)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.layout.dim

    def require_hermitian(self) -> "Operator":
        """Return ``self``, or raise unless max|M - M^dag| <= HERMITIAN_TOL * max|M|."""
        defect = np.abs(self.matrix - self.matrix.conj().T).max()
        if defect > HERMITIAN_TOL * np.abs(self.matrix).max():
            raise HermiticityError(
                f"operator fails the Hermiticity check (max|M - M^dag| = {defect:.3e})"
            )
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self.layout == other.layout and np.array_equal(self.matrix, other.matrix)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over a factor layout."""

    layout: FactorLayout
    amps: np.ndarray

    def __post_init__(self):
        amps = _frozen_complex(self.amps, "state vector", (self.layout.dim,))
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= NORMALIZATION_TOL

    def inner(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if self.layout != other.layout:
            raise LayoutError(f"layout mismatch: {self.layout.dims} vs {other.layout.dims}")
        return complex(np.vdot(self.amps, other.amps))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.layout == other.layout and np.array_equal(self.amps, other.amps)


def _check_capacity(nbytes: int) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise CapacityError(f"{nbytes} bytes exceed the array cap {MAX_ARRAY_BYTES}")


def kron(factors: Sequence[np.ndarray]) -> Operator:
    """Kronecker product of square arrays, in the declared factor order.

    Returns a checked :class:`Operator` whose layout has one factor per input,
    of the dimension read from its shape.  Each extra factor takes one
    broadcast multiply, ``P[i, k, j, l] = P[i, j] F[k, l]``, on operands shaped
    as ``np.kron`` shapes them, so numpy runs the same multiply loop and the
    result has the same bits, signed zeros included.
    Raises :class:`CapacityError` when the product would take more than
    :data:`MAX_ARRAY_BYTES`.
    """
    if not factors:
        raise LayoutError("kron needs at least one factor")
    layout = FactorLayout(tuple(len(f) for f in factors))
    _check_capacity(math.prod(f.size for f in factors) * 16)
    product = factors[0]
    for factor in factors[1:]:
        rows = product.shape[0] * len(factor)
        product = (product[:, None, :, None] * factor[None, :, None, :]).reshape(rows, rows)
    return Operator(layout, product)


def embed_factors(op: Operator, slots: Iterable[int], layout: FactorLayout) -> Operator:
    """Embed an operator acting on the given factor slots into a larger layout.

    ``op`` must be laid out over exactly the factors named by ``slots`` (in
    that order); the result acts as the identity on every other factor.

    Parameters
    ----------
    op : Operator
        Operator on the targeted factors.
    slots : iterable of int
        Distinct factor indices of ``layout``, in the order matching
        ``op.layout``.
    layout : FactorLayout
        Layout of the enclosing space; the embedded matrix may not take more
        than :data:`MAX_ARRAY_BYTES`.
    """
    slots = tuple(int(s) for s in slots)
    k = len(layout)
    if not slots:
        raise LayoutError("embed needs at least one target slot")
    if len(set(slots)) != len(slots):
        raise LayoutError(f"duplicate target slots {slots}")
    if any(s < 0 or s >= k for s in slots):
        raise LayoutError(f"slot out of range for a {k}-factor layout: {slots}")
    expected = tuple(layout.dims[s] for s in slots)
    if op.layout.dims != expected:
        raise LayoutError(
            f"operator dims {op.layout.dims} do not match target factor dims {expected}"
        )
    _check_capacity(layout.dim**2 * 16)

    rest = tuple(i for i in range(k) if i not in slots)
    rest_dim = math.prod(layout.dims[i] for i in rest) if rest else 1
    big = np.kron(op.matrix, np.eye(rest_dim, dtype=np.complex128))

    # big is ordered (slots..., rest...); permute tensor axes back to layout order
    order_from = slots + rest
    dims_from = [layout.dims[i] for i in order_from]
    perm = [order_from.index(i) for i in range(k)]
    tensor = big.reshape(dims_from + dims_from)
    tensor = tensor.transpose(perm + [k + p for p in perm])
    return Operator(layout, np.ascontiguousarray(tensor.reshape(layout.dim, layout.dim)))


def hermitian_propagator(hamiltonian: Operator, tau: float) -> Operator:
    """Unitary ``exp(-i tau H)`` of a Hermitian operator, by spectral decomposition.

    The spectral route is exact for any coupling strength, which keeps
    quadratic-in-coupling effects free of series-truncation artifacts.
    """
    hamiltonian.require_hermitian()
    eigvals, eigvecs = np.linalg.eigh(hamiltonian.matrix)
    phases = np.exp(-1j * float(tau) * eigvals)
    unitary = (eigvecs * phases) @ eigvecs.conj().T
    return Operator(hamiltonian.layout, unitary)


def _norm_sq(state: np.ndarray) -> float:
    norm_sq = float(np.vdot(state, state).real)
    if norm_sq == 0.0:
        raise ZeroNormError("expectation value of a zero-norm state is undefined")
    return norm_sq


def expectation(state: np.ndarray, op: Operator) -> complex:
    """Expectation value <psi|O|psi> / <psi|psi> of an amplitude tensor.

    The state's shape must equal ``op.layout.dims``, one axis per factor; it
    need not be normalized.  The operator may be non-Hermitian, in which case
    the full complex value is returned.
    """
    _require_shape(state, op.layout.dims)
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
