"""Measurement-pointer factories.

Two pointer families are supported, in natural units (hbar = 1):

* truncated-Fock Gaussian pointers, whose ground state is a Gaussian of rms
  position width ``sigma``.  The lowering operator is the exact truncated
  matrix ``a[n-1, n] = sqrt(n)`` and the quadratures are derived from it,
  ``X = sigma (a + a^dag)`` and ``P = i (a^dag - a) / (2 sigma)``, so the
  identity ``a = X/(2 sigma) + i sigma P`` holds entrywise by construction
  and all truncation error is pushed into the dynamics;
* spin-s pointers in the ascending S_z eigenbasis (m = -s .. +s), starting
  in the lowest eigenstate |m = -s>.

Each spec carries its own lambda and its inverse, coupling operator (P or
-S_y), ladder operator (a or S-) and route scale, so neither evolution nor
the ladder route tests the kind, and one scenario may mix kinds.  Only what a
Fock pointer alone has tests it: leakage (``evolution.top_level_leakage``),
``--dim`` (``scenario.with_fock_dim``, ``harness.sweep_lambda``), the document
form (``scenario.dump_scenario``), quadratures (``weak_values._fock_pointers``,
``harness._reports``) and sampling (``harness._sampled_pointer``).  A spec
whose sigma, s or dim is not a number (dim an integer; never a bool), whose
sigma or s no float holds, whose operators would pass the array cap, or whose
quadratures would overflow the float range, cannot be built.

Pointer operators are plain ``dim x dim`` complex arrays, not checked
containers: that refusal keeps them finite and under the cap.  Each is built
fresh on every call and cached nowhere.  :func:`fock_operators` returns the
quadrature pair ``(X, P)``, and a Fock spec's ``readouts()`` pairs each with
its weight in ``a = X/(2 sigma) + i sigma P`` for the correlator route;
:func:`spin_operators` returns ``(S-, S_y)``.  A Fock spec's ``coupling()``
and ``lowering()`` build only the operator they return, with the same bits
as the matching entry (``lowering()`` is the ``a`` the quadratures are built
from); a spin spec takes both from :func:`spin_operators`.

Basis ordering conventions: Fock levels ascending, spin m ascending; every
pointer starts in level 0 (see ``evolution.evolve_exact``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import CapacityError


@dataclass(frozen=True)
class FockPointerSpec:
    """Truncated harmonic-oscillator pointer with Gaussian ground state.

    Parameters
    ----------
    sigma : float
        Rms width of the ground-state position distribution.
    dim : int
        Fock truncation level (number of retained levels, >= 2).
    """

    sigma: float
    dim: int = 12

    def __post_init__(self):
        sigma = tensor._as_number(self.sigma, "sigma")
        dim = tensor._as_number(self.dim, "dim", integer=True)
        if sigma <= 0.0:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if dim < 2:
            raise ValueError(f"Fock truncation needs dim >= 2, got {self.dim}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "dim", dim)
        _check_dim(self)
        top = math.sqrt(dim - 1)  # the largest entry of a + a^dag and of a^dag - a
        if not (math.isfinite(top * sigma) and math.isfinite(top * (0.5 / sigma))):
            raise ValueError(f"sigma {sigma} overflows the quadratures of a {dim}-level pointer")

    def expansion(self, gt: float) -> float:
        """Dimensionless weak-coupling parameter ``lambda = |gt| / (2 sigma)``."""
        return abs(gt) / (2.0 * self.sigma)

    def coupling_for(self, lam: float) -> float:
        """Inverse of :meth:`expansion`: the gt realizing a given lambda."""
        return 2.0 * self.sigma * lam

    def route_scale(self, gt: float) -> float:
        """Factor ``2 sigma / gt`` that turns ``<a>`` into the weak value."""
        return 2.0 * self.sigma / gt

    def coupling(self) -> np.ndarray:
        """Pointer operator entering the interaction, the momentum quadrature P, as a new array."""
        return _fock_p(_fock_lowering(self.dim), self.sigma)

    def lowering(self) -> np.ndarray:
        """Ladder operator of the extraction route, the annihilation operator a, as a new array."""
        return _fock_lowering(self.dim)

    def readouts(self) -> tuple[tuple[str, np.ndarray, complex], ...]:
        """``(letter, operator, weight)`` per Hermitian term of ``a = X/(2 sigma) + i sigma P``."""
        x, p = fock_operators(self)
        return ("X", x, 1.0 / (2.0 * self.sigma)), ("P", p, 1j * self.sigma)


@dataclass(frozen=True)
class SpinPointerSpec:
    """Spin-s pointer; the Hilbert space dimension is 2s + 1."""

    s: float

    def __post_init__(self):
        s = tensor._as_number(self.s, "s")
        two_s = 2.0 * s
        if not math.isfinite(two_s) or s <= 0 or abs(two_s - round(two_s)) > 1e-12:
            raise ValueError(f"s must be a positive half-integer, got {self.s}")
        object.__setattr__(self, "s", s)
        _check_dim(self)

    @property
    def dim(self) -> int:
        return int(round(2.0 * self.s)) + 1

    def expansion(self, gt: float) -> float:
        """First-order transfer amplitude ``lambda = |gt| sqrt(2 s) / 2``."""
        return abs(gt) * math.sqrt(2.0 * self.s) / 2.0

    def coupling_for(self, lam: float) -> float:
        """Inverse of :meth:`expansion`: the gt realizing a given lambda."""
        return 2.0 * lam / math.sqrt(2.0 * self.s)

    def route_scale(self, gt: float) -> float:
        """Factor ``1 / (gt s)`` that turns ``<S->`` into the weak value."""
        return 1.0 / (gt * self.s)

    def coupling(self) -> np.ndarray:
        """Pointer operator entering the interaction, ``-S_y``, as a new array."""
        return -spin_operators(self)[1]

    def lowering(self) -> np.ndarray:
        """Ladder operator of the extraction route, ``S-``, as a new array."""
        return spin_operators(self)[0]


PointerSpec = FockPointerSpec | SpinPointerSpec


def _check_dim(spec: PointerSpec) -> None:
    """Refuse a pointer whose ``dim x dim`` operators would pass the array cap."""
    if spec.dim**2 * 16 > tensor.MAX_ARRAY_BYTES:
        raise CapacityError(
            f"pointer dim {spec.dim}: a dim x dim operator exceeds the array cap "
            f"{tensor.MAX_ARRAY_BYTES} bytes"
        )


def _fock_lowering(dim: int) -> np.ndarray:
    """The truncated annihilation matrix, ``a[n-1, n] = sqrt(n)``."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(np.complex128)


def _fock_p(lowering: np.ndarray, sigma: float) -> np.ndarray:
    """The momentum quadrature ``P = i (a^dag - a) / (2 sigma)``."""
    return (lowering.conj().T - lowering) * (0.5j / sigma)


def fock_operators(spec: FockPointerSpec) -> tuple[np.ndarray, np.ndarray]:
    """The quadratures ``(X, P)`` of a Fock pointer, derived from its lowering operator."""
    lowering = _fock_lowering(spec.dim)
    return (lowering + lowering.conj().T) * spec.sigma, _fock_p(lowering, spec.sigma)


def spin_operators(spec: SpinPointerSpec) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(S-, S_y)`` of a spin-s pointer, in the ascending-m basis.

    ``S+ |m> = sqrt(s(s+1) - m(m+1)) |m+1>`` and ``S- = (S+)^dag``;
    ``S_y = (S+ - S-) / 2i``.
    """
    s = spec.s
    m = np.arange(-s, s)  # source m values for S+
    coeffs = np.sqrt(s * (s + 1.0) - m * (m + 1.0))
    raising = np.diag(coeffs, -1).astype(np.complex128)
    lowering = raising.conj().T
    return lowering, (raising - lowering) * (1.0 / 2.0j)


def position_wavefunctions(spec: FockPointerSpec, x: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunctions of a Fock pointer, evaluated on a grid.

    Returns an array of shape ``(dim, len(x))`` whose row ``n`` is the real
    normalized eigenfunction psi_n(x) for the oscillator implied by the
    pointer width (hbar = 1).  Uses the stable Hermite-function recurrence.

    Parameters
    ----------
    spec : FockPointerSpec
        Pointer whose basis functions are requested.
    x : ndarray
        Position grid.
    """
    x = np.asarray(x, dtype=np.float64)
    scale = spec.sigma * math.sqrt(2.0)  # 1/sqrt(m omega)
    xi = x / scale
    out = np.zeros((spec.dim, x.size), dtype=np.float64)
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * xi**2)
    out[1] = math.sqrt(2.0) * xi * out[0]
    for n in range(2, spec.dim):
        out[n] = math.sqrt(2.0 / n) * xi * out[n - 1] - math.sqrt((n - 1) / n) * out[n - 2]
    return out / math.sqrt(scale)
