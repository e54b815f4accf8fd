"""Exception and warning types shared across the package."""

from __future__ import annotations


class WeakMeasurementError(Exception):
    """Base class for every error raised by this package."""


class LayoutError(WeakMeasurementError):
    """Operands live on different or invalid factor layouts."""


class CapacityError(WeakMeasurementError):
    """A requested object exceeds a fixed size limit."""


class HermiticityError(WeakMeasurementError):
    """An operator required to be Hermitian failed the symmetry check."""


class ZeroNormError(WeakMeasurementError):
    """A zero-norm state cannot carry expectation values."""


class TruncationLeakageError(WeakMeasurementError):
    """Fock truncation corrupted the evolved state beyond the guard threshold.

    Carries the leaking pointer's index, its top-two-level population, its
    truncation ``dim`` and its own expansion parameter ``lam``, and names all
    of them in the message.
    """

    def __init__(self, pointer_index: int, leakage: float, dim: int, guard: float, lam: float):
        self.pointer_index = pointer_index
        self.leakage = leakage
        self.dim = dim
        self.guard = guard
        self.lam = lam
        super().__init__(
            f"pointer {pointer_index}: population {leakage:.3e} in the top two Fock "
            f"levels exceeds the {guard:.0e} guard at d={dim} at lambda = {lam:.6g}; "
            f"raise the pointer dimension or lower the coupling"
        )


class PostSelectionFailureError(WeakMeasurementError):
    """Post-selection probability fell below the fixed floor."""


class DivergentWeakValueError(WeakMeasurementError):
    """Pre/post overlap is so small that the weak-value denominator diverges."""


class ScenarioValidationError(WeakMeasurementError):
    """A scenario violates one or more of its declared invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SchemaError(WeakMeasurementError):
    """A scenario document does not conform to the file schema."""


class ZeroCouplingError(WeakMeasurementError):
    """Extraction rescales by 1/(g t), so it needs non-zero couplings with a finite scale."""


class GridError(WeakMeasurementError):
    """The sampling grid fails to capture the position density."""


class UnsupportedScenarioError(WeakMeasurementError):
    """The requested operation does not apply to this scenario's structure."""


class WeakRegimeWarning(UserWarning):
    """Coupling strength is outside the regime the quadratic error model covers."""
