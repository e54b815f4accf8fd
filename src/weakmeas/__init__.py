"""Simulator and verification suite for weak and joint weak quantum measurements.

Evolves a finite-dimensional system coupled to N measurement pointers under
von Neumann interactions, post-selects on a final system state, and extracts
complex weak values from the conditioned pointer state through lowering
operators, quadrature correlators, or spin ladder operators, checking each
against the exact analytic oracle.
"""

from .errors import (
    CapacityError,
    DivergentWeakValueError,
    GridError,
    HermiticityError,
    LayoutError,
    PostSelectionFailureError,
    ScenarioValidationError,
    SchemaError,
    TruncationLeakageError,
    UnsupportedScenarioError,
    WeakMeasurementError,
    WeakRegimeWarning,
    ZeroCouplingError,
    ZeroNormError,
)
from .evolution import (
    LEAKAGE_GUARD,
    PostSelectionResult,
    build_hamiltonian,
    evolve_exact,
    post_select,
    top_level_leakage,
)
from .harness import (
    SweepResult,
    WeakValueReport,
    emit_report,
    position_density,
    run_experiment,
    run_scenario,
    sample_experiment,
    sample_positions,
    sweep_lambda,
)
from .pointers import (
    FockPointerSpec,
    SpinPointerSpec,
    fock_operators,
    position_wavefunctions,
    spin_operators,
)
from .scenario import (
    ObservableSpec,
    Scenario,
    catalog_names,
    dump_scenario,
    ensure_valid,
    load_scenario,
    resolve_scenario,
    validate,
)
from .tensor import (
    MAX_ARRAY_BYTES,
    Operator,
    expectation,
    hermitian_propagator,
    kron,
)
from .weak_values import (
    analytic_oracle,
    analytic_weak_value,
    correlator_decomposition,
    extract_joint_fock,
    extract_joint_spin,
    extraction_tolerance,
    pointer_shift_check,
    second_order_error,
    strong_position_estimate,
)

__version__ = "0.1.0"
