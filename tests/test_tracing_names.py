"""The traced benchmark run wraps functions by name; every name must resolve,
and each extraction route must be traced in runs and in sweeps alike."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_distinct_function_of_its_module():
    functions = []
    for name in load_tracing().TRACED:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"weakmeas.{module_name}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), f"{name} does not resolve to a function"
        assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"
        functions.append(fn)
    assert len(set(functions)) == len(functions), "two traced names share one function"


ROUTES = (
    "weak_values.extract_joint_fock",
    "weak_values.correlator_decomposition",
    "weak_values.extract_joint_spin",
)


def traced_names(tracing, argv):
    """Names of the traced functions that one CLI command calls."""
    from weakmeas import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return {span[0] for span in tracer.spans}


def test_every_route_is_traced_by_a_run_and_by_a_sweep(capsys):
    tracing = load_tracing()
    grid = "0.16,0.08,0.04,0.02"
    runs = traced_names(tracing, ["run", "aav_qubit"]) | traced_names(
        tracing, ["run", "aav_qubit_spinptr"]
    )
    sweeps = traced_names(tracing, ["sweep", "joint_pair", "--grid", grid]) | traced_names(
        tracing, ["sweep", "aav_qubit_spinptr", "--grid", grid]
    )
    for route in ROUTES:
        assert route in runs, f"no run calls {route}"
        assert route in sweeps, f"no sweep calls {route}"


#: Traced functions that only the tests call, pending their removal from TRACED.
UNCALLED_ALLOWED = {"tensor.hermitian_propagator", "evolution.build_hamiltonian"}


def test_every_traced_function_is_called_by_some_command(capsys, tmp_path):
    from weakmeas import catalog_names

    tracing = load_tracing()
    grid = "0.16,0.08,0.04,0.02"
    commands = [["run", name] for name in catalog_names()] + [
        ["sweep", "joint_pair", "--grid", grid],
        ["sweep", "aav_qubit_spinptr", "--grid", grid],
        ["sample", "aav_qubit", "--shots", "100", "--seed", "1", "--out", str(tmp_path / "x")],
    ]
    called = set().union(*(traced_names(tracing, argv) for argv in commands))
    uncalled = set(tracing.TRACED) - called
    assert uncalled <= UNCALLED_ALLOWED, f"nothing calls {sorted(uncalled - UNCALLED_ALLOWED)}"
