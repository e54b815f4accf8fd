"""The traced benchmark run wraps functions by name; every name must resolve."""

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
