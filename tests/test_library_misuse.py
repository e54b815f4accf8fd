"""Library misuse: every number a library call takes passes one rule, once.

Each example hands one entry point (a run's tolerance, a sweep grid entry,
a sample request's pointer, shot count or seed, the lambda of
``Scenario.with_lambda``) a value of some kind: a bool, a string, a float
where an integer belongs, NaN, an infinity, a Python or numpy number.  The
call must either refuse it with ``TypeError`` or ``ValueError`` naming the
field, or give the same outcome as the equal Python number of the field's
kind, so a value is never truncated or taken for another silently.  A
scenario's ``expected`` is an object or absent, whatever builds it, and
holds only what standard JSON reads back equal.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weakmeas as wm
from weakmeas import harness

AAV = wm.resolve_scenario("aav_qubit")
#: Two Fock pointers, so pointer 1 is a valid index that a bool True would also reach.
JOINT = wm.resolve_scenario("joint_pair")
CONDITIONED = wm.post_select(wm.evolve_exact(JOINT), JOINT)
GRID = [0.16, 0.08, 0.04, 0.02]

#: Values that are not numbers, numpy's bool included.
NOT_NUMBERS = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=4),
    st.sampled_from([None, [0.1], 1j, "0.1", "nan"]),
)
#: Floats of every kind, non-finite ones included, as Python and numpy scalars.
FLOATS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from([0.0, 1.0, 2.7, -1.5]),
)


def integers(low: int, high: int) -> st.SearchStrategy:
    """Integers in ``[low, high]`` as Python and numpy scalars, and two no float holds."""
    python = st.integers(low, high)
    return st.one_of(
        python,
        python.filter(lambda n: abs(n) < 2**63).map(np.int64),
        python.filter(lambda n: 0 <= n < 2**64).map(np.uint64),
        st.sampled_from([10**400, -(10**400)]),
    )


def outcome(call, value):
    """What ``call(value)`` returns, or the type and text of the error it raises."""
    try:
        return call(value)
    except (wm.WeakMeasurementError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def check(call, value, field: str, integer: bool = False) -> None:
    """``call(value)`` refuses the value naming ``field``, or acts as its Python twin."""
    result = outcome(call, value)
    if isinstance(result, tuple) and result[0] in (TypeError, ValueError) and field in result[1]:
        return
    twin = value.item() if isinstance(value, np.generic) else value
    kinds = (int,) if integer else (int, float)
    assert isinstance(twin, kinds) and not isinstance(twin, bool), f"{field} took {value!r}"
    assert twin == value
    assert result == outcome(call, twin)


def run_json(tolerance):
    return wm.emit_report(wm.run_scenario(AAV, tolerance=tolerance), fmt="json")


@settings(max_examples=60, deadline=None)
@given(value=st.one_of(NOT_NUMBERS.filter(lambda v: v is not None), FLOATS, integers(-3, 3)))
@example(value=True)
@example(value=np.float32(1e-3))
def test_run_tolerance(value):
    check(run_json, value, "tolerance")


@settings(max_examples=60, deadline=None)
@given(
    value=st.one_of(NOT_NUMBERS, FLOATS, integers(-1, 1), st.floats(1e-6, 0.2)),
    index=st.integers(0, len(GRID) - 1),
)
@example(value="0.02", index=3)
def test_sweep_grid_entry(value, index):
    def sweep(entry):
        grid = GRID[:index] + [entry] + GRID[index + 1 :]
        return wm.emit_report(wm.sweep_lambda("aav_qubit", grid), fmt="json")

    check(sweep, value, "grid")


#: The integers each request field is drawn from: past each end of its range,
#: but never so many shots that a draw takes long.
REQUEST = {
    "pointer_index": integers(-2, JOINT.n_pointers + 1),
    "n_shots": st.one_of(integers(-2, 40), integers(harness.MAX_SHOTS + 1, 2**70)),
    "seed": integers(-2, 2**70),
}


@pytest.mark.parametrize("field", sorted(REQUEST))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sample_request(field, data):
    value = data.draw(st.one_of(NOT_NUMBERS, FLOATS, REQUEST[field]), label=field)

    def sample(v):
        request = {"pointer_index": 1, "n_shots": 7, "seed": 3, field: v}
        return wm.sample_positions(CONDITIONED, JOINT, **request).tobytes()

    check(sample, value, field, integer=True)


@settings(max_examples=40, deadline=None)
@given(value=st.one_of(NOT_NUMBERS, FLOATS, REQUEST["pointer_index"]))
@example(value=True)
@example(value=0.0)
def test_density_pointer_index(value):
    def density(index):
        return b"".join(a.tobytes() for a in wm.position_density(CONDITIONED, JOINT, index))

    check(density, value, "pointer_index", integer=True)


@settings(max_examples=60, deadline=None)
@given(value=st.one_of(NOT_NUMBERS, FLOATS, integers(-3, 3)))
@example(value=1e308)
def test_with_lambda(value):
    # every refusal names lambda first, a lambda whose coupling overflows included
    def rescaled(lam):
        return wm.dump_scenario(AAV.with_lambda(lam))

    result = outcome(rescaled, value)
    if isinstance(result, tuple):
        assert result[1].startswith("lambda: "), result
    check(rescaled, value, "lambda")


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))
#: Nested JSON values, non-finite floats included.
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def finite(value) -> bool:
    """Whether no float in the JSON value ``value`` is NaN or infinite."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return all(finite(item) for item in value)
    return not isinstance(value, float) or math.isfinite(value)


def refuse_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@settings(max_examples=80, deadline=None)
@given(
    value=st.one_of(
        NOT_NUMBERS,
        FLOATS,
        st.lists(JSON_LEAVES, max_size=3),
        st.dictionaries(st.text(max_size=3), JSON_TREES, max_size=3),
    )
)
@example(value=[1, 2])
@example(value={"weak_value": [math.nan, 0.0]})
def test_expected_is_an_object(value):
    if value is not None and not isinstance(value, dict):
        with pytest.raises(TypeError, match="^expected: must be an object when present$"):
            replace(AAV, expected=value)
    elif not finite(value):
        message = r"(?s)^expected.*: expected a finite number, got -?(nan|inf)$"
        with pytest.raises(ValueError, match=message):
            replace(AAV, expected=value)
    else:
        # what construction takes, dump_scenario writes as standard JSON and
        # load_scenario reads back equal
        s = replace(AAV, expected=value)
        text = wm.dump_scenario(s)
        json.loads(text, parse_constant=refuse_constant)
        assert wm.load_scenario(text) == s
