"""Scenario validation, file ingestion, and catalog round-trips."""

import copy
import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weakmeas as wm
from weakmeas import (
    cli,
    FockPointerSpec,
    ObservableSpec,
    Scenario,
    SpinPointerSpec,
)
from weakmeas.scenario import _complex_pair, catalog_dir

from conftest import SZ, read_only_view


def qubit_scenario(gt=0.02, post=None, observable=None, pre=None):
    r2 = 1.0 / np.sqrt(2.0)
    return Scenario(
        system_dims=(2,),
        observables=(
            ObservableSpec(
                name="sz", matrix=SZ if observable is None else observable, target=(0,)
            ),
        ),
        pointers=(FockPointerSpec(sigma=1.0, dim=12),),
        couplings=(gt,),
        pre=[r2, r2] if pre is None else pre,
        post=[np.cos(3 * np.pi / 8), np.sin(3 * np.pi / 8)] if post is None else post,
    )


class TestValidate:
    def test_valid_scenario(self):
        assert wm.validate(qubit_scenario()) == []

    def test_non_hermitian_observable(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        violations = wm.validate(qubit_scenario(observable=bad))
        assert any("not Hermitian" in v for v in violations)

    def test_orthogonal_pre_post_diverges(self):
        s = qubit_scenario(pre=[1.0, 0.0], post=[0.0, 1.0])
        violations = wm.validate(s)
        assert any("diverges" in v for v in violations)
        with pytest.raises(wm.DivergentWeakValueError):
            wm.ensure_valid(s)

    def test_divergence_is_typed_by_the_exception_not_its_wording(self, monkeypatch):
        def reworded(pre, post):
            raise wm.DivergentWeakValueError("reworded")

        monkeypatch.setattr(wm.scenario, "weak_value_denominator", reworded)
        assert wm.validate(qubit_scenario()) == ["reworded"]
        with pytest.raises(wm.DivergentWeakValueError, match="reworded"):
            wm.ensure_valid(qubit_scenario())

    def test_weak_regime_warning_names_the_caller(self):
        with pytest.warns(wm.WeakRegimeWarning) as record:
            wm.validate(qubit_scenario(gt=0.6))
        assert record[0].filename == __file__

    def test_unnormalized_state(self):
        violations = wm.validate(qubit_scenario(pre=[1.0, 1.0]))
        assert any("not normalized" in v for v in violations)

    def test_lambda_hard_limit(self):
        violations = wm.validate(qubit_scenario(gt=1.2))  # lambda = 0.6
        assert any("hard limit" in v for v in violations)

    def test_weak_regime_warning(self):
        with pytest.warns(wm.WeakRegimeWarning):
            wm.validate(qubit_scenario(gt=0.6))  # lambda = 0.3

    def test_mixed_pointer_kinds_valid(self):
        mixed = Scenario(
            system_dims=(2, 2),
            observables=(
                ObservableSpec(name="a1", matrix=SZ, target=(0,)),
                ObservableSpec(name="a2", matrix=SZ, target=(1,)),
            ),
            pointers=(FockPointerSpec(sigma=1.0, dim=8), SpinPointerSpec(s=0.5)),
            couplings=(0.02, 0.02),
            pre=np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
            post=np.full(4, 0.5),
        )
        assert wm.validate(mixed) == []
        assert wm.ensure_valid(mixed) is mixed

    def test_target_out_of_range(self):
        # a structural defect is refused when the scenario is built, not validated
        observable = ObservableSpec(name="sz", matrix=SZ, target=(1,))
        with pytest.raises(
            wm.LayoutError, match=r"^observables\[0\]\.target: invalid factor indices \(1,\)$"
        ):
            replace(qubit_scenario(), observables=(observable,))

    def test_validate_is_total_on_inconsistent_scenario(self):
        # every physical violation is reported, none raised
        broken = qubit_scenario(
            observable=np.array([[0.0, 1.0], [0.0, 0.0]]), pre=[2.0, 0.0], post=[0.0, 1.0]
        )
        assert wm.validate(broken) == [
            "observables[0].matrix: observable not Hermitian",
            "pre: state not normalized (norm = 2)",
            "pre/post: overlap 0.000e+00 at or below the floor 1e-10; "
            "the weak-value denominator diverges",
        ]


SHIPPED = wm.catalog_names() + sorted(
    str(path)
    for path in (Path(__file__).parent / "data").glob("*.json")
    if path.stem not in {"catalog_values", "sample_digests"}
)


class TestConstructionChecks:
    """A scenario's arrays are checked and frozen once, when it is built."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["observable", "pre", "post"])
    def test_non_finite_entries_refused(self, field, bad):
        values = {"observable": SZ.copy(), "pre": np.full(2, 0.5**0.5), "post": np.eye(2)[0]}
        values[field].reshape(-1)[0] = bad
        with pytest.raises(ValueError, match=f"^{field} contains non-finite entries$"):
            qubit_scenario(**values)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_observable_that_is_not_square_refused(self, shape):
        with pytest.raises(wm.LayoutError, match="not a square matrix"):
            ObservableSpec(name="a", matrix=np.zeros(shape), target=(0,))

    def test_state_with_more_than_one_axis_refused(self):
        with pytest.raises(wm.LayoutError, match="not a vector"):
            qubit_scenario(pre=np.eye(2))

    @pytest.mark.parametrize("ref", SHIPPED, ids=lambda ref: Path(ref).name)
    def test_arrays_are_read_only(self, ref):
        s = wm.resolve_scenario(ref)
        arrays = [o.matrix for o in s.observables] + [s.pre, s.post]
        arrays += list(s.embedded_observables())
        for array in arrays:
            assert array.dtype == np.complex128
            with pytest.raises(ValueError, match="read-only"):
                array.reshape(-1)[0] = 0.0

    def test_caller_array_is_copied_not_frozen(self):
        pre = np.full(2, 0.5**0.5, dtype=complex)
        s = qubit_scenario(pre=pre)
        pre[0] = 0.0
        assert pre.flags.writeable
        assert s.pre[0] == 0.5**0.5

    @pytest.mark.parametrize("field", ["observable", "pre", "post"])
    def test_read_only_view_of_a_caller_array_is_copied(self, field):
        # complex arrays, which a complex128 conversion would not copy
        values = {
            "observable": SZ.copy(),
            "pre": np.full(2, 0.5**0.5, dtype=complex),
            "post": np.eye(2, dtype=complex)[1],
        }
        caller = values[field]
        s = qubit_scenario(**{field: read_only_view(caller)})
        held = {"observable": s.observables[0].matrix, "pre": s.pre, "post": s.post}[field]
        kept = held.copy()
        caller.reshape(-1)[0] = np.nan
        assert np.array_equal(held, kept)

    def test_a_validated_scenario_keeps_its_word_sums(self):
        # the oracle's cached word sums, frame and embedded observables are
        # built from pre; a write to the caller's array after validation
        # must not leave them describing another state
        reference = wm.resolve_scenario("joint_pair")
        caller = reference.pre.copy()
        s = replace(reference, pre=read_only_view(caller))
        wm.ensure_valid(s)
        expected = wm.analytic_oracle(s)
        caller[:] = [1.0, 0.0, 0.0, 0.0]
        assert wm.validate(s) == []
        assert wm.analytic_oracle(s) == expected == wm.analytic_oracle(reference)

    def test_wrong_length_state_is_refused(self):
        for field in ("pre", "post"):
            message = f"{field}: length 3 does not match system dims (2,)"
            with pytest.raises(wm.LayoutError, match=f"^{re.escape(message)}$"):
                qubit_scenario(**{field: [1.0, 0.0, 0.0]})

    def test_observable_of_the_wrong_size_is_refused(self):
        message = "observables[0].matrix: dimension 3 does not match target factors (2,)"
        with pytest.raises(wm.LayoutError, match=f"^{re.escape(message)}$"):
            qubit_scenario(observable=np.eye(3))

    def test_non_finite_coupling_is_refused(self):
        with pytest.raises(ValueError, match="^couplings: expected a finite number, got inf$"):
            qubit_scenario(gt=math.inf)


def pair_fields(**changes) -> dict:
    """The fields of a valid two-qubit, two-pointer scenario, with ``changes``."""
    fields = dict(
        system_dims=(2, 2),
        observables=(
            ObservableSpec(name="a1", matrix=SZ, target=(0,)),
            ObservableSpec(name="a2", matrix=SZ, target=(1,)),
        ),
        pointers=(FockPointerSpec(sigma=1.0, dim=8), FockPointerSpec(sigma=1.0, dim=8)),
        couplings=(0.02, 0.02),
        pre=np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
        post=np.full(4, 0.5),
        name=None,
        description=None,
        expected=None,
    )
    return {**fields, **changes}


def with_observable(index, **changes):
    observables = list(pair_fields()["observables"])
    observables[index] = replace(observables[index], **changes)
    return {"observables": tuple(observables)}


#: Field changes that break a scenario's structure, and construction's text for each.
STRUCTURAL_DEFECTS = {
    "system-dims": (
        dict(system_dims=(2, 2, 1)),
        "system_dims: expected one or more dims >= 2, got (2, 2, 1)",
    ),
    "no-observables": (
        dict(observables=(), pointers=(), couplings=()),
        "observables: N >= 1 required",
    ),
    "pointer-count": (
        dict(pointers=(FockPointerSpec(sigma=1.0, dim=8),)),
        "pointers: expected 2 entries, got 1",
    ),
    "coupling-count": (dict(couplings=(0.02,) * 3), "couplings: expected 2 entries, got 3"),
    "target-out-of-range": (
        with_observable(1, target=(2,)),
        "observables[1].target: invalid factor indices (2,)",
    ),
    "target-negative": (
        with_observable(0, target=(-1,)),
        "observables[0].target: invalid factor indices (-1,)",
    ),
    "target-repeated": (
        with_observable(1, target=(0, 0), matrix=np.eye(4)),
        "observables[1].target: invalid factor indices (0, 0)",
    ),
    "target-empty": (
        with_observable(1, target=(), matrix=np.eye(1)),
        "observables[1].target: invalid factor indices ()",
    ),
    "observable-size": (
        with_observable(0, matrix=np.eye(4)),
        "observables[0].matrix: dimension 4 does not match target factors (2,)",
    ),
    "pre-length": (dict(pre=np.eye(8)[0]), "pre: length 8 does not match system dims (2, 2)"),
    "post-length": (dict(post=np.eye(2)[0]), "post: length 2 does not match system dims (2, 2)"),
    "several": (
        dict(couplings=(0.02,), **with_observable(0, target=(0, 1)), pre=np.eye(2)[0]),
        "couplings: expected 2 entries, got 1; "
        "observables[0].matrix: dimension 2 does not match target factors (2, 2); "
        "pre: length 2 does not match system dims (2, 2)",
    ),
}


class TestStructuralParity:
    """Construction is the one structural check: code, the loader and the CLI
    refuse each defect with the same text."""

    @pytest.mark.parametrize(
        "changes, message", STRUCTURAL_DEFECTS.values(), ids=list(STRUCTURAL_DEFECTS)
    )
    def test_code_loader_and_cli_refuse_alike(self, capsys, tmp_path, changes, message):
        fields = pair_fields(**changes)
        with pytest.raises(wm.LayoutError) as built:
            Scenario(**fields)
        # dump_scenario reads only the fields, so it writes the broken document
        text = wm.dump_scenario(SimpleNamespace(**fields))
        with pytest.raises(wm.SchemaError) as loaded:
            wm.load_scenario(text)
        assert str(built.value) == str(loaded.value) == message
        path = tmp_path / "broken.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_the_valid_fields_build(self):
        assert wm.validate(Scenario(**pair_fields())) == []


#: Values construction would otherwise coerce (``int(12.7)``, ``float("1.5")``,
#: ``int(True)``) or overflow (``float(10**400)``), each built by a callable, and
#: the type and text of its refusal.
COERCIONS = {
    "system-dims-float": (
        lambda: Scenario(**pair_fields(system_dims=(2, 2.9))),
        TypeError,
        "system_dims: expected an integer, got 2.9",
    ),
    "system-dims-bool": (
        lambda: Scenario(**pair_fields(system_dims=(True, 2))),
        TypeError,
        "system_dims: expected an integer, got True",
    ),
    "target-bool": (
        lambda: ObservableSpec(name="a", matrix=SZ, target=(True,)),
        TypeError,
        "target: expected an integer, got True",
    ),
    "target-float": (
        lambda: ObservableSpec(name="a", matrix=SZ, target=(0.5,)),
        TypeError,
        "target: expected an integer, got 0.5",
    ),
    "fock-dim-float": (
        lambda: FockPointerSpec(sigma=1.5, dim=12.7),
        TypeError,
        "dim: expected an integer, got 12.7",
    ),
    "fock-dim-bool": (
        lambda: FockPointerSpec(sigma=1.5, dim=True),
        TypeError,
        "dim: expected an integer, got True",
    ),
    "sigma-string": (
        lambda: FockPointerSpec(sigma="1.5", dim=12),
        TypeError,
        "sigma: expected a number, got '1.5'",
    ),
    "sigma-bool": (
        lambda: FockPointerSpec(sigma=True, dim=12),
        TypeError,
        "sigma: expected a number, got True",
    ),
    "s-string": (lambda: SpinPointerSpec(s="0.5"), TypeError, "s: expected a number, got '0.5'"),
    "s-bool": (lambda: SpinPointerSpec(s=True), TypeError, "s: expected a number, got True"),
    "gt-string": (
        lambda: Scenario(**pair_fields(couplings=(0.02, "0.02"))),
        TypeError,
        "couplings: expected a number, got '0.02'",
    ),
    "gt-bool": (
        lambda: Scenario(**pair_fields(couplings=(True, 0.02))),
        TypeError,
        "couplings: expected a number, got True",
    ),
    "name-list": (
        lambda: Scenario(**pair_fields(name=["x"])),
        TypeError,
        "name: expected a string, got ['x']",
    ),
    "description-int": (
        lambda: Scenario(**pair_fields(description=3)),
        TypeError,
        "description: expected a string, got 3",
    ),
    "observable-name-none": (
        lambda: ObservableSpec(name=None, matrix=SZ, target=(0,)),
        TypeError,
        "name: expected a string, got None",
    ),
    "sigma-huge": (
        lambda: FockPointerSpec(sigma=10**400, dim=12),
        ValueError,
        "sigma: number too large for a float",
    ),
    "s-huge": (lambda: SpinPointerSpec(s=10**400), ValueError, "s: number too large for a float"),
    "gt-huge": (
        lambda: replace(wm.resolve_scenario("aav_qubit"), couplings=(10**400,)),
        ValueError,
        "couplings: number too large for a float",
    ),
    "lambda-string": (
        lambda: wm.resolve_scenario("aav_qubit").with_lambda("0.1"),
        TypeError,
        "lambda: expected a number, got '0.1'",
    ),
    "lambda-bool": (
        lambda: wm.resolve_scenario("aav_qubit").with_lambda(True),
        TypeError,
        "lambda: expected a number, got True",
    ),
    # dump_scenario would write a document that load_scenario refuses
    "expected-list": (
        lambda: replace(wm.resolve_scenario("aav_qubit"), expected=[1, 2]),
        TypeError,
        "expected: must be an object when present",
    ),
    # ... or one it cannot write, or one that reads back different or non-standard
    "expected-float32": (
        lambda: replace(wm.resolve_scenario("aav_qubit"), expected={"x": np.float32(1)}),
        TypeError,
        "expected.x: expected null, a bool, string, number, list or object, got np.float32(1.0)",
    ),
    "expected-tuple": (
        lambda: replace(wm.resolve_scenario("aav_qubit"), expected={"weak_value": (1.0, 0.0)}),
        TypeError,
        "expected.weak_value: expected null, a bool, string, number, list or object, "
        "got (1.0, 0.0)",
    ),
    "expected-int-key": (
        lambda: replace(wm.resolve_scenario("aav_qubit"), expected={"x": {1: 2}}),
        TypeError,
        "expected.x: expected string keys, got 1",
    ),
    "expected-nan": (
        lambda: replace(wm.resolve_scenario("aav_qubit"), expected={"weak_value": [math.nan, 0]}),
        ValueError,
        "expected.weak_value[0]: expected a finite number, got nan",
    ),
    "expected-inf": (
        lambda: replace(wm.resolve_scenario("aav_qubit"), expected={"x": [{"y": -math.inf}]}),
        ValueError,
        "expected.x[0].y: expected a finite number, got -inf",
    ),
    "lambda-overflow": (
        lambda: wm.resolve_scenario("aav_qubit").with_lambda(1e308),
        ValueError,
        "lambda: 1e+308 rescales a coupling past the float range",
    ),
}


class TestConstructionRefusesCoercion:
    """Construction takes numbers, integers and strings as they are, or refuses them;
    the loader raises the same refusal under the value's JSON path."""

    @pytest.mark.parametrize("build, error, message", COERCIONS.values(), ids=list(COERCIONS))
    def test_refused(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    def test_a_replaced_catalog_scenario_is_refused_field_by_field(self):
        s = wm.resolve_scenario("aav_qubit")
        for changes in (dict(system_dims=(2.9,)), dict(couplings=("0.02",)), dict(name=["x"])):
            with pytest.raises(TypeError):
                replace(s, **changes)

    def test_numpy_scalars_are_numbers(self):
        pointer = FockPointerSpec(sigma=np.float32(1.5), dim=np.int64(8))
        assert (type(pointer.sigma), type(pointer.dim)) == (float, int)
        assert type(SpinPointerSpec(s=np.float64(0.5)).s) is float
        s = Scenario(**pair_fields(system_dims=tuple(np.array([2, 2])), pointers=(pointer,) * 2))
        assert all(type(d) is int for d in s.system_dims)
        assert wm.load_scenario(wm.dump_scenario(s)) == s


def refuse_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


class TestSerialization:
    def test_round_trip_equality(self):
        s = qubit_scenario()
        text = wm.dump_scenario(s)
        assert wm.load_scenario(text) == s
        for changed in (replace(s, description="other"), replace(s, expected={"weak_value": 1.0})):
            assert wm.load_scenario(text) != changed

    def test_equality_compares_every_array_entry(self):
        s = qubit_scenario()
        flipped = np.array(s.pre)
        flipped[1] *= -1.0
        assert qubit_scenario() == s
        assert replace(s, pre=flipped) != s
        assert replace(s, post=s.pre) != s
        assert qubit_scenario(observable=-SZ) != s
        assert Scenario(**pair_fields()) != s
        assert s != s.observables[0]

    @pytest.mark.parametrize("ref", SHIPPED, ids=lambda ref: Path(ref).name)
    def test_every_shipped_scenario_round_trips(self, ref):
        s = wm.resolve_scenario(ref)
        text = wm.dump_scenario(s)
        assert wm.load_scenario(text) == s
        json.loads(text, parse_constant=refuse_constant)  # standard JSON: no NaN or Infinity

    def test_all_catalog_files_round_trip(self):
        for name in wm.catalog_names():
            text = (catalog_dir() / f"{name}.json").read_text()
            loaded = wm.load_scenario(text)
            again = wm.load_scenario(wm.dump_scenario(loaded))
            assert again == loaded, name

    def test_complex_entries_are_re_im_pairs(self):
        doc = json.loads(wm.dump_scenario(qubit_scenario()))
        assert doc["pre"][0] == [pytest.approx(1 / np.sqrt(2)), 0.0]
        assert doc["observables"][0]["matrix"][1][1] == [-1.0, 0.0]


#: A catalog document, the JSON path of one value replaced, that value (read
#: silently as a valid one, or overflowing ``float()``, unless its type is
#: checked) and the loader's full text for it.
WRONG_TYPES = {
    "gt-bool": (
        "aav_qubit", ("couplings", 0, "gt"), True, "couplings[0].gt: expected a number, got True"
    ),
    "target-bool": (
        "joint_pair",
        ("observables", 1, "target"),
        [True],
        "observables[1].target: expected an integer, got True",
    ),
    "dim-float": (
        "aav_qubit", ("pointers", 0, "dim"), 7.9, "pointers[0].dim: expected an integer, got 7.9"
    ),
    "dim-string": (
        "aav_qubit", ("pointers", 0, "dim"), "9", "pointers[0].dim: expected an integer, got '9'"
    ),
    "sigma-string": (
        "aav_qubit",
        ("pointers", 0, "sigma"),
        "1.0",
        "pointers[0].sigma: expected a number, got '1.0'",
    ),
    "s-bool": (
        "aav_qubit_spinptr",
        ("pointers", 0, "s"),
        True,
        "pointers[0].s: expected a number, got True",
    ),
    "gt-huge": (
        "aav_qubit",
        ("couplings", 0, "gt"),
        10**400,
        "couplings[0].gt: number too large for a float",
    ),
    "sigma-huge": (
        "aav_qubit",
        ("pointers", 0, "sigma"),
        10**400,
        "pointers[0].sigma: number too large for a float",
    ),
    "pre-huge": ("aav_qubit", ("pre", 0), [10**400, 0], "pre[0]: number too large for a float"),
    "name-list": ("aav_qubit", ("name",), [1, 2], "name: expected a string, got [1, 2]"),
    "description-object": (
        "aav_qubit", ("description",), {"x": 1}, "description: expected a string, got {'x': 1}"
    ),
    "observable-name-null": (
        "joint_pair",
        ("observables", 0, "name"),
        None,
        "observables[0].name: expected a string, got None",
    ),
    "observable-name-int": (
        "joint_pair", ("observables", 1, "name"), 2, "observables[1].name: expected a string, got 2"
    ),
    "system-dim-float": (
        "joint_pair", ("system_dims", 1), 2.5, "system_dims: expected an integer, got 2.5"
    ),
    "target-float": (
        "joint_pair",
        ("observables", 1, "target"),
        [0.5],
        "observables[1].target: expected an integer, got 0.5",
    ),
    "expected-nan": (
        "aav_qubit",
        ("expected", "weak_value", 0),
        math.nan,
        "expected.weak_value[0]: expected a finite number, got nan",
    ),
}


class TestLoadErrors:
    def base_doc(self):
        return json.loads(wm.dump_scenario(qubit_scenario()))

    def test_empty_observables(self):
        doc = self.base_doc()
        doc["observables"] = []
        with pytest.raises(wm.SchemaError, match="N >= 1"):
            wm.load_scenario(json.dumps(doc))

    def test_unknown_pointer_kind(self):
        doc = self.base_doc()
        doc["pointers"][0]["kind"] = "rotor"
        with pytest.raises(wm.SchemaError, match="unknown pointer kind"):
            wm.load_scenario(json.dumps(doc))

    def test_matrix_dimension_mismatch(self):
        doc = self.base_doc()
        doc["observables"][0]["matrix"] = [[[1.0, 0.0]]]
        with pytest.raises(wm.SchemaError, match="matrix"):
            wm.load_scenario(json.dumps(doc))

    def test_state_length_mismatch(self):
        doc = self.base_doc()
        doc["pre"] = doc["pre"] + [[0.0, 0.0]]
        with pytest.raises(wm.SchemaError, match="pre"):
            wm.load_scenario(json.dumps(doc))

    def test_bad_json_reports_position(self):
        with pytest.raises(wm.SchemaError, match="line"):
            wm.load_scenario('{"system_dims": [2,}')

    def test_integer_past_the_digit_limit(self):
        # json.loads raises a plain ValueError for integers over 4300 digits
        with pytest.raises(wm.SchemaError, match="4300 digits"):
            wm.load_scenario('{"system_dims": [' + "1" * 5000 + "]}")

    def test_nesting_past_the_recursion_limit(self):
        # json.loads raises RecursionError, not ValueError, on nesting this deep
        with pytest.raises(wm.SchemaError, match="not valid JSON: maximum recursion depth"):
            wm.load_scenario("[" * 200_000)

    def test_malformed_amplitude_pair(self):
        doc = self.base_doc()
        doc["post"][0] = [1.0]
        with pytest.raises(wm.SchemaError, match="post"):
            wm.load_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "name, path, value, message", WRONG_TYPES.values(), ids=list(WRONG_TYPES)
    )
    def test_wrong_types_rejected(self, name, path, value, message):
        doc = json.loads((catalog_dir() / f"{name}.json").read_text())
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        target[key] = value
        with pytest.raises(wm.SchemaError) as excinfo:
            wm.load_scenario(json.dumps(doc))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("name",), [1, 2], "name: expected a string, got [1, 2]"),
            (("description",), {"x": 1}, "description: expected a string, got {'x': 1}"),
            (("observables", 0, "name"), None, "observables[0].name: expected a string, got None"),
        ],
    )
    def test_names_must_be_strings(self, path, value, message):
        doc = self.base_doc()
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        target[key] = value
        with pytest.raises(wm.SchemaError, match=f"^{re.escape(message)}$"):
            wm.load_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ((), [], "top level must be an object"),
            (("observables", 0), [], "observables[0]: expected an object"),
            (("pointers", 0), "fock", "pointers[0]: expected an object"),
            (("couplings", 0), 0.02, "couplings[0]: expected an object"),
            (
                ("observables", 0, "matrix"),
                [[[1.0, 0.0], [0.0, 0.0]]],
                "observables[0].matrix: matrix must be square",
            ),
            (("expected",), [1.0, 0.0], "expected: must be an object when present"),
        ],
        ids=["top-level", "observable", "pointer", "coupling", "non-square", "expected"],
    )
    def test_containers_of_the_wrong_kind(self, path, value, message):
        doc = self.base_doc()
        if path:
            *parents, key = path
            target = doc
            for part in parents:
                target = target[part]
            target[key] = value
        else:
            doc = value
        with pytest.raises(wm.SchemaError, match=f"^{re.escape(message)}$"):
            wm.load_scenario(json.dumps(doc))

    def test_absent_or_null_names_keep_their_defaults(self):
        doc = self.base_doc()
        doc["name"] = doc["description"] = None
        del doc["observables"][0]["name"]
        s = wm.load_scenario(json.dumps(doc))
        assert (s.name, s.description, s.observables[0].name) == (None, None, "A1")


def catalog_doc(name):
    return json.loads((catalog_dir() / f"{name}.json").read_text())


CATALOG_DOCS = {name: catalog_doc(name) for name in wm.catalog_names()}

#: Stands in for the value of a mutation that deletes its key.
DELETE = object()

#: Arbitrary JSON, weighted towards the values a float or a parser gets wrong.
JSON_VALUES = st.recursive(
    st.sampled_from([10**400, -(10**400), 1e308, -1e308, math.nan, math.inf, -math.inf])
    | st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def document_paths(node, path=(), leaves=True):
    """Paths to every leaf of a JSON document, or (``leaves=False``) to every object key."""
    if isinstance(node, dict):
        children = node.items()
        found = [] if leaves else [path + (key,) for key in node]
    elif isinstance(node, list):
        children, found = enumerate(node), []
    else:
        return [path] if leaves else []
    for key, child in children:
        found += document_paths(child, path + (key,), leaves)
    return found


@st.composite
def mutations(draw):
    """A catalog name, a path into its document, and the value put there (or DELETE)."""
    name = draw(st.sampled_from(sorted(CATALOG_DOCS)))
    doc = CATALOG_DOCS[name]
    if draw(st.booleans()):
        return name, draw(st.sampled_from(document_paths(doc, leaves=False))), DELETE
    return name, draw(st.sampled_from(document_paths(doc))), draw(JSON_VALUES)


class TestComplexPair:
    """Every ``[re, im]`` entry goes through the one set of per-entry checks."""

    #: Each document entry and the parts it must parse to, signed zeros included.
    PARSED = {
        "[1.0, -0.0]": (1.0, -0.0),
        "[-0.0, 2.5e-320]": (-0.0, 2.5e-320),
        "[1, 2.0]": (1.0, 2.0),
        "[1, 2]": (1.0, 2.0),
    }

    @pytest.mark.parametrize("text", list(PARSED))
    def test_parses_to_the_per_entry_value(self, text):
        parsed = _complex_pair(json.loads(text), "f")
        assert type(parsed) is complex
        for got, want in zip((parsed.real, parsed.imag), self.PARSED[text]):
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[true, 0.0]", "f: expected a [re, im] pair, got [True, 0.0]"),
            ("[0.0, false]", "f: expected a [re, im] pair, got [0.0, False]"),
            ("[NaN, 0]", "f: expected a finite number, got nan"),
            ("[0.0, -Infinity]", "f: expected a finite number, got -inf"),
            ("[1" + "0" * 400 + ", 0.0]", "f: number too large for a float"),
            ("[1.0, 2.0, 3.0]", "f: expected a [re, im] pair, got [1.0, 2.0, 3.0]"),
            ("[1.0]", "f: expected a [re, im] pair, got [1.0]"),
            ('["1.0", 0.0]', "f: expected a [re, im] pair, got ['1.0', 0.0]"),
        ],
    )
    def test_refuses_with_the_per_entry_message(self, text, message):
        with pytest.raises(wm.SchemaError) as excinfo:
            _complex_pair(json.loads(text), "f")
        assert str(excinfo.value) == message

    def test_a_bad_entry_in_a_document_names_its_field(self):
        doc = json.loads(wm.dump_scenario(qubit_scenario()))
        doc["pre"][1] = [float("nan"), 0.0]
        with pytest.raises(wm.SchemaError, match=r"^pre\[1\]: expected a finite number, got nan$"):
            wm.load_scenario(json.dumps(doc))


class TestDocumentFuzz:
    """One leaf replaced or one key deleted: a typed error or a scenario, nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(mutation=mutations())
    @example(mutation=("aav_qubit_spinptr", ("pointers", 0, "s"), 1e308))
    @example(mutation=("aav_qubit", ("observables", 0, "matrix", 0, 0, 0), math.nan))
    @example(mutation=("aav_qubit", ("pre", 1, 1), math.inf))
    @example(mutation=("aav_qubit", ("post", 0, 0), -math.inf))
    @example(mutation=("aav_qubit", ("pre", 0, 0), 1e308))
    @example(mutation=("pair_anticommuting", ("pointers", 0, "dim"), 10**400))
    @example(mutation=("aav_qubit_spinptr", ("pointers", 0, "s"), 2048))
    def test_mutated_catalog_document(self, mutation):
        name, path, value = mutation
        doc = copy.deepcopy(CATALOG_DOCS[name])
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        try:
            scenario = wm.load_scenario(json.dumps(doc))
        except (wm.SchemaError, wm.CapacityError):
            # a pointer whose operators pass the array cap is refused by its spec
            return
        # a scenario that loads is structurally sound
        assert len(scenario.embedded_observables()) == scenario.n_pointers
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wm.WeakRegimeWarning)
            try:
                wm.ensure_valid(scenario)
            except wm.WeakMeasurementError:
                pass


class TestCatalog:
    def test_expected_names_present(self):
        names = wm.catalog_names()
        for required in (
            "aav_qubit",
            "aav_amplified",
            "aav_imaginary",
            "aav_qubit_spinptr",
            "joint_pair",
            "joint_pair_entangled",
            "joint_pair_spinptr",
            "pair_anticommuting",
            "triple_ghz_mix",
            "strong_single",
            "strong_pair_product",
            "strong_pair_entangled",
        ):
            assert required in names

    def test_aav_qubit_fixture_fields(self):
        s = wm.resolve_scenario("aav_qubit")
        assert s.system_dims == (2,)
        assert s.pointers[0] == FockPointerSpec(sigma=1.0, dim=12)
        assert s.couplings[0] == 0.02
        np.testing.assert_array_equal(s.observables[0].matrix, SZ)
        assert wm.validate(s) == []

    def test_joint_pair_fixture_fields(self):
        s = wm.resolve_scenario("joint_pair")
        assert s.system_dims == (2, 2)
        assert [o.target for o in s.observables] == [(0,), (1,)]
        assert all(isinstance(p, FockPointerSpec) for p in s.pointers)
        # embedded forms are sigma_z x I and I x sigma_z
        a1, a2 = s.embedded_observables()
        np.testing.assert_array_equal(a1, np.kron(SZ, np.eye(2)))
        np.testing.assert_array_equal(a2, np.kron(np.eye(2), SZ))

    def test_every_catalog_scenario_validates(self):
        for name in wm.catalog_names():
            assert wm.validate(wm.resolve_scenario(name)) == [], name

    def test_env_override(self, tmp_path, monkeypatch):
        (tmp_path / "only_one.json").write_text(wm.dump_scenario(qubit_scenario()))
        monkeypatch.setenv("WEAKMEAS_CATALOG", str(tmp_path))
        assert wm.catalog_names() == ["only_one"]
        assert wm.resolve_scenario("only_one") == qubit_scenario()

    def test_missing_scenario_reported(self):
        with pytest.raises(FileNotFoundError, match="no scenario named"):
            wm.resolve_scenario("does_not_exist")


class TestExpansionParameters:
    def test_fock_lambda(self):
        lam = FockPointerSpec(sigma=1.0, dim=8).expansion(0.02)
        assert lam == pytest.approx(0.01)

    def test_spin_lambda(self):
        lam = SpinPointerSpec(s=0.5).expansion(0.02)
        assert lam == pytest.approx(0.01)

    def test_rescaling_round_trip(self):
        s = wm.resolve_scenario("joint_pair_spinptr").with_lambda(0.04)
        assert s.lambdas == pytest.approx((0.04, 0.04))
