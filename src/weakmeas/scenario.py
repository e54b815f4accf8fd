"""Declarative description of a weak-measurement experiment.

A :class:`Scenario` names the system factors, the observables coupled to
each pointer, the pointer specs, the couplings ``g t``, and the pre- and
post-selection states.  Its structure is checked once, when it is built: the
observables and states become read-only ``complex128`` copies (finite; square
or one axis) that fit the counts, targets and ``system_dims``, or one
:class:`LayoutError` lists every defect.  :func:`validate` checks the physics
(Hermiticity, the lambda limits, normalization and the overlap floor).
Scenarios are plain JSON documents on disk (see ``docs/scenario_format.md``);
a small catalog of named scenarios ships with the package and can be
overridden through the ``WEAKMEAS_CATALOG`` environment variable.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    DivergentWeakValueError,
    HermiticityError,
    LayoutError,
    ScenarioValidationError,
    SchemaError,
    WeakRegimeWarning,
)
from .pointers import FockPointerSpec, PointerSpec, SpinPointerSpec
from .tensor import _as_number, _embed, _frozen_complex, require_hermitian

#: Couplings whose expansion parameter exceeds this are rejected outright.
LAMBDA_HARD_LIMIT = 0.5

#: Couplings above this trigger a weak-regime warning.
LAMBDA_WARN_LIMIT = 0.2

#: Pre/post overlaps at or below this floor make the weak value numerically divergent.
OVERLAP_FLOOR = 1e-10

#: Absolute tolerance of the normalization check | ||psi|| - 1 | <= tol.
NORMALIZATION_TOL = 1e-12

ENV_CATALOG = "WEAKMEAS_CATALOG"


def weak_value_denominator(pre: np.ndarray, post: np.ndarray) -> complex:
    """The overlap ``<F|I>``, or :class:`DivergentWeakValueError` at or below the floor."""
    overlap = complex(np.vdot(post, pre))
    if abs(overlap) <= OVERLAP_FLOOR:
        raise DivergentWeakValueError(
            f"pre/post: overlap {abs(overlap):.3e} at or below the floor "
            f"{OVERLAP_FLOOR:.0e}; the weak-value denominator diverges"
        )
    return overlap


def _equal_fields(a, b) -> bool:
    """Dataclass equality that compares array fields with ``np.array_equal``."""
    if type(b) is not type(a):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


def _check_json(value, path: str) -> None:
    """Raise unless ``value`` dumps to standard JSON that loads back equal.

    Objects with string keys, lists, strings, bools, integers, finite floats
    and ``None`` pass; another type (a tuple, a numpy scalar other than
    float64) or a non-string key raises ``TypeError``, and NaN or an
    infinity ``ValueError``, each naming its ``path`` (``expected.x[0]``).
    """
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"{path}: expected string keys, got {key!r}")
            _check_json(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_json(item, f"{path}[{i}]")
    elif isinstance(value, float):
        _as_number(value, path)
    elif not isinstance(value, (str, int, type(None))):
        kinds = "null, a bool, string, number, list or object"
        raise TypeError(f"{path}: expected {kinds}, got {value!r}")


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """System observable coupled to one pointer.

    ``matrix`` acts on the system factors listed in ``target`` (in that
    order); it must be Hermitian.  It is held as a read-only complex copy,
    refused when built unless finite and square; a non-string ``name`` or a
    non-integer target raises ``TypeError``.
    """

    name: str
    matrix: np.ndarray
    target: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError(f"name: expected a string, got {self.name!r}")
        object.__setattr__(self, "matrix", _frozen_complex(self.matrix, "observable", 2))
        target = tuple(_as_number(t, "target", integer=True) for t in self.target)
        object.__setattr__(self, "target", target)

    __eq__ = _equal_fields


@dataclass(frozen=True, eq=False)
class Scenario:
    """Full experiment description; immutable once constructed.

    ``couplings`` holds one product ``g t`` per pointer, and ``pre`` and
    ``post`` read-only complex vectors, refused unless finite; every array is
    the scenario's own copy, so what it derives and keeps stays valid.  A
    name, dim, coupling or ``expected`` (a dict) of the wrong type raises
    ``TypeError``, and a coupling no float holds ``ValueError``; so does
    anything in ``expected`` that JSON would not read back equal
    (:func:`_check_json`).  Parts that do not fit together raise one
    :class:`LayoutError` listing every defect.
    """

    system_dims: tuple[int, ...]
    observables: tuple[ObservableSpec, ...]
    pointers: tuple[PointerSpec, ...]
    couplings: tuple[float, ...]
    pre: np.ndarray
    post: np.ndarray
    name: str | None = None
    description: str | None = None
    expected: dict | None = None

    def __post_init__(self):
        if not isinstance(self.expected, (dict, type(None))):
            raise TypeError("expected: must be an object when present")
        _check_json(self.expected, "expected")
        for key in ("name", "description"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise TypeError(f"{key}: expected a string, got {getattr(self, key)!r}")
        dims = tuple(_as_number(d, "system_dims", integer=True) for d in self.system_dims)
        object.__setattr__(self, "system_dims", dims)
        object.__setattr__(self, "observables", tuple(self.observables))
        object.__setattr__(self, "pointers", tuple(self.pointers))
        couplings = tuple(_as_number(gt, "couplings") for gt in self.couplings)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "pre", _frozen_complex(self.pre, "pre", 1))
        object.__setattr__(self, "post", _frozen_complex(self.post, "post", 1))
        defects = _structural_defects(self)
        if defects:
            raise LayoutError("; ".join(defects))
        object.__setattr__(self, "_kept", {})

    __eq__ = _equal_fields

    @property
    def n_pointers(self) -> int:
        return len(self.pointers)

    @property
    def pointer_dims(self) -> tuple[int, ...]:
        return tuple(p.dim for p in self.pointers)

    @property
    def lambdas(self) -> tuple[float, ...]:
        return tuple(p.expansion(gt) for gt, p in zip(self.couplings, self.pointers))

    @property
    def lambda_max(self) -> float:
        return max(self.lambdas)

    def with_lambda(self, lam: float) -> "Scenario":
        """Copy of the scenario with every coupling rescaled to the given lambda.

        A lambda that rescales a coupling past the float range raises ``ValueError``.
        """
        lam = _as_number(lam, "lambda")
        couplings = tuple(p.coupling_for(lam) for p in self.pointers)
        if not all(map(math.isfinite, couplings)):
            raise ValueError(f"lambda: {lam!r} rescales a coupling past the float range")
        return self._sharing_copy(couplings=couplings)

    def with_fock_dim(self, dim: int) -> "Scenario":
        """Copy with every Fock pointer truncated at ``dim`` levels.

        A Fock spec of ``dim`` levels is built even when no pointer is Fock, so
        its constructor refuses a bad override (below 2, or past the array
        cap) whatever the pointers are.
        """
        FockPointerSpec(sigma=1.0, dim=dim)
        pointers = tuple(
            FockPointerSpec(sigma=p.sigma, dim=dim) if isinstance(p, FockPointerSpec) else p
            for p in self.pointers
        )
        return self._sharing_copy(pointers=pointers)

    def _sharing_copy(self, **changes) -> "Scenario":
        """``replace(self, **changes)``, sharing what :meth:`_once` keeps.

        What is kept reads only the observables and the pre-selection, never
        the couplings or the pointers, so it holds for these copies too.  The
        store itself is shared, so a copy that builds something first builds
        it for the scenario and every other copy: a sweep builds its system
        frame once, at its first grid point.
        """
        copy = replace(self, **changes)
        object.__setattr__(copy, "_kept", self._kept)
        return copy

    def _once(self, key: str, build):
        """``build()``, called on the first request for ``key`` and kept on the scenario.

        A scenario is immutable, so what it derives stays valid for its lifetime.
        Copies made by :meth:`with_lambda` or :meth:`with_fock_dim` share the
        store (:meth:`_sharing_copy`); any other copy starts empty.
        """
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = build()
        return value

    def embedded_observables(self) -> tuple[np.ndarray, ...]:
        """Observables embedded on all the system factors, ``system_dims``.

        Built once per scenario, through :meth:`_once`, like the other things a
        command reads more than once:

        * these embedded observables, read by the propagator, the oracle and
          the second-order error;
        * the system frame (``evolution.scenario_frame``), read by
          ``evolve_exact``, the oracle's plain-product guard and the strong
          estimate;
        * the word sums ``T_k |I>`` (``weak_values._symmetrized_values``), shared by
          the oracle and the second-order error.

        Every caller shares what is kept; its arrays are read-only.
        """
        return self._once(
            "_embedded",
            lambda: tuple(_embed(o.matrix, o.target, self.system_dims) for o in self.observables),
        )


def _structural_defects(scenario: Scenario) -> list[str]:
    """Every way the scenario's parts fail to fit together, one string per defect."""
    n, dims = len(scenario.observables), scenario.system_dims
    defects = []
    if not dims or min(dims) < 2:
        defects.append(f"system_dims: expected one or more dims >= 2, got {dims}")
    if n < 1:
        defects.append("observables: N >= 1 required")
    for label, entries in (("pointers", scenario.pointers), ("couplings", scenario.couplings)):
        if len(entries) != n:
            defects.append(f"{label}: expected {n} entries, got {len(entries)}")
    for i, obs in enumerate(scenario.observables):
        t = obs.target
        if not t or len(set(t)) != len(t) or not set(t) <= set(range(len(dims))):
            defects.append(f"observables[{i}].target: invalid factor indices {t}")
            continue
        factors = tuple(dims[k] for k in t)
        if len(obs.matrix) != math.prod(factors):
            defects.append(
                f"observables[{i}].matrix: dimension {len(obs.matrix)} does not match "
                f"target factors {factors}"
            )
    for label, state in (("pre", scenario.pre), ("post", scenario.post)):
        if len(state) != math.prod(dims):
            defects.append(f"{label}: length {len(state)} does not match system dims {dims}")
    return defects


def validate(scenario: Scenario) -> list[str]:
    """Check Hermiticity, the lambda limits, normalization and the overlap floor.

    Never raises (a scenario that exists is structurally sound): each problem
    is one violation string naming the offending field; an empty list means
    the scenario is valid.  Couplings in the warning band (lambda above 0.2
    but within the hard limit) emit a :class:`WeakRegimeWarning` instead.
    """
    return _violations(scenario)[0]


def _violations(scenario: Scenario) -> tuple[list[str], bool]:
    """Violation strings, and whether :func:`weak_value_denominator` found a divergence.

    Entries near the float range overflow the norm and Hermiticity checks to
    ``inf``, which those checks report as a violation; numpy's overflow
    warning is silenced.
    """
    with np.errstate(over="ignore"):
        v: list[str] = []
        for i, obs in enumerate(scenario.observables):
            try:
                require_hermitian(obs.matrix)
            except HermiticityError:
                v.append(f"observables[{i}].matrix: observable not Hermitian")

        for i, (gt, p) in enumerate(zip(scenario.couplings, scenario.pointers)):
            lam = p.expansion(gt)
            if lam > LAMBDA_HARD_LIMIT:
                v.append(
                    f"couplings[{i}]: lambda = {lam:.3g} exceeds the hard limit "
                    f"{LAMBDA_HARD_LIMIT}"
                )
            elif lam > LAMBDA_WARN_LIMIT:
                warnings.warn(
                    f"couplings[{i}]: lambda = {lam:.3g} is outside the weak regime "
                    f"(> {LAMBDA_WARN_LIMIT}); quadratic error estimates may be optimistic",
                    WeakRegimeWarning,
                    stacklevel=3,
                )

        for label, state in (("pre", scenario.pre), ("post", scenario.post)):
            norm = float(np.linalg.norm(state))
            if abs(norm - 1.0) > NORMALIZATION_TOL:
                v.append(f"{label}: state not normalized (norm = {norm:.12g})")

        try:
            weak_value_denominator(scenario.pre, scenario.post)
        except DivergentWeakValueError as exc:
            v.append(str(exc))
            return v, True
        return v, False


def ensure_valid(scenario: Scenario) -> Scenario:
    """Raise on any validation violation; returns the scenario for chaining.

    A divergent weak-value denominator raises :class:`DivergentWeakValueError`
    (listing every violation); any other violation raises
    :class:`ScenarioValidationError`.
    """
    violations, divergent = _violations(scenario)
    if divergent:
        raise DivergentWeakValueError("; ".join(violations))
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _built(path: str, build, **fields):
    """``build(**fields)``, its refusal raised as a :class:`SchemaError` under the JSON ``path``.

    A message that starts with its field (``sigma: expected a number, got '1.0'``)
    extends the path; any other follows it after a colon.
    """
    try:
        return build(**fields)
    except (LayoutError, TypeError, ValueError) as exc:
        text = str(exc)
        if path:
            text = f"{path}.{text}" if text.partition(": ")[0].isidentifier() else f"{path}: {text}"
        raise SchemaError(text) from None


def _complex_pair(value, field: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        try:
            return complex(*(_as_number(x, field) for x in value))
        except TypeError:
            pass  # an entry that is not a number: not a pair
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    raise SchemaError(f"{field}: expected a [re, im] pair, got {value!r}")


def _parse_vector(raw, field: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{field}: expected a non-empty list of [re, im] pairs")
    pairs = [_complex_pair(x, f"{field}[{i}]") for i, x in enumerate(raw)]
    return np.array(pairs, dtype=np.complex128)


def _parse_matrix(raw, field: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{field}: expected a nested list of [re, im] pairs")
    rows = [_parse_vector(row, f"{field}[{i}]") for i, row in enumerate(raw)]
    width = {len(r) for r in rows}
    if len(width) != 1 or width.pop() != len(rows):
        raise SchemaError(f"{field}: matrix must be square")
    return np.array(rows, dtype=np.complex128)


def _parse_pointer(raw, field: str) -> PointerSpec:
    if not isinstance(raw, dict):
        raise SchemaError(f"{field}: expected an object")
    kind = raw.get("kind")
    try:
        if kind == "fock":
            return _built(field, FockPointerSpec, sigma=raw["sigma"], dim=raw.get("dim", 12))
        if kind == "spin":
            return _built(field, SpinPointerSpec, s=raw["s"])
    except KeyError as exc:
        raise SchemaError(f"{field}: missing key {exc}") from None
    raise SchemaError(f"{field}.kind: unknown pointer kind {kind!r}")


def load_scenario(text: str) -> Scenario:
    """Parse a scenario document; raises :class:`SchemaError` with field context.

    Checks the JSON shapes (objects, lists, ``[re, im]`` pairs, square
    matrices, pointer kinds, keys) and hands the values to construction,
    which checks their types, ranges and structure; its refusal is raised as
    a :class:`SchemaError` under the JSON path (:func:`_built`).  Physical
    invariants are left to :func:`validate`, so a scenario that breaks them
    can still be inspected.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge integer, deep nesting
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    system_dims = doc.get("system_dims")
    if not isinstance(system_dims, list):
        raise SchemaError("system_dims: expected a list of integers")

    raw_obs = doc.get("observables")
    if not isinstance(raw_obs, list):
        raise SchemaError("observables: expected a list")
    observables = []
    for i, raw in enumerate(raw_obs):
        field = f"observables[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{field}: expected an object")
        target = raw.get("target")
        if not isinstance(target, list):
            raise SchemaError(f"{field}.target: expected a list of factor indices")
        matrix = _parse_matrix(raw.get("matrix"), f"{field}.matrix")
        name = raw.get("name", f"A{i + 1}")
        observables.append(_built(field, ObservableSpec, name=name, matrix=matrix, target=target))

    raw_ptr = doc.get("pointers")
    if not isinstance(raw_ptr, list):
        raise SchemaError("pointers: expected a list")
    pointers = [_parse_pointer(raw, f"pointers[{i}]") for i, raw in enumerate(raw_ptr)]

    raw_cpl = doc.get("couplings")
    if not isinstance(raw_cpl, list):
        raise SchemaError("couplings: expected a list")
    couplings = []
    for i, raw in enumerate(raw_cpl):
        if not isinstance(raw, dict):
            raise SchemaError(f"couplings[{i}]: expected an object")
        # Scenario sees only the tuple, so the loader names each coupling itself
        couplings.append(_built("", _as_number, value=raw.get("gt"), field=f"couplings[{i}].gt"))

    pre = _parse_vector(doc.get("pre"), "pre")
    post = _parse_vector(doc.get("post"), "post")
    return _built(
        "",
        Scenario,
        system_dims=system_dims,
        observables=tuple(observables),
        pointers=tuple(pointers),
        couplings=tuple(couplings),
        pre=pre,
        post=post,
        name=doc.get("name"),
        description=doc.get("description"),
        expected=doc.get("expected"),
    )


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario to its JSON document form (round-trip stable)."""
    doc: dict = {}
    if scenario.name is not None:
        doc["name"] = scenario.name
    if scenario.description is not None:
        doc["description"] = scenario.description
    doc["system_dims"] = list(scenario.system_dims)
    doc["observables"] = [
        {
            "name": obs.name,
            "target": list(obs.target),
            "matrix": [[_pair(z) for z in row] for row in obs.matrix],
        }
        for obs in scenario.observables
    ]
    doc["pointers"] = [
        {"kind": "fock", "sigma": p.sigma, "dim": p.dim}
        if isinstance(p, FockPointerSpec)
        else {"kind": "spin", "s": p.s}
        for p in scenario.pointers
    ]
    doc["couplings"] = [{"gt": gt} for gt in scenario.couplings]
    doc["pre"] = [_pair(z) for z in scenario.pre]
    doc["post"] = [_pair(z) for z in scenario.post]
    if scenario.expected is not None:
        doc["expected"] = scenario.expected
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Catalog access
# ---------------------------------------------------------------------------


def catalog_dir() -> Path:
    """Directory holding the scenario catalog (env override, else packaged).

    Raises :class:`FileNotFoundError` when the override names no directory.
    """
    override = os.environ.get(ENV_CATALOG)
    if override:
        path = Path(override)
        if not path.is_dir():
            raise FileNotFoundError(f"{ENV_CATALOG}={override}: no such catalog directory")
        return path
    return Path(resources.files(__package__) / "catalog")


def catalog_names() -> list[str]:
    return sorted(p.stem for p in catalog_dir().glob("*.json"))


def resolve_scenario(ref: str | Path) -> Scenario:
    """Load a scenario by catalog name or by file path.

    A file that is not UTF-8 text raises :class:`SchemaError`.
    """
    path = Path(ref)
    if not (path.suffix == ".json" or path.exists()):
        path = catalog_dir() / f"{ref}.json"
        if not path.exists():
            raise FileNotFoundError(
                f"no scenario named {ref!r} in the catalog ({catalog_dir()}) and no such file"
            )
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc}") from None
    return load_scenario(text)
