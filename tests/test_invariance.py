"""Metamorphic invariance of the whole pipeline under three physical symmetries.

A weak value is a basis-free quantity (Aharonov, Albert & Vaidman, PRL 60,
1351 (1988)), the joint pointer state does not care how the pointers are
numbered, and states are rays.  So each catalog scenario is transformed in
one of three ways that leave the physics unchanged:

* a Haar-random unitary on each system factor, with the pre- and
  post-selection rotated by it and each observable conjugated on its
  targets;
* a permutation of the (observable, pointer, coupling) triples, under which
  the per-pointer leakage and the correlator-table keys permute with them;
* independent global phases on the pre- and post-selection.

Every route value, the oracle, ``prob_success``, the leakage and the
correlator table must then agree with the untransformed run, and the system
frame must be diagonal exactly when it was: whether the observables commute
does not depend on the basis, and reordering the triples reorders the
weights ``q^j`` of the sum whose eigenbasis starts the frame, which is how a
degenerate sum arises.  The two runs differ only by rounding, so each bound
is rounding times the condition of the quantity: how far it can move per
unit change of its inputs (see :func:`bounds`).
"""

import functools
import math
from dataclasses import replace
from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import weakmeas as wm
from weakmeas.evolution import DIAGONAL_TOL, _system_frame
from weakmeas.weak_values import correlator_decomposition

from conftest import haar_unitary

EPS = np.finfo(float).eps
NAMES = sorted(wm.catalog_names())
TRANSFORMS = ("basis", "permutation", "phases")


def change_basis(scenario: wm.Scenario, rng) -> wm.Scenario:
    units = [haar_unitary(rng, d) for d in scenario.system_dims]
    full = reduce(np.kron, units)
    observables = []
    for obs in scenario.observables:
        u = reduce(np.kron, [units[t] for t in obs.target])
        observables.append(replace(obs, matrix=u @ obs.matrix @ u.conj().T))
    pre, post = (full @ v for v in (scenario.pre, scenario.post))
    return replace(scenario, observables=tuple(observables), pre=pre, post=post)


def permute(scenario: wm.Scenario, order) -> wm.Scenario:
    return replace(
        scenario,
        observables=tuple(scenario.observables[k] for k in order),
        pointers=tuple(scenario.pointers[k] for k in order),
        couplings=tuple(scenario.couplings[k] for k in order),
    )


def rephase(scenario: wm.Scenario, rng) -> wm.Scenario:
    pre, post = (np.exp(2j * math.pi * rng.random()) * v for v in (scenario.pre, scenario.post))
    return replace(scenario, pre=pre, post=post)


def observe(scenario: wm.Scenario) -> dict:
    """Every quantity the symmetries must keep, keyed by name."""
    report = wm.run_scenario(scenario)
    evolved = wm.evolve_exact(scenario)
    seen = {"oracle": report.analytic, "prob_success": report.prob_success}
    seen["diagonal frame"] = float(_system_frame(scenario.embedded_observables())[2])
    seen.update({f"route {k}": v for k, v in report.extracted.items()})
    seen.update({f"leakage {j}": v for j, v in enumerate(wm.top_level_leakage(evolved, scenario))})
    if "correlators" in report.extracted:
        [(table, _)] = correlator_decomposition([(wm.post_select(evolved, scenario), scenario)])
        seen.update({f"table {key}": v for key, v in table.items()})
    return seen


def relabel(seen: dict, order) -> dict:
    """The quantities of the permuted scenario, from those of the original."""
    out = {}
    for name, value in seen.items():
        kind, _, key = name.partition(" ")
        if kind == "leakage":
            key = str(order.index(int(key)))
        elif kind == "table":
            key = "".join(key[k] for k in order)
        out[f"{kind} {key}".strip()] = value
    return out


def _norm(matrix) -> float:
    return float(np.linalg.norm(matrix, 2))


@functools.cache
def reference(name: str) -> dict:
    return observe(wm.resolve_scenario(name))


@functools.cache
def bounds(name: str) -> dict:
    """How far each observed quantity may move between two equivalent runs.

    The evolved state has norm 1.  Each run rounds it by at most
    ``eps sum_k d_k^1.5`` over the axis rotations of the coupling frame (a
    d-term sum per amplitude, ``||fl(Vx) - Vx|| <= d eps || |V| || ||x||``
    with ``|| |V| || <= sqrt(d)``), for the system axis and each pointer axis
    into and out of the frame.  The inputs differ by the transformation's own
    rounding, ``S eps`` in each state and ``2 S eps ||A_j||`` in each
    observable, which moves the state by ``S eps`` plus ``2 S eps g`` with
    ``g = sum_j |gt_j| ||A_j|| ||C_j||`` (``||exp(-iH) - exp(-iH')|| <=
    ||H - H'||``).  The phase shortcut of the evolution drops at most
    ``DIAGONAL_TOL S g`` per run.  So the two states differ by ``dpsi``,
    the sum of these over both runs.

    Post-selection divides by ``sqrt(p)``, so the unit conditioned states
    differ by ``2 dpsi / sqrt(p)``, and ``<c|Q|c>`` moves by twice that times
    ``||Q||``: this ``4 ||Q|| / sqrt(p)`` is the condition of the frame.  A
    route value scales the expectation of its ladder product by the route
    scale; the correlator route sums 2^N weighted quadrature products, whose
    weighted norms are at most ``||X_j|| / 2 sigma_j + sigma_j ||P_j||`` per
    pointer.  ``prob_success`` and each leakage are squared norms, which move
    by ``2 dpsi + dpsi^2``.  The oracle ``<F|prod A|I> / <F|I>`` moves by its
    input rounding times ``(prod ||A_j|| + |A_w|) / |<F|I>|``, for N + 2
    rounded factors and N rounded products of size S in each of two runs.
    """
    scenario = wm.resolve_scenario(name)
    seen = reference(name)
    size = math.prod(scenario.system_dims)
    norms = [_norm(a) for a in scenario.embedded_observables()]
    g = sum(
        abs(gt) * a * _norm(p.coupling())
        for gt, a, p in zip(scenario.couplings, norms, scenario.pointers)
    )
    rotations = 2 * (size**1.5 + sum(p.dim**1.5 for p in scenario.pointers))
    dpsi = 2 * (EPS * (rotations + size + 2 * size * g) + DIAGONAL_TOL * size * g)
    shift = 4 * dpsi / math.sqrt(seen["prob_success"])
    scale = abs(
        math.prod(p.route_scale(gt) for p, gt in zip(scenario.pointers, scenario.couplings))
    )
    oracle_inputs = 2 * EPS * size * (2 * len(norms) + 2)
    out = {
        "oracle": oracle_inputs * (math.prod(norms) + abs(seen["oracle"]))
        / abs(np.vdot(scenario.post, scenario.pre)),
        "prob_success": 2 * dpsi + dpsi**2,
        "diagonal frame": 0.0,
    }
    ladder = math.prod(_norm(p.lowering()) for p in scenario.pointers)
    for key in seen:
        kind, _, label = key.partition(" ")
        if kind == "leakage":
            out[key] = 2 * dpsi + dpsi**2
        elif key in ("route lowering", "route spin"):
            out[key] = shift * scale * ladder
        elif key == "route correlators":
            out[key] = shift * scale * math.prod(
                _norm(wm.fock_operators(p)[0]) / (2 * p.sigma)
                + p.sigma * _norm(wm.fock_operators(p)[1])
                for p in scenario.pointers
            )
        elif kind == "table":
            out[key] = shift * math.prod(
                _norm(wm.fock_operators(p)["XP".index(letter)])
                for letter, p in zip(label, scenario.pointers)
            )
    return out


def deviations(name: str, kind: str, seed: int) -> dict:
    """Quantity name -> (its change under the transformation, the bound on that change)."""
    scenario = wm.resolve_scenario(name)
    rng = np.random.default_rng(seed)
    expected, limits = reference(name), bounds(name)
    if kind == "basis":
        transformed = change_basis(scenario, rng)
    elif kind == "phases":
        transformed = rephase(scenario, rng)
    else:
        order = [int(k) for k in rng.permutation(scenario.n_pointers)]
        transformed = permute(scenario, order)
        expected, limits = relabel(expected, order), relabel(limits, order)
    seen = observe(transformed)
    assert sorted(seen) == sorted(expected)
    return {key: (abs(seen[key] - expected[key]), limits[key]) for key in seen}


@settings(max_examples=240, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    kind=st.sampled_from(TRANSFORMS),
    seed=st.integers(0, 2**32 - 1),
)
def test_symmetries_keep_every_observed_quantity(name, kind, seed):
    for key, (change, bound) in deviations(name, kind, seed).items():
        assert change <= bound, f"{name} {kind} {key}: {change:.3e} > {bound:.3e}"
