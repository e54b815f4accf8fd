"""Analytic oracles and the three extraction routes."""

import itertools
import json
import math
import re
import string
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import weakmeas as wm
from weakmeas import (
    FockPointerSpec,
    ObservableSpec,
    Scenario,
)

from conftest import (
    SX,
    SY,
    SZ,
    coherent_amplitudes,
    initial_joint_state,
    momentum_ladder_route,
    op,
    permutation_reference,
    random_hermitian,
    random_state,
    state,
)
from weakmeas.evolution import PostSelectionResult
from weakmeas.scenario import catalog_dir
from weakmeas.tensor import _embed
from weakmeas.weak_values import _ladder_route, _symmetrized_values

R2 = 1.0 / np.sqrt(2.0)

DATA = Path(__file__).parent / "data"

#: Generated draws whose lowering error exceeds the coarse tolerance model
#: (partial-product weak values the cubic model does not see).
REGRESSION_FIXTURES = [
    str(DATA / "noncommuting_s11_p399_5.json"),
    str(DATA / "joint_s12_p17_29.json"),
]

#: Every scenario file the suite keeps beside the catalog.
DATA_SCENARIOS = sorted(
    str(path)
    for path in DATA.glob("*.json")
    if path.stem not in {"catalog_values", "sample_digests"}
)


def one_factor_scenario(matrices, pre, post):
    """The matrices as observables on one system factor of ``len(pre)`` levels, each
    read out by a sigma = 1 Fock pointer at gt = 0.02.  Embedding on one factor is
    the identity, so the oracle's recursion reads the matrices unchanged."""
    return Scenario(
        system_dims=(len(pre),),
        observables=tuple(
            ObservableSpec(name=f"A{j + 1}", matrix=m, target=(0,)) for j, m in enumerate(matrices)
        ),
        pointers=(FockPointerSpec(sigma=1.0, dim=8),) * len(matrices),
        couplings=(0.02,) * len(matrices),
        pre=pre,
        post=post,
    )


def one_factor_oracle(matrices, pre, post):
    """:func:`weakmeas.analytic_oracle` of :func:`one_factor_scenario`."""
    return wm.analytic_oracle(one_factor_scenario(matrices, pre, post))


def overlapping_states(rng, dim, floor=0.3):
    while True:
        pre, post = random_state(rng, dim), random_state(rng, dim)
        if abs(np.vdot(post, pre)) >= floor:
            return pre, post


def matrix_and_square(rng):
    """A random qutrit observable A and A^2: they commute, but their products
    in the two orders differ by rounding."""
    a = random_hermitian(rng, 3)
    a = a / np.linalg.norm(a, 2)
    a2 = a @ a
    assert np.any(a @ a2 != a2 @ a)
    return a, a2


def conditioned(name_or_scenario):
    s = (
        wm.resolve_scenario(name_or_scenario)
        if isinstance(name_or_scenario, str)
        else name_or_scenario
    )
    return wm.post_select(wm.evolve_exact(s), s), s


class TestAnalyticWeakValue:
    def test_identity_observable(self, rng):
        pre = state(random_state(rng, 3))
        post = state(random_state(rng, 3))
        assert wm.analytic_weak_value(np.eye(3), pre, post) == pytest.approx(1.0)

    def test_tilted_post_selection_closed_form(self):
        phi = 3 * np.pi / 8
        pre = state([R2, R2])
        post = state([np.cos(phi), np.sin(phi)])
        value = wm.analytic_weak_value(SZ, pre, post)
        assert value == pytest.approx(np.tan(np.pi / 4 - phi))
        assert value == pytest.approx(1.0 - np.sqrt(2.0))

    def test_amplified_value_outside_spectrum(self):
        phi = np.pi / 4 - 0.005
        pre = state([R2, R2])
        post = state([np.cos(phi), -np.sin(phi)])
        value = wm.analytic_weak_value(SZ, pre, post)
        assert value == pytest.approx(1.0 / np.tan(0.005))
        assert abs(value) > 1.0  # far outside the sigma_z eigenvalue range

    def test_purely_imaginary_value(self):
        pre = state([R2, R2 * 1j])
        post = state([R2, R2])
        assert wm.analytic_weak_value(SZ, pre, post) == pytest.approx(-1j)

    def test_zero_overlap_diverges(self):
        with pytest.raises(wm.DivergentWeakValueError):
            wm.analytic_weak_value(SZ, state([1.0, 0.0]), state([0.0, 1.0]))


class TestSymmetrizedJointWeakValue:
    def test_joint_eigenstate(self):
        a1 = _embed(SZ, (0,), (2, 2))
        a2 = _embed(SZ, (1,), (2, 2))
        pre = state([0.0, R2, R2, 0.0])
        post = state([0.5, 0.5, 0.5, 0.5])
        assert one_factor_oracle([a1, a2], pre, post) == pytest.approx(-1.0)

    def test_anticommuting_pair_vanishes(self, rng):
        # sigma_x sigma_y + sigma_y sigma_x = 0, so the value is 0 for any states
        for _ in range(5):
            pre = state(random_state(rng, 2))
            post = state(random_state(rng, 2))
            if abs(np.vdot(post, pre)) < 1e-3:
                continue
            value = one_factor_oracle([SX, SY], pre, post)
            assert abs(value) <= 1e-12

    def test_commuting_triple_reduces_to_product(self, rng):
        ops = [_embed(SZ, (k,), (2, 2, 2)) for k in range(3)]
        product = ops[0] @ ops[1] @ ops[2]
        for _ in range(5):
            pre = state(random_state(rng, 8))
            post = state(random_state(rng, 8))
            if abs(np.vdot(post, pre)) < 1e-3:
                continue
            joint = one_factor_oracle(ops, pre, post)
            direct = wm.analytic_weak_value(product, pre, post)
            assert joint == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))

    def test_commuting_reduction_is_checked_at_run_time(self, monkeypatch):
        # a plain-product value that disagrees with the symmetrized sum must
        # raise a typed error, which (unlike an assert) survives python -O
        ops = [_embed(SZ, (k,), (2, 2)) for k in range(2)]
        exact = wm.weak_values.analytic_weak_value
        monkeypatch.setattr(
            wm.weak_values, "analytic_weak_value", lambda *a, **k: exact(*a, **k) + 1e-6
        )
        pre = state([0.0, R2, R2, 0.0])
        post = state([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(wm.WeakMeasurementError, match="plain-product"):
            one_factor_oracle(ops, pre, post)

    def test_non_finite_plain_product_is_refused(self):
        # the product of two 1e160-scale projectors overflows while |I> = |11>,
        # which both annihilate, keeps the word sums at 0: a NaN difference must
        # fail the reduction check, not slip past it, and no numpy warning escapes
        proj = np.diag([1.0, 0.0])
        ops = [1e160 * _embed(proj, (k,), (2, 2)) for k in range(2)]
        pre = state([0.0, 0.0, 0.0, 1.0])
        post = state([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(wm.WeakMeasurementError, match=r"value 0j does not reduce .*nan"):
            one_factor_oracle(ops, pre, post)

    def test_overflowing_word_sums_are_a_capacity_error(self):
        # 1e160-scale observables overflow the word sum A_1 A_2 |I>: a typed
        # refusal, before the plain-product check and with no numpy warning
        ops = [1e160 * _embed(SZ, (k,), (2, 2)) for k in range(2)]
        pre = state([0.0, R2, R2, 0.0])
        post = state([0.5, 0.5, 0.5, 0.5])
        message = "the symmetrized weak value W(1, 1) is (nan+nanj), past the float range"
        with pytest.raises(wm.CapacityError, match=f"^{re.escape(message)}$"):
            one_factor_oracle(ops, pre, post)

    def test_reduction_is_checked_for_commuting_to_rounding(self, monkeypatch, rng):
        a, a2 = matrix_and_square(rng)
        pre, post = overlapping_states(rng, 3)
        exact = wm.weak_values.analytic_weak_value
        monkeypatch.setattr(
            wm.weak_values, "analytic_weak_value", lambda *a, **k: exact(*a, **k) + 1e-6
        )
        with pytest.raises(wm.WeakMeasurementError, match="plain-product"):
            one_factor_oracle([a, a2], state(pre), state(post))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_recursion_matches_permutation_reference(self, rng, n):
        pool = [random_hermitian(rng, 3) for _ in range(n)]
        pool = [m / np.linalg.norm(m, 2) for m in pool]
        pre, post = overlapping_states(rng, 3)
        for matrices in (pool, [pool[j % 2] for j in range(n)]):
            value = one_factor_oracle(matrices, state(pre), state(post))
            reference = permutation_reference(matrices, pre, post)
            assert abs(value - reference) <= 1e-13 * (1.0 + abs(reference))

    def test_multisets_match_permutation_reference(self, rng):
        # W(k) averages the words that use observable i k_i times: the same
        # value as the symmetrized product with A_i listed k_i times
        pool = [random_hermitian(rng, 4) for _ in range(3)]
        pool = [m / np.linalg.norm(m, 2) for m in pool]
        pre, post = overlapping_states(rng, 4)
        multisets = [k for k in itertools.product(range(4), range(3), range(2)) if any(k)]
        values = _symmetrized_values(one_factor_scenario(pool, state(pre), state(post)), multisets)
        for k in multisets:
            repeated = [m for m, kj in zip(pool, k) for _ in range(kj)]
            reference = permutation_reference(repeated, pre, post)
            assert abs(values[k] - reference) <= 1e-13 * (1.0 + abs(reference))

    @pytest.mark.parametrize(
        "ref", wm.catalog_names() + DATA_SCENARIOS, ids=lambda ref: Path(ref).name
    )
    def test_oracle_matches_permutation_reference_on_shipped_scenarios(self, ref):
        # every ordering applied in turn to the embedded observables: no word-sum
        # recursion, no memo; split_target_triple's out-of-order target included
        s = wm.resolve_scenario(ref)
        reference = permutation_reference(s.embedded_observables(), s.pre, s.post)
        assert abs(wm.analytic_oracle(s) - reference) <= 1e-13 * (1.0 + abs(reference))

    def test_permutation_cap(self):
        ops = [SZ] * 9
        with pytest.raises(wm.CapacityError):
            one_factor_oracle(ops, state([1.0, 0.0]), state([R2, R2]))


class TestSecondOrderError:
    @pytest.mark.parametrize(
        "ref",
        [n for n in wm.catalog_names()
         if all(isinstance(p, FockPointerSpec) for p in wm.resolve_scenario(n).pointers)]
        + REGRESSION_FIXTURES,
    )
    def test_predicts_the_lowering_route_error(self, ref):
        result, s = conditioned(wm.resolve_scenario(ref))
        [extracted] = wm.extract_joint_fock([(result, s)])
        error = extracted - wm.analytic_oracle(s)
        c2 = wm.second_order_error(s)
        # c2 = 0 (exact scenarios) leaves only double-precision noise
        assert abs(error - c2) <= 1e-2 * abs(c2) + 1e-12

    @pytest.mark.parametrize("name", ["aav_qubit", "aav_amplified", "aav_imaginary"])
    def test_single_two_level_observable_closed_form(self, name):
        # A^2 = 1 and N = 1: W(2) = 1, W(3) = A_w, so c2 = lambda^2 (conj A_w - |A_w|^2 A_w)
        s = wm.resolve_scenario(name)
        a_w = wm.analytic_oracle(s)
        expected = s.lambda_max**2 * (a_w.conjugate() - abs(a_w) ** 2 * a_w)
        assert wm.second_order_error(s) == pytest.approx(expected, rel=1e-12)

    def test_spin_pointers_rejected(self):
        with pytest.raises(wm.UnsupportedScenarioError):
            wm.second_order_error(wm.resolve_scenario("aav_qubit_spinptr"))

    @pytest.mark.parametrize("name", ["joint_pair", "triple_ghz_mix"])
    def test_reuses_the_oracle_word_sums(self, name):
        s = wm.resolve_scenario(name)
        analytic = wm.analytic_oracle(s)
        sums = s._kept["_word_sums"]
        kept = dict(sums)
        assert (1,) * s.n_pointers in kept
        c2 = wm.second_order_error(s)
        # The recursion continued the oracle's memo: no word sum was rebuilt.
        assert s._kept["_word_sums"] is sums
        assert all(sums[k] is vector for k, vector in kept.items())
        assert len(sums) > len(kept)
        # Sharing changes no bit, in either call order.
        fresh = wm.resolve_scenario(name)
        assert wm.second_order_error(fresh) == c2
        assert wm.analytic_oracle(fresh) == analytic
        observables = s.embedded_observables()
        assert one_factor_oracle(observables, s.pre, s.post) == analytic


class TestFockExtraction:
    def test_aav_qubit_route(self):
        result, s = conditioned("aav_qubit")
        [extracted] = wm.extract_joint_fock([(result, s)])
        analytic = 1.0 - np.sqrt(2.0)
        lam = s.lambda_max
        assert abs(extracted - analytic) / abs(analytic) <= 3 * lam**2

    def test_entangled_pair_route(self):
        result, s = conditioned("joint_pair_entangled")
        [extracted] = wm.extract_joint_fock([(result, s)])
        assert abs(extracted - (-1.0)) <= 5e-4

    def test_anticommuting_pair_residual(self):
        result, s = conditioned("pair_anticommuting")
        [extracted] = wm.extract_joint_fock([(result, s)])
        assert abs(extracted) <= 1e-2

    def test_zero_coupling_rejected(self):
        s = wm.resolve_scenario("aav_qubit")
        frozen = Scenario(
            system_dims=s.system_dims,
            observables=s.observables,
            pointers=s.pointers,
            couplings=(0.0,),
            pre=s.pre,
            post=s.post,
        )
        result, _ = conditioned(frozen)
        with pytest.raises(wm.ZeroCouplingError):
            wm.extract_joint_fock([(result, frozen)])

    def test_spin_scenario_takes_the_ladder_route(self):
        # S- and 1/(gt s) stand in for a and 2 sigma / gt: the spin route's value
        result, s = conditioned("aav_qubit_spinptr")
        [extracted] = wm.extract_joint_fock([(result, s)])
        assert extracted == wm.extract_joint_spin([(result, s)])[0]
        ladder = wm.expectation(result.conditioned, op(s.pointers[0].lowering()))
        assert extracted == pytest.approx(ladder / (s.couplings[0] * s.pointers[0].s), abs=1e-12)


def dense_ladder_route(points):
    """Reference: ``prod_j route_scale_j <prod_j L_j>`` with the product built as one
    dense ``kron`` over the pointer space and applied to the flattened state."""
    product = wm.kron([p.lowering() for p in points[0][1].pointers])
    return [
        wm.expectation(result.conditioned, product)
        * math.prod(p.route_scale(gt) for p, gt in zip(s.pointers, s.couplings))
        for result, s in points
    ]


#: Every catalog and ``tests/data`` scenario whose pointers are all Fock: the
#: scenarios the correlator route takes.
ALL_FOCK = [
    ref
    for ref in wm.catalog_names() + DATA_SCENARIOS
    if all(isinstance(p, FockPointerSpec) for p in wm.resolve_scenario(ref).pointers)
]


class TestAllOrdersReference:
    # at N = 3 the reference takes about 0.1 s, so only triple_ghz_mix is checked
    @pytest.mark.parametrize(
        "ref",
        [r for r in ALL_FOCK if wm.resolve_scenario(r).n_pointers < 3] + ["triple_ghz_mix"],
        ids=lambda ref: Path(ref).name,
    )
    def test_lowering_route_matches_to_all_orders(self, ref):
        # the simulated route misses the first-order oracle by up to 2e-2 here,
        # so agreement covers every higher order; the route's own rounding is
        # about eps |route scale| (1 + |A_w|), the unit of the sweep's floor
        result, s = conditioned(ref)
        [value] = wm.extract_joint_fock([(result, s)])
        reference = momentum_ladder_route(s)
        analytic = abs(wm.analytic_oracle(s))
        scale = math.prod(p.route_scale(gt) for p, gt in zip(s.pointers, s.couplings))
        rounding = np.finfo(float).eps * abs(scale) * (1.0 + analytic)
        assert abs(value - reference) <= 1e-12 * (1.0 + analytic) + rounding

    @pytest.mark.parametrize(
        "ref",
        ["aav_amplified", "strong_pair_entangled", str(DATA / "noncommuting_s11_p399_5.json")],
        ids=lambda ref: Path(ref).name,
    )
    def test_eight_nodes_converge(self, ref):
        s = wm.resolve_scenario(ref)
        reference = momentum_ladder_route(s, 16)
        assert abs(momentum_ladder_route(s) - reference) <= 1e-13 * (1.0 + abs(reference))

    @pytest.mark.parametrize("lam", [0.16, 0.08])
    @pytest.mark.parametrize(
        "ref",
        ["aav_qubit", "joint_pair", str(DATA / "noncommuting_s11_p399_5.json")],
        ids=lambda ref: Path(ref).name,
    )
    def test_truncation_error_is_bounded_by_the_leakage(self, monkeypatch, ref, lam):
        # with the guard lifted, the lowering route at d = 3..7 misses the
        # untruncated reference by 1.0e-4 .. 1.35e-2 of the top-level leakage
        # (the largest on the non-commuting file at d = 4, lambda = 0.16), so
        # the 1e-8 LEAKAGE_GUARD bounds truncation at 5e-10 (1 + |A_w|)
        monkeypatch.setattr(wm.evolution, "LEAKAGE_GUARD", 1.0)
        base = wm.resolve_scenario(ref).with_lambda(lam)
        reference = momentum_ladder_route(base)
        analytic = abs(wm.analytic_oracle(base))
        for dim in range(3, 8):
            s = base.with_fock_dim(dim)
            evolved = wm.evolve_exact(s)
            leakage = max(wm.evolution.top_level_leakage(evolved, s))
            if leakage < 1e-11:  # the error is rounding there
                continue
            [value] = wm.extract_joint_fock([(wm.post_select(evolved, s), s)])
            assert abs(value - reference) / (1.0 + analytic) <= 0.05 * leakage, dim


def spin8_triple():
    """``triple_ghz_mix`` read out by three spin-8 pointers: D = 17^3 = 4913, whose
    dense ``D x D`` product would take 386 MB, past the array cap."""
    doc = json.loads((catalog_dir() / "triple_ghz_mix.json").read_text(encoding="utf-8"))
    doc["pointers"] = [{"kind": "spin", "s": 8}] * 3
    doc["couplings"] = [{"gt": 0.0025}] * 3
    return wm.load_scenario(json.dumps(doc))


class TestContractedLadderRoute:
    @pytest.mark.parametrize(
        "ref", wm.catalog_names() + DATA_SCENARIOS, ids=lambda ref: Path(ref).name
    )
    def test_matches_the_dense_product(self, ref):
        points = [conditioned(ref)]
        [value] = _ladder_route(points)
        [reference] = dense_ladder_route(points)
        assert abs(value - reference) <= 1e-12 * abs(reference)

    def test_every_sweep_point_matches_the_dense_product(self):
        s = wm.resolve_scenario("triple_ghz_mix")
        points = [conditioned(s.with_lambda(lam)) for lam in (0.16, 0.08, 0.04, 0.02)]
        for value, reference in zip(_ladder_route(points), dense_ladder_route(points)):
            assert abs(value - reference) <= 1e-12 * abs(reference)

    @pytest.mark.parametrize("route", [wm.extract_joint_fock, wm.extract_joint_spin])
    def test_zero_norm_state_rejected(self, route):
        s = wm.resolve_scenario("joint_pair")
        zero = np.zeros(s.pointer_dims, dtype=complex)
        with pytest.raises(wm.ZeroNormError):
            route([(PostSelectionResult(conditioned=zero, prob_success=1.0), s)])

    def test_forms_no_pointer_space_matrix(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the ladder route formed a pointer-space operator")

        monkeypatch.setattr(wm.weak_values, "kron", refused)
        monkeypatch.setattr(wm.weak_values, "expectation", refused)
        for name in ("triple_ghz_mix", "joint_pair_spinptr"):
            assert len(_ladder_route([conditioned(name)])) == 1

    def test_spin8_triple_runs_past_the_dense_cap(self):
        s = spin8_triple()
        assert s.pointer_dims == (17,) * 3
        report = wm.run_scenario(s)
        assert list(report.extracted) == ["spin"]
        assert report.passed
        with pytest.raises(wm.CapacityError):
            wm.kron([p.lowering() for p in s.pointers])


class TestCorrelatorDecomposition:
    def test_single_pointer_table_and_recombination(self):
        result, s = conditioned("aav_qubit")
        [(table, recombined)] = wm.correlator_decomposition([(result, s)])
        assert set(table) == {"X", "P"}
        sigma, gt = s.pointers[0].sigma, s.couplings[0]
        manual = (2 * sigma / gt) * (
            table["X"] / (2 * sigma) + 1j * sigma * table["P"]
        )
        assert recombined == pytest.approx(manual, abs=1e-12)

    def test_two_pointer_quadrature_formulas(self):
        # Re = (1/gt)^2 (<X1X2> - 4 sigma^4 <P1P2>),
        # Im = 2 sigma^2 (1/gt)^2 (<X1P2> + <P1X2>)
        result, s = conditioned("joint_pair")
        [(table, recombined)] = wm.correlator_decomposition([(result, s)])
        assert set(table) == {"XX", "XP", "PX", "PP"}
        sigma = s.pointers[0].sigma
        gt = s.couplings[0]
        re_part = (1 / gt) ** 2 * (table["XX"] - 4 * sigma**4 * table["PP"])
        im_part = 2 * sigma**2 * (1 / gt) ** 2 * (table["XP"] + table["PX"])
        assert recombined.real == pytest.approx(re_part, abs=1e-12)
        assert recombined.imag == pytest.approx(im_part, abs=1e-12)

    def test_entries_are_real_hermitian_correlators(self):
        result, s = conditioned("triple_ghz_mix")
        [(table, _)] = wm.correlator_decomposition([(result, s)])
        assert len(table) == 8
        assert all(isinstance(v, float) for v in table.values())

    @pytest.mark.parametrize("ref", ALL_FOCK, ids=lambda ref: Path(ref).name)
    def test_matches_the_dense_correlator_table(self, ref):
        # each entry is the real part the route keeps; the imaginary part it
        # drops must be rounding, since every product is Hermitian
        result, s = conditioned(ref)
        [(table, recombined)] = wm.correlator_decomposition([(result, s)])
        dense, dense_recombined = dense_correlator_table(result, s)
        assert list(table) == list(dense)
        largest = max(abs(v) for v in dense.values())
        for key, value in dense.items():
            assert abs(table[key] - value.real) <= 1e-12 * largest, key
            assert abs(value.imag) <= 1e-12 * largest, key
        assert abs(recombined - dense_recombined) <= 1e-12 * (1.0 + abs(dense_recombined))

    @pytest.mark.parametrize("name", ALL_FOCK, ids=lambda ref: Path(ref).name)
    def test_route_identity(self, name):
        # pure operator algebra on the same state: the routes must agree
        result, s = conditioned(name)
        [(_, recombined)] = wm.correlator_decomposition([(result, s)])
        [direct] = wm.extract_joint_fock([(result, s)])
        assert abs(recombined - direct) <= 1e-12


def dense_correlator_table(result, s):
    """Reference: every X/P correlator ``<Q_1 x ... x Q_N>`` as a complex number, with
    the product built by numpy's own ``np.kron`` on :func:`weakmeas.fock_operators`
    pairs, and their recombination with weights ``1/(2 sigma_j)`` for X and
    ``i sigma_j`` for P, times the route scale."""
    psi = result.conditioned.reshape(-1)
    ops = [wm.fock_operators(p) for p in s.pointers]
    table, recombined = {}, 0j
    for signature in itertools.product("XP", repeat=len(ops)):
        pairs = list(zip(signature, ops, s.pointers))
        product = reduce(np.kron, [o["XP".index(letter)] for letter, o, _ in pairs])
        value = np.vdot(psi, product @ psi) / np.vdot(psi, psi).real
        table["".join(signature)] = complex(value)
        recombined += value * math.prod(
            1.0 / (2.0 * p.sigma) if letter == "X" else 1j * p.sigma for letter, _, p in pairs
        )
    scale = math.prod(p.route_scale(gt) for p, gt in zip(s.pointers, s.couplings))
    return table, complex(recombined * scale)


def dense_pointer_shifts(result, s):
    """Reference: ``(<X>, <P>)`` of the one pointer through dense
    :func:`weakmeas.expectation`, with X and P wrapped in an ``Operator``."""
    quadratures = wm.fock_operators(s.pointers[0])
    return [wm.expectation(result.conditioned, op(q)).real for q in quadratures]


class TestPointerShifts:
    @pytest.mark.parametrize(
        "name",
        [n for n in wm.catalog_names()
         if [type(p) for p in wm.resolve_scenario(n).pointers] == [FockPointerSpec]],
    )
    def test_matches_dense_expectation(self, name):
        result, s = conditioned(name)
        shifts = wm.pointer_shift_check(result, s)
        for value, reference in zip(shifts, dense_pointer_shifts(result, s), strict=True):
            assert abs(value - reference) <= 1e-12 * abs(reference)

    def test_real_weak_value_shifts_only_position(self):
        result, s = conditioned("aav_qubit")
        x_mean, p_mean = wm.pointer_shift_check(result, s)
        gt = s.couplings[0]
        analytic = 1.0 - np.sqrt(2.0)
        lam = s.lambda_max
        assert x_mean == pytest.approx(gt * analytic, abs=3 * lam**2 * (1 + abs(analytic)) * gt)
        assert abs(p_mean) <= 1e-10

    def test_imaginary_weak_value_shifts_only_momentum(self):
        result, s = conditioned("aav_imaginary")
        x_mean, p_mean = wm.pointer_shift_check(result, s)
        gt, sigma = s.couplings[0], s.pointers[0].sigma
        lam = s.lambda_max
        assert abs(x_mean) <= 1e-10
        # <P> = (gt / 2 sigma^2) Im A_w with Im A_w = -1
        assert (2 * sigma**2 / gt) * p_mean == pytest.approx(-1.0, abs=3 * lam**2 * 2)

    def test_multi_pointer_rejected(self):
        result, s = conditioned("joint_pair")
        with pytest.raises(wm.UnsupportedScenarioError):
            wm.pointer_shift_check(result, s)


class TestSpinExtraction:
    def test_aav_spin_route(self):
        result, s = conditioned("aav_qubit_spinptr")
        [extracted] = wm.extract_joint_spin([(result, s)])
        analytic = 1.0 - np.sqrt(2.0)
        gt = s.couplings[0]
        assert abs(extracted - analytic) / abs(analytic) <= 3 * gt**2

    def test_entangled_spin_pair(self):
        result, s = conditioned("joint_pair_spinptr")
        [extracted] = wm.extract_joint_spin([(result, s)])
        gt = s.couplings[0]
        assert abs(extracted - (-1.0)) <= 3 * gt**2

    def test_fock_scenario_takes_the_ladder_route(self):
        # a and 2 sigma / gt stand in for S- and 1/(gt s): the lowering route's value
        result, s = conditioned("aav_qubit")
        [extracted] = wm.extract_joint_spin([(result, s)])
        assert extracted == wm.extract_joint_fock([(result, s)])[0]
        ladder = wm.expectation(result.conditioned, op(s.pointers[0].lowering()))
        sigma, gt = s.pointers[0].sigma, s.couplings[0]
        assert extracted == pytest.approx(ladder * 2 * sigma / gt, abs=1e-12)

    @pytest.mark.parametrize(
        "route",
        [
            lambda point: wm.correlator_decomposition([point]),
            lambda point: wm.pointer_shift_check(*point),
            lambda point: wm.strong_position_estimate(point[1]),
        ],
        ids=["correlators", "shift", "strong"],
    )
    def test_fock_only_routes_refuse_spin_before_evolving(self, route, monkeypatch):
        result, s = conditioned("aav_qubit_spinptr")

        def no_evolution(*args):
            raise AssertionError("evolved before refusing the pointer kind")

        monkeypatch.setattr(wm.weak_values, "evolve_exact", no_evolution)
        with pytest.raises(wm.UnsupportedScenarioError, match="requires Fock pointers"):
            route((result, s))


def dense_strong_position_estimate(scenario):
    """Reference: <I_S (x) X_1 (x) ... (x) X_N> as one full-space operator."""
    evolved = wm.evolve_exact(scenario)
    factors = [np.eye(math.prod(scenario.system_dims))] + [
        wm.fock_operators(p)[0] for p in scenario.pointers
    ]
    value = wm.expectation(evolved, wm.kron(factors))
    return value * math.prod(1.0 / gt for gt in scenario.couplings)


class TestStrongEstimate:
    @pytest.mark.parametrize(
        "name", ["strong_single", "strong_pair_product", "strong_pair_entangled"]
    )
    def test_matches_dense_reference(self, name):
        s = wm.resolve_scenario(name)
        reference = dense_strong_position_estimate(s)
        assert abs(wm.strong_position_estimate(s) - reference) <= 1e-12 * abs(reference)

    def test_eigenstate(self):
        value = wm.strong_position_estimate(wm.resolve_scenario("strong_single"))
        assert value.real == pytest.approx(1.0, abs=1e-8)

    def test_product_eigenstate_pair(self):
        value = wm.strong_position_estimate(wm.resolve_scenario("strong_pair_product"))
        assert value.real == pytest.approx(1.0, abs=1e-8)

    def test_entangled_pair_against_heisenberg_oracle(self):
        # independent oracle: <(X1 + gt A1)(X2 + gt A2)> on the *initial* state,
        # no time evolution involved
        s = wm.resolve_scenario("strong_pair_entangled")
        gt = s.couplings[0]
        dims = s.system_dims + s.pointer_dims
        x_ops = [wm.fock_operators(p)[0] for p in s.pointers]
        shifted = []
        for j, obs in enumerate(s.embedded_observables()):
            a_full = _embed(obs, tuple(range(len(s.system_dims))), dims)
            x_full = _embed(x_ops[j], (len(s.system_dims) + j,), dims)
            shifted.append(x_full + gt * a_full)
        initial = initial_joint_state(s).reshape(dims)
        oracle = wm.expectation(initial, wm.Operator(dims, shifted[0] @ shifted[1])) / gt**2
        value = wm.strong_position_estimate(s)
        assert value == pytest.approx(oracle, abs=1e-8)
        assert value.real == pytest.approx(-1.0, abs=1e-8)

    def test_commuting_to_rounding_against_expectation(self, rng):
        # A and A^2 commute, so the estimate is <I|A A^2|I>
        a, a2 = matrix_and_square(rng)
        pre, post = overlapping_states(rng, 3)
        s = Scenario(
            system_dims=(3,),
            observables=(
                ObservableSpec(name="a", matrix=a, target=(0,)),
                ObservableSpec(name="a2", matrix=a2, target=(0,)),
            ),
            pointers=(FockPointerSpec(sigma=1.0, dim=8),) * 2,
            couplings=(0.02,) * 2,
            pre=state(pre),
            post=state(post),
        )
        expected = np.vdot(pre, a @ a2 @ pre)
        assert abs(wm.strong_position_estimate(s) - expected) <= 1e-12 * (1 + abs(expected))

    def test_noncommuting_rejected(self):
        s = wm.resolve_scenario("pair_anticommuting")
        with pytest.raises(wm.UnsupportedScenarioError):
            wm.strong_position_estimate(s)


class TestMultiFactorObservable:
    def test_noncontiguous_target_through_full_pipeline(self):
        # one pointer coupled to sigma_z(q0) sigma_z(q2) on a 3-qubit system;
        # the embedding must thread the untouched middle factor correctly
        r3 = 1.0 / np.sqrt(3.0)
        pre = np.zeros(8, dtype=complex)
        pre[0b000] = r3
        pre[0b011] = r3
        pre[0b110] = r3
        post = np.full(8, 1.0 / np.sqrt(8.0), dtype=complex)
        joint = np.kron(SZ, SZ)
        s = Scenario(
            system_dims=(2, 2, 2),
            observables=(ObservableSpec(name="sz0_sz2", matrix=joint, target=(0, 2)),),
            pointers=(FockPointerSpec(sigma=1.0, dim=12),),
            couplings=(0.02,),
            pre=state(pre),
            post=state(post),
        )
        assert wm.validate(s) == []
        analytic = wm.analytic_oracle(s)
        assert analytic == pytest.approx(-1.0 / 3.0, abs=1e-12)
        result, _ = conditioned(s)
        [extracted] = wm.extract_joint_fock([(result, s)])
        lam = s.lambda_max
        assert abs(extracted - analytic) <= 3 * lam**2 * (1 + abs(analytic))


    def test_split_target_file_matches_an_einsum_oracle(self):
        # tests/data/split_target_triple.json couples X(q2) Z(q0), target [2, 0],
        # and Z(q1): the reference reads the document's own numbers and applies
        # each matrix to its factors of the (2, 2, 2) amplitude tensor by index
        # contraction, so neither the loader nor the embedding is involved
        path = DATA / "split_target_triple.json"
        doc = json.loads(path.read_text(encoding="utf-8"))

        def pairs(raw):
            values = np.asarray(raw, dtype=float)
            return values[..., 0] + 1j * values[..., 1]

        def apply(obs, vector):
            # output axes take the letters k.., input axes the target's own letters
            target = obs["target"]
            k = len(doc["system_dims"])
            axes = string.ascii_lowercase[:k]
            fresh = string.ascii_lowercase[k : k + len(target)]
            out = "".join(fresh[target.index(i)] if i in target else axes[i] for i in range(k))
            shape = tuple(doc["system_dims"][f] for f in target) * 2
            spec = fresh + "".join(axes[f] for f in target) + "," + axes + "->" + out
            matrix = pairs(obs["matrix"]).reshape(shape)
            return np.einsum(spec, matrix, vector.reshape(doc["system_dims"])).reshape(-1)

        pre, post = pairs(doc["pre"]), pairs(doc["post"])
        first, second = doc["observables"]
        words = apply(first, apply(second, pre)) + apply(second, apply(first, pre))
        reference = complex(np.vdot(post, words) / (2 * np.vdot(post, pre)))
        assert abs(wm.analytic_oracle(wm.resolve_scenario(path)) - reference) <= 1e-12
        assert doc["expected"]["weak_value"] == pytest.approx(
            [reference.real, reference.imag], abs=1e-12
        )

class TestWeakLimitProperties:
    def test_trivial_post_selection_recovers_expectation_value(self):
        # F = I: the extracted value converges to <I|A|I> as lambda shrinks
        theta = 0.3
        pre = [np.cos(theta), np.sin(theta)]
        s = Scenario(
            system_dims=(2,),
            observables=(ObservableSpec(name="sz", matrix=SZ, target=(0,)),),
            pointers=(FockPointerSpec(sigma=1.0, dim=12),),
            couplings=(0.004,),
            pre=state(pre),
            post=state(pre),
        )
        result, _ = conditioned(s)
        [extracted] = wm.extract_joint_fock([(result, s)])
        expectation_value = np.cos(theta) ** 2 - np.sin(theta) ** 2
        assert extracted.real == pytest.approx(expectation_value, abs=1e-5)
        assert abs(extracted.imag) <= 1e-10

    def test_conditioned_pointer_is_displaced_ground_state(self):
        # real weak value, small lambda: fidelity with the shifted ground
        # state exceeds 1 - 10 lambda^2
        result, s = conditioned("aav_qubit")
        lam = s.lambda_max
        analytic = 1.0 - np.sqrt(2.0)
        target = coherent_amplitudes(lam * analytic, s.pointers[0].dim)
        fidelity = abs(np.vdot(target, result.conditioned)) ** 2
        assert fidelity >= 1.0 - 10.0 * lam**2

    def test_extraction_tolerance_model(self):
        # the tolerance grows cubically with the weak value, quadratically in lambda
        assert wm.extraction_tolerance(0.01, 0.0) == pytest.approx(3e-4 + 1e-9)
        big = wm.extraction_tolerance(0.01, 199.9967)
        assert big > 3e-4 * 200**3 * 0.9
