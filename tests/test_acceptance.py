"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines).  Every tolerance is fixed here, not
calibrated: criteria compare simulated extractions against closed-form
oracles at the quadratic error scale of the weak coupling, with
3 lambda^2 = 3e-4 at the reference coupling lambda = 0.01.
"""

import time

import numpy as np
import pytest

import weakmeas as wm

#: Reference expansion parameter of the acceptance runs (gt = 0.02, sigma = 1).
LAMBDA_REF = 0.01

_reports = {}


def report(name):
    if name not in _reports:
        _reports[name] = wm.run_experiment(name)
    return _reports[name]


def announce(number, text):
    print(f"\nACCEPTANCE {number:2d} PASS: {text}")


def test_c01_single_weak_value():
    # lowering-operator route on the tilted-qubit scenario, A_w = 1 - sqrt(2)
    r = report("aav_qubit")
    analytic = 1.0 - np.sqrt(2.0)
    assert r.analytic == pytest.approx(analytic, abs=1e-12)
    assert r.lambda_max == pytest.approx(LAMBDA_REF)
    rel = abs(r.extracted["lowering"] - analytic) / abs(analytic)
    assert rel <= 3e-4
    announce(1, f"single weak value {r.extracted['lowering'].real:+.6f} vs "
                f"{analytic:+.6f} (relative error {rel:.2e} <= 3e-4)")


def test_c02_anomalous_amplification():
    # weak value ~200, far outside the sigma_z spectrum [-1, 1]
    r = report("aav_amplified")
    analytic = 1.0 / np.tan(0.005)
    rel = abs(r.extracted["lowering"] - analytic) / abs(analytic)
    assert rel <= 3e-4
    prob_expected = np.sin(0.005) ** 2
    assert r.prob_success == pytest.approx(prob_expected, rel=0.01)
    announce(2, f"amplified value {r.extracted['lowering'].real:.4f} ~ 200 "
                f"(relative error {rel:.2e}); prob_success "
                f"{r.prob_success:.3e} within 1% of sin^2(0.005)")


def test_c03_quadrature_shifts():
    # <X>/gt tracks Re A_w and (2 sigma^2 / gt) <P> tracks Im A_w
    checks = []
    for name, expected in (("aav_qubit", 1.0 - np.sqrt(2.0)), ("aav_imaginary", -1j)):
        scenario = wm.resolve_scenario(name)
        result = wm.post_select(wm.evolve_exact(scenario), scenario)
        x_mean, p_mean = wm.pointer_shift_check(result, scenario)
        gt = scenario.couplings[0]
        sigma = scenario.pointers[0].sigma
        lam = scenario.lambda_max
        tol = 3 * lam**2 * (1.0 + abs(expected))
        expected = complex(expected)
        re_err = abs(x_mean / gt - expected.real)
        im_err = abs((2 * sigma**2 / gt) * p_mean - expected.imag)
        assert re_err <= tol, name
        assert im_err <= tol, name
        checks.append(f"{name}: dRe={re_err:.2e}, dIm={im_err:.2e} <= {tol:.2e}")
    announce(3, "quadrature shifts track Re/Im of the weak value (" + "; ".join(checks) + ")")


def test_c04_central_joint_formula():
    r2 = report("joint_pair_entangled")
    err2 = abs(r2.extracted["lowering"] - (-1.0))
    assert err2 <= 5e-4

    start = time.perf_counter()
    r3 = report("triple_ghz_mix")
    elapsed = time.perf_counter() - start
    rel3 = abs(r3.extracted["lowering"] - r3.analytic) / abs(r3.analytic)
    assert rel3 <= 3 * (3 * LAMBDA_REF**2)
    assert elapsed < 60.0
    announce(4, f"joint formula: N=2 entangled {r2.extracted['lowering'].real:+.6f} "
                f"(error {err2:.2e} <= 5e-4); N=3 vs permutation oracle "
                f"(relative error {rel3:.2e} <= 9e-4) in {elapsed:.2f} s")


def test_c05_next_order_scaling():
    grid = [0.16, 0.08, 0.04, 0.02]
    slopes = {}
    for name in ("aav_qubit", "aav_imaginary", "aav_qubit_spinptr"):
        result = wm.sweep_lambda(name, grid)
        assert abs(result.fitted_slope - 2.0) <= 0.3, name
        slopes[name] = result.fitted_slope
    summary = ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items())
    announce(5, f"error scales quadratically in the coupling (slopes {summary})")


def test_c06_noncommuting_symmetrization():
    r = report("pair_anticommuting")
    assert r.analytic == pytest.approx(0.0, abs=1e-12)
    assert r.lambda_max == pytest.approx(0.02)
    residual = abs(r.extracted["lowering"])
    assert residual <= 1e-2
    announce(6, f"anticommuting pair extracts |value| = {residual:.2e} <= 1e-2 "
                f"against the exact-zero permutation oracle")


def test_c07_spin_pointer_equivalence():
    checks = []
    for name, expected in (
        ("aav_qubit_spinptr", 1.0 - np.sqrt(2.0)),
        ("joint_pair_spinptr", -1.0),
    ):
        r = report(name)
        gt = wm.resolve_scenario(name).couplings[0]
        rel = abs(r.extracted["spin"] - expected) / abs(expected)
        assert rel <= 3 * gt**2, name
        checks.append(f"{name}: {rel:.2e} <= {3 * gt**2:.2e}")
    announce(7, "spin-1/2 pointers reproduce the Fock-route weak values (" + "; ".join(checks) + ")")


def test_c08_strong_measurement_analog():
    checks = []
    for name in ("strong_single", "strong_pair_product", "strong_pair_entangled"):
        scenario = wm.resolve_scenario(name)
        expected = complex(*scenario.expected["strong_product"])
        leakage = sum(wm.top_level_leakage(wm.evolve_exact(scenario), scenario))
        value = wm.strong_position_estimate(scenario)
        err = abs(value - expected)
        assert err <= 1e-8 + leakage, name
        checks.append(f"{name}: {err:.1e}")
    announce(8, "position correlations without post-selection reproduce "
                "<I|prod A|I> to 1e-8 + leakage (" + "; ".join(checks) + ")")


def test_c09_route_identity():
    worst = 0.0
    for name in wm.catalog_names():
        scenario = wm.resolve_scenario(name)
        if not all(isinstance(p, wm.FockPointerSpec) for p in scenario.pointers):
            continue
        result = wm.post_select(wm.evolve_exact(scenario), scenario)
        [(_, recombined)] = wm.correlator_decomposition([(result, scenario)])
        [direct] = wm.extract_joint_fock([(result, scenario)])
        gap = abs(recombined - direct)
        assert gap <= 1e-12, name
        worst = max(worst, gap)
    announce(9, f"correlator recombination equals the lowering route on every "
                f"Fock catalog scenario (worst gap {worst:.2e} <= 1e-12)")


def test_c10_sampling_consistency():
    scenario = wm.resolve_scenario("aav_qubit")
    result = wm.post_select(wm.evolve_exact(scenario), scenario)
    exact_x, _ = wm.pointer_shift_check(result, scenario)
    positions = wm.sample_positions(result, scenario, 0, 10**6, seed=42)
    stderr = float(np.std(positions)) / np.sqrt(positions.size)
    gap = abs(float(np.mean(positions)) - exact_x)
    assert gap <= 5 * stderr
    again = wm.sample_positions(result, scenario, 0, 10**6, seed=42)
    assert np.array_equal(positions, again)
    announce(10, f"10^6 position samples: mean within {gap / stderr:.2f} standard "
                 f"errors of the exact <X>; bitwise deterministic under seed 42")
