"""Scenarios that mix Fock and spin pointers run through the one ladder route.

The joint weak value is ``prod_j route_scale_j <prod_j L_j>`` with each
pointer's own ladder operator and scale, so nothing in it needs one pointer
kind.  The two scenario files under ``tests/data/`` are ``joint_pair`` read
out by one Fock pointer (sigma 1, d 12) and one spin-1/2 pointer, in both
orders.  They stay out of the shipped catalog.
"""

import contextlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import weakmeas as wm
from weakmeas import FockPointerSpec, SpinPointerSpec, cli, harness

from conftest import dense_evolved

DATA = Path(__file__).resolve().parent / "data"

GRID = (0.16, 0.08, 0.04, 0.02)

#: Largest allowed change of a pinned value, in units of ``1 + |A_w|``.
DRIFT = 1e-12

#: Pinned run values (the spin route), post-selection probabilities and
#: tolerances, and the fitted slope of a sweep over :data:`GRID`, per file.
PINS = {
    "joint_pair_fock_spin": {
        "spin": 0.07924495756589256 - 1.2502315012170216e-15j,
        "prob_success": 0.6092362591884684,
        "tolerance": 0.0003771136170897334,
        "sweep_slope": 2.000186336652093,
    },
    "joint_pair_spin_fock": {
        "spin": 0.07924495767413854 + 1.278928549579952e-15j,
        "prob_success": 0.6092362583562729,
        "tolerance": 0.0003771136170897334,
        "sweep_slope": 2.0017279137609174,
    },
}

ORACLE = 0.07923644502699631


def path(name):
    return DATA / f"{name}.json"


def call(argv):
    """Exit status, standard output and standard error of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def spin_index(scenario):
    [index] = [i for i, p in enumerate(scenario.pointers) if isinstance(p, SpinPointerSpec)]
    return index


@pytest.fixture(params=sorted(PINS))
def name(request):
    return request.param


def test_both_orders_mix_one_fock_and_one_spin_pointer(name):
    s = wm.resolve_scenario(path(name))
    assert sorted(type(p).__name__ for p in s.pointers) == ["FockPointerSpec", "SpinPointerSpec"]
    assert wm.validate(s) == []


def test_run_reports_the_spin_route_at_its_pinned_value(name):
    report = wm.run_experiment(path(name))
    want = PINS[name]
    bound = DRIFT * (1.0 + abs(ORACLE))
    assert list(report.extracted) == ["spin"]
    assert abs(report.analytic - ORACLE) <= bound
    assert abs(report.extracted["spin"] - want["spin"]) <= bound
    assert abs(report.prob_success - want["prob_success"]) <= bound
    assert abs(report.tolerance - want["tolerance"]) <= bound
    assert report.passed
    assert report.xp_shift is None
    doc = json.loads(wm.emit_report(report, "json"))
    assert doc["extracted_lowering"] is None and doc["extracted_correlators"] is None
    assert doc["extracted_spin"] == [want["spin"].real, want["spin"].imag]


def test_sweep_slope_is_pinned_and_quadratic(name):
    result = wm.sweep_lambda(path(name), GRID)
    assert abs(result.fitted_slope - PINS[name]["sweep_slope"]) <= 1e-9
    assert abs(result.fitted_slope - 2.0) <= harness.SLOPE_WINDOW
    assert result.passed


def test_ladder_route_matches_the_dense_reference(name):
    # <a (x) S-> is compared; the route scale 2 sigma / gt times 1 / (gt s) is
    # 1e4 here, and would scale the reference's rounding with it
    s = wm.resolve_scenario(path(name))
    [value] = wm.extract_joint_spin([(wm.post_select(wm.evolve_exact(s), s), s)])
    conditioned = np.tensordot(s.post.conj(), dense_evolved(s), axes=(0, 0)).reshape(-1)
    conditioned /= np.linalg.norm(conditioned)
    product = np.kron(*[p.lowering() for p in s.pointers])
    scale = math.prod(p.route_scale(gt) for p, gt in zip(s.pointers, s.couplings))
    assert scale == pytest.approx(1e4)
    assert abs(value / scale - np.vdot(conditioned, product @ conditioned)) <= 1e-12


def test_document_round_trips_exactly(name):
    text = path(name).read_text(encoding="utf-8")
    s = wm.load_scenario(text)
    assert wm.load_scenario(wm.dump_scenario(s)) == s
    assert wm.dump_scenario(s) + "\n" == text


def test_dim_override_changes_only_the_fock_pointer(name):
    s = wm.resolve_scenario(path(name))
    by_hand = replace(
        s,
        pointers=tuple(
            FockPointerSpec(sigma=p.sigma, dim=8) if isinstance(p, FockPointerSpec) else p
            for p in s.pointers
        ),
    )
    assert [p.dim for p in by_hand.pointers] != [p.dim for p in s.pointers]
    ref = str(path(name))
    code, stdout, stderr = call(["run", ref, "--dim", "8"])
    assert (code, stderr) == (0, "")
    want = wm.emit_report(replace(wm.run_scenario(by_hand), scenario=ref), "json")
    assert stdout == want + "\n"


def test_sampling_the_spin_pointer_is_refused(name):
    s = wm.resolve_scenario(path(name))
    argv = ["sample", str(path(name)), "--shots", "10", "--seed", "1"]
    code, stdout, stderr = call(argv + ["--pointer", str(spin_index(s))])
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {path(name)}: position sampling requires a Fock pointer\n"
    code, _, stderr = call(argv + ["--pointer", str(1 - spin_index(s))])
    assert (code, stderr) == (0, "")


def test_sweep_escalates_only_the_fock_pointers(tmp_path, monkeypatch):
    # a spin-19/2 pointer has 20 levels; the Fock pointer, leaking at d 4 and
    # lambda 0.2, must go to SWEEP_ESCALATED_DIM levels and not to 20
    s = wm.resolve_scenario(path("joint_pair_fock_spin"))
    wide_spin = replace(s, pointers=(s.pointers[0], SpinPointerSpec(s=9.5)))
    assert wide_spin.pointers[1].dim > harness.SWEEP_ESCALATED_DIM
    scenario_file = tmp_path / "wide_spin.json"
    scenario_file.write_text(wm.dump_scenario(wide_spin))
    evolved_dims = []
    evolve = harness.evolve_exact

    def recording(scenario):
        evolved_dims.append(tuple(p.dim for p in scenario.pointers))
        return evolve(scenario)

    monkeypatch.setattr(harness, "evolve_exact", recording)
    wm.sweep_lambda(scenario_file, (0.2, 0.1, 0.05, 0.025), dim=4)
    assert evolved_dims == [(4, 20)] + [(harness.SWEEP_ESCALATED_DIM, 20)] * 4
