"""Runs, sweeps, sampling, report emission, and the command-line front end."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import weakmeas as wm
from weakmeas import cli
from weakmeas.harness import report_json, report_rows, sweep_rows
from weakmeas.scenario import catalog_dir

NON_AMPLIFIED = [
    "aav_qubit",
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
]


#: Catalog scenarios whose sweep over 0.16..0.02 fits a slope of 2.
CATALOG_SWEEPS = [
    "aav_qubit",
    "aav_imaginary",
    "aav_qubit_spinptr",
    "joint_pair",
    "joint_pair_spinptr",
    "triple_ghz_mix",
]

DATA = Path(__file__).parent / "data"


def catalog_doc(name):
    return json.loads((catalog_dir() / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def aav_report():
    return wm.run_experiment("aav_qubit")


@pytest.fixture(scope="module")
def conditioned_aav():
    s = wm.resolve_scenario("aav_qubit")
    return wm.post_select(wm.evolve_exact(s), s), s


class TestRunExperiment:
    def test_aav_qubit_report(self, aav_report):
        r = aav_report
        assert r.analytic == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)
        assert r.lambda_max == pytest.approx(0.01)
        assert r.passed
        assert list(r.extracted) == list(r.abs_errors) == ["lowering", "correlators"]
        assert r.xp_shift is not None

    def test_amplified_report(self):
        r = wm.run_experiment("aav_amplified")
        assert r.analytic == pytest.approx(1.0 / np.tan(0.005), abs=1e-9)
        assert r.prob_success == pytest.approx(np.sin(0.005) ** 2, rel=0.01)
        assert r.passed

    def test_catalog_completeness(self):
        # every shipped scenario loads, validates, runs, and meets its
        # bundled expectation
        for name in wm.catalog_names():
            scenario = wm.resolve_scenario(name)
            assert wm.validate(scenario) == [], name
            report = wm.run_experiment(name)
            assert report.passed, name
            expected = complex(*scenario.expected["weak_value"])
            assert report.analytic == pytest.approx(expected, abs=1e-9), name
            if "strong_product" in scenario.expected:
                strong = wm.strong_position_estimate(scenario)
                want = complex(*scenario.expected["strong_product"])
                assert strong == pytest.approx(want, abs=1e-7), name

    def test_quadratic_tolerance_holds_without_amplification(self):
        # with the weak value O(1) the stated bound 3 lambda^2 (1 + |A_w|)
        # already covers the error; amplified scenarios need the cubic model
        for name in NON_AMPLIFIED:
            r = wm.run_experiment(name)
            bound = 3 * r.lambda_max**2 * (1 + abs(r.analytic)) + 1e-9
            assert all(e <= bound for e in r.abs_errors.values()), name

    def test_catalog_tolerance_is_the_coarse_model(self):
        # on every shipped scenario 2 |c2| stays below the cubic model
        for name in wm.catalog_names():
            r = wm.run_experiment(name)
            assert r.tolerance == wm.extraction_tolerance(r.lambda_max, r.analytic), name

    @pytest.mark.parametrize(
        "file, error, tolerance",
        [
            # the cubic model gave 3.2300e-4 and 3.8227e-4: both runs failed
            ("noncommuting_s11_p399_5.json", 3.3008e-4, 6.6080e-4),
            ("joint_s12_p17_29.json", 3.9567e-4, 7.9173e-4),
        ],
    )
    def test_second_order_term_sets_the_tolerance(self, file, error, tolerance):
        r = wm.run_experiment(DATA / file)
        assert r.abs_errors["lowering"] == pytest.approx(error, rel=1e-4)
        assert r.tolerance == pytest.approx(tolerance, rel=1e-4)
        assert r.tolerance > wm.extraction_tolerance(r.lambda_max, r.analytic)
        assert r.passed
        assert not wm.run_experiment(DATA / file, tolerance=3e-4).passed

    def test_dim_override(self):
        r = wm.run_experiment("aav_qubit", dim=8)
        assert r.passed

    @pytest.mark.parametrize(
        "tolerance, passed", [(1e-30, False), (np.float32(1e-3), True)], ids=["1e-30", "float32"]
    )
    def test_tolerance_override_can_fail_a_run(self, tolerance, passed):
        # a numpy scalar is stored as the float it equals, which JSON writes as a number
        r = wm.run_experiment("aav_qubit", tolerance=tolerance)
        assert r.passed is passed
        assert type(r.tolerance) is float and r.tolerance == tolerance
        assert json.loads(wm.emit_report(r, fmt="json"))["tolerance"] == r.tolerance

    @pytest.mark.parametrize(
        "tolerance, error, message",
        [
            (float("nan"), ValueError, "aav_qubit: tolerance: expected a finite number, got nan"),
            (float("inf"), ValueError, "aav_qubit: tolerance: expected a finite number, got inf"),
            (-1e-3, ValueError, "aav_qubit: tolerance must be finite and non-negative, got -0.001"),
            (True, TypeError, "tolerance: expected a number, got True"),
            ("0.1", TypeError, "tolerance: expected a number, got '0.1'"),
        ],
        ids=["nan", "inf", "-0.001", "bool", "string"],
    )
    def test_bad_tolerance_rejected(self, tolerance, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            wm.run_experiment("aav_qubit", tolerance=tolerance)

    def test_spin_scenario_reports_spin_route(self):
        r = wm.run_experiment("aav_qubit_spinptr")
        assert list(r.extracted) == list(r.abs_errors) == ["spin"]
        assert r.xp_shift is None

    def test_route_identity_enforced(self, monkeypatch, capsys):
        recombine = wm.harness.correlator_decomposition

        def shifted(points):
            return [(table, value + 1e-9) for table, value in recombine(points)]

        monkeypatch.setattr(wm.harness, "correlator_decomposition", shifted)
        with pytest.raises(wm.WeakMeasurementError, match="route identity"):
            wm.run_experiment("aav_qubit")
        assert cli.main(["run", "aav_qubit"]) == 2
        assert "route identity" in capsys.readouterr().err

    def test_errors_carry_scenario_context(self, tmp_path):
        s = wm.resolve_scenario("aav_qubit")
        broken = wm.Scenario(
            system_dims=s.system_dims,
            observables=s.observables,
            pointers=s.pointers,
            couplings=s.couplings,
            pre=s.pre,
            post=np.array([s.pre[1], -s.pre[0]]),
        )
        path = tmp_path / "orthogonal.json"
        path.write_text(wm.dump_scenario(broken))
        with pytest.raises(wm.DivergentWeakValueError, match="orthogonal.json"):
            wm.run_experiment(path)

    def test_schema_errors_carry_scenario_context(self, tmp_path):
        doc = catalog_doc("aav_qubit")
        doc["couplings"][0]["gt"] = "strong"
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(wm.SchemaError, match=r"h\.json: couplings\[0\]\.gt: "):
            wm.run_experiment(path)


class TestBuiltOncePerScenario:
    @pytest.mark.parametrize("name", ["joint_pair", "pair_anticommuting", "aav_qubit_spinptr"])
    def test_run_builds_the_system_frame_once(self, monkeypatch, name):
        frames = []
        build = wm.evolution._system_frame

        def counted(observables):
            frames.append(observables)
            return build(observables)

        monkeypatch.setattr(wm.evolution, "_system_frame", counted)
        report = wm.run_scenario(wm.resolve_scenario(name))
        assert len(frames) == 1
        assert report.passed


class TestSweep:
    def test_slope_near_two(self):
        result = wm.sweep_lambda("aav_qubit", [0.16, 0.08, 0.04, 0.02])
        assert result.fitted_slope == pytest.approx(2.0, abs=0.3)
        assert result.passed
        assert result.lambda_grid == (0.16, 0.08, 0.04, 0.02)
        assert all(e > 0 for e in result.errors)

    def test_imaginary_weak_value_same_order(self):
        result = wm.sweep_lambda("aav_imaginary", [0.16, 0.08, 0.04, 0.02])
        assert result.fitted_slope == pytest.approx(2.0, abs=0.3)

    def test_grid_is_sorted_decreasing(self):
        result = wm.sweep_lambda("aav_qubit_spinptr", [0.02, 0.16, 0.04, 0.08])
        assert result.lambda_grid == (0.16, 0.08, 0.04, 0.02)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            wm.sweep_lambda("aav_qubit", [0.1])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 0.2\]"):
            wm.sweep_lambda("aav_qubit", [0.3, 0.1, 0.05, 0.02])

    @pytest.mark.parametrize(
        "grid, error, message",
        [
            ([float("nan"), 0.1, 0.05, 0.02], ValueError, "grid[0]: expected a finite number, got nan"),
            ([0.16, 0.08, 0.04, "0.02"], TypeError, "grid[3]: expected a number, got '0.02'"),
            ([0.16, True, 0.04, 0.02], TypeError, "grid[1]: expected a number, got True"),
        ],
        ids=["nan", "string", "bool"],
    )
    def test_non_finite_grid_rejected(self, grid, error, message):
        # each entry is a finite number, checked in the caller's order
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            wm.sweep_lambda("aav_qubit", grid)

    def test_duplicate_grid_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            wm.sweep_lambda("aav_qubit", [0.1, 0.1, 0.05, 0.02])

    def test_leakage_escalation_recovers(self):
        # d=4 leaks at lambda 0.2; the sweep must escalate to d=16 and finish
        result = wm.sweep_lambda("aav_qubit", [0.2, 0.1, 0.05, 0.025], dim=4)
        assert result.fitted_slope == pytest.approx(2.0, abs=0.3)

    def test_leakage_after_escalation_names_lambda(self, tmp_path):
        # eigenvalues +-20 displace the pointer to a coherent amplitude of 4 at
        # lambda 0.2 (mean level 16), so even the escalated d=16 leaks
        s = wm.resolve_scenario("aav_qubit")
        obs = s.observables[0]
        wide = wm.ObservableSpec(obs.name, 20.0 * obs.matrix, obs.target)
        path = tmp_path / "wide.json"
        path.write_text(wm.dump_scenario(replace(s, observables=(wide,))))
        with pytest.raises(wm.TruncationLeakageError, match="at lambda = 0.2;") as excinfo:
            wm.sweep_lambda(path, [0.2, 0.1, 0.05, 0.025])
        assert (excinfo.value.lam, excinfo.value.dim) == (0.2, wm.harness.SWEEP_ESCALATED_DIM)


    SWEPT = [
        ("aav_qubit", None, (0.16, 0.08, 0.04, 0.02)),
        ("aav_imaginary", None, (0.16, 0.08, 0.04, 0.02)),
        ("aav_qubit_spinptr", None, (0.16, 0.08, 0.04, 0.02)),
        ("joint_pair", None, (0.16, 0.08, 0.04, 0.02)),
        ("joint_pair_spinptr", None, (0.16, 0.08, 0.04, 0.02)),
        ("triple_ghz_mix", None, (0.16, 0.08, 0.04, 0.02)),
        ("aav_qubit", 4, (0.2, 0.1, 0.05, 0.025)),  # escalates to d=16
        *(
            pytest.param(str(DATA / f"{name}.json"), None, (0.16, 0.08, 0.04, 0.02), id=name)
            for name in ("joint_pair_fock_spin", "joint_pair_spin_fock")
        ),
    ]

    # the exact lambda^2 term of the five scenarios outside CATALOG_SWEEPS and
    # aav_amplified is 0, so their errors are rounding noise and fit no slope of 2
    @pytest.mark.parametrize("name", sorted(wm.scenario.catalog_names()))
    def test_every_catalog_sweep_passes_but_the_amplified_one(self, capsys, name):
        code = cli.main(["sweep", name, "--grid", "0.16,0.08,0.04,0.02"])
        doc = json.loads(capsys.readouterr().out)
        assert code == (1 if name == "aav_amplified" else 0)
        assert doc["passed"] is (code == 0)
        assert doc["at_rounding_floor"] is (name not in CATALOG_SWEEPS + ["aav_amplified"])

    def test_rounding_floor_passes_whatever_the_slope(self):
        result = wm.sweep_lambda("pair_anticommuting", [0.16, 0.08, 0.04, 0.02])
        assert result.at_rounding_floor and result.passed
        assert abs(result.fitted_slope - 2.0) > wm.harness.SLOPE_WINDOW
        assert not replace(result, at_rounding_floor=False).passed
        # A_w = 0 and both pointers' 2 sigma / gt is 1 / lambda, so the floor is
        # smallest at the largest lambda
        eps = np.finfo(float).eps
        floor = wm.harness.ROUNDING_FLOOR_MULTIPLE * eps / 0.16**2
        assert max(result.errors) < floor

    # one point above the floor fits no slope; from two on the slope decides
    @pytest.mark.parametrize("lifted_points, at_floor", [((0,), True), ((0, 1), False)])
    def test_points_above_the_floor(self, monkeypatch, lifted_points, at_floor):
        reports = wm.harness._reports

        def lifted(scenarios):
            out = reports(scenarios)
            for i in lifted_points:
                report = out[i]
                lowering = report.extracted["lowering"] + 1e-6
                routes = {"lowering": lowering, "correlators": lowering}
                out[i] = replace(report, extracted=routes)
            return out

        monkeypatch.setattr(wm.harness, "_reports", lifted)
        result = wm.sweep_lambda("pair_anticommuting", [0.16, 0.08, 0.04, 0.02])
        assert result.at_rounding_floor is at_floor
        assert result.passed is at_floor

    def test_a_run_at_the_rounding_floor_passes_as_its_sweep_does(self):
        # at gt = 1e-9 (lambda = 5e-10) the ladder route's rounding, about
        # eps |route scale| = eps 2 sigma / gt, passes the 1e-9 model floor;
        # the run's default tolerance includes the sweep's rounding floor
        doc = json.loads((catalog_dir() / "aav_qubit.json").read_text(encoding="utf-8"))
        doc["couplings"][0]["gt"] = 1e-9
        s = wm.load_scenario(json.dumps(doc))
        report = wm.run_scenario(s)
        assert report.lambda_max == 5e-10
        error = report.abs_errors["lowering"]
        assert error > wm.extraction_tolerance(report.lambda_max, report.analytic)
        floor = wm.harness.ROUNDING_FLOOR_MULTIPLE * np.finfo(float).eps * 2e9
        assert report.tolerance == pytest.approx(floor * (1.0 + abs(report.analytic)))
        assert report.passed
        sweep = wm.sweep_lambda("aav_qubit", [5e-10, 2.5e-10, 1.25e-10, 6.25e-11])
        assert sweep.errors[0] == error
        assert sweep.at_rounding_floor and sweep.passed
        # an explicit tolerance still replaces the whole threshold
        assert not wm.run_scenario(s, tolerance=1e-9).passed

    def test_a_weak_limit_run_tolerance_stays_near_its_rounding(self):
        # the gt = 1e-9 error is 8.84e-8, 0.14 of eps |route scale| (1 + |A_w|)
        doc = json.loads((catalog_dir() / "aav_qubit.json").read_text(encoding="utf-8"))
        doc["couplings"][0]["gt"] = 1e-9
        report = wm.run_scenario(wm.load_scenario(json.dumps(doc)))
        assert report.passed
        assert report.tolerance < 1e-5

    @pytest.mark.parametrize(
        "name, grid",
        [
            ("aav_qubit", (1e-4, 5e-5, 2.5e-5, 1.25e-5)),
            ("aav_imaginary", (1e-4, 5e-5, 2.5e-5, 1.25e-5)),
            ("aav_qubit_spinptr", (1e-4, 5e-5, 2.5e-5, 1.25e-5)),
            ("joint_pair", (1e-3, 5e-4, 2.5e-4, 1.25e-4)),
        ],
    )
    def test_a_quadratic_sweep_near_the_weak_limit_passes_on_its_slope(self, name, grid):
        result = wm.sweep_lambda(name, grid)
        assert not result.at_rounding_floor
        assert abs(result.fitted_slope - 2.0) < 0.01
        assert result.passed

    @pytest.mark.parametrize("name,dim,grid", SWEPT)
    def test_errors_equal_single_runs(self, name, dim, grid):
        result = wm.sweep_lambda(name, grid, dim=dim)
        s = wm.resolve_scenario(name)
        if dim is not None:
            s = s.with_fock_dim(wm.harness.SWEEP_ESCALATED_DIM)
        for lam, error in zip(result.lambda_grid, result.errors):
            report = wm.run_scenario(s.with_lambda(lam))
            route = "spin" if "spin" in report.extracted else "lowering"
            assert error == report.abs_errors[route]

    # The correlator route's 2^N dense products; the ladder route builds none.
    @pytest.mark.parametrize(
        "name,products", [("aav_qubit", 2), ("joint_pair", 4), ("joint_pair_spinptr", 0)]
    )
    @pytest.mark.parametrize(
        "grid", [(0.16, 0.08, 0.04, 0.02), (0.16, 0.12, 0.08, 0.04, 0.02, 0.01)]
    )
    def test_each_product_is_built_once_per_sweep(self, monkeypatch, name, products, grid):
        calls = []
        kron = wm.weak_values.kron

        def counted(factors):
            calls.append(len(factors))
            return kron(factors)

        monkeypatch.setattr(wm.weak_values, "kron", counted)
        wm.sweep_lambda(name, grid)
        assert len(calls) == products

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "triple_ghz_mix", "--grid", "0.16,0.08,0.04,0.02"],
            # escalates every Fock pointer to SWEEP_ESCALATED_DIM after the first point
            ["sweep", "aav_qubit", "--dim", "4", "--grid", "0.16,0.08,0.04,0.02"],
        ],
    )
    def test_the_system_frame_is_built_once_per_sweep(self, monkeypatch, capsys, argv):
        builds = []
        frame = wm.evolution._system_frame

        def counted(observables):
            builds.append(len(observables))
            return frame(observables)

        monkeypatch.setattr(wm.evolution, "_system_frame", counted)
        assert cli.main(argv) == 0
        assert len(builds) == 1

    def test_copies_share_what_the_scenario_keeps(self):
        s = wm.resolve_scenario("joint_pair")
        frame = wm.evolution.scenario_frame(s.with_lambda(0.05))
        assert wm.evolution.scenario_frame(s) is frame
        assert wm.evolution.scenario_frame(s.with_fock_dim(8).with_lambda(0.1)) is frame
        assert s.with_lambda(0.1).embedded_observables() is s.embedded_observables()
        # any other copy may change the observables, so it starts empty
        assert wm.evolution.scenario_frame(replace(s, name="other")) is not frame

    @pytest.mark.parametrize("shifted_point", range(4))
    def test_route_identity_enforced_at_every_point(self, monkeypatch, capsys, shifted_point):
        route = wm.harness.correlator_decomposition

        def shifted(points):
            values = route(points)
            table, value = values[shifted_point]
            values[shifted_point] = (table, value + 1e-9)
            return values

        monkeypatch.setattr(wm.harness, "correlator_decomposition", shifted)
        assert cli.main(["sweep", "aav_qubit", "--grid", "0.16,0.08,0.04,0.02"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "route identity" in captured.err

    def test_routes_need_shared_pointers(self):
        s = wm.resolve_scenario("aav_qubit")
        wider = s.with_fock_dim(8)
        points = [(wm.post_select(wm.evolve_exact(x), x), x) for x in (s, wider)]
        with pytest.raises(ValueError, match="share its pointers"):
            wm.weak_values.extract_joint_fock(points)
        with pytest.raises(ValueError, match="at least one"):
            wm.weak_values.correlator_decomposition([])


class TestSampling:
    def test_symmetric_density_mean_near_zero(self):
        s = wm.resolve_scenario("aav_qubit").with_lambda(1e-6)
        result = wm.post_select(wm.evolve_exact(s), s)
        positions = wm.sample_positions(result, s, 0, 20000, seed=7)
        sigma = s.pointers[0].sigma
        assert abs(np.mean(positions)) <= 4 * sigma / np.sqrt(20000)

    def test_mean_converges_to_conditioned_position(self, conditioned_aav):
        result, s = conditioned_aav
        exact_x, _ = wm.pointer_shift_check(result, s)
        positions = wm.sample_positions(result, s, 0, 10**5, seed=11)
        assert positions.shape == (10**5,)
        assert not positions.flags.writeable
        stderr = np.std(positions) / np.sqrt(positions.size)
        assert abs(np.mean(positions) - exact_x) <= 5 * stderr

    def test_fixed_seed_reproduces_bitwise(self, conditioned_aav):
        result, s = conditioned_aav
        a = wm.sample_positions(result, s, 0, 5000, seed=42)
        b = wm.sample_positions(result, s, 0, 5000, seed=42)
        assert np.array_equal(a, b)
        c = wm.sample_positions(result, s, 0, 5000, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("gap", [False, True], ids=["zero-tails", "zero-tails-and-gap"])
    def test_positions_are_interp_of_the_unsorted_draws(self, conditioned_aav, monkeypatch, gap):
        # exact-zero density cells repeat CDF values; ordering the draws by their
        # top 16 bits must leave every position with the bits np.interp gives it
        result, s = conditioned_aav
        grid = np.linspace(-4.0, 4.0, 4096)
        density = np.where(np.abs(grid) < 1.5, np.exp(-(grid**2)), 0.0)
        if gap:
            density[np.abs(grid) < 0.25] = 0.0
        monkeypatch.setattr(wm.harness, "position_density", lambda *args: (grid, density))
        shots = 3 * wm.harness.SAMPLE_CHUNK + 5
        positions = wm.sample_positions(result, s, 0, shots, seed=4)
        steps = 0.5 * (density[1:] + density[:-1]) * np.diff(grid)
        cdf = np.concatenate([[0.0], np.cumsum(steps)])
        cdf /= cdf[-1]
        assert np.count_nonzero(np.diff(cdf) == 0.0) > 1000
        draws = np.random.Generator(np.random.Philox(4)).random(shots)
        expected = np.interp(draws, cdf, grid)
        assert positions.tobytes() == expected.tobytes()

    def test_one_draw_checks_the_pointer_once(self, conditioned_aav, monkeypatch):
        result, s = conditioned_aav
        calls = []
        sampled_pointer = wm.harness._sampled_pointer

        def counted(*args):
            calls.append(args)
            return sampled_pointer(*args)

        monkeypatch.setattr(wm.harness, "_sampled_pointer", counted)
        wm.sample_positions(result, s, 0, 10, seed=1)
        assert len(calls) == 1

    def test_sample_experiment_draws_what_the_library_draws(self):
        positions, summary = wm.sample_experiment("joint_pair", np.int64(1), 3000, 7, dim=10)
        s = wm.resolve_scenario("joint_pair").with_fock_dim(10)
        result = wm.post_select(wm.evolve_exact(s), s)
        assert positions.tobytes() == wm.sample_positions(result, s, 1, 3000, 7).tobytes()
        assert not positions.flags.writeable
        assert list(summary) == [
            "scenario", "pointer_index", "n_shots", "seed", "mean", "std", "stderr",
        ]
        assert summary["mean"] == float(np.mean(positions))
        assert summary["std"] == pytest.approx(np.std(positions), rel=1e-12)
        assert json.loads(json.dumps(summary)) == {**summary, "pointer_index": 1}

    def test_density_normalized_on_default_grid(self, conditioned_aav):
        result, s = conditioned_aav
        grid, density = wm.position_density(result, s, 0)
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("index", [1, -1])
    def test_pointer_index_out_of_range(self, conditioned_aav, index):
        result, s = conditioned_aav
        with pytest.raises(wm.UnsupportedScenarioError, match="out of range"):
            wm.position_density(result, s, index)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pointer_index", 0.0),
            ("pointer_index", True),
            ("n_shots", 2.7),
            ("n_shots", True),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_non_integer_request_refused(self, conditioned_aav, monkeypatch, field, value):
        # refused before the density's grid is built, let alone a position drawn
        result, s = conditioned_aav
        monkeypatch.setattr(wm.harness, "sampling_grid", lambda *args: pytest.fail("drew"))
        request = {"pointer_index": 0, "n_shots": 5, "seed": 1, field: value}
        message = f"{field}: expected an integer, got {value!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            wm.sample_positions(result, s, **request)

    def test_density_shifted_one_grid_step_rejected(self, conditioned_aav, monkeypatch):
        result, s = conditioned_aav
        grid = wm.harness.sampling_grid(s.pointers[0])
        step = grid[1] - grid[0]
        wavefunctions = wm.harness.position_wavefunctions
        monkeypatch.setattr(
            wm.harness, "position_wavefunctions", lambda spec, x: wavefunctions(spec, x - step)
        )
        with pytest.raises(wm.GridError, match="first moment"):
            wm.position_density(result, s, 0)

    @pytest.mark.parametrize(
        "state_of", [("aav_qubit", 16), ("joint_pair", None)], ids=["d16-state", "pair-state"]
    )
    def test_state_of_another_layout_refused(self, conditioned_aav, state_of):
        # a (16,) state against d = 12 would not broadcast, and joint_pair's
        # (12, 12) state would give a density of the wrong layout
        _, s = conditioned_aav
        name, dim = state_of
        other = wm.resolve_scenario(name)
        other = other if dim is None else other.with_fock_dim(dim)
        result = wm.post_select(wm.evolve_exact(other), other)
        message = (
            f"state shape {result.conditioned.shape} does not match the layout {s.pointer_dims}"
        )
        with pytest.raises(wm.LayoutError, match=f"^{re.escape(message)}$"):
            wm.position_density(result, s, 0)
        with pytest.raises(wm.LayoutError, match=f"^{re.escape(message)}$"):
            wm.sample_positions(result, s, 0, 10, seed=1)

    def test_the_shot_cap_keeps_the_positions_under_the_array_cap(self):
        # MAX_SHOTS is the one cap on the float64 positions
        assert wm.harness.MAX_SHOTS * 8 <= wm.tensor.MAX_ARRAY_BYTES

    def test_undersized_grid_rejected(self, conditioned_aav, monkeypatch):
        result, s = conditioned_aav
        tiny = np.linspace(-0.5, 0.5, 64)
        monkeypatch.setattr(wm.harness, "sampling_grid", lambda spec: tiny)
        with pytest.raises(wm.GridError):
            wm.position_density(result, s, 0)


class TestEmitReport:
    def test_csv_single_run(self, aav_report):
        text = wm.emit_report(aav_report, fmt="csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("scenario,method,lambda,")
        assert len(lines) == 3  # header + lowering + correlators
        assert lines[1].split(",")[1] == "lowering"
        assert lines[1].split(",")[-1] == "true"

    def test_csv_12_significant_digits(self, aav_report):
        row = report_rows(aav_report)[0]
        assert row["re_extracted"] == f"{aav_report.extracted['lowering'].real:.12g}"

    def test_sweep_rows_include_slope_summary(self):
        result = wm.sweep_lambda("aav_qubit_spinptr", [0.16, 0.08, 0.04, 0.02])
        rows = sweep_rows(result)
        assert len(rows) == 5
        assert rows[-1]["method"] == "slope"
        assert float(rows[-1]["re_extracted"]) == pytest.approx(result.fitted_slope)

    def test_json_round_trips_exactly(self, aav_report):
        text = wm.emit_report(aav_report, fmt="json")
        doc = json.loads(text)
        assert doc["analytic"] == [aav_report.analytic.real, aav_report.analytic.imag]
        assert doc["extracted_lowering"][0] == aav_report.extracted["lowering"].real
        assert doc["prob_success"] == aav_report.prob_success
        assert doc["passed"] is True

    def test_json_mirrors_every_report_field(self, aav_report):
        # the key order and the null routes are what JSON consumers parse
        for report, routes in (
            (aav_report, ["lowering", "correlators"]),
            (wm.run_experiment("aav_qubit_spinptr"), ["spin"]),
        ):
            doc = json.loads(wm.emit_report(report, fmt="json"))
            assert doc == report_json(report)
            assert list(doc) == [
                "scenario", "analytic", "extracted_lowering", "extracted_correlators",
                "extracted_spin", "xp_shift", "prob_success", "lambda_max",
                "tolerance", "abs_errors", "passed",
            ]
            assert list(report.extracted) == list(doc["abs_errors"]) == routes
            for route in ("lowering", "correlators", "spin"):
                value = report.extracted.get(route)
                want = None if value is None else [value.real, value.imag]
                assert doc[f"extracted_{route}"] == want, route

    def test_sweep_json_key_order(self):
        for name in ("aav_qubit", "aav_qubit_spinptr"):
            result = wm.sweep_lambda(name, [0.16, 0.08, 0.04, 0.02])
            doc = json.loads(wm.emit_report(result, fmt="json"))
            assert list(doc) == [
                "scenario", "lambda_grid", "errors", "fitted_slope", "fitted_intercept",
                "at_rounding_floor", "passed",
            ]
            assert doc["lambda_grid"] == list(result.lambda_grid)
            assert doc["errors"] == list(result.errors)
            assert doc["passed"] is result.passed

    def test_determinism_bitwise(self):
        first = wm.emit_report(wm.run_experiment("aav_qubit"), fmt="json")
        second = wm.emit_report(wm.run_experiment("aav_qubit"), fmt="json")
        assert first == second

    def test_unknown_format_rejected(self, aav_report):
        with pytest.raises(ValueError, match="format"):
            wm.emit_report(aav_report, fmt="yaml")


class TestCli:
    def test_run_passes(self, capsys):
        assert cli.main(["run", "aav_qubit"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_run_csv_to_file(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main(["run", "aav_qubit", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("scenario,")

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "DIR"],
            ["run", "aav_qubit", "--out", "DIR"],
            ["sweep", "aav_qubit", "--grid", "0.16,0.08,0.04,0.02", "--out", "DIR"],
            ["sample", "aav_qubit", "--shots", "10", "--seed", "1", "--out", "DIR"],
        ],
        ids=["run", "run-out", "sweep-out", "sample-out"],
    )
    def test_directory_path_errors(self, capsys, tmp_path, argv):
        argv = [str(tmp_path) if arg == "DIR" else arg for arg in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert str(tmp_path) in err

    def test_run_nonzero_exit_on_failure(self, capsys):
        assert cli.main(["run", "aav_qubit", "--tolerance", "1e-30"]) == 1

    def test_run_unknown_scenario_errors(self, capsys):
        assert cli.main(["run", "no_such_thing"]) == 2
        assert "no scenario named" in capsys.readouterr().err

    def test_sweep(self, capsys):
        code = cli.main(["sweep", "aav_qubit_spinptr", "--grid", "0.16,0.08,0.04,0.02"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fitted_slope"] == pytest.approx(2.0, abs=0.3)

    def test_sample_deterministic(self, capsys, tmp_path):
        out = tmp_path / "positions.csv"
        args = ["sample", "aav_qubit", "--pointer", "0", "--shots", "2000",
                "--seed", "5", "--out", str(out)]
        assert cli.main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert out.read_text().startswith("position\n")

    @pytest.mark.parametrize(
        "shots",
        [1, 4095, 4096, 4097, *(wm.harness.SAMPLE_CHUNK + d for d in (-1, 0, 1)), 10_001],
    )
    def test_sample_out_bytes_match_per_shot_format(self, capsys, tmp_path, shots):
        out = tmp_path / "positions.csv"
        args = ["sample", "joint_pair", "--shots", str(shots), "--seed", "9", "--out", str(out)]
        assert cli.main(args) == 0
        s = wm.resolve_scenario("joint_pair")
        positions = wm.sample_positions(wm.post_select(wm.evolve_exact(s), s), s, 0, shots, 9)
        expected = "position\n" + "".join(f"{x:.12g}\n" for x in positions)
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("pointer", ["5", "-1"])
    def test_sample_pointer_out_of_range_errors(self, capsys, pointer):
        args = ["sample", "aav_qubit", "--pointer", pointer, "--shots", "10", "--seed", "1"]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: aav_qubit: pointer index {pointer} is out of range for a scenario with "
            "1 pointer(s)\n"
        )

    def test_sample_shot_cap_errors(self, capsys):
        shots = wm.harness.MAX_SHOTS + 1
        args = ["sample", "aav_qubit", "--shots", str(shots), "--seed", "1"]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: aav_qubit: {shots} shots exceed the cap {wm.harness.MAX_SHOTS}\n"
        )

    @pytest.mark.parametrize(
        "sample_args, err",
        [
            ("aav_qubit --shots 0", "n_shots must be positive"),
            ("aav_qubit --shots 16777217", "16777217 shots exceed the cap 16777216"),
            ("aav_qubit --shots 10 --pointer 5",
             "pointer index 5 is out of range for a scenario with 1 pointer(s)"),
            ("aav_qubit --shots 10 --pointer -1",
             "pointer index -1 is out of range for a scenario with 1 pointer(s)"),
            ("aav_qubit_spinptr --shots 10 --pointer 0",
             "position sampling requires a Fock pointer"),
            ("aav_qubit --shots 10 --seed -1", "seed must be non-negative, got -1"),
        ],
    )
    def test_sample_refuses_before_evolving(self, monkeypatch, capsys, sample_args, err):
        evolutions = []
        evolve = wm.harness.evolve_exact

        def counted(scenario):
            evolutions.append(scenario)
            return evolve(scenario)

        monkeypatch.setattr(wm.harness, "evolve_exact", counted)
        args = ["sample", *sample_args.split()]
        if "--seed" not in args:
            args += ["--seed", "1"]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {args[1]}: {err}\n"
        assert evolutions == []

    def test_run_tolerance_overflow_errors(self, capsys, tmp_path):
        doc = catalog_doc("aav_qubit_spinptr")
        doc["observables"][0]["matrix"][0][0] = [1e120, 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: |A_w| = ")
        assert captured.err.endswith(" overflows the tolerance model 3 lambda^2 (1 + |A_w|)^3\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_oracle_overflow_is_a_capacity_error(self, capsys, tmp_path, command):
        # 1e160-scale observables overflow the oracle's word sums: one typed
        # error line, exit 2, and no numpy warning (which pytest makes an error)
        doc = catalog_doc("joint_pair")
        for obs in doc["observables"]:
            obs["matrix"] = [[[1e160 * x for x in z] for z in row] for row in obs["matrix"]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, str(path)]
        if command == "sweep":
            argv += ["--grid", "0.16,0.08,0.04,0.02"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "",
            f"error: {path}: the symmetrized weak value W(1, 1) is (nan+nanj), "
            "past the float range\n",
        )

    def test_run_non_finite_tolerance_errors(self, capsys):
        assert cli.main(["run", "aav_qubit", "--tolerance", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: aav_qubit: tolerance: expected a finite number, got nan\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_dim_refusal_names_the_scenario(self, capsys, command):
        argv = [command, "aav_qubit", "--dim", "1"]
        if command == "sweep":
            argv += ["--grid", "0.16,0.08,0.04,0.02"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: aav_qubit: Fock truncation needs dim >= 2, got 1\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_undecodable_file_is_a_schema_error(self, capsys, tmp_path, command):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff" + json.dumps(catalog_doc("aav_qubit")).encode())
        with pytest.raises(wm.SchemaError, match="^not UTF-8 text: 'utf-8' codec"):
            wm.resolve_scenario(path)
        argv = [command, str(path)]
        if command == "sweep":
            argv += ["--grid", "0.16,0.08,0.04,0.02"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        )

    def test_non_string_name_is_a_schema_error(self, capsys, tmp_path):
        # a list would otherwise reach the CSV scenario column as "[1, 2]"
        doc = catalog_doc("aav_qubit")
        doc["name"] = [1, 2]
        path = tmp_path / "listname.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", str(path), "--format", "csv"]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: name: expected a string, got [1, 2]\n")

    def test_sweep_non_finite_grid_errors(self, capsys):
        assert cli.main(["sweep", "aav_qubit", "--grid", "nan,0.1,0.05,0.02"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid[0]: expected a finite number, got nan\n"

    def test_run_leakage_names_the_leaking_pointers_lambda(self, capsys, tmp_path):
        doc = catalog_doc("joint_pair")
        doc["couplings"][1]["gt"] = 0.4
        doc["pointers"][1]["dim"] = 4
        path = tmp_path / "leaky.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(wm.TruncationLeakageError) as excinfo:
            wm.run_experiment(path)
        assert (excinfo.value.pointer_index, excinfo.value.dim) == (1, 4)
        assert excinfo.value.lam == pytest.approx(0.2)
        assert cli.main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: pointer 1: population ")
        assert "guard at d=4 at lambda = 0.2; raise" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "TINY"],
            ["run", "TINY", "--format", "csv"],
            ["sweep", "aav_qubit", "--grid", "1e-320,1e-321,1e-322,1e-323"],
            ["sweep", "joint_pair", "--grid", "1e-170,1e-171,1e-172,1e-173"],
        ],
        ids=["run-json", "run-csv", "sweep-denormal", "sweep-product-overflow"],
    )
    def test_overflowing_route_scale_errors(self, capsys, tmp_path, argv):
        # 2 sigma / gt overflows at gt = 1e-320; at gt = 2e-170 each factor is
        # finite but their product is not
        doc = catalog_doc("aav_qubit")
        doc["couplings"][0]["gt"] = 1e-320
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps(doc))
        argv = [str(tiny) if arg == "TINY" else arg for arg in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {argv[1]}: the route scale overflows to inf ")
        assert captured.err.count("\n") == 1

    def test_sweep_errors_carry_scenario_context(self, capsys, tmp_path):
        doc = catalog_doc("aav_qubit")
        doc["pre"][0][0] = 0.9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["sweep", str(path), "--grid", "0.16,0.08,0.04,0.02"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: pre: state not normalized ")

    def test_sweep_grid_names_the_bad_entry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "aav_qubit", "--grid", "0.16,0.08,0.04,abc"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: argument --grid: entry 4 ('abc') is not a number\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["run", name, "--format", "json"] for name in wm.catalog_names()]
        + [["sweep", name, "--grid", "0.16,0.08,0.04,0.02"] for name in CATALOG_SWEEPS],
        ids=lambda argv: f"{argv[0]}-{argv[1]}",
    )
    def test_catalog_json_is_standard(self, capsys, argv):
        # json.dumps writes NaN and Infinity, which standard JSON does not have
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        assert cli.main(argv) == 0
        json.loads(capsys.readouterr().out, parse_constant=refuse)

    def test_catalog_list(self, capsys):
        assert cli.main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "aav_qubit" in out
        assert "joint_pair_entangled" in out

    def test_catalog_list_refuses_an_oversized_pointer(self, capsys, tmp_path, monkeypatch):
        doc = catalog_doc("aav_qubit")
        doc["pointers"][0]["dim"] = 4097
        (tmp_path / "huge.json").write_text(json.dumps(doc))
        monkeypatch.setenv("WEAKMEAS_CATALOG", str(tmp_path))
        assert cli.main(["catalog", "list"]) == 2
        assert capsys.readouterr().err == (
            "error: huge: pointer dim 4097: a dim x dim operator exceeds the array cap "
            "268435456 bytes\n"
        )

    def test_run_refuses_nesting_past_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert cli.main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not valid JSON: maximum recursion depth")
        assert captured.err.count("\n") == 1

    def test_catalog_list_refuses_nesting_past_the_recursion_limit(
        self, capsys, tmp_path, monkeypatch
    ):
        (tmp_path / "deep.json").write_text("[" * 200_000)
        monkeypatch.setenv("WEAKMEAS_CATALOG", str(tmp_path))
        assert cli.main(["catalog", "list"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: deep: not valid JSON: maximum recursion depth")
        assert captured.err.count("\n") == 1

    def test_catalog_list_missing_directory_errors(self, capsys, tmp_path, monkeypatch):
        missing = tmp_path / "absent"
        monkeypatch.setenv("WEAKMEAS_CATALOG", str(missing))
        assert cli.main(["catalog", "list"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: WEAKMEAS_CATALOG={missing}: no such catalog directory\n"
        )

    def test_run_over_the_array_cap_errors(self, monkeypatch, capsys):
        # joint_pair evolves within 2^16 bytes; the correlator route's 144-row
        # kron product would take 144^2 * 16 = 331776
        monkeypatch.setattr(wm.tensor, "MAX_ARRAY_BYTES", 2**16)
        assert cli.main(["run", "joint_pair"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: joint_pair: 331776 bytes exceed the array cap 65536\n"

    def test_run_with_a_pointer_beyond_any_array_errors(self, tmp_path, capsys):
        # refused before anything of the pointer's size is allocated
        doc = json.loads(wm.dump_scenario(wm.resolve_scenario("aav_qubit")))
        doc["pointers"][0]["dim"] = 10**400
        path = tmp_path / "huge_dim.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: pointer dim {10**400}: a dim x dim operator exceeds the "
            "array cap 268435456 bytes\n"
        )

    def test_dim_override_over_the_array_cap_errors(self, capsys):
        assert cli.main(["run", "aav_qubit", "--dim", "4097"]) == 2
        assert capsys.readouterr().err == (
            "error: aav_qubit: pointer dim 4097: a dim x dim operator exceeds the "
            "array cap 268435456 bytes\n"
        )

    def test_dim_override_flows_through(self, capsys):
        assert cli.main(["run", "aav_qubit", "--dim", "8"]) == 0


def aav_at_width(tmp_path, sigma):
    """``aav_qubit`` with its pointer width set to ``sigma`` and gt scaled with it."""
    doc = catalog_doc("aav_qubit")
    doc["pointers"][0]["sigma"] = sigma
    doc["couplings"][0]["gt"] *= sigma
    path = tmp_path / f"aav_sigma_{sigma:.3g}.json"
    path.write_text(json.dumps(doc))
    return path


class TestSampleSummary:
    KEYS = ("mean", "std", "stderr")

    def summary(self, capsys, path):
        assert cli.main(["sample", str(path), "--shots", "2000", "--seed", "1"]) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_summary_scales_with_the_pointer_width(self, capsys, tmp_path, k):
        # unscaled squared deviations underflow to 0 at 2^-600 and overflow at 2^600
        unit = self.summary(capsys, aav_at_width(tmp_path, 1.0))
        scaled = self.summary(capsys, aav_at_width(tmp_path, 2.0**k))
        for key in self.KEYS:
            assert scaled[key] == pytest.approx(2.0**k * unit[key], rel=1e-9, abs=0), key

    @pytest.mark.parametrize(
        "command", [["run"], ["sample", "--shots", "10", "--seed", "1"]], ids=["run", "sample"]
    )
    @pytest.mark.parametrize("sigma", [1e-310, 1e308])
    def test_widths_whose_quadratures_overflow_are_refused(
        self, capsys, tmp_path, command, sigma
    ):
        # refused when the file loads, before numpy can warn about the overflow
        path = aav_at_width(tmp_path, sigma)
        assert cli.main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: pointers[0]: sigma {sigma} overflows the quadratures "
            "of a 12-level pointer\n"
        )

    def test_a_non_finite_position_is_refused(self, tmp_path):
        # the inverse CDF's slope overflows on tail cells of this wide a grid
        s = wm.ensure_valid(wm.resolve_scenario(aav_at_width(tmp_path, 1e305)))
        result = wm.post_select(wm.evolve_exact(s), s)
        with pytest.raises(wm.GridError, match="sigma = 1e[+]305 is past the float range"):
            wm.sample_positions(result, s, 0, 200_000, seed=1)

    @pytest.mark.parametrize(
        "sigma, shots, reason",
        [
            (1e307, 1000, "density mass off the sampling grid: 1 - integral = nan"),
            (1e305, 200_000, "a position drawn at pointer width"),
        ],
        ids=["grid-overflows", "drawn-position-overflows"],
    )
    def test_widths_past_the_float_range_are_refused(
        self, capsys, tmp_path, sigma, shots, reason
    ):
        path = aav_at_width(tmp_path, sigma)
        out = tmp_path / "positions.csv"
        args = ["sample", str(path), "--shots", str(shots), "--seed", "1", "--out", str(out)]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert reason in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_a_sample_mean_past_the_float_range_is_refused(self, capsys, tmp_path, monkeypatch):
        # finite positions whose sum overflows: only the command's own mean check sees them
        monkeypatch.setattr(cli.harness, "sample_positions", lambda *args: np.full(2, 1.5e308))
        out = tmp_path / "positions.csv"
        args = ["sample", "aav_qubit", "--shots", "2", "--seed", "1", "--out", str(out)]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: aav_qubit: ")
        assert "mean is inf" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()
