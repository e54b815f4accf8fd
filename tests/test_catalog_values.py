"""Every catalog run and sweep reproduces its pinned values to 1e-12 (1 + |A_w|).

``tests/data/catalog_values.json`` holds, per catalog scenario, each route's
extracted value, the oracle, the post-selection probability, the tolerance,
and the errors and fitted slope of a sweep over :data:`GRID`.  A refactor
must keep every one of them to rounding; the slope counts only where every
sweep error stands above that rounding bound.  Regenerate the file only for a
change that is meant to move the numbers:
``PYTHONPATH=src python tests/test_catalog_values.py > tests/data/catalog_values.json``.
"""

import json
import sys
from pathlib import Path

import pytest

import weakmeas as wm

VALUES = Path(__file__).resolve().parent / "data" / "catalog_values.json"

GRID = (0.16, 0.08, 0.04, 0.02)

#: Largest allowed change, in units of ``1 + |A_w|``.
DRIFT = 1e-12


def _pair(z):
    return [z.real, z.imag]


def catalog_values(name):
    report = wm.run_experiment(name)
    sweep = wm.sweep_lambda(name, GRID)
    return {
        "analytic": _pair(report.analytic),
        "extracted": {route: _pair(value) for route, value in report.extracted.items()},
        "prob_success": report.prob_success,
        "tolerance": report.tolerance,
        "sweep_errors": list(sweep.errors),
        "sweep_slope": sweep.fitted_slope,
    }


def pinned():
    return json.loads(VALUES.read_text(encoding="utf-8"))


def test_every_catalog_scenario_is_pinned():
    assert sorted(pinned()) == wm.catalog_names()


@pytest.mark.parametrize("name", wm.catalog_names())
def test_catalog_values_match_their_pins(name):
    want = pinned()[name]
    got = catalog_values(name)
    assert list(got["extracted"]) == list(want["extracted"])
    bound = DRIFT * (1.0 + abs(complex(*want["analytic"])))

    def close(a, b, field):
        assert abs(a - b) <= bound, f"{name}.{field}: {a!r} drifted from {b!r}"

    close(complex(*got["analytic"]), complex(*want["analytic"]), "analytic")
    for route, value in want["extracted"].items():
        close(complex(*got["extracted"][route]), complex(*value), f"extracted.{route}")
    for field in ("prob_success", "tolerance"):
        close(got[field], want[field], field)
    # a slope fitted to errors that all sit at rounding level is a fit to a few
    # ulps, and moves with any rounding change; it is pinned only above that
    if all(error > bound for error in want["sweep_errors"]):
        close(got["sweep_slope"], want["sweep_slope"], "sweep_slope")
    assert len(got["sweep_errors"]) == len(want["sweep_errors"])
    for i, (a, b) in enumerate(zip(got["sweep_errors"], want["sweep_errors"])):
        close(a, b, f"sweep_errors[{i}]")


if __name__ == "__main__":
    doc = {name: catalog_values(name) for name in wm.catalog_names()}
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
