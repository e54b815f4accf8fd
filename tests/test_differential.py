"""A differential check over generated all-Fock scenarios.

Each example is a scenario no one wrote by hand: S = 2..4 system levels, one
to two Fock pointers (sigma in [0.5, 2], d = 16), random Hermitian observables
on the one system factor, about 30 % of them commuting, pre- and
post-selections with |<F|I>| >= 0.1, and lambda in [0.002, 0.15].  The
physics is checked against the references in ``conftest``, which take
neither of the package's routes: the sum over all orderings for the oracle
and the truncation-free momentum integral for the lowering route.  Examples
are derandomized, so the suite draws the same scenarios on every run.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import weakmeas as wm
from weakmeas import FockPointerSpec, ObservableSpec, Scenario
from weakmeas.harness import ROUNDING_FLOOR_MULTIPLE

from conftest import (
    haar_unitary,
    momentum_ladder_route,
    permutation_reference,
    random_hermitian,
    random_state,
)

#: The truncation bound the 1e-8 leakage guard sets on the lowering route,
#: per unit of 1 + |A_w| (``test_truncation_error_is_bounded_by_the_leakage``).
TRUNCATION_BOUND = 5e-10

#: Floor on |<F|I>| of a generated scenario.
MIN_OVERLAP = 0.1

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def fock_scenarios(draw) -> Scenario:
    """A scenario as the module docstring describes; the matrices and states come
    from a numpy generator seeded by the draw."""
    levels = draw(st.integers(2, 4))
    n = draw(st.integers(1, 2))
    commuting = draw(st.integers(0, 9)) < 3
    sigmas = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    lam = draw(st.floats(0.002, 0.15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if commuting:  # one random eigenbasis, with random real spectra
        basis = haar_unitary(rng, levels)
        matrices = [(basis * rng.normal(size=levels)) @ basis.conj().T for _ in range(n)]
    else:
        matrices = [random_hermitian(rng, levels) for _ in range(n)]
    pre, post = random_state(rng, levels), random_state(rng, levels)
    while abs(np.vdot(post, pre)) < MIN_OVERLAP:
        post = random_state(rng, levels)
    return Scenario(
        system_dims=(levels,),
        observables=tuple(
            ObservableSpec(name=f"A{j + 1}", matrix=m, target=(0,)) for j, m in enumerate(matrices)
        ),
        pointers=tuple(FockPointerSpec(sigma=sigma, dim=16) for sigma in sigmas),
        couplings=(1.0,) * n,
        pre=pre,
        post=post,
    ).with_lambda(lam)


@DIFFERENTIAL
@given(fock_scenarios())
def test_dump_round_trips(s):
    assert wm.load_scenario(wm.dump_scenario(s)) == s


@DIFFERENTIAL
@given(fock_scenarios())
def test_a_run_ends_in_a_report_or_a_typed_error(s):
    try:
        report = wm.run_scenario(wm.load_scenario(wm.dump_scenario(s)))
    except wm.WeakMeasurementError:
        return
    assert isinstance(report, wm.WeakValueReport)


@DIFFERENTIAL
@given(fock_scenarios())
def test_oracle_matches_the_permutation_reference(s):
    reference = permutation_reference(s.embedded_observables(), s.pre, s.post)
    assert abs(wm.analytic_oracle(s) - reference) <= 1e-12 * (1.0 + abs(reference))


@DIFFERENTIAL
@given(fock_scenarios())
def test_lowering_route_matches_to_all_orders(s):
    # the route's own rounding is about eps |route scale| (1 + |A_w|), the
    # unit of a run's rounding floor.  Observables of norm up to about 4 put
    # lambda |A| near 0.6, where the reference's default 8 Gauss-Hermite
    # nodes miss by up to 1e-9; 16 nodes agree with 24 to rounding there
    try:
        result = wm.post_select(wm.evolve_exact(s), s)
    except wm.WeakMeasurementError:
        return
    [value] = wm.extract_joint_fock([(result, s)])
    unit = 1.0 + abs(wm.analytic_oracle(s))
    scale = math.prod(p.route_scale(gt) for p, gt in zip(s.pointers, s.couplings))
    rounding = ROUNDING_FLOOR_MULTIPLE * np.finfo(float).eps * abs(scale) * unit
    assert abs(value - momentum_ladder_route(s, 16)) <= TRUNCATION_BOUND * unit + rounding
