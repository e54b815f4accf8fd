"""Hamiltonian assembly, exact propagation, post-selection.

The dense references live here: the full-space spectral propagator of the
assembled H, and its Taylor series, whose order-by-order terms show how the
coupling builds up the joint pointer amplitudes.
"""

import math
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import weakmeas as wm
from weakmeas import (
    FockPointerSpec,
    ObservableSpec,
    Scenario,
    SpinPointerSpec,
)

from weakmeas.evolution import _system_frame

from conftest import (
    I2,
    SX,
    SY,
    SZ,
    coherent_amplitudes,
    dense_evolved,
    haar_unitary,
    initial_joint_state,
    op,
    random_state,
    state,
)

R2 = 1.0 / np.sqrt(2.0)

DATA = Path(__file__).parent / "data"

#: Largest full space the dense reference diagonalizes.  triple_ghz_mix at its
#: shipped truncation is 4096-dimensional, a ~30 s eigh; it is checked at
#: Fock dim 5 (1000 dimensions) instead.
DENSE_REFERENCE_MAX_DIM = 1024


def dense_series(s, order):
    """Unnormalized series sum_{k<=order} (-i H)^k / k! |initial> of the dense H,
    as an ``(S, d_1, ..., d_N)`` tensor."""
    h = wm.build_hamiltonian(s).matrix
    initial = initial_joint_state(s)
    term = initial.reshape(-1)
    total = term.copy()
    for k in range(1, order + 1):
        term = (-1j / k) * (h @ term)
        total = total + term
    return total.reshape(initial.shape)


def catalog_at_dense_size():
    """Every catalog and ``tests/data`` scenario, at Fock dim 5 where its full
    space exceeds :data:`DENSE_REFERENCE_MAX_DIM`."""
    data = sorted(
        str(path)
        for path in DATA.glob("*.json")
        if path.stem not in {"catalog_values", "sample_digests"}
    )
    for name in wm.catalog_names() + data:
        s = wm.resolve_scenario(name)
        if math.prod(s.system_dims + s.pointer_dims) > DENSE_REFERENCE_MAX_DIM:
            s = s.with_fock_dim(5)
        yield name, s


def single_scenario(gt, *, dim=12, sigma=1.0, pre=(R2, R2), post=None, kind="fock"):
    pointer = FockPointerSpec(sigma=sigma, dim=dim) if kind == "fock" else SpinPointerSpec(s=0.5)
    return Scenario(
        system_dims=(2,),
        observables=(ObservableSpec(name="sz", matrix=SZ, target=(0,)),),
        pointers=(pointer,),
        couplings=(gt,),
        pre=state(list(pre)),
        post=state(list(post if post is not None else pre)),
    )


def pair_scenario(gt=0.02, *, dim=12, pre=None, post=None, same_qubit=False):
    if same_qubit:
        observables = (
            ObservableSpec(name="sx", matrix=SX, target=(0,)),
            ObservableSpec(name="sz", matrix=SZ, target=(0,)),
        )
        system_dims = (2,)
        pre = pre if pre is not None else [1.0, 0.0]
        post = post if post is not None else [R2, R2]
    else:
        observables = (
            ObservableSpec(name="sz1", matrix=SZ, target=(0,)),
            ObservableSpec(name="sz2", matrix=SZ, target=(1,)),
        )
        system_dims = (2, 2)
        pre = pre if pre is not None else [0.0, R2, R2, 0.0]
        post = post if post is not None else [0.5, 0.5, 0.5, 0.5]
    return Scenario(
        system_dims=system_dims,
        observables=observables,
        pointers=tuple(FockPointerSpec(sigma=1.0, dim=dim) for _ in range(2)),
        couplings=(gt, gt),
        pre=state(pre),
        post=state(post),
    )


class TestBuildHamiltonian:
    def test_single_fock_term(self):
        s = single_scenario(gt=1.0)
        _, p = wm.fock_operators(s.pointers[0])
        np.testing.assert_allclose(
            wm.build_hamiltonian(s).matrix, np.kron(SZ, p), atol=1e-15
        )

    def test_two_terms_sum_and_commute(self):
        s = pair_scenario(gt=0.3, dim=6)
        _, p = wm.fock_operators(s.pointers[0])
        i2, i6 = np.eye(2), np.eye(6)
        term1 = 0.3 * np.kron(np.kron(np.kron(SZ, i2), p), i6)
        term2 = 0.3 * np.kron(np.kron(np.kron(i2, SZ), i6), p)
        h = wm.build_hamiltonian(s).matrix
        np.testing.assert_allclose(h, term1 + term2, atol=1e-15)
        np.testing.assert_allclose(term1 @ term2, term2 @ term1, atol=1e-15)

    def test_spin_pointer_coupling_sign(self):
        # H = -g A S_y, with S_y in the ascending-m basis
        s = single_scenario(gt=0.5, kind="spin")
        _, sy = wm.spin_operators(s.pointers[0])
        np.testing.assert_allclose(
            wm.build_hamiltonian(s).matrix, -0.5 * np.kron(SZ, sy), atol=1e-15
        )

    def test_result_is_hermitian(self):
        h = wm.build_hamiltonian(pair_scenario())
        assert h.dims == (2, 2, 12, 12)
        wm.tensor.require_hermitian(h.matrix)


class TestEvolveExact:
    def test_zero_coupling_is_identity(self):
        # every pointer starts in its level 0: Fock |0>, spin |m = -s>
        scenarios = (single_scenario(0.0), single_scenario(0.0, kind="spin"), pair_scenario(0.0))
        for s in scenarios:
            evolved = wm.evolve_exact(s)
            np.testing.assert_allclose(evolved, initial_joint_state(s), atol=1e-15)

    def test_start_is_refused_past_the_cap(self, monkeypatch):
        # joint_pair starts as a (4, 12, 12) complex tensor of 9216 bytes
        s = wm.resolve_scenario("joint_pair")
        monkeypatch.setattr(wm.tensor, "MAX_ARRAY_BYTES", 9215)
        tracemalloc.start()
        try:
            with pytest.raises(wm.CapacityError, match="^9216 bytes exceed the array cap 9215$"):
                wm.evolve_exact(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9216

    def test_eigenstate_displaces_pointer(self):
        # +1 eigenstate input: the pointer becomes a coherent state of
        # amplitude gt/(2 sigma) and mean position gt
        gt, sigma = 0.1, 1.0
        s = single_scenario(gt, pre=(1.0, 0.0))
        amps = wm.evolve_exact(s)
        assert amps.shape == (2, 12)
        np.testing.assert_allclose(amps[1], 0.0, atol=1e-15)
        oracle = coherent_amplitudes(gt / (2 * sigma), 12)
        np.testing.assert_allclose(amps[0], oracle, atol=1e-8)
        x, _ = wm.fock_operators(s.pointers[0])
        assert wm.expectation(amps[0], op(x)).real == pytest.approx(gt, abs=1e-8)

    @pytest.mark.parametrize(
        "name", ["aav_qubit", "joint_pair_entangled", "pair_anticommuting", "aav_qubit_spinptr"]
    )
    def test_norm_preserved(self, name):
        evolved = wm.evolve_exact(wm.resolve_scenario(name))
        assert np.linalg.norm(evolved) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_propagator_on_every_catalog_scenario(self):
        for name, s in catalog_at_dense_size():
            np.testing.assert_allclose(
                wm.evolve_exact(s), dense_evolved(s), rtol=0, atol=1e-12, err_msg=name
            )

    def test_matches_dense_propagator_off_the_phase_shortcut(self):
        # non-commuting observables share no eigenbasis, so the frame blocks
        # are not diagonal and go through the batched eigh
        spin_pair = Scenario(
            system_dims=(2,),
            observables=(
                ObservableSpec(name="sx", matrix=SX, target=(0,)),
                ObservableSpec(name="sz", matrix=SZ, target=(0,)),
            ),
            pointers=(SpinPointerSpec(s=1.0), SpinPointerSpec(s=0.5)),
            couplings=(0.5, 0.3),
            pre=state([1.0, 0.0]),
            post=state([R2, R2]),
        )
        for s in (pair_scenario(gt=0.08, dim=8, same_qubit=True), spin_pair):
            assert not _system_frame(s.embedded_observables())[2]
            np.testing.assert_allclose(wm.evolve_exact(s), dense_evolved(s), rtol=0, atol=1e-12)

    def test_degenerate_weight_combination_stays_diagonal(self):
        # three commuting +-1 observables on separate qubits, each eigenvalue
        # four-fold degenerate: the frame must diagonalize all three, and the
        # phase path stays exact
        axes = (SX, (SX + SZ) / np.sqrt(2.0), SY)
        rng = np.random.default_rng(7)
        pre, post = random_state(rng, 8), random_state(rng, 8)
        s = Scenario(
            system_dims=(2, 2, 2),
            observables=tuple(
                ObservableSpec(name=f"n{j}", matrix=m, target=(j,))
                for j, m in enumerate(axes)
            ),
            pointers=tuple(FockPointerSpec(sigma=1.0, dim=5) for _ in axes),
            couplings=(0.1,) * len(axes),
            pre=state(pre),
            post=state(post),
        )
        reference = dense_evolved(s)
        assert _system_frame(s.embedded_observables())[2]
        np.testing.assert_allclose(wm.evolve_exact(s), reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "seed, detuning", [(None, 0.0), (1, 0.0), (2, 0.0), (3, 0.0), (4, 1e-8)]
    )
    def test_commuting_pair_with_a_degenerate_sum_is_diagonal(self, seed, detuning):
        # A1 = U diag(1, 0) U^dag and A2 = U diag(0, pi) U^dag commute, but the
        # frame's sum A1 + A2 / pi = 1 is degenerate (or, detuned, too close to
        # degenerate for eigh), so its eigenbasis leaves both off-diagonal for a
        # random U.  The frame must still find their common eigenbasis
        u = np.eye(2) if seed is None else haar_unitary(np.random.default_rng(seed), 2)
        a1, a2 = (u @ np.diag(d) @ u.conj().T for d in ([1.0, 0.0], [0.0, np.pi + detuning]))
        rng = np.random.default_rng(11)
        s = Scenario(
            system_dims=(2,),
            observables=(
                ObservableSpec(name="a1", matrix=a1, target=(0,)),
                ObservableSpec(name="a2", matrix=a2, target=(0,)),
            ),
            pointers=(FockPointerSpec(sigma=1.0, dim=10), FockPointerSpec(sigma=1.0, dim=10)),
            couplings=(0.1, 0.1),
            pre=state(random_state(rng, 2)),
            post=state(random_state(rng, 2)),
        )
        assert _system_frame(s.embedded_observables())[2]
        np.testing.assert_allclose(wm.evolve_exact(s), dense_evolved(s), rtol=0, atol=1e-12)
        assert np.isfinite(wm.strong_position_estimate(s))
        plain = wm.analytic_weak_value(a1 @ a2, s.pre, s.post)
        joint = wm.analytic_oracle(s)
        assert abs(joint - plain) <= 1e-12 * (1.0 + abs(plain))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_many_commuting_observables_are_diagonal(self, n):
        # one +-1 observable per qubit in a random basis.  Each level of the
        # first is 2^(n-1)-fold degenerate, so the frame is refined n - 1 times
        # within ever smaller clusters, and the rounding it gathers must not be
        # mistaken for non-commutation
        rng = np.random.default_rng(n)
        observables = []
        for j in range(n):
            u = haar_unitary(rng, 2)
            factors = [I2] * n
            factors[j] = u @ SZ @ u.conj().T
            observables.append(reduce(np.kron, factors))
        basis, _, diagonal = _system_frame(observables)
        assert diagonal
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2**n), rtol=0, atol=1e-13)

    def test_displaced_amplitudes_keep_relative_precision(self):
        # product eigenstate input: pointer j ends in exp(-i gt P_j)|0>, so the
        # one-quantum-per-pointer amplitude (order lambda^3 ~ 1e-6) is a product
        # of per-pointer amplitudes.  The joint extraction divides by lambda^3,
        # so it needs that amplitude to rounding relative to its own size
        s = Scenario(
            system_dims=(2, 2, 2),
            observables=tuple(
                ObservableSpec(name=f"z{j}", matrix=SZ, target=(j,)) for j in range(3)
            ),
            pointers=tuple(FockPointerSpec(sigma=1.0, dim=8) for _ in range(3)),
            couplings=(0.02,) * 3,
            pre=np.eye(8)[0],
            post=np.full(8, 1.0 / np.sqrt(8.0)),
        )
        amps = wm.evolve_exact(s)
        assert amps.shape == (8, 8, 8, 8)
        _, p = wm.fock_operators(s.pointers[0])
        single = wm.hermitian_propagator(op(p), 0.02).matrix[:, 0]
        product = np.einsum("a,b,c->abc", single[:2], single[:2], single[:2])
        np.testing.assert_allclose(amps[0, :2, :2, :2], product, rtol=1e-12, atol=0)

    def test_leakage_guard_trips(self):
        s = single_scenario(gt=1.0, dim=4)  # lambda = 0.5 on a 4-level pointer
        with pytest.raises(wm.TruncationLeakageError) as excinfo:
            wm.evolve_exact(s)
        assert excinfo.value.leakage > wm.LEAKAGE_GUARD
        assert excinfo.value.dim == 4

    def test_leakage_monotone_in_dimension(self):
        # same coupling, growing truncation: top-level population must not grow
        tops = []
        for dim in (8, 12, 16):
            s = single_scenario(gt=0.6, dim=dim)  # lambda = 0.3
            tops.append(wm.top_level_leakage(wm.evolve_exact(s), s)[0])
        assert tops[0] >= tops[1] >= tops[2]

    def test_eigh_blocks_within_the_array_cap(self, monkeypatch):
        # pair_anticommuting takes the batched-eigh branch: its state holds
        # 2 * 144 * 16 = 4608 bytes and its 144 system blocks 144 * 4 * 16 = 9216
        s = wm.resolve_scenario("pair_anticommuting")
        assert not _system_frame(s.embedded_observables())[2]
        monkeypatch.setattr(wm.tensor, "MAX_ARRAY_BYTES", 9216)
        wm.evolve_exact(s)
        monkeypatch.setattr(wm.tensor, "MAX_ARRAY_BYTES", 9215)
        with pytest.raises(wm.CapacityError, match="^9216 bytes exceed the array cap 9215$"):
            wm.evolve_exact(s)


class TestSystemFrame:
    """One construction, the nested eigenbasis, for commuting and non-commuting sets."""

    @pytest.mark.parametrize("name", sorted(set(wm.catalog_names()) - {"pair_anticommuting"}))
    def test_commuting_catalog_scenarios_are_diagonal(self, name):
        s = wm.resolve_scenario(name)
        basis, rotated, diagonal = _system_frame(s.embedded_observables())
        assert diagonal
        for matrix, in_frame in zip(s.embedded_observables(), rotated):
            np.testing.assert_allclose(basis @ in_frame @ basis.conj().T, matrix, atol=1e-13)

    @pytest.mark.parametrize(
        "ref",
        ["pair_anticommuting", str(DATA / "noncommuting_s11_p399_5.json")],
        ids=["pair_anticommuting", "noncommuting_s11_p399_5"],
    )
    def test_non_commuting_frame_takes_one_eigh(self, monkeypatch, ref):
        # A_0 is non-degenerate, so its eigenbasis is the whole frame
        calls = []
        eigh = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        s = wm.resolve_scenario(ref)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        basis, _, diagonal = _system_frame(s.embedded_observables())
        assert not diagonal
        assert calls == [basis.shape]
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(len(basis)), atol=1e-13)


class TestEvolveTaylor:
    """Order-by-order terms of the dense series of H (``dense_series``)."""

    def test_first_order_displaces_one_pointer_at_a_time(self):
        # order-1 pointer sector |1 0| carries lambda_1 * A_1 |I>; |1 1| is empty
        s = pair_scenario(gt=0.04, dim=6)
        lam = 0.02
        amps = dense_series(s, order=1).reshape(4, 6, 6)
        a1_pre = np.kron(SZ, np.eye(2)) @ s.pre
        a2_pre = np.kron(np.eye(2), SZ) @ s.pre
        np.testing.assert_allclose(amps[:, 1, 0], lam * a1_pre, atol=1e-15)
        np.testing.assert_allclose(amps[:, 0, 1], lam * a2_pre, atol=1e-15)
        np.testing.assert_allclose(amps[:, 1, 1], 0.0, atol=1e-15)

    def test_below_order_n_no_joint_transfer(self):
        s = pair_scenario(gt=0.04, dim=6)
        amps = dense_series(s, order=1).reshape(4, 6, 6)
        np.testing.assert_allclose(amps[:, 1, 1], 0.0, atol=1e-16)

    def test_order_n_joint_amplitude_for_commuting_pair(self):
        # hand-multiplied second-order coefficient: lambda^2 A1 A2 |I>
        s = pair_scenario(gt=0.04, dim=6)
        lam = 0.02
        amps = dense_series(s, order=2).reshape(4, 6, 6)
        a1 = np.kron(SZ, np.eye(2))
        a2 = np.kron(np.eye(2), SZ)
        oracle = lam**2 * (a1 @ (a2 @ s.pre))
        np.testing.assert_allclose(amps[:, 1, 1], oracle, atol=1e-15)

    def test_series_converges_to_exact_on_every_catalog_scenario(self):
        for name, s in catalog_at_dense_size():
            assert s.lambda_max <= 0.1, name
            exact = wm.evolve_exact(s)
            assert np.linalg.norm(exact - dense_series(s, order=12)) <= 1e-10, name


class TestPostSelect:
    def test_zero_coupling_probability_is_overlap(self):
        phi = 3 * np.pi / 8
        s = single_scenario(0.0, post=(np.cos(phi), np.sin(phi)))
        result = wm.post_select(wm.evolve_exact(s), s)
        expected = abs(np.vdot(s.post, s.pre)) ** 2
        assert result.prob_success == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(result.conditioned[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(result.conditioned[1:], 0.0, atol=1e-12)

    def test_amplified_probability_matches_overlap_limit(self):
        s = wm.resolve_scenario("aav_amplified")
        result = wm.post_select(wm.evolve_exact(s), s)
        assert result.prob_success == pytest.approx(np.sin(0.005) ** 2, rel=0.01)

    def test_trivial_post_selection_reduces_to_expectation_value(self):
        # F = I: the pointer mean reproduces gt <I|A|I> as the coupling shrinks
        gt = 0.002
        pre = (np.cos(0.3), np.sin(0.3))
        s = single_scenario(gt, pre=pre)
        result = wm.post_select(wm.evolve_exact(s), s)
        x, _ = wm.fock_operators(s.pointers[0])
        mean_x = wm.expectation(result.conditioned, op(x)).real
        a_mean = np.cos(0.3) ** 2 - np.sin(0.3) ** 2
        assert mean_x == pytest.approx(gt * a_mean, abs=5e-8)

    def test_completeness_over_post_selection_basis(self):
        s = single_scenario(0.02, post=(1.0, 0.0))
        evolved = wm.evolve_exact(s)
        total = 0.0
        for basis_state in ([1.0, 0.0], [0.0, 1.0]):
            variant = Scenario(
                system_dims=s.system_dims,
                observables=s.observables,
                pointers=s.pointers,
                couplings=s.couplings,
                pre=s.pre,
                post=state(basis_state),
            )
            total += wm.post_select(evolved, variant).prob_success
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_failure_below_probability_floor(self):
        # orthogonal post-selection at tiny coupling: essentially nothing survives
        s = single_scenario(1e-8, pre=(1.0, 0.0), post=(0.0, 1.0))
        evolved = wm.evolve_exact(s)
        with pytest.raises(wm.PostSelectionFailureError):
            wm.post_select(evolved, s)

    def test_state_off_the_scenario_layout_rejected(self):
        s = wm.resolve_scenario("aav_qubit")
        evolved = wm.evolve_exact(s)
        other = s.with_fock_dim(8)
        with pytest.raises(wm.LayoutError):
            wm.post_select(evolved, other)
        with pytest.raises(wm.LayoutError):
            wm.top_level_leakage(evolved, other)

    def test_conditioned_state_is_unit_normalized(self):
        s = wm.resolve_scenario("aav_qubit")
        result = wm.post_select(wm.evolve_exact(s), s)
        assert np.linalg.norm(result.conditioned) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_projection_on_every_catalog_scenario(self):
        # (<F| (x) 1) psi / ||.|| on the dense-propagator state, as a (d_1..d_N) tensor
        for name, s in catalog_at_dense_size():
            projector = np.kron(s.post.conj(), np.eye(math.prod(s.pointer_dims)))
            projected = projector @ dense_evolved(s).reshape(-1)
            reference = projected / np.linalg.norm(projected)
            result = wm.post_select(wm.evolve_exact(s), s)
            np.testing.assert_allclose(
                result.conditioned,
                reference.reshape(s.pointer_dims),
                rtol=0,
                atol=1e-12,
                err_msg=name,
            )
            assert result.prob_success == pytest.approx(
                np.vdot(projected, projected).real, rel=1e-10
            ), name

    @pytest.mark.parametrize("name", ["aav_qubit", "joint_pair", "triple_ghz_mix"])
    def test_evolved_and_conditioned_are_read_only_tensors(self, name):
        # evolved: the system on axis 0, then one axis per pointer in
        # declaration order; conditioned: the pointer axes alone
        s = wm.resolve_scenario(name)
        evolved = wm.evolve_exact(s)
        conditioned = wm.post_select(evolved, s).conditioned
        pointer_dims = tuple(p.dim for p in s.pointers)
        shapes = ((math.prod(s.system_dims),) + pointer_dims, pointer_dims)
        for array, shape in zip((evolved, conditioned), shapes):
            assert array.shape == shape
            assert array.dtype == np.complex128
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0
            with pytest.raises(ValueError):
                array.reshape(-1)[0] = 0.0
