"""Tensor-core construction, embedding, propagation, and expectation values."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakmeas as wm
from weakmeas import HermiticityError, Operator
from weakmeas.tensor import _embed

from conftest import I2, SX, SZ, op, random_hermitian, random_state, read_only_view


class TestKron:
    def test_identity_factors(self):
        result = wm.kron([I2, np.eye(3)])
        assert result.dims == (2, 3)
        np.testing.assert_array_equal(result.matrix, np.eye(6))

    def test_diagonal_action_carries_sign(self):
        # sigma_z on the first qubit: |10> picks up the -1 eigenvalue
        result = wm.kron([SZ, I2])
        ket_10 = np.zeros(4)
        ket_10[2] = 1.0
        np.testing.assert_array_equal(result.matrix @ ket_10, -ket_10)

    def test_involution_squares_to_identity(self):
        xx = wm.kron([SX, SX])
        np.testing.assert_allclose(xx.matrix @ xx.matrix, np.eye(4), atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(2, 4), min_size=3, max_size=3),
    )
    def test_associativity(self, seed, dims):
        rng = np.random.default_rng(seed)
        a, b, c = (random_hermitian(rng, d) for d in dims)
        nested = wm.kron([a, wm.kron([b, c]).matrix])
        flat = wm.kron([a, b, c])
        np.testing.assert_allclose(nested.matrix, flat.matrix, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    )
    def test_matches_dense_kron_bit_for_bit(self, seed, dims):
        # The broadcast product forms the same a_ij b_kl products in the same
        # order as np.kron, so signed zeros and subnormals come out identical.
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]
        mats[0][0, 0] = complex(-0.0, 5e-324)
        mats[-1][-1, -1] = complex(1e-300, -0.0)
        result = wm.kron(mats)
        dense = functools.reduce(np.kron, mats)
        assert result.dims == tuple(dims)
        assert result.matrix.shape == dense.shape
        assert result.matrix.tobytes() == dense.tobytes()

    def test_capacity_cap(self):
        # 2^21 rows would take 2^46 bytes; the cap refuses before np.kron runs
        with pytest.raises(wm.CapacityError):
            wm.kron([I2] * 21)

    def test_needs_a_factor(self):
        with pytest.raises(wm.LayoutError, match="^kron needs at least one factor$"):
            wm.kron([])

    def test_cap_counts_bytes(self, monkeypatch):
        # 256 bytes hold exactly a 4x4 complex matrix
        monkeypatch.setattr(wm.tensor, "MAX_ARRAY_BYTES", 256)
        assert wm.kron([I2, I2]).dim == 4
        assert _embed(SZ, (0,), (2, 2)).shape == (4, 4)
        with pytest.raises(wm.CapacityError, match="^576 bytes exceed the array cap 256$"):
            wm.kron([I2, np.eye(3)])
        with pytest.raises(wm.CapacityError, match="^576 bytes"):
            _embed(SZ, (0,), (2, 3))


class TestEmbed:
    def test_first_slot(self):
        embedded = _embed(SZ, (0,), (2, 2))
        np.testing.assert_array_equal(embedded, np.kron(SZ, np.eye(2)))

    def test_lowering_acts_on_its_factor(self):
        # a on the second factor maps |psi>|1> to |psi>|0> with unit amplitude
        lower = np.diag(np.sqrt([1.0, 2.0]), 1)
        embedded = _embed(lower, (1,), (2, 3))
        psi = np.array([0.6, 0.8], dtype=complex)
        ket1 = np.zeros(3, dtype=complex)
        ket1[1] = 1.0
        ket0 = np.zeros(3, dtype=complex)
        ket0[0] = 1.0
        out = embedded @ np.kron(psi, ket1)
        np.testing.assert_allclose(out, np.kron(psi, ket0), atol=1e-15)

    def test_identity_embeds_to_identity(self):
        dims = (2, 3, 2)
        for slot, d in enumerate(dims):
            embedded = _embed(np.eye(d), (slot,), dims)
            np.testing.assert_array_equal(embedded, np.eye(12))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_disjoint_factors_commute(self, seed):
        rng = np.random.default_rng(seed)
        a = _embed(random_hermitian(rng, 2), (0,), (2, 3))
        b = _embed(random_hermitian(rng, 3), (1,), (2, 3))
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_embedding_homomorphism(self, seed):
        rng = np.random.default_rng(seed)
        dims = (3, 2, 2)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        left = _embed(a @ b, (0,), dims)
        right = [_embed(x, (0,), dims) for x in (a, b)]
        np.testing.assert_allclose(left, right[0] @ right[1], atol=1e-12)

    def test_multi_factor_embedding_matches_manual_kron(self, rng):
        joint = random_hermitian(rng, 4)
        embedded = _embed(joint, (0, 2), (2, 3, 2))
        # manual: reorder the kron (2x2 block) x I3 into (slot0, middle, slot2)
        tensor = np.kron(joint, np.eye(3)).reshape(2, 2, 3, 2, 2, 3)
        manual = tensor.transpose(0, 2, 1, 3, 5, 4).reshape(12, 12)
        np.testing.assert_allclose(embedded, manual, atol=1e-15)

    def test_reversed_slot_order_permutes_the_operator(self, rng):
        # slots name the factors in the order the matrix uses, so (1, 0) must
        # equal embedding the SWAP-conjugated matrix at (0, 1)
        joint = random_hermitian(rng, 4)
        swap = np.eye(4)[[0, 2, 1, 3]]
        a = _embed(joint, (1, 0), (2, 2, 3))
        b = _embed(swap @ joint @ swap, (0, 1), (2, 2, 3))
        np.testing.assert_allclose(a, b, atol=1e-15)


class TestPropagator:
    def test_zero_hamiltonian(self):
        zero = Operator((3,), np.zeros((3, 3)))
        np.testing.assert_array_equal(
            wm.hermitian_propagator(zero, 0.7).matrix, np.eye(3)
        )

    def test_diagonal_phases(self):
        u = wm.hermitian_propagator(op(SZ), np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        np.testing.assert_allclose(u.matrix, expected, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_group_property(self, seed):
        # U(t1) U(t2) must equal U(t1 + t2); the product is the independent route
        rng = np.random.default_rng(seed)
        h = op(random_hermitian(rng, 5))
        t1, t2 = rng.uniform(-2.0, 2.0, size=2)
        lhs = wm.hermitian_propagator(h, t1).matrix @ wm.hermitian_propagator(h, t2).matrix
        rhs = wm.hermitian_propagator(h, t1 + t2)
        assert np.abs(lhs - rhs.matrix).max() <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unitarity(self, seed):
        rng = np.random.default_rng(seed)
        u = wm.hermitian_propagator(op(random_hermitian(rng, 6)), 1.3)
        defect = u.matrix.conj().T @ u.matrix - np.eye(6)
        assert np.abs(defect).max() <= 1e-10

    def test_spectral_round_trip(self, rng):
        h = random_hermitian(rng, 8)
        eigvals, eigvecs = np.linalg.eigh(h)
        rebuilt = (eigvecs * eigvals) @ eigvecs.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-10 * np.linalg.norm(h)

    def test_rejects_non_hermitian(self):
        skew = op(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(wm.HermiticityError):
            wm.hermitian_propagator(skew, 1.0)


def amplitudes(values):
    return np.asarray(values, dtype=complex)


class TestExpectation:
    def test_eigenstate(self):
        assert wm.expectation(amplitudes([1.0, 0.0]), op(SZ)) == pytest.approx(1.0)

    def test_plus_state(self):
        plus = amplitudes([1.0, 1.0]) / np.sqrt(2.0)
        assert wm.expectation(plus, op(SX)) == pytest.approx(1.0)

    def test_lowering_shifts_level(self):
        lower = op(np.diag(np.sqrt([1.0, 2.0]), 1))
        fock1 = amplitudes([0.0, 1.0, 0.0])
        assert wm.expectation(fock1, lower) == 0.0

    def test_normalization_invariance(self, rng):
        h = op(random_hermitian(rng, 4))
        psi = random_state(rng, 4)
        scaled = 3.7j * psi
        np.testing.assert_allclose(wm.expectation(scaled, h), wm.expectation(psi, h), atol=1e-12)

    def test_hermitian_gives_real(self, rng):
        h = op(random_hermitian(rng, 5))
        value = wm.expectation(random_state(rng, 5), h)
        assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))

    def test_zero_norm_rejected(self):
        with pytest.raises(wm.ZeroNormError):
            wm.expectation(amplitudes([0.0, 0.0]), op(SZ))

    def test_layout_mismatch_rejected(self):
        with pytest.raises(wm.LayoutError):
            wm.expectation(amplitudes([1.0, 0.0, 0.0]), op(SZ))

    def test_tensor_takes_one_axis_per_factor(self, rng):
        # a (2, 3) tensor against a two-factor operator equals the flat vector
        # against its matrix; the flat vector itself does not match the layout
        h = op(random_hermitian(rng, 6), 2, 3)
        psi = random_state(rng, 6)
        value = wm.expectation(psi.reshape(2, 3), h)
        assert value == np.vdot(psi, h.matrix @ psi) / np.vdot(psi, psi).real
        with pytest.raises(wm.LayoutError):
            wm.expectation(psi, h)
        with pytest.raises(wm.LayoutError):
            wm.expectation(psi.reshape(3, 2), h)


class TestProductExpectation:
    """Per-axis factors against the dense reference: one ``kron`` product and
    :func:`weakmeas.expectation` on the flattened state."""

    @pytest.mark.parametrize("dims", [(3,), (2, 3), (4, 2, 3), (2, 2, 2, 2)])
    def test_matches_the_dense_product(self, rng, dims):
        factors = [random_hermitian(rng, d) + 1j * random_hermitian(rng, d) for d in dims]
        psi = random_state(rng, math.prod(dims)).reshape(dims)
        dense = wm.expectation(psi, wm.kron(factors))
        value = wm.tensor.product_expectation(psi, factors)
        assert abs(value - dense) <= 1e-12 * abs(dense)

    def test_leading_axes_carry_the_identity(self, rng):
        # a (5, 2, 3) tensor: the factors take the two trailing axes
        factors = [random_hermitian(rng, 2), random_hermitian(rng, 3)]
        psi = random_state(rng, 30).reshape(5, 2, 3)
        dense = wm.expectation(psi, wm.kron([np.eye(5)] + factors))
        value = wm.tensor.product_expectation(psi, factors)
        assert abs(value - dense) <= 1e-12 * abs(dense)

    def test_zero_norm_rejected(self):
        with pytest.raises(wm.ZeroNormError):
            wm.tensor.product_expectation(np.zeros((2, 3), dtype=complex), [SZ, np.eye(3)])

    @pytest.mark.parametrize("shape", [(3, 2), (2,), (6,), (2, 3, 1)])
    def test_shape_mismatch_rejected(self, shape):
        psi = np.ones(shape, dtype=complex)
        with pytest.raises(wm.LayoutError):
            wm.tensor.product_expectation(psi, [SZ, np.eye(3)])

    def test_needs_a_factor(self):
        with pytest.raises(wm.LayoutError):
            wm.tensor.product_expectation(np.ones(2, dtype=complex), [])


class TestInvariants:
    def test_operators_frozen(self):
        o = op(SZ)
        with pytest.raises(ValueError):
            o.matrix[0, 0] = 5.0

    def test_non_square_matrix_rejected(self):
        with pytest.raises(wm.LayoutError):
            Operator((2,), np.zeros((2, 3)))

    def test_layout_size_mismatch_rejected(self):
        with pytest.raises(wm.LayoutError):
            Operator((3,), np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            op(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            wm.tensor._frozen_complex([np.inf, 0.0], "pre", 1)

    @pytest.mark.parametrize("written", [5.0, np.nan])
    @pytest.mark.parametrize("handed", ["view", "array"])
    def test_caller_array_is_copied(self, handed, written):
        # after the finiteness check the caller writes to its array, which it
        # handed in as a read-only view or made read-only itself and then
        # writeable again: neither the value nor a NaN reaches the operator
        caller = SZ.copy()
        if handed == "view":
            o = Operator((2,), read_only_view(caller))
        else:
            caller.flags.writeable = False
            o = Operator((2,), caller)
            caller.flags.writeable = True
        caller[0, 0] = written
        assert np.array_equal(o.matrix, SZ)
        assert not o.matrix.flags.writeable

    def test_hermitian_check_is_relative(self):
        # a 1e-9 asymmetry on a unit-scale matrix must fail the 1e-12 check
        almost = SZ.copy()
        almost[0, 1] = 1e-9
        with pytest.raises(HermiticityError):
            wm.tensor.require_hermitian(almost)
        wm.tensor.require_hermitian(SZ)
