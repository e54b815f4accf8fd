"""Pointer factories: Fock quadratures, spin ladders, the level-0 start."""

import re

import numpy as np
import pytest

import weakmeas as wm
from weakmeas import FockPointerSpec, SpinPointerSpec

from conftest import SZ, op


class TestFockOperators:
    def test_lowering_entries_d3(self):
        lowering = FockPointerSpec(sigma=1.0, dim=3).lowering()
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        expected[1, 2] = np.sqrt(2.0)
        np.testing.assert_array_equal(lowering, expected)

    @pytest.mark.parametrize("sigma,dim", [(1.0, 3), (0.5, 8), (2.0, 12)])
    def test_canonical_commutator_with_truncation_defect(self, sigma, dim):
        # [x, p] = i (I - d E_top): the defect is confined to the top level
        x, p = wm.fock_operators(FockPointerSpec(sigma=sigma, dim=dim))
        comm = x @ p - p @ x
        expected = 1j * np.eye(dim)
        expected[-1, -1] = 1j * (1 - dim)
        np.testing.assert_allclose(comm, expected, atol=1e-13)

    def test_ground_state_position_variance(self):
        # sigma = 1/2 means x = (a + adag)/2 and <0|x^2|0> = sigma^2 = 1/4
        spec = FockPointerSpec(sigma=0.5, dim=6)
        x, _ = wm.fock_operators(spec)
        ground = np.eye(6, dtype=complex)[0]
        np.testing.assert_allclose(wm.expectation(ground, op(x @ x)).real, 0.25, atol=1e-14)

    @pytest.mark.parametrize("sigma,dim", [(1.0, 4), (0.37, 9), (3.0, 12)])
    def test_lowering_identity_entrywise(self, sigma, dim):
        # a = x/(2 sigma) + i sigma p holds by construction
        spec = FockPointerSpec(sigma=sigma, dim=dim)
        x, p = wm.fock_operators(spec)
        synthesized = (1.0 / (2.0 * sigma)) * x + (1j * sigma) * p
        assert np.abs(synthesized - spec.lowering()).max() <= 1e-14

    def test_quadratures_hermitian(self):
        for quadrature in wm.fock_operators(FockPointerSpec(sigma=0.8, dim=10)):
            wm.tensor.require_hermitian(quadrature)

    @pytest.mark.parametrize("sigma,dim", [(1.0, 2), (0.37, 9), (3.0, 16)])
    def test_spec_builds_only_the_operator_it_returns(self, monkeypatch, sigma, dim):
        spec = FockPointerSpec(sigma=sigma, dim=dim)
        _, p = wm.fock_operators(spec)
        lowering = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(np.complex128)

        def refused(spec):
            raise AssertionError("coupling() and lowering() must not build the full set")

        monkeypatch.setattr(wm.pointers, "fock_operators", refused)
        assert spec.coupling().tobytes() == p.tobytes()
        assert spec.lowering().tobytes() == lowering.tobytes()


class TestSpinOperators:
    def test_half_spin_raising_element(self):
        lowering, _ = wm.spin_operators(SpinPointerSpec(s=0.5))
        down = np.array([1.0, 0.0], dtype=complex)
        up = np.array([0.0, 1.0], dtype=complex)
        np.testing.assert_allclose(lowering.conj().T @ down, up, atol=1e-15)

    def test_spin1_raising_element(self):
        lowering, _ = wm.spin_operators(SpinPointerSpec(s=1.0))
        lowest = np.zeros(3, dtype=complex)
        lowest[0] = 1.0
        middle = np.zeros(3, dtype=complex)
        middle[1] = 1.0
        np.testing.assert_allclose(lowering.conj().T @ lowest, np.sqrt(2.0) * middle, atol=1e-15)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_ladder_commutator(self, s):
        # [S_z, S+] = S+ with S_z reconstructed as [S+, S-]/2
        sm, _ = wm.spin_operators(SpinPointerSpec(s=s))
        sp = sm.conj().T
        sz = 0.5 * (sp @ sm - sm @ sp)
        np.testing.assert_allclose(sz @ sp - sp @ sz, sp, atol=1e-13)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_casimir(self, s):
        sm, sy = wm.spin_operators(SpinPointerSpec(s=s))
        sp = sm.conj().T
        sx = 0.5 * (sp + sm)
        sz = 0.5 * (sp @ sm - sm @ sp)
        total = sx @ sx + sy @ sy + sz @ sz
        np.testing.assert_allclose(total, s * (s + 1.0) * np.eye(len(sy)), atol=1e-12)

    def test_sy_hermitian(self):
        wm.tensor.require_hermitian(wm.spin_operators(SpinPointerSpec(s=1.5))[1])


@pytest.mark.parametrize("spec", [FockPointerSpec(sigma=0.7, dim=5), SpinPointerSpec(s=1.5)])
def test_operators_are_fresh_arrays(spec):
    # nothing is cached: writing into one call's array leaves the next call's intact
    for build in (spec.coupling, spec.lowering):
        first = build()
        assert first.shape == (spec.dim, spec.dim) and first.dtype == np.complex128
        first[...] = 0.0
        assert np.any(build())


def start_of(pointer):
    """The pointer's amplitudes in evolve_exact's start: one qubit coupled at gt = 0."""
    s = wm.Scenario(
        system_dims=(2,),
        observables=(wm.ObservableSpec(name="sz", matrix=SZ, target=(0,)),),
        pointers=(pointer,),
        couplings=(0.0,),
        pre=[1.0, 0.0],
        post=[1.0, 0.0],
    )
    evolved = wm.evolve_exact(s)
    assert evolved.shape == (2, pointer.dim)
    return evolved[0]


class TestInitialStates:
    def test_fock_ground(self):
        psi = start_of(FockPointerSpec(sigma=1.0, dim=5))
        np.testing.assert_allclose(psi, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_spin_lowest(self):
        psi = start_of(SpinPointerSpec(s=0.5))
        np.testing.assert_allclose(psi, [1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize(
        "spec", [FockPointerSpec(sigma=1.0, dim=6), SpinPointerSpec(s=1.0)]
    )
    def test_lowering_annihilates_bottom_state(self, spec):
        # every pointer starts in level 0: Fock |0>, spin |m = -s>
        np.testing.assert_array_equal(spec.lowering() @ np.eye(spec.dim)[0], 0.0)


class TestPositionRepresentation:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_ground_state_is_gaussian_of_width_sigma(self, sigma):
        # Hermite synthesis of |0> must match (2 pi sigma^2)^(-1/4) exp(-x^2/(4 sigma^2))
        spec = FockPointerSpec(sigma=sigma, dim=12)
        x = np.linspace(-6.0 * sigma, 6.0 * sigma, 801)
        synthesized = wm.position_wavefunctions(spec, x)[0]
        gaussian = (2.0 * np.pi * sigma**2) ** (-0.25) * np.exp(-(x**2) / (4.0 * sigma**2))
        np.testing.assert_allclose(synthesized, gaussian, atol=1e-8)

    def test_basis_orthonormal_on_grid(self):
        spec = FockPointerSpec(sigma=1.0, dim=10)
        x = np.linspace(-25.0, 25.0, 4001)
        basis = wm.position_wavefunctions(spec, x)
        gram = np.trapezoid(basis[:, None, :] * basis[None, :, :], x, axis=-1)
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-7)


class TestSpecValidation:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf])
    def test_bad_sigma(self, sigma):
        with pytest.raises(ValueError):
            FockPointerSpec(sigma=sigma, dim=8)

    @pytest.mark.parametrize("sigma", [1e-310, 1e-320, 1e308])
    def test_sigma_whose_quadratures_overflow(self, sigma):
        with pytest.raises(ValueError, match=re.escape(f"sigma {sigma} overflows the quadratures")):
            FockPointerSpec(sigma=sigma, dim=12)

    @pytest.mark.parametrize("dim", [2, 12, 101])
    def test_widths_at_the_overflow_edge(self, dim):
        # each width either builds finite quadratures, with no numpy warning,
        # or is refused when the spec is built
        top, big = np.sqrt(dim - 1.0), np.finfo(float).max
        for edge in (0.5 * top / big, big / top):
            sigma = edge
            for _ in range(4):
                sigma = np.nextafter(sigma, 0.0)
            for _ in range(8):
                try:
                    spec = FockPointerSpec(sigma=float(sigma), dim=dim)
                except ValueError:
                    pass
                else:
                    x, p = wm.fock_operators(spec)
                    assert np.isfinite(x).all() and np.isfinite(p).all()
                if sigma == big:
                    break
                sigma = np.nextafter(sigma, np.inf)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            FockPointerSpec(sigma=1.0, dim=1)

    @pytest.mark.parametrize("s", [0.0, -0.5, 0.7, 1e308])  # 2 * 1e308 overflows round()
    def test_bad_spin(self, s):
        with pytest.raises(ValueError):
            SpinPointerSpec(s=s)


class TestArrayCap:
    """A pointer whose dim x dim operators pass the cap allocates nothing."""

    @pytest.mark.parametrize("build", [wm.fock_operators], ids=["fock_operators"])
    def test_fock_pointer_arrays(self, monkeypatch, build):
        monkeypatch.setattr(wm.tensor, "MAX_ARRAY_BYTES", 8 * 8 * 16)
        build(FockPointerSpec(sigma=1.0, dim=8))
        with pytest.raises(wm.CapacityError, match="^pointer dim 9: .* cap 1024 bytes$"):
            build(FockPointerSpec(sigma=1.0, dim=9))

    @pytest.mark.parametrize("build", [wm.spin_operators], ids=["spin_operators"])
    def test_spin_pointer_arrays(self, monkeypatch, build):
        monkeypatch.setattr(wm.tensor, "MAX_ARRAY_BYTES", 8 * 8 * 16)
        build(SpinPointerSpec(s=3.5))
        with pytest.raises(wm.CapacityError, match="^pointer dim 9: "):
            build(SpinPointerSpec(s=4.0))

    @pytest.mark.parametrize(
        "build",
        [lambda: FockPointerSpec(sigma=1.0, dim=4097), lambda: SpinPointerSpec(s=2048)],
        ids=["fock", "spin"],
    )
    def test_oversized_spec_cannot_be_built(self, build):
        # dim 4097 passes the cap, so the spec itself refuses to exist
        with pytest.raises(wm.CapacityError, match="^pointer dim 4097: "):
            build()

    def test_default_cap_admits_dim_4096(self):
        assert 4096**2 * 16 == wm.MAX_ARRAY_BYTES
        assert FockPointerSpec(sigma=1.0, dim=4096).dim == 4096
        with pytest.raises(wm.CapacityError):
            FockPointerSpec(sigma=1.0, dim=4097)

    @pytest.mark.parametrize("build", [wm.fock_operators], ids=["fock_operators"])
    def test_dim_beyond_any_array(self, build):
        with pytest.raises(wm.CapacityError, match=f"^pointer dim {10**400}: "):
            build(FockPointerSpec(sigma=1.0, dim=10**400))
