"""Shared constructors for the test suite."""

import math

import numpy as np
import pytest

from weakmeas import Operator, build_hamiltonian, hermitian_propagator

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def op(matrix, *dims):
    """Operator over the given factor dims (default: one factor of matching size), for
    the dense references :func:`weakmeas.expectation` and :func:`weakmeas.hermitian_propagator`."""
    matrix = np.asarray(matrix, dtype=complex)
    return Operator(dims or (len(matrix),), matrix)


def state(amps):
    """Amplitudes as a plain complex vector, as a scenario holds its pre/post states."""
    return np.asarray(amps, dtype=complex)


def initial_joint_state(scenario):
    """Pre-selected system state joined with every pointer in its level 0, as the
    ``(S, d_1, ..., d_N)`` tensor that ``evolve_exact`` returns."""
    amps = scenario.pre
    for pointer in scenario.pointers:
        amps = np.kron(amps, np.eye(pointer.dim)[0])
    return amps.reshape((math.prod(scenario.system_dims),) + scenario.pointer_dims)


def dense_evolved(s):
    """Reference amplitudes: the dense full-space propagator exp(-i H) on |initial>,
    as an ``(S, d_1, ..., d_N)`` tensor."""
    initial = initial_joint_state(s)
    propagator = hermitian_propagator(build_hamiltonian(s), 1.0)
    return (propagator.matrix @ initial.reshape(-1)).reshape(initial.shape)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def haar_unitary(rng, dim: int) -> np.ndarray:
    """A Haar-random unitary (QR of a complex Gaussian, with R's phases divided out)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    diagonal = np.diagonal(r)
    return q * (diagonal / np.abs(diagonal))


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def coherent_amplitudes(alpha, dim):
    """Truncated coherent-state amplitudes exp(-|a|^2/2) a^n / sqrt(n!)."""
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, dim))]))
    amps = np.exp(-0.5 * np.abs(alpha) ** 2) * (
        np.power(complex(alpha), n) / np.exp(0.5 * log_fact)
    )
    return amps.astype(complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
