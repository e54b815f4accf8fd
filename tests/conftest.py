"""Shared constructors and dense references for the test suite."""

import itertools
import math
from functools import reduce

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


def read_only_view(array):
    """A read-only view of ``array``, which its caller can still write through."""
    view = array.view()
    view.flags.writeable = False
    return view


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


def permutation_reference(matrices, pre, post):
    """Symmetrized weak value by explicit enumeration of all N! orderings."""
    acc = np.zeros_like(pre)
    for ordering in itertools.permutations(matrices):
        vec = pre
        for m in reversed(ordering):
            vec = m @ vec
        acc = acc + vec
    n_orderings = math.factorial(len(matrices))
    return complex(np.vdot(post, acc) / (n_orderings * np.vdot(post, pre)))


def momentum_ladder_route(s, nodes=8):
    """Reference: the Fock lowering route to all orders in the couplings, with no
    Fock truncation, from each pointer's momentum representation.

    There the conditioned pointer state is ``phi(p) f(p)``, with
    ``f(p) = <F| exp(-i sum_j gt_j p_j A_j) |I>`` and ``phi`` the Gaussian ground
    state.  Since ``a_j phi = 0``, ``a_j (phi f) = phi (i / 2 sigma_j) d_j f``, so
    the route's ``prod_j (2 sigma_j / gt_j) <prod_j a_j>`` is
    ``prod_j (i / gt_j) E[conj(f) d_1...d_N f] / E[|f|^2]`` under ``|phi|^2``.
    The mixed partial is the multilinear Taylor coefficient of the exponential:
    the block from the full subset to the empty one of ``exp(G)``, where ``G`` is
    2^N-block upper triangular over the subsets of the pointers, with
    ``-i sum_j gt_j p_j A_j`` on its diagonal and ``-i gt_j A_j`` from each subset
    without j to the subset with j.  ``exp(G)`` is applied to ``|I>`` in the full
    subset's block by its Taylor series, and the expectations are Gauss-Hermite
    sums with ``nodes`` nodes per axis.
    """
    observables = np.stack(s.embedded_observables())
    n, dim = len(observables), len(s.pre)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    # |phi_j(p)|^2 is proportional to exp(-2 sigma_j^2 p^2), so p = x / (sqrt(2) sigma_j)
    axes = np.meshgrid(*[x] * n, indexing="ij")
    gtp = np.stack(
        [a.reshape(-1) * gt / (math.sqrt(2.0) * p.sigma)
         for a, gt, p in zip(axes, s.couplings, s.pointers)],
        axis=1,
    )
    weights = reduce(np.multiply.outer, [w] * n).reshape(-1)
    g = np.zeros((len(gtp), 2**n * dim, 2**n * dim), dtype=complex)
    diagonal = -1j * np.einsum("kj,jab->kab", gtp, observables)
    for subset in range(2**n):
        rows = slice(subset * dim, (subset + 1) * dim)
        g[:, rows, rows] = diagonal
        for j in range(n):
            if not subset >> j & 1:
                grown = subset | 1 << j
                g[:, rows, grown * dim : (grown + 1) * dim] = -1j * s.couplings[j] * observables[j]
    # scale G to norm <= 1/2 so that 18 Taylor terms leave under 1e-21 per step
    steps = max(1, math.ceil(2.0 * np.abs(g).sum(axis=-1).max()))
    g /= steps
    vector = np.zeros((len(gtp), 2**n * dim, 1), dtype=complex)
    vector[:, -dim:, 0] = s.pre
    for _ in range(steps):
        term = total = vector
        for k in range(1, 18):
            term = g @ term / k
            total = total + term
        vector = total
    f = vector[:, -dim:, 0] @ s.post.conj()
    mixed = vector[:, :dim, 0] @ s.post.conj()
    ratio = np.sum(weights * f.conj() * mixed) / np.sum(weights * abs(f) ** 2)
    return complex(ratio * math.prod(1j / gt for gt in s.couplings))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
