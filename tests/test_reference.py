import itertools
import math

import numpy as np
import pytest

from bellcert.linalg import dagger, max_abs
from bellcert.quantum import post_measurement_states, pure_state
from bellcert.reference import (
    HBAR_BASIS,
    X_BASIS,
    Z_BASIS,
    entangling_unitary,
    ghz_like_vector,
    ghz_matrix,
    pre_interaction_basis,
    pre_interaction_matrix,
    reference_strategy,
    target_observables,
)

from conftest import PHI_PLUS, X, Z


def test_rotated_basis_convention():
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    assert max_abs(HBAR_BASIS[0] - np.array([c, s])) < 1e-15
    assert max_abs(HBAR_BASIS[1] - np.array([-s, c])) < 1e-15
    h = (X + Z) / math.sqrt(2.0)
    assert max_abs(h @ HBAR_BASIS[0] - HBAR_BASIS[0]) < 1e-15
    assert max_abs(h @ HBAR_BASIS[1] + HBAR_BASIS[1]) < 1e-15


def test_ghz_like_states():
    assert max_abs(ghz_like_vector((0, 0)) - PHI_PLUS) < 1e-15
    psi_plus = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert max_abs(ghz_like_vector((0, 1)) - psi_plus) < 1e-15
    # first-bit sign: |phi_11> = -|phi->
    phi_minus = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert max_abs(ghz_like_vector((1, 1)) + phi_minus) < 1e-15


def test_entangling_unitary_is_unitary():
    for n in (2, 3, 4):
        u = entangling_unitary(n)
        assert max_abs(dagger(u) @ u - np.eye(2**n)) < 1e-12


def test_entangling_unitary_action_all_branches():
    for n in (2, 3):
        interaction, identities = reference_strategy(n).interaction, [np.eye(2)[None]] * n
        for bits, vec in pre_interaction_basis(n):
            (out,) = post_measurement_states(pure_state(vec, (2,) * n), identities, interaction)
            phi = ghz_like_vector(bits)
            fidelity = float(np.real(np.conj(phi) @ out.density @ phi))
            assert abs(fidelity - 1.0) < 1e-12


def test_target_observables_are_sharp_and_anticommuting():
    for pair in target_observables(4):
        for o in pair:
            assert max_abs(o @ o - np.eye(2)) < 1e-12
        assert max_abs(pair[0] @ pair[1] + pair[1] @ pair[0]) < 1e-12


def test_pre_interaction_vectors_are_orthonormal():
    for n in (2, 3):
        b = pre_interaction_matrix(n)
        assert max_abs(dagger(b) @ b - np.eye(2**n)) < 1e-12


def test_reference_source_is_maximally_entangled():
    ref = reference_strategy(2)
    assert max_abs(ref.source_state.density - np.outer(PHI_PLUS, PHI_PLUS.conj())) < 1e-15


def _pre_interaction_vector(bits):
    """Oracle: the product state entering the interaction after the
    Bell-branch first-round outcomes ``bits``, one ``numpy.kron`` per party
    (party 1 in the (X+Z)/sqrt2 eigenbasis, party 2 computational, the rest
    in the X eigenbasis)."""
    bases = [HBAR_BASIS, Z_BASIS] + [X_BASIS] * (len(bits) - 2)
    vec = np.ones(1, dtype=complex)
    for basis, b in zip(bases, bits):
        vec = np.kron(vec, basis[b])
    return vec


def _entangling_unitary_by_outer_products(n):
    u = np.zeros((2**n, 2**n), dtype=complex)
    for bits in itertools.product((0, 1), repeat=n):
        u += np.outer(ghz_like_vector(bits), np.conj(_pre_interaction_vector(bits)))
    return u


class TestClosedForms:
    """``B``, ``G`` and ``U = G B^dag`` equal their loop definitions to the bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_entangling_unitary_is_the_sum_of_outer_products(self, n):
        # Every entry of U is one product: the computational second party
        # makes one of the two terms of each row vanish, so no rounding of a
        # sum can differ.
        assert np.array_equal(entangling_unitary(n), _entangling_unitary_by_outer_products(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_basis_columns_are_the_per_vector_products(self, n):
        b = pre_interaction_matrix(n)
        for a, bits in enumerate(itertools.product((0, 1), repeat=n)):
            assert np.array_equal(b[:, a], _pre_interaction_vector(bits))
        for bits, vec in pre_interaction_basis(n):
            assert np.array_equal(vec, _pre_interaction_vector(bits))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_ghz_matrix_columns(self, n):
        g = ghz_matrix(n)
        for a, bits in enumerate(itertools.product((0, 1), repeat=n)):
            assert np.array_equal(g[:, a], ghz_like_vector(bits))
