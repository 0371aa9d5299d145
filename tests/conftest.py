import itertools
import math

import numpy as np
import pytest

from bellcert.certify import MAX_VIOLATION_TOL, CheckResult
from bellcert.quantum import Interaction
from bellcert.reference import pre_interaction_basis, reference_strategy
from bellcert.scenario import Strategy

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def dag(m):
    return np.conj(m).T


def phase_distance(a, b):
    """Max-norm distance between two matrices minimized over a global phase."""
    a, b = np.asarray(a), np.asarray(b)
    inner = np.trace(dag(b) @ a)
    phase = inner / abs(inner) if abs(inner) > 1e-12 else 1.0
    return float(np.max(np.abs(a - phase * b)))


def on_target(stats):
    """Whether every side statistic passes the certification chain's gate
    (``CheckResult.close_to`` at the default maximal-violation tolerance)."""
    return all(
        CheckResult.close_to(label, value, target, MAX_VIOLATION_TOL).passed
        for label, value, target in stats.entries
    )


def brute_force_classical_bound(parties, target_outcomes):
    """Independent oracle: plain-Python loop over all deterministic
    assignments of +/-1 values to every observable symbol."""
    best = -np.inf
    a = target_outcomes
    for assignment in itertools.product((1.0, -1.0), repeat=2 * parties):
        vals = {(n, j): assignment[2 * n + j] for n in range(parties) for j in (0, 1)}
        t0 = (vals[(0, 0)] - vals[(0, 1)]) / math.sqrt(2.0)
        t1 = (vals[(0, 0)] + vals[(0, 1)]) / math.sqrt(2.0)
        first = (parties - 1) * t1
        for n in range(1, parties):
            first *= vals[(n, 1)]
        second = 0.0
        for n in range(1, parties):
            second += ((-1.0) ** a[n]) * t0 * vals[(n, 0)]
        value = ((-1.0) ** a[0]) * (first + second)
        best = max(best, value)
    return best


def swap_deviation(reference: Strategy) -> Strategy:
    """Compose the reference interaction with a swap of the two qubits."""
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    return Strategy(
        source_state=reference.source_state,
        observables_t1=reference.observables_t1,
        observables_t2=reference.observables_t2,
        interaction=Interaction(swap @ reference.interaction.matrix, (2, 2), (2, 2)),
    )


def diag_phase_deviation(reference: Strategy, phases=(0.0, 0.4, -0.9, 1.3)) -> Strategy:
    """Compose the reference interaction with a nontrivial diagonal phase in
    the pre-interaction product basis: all conditional Bell values survive,
    the side statistics do not."""
    d = np.zeros((4, 4), dtype=complex)
    for theta, (_, vec) in zip(phases, pre_interaction_basis(2)):
        d += np.exp(1j * theta) * np.outer(vec, np.conj(vec))
    return Strategy(
        source_state=reference.source_state,
        observables_t1=reference.observables_t1,
        observables_t2=reference.observables_t2,
        interaction=Interaction(reference.interaction.matrix @ d, (2, 2), (2, 2)),
    )


@pytest.fixture(scope="session")
def ref2():
    return reference_strategy(2)


@pytest.fixture(scope="session")
def ref3():
    return reference_strategy(3)
