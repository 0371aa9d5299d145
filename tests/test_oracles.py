"""Oracles that do not come from the chain: facts a certified strategy must
meet that the program neither computes nor snapshots.

* The Makhlin invariants ``(G1, G2)`` of a two-qubit gate name its class
  under local unitaries (Makhlin, "Nonlocal properties of two-qubit gates
  and mixed states", 2002; Zhang, Vala, Sastry and Whaley, "Geometric
  theory of nonlocal two-qubit operations", 2003).  They need no frame.
* Metamorphic relations: a scramble of the reference (local isometries and
  an auxiliary state), or local unitaries applied consistently to a
  strategy, change no statistic the verdict reads.
"""

import numpy as np
import pytest

from bellcert.certify import run_full_certification
from bellcert.linalg import dagger, kron
from bellcert.quantum import Interaction, QuantumState, random_unitary
from bellcert.reference import reference_strategy
from bellcert.scenario import Strategy, scramble_strategy

from conftest import diag_phase_deviation
from corpus import PERTURBED, STRATEGIES, build_strategy, perturbed_strategy

# The magic basis, as columns.
MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / np.sqrt(2.0)


def makhlin_invariants(w):
    """``(G1, G2)`` of the two-qubit unitary ``w``: with ``m = U_B^T U_B``
    and ``U_B = Q^dag w Q``, ``G1 = tr^2(m) / (16 det w)`` and ``G2 =
    (tr^2(m) - tr(m^2)) / (4 det w)``."""
    u_b = np.conj(MAGIC).T @ w @ MAGIC
    m = u_b.T @ u_b
    det, tr = np.linalg.det(w), np.trace(m)
    return tr**2 / (16.0 * det), (tr**2 - np.trace(m @ m)) / (4.0 * det)


def assert_cnot_class(w, tol):
    g1, g2 = makhlin_invariants(w)
    assert abs(g1) <= tol and abs(g2 - 1.0) <= tol


class TestMakhlinInvariants:
    def test_reference_is_in_the_cnot_class(self):
        assert_cnot_class(reference_strategy(2).interaction.matrix, 1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_certified_qubit_scramble_is_in_the_cnot_class(self, seed):
        strategy = scramble_strategy(reference_strategy(2), (1, 1), seed).strategy
        assert run_full_certification(strategy).verdict == "certified"
        assert_cnot_class(strategy.interaction.matrix, 1e-12)

    def test_refuted_diag_phase_leaves_the_class(self):
        strategy = perturbed_strategy(2, PERTURBED["diag-phase-2"][1])
        assert run_full_certification(strategy).verdict == "refuted"
        _, g2 = makhlin_invariants(strategy.interaction.matrix)
        assert abs(g2 - 0.8776) <= 1e-4

    def test_first_order_refutation_moves_the_invariants_at_second_order(self):
        # W = U exp(i eps H) at eps = 1e-6 is refuted, since the chain's
        # interaction residual moves at order eps (6.0e-7 here), yet the
        # invariants move at order eps^2 and stay at the CNOT class: they
        # cannot tell this refutation from a certified gate.
        strategy = perturbed_strategy(2, PERTURBED["exp-1e-6"][1])
        assert run_full_certification(strategy).verdict == "refuted"
        assert_cnot_class(strategy.interaction.matrix, 1e-11)


def _statistics(report):
    return np.array([c.value for c in (*report.bell_checks, *report.extra_stat_checks)])


@pytest.mark.parametrize("aux", [(1, 1), (2, 2), (3, 2), (1, 2, 1), (1, 1, 1, 1)])
def test_scrambles_keep_the_verdict_and_statistics(aux):
    reference = run_full_certification(reference_strategy(len(aux)))
    for seed in range(5):
        strategy = scramble_strategy(reference_strategy(len(aux)), aux, seed).strategy
        report = run_full_certification(strategy)
        assert report.verdict == reference.verdict == "certified"
        assert [c.name for c in report.bell_checks] == [c.name for c in reference.bell_checks]
        names = [c.name for c in report.extra_stat_checks]
        assert names == [c.name for c in reference.extra_stat_checks]
        assert np.max(np.abs(_statistics(report) - _statistics(reference))) <= 1e-13


def local_unitary_image(strategy, seed):
    """``strategy`` under seeded per-party local unitaries, applied
    consistently: ``V1 = ox_n V1_n`` to the source and the first-round
    observables, ``V2 = ox_n V2_n`` to the second-round observables, and
    ``W -> V2 W V1^dag``.  Every statistic of the scenario is unchanged."""
    rng = np.random.default_rng(seed)
    w = strategy.interaction
    v1 = [random_unitary(d, rng) for d in w.dims_in]
    v2 = [random_unitary(d, rng) for d in w.dims_out]
    big1, big2 = kron(*v1), kron(*v2)
    rho = big1 @ strategy.source_state.density @ dagger(big1)
    return Strategy(
        source_state=QuantumState(rho, strategy.source_state.dims),
        observables_t1=[v @ pair @ dagger(v) for v, pair in zip(v1, strategy.observables_t1)],
        observables_t2=[v @ pair @ dagger(v) for v, pair in zip(v2, strategy.observables_t2)],
        interaction=Interaction(big2 @ w.matrix @ dagger(big1), w.dims_in, w.dims_out),
    )


# Corpus strategies, and the refuted interaction of the CLI's end-to-end
# check (every Bell value stays maximal, the side statistics fail).
LOCAL_UNITARY_CASES = [
    "reference-2",
    "reference-3",
    "scramble-1,2,1",
    "reference-2-v0.9",
    "scramble-2,2-xi-rank-1",
    "diag-phase-ci",
]


@pytest.mark.parametrize("case", LOCAL_UNITARY_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_local_unitaries_keep_the_verdict_and_statistics(case, seed):
    if case == "diag-phase-ci":
        strategy = diag_phase_deviation(reference_strategy(2), (0.0, 0.5, -1.0, 1.5))
    else:
        strategy = build_strategy(*STRATEGIES[case])
    before = run_full_certification(strategy)
    after = run_full_certification(local_unitary_image(strategy, seed))
    assert after.verdict == before.verdict
    assert len(after.failures) == len(before.failures)
    assert [c.name for c in after.bell_checks] == [c.name for c in before.bell_checks]
    assert [c.name for c in after.extra_stat_checks] == [c.name for c in before.extra_stat_checks]
    assert np.max(np.abs(_statistics(after) - _statistics(before))) <= 1e-13
    # The chain's frames absorb the unitaries, so the interaction residual,
    # at roundoff when certified, does not move either.
    assert (after.interaction is None) == (before.interaction is None)
    if before.interaction is not None:
        assert abs(after.interaction.residual - before.interaction.residual) <= 1e-13
