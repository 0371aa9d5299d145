"""Oracles that do not come from the chain: facts a certified strategy must
meet that the program neither computes nor snapshots.

* The Makhlin invariants ``(G1, G2)`` of a two-qubit gate name its class
  under local unitaries (Makhlin, "Nonlocal properties of two-qubit gates
  and mixed states", 2002; Zhang, Vala, Sastry and Whaley, "Geometric
  theory of nonlocal two-qubit operations", 2003).  They need no frame.
* Metamorphic relation: a scramble of the reference (local isometries and an
  auxiliary state) changes no statistic the verdict reads.
"""

import numpy as np
import pytest

from bellcert.certify import run_full_certification
from bellcert.reference import reference_strategy
from bellcert.scenario import scramble_strategy

from corpus import PERTURBED, perturbed_strategy

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
