import itertools
import math

import numpy as np
import pytest

from bellcert.bell import BellExpression, quantum_value
from bellcert import certify, scenario
from bellcert.certify import (
    FramePremiseError,
    certify_source_state,
    check_anticommutation,
    check_projectivity,
    extract_local_frame,
    run_full_certification,
    support_isometry,
)
from bellcert.linalg import dagger, kron, max_abs, operator_block
from bellcert.quantum import (
    DichotomicObservable,
    Interaction,
    QuantumState,
    pure_state,
    random_density,
    random_unitary,
    white_noise_mix,
)
from bellcert.reference import (
    alice_targets,
    other_targets,
    reference_strategy,
    target_observables,
)
from bellcert.scenario import (
    Strategy,
    bell_branch_settings,
    canonical_reordering,
    conditional_post_interaction_state,
    scramble_strategy,
)

from conftest import (
    PSI_MINUS,
    X,
    Z,
    diag_phase_deviation,
    phase_distance,
    swap_deviation,
)


class TestAnticommutation:
    def test_reference_party_one_pair(self):
        a0, a1 = alice_targets()
        assert check_anticommutation(a0, a1) < 1e-15

    def test_pauli_pair(self):
        assert check_anticommutation(Z, X) < 1e-15

    def test_commuting_component(self):
        norm = check_anticommutation(Z, (X + Z) / math.sqrt(2.0))
        assert abs(norm - math.sqrt(2.0)) < 1e-12


class TestProjectivityCheck:
    def test_reference_defects_vanish(self, ref2):
        supports = {
            (p, t): np.eye(2, dtype=complex) for p in range(2) for t in (1, 2)
        }
        for check in check_projectivity(ref2, supports):
            assert check.passed and check.value < 1e-12

    def test_scaled_observable_defect(self, ref2):
        scaled = tuple(
            (
                DichotomicObservable(0.95 * pair[0].matrix, party=p, setting=0, time_slice=2),
                pair[1],
            )
            for p, pair in enumerate(ref2.observables_t2)
        )
        strategy = Strategy(
            source_state=ref2.source_state,
            observables_t1=ref2.observables_t1,
            observables_t2=scaled,
            interaction=ref2.interaction,
        )
        supports = {(p, t): np.eye(2, dtype=complex) for p in range(2) for t in (1, 2)}
        defects = {c.name: c.value for c in check_projectivity(strategy, supports)}
        assert abs(defects["projectivity party 1 t2 setting 0"] - 0.0975) < 1e-12


class TestSupportIsometry:
    def test_full_rank_returns_identity(self):
        rho = random_density((4,), 0).density
        assert np.array_equal(support_isometry(rho), np.eye(4))

    def test_rank_deficient_support(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        s = support_isometry(rho)
        assert s.shape == (4, 2)
        assert max_abs(dagger(s) @ s - np.eye(2)) < 1e-12
        assert max_abs(s @ dagger(s) - np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-12


class TestExtractLocalFrame:
    def test_identity_case(self):
        frame = extract_local_frame(Z, X, (Z, X))
        assert phase_distance(frame.matrix, np.eye(2)) < 1e-12
        assert frame.aux_dim == 1

    def test_reference_pair_to_own_targets(self):
        a0, a1 = alice_targets()
        frame = extract_local_frame(a0, a1, (a0, a1))
        u = frame.matrix
        for m, t in ((a0, a0), (a1, a1)):
            assert max_abs(u @ m @ dagger(u) - t) < 1e-10

    def test_scrambled_qubit_with_auxiliary(self):
        targets = other_targets()
        for seed in range(5):
            w = random_unitary(6, seed)
            a0 = w @ kron(Z, np.eye(3)) @ dagger(w)
            a1 = w @ kron(X, np.eye(3)) @ dagger(w)
            frame = extract_local_frame(a0, a1, targets)
            assert frame.aux_dim == 3
            u = frame.matrix
            assert max_abs(dagger(u) @ u - np.eye(6)) < 1e-9
            for m, t in ((a0, targets[0]), (a1, targets[1])):
                assert max_abs(u @ m @ dagger(u) - kron(t, np.eye(3))) < 1e-8

    def test_odd_dimension_rejected(self):
        o = np.diag([1.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(FramePremiseError, match="odd"):
            extract_local_frame(o, o, other_targets())

    def test_non_sharp_observable_rejected(self):
        with pytest.raises(FramePremiseError, match="sharp"):
            extract_local_frame(0.9 * Z, X, (Z, X))

    def test_non_anticommuting_rejected(self):
        with pytest.raises(FramePremiseError, match="anticommute"):
            extract_local_frame(Z, (X + Z) / math.sqrt(2.0), (Z, X))


def _frames_of(report):
    t1 = tuple(f for f in report.frames if f.time_slice == 1)
    t2 = tuple(f for f in report.frames if f.time_slice == 2)
    return t1, t2


class TestCertifySourceState:
    def test_reference_state(self, ref2):
        report = run_full_certification(ref2)
        cert = report.state
        assert cert.residual < 1e-12
        assert cert.aux_state.shape == (1, 1)
        assert abs(cert.aux_state[0, 0] - 1.0) < 1e-12

    def test_scrambled_state_recovers_planted_xi(self, ref2):
        scrambled = scramble_strategy(ref2, (2, 1), seed=21)
        report = run_full_certification(scrambled.strategy)
        assert report.state.residual < 1e-8
        assert max_abs(report.state.aux_state - scrambled.aux_state.density) < 1e-8

    def test_wrong_state_forced_through_reference_frames(self, ref2):
        # |psi-> never reaches the Bell premises (value -2); forcing the frame
        # rotation anyway leaves a macroscopic residual
        psi_minus = pure_state(PSI_MINUS, (2, 2))
        value = quantum_value(psi_minus, target_observables(2), BellExpression(2, (0, 0)))
        assert abs(value + 2.0) < 1e-12
        report = run_full_certification(ref2)
        frames_t1, _ = _frames_of(report)
        cert = certify_source_state(psi_minus, frames_t1)
        assert cert.residual > 0.4


class TestCertifyInteraction:
    def test_reference_interaction(self, ref2):
        report = run_full_certification(ref2)
        cert = report.interaction
        assert cert.passed and cert.is_product
        assert cert.residual < 1e-12
        assert cert.aux_unitary.shape == (1, 1)
        assert abs(cert.aux_unitary[0, 0] - 1.0) < 1e-12

    def test_leading_block_coefficient(self, ref2):
        # in the rotated first-slot basis the leading auxiliary block of the
        # reference interaction carries cos(pi/8)
        report = run_full_certification(ref2)
        frames_t1, frames_t2 = _frames_of(report)
        c1 = canonical_reordering((1, 1)) @ kron(frames_t1[0].matrix, frames_t1[1].matrix)
        c2 = canonical_reordering((1, 1)) @ kron(frames_t2[0].matrix, frames_t2[1].matrix)
        w = c2 @ ref2.interaction.matrix @ dagger(c1)
        c8, s8 = math.cos(math.pi / 8), math.sin(math.pi / 8)
        bar0 = np.array([c8, s8], dtype=complex)
        out_vec = kron(bar0.reshape(-1, 1), np.array([[1.0], [0.0]])).reshape(-1)
        in_vec = out_vec
        block = operator_block(w, out_vec, in_vec, (4, 1), (4, 1))
        assert abs(math.sqrt(2.0) * block[0, 0] - c8) < 1e-12

    def test_scrambled_recovery_three_dim_aux(self, ref2):
        scrambled = scramble_strategy(ref2, (3, 1), seed=23)
        assert scrambled.aux_unitary.shape == (3, 3)
        report = run_full_certification(scrambled.strategy)
        assert report.verdict == "certified"
        assert phase_distance(report.interaction.aux_unitary, scrambled.aux_unitary) < 1e-8
        assert report.interaction.residual < 1e-8

    def test_swap_deviation_breaks_cross_block_equalities(self, ref2):
        report = run_full_certification(swap_deviation(ref2))
        assert report.verdict == "refuted"
        assert report.interaction is not None
        assert any("disagree" in f for f in report.interaction.failures)
        # the side statistics fail too: the refutation is visible in the data
        assert any(not c.passed for c in report.extra_stat_checks)


class TestFullCertification:
    def test_reference_is_certified(self, ref2):
        report = run_full_certification(ref2)
        assert report.verdict == "certified"
        assert not report.failures
        assert all(c.passed for c in report.bell_checks)

    def test_three_party_reference_is_certified(self, ref3):
        report = run_full_certification(ref3)
        assert report.verdict == "certified"

    def test_scrambled_roundtrip_various_seeds(self, ref2):
        for seed, aux in ((31, (1, 1)), (32, (2, 2)), (33, (3, 2))):
            scrambled = scramble_strategy(ref2, aux, seed=seed)
            report = run_full_certification(scrambled.strategy)
            assert report.verdict == "certified", report.failures
            assert phase_distance(report.interaction.aux_unitary, scrambled.aux_unitary) < 1e-8
            # conjugation preserves sharpness: defects stay at rounding level
            assert all(c.value < 1e-9 for c in report.projectivity_checks)

    def test_visibility_shortfall_is_inconclusive(self, ref2):
        noisy = Strategy(
            source_state=white_noise_mix(ref2.source_state, 0.99),
            observables_t1=ref2.observables_t1,
            observables_t2=ref2.observables_t2,
            interaction=ref2.interaction,
        )
        report = run_full_certification(noisy)
        assert report.verdict == "inconclusive"
        t1 = report.bell_checks[0]
        assert abs(t1.value - 1.98) < 1e-9 and not t1.passed

    def test_diag_phase_deviation_is_refuted(self, ref2):
        report = run_full_certification(diag_phase_deviation(ref2))
        assert report.verdict == "refuted"
        # all conditional Bell values survive the deviation
        assert all(c.passed for c in report.bell_checks)
        assert any(not c.passed for c in report.extra_stat_checks)

    def test_identity_interaction_not_certified(self, ref2):
        strategy = Strategy(
            source_state=ref2.source_state,
            observables_t1=ref2.observables_t1,
            observables_t2=ref2.observables_t2,
            interaction=Interaction(np.eye(4), (2, 2), (2, 2)),
        )
        report = run_full_certification(strategy)
        assert report.verdict == "inconclusive"

    def test_rank_deficient_aux_state_demotes_to_inconclusive(self, ref2):
        scrambled = scramble_strategy(ref2, (2, 2), seed=34, xi_rank=1)
        report = run_full_certification(scrambled.strategy)
        assert report.verdict == "inconclusive"
        assert report.xi_min_eigenvalue <= 1e-10
        assert any("full-rank" in f for f in report.failures)

    def test_global_phase_on_interaction_is_absorbed(self, ref2):
        phased = Strategy(
            source_state=ref2.source_state,
            observables_t1=ref2.observables_t1,
            observables_t2=ref2.observables_t2,
            interaction=Interaction(
                np.exp(0.7j) * ref2.interaction.matrix, (2, 2), (2, 2)
            ),
        )
        report = run_full_certification(phased)
        assert report.verdict == "certified"
        assert abs(report.interaction.aux_unitary[0, 0] - np.exp(0.7j)) < 1e-10


class TestInteractionResidualGate:
    """The N=2 reference interaction times ``exp(i eps H)``: every Bell value
    and side statistic stays maximal to second order in eps, so only the
    interaction residual ``max|W - U ox V0|`` (about 0.75 eps for this H)
    separates the two verdicts."""

    @staticmethod
    def perturbed(ref2, eps):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + dagger(g)) / 2.0
        vals, vecs = np.linalg.eigh(h / np.linalg.norm(h, 2))
        kick = vecs @ np.diag(np.exp(1j * eps * vals)) @ dagger(vecs)
        return Strategy(
            source_state=ref2.source_state,
            observables_t1=ref2.observables_t1,
            observables_t2=ref2.observables_t2,
            interaction=Interaction(ref2.interaction.matrix @ kick, (2, 2), (2, 2)),
        )

    def test_residual_below_tolerance_is_certified(self, ref2):
        report = run_full_certification(self.perturbed(ref2, 5e-9))
        assert 1e-9 < report.interaction.residual < 1e-8
        assert report.verdict == "certified"

    def test_residual_beyond_tolerance_is_refuted(self, ref2):
        report = run_full_certification(self.perturbed(ref2, 5.4e-8))
        assert 3.5e-8 < report.interaction.residual < 4.5e-8
        assert report.interaction.proportionality_error < 1e-7
        assert report.verdict == "refuted"
        assert len(report.failures) == 1 and "differs from U ox V0" in report.failures[0]


class TestBranchStatesBuiltOnce:
    """``run_scenario`` builds each conditional state once and the chain
    reuses it; rank-deficient auxiliary states make the supports proper
    isometries."""

    @staticmethod
    def fresh_supports(strategy, _record):
        """Supports from conditional states computed anew, as the chain did
        before it reused the record's states."""
        n = strategy.parties
        supports = {(p, 1): support_isometry(strategy.source_state.marginal(p).density) for p in range(n)}
        sigmas = [
            conditional_post_interaction_state(strategy, bell_branch_settings(n), a)
            for a in itertools.product((0, 1), repeat=n)
        ]
        for p in range(n):
            average = sum(s.marginal(p).density for s in sigmas) / len(sigmas)
            supports[(p, 2)] = support_isometry(average)
        return supports

    @pytest.mark.parametrize("parties, aux", [(3, (2, 1, 1)), (4, (1, 2, 1, 1))])
    def test_one_state_per_event(self, parties, aux, monkeypatch):
        strategy = scramble_strategy(reference_strategy(parties), aux, seed=5, xi_rank=1).strategy
        built = []
        original = scenario.conditional_post_interaction_state

        def counting(*args):
            built.append(args[1:])
            return original(*args)

        with monkeypatch.context() as m:
            m.setattr(scenario, "conditional_post_interaction_state", counting)
            report = run_full_certification(strategy)
        assert len(built) == len(set(built)) == 2**parties + 1

        record = scenario.run_scenario(strategy)
        supports = certify._compute_supports(strategy, record)
        fresh = self.fresh_supports(strategy, record)
        assert supports.keys() == fresh.keys()
        assert any(s.shape[0] != s.shape[1] for s in supports.values())
        assert all(np.array_equal(supports[k], fresh[k]) for k in supports)

        monkeypatch.setattr(certify, "_compute_supports", self.fresh_supports)
        rebuilt = run_full_certification(strategy)
        assert report.verdict == rebuilt.verdict == "certified"
        assert np.array_equal(report.interaction.aux_unitary, rebuilt.interaction.aux_unitary)


class TestIndependentHaarEmbedding:
    """Round trip with embeddings chosen independently of the certifier's
    canonical frame construction: recovery holds up to the frame gauge
    (an auxiliary rotation per party and round)."""

    def test_equivalence_class_recovery(self, ref2):
        rng = np.random.default_rng(99)
        aux = (2, 2)
        targets = target_observables(2)
        ws = {}
        obs = {1: [], 2: []}
        for t in (1, 2):
            for p in range(2):
                w = random_unitary(4, rng)
                ws[(p, t)] = w
                pair = tuple(
                    DichotomicObservable(
                        w @ kron(targets[p][j], np.eye(2)) @ dagger(w),
                        party=p,
                        setting=j,
                        time_slice=t,
                    )
                    for j in (0, 1)
                )
                obs[t].append(pair)
        reorder = canonical_reordering(aux)
        xi = random_density(aux, rng)
        v0 = random_unitary(4, rng)
        emb1 = kron(ws[(0, 1)], ws[(1, 1)]) @ dagger(reorder)
        emb2 = kron(ws[(0, 2)], ws[(1, 2)]) @ dagger(reorder)
        rho = emb1 @ kron(ref2.source_state.density, xi.density) @ dagger(emb1)
        v = emb2 @ kron(ref2.interaction.matrix, v0) @ dagger(emb1)
        strategy = Strategy(
            source_state=QuantumState((rho + dagger(rho)) / 2, (4, 4)),
            observables_t1=tuple(obs[1]),
            observables_t2=tuple(obs[2]),
            interaction=Interaction(v, (4, 4), (4, 4)),
        )
        report = run_full_certification(strategy)
        assert report.verdict == "certified", report.failures

        # gauge per party and round: F W = I_2 ox R for some rotation R
        rotations = {}
        for frame in report.frames:
            g = frame.matrix @ ws[(frame.party, frame.time_slice)]
            r = operator_block(g, np.eye(2)[0], np.eye(2)[0], (2, 2), (2, 2))
            assert max_abs(g - kron(np.eye(2), r)) < 1e-8
            rotations[(frame.party, frame.time_slice)] = r
        expected = (
            kron(rotations[(0, 2)], rotations[(1, 2)])
            @ v0
            @ dagger(kron(rotations[(0, 1)], rotations[(1, 1)]))
        )
        assert phase_distance(report.interaction.aux_unitary, expected) < 1e-8
