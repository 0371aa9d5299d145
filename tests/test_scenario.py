import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from bellcert.linalg import ALGEBRA_TOL, max_abs
from bellcert.quantum import (
    ZERO_PROB,
    Interaction,
    QuantumState,
    pure_state,
    white_noise_mix,
)
from bellcert.reference import reference_strategy
from bellcert import bell, scenario
from bellcert.scenario import (
    Strategy,
    _check_projective,
    bell_branch_settings,
    extra_branch_settings,
    run_scenario,
    scramble_strategy,
    second_round_tables,
)

from conftest import X, Z, on_target, repeatability_spotcheck

SQRT2 = math.sqrt(2.0)


def _identity_interaction_strategy(ref):
    return Strategy(
        source_state=ref.source_state,
        observables_t1=ref.observables_t1,
        observables_t2=ref.observables_t2,
        interaction=Interaction(np.eye(4), (2, 2), (2, 2)),
    )


class TestBranchSettings:
    def test_two_party_values(self):
        assert bell_branch_settings(2) == (0, 0)
        assert extra_branch_settings(2) == (1, 1)

    def test_n_party_values(self):
        assert bell_branch_settings(4) == (0, 0, 1, 1)
        assert extra_branch_settings(4) == (1, 1, 0, 0)


class TestRunScenario:
    def test_reference_two_parties(self, ref2):
        rec = run_scenario(ref2)
        assert abs(rec.t1_bell_value - 2.0) < 1e-12
        assert set(rec.t2_bell_values) == set(itertools.product((0, 1), repeat=2))
        for value in rec.t2_bell_values.values():
            assert abs(value - 2.0) < 1e-12
        assert rec.extra_stats is not None and on_target(rec.extra_stats)

    def test_reference_three_parties(self, ref3):
        rec = run_scenario(ref3)
        assert abs(rec.t1_bell_value - 4.0) < 1e-12
        assert len(rec.t2_bell_values) == 8
        for value in rec.t2_bell_values.values():
            assert abs(value - 4.0) < 1e-12
        assert rec.extra_stats is not None and on_target(rec.extra_stats)

    def test_identity_interaction_stays_classical(self, ref2):
        rec = run_scenario(_identity_interaction_strategy(ref2))
        assert max(rec.t2_bell_values.values()) <= SQRT2 + 1e-9

    def test_conditional_normalization(self, ref2):
        rec = run_scenario(ref2)
        for tables in second_round_tables(rec, ref2.observables_t2):
            for x2 in itertools.product((0, 1), repeat=2):
                assert abs(float(np.sum(tables[x2])) - 1.0) < 1e-10

    def test_no_signaling_at_t1(self, ref2):
        rec = run_scenario(ref2)
        for x_alice in (0, 1):
            marginals = []
            for x_bob in (0, 1):
                probs = rec.p1[(x_alice, x_bob)]
                marginals.append(probs.sum(axis=1))
            assert max_abs(marginals[0] - marginals[1]) < 1e-10

    def test_zero_probability_events_are_omitted(self):
        obs = ((Z, X), (Z, X))
        strategy = Strategy(
            source_state=pure_state(np.array([1.0, 0, 0, 0]), (2, 2)),
            observables_t1=obs,
            observables_t2=obs,
            interaction=Interaction(np.eye(4), (2, 2), (2, 2)),
        )
        rec = run_scenario(strategy)
        # first-round Z x Z on |00> is deterministic: only one Bell-branch event
        assert list(rec.t2_bell_values) == [(0, 0)]
        assert list(rec.event_probabilities) == list(rec.events)
        for x1, a1 in rec.events:
            assert rec.event_probabilities[(x1, a1)] > 1e-12

    def test_copy_builds_no_table(self, monkeypatch):
        # The record holds no second-round tables, so a field-by-field copy
        # contracts nothing.
        rec = run_scenario(reference_strategy(6))
        calls = []
        original = scenario.effect_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(scenario, "effect_table", counting)
        dataclasses.replace(rec)
        assert calls == []

    def test_one_source_table_and_one_stack_per_round(self, monkeypatch):
        # p1, the t1 Bell value and the branch projectors all come from one
        # contraction of the source against one set of t1 setting stacks.
        strategy = scramble_strategy(reference_strategy(3), (1, 2, 1), seed=7).strategy
        tables, stacks = [], []
        effect_table, setting_stacks = scenario.effect_table, bell.setting_stacks

        def counting_table(rho, *args):
            tables.append(rho)
            return effect_table(rho, *args)

        def counting_stacks(observables):
            stacks.append(observables)
            return setting_stacks(observables)

        for module in (scenario, bell):
            monkeypatch.setattr(module, "effect_table", counting_table)
            monkeypatch.setattr(module, "setting_stacks", counting_stacks)
        run_scenario(strategy)
        assert len(tables) == 1 and tables[0] is strategy.source_state.density
        assert [id(o) for o in stacks] == [id(strategy.observables_t1), id(strategy.observables_t2)]

    def test_non_projective_first_round_rejected(self, ref2):
        soft = tuple((0.9 * pair[0], pair[1]) for pair in ref2.observables_t1)
        strategy = Strategy(
            source_state=ref2.source_state,
            observables_t1=soft,
            observables_t2=ref2.observables_t2,
            interaction=ref2.interaction,
        )
        with pytest.raises(ValueError, match="projective"):
            run_scenario(strategy)


def _records_match(strategy_a, strategy_b, tol=1e-9):
    a, b = run_scenario(strategy_a), run_scenario(strategy_b)
    assert a.p1.shape == b.p1.shape
    assert max_abs(a.p1 - b.p1) < tol
    assert a.events == b.events
    p2_a, p2_b = (second_round_tables(r, s.observables_t2) for r, s in ((a, strategy_a), (b, strategy_b)))
    assert p2_a.shape == p2_b.shape
    assert max_abs(p2_a - p2_b) < tol
    assert abs(a.t1_bell_value - b.t1_bell_value) < tol
    for key in a.t2_bell_values:
        assert abs(a.t2_bell_values[key] - b.t2_bell_values[key]) < tol
    assert [label for label, _, _ in a.extra_stats] == [label for label, _, _ in b.extra_stats]
    values = [np.array([v for _, v, _ in r.extra_stats]) for r in (a, b)]
    assert max_abs(values[0] - values[1]) < tol


class TestScramble:
    def test_trivial_aux_reproduces_statistics(self, ref2):
        scrambled = scramble_strategy(ref2, (1, 1), seed=0)
        _records_match(ref2, scrambled.strategy)

    def test_statistics_invariance_across_seeds_and_aux(self, ref2):
        for seed, aux in ((1, (2, 1)), (2, (1, 3)), (3, (2, 2)), (4, (3, 3))):
            scrambled = scramble_strategy(ref2, aux, seed=seed)
            _records_match(ref2, scrambled.strategy)

    def test_three_party_invariance(self, ref3):
        scrambled = scramble_strategy(ref3, (2, 1, 2), seed=5)
        _records_match(ref3, scrambled.strategy)

    def test_planted_objects_are_consistent(self, ref2):
        scrambled = scramble_strategy(ref2, (2, 2), seed=6)
        assert scrambled.aux_state.dims == (2, 2)
        v0 = scrambled.aux_unitary
        assert max_abs(np.conj(v0).T @ v0 - np.eye(4)) < 1e-10

    def test_rank_deficient_hook(self, ref2):
        scrambled = scramble_strategy(ref2, (2, 2), seed=7, xi_rank=1)
        eigs = np.linalg.eigvalsh(scrambled.aux_state.density)
        assert eigs[0] < 1e-12 and eigs[-1] > 0.1


class TestRepeatabilitySpotcheck:
    def test_honest_strategy_is_consistent(self, ref2):
        result = repeatability_spotcheck(ref2, rounds=1000, seed=0)
        assert result.consistent and result.mismatches == 0

    def test_cheating_device_is_caught(self, ref2):
        def swap_in_mixed_state(_state):
            return QuantumState(np.eye(4) / 4.0, (2, 2))

        result = repeatability_spotcheck(ref2, rounds=200, seed=1, tamper=swap_in_mixed_state)
        assert not result.consistent
        # expected mismatch rate 3/4 for two parties
        assert result.mismatches > 100

    def test_zero_rounds_vacuously_consistent(self, ref2):
        result = repeatability_spotcheck(ref2, rounds=0, seed=2)
        assert result.consistent and result.rounds == 0

    def test_results_pinned_for_fixed_seeds(self, ref2):
        # The counts the per-state kernel gave before the branch stack; the
        # tampered states are re-measured through the stacked kernel.
        def mixed(_state):
            return QuantumState(np.eye(4) / 4.0, (2, 2))

        tampered = [repeatability_spotcheck(ref2, 200, seed, tamper=mixed) for seed in range(3)]
        assert [r.mismatches for r in tampered] == [147, 154, 145]
        scrambled = scramble_strategy(reference_strategy(3), (1, 2, 1), seed=3).strategy
        noisy = [
            repeatability_spotcheck(scrambled, 150, seed, tamper=lambda s: white_noise_mix(s, 0.6))
            for seed in range(3)
        ]
        assert [r.mismatches for r in noisy] == [56, 58, 51]
        assert all(r.rounds == 150 and not r.consistent for r in noisy)
        honest = [repeatability_spotcheck(scrambled, 150, seed) for seed in range(3)]
        assert all(r.consistent and r.mismatches == 0 for r in honest)


class TestRecordNormalization:
    """A table whose sum is off 1 by more than ``ALGEBRA_TOL`` (1e-9), the
    source-trace tolerance of the loader, or with an entry outside [0, 1]
    by more than ``ZERO_PROB`` (1e-12), is rejected with the first one
    named, in p1-then-p2 order: ``CorrelationRecord`` gates ``p1`` when it
    is built, and ``second_round_tables`` gates the ``p2`` it builds from
    the record's states.  A tampered ``p2`` goes through the same
    ``scenario._gate``."""

    @staticmethod
    def shifted(tables, key, delta):
        out = tables.copy()
        out[key] += delta / out[key].size
        return out

    @staticmethod
    def gate(rec, p2):
        scenario._gate(p2, rec.parties, rec.events)

    @staticmethod
    def sign_flipped(rec, event):
        # The record's states with one state's factor negated: its tables sum to -1.
        states = list(rec.conditional_states)
        vectors, signs = states[event].factor
        states[event] = QuantumState._from_factor(vectors, -signs, states[event].dims)
        return tuple(states)

    def test_within_the_rule_passes(self, ref2):
        rec = run_scenario(ref2)
        dataclasses.replace(rec, p1=self.shifted(rec.p1, (0, 1), 9e-10))
        dataclasses.replace(rec, p1=self.shifted(rec.p1, (0, 1), -9e-10))

    def test_first_round_table_named(self, ref2):
        rec = run_scenario(ref2)
        p1 = self.shifted(self.shifted(rec.p1, (0, 1), 2e-9), (1, 1), 1e-3)
        message = "first-round distribution for inputs (0, 1) sums to 1.000000002"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(rec, p1=p1)

    def test_conditional_table_named(self, ref2):
        rec = run_scenario(ref2)
        p2 = second_round_tables(rec, ref2.observables_t2)
        p2 = self.shifted(self.shifted(p2, (1, 1, 0), -1e-6), (2, 0, 0), 1e-3)
        message = f"conditional distribution for event {rec.events[1]}, inputs (1, 0) sums to 0.999999"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            self.gate(rec, p2)

    def test_first_round_named_before_second(self, ref2):
        # Both tables off: the record is refused before its p2 is built.
        rec = run_scenario(ref2)
        p1 = self.shifted(rec.p1, (1, 0), 1e-3)
        message = "first-round distribution for inputs (1, 0) sums to 1.001"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bad = dataclasses.replace(rec, p1=p1, conditional_states=self.sign_flipped(rec, 0))
            second_round_tables(bad, ref2.observables_t2)

    def test_nan_table_named(self, ref2):
        rec = run_scenario(ref2)
        p2 = second_round_tables(rec, ref2.observables_t2)
        p2[3, 0, 1, 1, 1] = np.nan
        message = f"conditional distribution for event {rec.events[3]}, inputs (0, 1) sums to nan"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.gate(rec, p2)

    def test_out_of_range_first_round_entry_named(self, ref2):
        rec = run_scenario(ref2)
        p1 = rec.p1.copy()
        p1[0, 0] = [[1.5, -0.5], [0, 0]]
        message = (
            "first-round distribution for inputs (0, 0) has entry 1.5 at outcomes (0, 0), "
            "outside [0, 1]"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(rec, p1=p1)

    def test_out_of_range_conditional_entry_named(self, ref2):
        rec = run_scenario(ref2)
        p2 = second_round_tables(rec, ref2.observables_t2)
        p2[2, 1, 0] = [[0.5, 0.5], [0.25, -0.25]]
        message = (
            f"conditional distribution for event {rec.events[2]}, inputs (1, 0) "
            "has entry -0.25 at outcomes (1, 1), outside [0, 1]"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.gate(rec, p2)

    @pytest.mark.parametrize("table", ["p1", "p2"])
    def test_entry_margin_is_zero_prob(self, ref2, table):
        rec = run_scenario(ref2)
        built = {"p1": rec.p1, "p2": second_round_tables(rec, ref2.observables_t2)}[table]

        def gate(tables):
            if table == "p1":
                dataclasses.replace(rec, p1=tables)
            else:
                self.gate(rec, tables)

        for beyond, passes in ((ZERO_PROB / 2, True), (2 * ZERO_PROB, False)):
            for low_first in (True, False):
                tables = built.copy()
                entries = [-beyond, 1 + beyond] if low_first else [1 + beyond, -beyond]
                tables[..., 0, 0, :, :] = [entries, [0, 0]]
                if passes:
                    gate(tables)
                    continue
                with pytest.raises(ValueError, match=f"has entry {re.escape(repr(entries[0]))} at outcomes"):
                    gate(tables)

    def test_built_table_gated_on_first_read(self, ref2):
        # The tables built from the states are gated as they are built:
        # here one state's factor has its sign flipped.
        rec = run_scenario(ref2)
        bad = dataclasses.replace(rec, conditional_states=self.sign_flipped(rec, 2))
        message = f"conditional distribution for event {rec.events[2]}, inputs (0, 0) sums to -1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            second_round_tables(bad, ref2.observables_t2)

    def test_gate_reads_the_tables_in_place(self):
        # At N = 6 the second-round tables are 65 x 4096 doubles (2.1 MB);
        # the gate allocates their sums, not a copy of them.
        ref = reference_strategy(6)
        rec = run_scenario(ref)
        p2 = second_round_tables(rec, ref.observables_t2)
        assert p2.flags.c_contiguous and p2.nbytes > 2e6
        tracemalloc.start()
        try:
            self.gate(rec, p2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p2.nbytes / 8


class TestRecordShape:
    """The arrays of a ``CorrelationRecord`` must line up with its events
    before any table is summed."""

    def test_p1_of_the_wrong_shape(self, ref2):
        rec = run_scenario(ref2)
        with pytest.raises(ValueError, match=r"^p1 has shape \(2, 2, 4\)"):
            dataclasses.replace(rec, p1=rec.p1.reshape(2, 2, 4))

    def test_p2_and_events_disagree(self, ref2):
        rec = run_scenario(ref2)
        with pytest.raises(ValueError, match="^5 conditional states for 4 events$"):
            dataclasses.replace(rec, events=rec.events[:-1])

    def test_conditional_states_and_events_disagree(self, ref2):
        rec = run_scenario(ref2)
        assert len(rec.events) == len(rec.conditional_states) == 5
        with pytest.raises(ValueError, match="^4 conditional states for 5 events$"):
            dataclasses.replace(rec, conditional_states=rec.conditional_states[1:])

    def test_record_without_states(self, ref2):
        # A record filled from statistics alone keeps no states.
        rec = dataclasses.replace(run_scenario(ref2), conditional_states=())
        assert rec.conditional_states == () and len(rec.events) == 5
        with pytest.raises(ValueError, match="^a record without conditional states"):
            second_round_tables(rec, ref2.observables_t2)


class TestStrategyValidation:
    def test_dimension_chain_checked(self, ref2):
        with pytest.raises(ValueError):
            Strategy(
                source_state=ref2.source_state,
                observables_t1=ref2.observables_t1,
                observables_t2=ref2.observables_t2,
                interaction=Interaction(np.eye(8), (2, 4), (2, 4)),
            )

    def test_nan_projectivity_defect_fails(self):
        pair = np.stack([np.array([[np.nan, 0.0], [0.0, 1.0]]), Z])
        with pytest.raises(ValueError, match=r"\(party 0, setting 0\) is not projective \(defect nan\)"):
            _check_projective([pair], 1e-8, "first-round")


class TestObservableSpectrum:
    """Each observable's eigenvalues lie in [-1, 1] within ``ALGEBRA_TOL``,
    so that its effects ``(I +/- A) / 2`` are positive."""

    @staticmethod
    def with_t2(strategy, party, setting, matrix):
        pairs = [np.array(p) for p in strategy.observables_t2]
        pairs[party][setting] = matrix
        return dataclasses.replace(strategy, observables_t2=tuple(pairs))

    @pytest.mark.parametrize("excess, accepted", [(0.5, True), (2.0, False)])
    def test_edge_of_the_tolerance(self, ref2, excess, accepted):
        top = 1.0 + excess * ALGEBRA_TOL
        matrix = np.diag([top, -1.0])
        if accepted:
            self.with_t2(ref2, 1, 0, matrix)
        else:
            with pytest.raises(ValueError, match=r"t2 observable \(party 1, setting 0\) has eigenvalue 1,"):
                self.with_t2(ref2, 1, 0, matrix)

    def test_error_names_the_first_observable_of_any_dimension(self):
        # Party 1's pair is the only 4 x 4 one, so it is in a stack of its
        # own; the gate still names the lowest party.
        strategy = scramble_strategy(reference_strategy(3), (1, 2, 1), 7).strategy
        bad = np.diag([1.5, 1.0, -1.0, -1.0])
        pairs = [np.array(p) for p in strategy.observables_t1]
        pairs[1][1], pairs[2][0] = bad, np.diag([2.0, -1.0])
        with pytest.raises(ValueError, match=r"t1 observable \(party 1, setting 1\) has eigenvalue 1.5,"):
            dataclasses.replace(strategy, observables_t1=tuple(pairs))

    def test_contraction_passes_the_gate_and_fails_projectivity(self, ref2):
        # 0.95 Z has positive effects; run_scenario's projectivity check
        # decides it.
        pairs = [np.array(p) for p in ref2.observables_t1]
        pairs[0][0] = 0.95 * Z
        strategy = dataclasses.replace(ref2, observables_t1=tuple(pairs))
        with pytest.raises(ValueError, match=r"first-round observable \(party 0, setting 0\) is not projective"):
            run_scenario(strategy)

    def test_one_stacked_eigvalsh_per_round_and_dimension(self, monkeypatch):
        strategy = scramble_strategy(reference_strategy(3), (1, 2, 1), 7).strategy
        calls, original = [], np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        dataclasses.replace(strategy)
        assert sorted(calls) == sorted([(2, 2, 2, 2), (1, 2, 4, 4)] * 2)
