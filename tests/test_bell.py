import itertools
import math

import numpy as np
import pytest

from bellcert import bell
from bellcert.bell import (
    BellExpression,
    _table_value,
    bell_coefficients,
    bell_operators,
    bell_terms,
    classical_bound,
    extra_statistics,
    quantum_value,
    setting_stacks,
    term_vectors,
)
from bellcert.linalg import ALGEBRA_TOL, DimensionMismatchError, dagger, kron, max_abs
from bellcert.quantum import _apply
from bellcert.quantum import (
    QuantumState,
    effect_table,
    post_measurement_states,
    pure_state,
    random_density,
    white_noise_mix,
)
from bellcert.reference import ghz_like_vector, target_observables
from bellcert.scenario import extra_branch_settings

from conftest import (
    PHI_PLUS,
    X,
    Z,
    bitmask_classical_bound,
    brute_force_classical_bound,
    dense_bell_operator,
    effect,
    on_target,
    padded_sos_terms,
    projective_observable,
    sos_residual,
    tilde_observables,
)

SQRT2 = math.sqrt(2.0)


class TestTildeObservables:
    """Party 1's ``T0`` and ``T1`` as ``bell_terms`` writes them: the rows of
    ``Q_2`` and ``P`` at the all-zero target, over ``(I, A0, A1)``."""

    @staticmethod
    def rotated_pair(a0, a1):
        _, rows, _ = bell_terms(BellExpression(2, (0, 0)))
        stack = np.stack([np.eye(len(a0)), a0, a1])
        t0, t1 = (np.tensordot(row, stack, axes=1) for row in rows)
        assert max_abs(np.array([t0, t1]) - np.array(tilde_observables(a0, a1))) < 1e-15
        return t0, t1

    def test_reference_pair_rotates_to_paulis(self):
        a0, a1 = target_observables(2)[0]
        t0, t1 = self.rotated_pair(a0, a1)
        assert max_abs(t0 - Z) < 1e-12
        assert max_abs(t1 - X) < 1e-12

    def test_degenerate_settings(self):
        t0, t1 = self.rotated_pair(Z, Z)
        assert max_abs(t0) < 1e-15
        assert max_abs(t1 - SQRT2 * Z) < 1e-15

    def test_square_sum_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a0 = projective_observable(4, rng)
            a1 = projective_observable(4, rng)
            t0, t1 = self.rotated_pair(a0, a1)
            assert max_abs(t0 @ t0 + t1 @ t1 - (a0 @ a0 + a1 @ a1)) < 1e-9


class TestBellOperator:
    def test_reference_two_party_form(self):
        expr = BellExpression(2, (0, 0))
        op = bell_operators(bell_coefficients(expr), setting_stacks(target_observables(2)))
        assert max_abs(op - (kron(X, X) + kron(Z, Z))) < 1e-12

    def test_reference_value_two_parties(self):
        expr = BellExpression(2, (0, 0))
        state = pure_state(PHI_PLUS, (2, 2))
        assert abs(quantum_value(state, target_observables(2), expr) - 2.0) < 1e-12

    def test_reference_value_three_parties(self):
        expr = BellExpression(3, (0, 0, 0))
        state = pure_state(ghz_like_vector((0, 0, 0)), (2, 2, 2))
        assert abs(quantum_value(state, target_observables(3), expr) - 4.0) < 1e-12

    def test_value_leaves_the_density_unfactored(self):
        # A state held as a density alone (``pure_state`` holds its vector as
        # the factor too): an ``eigh`` of it would be work the value does not
        # need.
        density = pure_state(ghz_like_vector((0, 1, 1)), (2, 2, 2)).density
        state = QuantumState._derived(density, (2, 2, 2))
        quantum_value(state, target_observables(3), BellExpression(3, (0, 1, 1)))
        assert state._factor is None

    def test_every_branch_reaches_the_bound(self):
        for n in (2, 3):
            obs = target_observables(n)
            for bits in itertools.product((0, 1), repeat=n):
                expr = BellExpression(n, bits)
                state = pure_state(ghz_like_vector(bits), (2,) * n)
                assert abs(quantum_value(state, obs, expr) - expr.quantum_bound) < 1e-10


class TestOperatorsIntoABuffer:
    """``bell_operators(..., out=buffer)`` writes the operators that the
    allocating call returns, bit for bit, and both are the Kronecker sum of
    the coefficients."""

    @staticmethod
    def stacks(dims, count=None, seed=60):
        rng = np.random.default_rng(seed)
        lead = () if count is None else (count,)
        stacks = []
        for d in dims:
            s = rng.standard_normal(lead + (3, d, d)) + 1j * rng.standard_normal(lead + (3, d, d))
            stacks.append(s + dagger(s))
        return stacks

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (3, 3, 3, 3)])
    @pytest.mark.parametrize("count", [None, 5])
    def test_buffer_matches_the_allocating_call(self, dims, count):
        c = bell_coefficients(BellExpression(len(dims), (0, 1) * (len(dims) // 2) + (1,) * (len(dims) % 2)))
        stacks = self.stacks(dims, count)
        expected = bell_operators(c, stacks)
        buffer = np.full(expected.shape, np.nan, dtype=complex)
        assert bell_operators(c, stacks, out=buffer) is buffer
        assert np.array_equal(buffer, expected)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (3, 1), (1, 3), (2, 1, 1)])
    @pytest.mark.parametrize("count", [None, 2])
    def test_kronecker_sum(self, dims, count):
        # (3, 1) and (2, 1, 1): the last step's input (3 (D / d_N)^2
        # entries) does not fit in the result and stays a separate array.
        c = bell_coefficients(BellExpression(len(dims), (1, 0) * (len(dims) // 2) + (0,) * (len(dims) % 2)))
        stacks = self.stacks(dims, count, seed=61)
        ops = bell_operators(c, stacks, out=None)
        for r in [()] if count is None else [(r,) for r in range(count)]:
            expected = sum(
                c[i] * kron(*(s[r + (k,)] for s, k in zip(stacks, i)))
                for i in itertools.product(range(3), repeat=len(dims))
            )
            assert max_abs(ops[r] - expected) < 1e-12 * max(1.0, max_abs(expected))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (3, 3, 3, 3)])
    def test_leading_rows_of_a_larger_buffer(self, dims):
        c = bell_coefficients(BellExpression(len(dims), (0,) * len(dims)))
        stacks = self.stacks(dims, 3)
        expected = bell_operators(c, stacks)
        buffer = np.full((7,) + expected.shape[1:], np.nan, dtype=complex)
        bell_operators(c, stacks, out=buffer[:3])
        assert np.array_equal(buffer[:3], expected)
        assert np.isnan(buffer[3:]).all()

    def test_buffer_of_the_wrong_shape_is_refused(self):
        c = bell_coefficients(BellExpression(2, (0, 0)))
        stacks = self.stacks((2, 3), 2)
        with pytest.raises(DimensionMismatchError, match="C-contiguous"):
            bell_operators(c, stacks, out=np.empty((2, 6, 6), dtype=complex)[:, ::2, ::2])
        with pytest.raises(DimensionMismatchError, match="C-contiguous"):
            bell_operators(c, stacks, out=np.empty((3, 6, 6), dtype=complex))


class TestClassicalBound:
    def test_two_parties(self):
        assert abs(classical_bound(BellExpression(2, (0, 0))) - SQRT2) < 1e-12

    def test_three_parties(self):
        assert abs(classical_bound(BellExpression(3, (0, 0, 0))) - 2 * SQRT2) < 1e-12

    def test_five_parties_against_brute_force(self):
        expr = BellExpression(5, (0, 1, 0, 0, 1))
        enumerated = classical_bound(expr)
        assert abs(enumerated - 4 * SQRT2) < 1e-12
        assert abs(enumerated - brute_force_classical_bound(5, expr.target_outcomes)) < 1e-12

    def test_brute_force_agreement_small_n(self):
        for n in (2, 3):
            for bits in itertools.product((0, 1), repeat=n):
                expr = BellExpression(n, bits)
                assert abs(classical_bound(expr) - brute_force_classical_bound(n, bits)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_contraction_matches_bitmask_enumeration(self, n):
        for bits in itertools.product((0, 1), repeat=n):
            expr = BellExpression(n, bits)
            assert abs(classical_bound(expr) - bitmask_classical_bound(n, bits)) < 1e-12

    def test_relabeling_invariance(self):
        values = {
            classical_bound(BellExpression(3, bits))
            for bits in itertools.product((0, 1), repeat=3)
        }
        assert max(values) - min(values) < 1e-12

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            classical_bound(BellExpression(11, (0,) * 11))

    def test_violated_by_reference(self):
        for n in range(2, 7):
            expr = BellExpression(n, (0,) * n)
            state = pure_state(ghz_like_vector((0,) * n), (2,) * n)
            value = quantum_value(state, target_observables(n), expr)
            assert classical_bound(expr) < value - 0.5


class TestQuantumValue:
    def test_visibility_scaling(self):
        expr = BellExpression(2, (0, 0))
        state = white_noise_mix(pure_state(PHI_PLUS, (2, 2)), 0.8)
        assert abs(quantum_value(state, target_observables(2), expr) - 1.6) < 1e-12

    def test_product_state(self):
        expr = BellExpression(2, (0, 0))
        state = pure_state(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
        assert abs(quantum_value(state, target_observables(2), expr) - 1.0) < 1e-12

    def test_value_is_the_gathered_correlator_table(self, monkeypatch):
        # A density's value is read off its correlator table; the term
        # kernel, which reads factors, is not involved.
        rng = np.random.default_rng(15)
        dims = (2, 3, 2)
        obs = [[projective_observable(d, rng) for _ in (0, 1)] for d in dims]
        state = random_density(dims, rng)
        monkeypatch.setattr(bell, "_effective_operators", None)
        expr = BellExpression(3, (1, 0, 1))
        table = effect_table(state, setting_stacks(obs))
        assert quantum_value(state, obs, expr) == _table_value(expr, table)
        dense = np.real(np.trace(dense_bell_operator(expr, obs) @ state.density))
        assert abs(quantum_value(state, obs, expr) - dense) <= 1e-13

    def test_never_exceeds_quantum_bound(self):
        rng = np.random.default_rng(14)
        for n in (2, 3):
            expr = BellExpression(n, (0,) * n)
            op_samples = 1000
            for _ in range(op_samples):
                obs = [
                    (projective_observable(2, rng), projective_observable(2, rng))
                    for _ in range(n)
                ]
                top = float(np.max(np.linalg.eigvalsh(dense_bell_operator(expr, obs))))
                assert top <= expr.quantum_bound + 1e-9

    def test_setting_stacks_take_stacked_pairs(self):
        # A (R, 2, d, d) pair gives the (R, 3, d, d) stack of each pair's
        # own, to the bit; a pair of two shapes is refused.
        rng = np.random.default_rng(16)
        pairs = np.array([[projective_observable(3, rng) for _ in (0, 1)] for _ in range(4)])
        (stacked,) = setting_stacks([pairs])
        assert stacked.shape == (4, 3, 3, 3)
        for stack, pair in zip(stacked, pairs):
            assert np.array_equal(stack, setting_stacks([pair])[0])
        with pytest.raises(DimensionMismatchError, match="party 1"):
            setting_stacks([pairs[0], [np.eye(2), np.eye(3)]])


class TestSOS:
    def test_reference_identity_is_exact(self):
        for n in (2, 3):
            residual = sos_residual(BellExpression(n, (0,) * n), target_observables(n))
            assert max_abs(residual) < 1e-12

    def test_exact_for_random_projective_strategies(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            obs = [
                (projective_observable(2, rng), projective_observable(2, rng))
                for _ in range(2)
            ]
            residual = sos_residual(BellExpression(2, (0, 1)), obs)
            assert max_abs(residual) < ALGEBRA_TOL, max_abs(residual)

    def test_contracted_observable_breaks_identity_but_stays_psd(self):
        obs = target_observables(2)
        shrunk = [(0.9 * obs[0][0], obs[0][1]), obs[1]]
        residual = sos_residual(BellExpression(2, (0, 0)), shrunk)
        assert max_abs(residual) > 1e-3
        assert np.min(np.linalg.eigvalsh(residual)) > -1e-9


def mean_squares(state, observables, expr):
    """``Tr(X^dag X rho)`` of each ``padded_sos_terms`` witness, in their
    order ``Q_N, ..., Q_2, P``; all vanish exactly when the strategy attains
    the quantum bound."""
    witnesses = padded_sos_terms(expr, observables)
    return [float(np.real(np.trace(dagger(x) @ x @ state.density))) for x in witnesses]


class TestSOSRelations:
    def test_reference_strategy_is_maximal(self):
        state = pure_state(PHI_PLUS, (2, 2))
        *q, p = mean_squares(state, target_observables(2), BellExpression(2, (0, 0)))
        assert p < 1e-12 and max(q) < 1e-12

    def test_wrong_setting_is_detected(self):
        state = pure_state(PHI_PLUS, (2, 2))
        obs = [target_observables(2)[0], (X, X)]  # party 2 setting 0 should be Z
        *q, _ = mean_squares(state, obs, BellExpression(2, (0, 0)))
        assert max(q) > 0.1
        assert abs(max(q) - 2.0) < 1e-9

    def test_noisy_state_is_not_maximal(self):
        state = white_noise_mix(pure_state(PHI_PLUS, (2, 2)), 0.5)
        *q, p = mean_squares(state, target_observables(2), BellExpression(2, (0, 0)))
        assert p > 0.01 and min(q) > 0.01


def every_expression(parties):
    for n in parties:
        for bits in itertools.product((0, 1), repeat=n):
            yield BellExpression(n, bits)


def loop_coefficients(expr):
    """Oracle: the coefficient tensor written out term by term, T0 and T1
    expanded into party 1's two settings."""
    n, a = expr.parties, expr.target_outcomes
    s1 = -1.0 if a[0] else 1.0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    c = np.zeros((3,) * n)
    c[(1,) + (2,) * (n - 1)] = c[(2,) + (2,) * (n - 1)] = s1 * (n - 1) * inv_sqrt2
    for m in range(1, n):
        sm = -1.0 if (a[0] + a[m]) % 2 else 1.0
        rest = tuple(1 if k == m else 0 for k in range(1, n))
        c[(1,) + rest] = sm * inv_sqrt2
        c[(2,) + rest] = -sm * inv_sqrt2
    return c


class TestFunctionalDefinedOnce:
    """``bell_terms`` is the one definition of the functional: the
    coefficient tensor, its term groups and the SOS witnesses all agree
    with it."""

    def test_coefficients_equal_the_loop(self):
        for expr in every_expression(range(2, 7)):
            assert np.array_equal(bell_coefficients(expr), loop_coefficients(expr))

    def test_nonzero_pattern_gives_back_the_terms(self):
        for expr in every_expression(range(2, 7)):
            c = bell_coefficients(expr)
            flat = c.reshape(3, -1)
            columns = np.flatnonzero(np.any(flat, axis=0))
            rest, rows, weights = bell_terms(expr)
            assert np.array_equal(np.stack(np.unravel_index(columns, c.shape[1:]), axis=-1), rest)
            assert np.array_equal(flat[:, columns].T, weights[:, np.newaxis] * rows)

    def test_table_value_reads_the_scattered_coefficients(self):
        # The gather at the terms' indices is the full contraction of the
        # coefficient tensor with the table, without forming the tensor.
        rng = np.random.default_rng(23)
        for expr in every_expression(range(2, 7)):
            table = rng.standard_normal((3,) * expr.parties)
            full = float(np.sum(bell_coefficients(expr) * table))
            assert abs(_table_value(expr, table) - full) <= 1e-13

    def test_sos_terms_match_the_padded_oracle(self):
        # The Bell-term kernel applied to the rows of the identity gives the
        # transpose of each term's product; party 1's row is applied alone.
        rng = np.random.default_rng(21)
        for expr in every_expression(range(2, 7)):
            dims = (2, 3, 2, 2, 2, 2)[: expr.parties]
            obs = [[projective_observable(d, rng) for _ in (0, 1)] for d in dims]
            rest, rows, _ = bell_terms(expr)
            stacks = setting_stacks(obs)
            eye = np.eye(math.prod(dims), dtype=complex)
            terms = zip(np.tensordot(rows, stacks[0], 1), term_vectors(eye, dims, rest, stacks))
            witnesses = np.stack([(_apply(u, eye, dims, 0) - v).T for u, v in terms])
            assert max_abs(witnesses - padded_sos_terms(expr, obs)) <= 1e-15

    def test_sos_identity_exact_at_unequal_dims(self):
        # On the operator the seesaw builds, with the ``bell_terms`` weights.
        rng = np.random.default_rng(22)
        for expr in every_expression([3]):
            obs = [[projective_observable(d, rng) for _ in (0, 1)] for d in (2, 3, 4)]
            operator = bell_operators(bell_coefficients(expr), setting_stacks(obs))
            residual = sos_residual(expr, obs, operator, bell_terms(expr)[2])
            assert max_abs(residual) < ALGEBRA_TOL


class TestExtraStatistics:
    @staticmethod
    def stats(strategy, settings, outcomes):
        """The side statistics on the post-interaction state of one
        first-round event, read off the branch state's marginals."""
        n = strategy.parties
        t1 = strategy.observables_t1
        projectors = [effect(t1[k][settings[k]], outcomes[k])[None] for k in range(n)]
        (sigma,) = post_measurement_states(strategy.source_state, projectors, strategy.interaction)
        return extra_statistics(sigma, strategy.observables_t2)

    def test_reference_conditional_state_passes(self, ref2):
        stats = self.stats(ref2, extra_branch_settings(2), (0, 0))
        assert on_target(stats)
        assert len(stats) == 2

    def test_wrong_conditioning_event_fails(self, ref2):
        stats = self.stats(ref2, (0, 0), (0, 0))
        assert not on_target(stats)

    def test_three_party_reference_passes_all_entries(self, ref3):
        stats = self.stats(ref3, extra_branch_settings(3), (0, 0, 0))
        assert on_target(stats)
        assert len(stats) == 2 * (3 - 1)
        for _, value, target in stats:
            assert abs(value - target) < 1e-12
