import numpy as np
import pytest

from bellcert.bell import (
    BellExpression,
    bell_coefficients,
    build_bell_operator,
    quantum_value,
    setting_stacks,
)
from bellcert.linalg import max_abs
from bellcert.quantum import random_projective_observable
from bellcert.reference import ghz_like_vector, target_observables
from bellcert.seesaw import (
    SeesawConfig,
    _effective_operators,
    optimal_observable_update,
    optimal_state_update,
    seesaw_maximize,
    seesaw_restarts,
)

from conftest import X, Z, phase_distance
from test_contraction import dense_effective_operator


class TestObservableUpdate:
    def test_sign_fixed_point(self):
        assert max_abs(optimal_observable_update(Z) - Z) < 1e-12

    def test_scale_invariance(self):
        assert max_abs(optimal_observable_update(0.3 * X) - X) < 1e-12

    def test_degenerate_effective_operator(self):
        out = optimal_observable_update(np.diag([1.0, 0.0]).astype(complex))
        assert max_abs(out @ out - np.eye(2)) < 1e-12

    def test_never_decreases_objective(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (h + np.conj(h).T) / 2
            o_old = random_projective_observable(4, rng)
            o_new = optimal_observable_update(h)
            assert np.real(np.trace(o_new @ h)) >= np.real(np.trace(o_old @ h)) - 1e-10


class TestStateUpdate:
    def test_reference_operator_two_parties(self):
        expr = BellExpression(2, (0, 0))
        op = build_bell_operator(expr, target_observables(2))
        state, value = optimal_state_update(op, (2, 2))
        assert abs(value - 2.0) < 1e-10
        phi = ghz_like_vector((0, 0))
        assert phase_distance(state.density, np.outer(phi, phi.conj())) < 1e-10

    def test_reference_operator_three_parties(self):
        expr = BellExpression(3, (0, 0, 0))
        op = build_bell_operator(expr, target_observables(3))
        _, value = optimal_state_update(op, (2, 2, 2))
        assert abs(value - 4.0) < 1e-10

    def test_value_is_top_eigenvalue(self):
        rng = np.random.default_rng(41)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (h + np.conj(h).T) / 2
        _, value = optimal_state_update(h, (2, 2))
        assert abs(value - np.max(np.linalg.eigvalsh(h))) < 1e-10


class TestSeesaw:
    def test_monotone_convergence(self):
        expr = BellExpression(2, (0, 0))
        values = []
        for seed in range(5):
            cfg = SeesawConfig(local_dims=(2, 2), max_iters=50, seed=seed)
            result = seesaw_maximize(expr, cfg)
            values.append(result.value)
            assert result.value <= expr.quantum_bound + 1e-9
        assert max(values) >= expr.quantum_bound - 1e-6

    def test_restart_stability_two_parties(self):
        expr = BellExpression(2, (0, 0))
        results = seesaw_restarts(expr, (2, 2), range(20))
        good = sum(r.value >= expr.quantum_bound - 1e-4 for r in results)
        assert good >= 18

    def test_three_party_target(self):
        expr = BellExpression(3, (0, 0, 0))
        results = seesaw_restarts(expr, (2, 2, 2), range(10))
        assert max(r.value for r in results) >= expr.quantum_bound - 1e-6

    def test_no_dimension_advantage(self):
        expr = BellExpression(2, (0, 0))
        results = seesaw_restarts(expr, (3, 3), range(8))
        for r in results:
            assert r.value <= expr.quantum_bound + 1e-9

    def test_per_iteration_monotonicity(self):
        # re-run one seed manually, tracking the value after every update
        expr = BellExpression(2, (0, 1))
        cfg = SeesawConfig(local_dims=(2, 2), max_iters=30, seed=7)
        rng = np.random.default_rng(cfg.seed)
        observables = [
            [random_projective_observable(2, rng) for _ in range(2)] for _ in range(2)
        ]
        coefficients = bell_coefficients(expr)
        last = -np.inf
        state = None
        for _ in range(10):
            op = build_bell_operator(expr, observables)
            state, value = optimal_state_update(op, (2, 2))
            assert value >= last - 1e-12
            last = value
            for party in range(2):
                effective = _effective_operators(
                    state, setting_stacks(observables), coefficients, party
                )
                for setting in (0, 1):
                    observables[party][setting] = optimal_observable_update(effective[1 + setting])
                    value = float(
                        np.real(
                            np.trace(build_bell_operator(expr, observables) @ state.density)
                        )
                    )
                    assert value >= last - 1e-12
                    last = value


def reference_seesaw(expr, config):
    """The per-setting sweep: one dense effective operator per setting, and
    ``quantum_value`` for every iteration value."""
    dims = config.local_dims
    rng = np.random.default_rng(config.seed)
    observables = [[random_projective_observable(d, rng) for _ in range(2)] for d in dims]
    value = -np.inf
    for iterations in range(1, config.max_iters + 1):
        state, _ = optimal_state_update(build_bell_operator(expr, observables), dims)
        for party in range(expr.parties):
            for setting in (0, 1):
                eff = dense_effective_operator(expr, observables, state.density, party, setting)
                observables[party][setting] = optimal_observable_update(eff)
        new_value = quantum_value(state, observables, expr)
        if new_value - value < config.convergence_tol and iterations > 1:
            return max(value, new_value), iterations, True
        value = new_value
    return value, iterations, False


@pytest.mark.parametrize(
    "dims, target",
    [((2, 2), (0, 0)), ((2, 3, 2), (0, 0, 0)), ((3, 3, 3, 3), (0, 0, 0, 0)), ((2, 3, 2), (1, 0, 1))],
)
def test_sweep_matches_per_setting_reference(dims, target):
    expr = BellExpression(len(dims), target)
    for seed in range(10):
        config = SeesawConfig(local_dims=dims, seed=seed)
        value, iterations, converged = reference_seesaw(expr, config)
        result = seesaw_maximize(expr, config)
        assert abs(result.value - value) <= 1e-12
        assert (result.iterations, result.converged) == (iterations, converged)
