import numpy as np
import pytest

from bellcert.bell import (
    BellExpression,
    bell_coefficients,
    build_bell_operator,
    quantum_value,
    setting_stacks,
)
from bellcert import quantum
from bellcert.linalg import herm_eig, max_abs
from bellcert.quantum import pure_state, random_projective_observable
from bellcert.reference import ghz_like_vector, target_observables
from bellcert.seesaw import (
    _effective_operators,
    optimal_observable_update,
    optimal_state_update,
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

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(42)
        h = rng.standard_normal((3, 2, 3, 3)) + 1j * rng.standard_normal((3, 2, 3, 3))
        h = h + np.conj(np.swapaxes(h, -1, -2))
        out = optimal_observable_update(h)
        for idx in np.ndindex(3, 2):
            assert max_abs(out[idx] - herm_eig(h[idx]).sign()) < 1e-12


class TestStateUpdate:
    def test_reference_operator_two_parties(self):
        expr = BellExpression(2, (0, 0))
        op = build_bell_operator(expr, target_observables(2))
        vector, value = optimal_state_update(op)
        assert abs(value - 2.0) < 1e-10
        phi = ghz_like_vector((0, 0))
        assert phase_distance(np.outer(vector, vector.conj()), np.outer(phi, phi.conj())) < 1e-10

    def test_reference_operator_three_parties(self):
        expr = BellExpression(3, (0, 0, 0))
        op = build_bell_operator(expr, target_observables(3))
        _, value = optimal_state_update(op)
        assert abs(value - 4.0) < 1e-10

    def test_value_is_top_eigenvalue(self):
        rng = np.random.default_rng(41)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (h + np.conj(h).T) / 2
        vector, value = optimal_state_update(h)
        assert abs(value - np.max(np.linalg.eigvalsh(h))) < 1e-10
        assert max_abs(h @ vector - value * vector) < 1e-10
        # A stack gives each operator's top eigenpair.
        vectors, values = optimal_state_update(np.stack([h, -h]))
        assert abs(values[0] - value) < 1e-12
        assert abs(values[1] + np.min(np.linalg.eigvalsh(h))) < 1e-10
        assert max_abs(h @ vectors[1] + values[1] * vectors[1]) < 1e-10


class TestSeesaw:
    def test_monotone_convergence(self):
        expr = BellExpression(2, (0, 0))
        values = []
        for seed in range(5):
            (result,) = seesaw_restarts(expr, (2, 2), [seed], max_iters=50)
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
        rng = np.random.default_rng(7)
        observables = [
            [random_projective_observable(2, rng) for _ in range(2)] for _ in range(2)
        ]
        coefficients = bell_coefficients(expr)
        last = -np.inf
        for _ in range(10):
            op = build_bell_operator(expr, observables)
            vector, value = optimal_state_update(op)
            assert value >= last - 1e-12
            last = value
            for party in range(2):
                stacks = [s[np.newaxis] for s in setting_stacks(observables)]
                (effective,) = _effective_operators(
                    vector[np.newaxis], (2, 2), stacks, coefficients, party
                )
                for setting in (0, 1):
                    observables[party][setting] = optimal_observable_update(effective[1 + setting])
                    op = build_bell_operator(expr, observables)
                    value = float(np.real(np.vdot(vector, op @ vector)))
                    assert value >= last - 1e-12
                    last = value


def reference_seesaw(expr, dims, seed):
    """The per-setting sweep: one dense effective operator per setting, and
    ``quantum_value`` for every iteration value, with the default rule of
    ``seesaw_restarts`` (at most 200 iterations, a gain below 1e-12 ends)."""
    rng = np.random.default_rng(seed)
    observables = [[random_projective_observable(d, rng) for _ in range(2)] for d in dims]
    value = -np.inf
    for iterations in range(1, 201):
        top = herm_eig(build_bell_operator(expr, observables)).eigenvectors[:, -1]
        state = pure_state(top, dims)
        for party in range(expr.parties):
            for setting in (0, 1):
                eff = dense_effective_operator(expr, observables, state.density, party, setting)
                observables[party][setting] = optimal_observable_update(eff)
        new_value = quantum_value(state, observables, expr)
        if new_value - value < 1e-12 and iterations > 1:
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
        value, iterations, converged = reference_seesaw(expr, dims, seed)
        (result,) = seesaw_restarts(expr, dims, [seed])
        assert abs(result.value - value) <= 1e-12
        assert (result.iterations, result.converged) == (iterations, converged)


LOCKSTEP_CASES = [
    ((2, 2), (1, 0)),
    ((2, 3, 2), (0, 0, 0)),
    ((2, 3, 2), (1, 0, 1)),
    ((3, 3, 3, 3), (1, 0, 1, 0)),
]


def assert_same_runs(batch, singles):
    assert len(batch) == len(singles)
    for b, s in zip(batch, singles):
        assert abs(b.value - s.value) <= 1e-12
        assert (b.iterations, b.converged) == (s.iterations, s.converged)


@pytest.mark.parametrize("dims, target", LOCKSTEP_CASES)
def test_lockstep_matches_single_restarts(dims, target):
    expr = BellExpression(len(dims), target)
    batch = seesaw_restarts(expr, dims, range(10))
    singles = [seesaw_restarts(expr, dims, [s])[0] for s in range(10)]
    assert_same_runs(batch, singles)
    for r in batch:
        assert r.vector.shape == (int(np.prod(dims)),)
        assert np.array_equal(r.state.density, pure_state(r.vector, dims).density)
        assert r.state.dims == dims


@pytest.mark.parametrize(
    "dims, target, exits",
    [
        # Qubit restarts all converge at iteration 2, so the cut at 3 leaves them be.
        ((2, 2), (1, 0), {200: {(2, True)}, 3: {(2, True)}}),
        ((2, 3, 2), (1, 0, 1), {200: {(3, True), (4, True)}, 3: {(3, True), (3, False)}}),
        ((3, 3, 3, 3), (0, 0, 0, 0), {200: {(3, True), (4, True)}, 3: {(3, True), (3, False)}}),
    ],
)
def test_restarts_leave_the_batch_at_their_own_iteration(dims, target, exits):
    # Restarts that converge at different iterations, or run out of them
    # beside restarts that converge, keep their seeds' results.
    expr = BellExpression(len(dims), target)
    seeds = [7, 0, 5, 2, 9, 4]
    for max_iters, pinned in exits.items():
        batch = seesaw_restarts(expr, dims, seeds, max_iters=max_iters)
        assert {(r.iterations, r.converged) for r in batch} == pinned
        singles = [seesaw_restarts(expr, dims, [s], max_iters=max_iters)[0] for s in seeds]
        assert_same_runs(batch, singles)


@pytest.mark.parametrize("dims, target", LOCKSTEP_CASES)
def test_chunked_restarts_match_one_chunk(dims, target, monkeypatch):
    expr = BellExpression(len(dims), target)
    whole = seesaw_restarts(expr, dims, range(7))
    # Three Bell operators per chunk: seven restarts go in chunks of 3, 3 and 1.
    dim = int(np.prod(dims))
    monkeypatch.setattr(quantum, "CHUNK_BYTES", 3 * 16 * dim**2)
    assert [len(range(7)[c]) for c in quantum._chunks(7, dim)] == [3, 3, 1]
    assert_same_runs(seesaw_restarts(expr, dims, range(7)), whole)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_iters": 0}, "max_iters must be at least 1"),
        ({"convergence_tol": 0.0}, "convergence_tol must be positive"),
        ({"local_dims": (2, 1)}, "local dimensions must be at least 2"),
    ],
)
def test_invalid_run_parameters_rejected(kwargs, message):
    arguments = {"local_dims": (2, 2), **kwargs}
    with pytest.raises(ValueError, match=message):
        seesaw_restarts(BellExpression(2, (0, 0)), seeds=[0], **arguments)
