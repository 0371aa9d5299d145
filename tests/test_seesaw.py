import warnings

import numpy as np
import pytest

from bellcert.bell import (
    BellExpression,
    bell_terms,
    build_bell_operator,
    quantum_value,
    setting_stacks,
)
from bellcert import bell, quantum, seesaw
from bellcert.linalg import herm_eig, max_abs
from bellcert.quantum import pure_state
from bellcert.reference import ghz_like_vector, target_observables
from bellcert.seesaw import (
    _effective_operators,
    optimal_observable_update,
    optimal_state_update,
    seesaw_restarts,
)

from conftest import X, Z, phase_distance, projective_observable
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
            o_old = projective_observable(4, rng)
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


def random_hermitian(top_values, seed, dim=32):
    """``U diag(lambda) U^dag`` for a seeded Haar ``U``, and ``U``, at a
    dimension that takes the iterative state update: ``lambda`` starts with
    ``top_values`` and fills up with values below them."""
    assert dim >= seesaw.ITERATIVE_MIN_DIM
    low = min(top_values)
    eigenvalues = [*top_values, *np.linspace(low - 2.0, low - 1.0, dim - len(top_values))]
    u = quantum.random_unitary(dim, seed)
    return (u * np.asarray(eigenvalues)) @ u.conj().T, u


def random_unit(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return x / np.linalg.norm(x)


def dense_top(b):
    values, vectors = np.linalg.eigh(b)
    return vectors[:, -1], values[-1]


class TestStateUpdateFallback:
    """The iterative state update against ``np.linalg.eigh`` as the oracle."""

    def test_start_orthogonal_to_top_falls_back(self):
        b, u = random_hermitian([3.0, 1.0, 0.5, -1.0, -2.0], 43)
        start = u[:, 1]  # the second eigenvector: converged, but not the top
        assert seesaw._rayleigh_top(b, start, np.empty_like(b)) is None
        vector, value = optimal_state_update(b, start)
        top, top_value = dense_top(b)
        assert abs(value - top_value) <= 1e-12
        assert abs(abs(np.vdot(top, vector)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("with_start", [False, True])
    def test_degenerate_top_lies_in_the_top_eigenspace(self, with_start):
        b, u = random_hermitian([3.0, 3.0, 1.0, 0.0, -2.0], 44)
        start = random_unit(len(b), 45) if with_start else None
        vector, value = optimal_state_update(b, start)
        assert abs(value - 3.0) <= 1e-12
        assert np.linalg.norm(b @ vector - 3.0 * vector) <= 1e-12
        assert abs(np.linalg.norm(u[:, :2].conj().T @ vector) - 1.0) <= 1e-12

    def test_singular_solve_falls_back_alone(self):
        # The start's Rayleigh quotient is exactly the eigenvalue 1, so
        # B - rho I has an exact zero pivot.
        dim = 32
        singular = np.diag([3.0, 1.0] + [0.0] * (dim - 2)).astype(complex)
        start = np.full(dim, np.sqrt(0.5 / (dim - 2)), dtype=complex)
        start[:2] = 0.5
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular - np.eye(dim), start)
        assert seesaw._rayleigh_top(singular, start, np.empty_like(singular)) is None
        neighbour, u = random_hermitian([2.0, 1.5, 0.0, -1.0], 46)
        near = u[:, 0] + 0.1 * u[:, 1]
        near /= np.linalg.norm(near)
        vectors, values = optimal_state_update(
            np.stack([singular, neighbour]), np.stack([start, near])
        )
        assert abs(values[0] - 3.0) <= 1e-12
        assert abs(abs(vectors[0, 0]) - 1.0) <= 1e-12
        alone_vector, alone_value = optimal_state_update(neighbour, near)
        assert np.array_equal(vectors[1], alone_vector) and values[1] == alone_value
        assert abs(alone_value - 2.0) <= 1e-12

    @pytest.mark.parametrize("with_start", [False, True])
    def test_single_operator_keeps_its_shape(self, with_start):
        b, u = random_hermitian([1.0, 4.0, -2.0], 47)
        start = None
        if with_start:
            start = u[:, 0] + 0.2 * u[:, 1]
            start /= np.linalg.norm(start)
        vector, value = optimal_state_update(b, start)
        assert vector.shape == (len(b),) and np.ndim(value) == 0
        top, top_value = dense_top(b)
        assert abs(value - top_value) <= 1e-12
        assert abs(abs(np.vdot(top, vector)) - 1.0) <= 1e-12

    def test_small_operators_take_the_stacked_eigh(self):
        dim = 8
        assert dim < seesaw.ITERATIVE_MIN_DIM
        u = quantum.random_unitary(dim, 48)
        b = (u * np.arange(dim)) @ u.conj().T
        vector, value = optimal_state_update(b, random_unit(dim, 49))
        top, top_value = dense_top(b)
        assert np.array_equal(vector, top) and value == top_value

    def test_lockstep_run_needs_no_dense_eigh(self, monkeypatch):
        # On the benchmark's shape every state update is checked and
        # accepted: the first iteration starts from Lanczos Ritz vectors, so
        # no D x D eigvalsh or eigh is made.
        calls = []

        def spy(name):
            original = getattr(np.linalg, name)

            def counting(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return original(a, *args, **kwargs)

            return counting

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        seesaw_restarts(BellExpression(4, (0, 0, 0, 0)), (3, 3, 3, 3), range(10))
        assert [c for c in calls if c[1][-1] == 81] == []
        assert all(c[0] == "eigh" for c in calls)


def dense_eigh_calls(monkeypatch, dim):
    """A list that records each ``np.linalg.eigh`` call on a dim x dim matrix."""
    calls, original = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        if np.shape(a)[-2:] == (dim, dim):
            calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def hermitian_with_eigenpair(vector, value, others, seed):
    """A Hermitian matrix with the eigenpair ``(vector, value)`` for a unit
    ``vector``; seeded eigenvectors spanning its complement take the values
    ``others``."""
    u = quantum.random_unitary(len(vector), seed)
    basis = np.linalg.qr(np.column_stack([vector, u[:, 1:]]))[0]
    return (basis * np.array([value, *others])) @ basis.conj().T


class TestRitzStart:
    """The first state update, without a start vector, begins each operator's
    iteration at a top Ritz vector of Lanczos steps from the seed-0 vector."""

    def test_top_orthogonal_to_the_seed_vector_falls_back(self, monkeypatch):
        # The Krylov space of the seed vector misses the top eigenvector, and
        # the next eigenvalue, 1e-3 below, is where the iteration ends: the
        # Cholesky check refuses it, and a dense eigh gives the top pair.
        dim = 32
        seed_vector = seesaw._seed_vector(dim)
        top = random_unit(dim, 50)
        top -= np.vdot(seed_vector, top) * seed_vector
        top /= np.linalg.norm(top)
        assert abs(np.vdot(seed_vector, top)) <= 1e-15
        b = hermitian_with_eigenpair(top, 3.0, np.linspace(2.999, 0.0, dim - 1), 51)
        other, _ = random_hermitian([2.0, 1.0, 0.5], 52)
        calls = dense_eigh_calls(monkeypatch, dim)
        vectors, values = optimal_state_update(np.stack([b, other]))
        assert calls == [(dim, dim)]
        expected, expected_value = dense_top(b)
        assert abs(values[0] - expected_value) <= 1e-12
        assert abs(abs(np.vdot(expected, vectors[0])) - 1.0) <= 1e-12
        assert abs(values[1] - 2.0) <= 1e-12

    def test_degenerate_top_in_a_stack(self, monkeypatch):
        b, u = random_hermitian([3.0, 3.0, 1.0, 0.0, -2.0], 53)
        other, _ = random_hermitian([-1.0, -1.5], 54)
        calls = dense_eigh_calls(monkeypatch, len(b))
        vectors, values = optimal_state_update(np.stack([b, other, b]))
        assert calls == []
        for r in (0, 2):
            assert abs(values[r] - 3.0) <= seesaw.TOP_MARGIN
            assert abs(np.linalg.norm(u[:, :2].conj().T @ vectors[r]) - 1.0) <= 1e-12
        assert abs(values[1] + 1.0) <= seesaw.TOP_MARGIN

    def test_seed_vector_in_an_invariant_subspace(self, monkeypatch):
        # The seed vector is an eigenvector, so the first Lanczos step breaks
        # down; the basis goes on from a fresh vector orthogonal to it, in
        # which the top eigenvector lies.  The zero operator breaks down at
        # every step.
        dim = 40
        seed_vector = seesaw._seed_vector(dim)
        b = hermitian_with_eigenpair(seed_vector, 1.5, [2.0, 1.0] + [-1.0] * (dim - 3), 55)
        assert np.linalg.norm(b @ seed_vector - 1.5 * seed_vector) <= 1e-12
        calls = dense_eigh_calls(monkeypatch, dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vectors, values = optimal_state_update(np.stack([b, np.zeros_like(b)]))
        assert calls == []
        expected, expected_value = dense_top(b)
        assert abs(values[0] - 2.0) <= 1e-12 and abs(expected_value - 2.0) <= 1e-12
        assert abs(abs(np.vdot(expected, vectors[0])) - 1.0) <= 1e-12
        assert values[1] == 0.0 and abs(np.linalg.norm(vectors[1]) - 1.0) <= 1e-12


def spy_calls(monkeypatch, owner, name):
    """A list that records the argument shapes of each ``owner.name`` call."""
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(tuple(np.shape(a) for a in args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestWarmLanczos:
    """A state update with a start runs Lanczos from it, each operator until
    its top Ritz residual estimate meets ``RESIDUAL_TOL`` or the steps run
    out, and the Rayleigh-quotient iteration only checks or polishes."""

    def test_top_eigenvector_start_is_kept_without_a_solve(self, monkeypatch):
        b, u = random_hermitian([3.0, 1.0, 0.5, -1.0], 60)
        start = u[:, 0]
        solves = spy_calls(monkeypatch, np.linalg, "solve")
        checks = spy_calls(monkeypatch, seesaw, "_top_ritz")
        warm = seesaw._ritz_starts(b[np.newaxis], start[np.newaxis])
        assert np.array_equal(warm[0], start)
        # One Lanczos step: the only residual estimate is that of a 1 x 1
        # tridiagonal matrix.
        assert checks == [((1, 1), (1, 0))]
        vector, value = optimal_state_update(b, start)
        assert solves == []
        assert np.array_equal(vector, start) and abs(value - 3.0) <= 1e-12

    def test_start_orthogonal_to_the_top_gets_one_dense_eigh(self, monkeypatch):
        # The start spans an invariant subspace without the top eigenvector,
        # so Lanczos ends at the top pair there; the Cholesky check refuses
        # it, and one dense eigh gives the top pair.
        b, u = random_hermitian([3.0, 1.0, 0.5, -1.0], 61)
        start = (u[:, 1] + u[:, 2]) / np.sqrt(2.0)
        assert abs(np.vdot(u[:, 0], start)) <= 1e-15
        calls = dense_eigh_calls(monkeypatch, len(b))
        solves = spy_calls(monkeypatch, np.linalg, "solve")
        vector, value = optimal_state_update(b, start)
        assert calls == [(len(b), len(b))] and solves == []
        top, top_value = dense_top(b)
        assert value == top_value and abs(value - 3.0) <= 1e-12
        assert abs(abs(np.vdot(top, vector)) - 1.0) <= 1e-12

    def test_row_that_misses_the_step_cap_is_polished(self, monkeypatch):
        # Forty eigenvalues evenly spaced from 3 down to 0 at D = 64: a
        # Krylov space of WARM_STEPS vectors leaves the top Ritz residual
        # near 1e-3, so Rayleigh-quotient iteration finishes the row, while
        # its neighbour in the stack converges within the cap.  (A small
        # gap alone is not enough: with the rest of the spectrum far below,
        # Lanczos separates a top pair 1e-7 apart within the cap.)
        dim = 2 * seesaw.WARM_STEPS
        b, u = random_hermitian(list(np.linspace(3.0, 0.0, 40)), 62, dim)
        start = random_unit(dim, 63)
        other, v = random_hermitian([2.0, 1.0, 0.5], 64, dim)
        near = v[:, 0] + 0.1 * v[:, 1]
        near /= np.linalg.norm(near)
        starts = seesaw._ritz_starts(np.stack([b, other]), np.stack([start, near]))
        assert np.linalg.norm(b @ starts[0] - np.vdot(starts[0], b @ starts[0]) * starts[0]) > 1e-6
        calls = dense_eigh_calls(monkeypatch, len(b))
        solves = spy_calls(monkeypatch, np.linalg, "solve")
        vectors, values = optimal_state_update(np.stack([b, other]), np.stack([start, near]))
        assert calls == [] and len(solves) >= 1
        assert abs(values[0] - 3.0) <= 1e-12 and abs(values[1] - 2.0) <= 1e-12
        assert abs(abs(np.vdot(u[:, 0], vectors[0])) - 1.0) <= 1e-12
        # The neighbour's row is the one it gets alone.
        alone_vector, alone_value = optimal_state_update(other, near)
        assert np.array_equal(vectors[1], alone_vector) and values[1] == alone_value

    def test_benchmark_shape_solves_only_in_the_first_update(self, monkeypatch):
        # Ten restarts on four qutrits (D = 81): every update after the
        # first starts from the previous vectors, and its Lanczos steps
        # meet the tolerance without a solve.
        solves = []
        updates = []
        solve = np.linalg.solve
        update = seesaw.optimal_state_update

        def counting_solve(*args, **kwargs):
            solves.append(len(updates))
            return solve(*args, **kwargs)

        def counting_update(operators, start=None):
            updates.append(start is None)
            return update(operators, start)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(seesaw, "optimal_state_update", counting_update)
        seesaw_restarts(BellExpression(4, (0,) * 4), (3,) * 4, range(10))
        assert updates[0] and not any(updates[1:])
        assert set(solves) == {1}
        assert len(solves) == 11


class TestSeesaw:
    def test_monotone_convergence(self, monkeypatch):
        monkeypatch.setattr(seesaw, "MAX_ITERS", 50)
        expr = BellExpression(2, (0, 0))
        values = []
        for seed in range(5):
            (result,) = seesaw_restarts(expr, (2, 2), [seed])
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
            [projective_observable(2, rng) for _ in range(2)] for _ in range(2)
        ]
        terms = bell_terms(expr)
        last = -np.inf
        for _ in range(10):
            op = build_bell_operator(expr, observables)
            vector, value = optimal_state_update(op)
            assert value >= last - 1e-12
            last = value
            for party in range(2):
                stacks = [s[np.newaxis] for s in setting_stacks(observables)]
                (effective,) = _effective_operators(
                    vector[np.newaxis], (2, 2), stacks, terms, party
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
    observables = [[projective_observable(d, rng) for _ in range(2)] for d in dims]
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


@pytest.mark.parametrize(
    "dims, target, count",
    [((3, 3, 3, 3), (0, 0, 0, 0), 100), ((2,) * 5, (0,) * 5, 25), ((4, 4, 4), (1, 0, 1), 25)]
    + [(dims, target, 25) for dims, target in LOCKSTEP_CASES],
)
def test_seeded_sweep_matches_dense_reference(dims, target, count):
    # From D = seesaw.ITERATIVE_MIN_DIM on, every state update after the
    # first starts from the previous iteration's vector; the reference
    # diagonalizes each Bell operator densely.
    expr = BellExpression(len(dims), target)
    seeds = range(1000, 1000 + count)
    for seed, result in zip(seeds, seesaw_restarts(expr, dims, seeds)):
        value, iterations, converged = reference_seesaw(expr, dims, seed)
        assert abs(result.value - value) <= 1e-12
        assert (result.iterations, result.converged) == (iterations, converged)


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
def test_restarts_leave_the_batch_at_their_own_iteration(dims, target, exits, monkeypatch):
    # Restarts that converge at different iterations, or run out of them
    # beside restarts that converge, keep their seeds' results.
    expr = BellExpression(len(dims), target)
    seeds = [7, 0, 5, 2, 9, 4]
    for max_iters, pinned in exits.items():
        monkeypatch.setattr(seesaw, "MAX_ITERS", max_iters)
        batch = seesaw_restarts(expr, dims, seeds)
        assert {(r.iterations, r.converged) for r in batch} == pinned
        singles = [seesaw_restarts(expr, dims, [s])[0] for s in seeds]
        assert_same_runs(batch, singles)


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 2)])
def test_results_share_no_memory_with_the_chunk(dims, monkeypatch):
    # The chunk's operator stack, setting stacks and state rows are written
    # again after a restart leaves the batch; its result keeps copies.
    buffers = []

    def keeping(coefficients, stacks, out=None):
        buffers.extend([out, *stacks])
        return bell.bell_operators(coefficients, stacks, out=out)

    def keeping_states(operators, start=None):
        top = optimal_state_update(operators, start)
        buffers.append(top[0])
        return top

    monkeypatch.setattr(seesaw, "bell_operators", keeping)
    monkeypatch.setattr(seesaw, "optimal_state_update", keeping_states)
    expr = BellExpression(len(dims), (0,) * len(dims))
    results = seesaw_restarts(expr, dims, [7, 0, 5, 2, 9, 4])
    assert len({r.iterations for r in results}) > 1
    for r in results:
        for a in (r.vector, *r.observables):
            assert not any(np.shares_memory(a, b) for b in buffers)
        value = quantum_value(r.state, r.observables, expr)
        assert abs(value - r.value) <= 1e-12


@pytest.mark.parametrize("dims, target", LOCKSTEP_CASES)
def test_chunked_restarts_match_one_chunk(dims, target, monkeypatch):
    expr = BellExpression(len(dims), target)
    whole = seesaw_restarts(expr, dims, range(7))
    # Three Bell operators per chunk: seven restarts go in chunks of 3, 3 and 1.
    dim = int(np.prod(dims))
    monkeypatch.setattr(quantum, "CHUNK_BYTES", 3 * 16 * dim**2)
    assert [len(range(7)[c]) for c in quantum._chunks(7, dim)] == [3, 3, 1]
    assert_same_runs(seesaw_restarts(expr, dims, range(7)), whole)


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 4), (2, 2)])
def test_stacked_starts_are_each_seeds_observables(dims):
    # The starts that reference_seesaw draws, one restart at a time.
    seeds = [0, 1, 7, 1000]
    stacks = seesaw._starting_stacks(dims, seeds)
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        one = setting_stacks([[projective_observable(d, rng) for _ in range(2)] for d in dims])
        assert all(np.array_equal(s[r], o) for s, o in zip(stacks, one))


@pytest.mark.parametrize("target", [(0, 0, 0, 0), (1, 0, 1, 1)])
def test_one_iteration_applies_thirty_factors(target, monkeypatch):
    # Per iteration at N = 4: 6 factors for party 0, whose two settings
    # share each term's product, and 8 for each other party, which applies
    # party 0's two settings as one merged operator.  The seesaw reaches
    # the factors through the Bell-term kernel in ``bell``.
    calls = []
    apply = bell._apply

    def counting(*args):
        calls.append(args)
        return apply(*args)

    monkeypatch.setattr(bell, "_apply", counting)
    monkeypatch.setattr(seesaw, "MAX_ITERS", 1)
    seesaw_restarts(BellExpression(4, target), (2, 2, 2, 2), range(3))
    assert len(calls) == 30


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"local_dims": (2, 2, 2)}, "need 2 local dimensions, got 3"),
        ({"local_dims": (2, 1)}, "local dimensions must be at least 2"),
    ],
)
def test_invalid_run_parameters_rejected(kwargs, message):
    arguments = {"local_dims": (2, 2), **kwargs}
    with pytest.raises(ValueError, match=message):
        seesaw_restarts(BellExpression(2, (0, 0)), seeds=[0], **arguments)
