"""The local-operator contraction against the dense Kronecker formulas it
replaced, which are kept here as the oracle."""

import itertools

import numpy as np
import pytest

from bellcert.linalg import DimensionMismatchError, dagger, kron, max_abs
from bellcert.quantum import (
    DichotomicObservable,
    born_probability,
    expectation,
    local_contraction,
    post_measurement_state,
    random_density,
    random_projective_observable,
)
from bellcert.reference import reference_strategy
from bellcert.scenario import run_scenario, scramble_strategy

EXACT = 1e-14


def dense_probability(rho, effects):
    """Oracle: ``Tr[(E_1 ox ... ox E_N) rho]`` with the Kronecker effect."""
    return float(np.real(np.trace(kron(*effects) @ rho)))


def dense_post_measurement(rho, projectors):
    """Oracle: ``Pi rho Pi^dag / p`` with the Kronecker projector."""
    pi = kron(*projectors)
    out = pi @ rho @ dagger(pi)
    return out / np.real(np.trace(out))


def dense_distributions(rho, observables):
    """Oracle outcome table ``{x: probs}`` of one state, one probability at a time."""
    n = len(observables)
    tables = {}
    for x in itertools.product((0, 1), repeat=n):
        probs = np.zeros((2,) * n)
        for a in itertools.product((0, 1), repeat=n):
            probs[a] = dense_probability(rho, [observables[k][x[k]].effect(a[k]) for k in range(n)])
        tables[x] = probs
    return tables


def random_observables(dims, rng):
    return [
        tuple(DichotomicObservable(random_projective_observable(d, rng)) for _ in (0, 1))
        for d in dims
    ]


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 2)])
def test_born_probability_matches_dense_formula(dims):
    rng = np.random.default_rng(40)
    for _ in range(3):
        state = random_density(dims, rng)
        observables = random_observables(dims, rng)
        dense = dense_distributions(state.density, observables)
        for x, probs in dense.items():
            for a in itertools.product((0, 1), repeat=len(dims)):
                effects = [observables[k][x[k]].effect(a[k]) for k in range(len(dims))]
                assert abs(born_probability(state, effects) - probs[a]) <= EXACT


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 2)])
def test_contraction_table_matches_dense_formula(dims):
    rng = np.random.default_rng(41)
    rho = random_density(dims, rng).density
    stacks = [
        np.stack([random_projective_observable(d, rng) for _ in range(m)])
        for m, d in zip((3, 1, 2), dims)
    ]
    table = local_contraction(rho, dims, stacks)
    assert table.shape == tuple(s.shape[0] for s in stacks)
    for idx in itertools.product(*[range(s.shape[0]) for s in stacks]):
        ops = [s[i] for s, i in zip(stacks, idx)]
        assert abs(table[idx] - np.trace(kron(*ops) @ rho)) <= EXACT


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 2)])
def test_expectation_matches_dense_formula(dims):
    rng = np.random.default_rng(42)
    state = random_density(dims, rng)
    ops = [random_projective_observable(d, rng) for d in dims]
    dense = float(np.real(np.trace(kron(*ops) @ state.density)))
    assert abs(expectation(state, ops) - dense) <= EXACT
    ops[1] = None
    dense = float(np.real(np.trace(kron(ops[0], np.eye(dims[1]), *ops[2:]) @ state.density)))
    assert abs(expectation(state, ops) - dense) <= EXACT


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 2)])
def test_post_measurement_state_matches_dense_formula(dims):
    rng = np.random.default_rng(43)
    state = random_density(dims, rng)
    observables = random_observables(dims, rng)
    for x in itertools.product((0, 1), repeat=len(dims)):
        for a in itertools.product((0, 1), repeat=len(dims)):
            projectors = [observables[k][x[k]].effect(a[k]) for k in range(len(dims))]
            out = post_measurement_state(state, projectors)
            assert max_abs(out.density - dense_post_measurement(state.density, projectors)) <= EXACT


def test_contraction_rejects_mismatched_operators():
    rho = np.eye(6) / 6
    with pytest.raises(DimensionMismatchError):
        local_contraction(rho, (2, 3), [np.eye(2)])
    with pytest.raises(DimensionMismatchError):
        local_contraction(rho, (2, 3), [np.eye(2), np.eye(2)[None]])
    state = random_density((2, 3), 0)
    with pytest.raises(DimensionMismatchError):
        post_measurement_state(state, [np.eye(2), np.eye(3), np.eye(1)])


@pytest.mark.parametrize("parties, aux", [(3, (1, 2, 1)), (4, (1, 1, 1, 1))])
def test_run_scenario_matches_dense_formula(parties, aux):
    strategy = scramble_strategy(reference_strategy(parties), aux, seed=9).strategy
    record = run_scenario(strategy)
    rho = strategy.source_state.density
    for x, probs in dense_distributions(rho, strategy.observables_t1).items():
        assert max_abs(record.p1[x] - probs) <= EXACT
    v = strategy.interaction.matrix
    assert len(record.p2) == 2**parties + 1
    for (x1, a1), tables in record.p2.items():
        projectors = [strategy.observables_t1[k][x1[k]].effect(a1[k]) for k in range(parties)]
        sigma = v @ dense_post_measurement(rho, projectors) @ dagger(v)
        assert max_abs(record.conditional_states[(x1, a1)].density - sigma) <= EXACT
        for x2, probs in dense_distributions(sigma, strategy.observables_t2).items():
            assert max_abs(tables[x2] - probs) <= EXACT
