"""The local-operator contraction against the dense Kronecker formulas it
replaced, which are kept as the oracle (here, and in ``conftest`` for the
Bell and effective operators): Born probabilities, branch states (``Pi rho
Pi^dag / p``, then ``V sigma V^dag``, against the branch factors), Bell
values, and the seesaw's effective operators."""

import dataclasses
import itertools

import numpy as np
import pytest

from bellcert import quantum
from bellcert.bell import (
    _EFFECTS_FROM_SETTINGS,
    BellExpression,
    bell_coefficients,
    bell_operators,
    bell_terms,
    quantum_value,
    setting_stacks,
)
from bellcert.linalg import DimensionMismatchError, dagger, kron, max_abs
from bellcert.quantum import (
    FACTOR_FLOOR,
    ZERO_PROB,
    QuantumState,
    clamp_probabilities,
    effect_table,
    post_measurement_states,
    pure_state,
    random_density,
    random_unitary,
    white_noise_mix,
)
from bellcert.reference import reference_strategy
from bellcert.scenario import (
    bell_branch_settings,
    extra_branch_settings,
    run_scenario,
    scramble_strategy,
    second_round_tables,
)
from bellcert.seesaw import _effective_operators, _strategy_value

from conftest import (
    dense_bell_operator,
    dense_effective_operator,
    effect,
    identity_interaction,
    projective_observable,
    tilde_observables,
)

EXACT = 1e-14


def dense_post_measurement(rho, projectors):
    """Oracle: ``Pi rho Pi^dag / p`` with the Kronecker projector."""
    pi = kron(*projectors)
    out = pi @ rho @ dagger(pi)
    return out / np.real(np.trace(out))


def dense_effects(observables):
    """The Kronecker effect of every (settings, outcomes) pair, stacked."""
    n = len(observables)
    pairs = list(itertools.product(itertools.product((0, 1), repeat=n), repeat=2))
    effects = [kron(*[effect(observables[k][x[k]], a[k]) for k in range(n)]) for x, a in pairs]
    return pairs, np.stack(effects)


def dense_distributions(rho, observables, effects=None):
    """Oracle outcome table ``{x: probs}`` of one state: ``Tr[E rho]`` for
    the Kronecker effect ``E`` of every outcome vector (``dense_effects``)."""
    pairs, stack = dense_effects(observables) if effects is None else effects
    probs = np.real(np.einsum("kij,ji->k", stack, rho))
    tables = {}
    for (x, a), p in zip(pairs, probs):
        tables.setdefault(x, np.zeros((2,) * len(observables)))[a] = p
    return tables


def random_observables(dims, rng):
    return [tuple(projective_observable(d, rng) for _ in (0, 1)) for d in dims]


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 2)])
def test_born_probability_matches_dense_formula(dims):
    rng = np.random.default_rng(40)
    for _ in range(3):
        state = random_density(dims, rng)
        observables = random_observables(dims, rng)
        dense = dense_distributions(state.density, observables)
        for x, probs in dense.items():
            effects = [[effect(observables[k][x[k]], a) for a in (0, 1)] for k in range(len(dims))]
            table = clamp_probabilities(effect_table(state.density, dims, effects))
            assert np.max(np.abs(table - probs)) <= EXACT


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 2)])
def test_contraction_table_matches_dense_formula(dims):
    rng = np.random.default_rng(41)
    rho = random_density(dims, rng).density
    stacks = [
        np.stack([projective_observable(d, rng) for _ in range(m)])
        for m, d in zip((3, 1, 2), dims)
    ]
    table = effect_table(rho, dims, stacks)
    assert table.shape == tuple(s.shape[0] for s in stacks)
    for idx in itertools.product(*[range(s.shape[0]) for s in stacks]):
        ops = [s[i] for s, i in zip(stacks, idx)]
        assert abs(table[idx] - np.trace(kron(*ops) @ rho)) <= EXACT


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 2)])
def test_expectation_matches_dense_formula(dims):
    rng = np.random.default_rng(42)
    state = random_density(dims, rng)
    ops = [projective_observable(d, rng)[None] for d in dims]
    dense = np.trace(kron(*(op[0] for op in ops)) @ state.density)
    assert abs(effect_table(state.density, dims, ops).item() - dense) <= EXACT
    ops[1] = np.broadcast_to(np.eye(dims[1]), (1, dims[1], dims[1]))
    dense = np.trace(kron(*(op[0] for op in ops)) @ state.density)
    assert abs(effect_table(state.density, dims, ops).item() - dense) <= EXACT


@pytest.mark.parametrize("dims", [(2, 3, 2), (4, 2)])
def test_post_measurement_state_matches_dense_formula(dims):
    rng = np.random.default_rng(43)
    state = random_density(dims, rng)
    observables = random_observables(dims, rng)
    identity = identity_interaction(dims)
    for x in itertools.product((0, 1), repeat=len(dims)):
        for a in itertools.product((0, 1), repeat=len(dims)):
            projectors = [effect(observables[k][x[k]], a[k]) for k in range(len(dims))]
            (out,) = post_measurement_states(state, [p[None] for p in projectors], identity)
            assert max_abs(out.density - dense_post_measurement(state.density, projectors)) <= EXACT
    # The kernel applies Pi and Pi^dag separately, so it must also hold for
    # operators that are neither Hermitian nor projective.
    for _ in range(4):
        ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims]
        (out,) = post_measurement_states(state, [op[None] for op in ops], identity)
        assert max_abs(out.density - dense_post_measurement(state.density, ops)) <= EXACT
        ops[1] = np.eye(dims[1])
        (out,) = post_measurement_states(state, [op[None] for op in ops], identity)
        assert max_abs(out.density - dense_post_measurement(state.density, ops)) <= EXACT


@pytest.mark.parametrize("party", [0, 1, 2])
def test_shared_row_takes_a_whole_stack(party):
    # One (B, d, d) stack applied to one row of k = 3 vectors gives B rows,
    # each the row with that one operator applied, to the bit.
    dims = (2, 3, 2)
    rng = np.random.default_rng(44)
    d = dims[party]
    stack = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    row = rng.standard_normal((1, 12 * 3)) + 1j * rng.standard_normal((1, 12 * 3))
    rows = quantum._apply(stack, row, dims, party)
    assert rows.shape == (5, 36)
    for op, out in zip(stack, rows):
        assert np.array_equal(out, quantum._apply(op, row, dims, party)[0])


def test_contraction_rejects_mismatched_operators():
    rho = np.eye(6) / 6
    with pytest.raises(DimensionMismatchError):
        effect_table(rho, (2, 3), [np.eye(2)[None]])
    with pytest.raises(DimensionMismatchError):
        effect_table(rho, (2, 3), [np.eye(2)[None], np.eye(2)[None]])
    state = random_density((2, 3), 0)
    identity = identity_interaction((2, 3))
    with pytest.raises(DimensionMismatchError):
        three = [np.eye(2)[None], np.eye(3)[None], np.eye(1)[None]]
        post_measurement_states(state, three, identity)
    with pytest.raises(DimensionMismatchError):
        post_measurement_states(state, [np.eye(3)[None], np.eye(2)[None]], identity)
    with pytest.raises(DimensionMismatchError):
        post_measurement_states(state, [np.stack([np.eye(2)] * 2), np.eye(3)[None]], identity)


def product_source_strategy(parties):
    """The reference with the source |0...0>: Bell-branch events vanish."""
    reference = reference_strategy(parties)
    zero = np.zeros(2**parties)
    zero[0] = 1.0
    return dataclasses.replace(reference, source_state=pure_state(zero, (2,) * parties))


def skewed_source_strategy(parties, aux):
    """A scramble with white noise at visibility 0.9 and an anti-Hermitian
    part of about 5e-10 per entry, through the public constructor: its
    entries differ from their adjoint's by just under ``ALGEBRA_TOL``.  The
    auxiliary dims make some first-round projectors of rank above 1, whose
    branch states depend on the source beyond the event probabilities."""
    strategy = scramble_strategy(reference_strategy(parties), aux, seed=9).strategy
    source = strategy.source_state
    rho = white_noise_mix(source, 0.9).density
    rng = np.random.default_rng(61)
    g = rng.standard_normal(rho.shape) + 1j * rng.standard_normal(rho.shape)
    h = (g + dagger(g)) / 2.0
    skewed = rho + 1j * 4.5e-10 * h / max_abs(h)
    return dataclasses.replace(strategy, source_state=QuantumState(skewed, source.dims))


# aux None: the product source, whose vanishing events are left out; "noise":
# the noisy reference, of full rank on qubits, whose branches are contracted
# from their densities; "skew": a noisy scramble with an anti-Hermitian part,
# where every result must be the one of its Hermitian part.
@pytest.mark.parametrize(
    "parties, aux",
    [
        (3, (1, 2, 1)),
        (4, (1, 1, 1, 1)),
        (2, (3, 2)),
        (5, (1,) * 5),
        (3, None),
        (3, "noise"),
        (3, "skew"),
        (2, "skew"),
    ],
)
def test_run_scenario_matches_dense_formula(parties, aux):
    if aux is None:
        strategy = product_source_strategy(parties)
    elif aux == "noise":
        strategy = reference_strategy(parties)
        noisy = white_noise_mix(strategy.source_state, 0.9)
        strategy = dataclasses.replace(strategy, source_state=noisy)
    elif aux == "skew":
        strategy = skewed_source_strategy(parties, (1, 2, 1) if parties == 3 else (3, 2))
        assert max_abs(strategy.source_state.density - dagger(strategy.source_state.density)) > 8e-10
    else:
        strategy = scramble_strategy(reference_strategy(parties), aux, seed=9).strategy
    parties = strategy.parties
    record = run_scenario(strategy)
    rho = strategy.source_state.density
    rho = (rho + dagger(rho)) / 2.0
    p1 = dense_distributions(rho, strategy.observables_t1)
    for x, probs in p1.items():
        assert max_abs(record.p1[x] - probs) <= EXACT
    obs_t1, obs_t2 = strategy.observables_t1, strategy.observables_t2
    expr = BellExpression(parties, (0,) * parties)
    t1 = np.real(np.trace(dense_bell_operator(expr, obs_t1) @ rho))
    assert abs(record.t1_bell_value - t1) <= 1e-13

    v = strategy.interaction.matrix
    effects_t2 = dense_effects(strategy.observables_t2)
    events = [(bell_branch_settings(parties), a) for a in itertools.product((0, 1), repeat=parties)]
    events.append((extra_branch_settings(parties), (0,) * parties))
    kept = [(x1, a1) for x1, a1 in events if p1[x1][a1] > ZERO_PROB]
    assert list(record.events) == kept
    p2 = second_round_tables(record, strategy.observables_t2)
    assert len(p2) == len(record.conditional_states) == len(kept)
    if aux is None:
        assert len(kept) < len(events)
    else:
        assert len(kept) == 2**parties + 1
    for (x1, a1), tables, state in zip(record.events, p2, record.conditional_states):
        projectors = [effect(strategy.observables_t1[k][x1[k]], a1[k]) for k in range(parties)]
        sigma = v @ dense_post_measurement(rho, projectors) @ dagger(v)
        assert max_abs(state.density - sigma) <= EXACT
        for x2, probs in dense_distributions(sigma, strategy.observables_t2, effects_t2).items():
            assert max_abs(tables[x2] - probs) <= EXACT
        if x1 == bell_branch_settings(parties):
            op = dense_bell_operator(BellExpression(parties, a1), obs_t2)
            assert abs(record.t2_bell_values[a1] - np.real(np.trace(op @ sigma))) <= 1e-13
        else:
            t0 = tilde_observables(*obs_t2[0])[0]
            for label, value, target in record.extra_stats:
                party = int(label.split()[-1]) - 1
                ops = [np.eye(d) for d in strategy.interaction.dims_out]
                if label.startswith("tilde0"):
                    ops[0] = t0
                else:
                    ops[party] = obs_t2[party][1]
                assert abs(value - np.real(np.trace(kron(*ops) @ sigma))) <= 1e-13
    assert set(record.t2_bell_values) == {a for x, a in kept if x == bell_branch_settings(parties)}


def test_chunked_stack_matches_one_chunk(monkeypatch):
    # One branch per chunk: the nine branches go in nine chunks, both when
    # their factors are built and when they are contracted.
    strategy = scramble_strategy(reference_strategy(3), (1, 2, 1), seed=9).strategy
    whole = run_scenario(strategy)
    monkeypatch.setattr(quantum, "CHUNK_BYTES", 1)
    assert [len(range(9)[c]) for c in quantum._chunks(9, 16, 2)] == [1] * 9
    chunked = run_scenario(strategy)
    assert chunked.events == whole.events
    for event, state in enumerate(whole.conditional_states):
        assert max_abs(chunked.conditional_states[event].density - state.density) <= EXACT
    tables = [second_round_tables(r, strategy.observables_t2) for r in (chunked, whole)]
    assert max_abs(tables[0] - tables[1]) <= EXACT
    for outcomes, value in whole.t2_bell_values.items():
        assert abs(chunked.t2_bell_values[outcomes] - value) <= 1e-13
    extra = np.array([v for _, v, _ in chunked.extra_stats]) - [v for _, v, _ in whole.extra_stats]
    assert max_abs(extra) <= 1e-13


def source_with_spectrum(dims, eigenvalues, rng):
    """A source through the public constructor: ``U diag(eigenvalues) U^dag``
    for a Haar-random U."""
    u = random_unitary(int(np.prod(dims)), rng)
    rho = (u * np.asarray(eigenvalues)) @ dagger(u)
    return QuantumState((rho + dagger(rho)) / 2.0, dims)


# The edges of FACTOR_FLOOR: an eigenvalue of -5e-10, inside the loader's
# positivity tolerance, is kept with its sign; one at 1.2 times the floor is
# kept; one at 0.8 times the floor is dropped.
FLOOR_EDGES = {
    "negative": (-5e-10, 6),
    "just-kept": (1.2 * FACTOR_FLOOR, 6),
    "just-dropped": (0.8 * FACTOR_FLOOR, 5),
}


@pytest.mark.parametrize("edge", sorted(FLOOR_EDGES))
def test_factor_floor_edges_match_dense_formula(edge):
    small, rank = FLOOR_EDGES[edge]
    dims = (2, 3)
    rng = np.random.default_rng(60)
    eigenvalues = np.array([small, 0.1, 0.15, 0.2, 0.25, 0.0])
    eigenvalues[-1] = 1.0 - eigenvalues.sum()
    state = source_with_spectrum(dims, eigenvalues, rng)
    vectors, signs = state.factor
    assert vectors.shape == (6, rank)
    assert (signs.min() == -1.0) == (edge == "negative")
    # The README's bound: what the factor leaves out weighs at most
    # (D - r) * FACTOR_FLOOR in trace norm.
    spectrum = np.linalg.eigvalsh(state.density)
    dropped = spectrum[np.abs(spectrum) <= FACTOR_FLOOR]
    assert len(dropped) == 6 - rank
    assert np.sum(np.abs(dropped)) <= (6 - rank) * FACTOR_FLOOR

    observables_t1, observables_t2 = random_observables(dims, rng), random_observables(dims, rng)
    v = random_unitary(6, rng)
    pairs = list(itertools.product(itertools.product((0, 1), repeat=2), repeat=2))
    projectors = [
        np.stack([effect(observables_t1[k][x[k]], a[k]) for x, a in pairs]) for k in (0, 1)
    ]
    branches = post_measurement_states(state, projectors, quantum.Interaction(v, dims, dims))
    effects_t2 = [np.tensordot(_EFFECTS_FROM_SETTINGS, s, 1) for s in setting_stacks(observables_t2)]
    tables = effect_table(branches, dims, effects_t2)
    effects = dense_effects(observables_t2)
    for b, (x1, a1) in enumerate(pairs):
        ops = [effect(observables_t1[k][x1[k]], a1[k]) for k in (0, 1)]
        sigma = v @ dense_post_measurement(state.density, ops) @ dagger(v)
        for x2, probs in dense_distributions(sigma, observables_t2, effects).items():
            for a2 in itertools.product((0, 1), repeat=2):
                got = tables[(b,) + tuple(2 * x + a for x, a in zip(x2, a2))]
                assert abs(got - probs[a2]) <= 1e-12


SEESAW_CASES = [
    (dims, target)
    for dims in [(2, 3, 2), (3, 3, 3, 3)]
    for target in [(0,) * len(dims), tuple((k + 1) % 2 for k in range(len(dims)))]
]


def seesaw_inputs(dims, seed):
    rng = np.random.default_rng(seed)
    observables = [[projective_observable(d, rng) for _ in (0, 1)] for d in dims]
    return observables, random_density(dims, rng)


def seesaw_batch(dims, seed, restarts=3):
    """Random observables and pure states of ``restarts`` strategies, with
    the kernel's ``(R, 3, d, d)`` setting stacks and ``(R, D)`` vectors."""
    rng = np.random.default_rng(seed)
    observables = [
        [[projective_observable(d, rng) for _ in (0, 1)] for d in dims]
        for _ in range(restarts)
    ]
    size = (restarts, int(np.prod(dims)))
    psi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    stacks = [np.stack(p) for p in zip(*(setting_stacks(o) for o in observables))]
    return observables, psi, stacks


@pytest.mark.parametrize("dims, target", SEESAW_CASES)
def test_effective_operator_matches_dense_formula(dims, target):
    expr = BellExpression(len(dims), target)
    observables, psi, stacks = seesaw_batch(dims, 44)
    terms = bell_terms(expr)
    for party in range(len(dims)):
        effective = _effective_operators(psi, dims, stacks, terms, party)
        for r, v in enumerate(psi):
            rho = np.outer(v, v.conj())
            for setting in (0, 1):
                dense = dense_effective_operator(expr, observables[r], rho, party, setting)
                assert max_abs(effective[r, 1 + setting] - dense) <= 1e-13


@pytest.mark.parametrize("dims, target", SEESAW_CASES)
def test_table_value_matches_quantum_value(dims, target):
    # One party's effective operators, against that party's old or replaced
    # observables, give the value of the whole strategy.
    expr = BellExpression(len(dims), target)
    observables, psi, stacks = seesaw_batch(dims, 47)
    replacements, _, _ = seesaw_batch(dims, 48)
    terms = bell_terms(expr)
    for party in range(len(dims)):
        effective = _effective_operators(psi, dims, stacks, terms, party)
        for pairs in (observables, replacements):
            updated = [o[:party] + [p[party]] + o[party + 1 :] for o, p in zip(observables, pairs)]
            stack = np.stack([setting_stacks(u)[party] for u in updated])
            values = _strategy_value(stack, effective)
            for value, u, v in zip(values, updated, psi):
                assert abs(value - quantum_value(pure_state(v, dims), u, expr)) <= 1e-13


@pytest.mark.parametrize("dims, target", SEESAW_CASES)
def test_contracted_value_matches_dense_trace(dims, target):
    expr = BellExpression(len(dims), target)
    observables, state = seesaw_inputs(dims, 45)
    seesaw_operator = bell_operators(bell_coefficients(expr), setting_stacks(observables))
    for op in (seesaw_operator, dense_bell_operator(expr, observables)):
        dense = np.real(np.trace(op @ state.density))
        assert abs(quantum_value(state, observables, expr) - dense) <= 1e-13


@pytest.mark.parametrize("dims, target", SEESAW_CASES)
def test_bell_operator_matches_padded_sum(dims, target):
    expr = BellExpression(len(dims), target)
    observables, _ = seesaw_inputs(dims, 46)
    dense = dense_bell_operator(expr, observables)
    operator = bell_operators(bell_coefficients(expr), setting_stacks(observables))
    assert max_abs(operator - dense) <= EXACT
