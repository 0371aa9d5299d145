"""Two-round measurement scenario: first-round local measurements, the
interaction, second-round measurements, and the correlation tables the
certifier consumes.

All certification inputs are exact Born-rule probabilities (no sampling);
only the repeatability spot-check draws random rounds.  Conditioning events
follow the two designated first-round input branches:

* Bell branch: settings ``(0, 0, 1, ..., 1)``; every outcome vector is kept
  and its conditional second-round state must maximally violate the matching
  Bell functional.
* side-statistics branch: settings ``(1, 1, 0, ..., 0)`` with the all-zero
  outcome, on which the extra expectation values are evaluated.

For every stored conditioning event the record keeps the conditional
distribution for all 2^N second-round setting combinations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .bell import BellExpression, ExtraStatistics, extra_statistics_check, quantum_value
from .linalg import CERT_TOL, DimensionMismatchError, dagger, kron
from .quantum import (
    ZERO_PROB,
    DichotomicObservable,
    Interaction,
    QuantumState,
    born_table,
    evolve,
    post_measurement_state,
    random_density,
    random_unitary,
)
from .reference import target_observables

__all__ = [
    "Strategy",
    "CorrelationRecord",
    "SpotcheckResult",
    "ScrambledStrategy",
    "bell_branch_settings",
    "extra_branch_settings",
    "run_scenario",
    "conditional_post_interaction_state",
    "repeatability_spotcheck",
    "scramble_strategy",
    "permutation_matrix",
    "canonical_reordering",
]

Bits = tuple[int, ...]


def bell_branch_settings(parties: int) -> Bits:
    """First-round inputs conditioning the Bell-violation branch."""
    return (0, 0) + (1,) * (parties - 2)


def extra_branch_settings(parties: int) -> Bits:
    """First-round inputs conditioning the side-statistics branch."""
    return (1, 1) + (0,) * (parties - 2)


@dataclass(frozen=True, eq=False)
class Strategy:
    """A complete scenario description: source state, per-party per-setting
    observables at both rounds, and the interaction unitary."""

    source_state: QuantumState
    observables_t1: tuple[tuple[DichotomicObservable, DichotomicObservable], ...]
    observables_t2: tuple[tuple[DichotomicObservable, DichotomicObservable], ...]
    interaction: Interaction

    def __post_init__(self):
        object.__setattr__(self, "observables_t1", tuple(tuple(p) for p in self.observables_t1))
        object.__setattr__(self, "observables_t2", tuple(tuple(p) for p in self.observables_t2))
        n = len(self.source_state.dims)
        if len(self.observables_t1) != n or len(self.observables_t2) != n:
            raise DimensionMismatchError("observable lists do not match the party count")
        if self.interaction.dims_in != self.source_state.dims:
            raise DimensionMismatchError(
                f"interaction input dims {self.interaction.dims_in} do not match "
                f"source dims {self.source_state.dims}"
            )
        for name, obs, dims in (
            ("t1", self.observables_t1, self.source_state.dims),
            ("t2", self.observables_t2, self.interaction.dims_out),
        ):
            for party, pair in enumerate(obs):
                if len(pair) != 2:
                    raise DimensionMismatchError(f"party {party} needs exactly 2 settings")
                for setting, o in enumerate(pair):
                    if o.matrix.shape != (dims[party], dims[party]):
                        raise DimensionMismatchError(
                            f"{name} observable (party {party}, setting {setting}) has dim "
                            f"{o.matrix.shape[0]}, expected {dims[party]}"
                        )

    @property
    def parties(self) -> int:
        return len(self.source_state.dims)


@dataclass(frozen=True, eq=False)
class CorrelationRecord:
    """Observed statistics of one scenario run.

    ``p1[x]`` is the outcome distribution at the first round for inputs
    ``x``; ``p2[(x1, a1)][x2]`` the conditional distribution at the second
    round.  ``t2_bell_values`` holds, per Bell-branch outcome vector, the
    value of the matching Bell functional on the conditional state.

    ``conditional_states[(x1, a1)]`` is the post-interaction state behind
    ``p2[(x1, a1)]``, kept so the certification chain reuses it.  It is in
    memory only: it is not serialized, so a loaded record has none.
    """

    parties: int
    p1: dict
    p2: dict
    t1_bell_value: float
    t2_bell_values: dict
    extra_stats: ExtraStatistics | None
    event_probabilities: dict = field(default_factory=dict)
    conditional_states: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for x, probs in self.p1.items():
            s = float(np.sum(probs))
            if abs(s - 1.0) > 1e-10:
                raise ValueError(f"first-round distribution for inputs {x} sums to {s:.12g}")
        for event, settings in self.p2.items():
            for x2, probs in settings.items():
                s = float(np.sum(probs))
                if abs(s - 1.0) > 1e-10:
                    raise ValueError(
                        f"conditional distribution for event {event}, inputs {x2} "
                        f"sums to {s:.12g}"
                    )


def _outcome_tables(state: QuantumState, observables) -> dict:
    """Outcome distribution, shape ``(2,) * N``, for every setting vector.

    Party ``k`` contributes the stack of its four effects ordered by
    (setting, outcome), so one contraction gives all 2^N x 2^N probabilities.
    """
    n = len(observables)
    stacks = [np.stack([o.effect(a) for o in pair for a in (0, 1)]) for pair in observables]
    table = born_table(state, stacks).reshape((2, 2) * n)  # (x_1, a_1, x_2, a_2, ...)
    table = table.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))
    return {x: table[x] for x in itertools.product((0, 1), repeat=n)}


def _check_projective(observables, tol: float, where: str) -> None:
    for party, pair in enumerate(observables):
        for setting, o in enumerate(pair):
            defect = o.projectivity_defect()
            if defect > tol:
                raise ValueError(
                    f"{where} observable (party {party}, setting {setting}) is not "
                    f"projective (defect {defect:.3e}); the post-measurement update "
                    f"is undefined"
                )


def conditional_post_interaction_state(
    strategy: Strategy, settings: Bits, outcomes: Bits
) -> QuantumState:
    """Post-measurement state for the given first-round event, evolved
    through the interaction."""
    projectors = [
        strategy.observables_t1[k][settings[k]].effect(outcomes[k])
        for k in range(strategy.parties)
    ]
    rho_prime = post_measurement_state(strategy.source_state, projectors)
    return evolve(rho_prime, strategy.interaction)


def run_scenario(strategy: Strategy) -> CorrelationRecord:
    """Propagate exact probabilities through both rounds.

    Raises ``ValueError`` if a first-round observable is not projective
    (the conditional update is only defined for projective measurements).
    """
    n = strategy.parties
    _check_projective(strategy.observables_t1, CERT_TOL, "first-round")

    p1 = _outcome_tables(strategy.source_state, strategy.observables_t1)

    expr0 = BellExpression(n, (0,) * n)
    t1_value = quantum_value(strategy.source_state, strategy.observables_t1, expr0)

    p2 = {}
    t2_values = {}
    event_probs = {}
    states = {}
    x_bell = bell_branch_settings(n)
    for outcomes in itertools.product((0, 1), repeat=n):
        p_event = float(p1[x_bell][outcomes])
        if p_event <= ZERO_PROB:
            continue
        sigma = conditional_post_interaction_state(strategy, x_bell, outcomes)
        event = (x_bell, outcomes)
        event_probs[event] = p_event
        states[event] = sigma
        p2[event] = _outcome_tables(sigma, strategy.observables_t2)
        t2_values[outcomes] = quantum_value(sigma, strategy.observables_t2, BellExpression(n, outcomes))

    extra = None
    x_extra = extra_branch_settings(n)
    zero = (0,) * n
    p_event = float(p1[x_extra][zero])
    if p_event > ZERO_PROB:
        sigma = conditional_post_interaction_state(strategy, x_extra, zero)
        event = (x_extra, zero)
        event_probs[event] = p_event
        states[event] = sigma
        p2[event] = _outcome_tables(sigma, strategy.observables_t2)
        extra = extra_statistics_check(sigma, strategy.observables_t2, n)

    return CorrelationRecord(
        parties=n,
        p1=p1,
        p2=p2,
        t1_bell_value=t1_value,
        t2_bell_values=t2_values,
        extra_stats=extra,
        event_probabilities=event_probs,
        conditional_states=states,
    )


@dataclass(frozen=True)
class SpotcheckResult:
    consistent: bool
    mismatches: int
    rounds: int


def repeatability_spotcheck(
    strategy: Strategy, rounds: int, seed, tamper=None
) -> SpotcheckResult:
    """Sample rounds, re-measure each post-measurement state with the same
    inputs, and count outcome mismatches.

    ``tamper`` (test hook) may replace the post-measurement state before the
    re-measurement, modelling a device that forwards something else.
    """
    _check_projective(strategy.observables_t1, CERT_TOL, "first-round")
    n = strategy.parties
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    mismatches = 0
    outcome_list = list(itertools.product((0, 1), repeat=n))
    tables = _outcome_tables(strategy.source_state, strategy.observables_t1)
    for _ in range(int(rounds)):
        settings = tuple(int(b) for b in rng.integers(0, 2, size=n))
        probs = tables[settings]
        flat = np.clip(probs.reshape(-1), 0.0, None)
        flat = flat / flat.sum()
        outcomes = outcome_list[rng.choice(len(outcome_list), p=flat)]
        projectors = [
            strategy.observables_t1[k][settings[k]].effect(outcomes[k]) for k in range(n)
        ]
        rho_prime = post_measurement_state(strategy.source_state, projectors)
        if tamper is not None:
            rho_prime = tamper(rho_prime)
        probs2 = _outcome_tables(rho_prime, strategy.observables_t1)[settings]
        flat2 = np.clip(probs2.reshape(-1), 0.0, None)
        flat2 = flat2 / flat2.sum()
        repeat = outcome_list[rng.choice(len(outcome_list), p=flat2)]
        if repeat != outcomes:
            mismatches += 1
    return SpotcheckResult(consistent=mismatches == 0, mismatches=mismatches, rounds=int(rounds))


def permutation_matrix(dims: Bits, perm: Bits) -> np.ndarray:
    """Unitary that reorders tensor factors: new factor ``i`` is old factor
    ``perm[i]``."""
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    d = int(np.prod(dims))
    new_dims = tuple(dims[p] for p in perm)
    p_mat = np.zeros((d, d))
    for multi in itertools.product(*[range(x) for x in dims]):
        old = int(np.ravel_multi_index(multi, dims))
        new = int(np.ravel_multi_index(tuple(multi[p] for p in perm), new_dims))
        p_mat[new, old] = 1.0
    return p_mat


def canonical_reordering(aux_dims: Bits) -> np.ndarray:
    """Permutation from the party-local order (qubit_1, aux_1, qubit_2,
    aux_2, ...) to the canonical order (all qubits, then all aux spaces)."""
    n = len(aux_dims)
    interleaved = []
    for k in aux_dims:
        interleaved.extend((2, int(k)))
    perm = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    return permutation_matrix(tuple(interleaved), perm)


@dataclass(frozen=True, eq=False)
class ScrambledStrategy:
    """A reference strategy hidden behind local unitaries and auxiliary
    degrees of freedom, together with the planted objects a certification
    round trip must recover."""

    strategy: Strategy
    aux_dims: Bits
    aux_state: QuantumState
    aux_unitary: np.ndarray
    frames_t1: tuple[np.ndarray, ...]
    frames_t2: tuple[np.ndarray, ...]


def scramble_strategy(
    reference: Strategy, aux_dims, seed, xi_rank: int | None = None
) -> ScrambledStrategy:
    """Embed the N-qubit reference into larger local spaces.

    Per party and round, the local observables become random-unitary
    conjugations of the reference qubit observables padded with an identity
    on a ``aux_dims[n]``-dimensional auxiliary space.  The source state
    carries a random auxiliary state (rank ``xi_rank``, full by default) and
    the interaction a random auxiliary unitary, both expressed in the same
    local gauges, so the scrambled scenario reproduces the reference
    statistics exactly.  Deterministic for a fixed seed.
    """
    from .certify import extract_local_frame  # deferred: certify imports this module

    n = reference.parties
    aux_dims = tuple(int(k) for k in aux_dims)
    if len(aux_dims) != n or any(k < 1 for k in aux_dims):
        raise ValueError(f"need one auxiliary dimension >= 1 per party, got {aux_dims}")
    if reference.source_state.dims != (2,) * n:
        raise ValueError("scramble_strategy expects the qubit reference strategy")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    targets = target_observables(n)
    local_dims = tuple(2 * k for k in aux_dims)

    def scrambled_party(party: int, time_slice: int):
        t0, t1 = targets[party]
        k = aux_dims[party]
        w = random_unitary(2 * k, rng)
        a0 = w @ kron(t0, np.eye(k)) @ dagger(w)
        a1 = w @ kron(t1, np.eye(k)) @ dagger(w)
        a0 = (a0 + dagger(a0)) / 2.0
        a1 = (a1 + dagger(a1)) / 2.0
        frame = extract_local_frame(a0, a1, (t0, t1)).matrix
        pair = (
            DichotomicObservable(a0, party=party, setting=0, time_slice=time_slice),
            DichotomicObservable(a1, party=party, setting=1, time_slice=time_slice),
        )
        return pair, frame

    obs_t1, frames_t1 = zip(*[scrambled_party(p, 1) for p in range(n)])
    obs_t2, frames_t2 = zip(*[scrambled_party(p, 2) for p in range(n)])

    reorder = canonical_reordering(aux_dims)
    c1 = reorder @ kron(*frames_t1)
    c2 = reorder @ kron(*frames_t2)

    aux_total = int(np.prod(aux_dims))
    xi = random_density(aux_dims, rng, rank=xi_rank)
    v0 = random_unitary(aux_total, rng)

    canonical_state = kron(reference.source_state.density, xi.density)
    rho = dagger(c1) @ canonical_state @ c1
    source = QuantumState((rho + dagger(rho)) / 2.0, local_dims)

    v = dagger(c2) @ kron(reference.interaction.matrix, v0) @ c1
    interaction = Interaction(v, local_dims, local_dims)

    strategy = Strategy(
        source_state=source,
        observables_t1=tuple(obs_t1),
        observables_t2=tuple(obs_t2),
        interaction=interaction,
    )
    return ScrambledStrategy(
        strategy=strategy,
        aux_dims=aux_dims,
        aux_state=xi,
        aux_unitary=v0,
        frames_t1=tuple(frames_t1),
        frames_t2=tuple(frames_t2),
    )
