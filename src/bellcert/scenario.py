"""Two-round measurement scenario: first-round local measurements, the
interaction, second-round measurements, and the correlation tables the
certifier consumes.

All certification inputs are exact Born-rule probabilities (no sampling).
Conditioning events follow the two designated first-round input branches:

* Bell branch: settings ``(0, 0, 1, ..., 1)``; every outcome vector is kept
  and its conditional second-round state must maximally violate the matching
  Bell functional.
* side-statistics branch: settings ``(1, 1, 0, ..., 0)`` with the all-zero
  outcome, on which the extra expectation values are evaluated.

The 2^N Bell-branch states and the side-statistics state all condition on
fixed first-round settings, so ``run_scenario`` builds their factors as one
stack (``quantum.post_measurement_states``); no branch forms its density
matrix.  From one set of setting stacks per round it computes what the
chain reads.  One contraction of the source gives its correlator table:
the first-round table ``p1`` (gated), the event probabilities and the t1
Bell value.  Each branch's Bell value, at its own target, is party 0's
effective operators on its factor (``bell._effective_operators``, which
the seesaw reads too) traced against party 0's stack, and the side
statistics are one-party values.  The record holds no second-round
tables: ``second_round_tables`` builds and gates ``p2`` from its branch
states, which ``simulate`` does to write the record and ``certify``
never does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bell import (
    _EFFECTS_FROM_SETTINGS,
    BellExpression,
    _effective_operators,
    _strategy_value,
    _table_value,
    bell_terms,
    extra_statistics,
    outcome_table,
    setting_stacks,
)
from .linalg import (
    ALGEBRA_TOL,
    CERT_TOL,
    DimensionMismatchError,
    NonHermitianError,
    dagger,
    herm_part,
    kron,
    max_abs,
)
from .quantum import (
    ZERO_PROB,
    Interaction,
    QuantumState,
    _check_finite,
    _chunks,
    _rng,
    _stacked,
    clamp_probabilities,
    effect_table,
    post_measurement_states,
    random_density,
    random_unitary,
)
from .reference import target_observables

__all__ = [
    "Strategy",
    "CorrelationRecord",
    "ScrambledStrategy",
    "bell_branch_settings",
    "extra_branch_settings",
    "run_scenario",
    "scramble_strategy",
    "second_round_tables",
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
    """A complete scenario description for at least 2 parties: source
    state, each party's two +/-1 observables at both rounds, and the
    interaction unitary.

    A round's observables are one read-only complex ``(2, d_k, d_k)`` array
    per party, setting 0 then setting 1.  The constructor takes any
    per-party pair (two matrices, or such an array) and checks it once
    (``_observable_pair``): its shape, finite entries and hermiticity within
    ``ALGEBRA_TOL``.  It keeps each setting's Hermitian part ``(A + A^dag) /
    2``, as ``QuantumState`` reads its density's, so an accepted observable
    stays exactly Hermitian when it is compressed to a support.  Then each
    round's spectra are checked (``_check_spectra``): an eigenvalue outside
    ``[-1 - ALGEBRA_TOL, 1 + ALGEBRA_TOL]`` is refused.
    """

    source_state: QuantumState
    observables_t1: tuple[np.ndarray, ...]
    observables_t2: tuple[np.ndarray, ...]
    interaction: Interaction

    def __post_init__(self):
        n = len(self.source_state.dims)
        if n < 2:
            raise ValueError(f"the Bell family needs at least 2 parties, got {n}")
        if len(self.observables_t1) != n or len(self.observables_t2) != n:
            raise DimensionMismatchError("observable lists do not match the party count")
        if self.interaction.dims_in != self.source_state.dims:
            raise DimensionMismatchError(
                f"interaction input dims {self.interaction.dims_in} do not match "
                f"source dims {self.source_state.dims}"
            )
        for name, dims in (("t1", self.source_state.dims), ("t2", self.interaction.dims_out)):
            pairs = getattr(self, f"observables_{name}")
            pairs = tuple(_observable_pair(p, name, k, d) for k, (p, d) in enumerate(zip(pairs, dims)))
            _check_spectra(pairs, name)
            object.__setattr__(self, f"observables_{name}", pairs)

    @property
    def parties(self) -> int:
        return len(self.source_state.dims)


@dataclass(frozen=True, eq=False)
class CorrelationRecord:
    """Observed statistics of one scenario run, as arrays.

    ``p1[x]`` is the outcome distribution at the first round for inputs
    ``x`` (settings first, then outcomes), and ``events`` the kept
    conditioning events ``(x1, a1)``.  ``t2_bell_values`` holds, per
    Bell-branch outcome vector, the value of the matching Bell functional
    on the conditional state, and ``extra_stats`` the (label, value,
    target) side statistics, or ``None``.

    ``conditional_states[e]`` is the post-interaction state after
    ``events[e]``, kept so the certification chain reuses it; it holds its
    factor, and forms its density only if that is read.  It is in memory
    only: it is not serialized, so a loaded record has none (``()``).  The
    record holds no second-round tables: ``second_round_tables`` builds
    them from the states, as ``simulate`` does to write the record out.
    ``p1`` must sum to 1 per setting within ``ALGEBRA_TOL``, the tolerance
    the public ``QuantumState`` constructor allows on the trace of a source,
    and every entry lie in [0, 1] within ``ZERO_PROB``, the margin that
    ``clamp_probabilities`` moves onto the boundary.
    """

    parties: int
    p1: np.ndarray
    events: tuple[tuple[Bits, Bits], ...]
    t1_bell_value: float
    t2_bell_values: dict
    extra_stats: tuple[tuple[str, float, float], ...] | None
    conditional_states: tuple[QuantumState, ...] = field(default=(), repr=False)

    def __post_init__(self):
        n, events, states = self.parties, self.events, self.conditional_states
        if np.shape(self.p1) != (2,) * 2 * n:
            raise ValueError(f"p1 has shape {np.shape(self.p1)}, expected {(2,) * 2 * n}")
        if states and len(states) != len(events):
            raise ValueError(f"{len(states)} conditional states for {len(events)} events")
        _gate(self.p1, n, events)

    @property
    def event_probabilities(self) -> dict:
        """The first-round probability of each kept event, read from ``p1``."""
        return {(x, a): float(self.p1[x + a]) for x, a in self.events}


def _gate(tables: np.ndarray, n: int, events) -> None:
    # ``p1`` or ``p2`` summed over its trailing N (outcome) axes, and its
    # entries bounded by one min and one max, in place.
    sums = np.sum(tables, axis=tuple(range(-n, 0)))
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ALGEBRA_TOL))
    if bad.size:
        index = tuple(int(i) for i in np.unravel_index(bad[0], sums.shape))
        problem = f"sums to {float(sums[index]):.12g}"
    elif -ZERO_PROB <= np.min(tables) and np.max(tables) <= 1.0 + ZERO_PROB:
        return
    else:
        bad = np.flatnonzero(~((-ZERO_PROB <= tables) & (tables <= 1.0 + ZERO_PROB)))
        index = tuple(int(i) for i in np.unravel_index(bad[0], tables.shape))
        problem = f"has entry {float(tables[index])!r} at outcomes {index[-n:]}, outside [0, 1]"
        index = index[:-n]
    if tables.ndim == 2 * n:
        raise ValueError(f"first-round distribution for inputs {index} {problem}")
    raise ValueError(f"conditional distribution for event {events[index[0]]}, inputs {index[1:]} {problem}")


def second_round_tables(record: CorrelationRecord, observables_t2) -> np.ndarray:
    """The second-round tables ``p2`` of ``record``: ``p2[e][x2]`` is the
    outcome distribution for inputs ``x2`` after ``record.events[e]``,
    under the strategy's second-round observables, gated as ``p1`` is.
    Each branch state is contracted on its own (``effect_table``), so none
    keeps a density.

    Raises ``ValueError`` if the record holds no conditional states, or if a
    table fails the gate."""
    if not record.conditional_states:
        raise ValueError("a record without conditional states has no second-round tables")
    stacks = setting_stacks(observables_t2)
    correlators = np.array([effect_table(s, stacks) for s in record.conditional_states])
    p2 = clamp_probabilities(outcome_table(correlators, record.parties))
    _gate(p2, record.parties, record.events)
    return p2


def _observable_pair(pair, name: str, party: int, d: int) -> np.ndarray:
    """``party``'s pair at round ``name`` as the read-only ``(2, d, d)``
    array of its Hermitian parts; a ``ValueError`` names the round, party
    and setting of the first observable whose shape, entries or hermiticity
    fail."""
    if len(pair) != 2:
        raise DimensionMismatchError(f"party {party} needs exactly 2 settings")
    labels = [f"{name} observable (party {party}, setting {s})" for s in (0, 1)]
    for label, m in zip(labels, pair):
        if np.shape(m) != (d, d):
            raise DimensionMismatchError(f"{label} has shape {np.shape(m)}, expected {(d, d)}")
    pair = np.array(pair, dtype=complex)
    for label, m in zip(labels, pair):
        _check_finite(m, label)
        if max_abs(m - dagger(m)) > ALGEBRA_TOL:
            raise NonHermitianError(f"{label} is not Hermitian")
    pair = herm_part(pair)
    pair.setflags(write=False)
    return pair


def _check_spectra(pairs, name: str) -> None:
    """Refuse an observable of round ``name`` with an eigenvalue outside
    ``[-1 - ALGEBRA_TOL, 1 + ALGEBRA_TOL]``, whose effects ``(I +/- A) / 2``
    are then not positive: one stacked ``eigvalsh`` per local dimension.
    The ``ValueError`` names the round, party and setting of the first."""
    for party, spectra in enumerate(_stacked(np.linalg.eigvalsh, pairs)):
        inside = np.abs(spectra) <= 1.0 + ALGEBRA_TOL  # a NaN eigenvalue fails too
        if not inside.all():
            setting, j = np.argwhere(~inside)[0]
            raise ValueError(
                f"{name} observable (party {party}, setting {setting}) has eigenvalue "
                f"{spectra[setting, j]:.6g}, outside [-1, 1]; its effects (I +/- A) / 2 are not positive"
            )


def _check_projective(observables, tol: float, where: str) -> None:
    for party, pair in enumerate(observables):
        defects = np.max(np.abs(pair @ pair - np.eye(pair.shape[-1])), axis=(1, 2))
        for setting, defect in enumerate(defects):
            if not defect <= tol:  # a NaN defect fails too
                raise ValueError(
                    f"{where} observable (party {party}, setting {setting}) is not "
                    f"projective (defect {defect:.3e}); the post-measurement update "
                    f"is undefined"
                )


def run_scenario(strategy: Strategy) -> CorrelationRecord:
    """Propagate exact probabilities through both rounds.

    Raises ``ValueError`` if a first-round observable is not projective
    (the conditional update is only defined for projective measurements).
    """
    n = strategy.parties
    _check_projective(strategy.observables_t1, CERT_TOL, "first-round")
    source, dims_out = strategy.source_state, strategy.interaction.dims_out

    # One correlator table of the source gives p1 and the t1 Bell value.
    stacks_t1 = setting_stacks(strategy.observables_t1)
    correlators = effect_table(source, stacks_t1)
    p1 = clamp_probabilities(outcome_table(correlators, n))
    t1_value = _table_value(BellExpression(n, (0,) * n), correlators)

    # The conditioning events with non-vanishing probability: the Bell
    # branch's outcome vectors in order, then the side-statistics event.
    x_bell, x_extra = bell_branch_settings(n), extra_branch_settings(n)
    events = [(x_bell, a) for a in itertools.product((0, 1), repeat=n)]
    events = [(x, a) for x, a in events + [(x_extra, (0,) * n)] if p1[x + a] > ZERO_PROB]
    rows = [_EFFECTS_FROM_SETTINGS[[2 * x[k] + a[k] for x, a in events]] for k in range(n)]
    projectors = [np.tensordot(r, s, 1) for r, s in zip(rows, stacks_t1)]
    branches = post_measurement_states(source, projectors, strategy.interaction)

    # Each Bell branch's value at its own target: party 0's effective operators
    # on its factor traced against party 0's stack, N term vectors a factor.
    targets = [a for x, a in events if x == x_bell]
    terms = [bell_terms(BellExpression(n, a)) for a in targets]
    (rest, _, weights), rows = terms[0], np.stack([t[1] for t in terms])
    stacks_t2, signs = setting_stacks(strategy.observables_t2), source.factor[1]
    t2_values = np.empty(len(targets))
    for chunk in _chunks(len(targets), source.dim, n * len(signs)):
        kets = np.stack([b.factor[0] for b in branches[chunk]])
        flat, bras = kets.reshape(len(kets), -1), (kets * signs).reshape(len(kets), -1)
        k = _effective_operators(flat, bras, dims_out, stacks_t2, (rest, rows[chunk], weights))
        t2_values[chunk] = _strategy_value(stacks_t2[0], k)

    extra = None
    if events[-1][0] == x_extra:
        extra = extra_statistics(branches[-1], strategy.observables_t2)
    return CorrelationRecord(
        parties=n,
        p1=p1,
        events=tuple(events),
        t1_bell_value=t1_value,
        t2_bell_values={a: float(v) for a, v in zip(targets, t2_values)},
        extra_stats=extra,
        conditional_states=branches,
    )


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
    statistics exactly.  Both are planted by ``certify._from_canonical``,
    the inverse of the rotation the certification chain applies, so no
    D x D transform is formed.  Deterministic for a fixed seed.
    """
    # deferred: certify imports this module
    from .certify import LocalFrame, _frames, _from_canonical

    n = reference.parties
    aux_dims = tuple(int(k) for k in aux_dims)
    if len(aux_dims) != n or any(k < 1 for k in aux_dims):
        raise ValueError(f"need one auxiliary dimension >= 1 per party, got {aux_dims}")
    if reference.source_state.dims != (2,) * n:
        raise ValueError("scramble_strategy expects the qubit reference strategy")

    rng = _rng(seed)
    targets = target_observables(n)
    local_dims = tuple(2 * k for k in aux_dims)

    def scrambled_pair(party: int) -> np.ndarray:
        k = aux_dims[party]
        w = random_unitary(2 * k, rng)
        pair = np.stack([w @ kron(t, np.eye(k)) @ dagger(w) for t in targets[party]])
        return herm_part(pair)

    # Sharp and anticommuting by construction; framed as stacks, in chain order.
    parties = [*range(n), *range(n)]
    pairs = [scrambled_pair(p) for p in parties]
    built = _frames(pairs, parties, n)
    for _, resid in built:
        if resid > CERT_TOL:
            raise ValueError(f"planted frame residual {resid:.3e} exceeds {CERT_TOL:g}")
    frames = [LocalFrame(p, 1 + i // n, u) for i, (p, (u, _)) in enumerate(zip(parties, built))]
    frames_t1, frames_t2 = tuple(frames[:n]), tuple(frames[n:])

    xi = random_density(aux_dims, rng, rank=xi_rank)
    v0 = random_unitary(math.prod(aux_dims), rng)

    canonical_state = kron(reference.source_state.density, xi.density)
    source = QuantumState._derived(
        _from_canonical(canonical_state, frames_t1, frames_t1), local_dims
    )
    v = _from_canonical(kron(reference.interaction.matrix, v0), frames_t2, frames_t1)
    interaction = Interaction(v, local_dims, local_dims)

    strategy = Strategy(
        source_state=source,
        observables_t1=tuple(pairs[:n]),
        observables_t2=tuple(pairs[n:]),
        interaction=interaction,
    )
    return ScrambledStrategy(
        strategy=strategy,
        aux_dims=aux_dims,
        aux_state=xi,
        aux_unitary=v0,
        frames_t1=tuple(f.matrix for f in frames_t1),
        frames_t2=tuple(f.matrix for f in frames_t2),
    )
