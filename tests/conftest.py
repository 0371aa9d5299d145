import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from bellcert.bell import _EFFECTS_FROM_SETTINGS, outcome_table, setting_stacks
from bellcert.certify import MAX_VIOLATION_TOL, CheckResult
from bellcert.linalg import CERT_TOL, DimensionMismatchError, kron
from bellcert.quantum import (
    Interaction,
    QuantumState,
    _projective_observables,
    _rng,
    clamp_probabilities,
    effect_table,
    post_measurement_states,
)
from bellcert.reference import pre_interaction_basis, reference_strategy
from bellcert.scenario import Strategy, _check_projective

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def dag(m):
    return np.conj(m).T


def effect(observable, outcome):
    """Measurement element ``(I + (-1)^outcome O) / 2`` of a +/-1 observable."""
    sign = 1.0 if outcome == 0 else -1.0
    return (np.eye(len(observable)) + sign * np.asarray(observable)) / 2.0


def identity_interaction(dims):
    """The identity ``Interaction`` on ``dims``: the branch states of
    ``post_measurement_states`` before any interaction."""
    return Interaction(np.eye(math.prod(dims)), dims, dims)


def phase_distance(a, b):
    """Max-norm distance between two matrices minimized over a global phase."""
    a, b = np.asarray(a), np.asarray(b)
    inner = np.trace(dag(b) @ a)
    phase = inner / abs(inner) if abs(inner) > 1e-12 else 1.0
    return float(np.max(np.abs(a - phase * b)))


def fix_global_phase(v, cutoff=1e-12):
    """Oracle of ``linalg.fix_column_phases``: rescale by a unit-modulus phase
    so the first entry with magnitude above ``cutoff`` is real and positive.

    Works on vectors and matrices (matrices are scanned in row-major order).
    A numerically zero array is returned unchanged.
    """
    v = np.asarray(v, dtype=complex)
    flat = v.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > cutoff)
    if idx.size == 0:
        return v.copy()
    pivot = flat[idx[0]]
    return v * (np.conj(pivot) / np.abs(pivot))


def projective_observable(dim, seed):
    """A random +/-1 observable with ``dim // 2`` positive eigenvalues: one
    ``(2, dim, dim)`` Gaussian draw from ``seed`` (a seed or a generator)
    turned by ``quantum._projective_observables``, as the seesaw turns the
    draws of its starting observables."""
    return _projective_observables(_rng(seed).standard_normal((2, dim, dim)))


def partial_trace(m, dims, keep):
    """Dense oracle of ``quantum.mixture_marginals``: the reduced matrix of
    ``m`` on subsystem ``keep``, every other subsystem traced out."""
    n = len(dims)
    cols = [n if k == keep else k for k in range(n)]
    return np.einsum(np.reshape(m, tuple(dims) * 2), [*range(n), *cols], [keep, n])


def tilde_observables(a0, a1):
    """Party 1's rotated pair ``((A0 - A1) / sqrt(2), (A0 + A1) / sqrt(2))``."""
    return (a0 - a1) / math.sqrt(2.0), (a0 + a1) / math.sqrt(2.0)


def padded_kron(observables, factors):
    """``ox_k factors[k]`` over the parties of ``observables``, with the
    identity for every party that ``factors`` leaves out."""
    return kron(*[factors.get(k, np.eye(len(o[0]))) for k, o in enumerate(observables)])


def dense_bell_operator(expr, observables):
    """Oracle: the functional as padded Kronecker products of T0 and T1."""
    n, a = expr.parties, expr.target_outcomes
    t0, t1 = tilde_observables(*observables[0])
    settings_1 = {k: observables[k][1] for k in range(1, n)}
    op = (n - 1) * padded_kron(observables, {0: t1, **settings_1})
    for k in range(1, n):
        op = op + (-1.0) ** a[k] * padded_kron(observables, {0: t0, k: observables[k][0]})
    return (-1.0) ** a[0] * op


def dense_effective_operator(expr, observables, rho, party, setting):
    """Oracle: ``Tr_{not party}[(B's terms holding A_{party,setting}, with that
    factor replaced by I) rho]``, one Kronecker product and partial trace per term."""
    n = expr.parties
    dims = [o[0].shape[0] for o in observables]
    a = expr.target_outcomes
    s1 = (-1.0) ** a[0]
    terms = [(s1 * (n - 1) / np.sqrt(2.0), {0: j, **{m: 1 for m in range(1, n)}}) for j in (0, 1)]
    for m in range(1, n):
        sm = s1 * (-1.0) ** a[m] / np.sqrt(2.0)
        terms += [(sm, {0: 0, m: 0}), (-sm, {0: 1, m: 0})]
    eff = np.zeros((dims[party],) * 2, dtype=complex)
    for coeff, slots in terms:
        if slots.get(party) != setting:
            continue
        factors = {p: observables[p][k] for p, k in slots.items() if p != party}
        eff += coeff * partial_trace(padded_kron(observables, factors) @ rho, dims, party)
    return (eff + dag(eff)) / 2.0


def padded_sos_terms(expr, observables):
    """Oracle: the witnesses ``Q_N, ..., Q_2, P`` as padded Kronecker products:

        Q_n = (-1)^{a_1 + a_n} T0 - A_{n,0}          (n = N, ..., 2)
        P   = (-1)^{a_1} T1 - A_{2,1} ox ... ox A_{N,1}
    """
    n, a = expr.parties, expr.target_outcomes
    t0, t1 = tilde_observables(*observables[0])
    q = [
        (-1.0) ** (a[0] + a[m]) * padded_kron(observables, {0: t0})
        - padded_kron(observables, {m: observables[m][0]})
        for m in range(n - 1, 0, -1)
    ]
    settings_1 = padded_kron(observables, {m: observables[m][1] for m in range(1, n)})
    return np.stack(q + [(-1.0) ** a[0] * padded_kron(observables, {0: t1}) - settings_1])


def sos_residual(expr, observables, operator=None, weights=None):
    """Residual ``R = 2 (beta_Q I - B) - sum_g c_g X_g^2`` of the sum-of-squares
    identity over the ``padded_sos_terms`` witnesses ``X_g``.  ``B`` is
    ``operator``, by default ``dense_bell_operator``; the weights ``c_g`` are
    1 for each ``Q_n`` and N - 1 for ``P`` unless given.  ``R`` vanishes when
    every observable squares to the identity and stays positive semidefinite
    for contractive observables."""
    n = expr.parties
    op = dense_bell_operator(expr, observables) if operator is None else operator
    c = np.array([1.0] * (n - 1) + [n - 1.0]) if weights is None else weights
    witnesses = padded_sos_terms(expr, observables)
    squares = np.tensordot(c, witnesses @ witnesses, 1)
    return 2.0 * (expr.quantum_bound * np.eye(len(op)) - op) - squares


def vector_block(m, out_vec, in_vec):
    """Oracle: the auxiliary block ``(<out| ox I) m (|in> ox I)``, dense, with
    ``numpy.kron``; the identities' sizes are read off the shapes."""
    out_vec = np.asarray(out_vec, dtype=complex).reshape(-1, 1)
    in_vec = np.asarray(in_vec, dtype=complex).reshape(-1, 1)
    k_out, k_in = m.shape[0] // len(out_vec), m.shape[1] // len(in_vec)
    return np.kron(dag(out_vec), np.eye(k_out)) @ m @ np.kron(in_vec, np.eye(k_in))


def permute_subsystems(m, perm, dims_row, dims_col=None):
    """Oracle: reorder the tensor factors of an operator.

    ``perm[i]`` names the old factor that moves to position ``i``.  Rows and
    columns are permuted with the same ``perm``; ``dims_col`` defaults to
    ``dims_row`` (square operators on one composite space).
    """
    m = np.asarray(m, dtype=complex)
    dims_row = tuple(int(d) for d in dims_row)
    dims_col = dims_row if dims_col is None else tuple(int(d) for d in dims_col)
    perm = tuple(int(p) for p in perm)
    n = len(dims_row)
    if sorted(perm) != list(range(n)) or len(dims_col) != n:
        raise DimensionMismatchError(f"permute_subsystems: bad perm {perm} for {n} factors")
    if m.shape != (int(np.prod(dims_row)), int(np.prod(dims_col))):
        raise DimensionMismatchError(
            f"permute_subsystems: shape {m.shape} does not match dims {dims_row}x{dims_col}"
        )
    t = m.reshape(dims_row + dims_col)
    t = t.transpose(perm + tuple(n + p for p in perm))
    new_rows = int(np.prod([dims_row[p] for p in perm]))
    return t.reshape(new_rows, m.size // new_rows)


def canonical_reordering(aux_dims):
    """Oracle: the permutation matrix from the party-local order (qubit_1,
    aux_1, qubit_2, aux_2, ...) to the canonical order (all qubits, then all
    aux spaces)."""
    n = len(aux_dims)
    interleaved = tuple(d for k in aux_dims for d in (2, int(k)))
    perm = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    total = int(np.prod(interleaved))
    # Permute the row factors only: the columns form one factor of full size.
    return permute_subsystems(np.eye(total), perm, interleaved, (1,) * (2 * n - 1) + (total,))


@dataclass(frozen=True)
class SpotcheckResult:
    consistent: bool
    mismatches: int
    rounds: int


def repeatability_spotcheck(strategy, rounds, seed, tamper=None):
    """Sample rounds, re-measure each post-measurement state with the same
    inputs, and count outcome mismatches.

    ``tamper`` may replace the post-measurement state before the
    re-measurement, modelling a device that forwards something else.
    """
    _check_projective(strategy.observables_t1, CERT_TOL, "first-round")
    n = strategy.parties
    rng = np.random.default_rng(seed)
    mismatches = 0
    outcome_list = list(itertools.product((0, 1), repeat=n))
    settings_t1 = setting_stacks(strategy.observables_t1)
    effects = [np.tensordot(_EFFECTS_FROM_SETTINGS, s, 1) for s in settings_t1]

    def tables(state):
        correlators = effect_table(state.density, state.dims, settings_t1)
        return clamp_probabilities(outcome_table(correlators, n))

    source_tables = tables(strategy.source_state)
    for _ in range(int(rounds)):
        settings = tuple(int(b) for b in rng.integers(0, 2, size=n))
        probs = source_tables[settings]
        flat = np.clip(probs.reshape(-1), 0.0, None)
        flat = flat / flat.sum()
        outcomes = outcome_list[rng.choice(len(outcome_list), p=flat)]
        projectors = [effects[k][[2 * settings[k] + outcomes[k]]] for k in range(n)]
        source = strategy.source_state
        (branch,) = post_measurement_states(source, projectors, identity_interaction(source.dims))
        rho_prime = QuantumState(branch.density, strategy.source_state.dims)
        if tamper is not None:
            rho_prime = tamper(rho_prime)
        probs2 = tables(rho_prime)[settings]
        flat2 = np.clip(probs2.reshape(-1), 0.0, None)
        flat2 = flat2 / flat2.sum()
        repeat = outcome_list[rng.choice(len(outcome_list), p=flat2)]
        if repeat != outcomes:
            mismatches += 1
    return SpotcheckResult(consistent=mismatches == 0, mismatches=mismatches, rounds=int(rounds))


def on_target(stats):
    """Whether every side statistic passes the certification chain's gate
    (``CheckResult.close_to`` at the default maximal-violation tolerance)."""
    return all(
        CheckResult.close_to(label, value, target, MAX_VIOLATION_TOL).passed
        for label, value, target in stats
    )


def brute_force_classical_bound(parties, target_outcomes):
    """Independent oracle: plain-Python loop over all deterministic
    assignments of +/-1 values to every observable symbol."""
    best = -np.inf
    a = target_outcomes
    for assignment in itertools.product((1.0, -1.0), repeat=2 * parties):
        vals = {(n, j): assignment[2 * n + j] for n in range(parties) for j in (0, 1)}
        t0 = (vals[(0, 0)] - vals[(0, 1)]) / math.sqrt(2.0)
        t1 = (vals[(0, 0)] + vals[(0, 1)]) / math.sqrt(2.0)
        first = (parties - 1) * t1
        for n in range(1, parties):
            first *= vals[(n, 1)]
        second = 0.0
        for n in range(1, parties):
            second += ((-1.0) ** a[n]) * t0 * vals[(n, 0)]
        value = ((-1.0) ** a[0]) * (first + second)
        best = max(best, value)
    return best


def bitmask_classical_bound(parties, target_outcomes):
    """Independent oracle, vectorized: the functional written out by hand
    over bit masks of all 4^N deterministic assignments."""
    a = target_outcomes
    # Bit b of the assignment index: value (-1)^b of one observable symbol.
    # Bits 2n, 2n+1 hold party n's setting-0 and setting-1 values.
    idx = np.arange(4**parties, dtype=np.int64)
    val = [(1.0 - 2.0 * ((idx >> k) & 1)).astype(np.float64) for k in range(2 * parties)]
    t0 = (val[0] - val[1]) / math.sqrt(2.0)
    t1 = (val[0] + val[1]) / math.sqrt(2.0)
    prod1 = np.ones_like(t1)
    for m in range(1, parties):
        prod1 *= val[2 * m + 1]
    total = (parties - 1) * t1 * prod1
    for m in range(1, parties):
        sign = -1.0 if a[m] else 1.0
        total += sign * t0 * val[2 * m]
    if a[0]:
        total = -total
    return float(np.max(total))


def swap_deviation(reference: Strategy) -> Strategy:
    """Compose the reference interaction with a swap of the two qubits."""
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    return Strategy(
        source_state=reference.source_state,
        observables_t1=reference.observables_t1,
        observables_t2=reference.observables_t2,
        interaction=Interaction(swap @ reference.interaction.matrix, (2, 2), (2, 2)),
    )


def diag_phase_deviation(reference: Strategy, phases=(0.0, 0.4, -0.9, 1.3)) -> Strategy:
    """Compose the reference interaction with a nontrivial diagonal phase in
    the pre-interaction product basis: all conditional Bell values survive,
    the side statistics do not."""
    d = np.zeros((4, 4), dtype=complex)
    for theta, (_, vec) in zip(phases, pre_interaction_basis(2)):
        d += np.exp(1j * theta) * np.outer(vec, np.conj(vec))
    return Strategy(
        source_state=reference.source_state,
        observables_t1=reference.observables_t1,
        observables_t2=reference.observables_t2,
        interaction=Interaction(reference.interaction.matrix @ d, (2, 2), (2, 2)),
    )


@pytest.fixture(scope="session")
def ref2():
    return reference_strategy(2)


@pytest.fixture(scope="session")
def ref3():
    return reference_strategy(3)
