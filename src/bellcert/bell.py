"""Bell functionals for the two-time scenario: operators, bounds, SOS data.

The family treated here is indexed by a target outcome vector ``a`` of N
bits.  Party 1 enters through the rotated combinations

    T0 = (A_{1,0} - A_{1,1}) / sqrt(2),   T1 = (A_{1,0} + A_{1,1}) / sqrt(2)

and the functional reads

    B_a = (-1)^{a_1} [ (N-1) <T1 ox A_{2,1} ox ... ox A_{N,1}>
                       + sum_{n>=2} (-1)^{a_n} <T0 ox A_{n,0}> ]

with identity padding on the parties absent from each second-group term.
Local deterministic models satisfy ``B_a <= sqrt(2) (N-1)``; quantum
strategies reach ``2 (N-1)`` and no more.

``bell_terms`` writes the functional once, as its N terms
``c_g (u_g . S^1) ox S^2_{j_2} ox ... ox S^N_{j_N}``, party n's ``S^n =
(I, A_{n,0}, A_{n,1})`` (``setting_stacks``).  A state's Bell value comes
from the terms alone.  A density's is its correlator table over the
``S^n`` (``quantum.effect_table``) gathered at the terms (``_table_value``,
for ``quantum_value`` and ``scenario.run_scenario``).  A branch factor's,
and the seesaw's, come from the Bell-term kernel (``term_vectors``, read
off by ``functional_values``), which applies factors with ``_apply``.
Side statistics are one-party values (``extra_statistics``).  Scattered,
the terms give the coefficient tensor ``C`` (``bell_coefficients``) of the
seesaw's Bell operators and of ``classical_bound``; one at a time, the SOS
witnesses ``X_g`` of ``2 (2 (N-1) I - B_a) = sum_g c_g X_g^2`` (``sos_terms``).
``_EFFECTS_FROM_SETTINGS``, ``E_{x,a} = (I + (-1)^a A_x) / 2``, turns the
correlators into outcome probabilities (``outcome_table``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ALGEBRA_TOL, DimensionMismatchError, dagger, herm_part, max_abs
from .quantum import QuantumState, _apply, _grouped, _party_rows, effect_table, mixture_marginals

__all__ = [
    "MAX_ENUMERATION_PARTIES",
    "BellExpression",
    "SOSWitness",
    "bell_terms",
    "bell_coefficients",
    "setting_stacks",
    "outcome_table",
    "term_vectors",
    "functional_values",
    "bell_operators",
    "build_bell_operator",
    "classical_bound",
    "quantum_value",
    "sos_terms",
    "sos_residual",
    "extra_statistics",
]

MAX_ENUMERATION_PARTIES = 10  # enumeration walks 4^N deterministic assignments


@dataclass(frozen=True)
class BellExpression:
    """One member of the Bell family: party count and target outcome bits."""

    parties: int
    target_outcomes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "target_outcomes", tuple(int(b) for b in self.target_outcomes))
        if self.parties < 2:
            raise ValueError("the Bell family needs at least 2 parties")
        if len(self.target_outcomes) != self.parties:
            raise ValueError(
                f"need {self.parties} outcome bits, got {len(self.target_outcomes)}"
            )
        if any(b not in (0, 1) for b in self.target_outcomes):
            raise ValueError("target outcomes must be bits")

    @property
    def quantum_bound(self) -> float:
        return 2.0 * (self.parties - 1)

    @property
    def classical_bound_analytic(self) -> float:
        return math.sqrt(2.0) * (self.parties - 1)


def bell_terms(expr: BellExpression) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N terms ``c_g (u_g . S^1) ox S^2_{j_2} ox ... ox S^N_{j_N}`` of
    the functional, where party n's ``S^n = (I, A_{n,0}, A_{n,1})``:
    ``rest`` (shape ``(N, N - 1)``) holds each term's indices ``j`` of
    parties 2..N, ``rows`` (shape ``(N, 3)``) party 1's ``u_g``, its signed
    T0 or T1 expanded into its two settings, and ``weights`` the ``c_g``.
    The terms come in the order of ``rest`` read as base-3 numbers:
    ``Q_N, ..., Q_2``, then ``P``.
    """
    n, a = expr.parties, expr.target_outcomes
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    rest, rows = [], []
    for m in range(n - 1, 0, -1):
        # Q_m: (-1)^{a_1 + a_m} T0 ox A_{m,0}, with T0 = (A_{1,0} - A_{1,1}) / sqrt(2)
        sign = -1.0 if (a[0] + a[m]) % 2 else 1.0
        rest.append([1 if k == m else 0 for k in range(1, n)])
        rows.append([0.0, sign * inv_sqrt2, -sign * inv_sqrt2])
    # P: (N-1) (-1)^{a_1} T1 ox A_{2,1} ox ... ox A_{N,1}, with T1 = (A_{1,0} + A_{1,1}) / sqrt(2)
    sign = -1.0 if a[0] else 1.0
    rest.append([2] * (n - 1))
    rows.append([0.0, sign * inv_sqrt2, sign * inv_sqrt2])
    return np.array(rest), np.array(rows), np.array([1.0] * (n - 1) + [n - 1.0])


def bell_coefficients(expr: BellExpression) -> np.ndarray:
    """Real tensor ``C`` of shape ``(3,) * N`` with

        B_a = sum_i C[i_1, ..., i_N] S^1_{i_1} ox ... ox S^N_{i_N},

    where party n's ``S^n = (I, A_{n,0}, A_{n,1})`` (``setting_stacks``):
    the ``bell_terms`` scattered, each term's weighted row at its indices.
    """
    rest, rows, weights = bell_terms(expr)
    c = np.zeros((3,) * expr.parties)
    c[(slice(None), *rest.T)] = (weights[:, np.newaxis] * rows).T
    return c


def term_vectors(x, dims, rest, stacks, party: int = 0, first=None):
    """The Bell-term kernel: for each term ``g`` of ``bell_terms`` (``rest``
    its indices of parties 2..N), it yields ``v_g = O_g x`` with every
    factor applied except that of party index ``party``.  A row of ``x``,
    ``(C, D k)``, is a vector or a row-major ``(D, k)`` block of k of them.
    Index ``q > 0`` applies ``S_{j_q}`` of ``stacks[q]``, ``(3, d, d)`` or
    ``(C, 3, d, d)``, unless ``j_q = 0``; for ``party > 0``, index 0
    applies ``first[..., g, :, :]``, its settings merged by term ``g``'s
    coefficients."""
    for g, j in enumerate(rest):
        y = _apply(first[..., g, :, :], x, dims, 0) if party else x
        for q, i in enumerate(j, start=1):
            if i and q != party:
                y = _apply(stacks[q][..., i, :, :], y, dims, q)
        yield y


def _table_value(expr: BellExpression, correlators: np.ndarray) -> float:
    """Value of ``B_expr`` from the ``(3,) * N`` correlators over each party's
    ``(I, A_0, A_1)``: each weighted ``bell_terms`` row against the table at
    its term's indices, ``bell_coefficients``' scatter read back."""
    rest, rows, weights = bell_terms(expr)
    return float(np.einsum("g,gi,ig->", weights, rows, correlators[(slice(None), *rest.T)]))


def functional_values(kets, bras, dims, stacks, targets) -> np.ndarray:
    """Value of ``B_{targets[c]}`` on each state ``X_c Y_c^dag``, given as
    rows of ``kets`` and ``bras`` (a branch factor and its signed copy),
    for each party's ``(3, d, d)`` stack.  Per
    term ``g``, ``term_vectors`` with party 1 left out gives ``K_g = v_g
    Y^dag`` over party 1's rows, and the value is ``sum_{g, i} c_g u_g[i]
    Tr(S^1_i K_g)`` with the target's ``bell_terms`` (whose ``rest`` is the
    same for every target)."""
    terms = [bell_terms(BellExpression(len(dims), a)) for a in targets]
    bra = dagger(_party_rows(bras, dims, 0))
    vectors = term_vectors(kets, dims, terms[0][0], stacks)
    k = np.stack([_party_rows(v, dims, 0) @ bra for v in vectors], axis=1)
    weighted = np.stack([weights[:, np.newaxis] * rows for _, rows, weights in terms])
    return np.real(np.einsum("cgi,iab,cgba->c", weighted, stacks[0], k))


def setting_stacks(observables) -> list[np.ndarray]:
    """Per-party ``(3, d, d)`` stacks ``(I, A_0, A_1)``, the operators that
    the indices of ``bell_coefficients`` name, from each party's
    (setting-0, setting-1) pair: a ``(2, d, d)`` array or two matrices."""
    stacks = []
    for n, pair in enumerate(observables):
        m0, m1 = (np.asarray(m, dtype=complex) for m in pair)
        d = m0.shape[0]
        if m0.shape != (d, d) or m1.shape != (d, d):
            raise DimensionMismatchError(f"party {n}: inconsistent observable shapes")
        stacks.append(np.stack([np.eye(d, dtype=complex), m0, m1]))
    return stacks


# Rows (E_00, E_01, E_10, E_11) in terms of (I, A_0, A_1): E_{x,a} = (I + (-1)^a A_x) / 2.
_EFFECTS_FROM_SETTINGS = 0.5 * np.array(
    [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]]
)


def outcome_table(correlators: np.ndarray, parties: int) -> np.ndarray:
    """Unclamped outcome probabilities of the effects ``E_{x,a}``, indexed
    ``[..., x_1, ..., x_N, a_1, ..., a_N]`` (settings first, then outcomes)
    and C-contiguous, from correlators ``<S^1_{i_1} ox ... ox S^N_{i_N}>``
    over each party's ``(I, A_0, A_1)``, shape ``(..., 3, ..., 3)`` (any
    leading axes index branches)."""
    t = np.asarray(correlators)
    lead = t.shape[: t.ndim - parties]
    for _ in range(parties):
        # Consume the trailing (I, A_0, A_1) axis and put its effect axis first.
        t = _EFFECTS_FROM_SETTINGS @ t.reshape(-1, 3).T
    # (x_1, a_1, ..., x_N, a_N, branches) to settings first, a copy in runs
    # as long as the branch count, then branch-major again, so that each
    # branch's table is one block of memory with its outcomes contiguous.
    order = [*_grouped(parties), 2 * parties]
    t = np.ascontiguousarray(t.reshape((2, 2) * parties + (-1,)).transpose(order))
    t = np.ascontiguousarray(t.reshape(4**parties, -1).T)
    return t.reshape(lead + (2,) * 2 * parties)


def bell_operators(coefficients: np.ndarray, stacks, out: np.ndarray | None = None) -> np.ndarray:
    """Operators ``sum_i C[i_1, ..., i_N] S^1_{i_1} ox ... ox S^N_{i_N}`` of a
    coefficient tensor ``C`` and per-party stacks ``S^n`` of shape
    ``(..., 3, d_n, d_n)``.  Leading axes of the stacks index strategies, so
    the result has shape ``(..., D, D)``; ``out``, a C-contiguous array of
    that shape, receives it in place of a new array.  The last step's input
    lives in the result's memory, so the peak is one result stack plus the
    last step's output.

    One matmul per party consumes the leading operator-choice axis of ``C``
    and appends that party's (row, column) pair, so no Kronecker product is
    formed.  The result is Hermitian up to roundoff when every stack is.
    """
    n_parties = coefficients.ndim
    if len(stacks) != n_parties:
        raise DimensionMismatchError(
            f"need observables for {n_parties} parties, got {len(stacks)}"
        )
    dims = [s.shape[-1] for s in stacks]
    batch = np.broadcast_shapes(*(s.shape[:-3] for s in stacks))
    d = math.prod(dims)
    if out is None:
        out = np.empty(batch + (d, d), np.result_type(coefficients, *stacks))
    elif out.shape != batch + (d, d) or not out.flags.c_contiguous:
        raise DimensionMismatchError(f"out must be a C-contiguous {batch + (d, d)} array")
    t = coefficients.reshape(3, -1)
    for n, stack in enumerate(stacks):
        t = np.swapaxes(t.reshape(t.shape[:-2] + (3, -1)), -1, -2)
        s = stack.reshape(stack.shape[:-3] + (3, -1))
        into = None
        if n == n_parties - 2:
            # The last step's input, 3 (D / d_N)^2 entries per strategy,
            # goes into out when it fits (d_N >= 2); the last step reads it
            # before out is written.
            shape = np.broadcast_shapes(t.shape[:-2], s.shape[:-2]) + (t.shape[-2], s.shape[-1])
            if math.prod(shape) <= out.size:
                into = out.reshape(-1)[: math.prod(shape)].reshape(shape)
        t = np.matmul(t, s, out=into)
    k = len(batch)
    t = t.reshape(batch + tuple(d for d in dims for _ in (0, 1)))
    rows_then_cols = t.transpose([*range(k), *(k + a for a in _grouped(n_parties))])
    np.copyto(out.reshape(rows_then_cols.shape), rows_then_cols)
    return out


def build_bell_operator(expr: BellExpression, observables) -> np.ndarray:
    """Bell operator for ``expr`` built from per-party (setting-0, setting-1)
    observable pairs."""
    op = bell_operators(bell_coefficients(expr), setting_stacks(observables))
    return herm_part(op)


def classical_bound(expr: BellExpression) -> float:
    """Maximum of the functional over all deterministic +/-1 assignments to
    every observable symbol (exhaustive, exact up to floating arithmetic):
    ``bell_coefficients`` contracted, one party at a time, with the values
    ``(1, a_0, a_1)`` that party's ``(I, A_0, A_1)`` take in its four
    assignments, which leaves the 4^N values of the functional."""
    n = expr.parties
    if n > MAX_ENUMERATION_PARTIES:
        raise ValueError(
            f"enumeration over 4^{n} assignments refused for N > "
            f"{MAX_ENUMERATION_PARTIES}; the closed form is sqrt(2)*(N-1)"
        )
    rows = np.array([(1.0, a0, a1) for a0 in (1.0, -1.0) for a1 in (1.0, -1.0)])
    values = bell_coefficients(expr)
    for _ in range(n):
        # Consume the leading party axis and append its assignment axis.
        values = np.tensordot(values, rows, axes=(0, 1))
    return float(np.max(values))


def quantum_value(state: QuantumState, observables, expr: BellExpression) -> float:
    """Value ``Tr(B rho)`` of the Bell operator on a state: the
    ``_table_value`` of its density's correlator table, so no D x D
    operator is formed and the density is not factored."""
    stacks = setting_stacks(observables)
    if tuple(len(s[0]) for s in stacks) != state.dims or len(stacks) != expr.parties:
        raise DimensionMismatchError(f"observables do not match dims {state.dims}, N = {expr.parties}")
    return _table_value(expr, effect_table(state.density, state.dims, stacks))


def sos_terms(expr: BellExpression, observables) -> np.ndarray:
    """The witnesses ``X_g = u_g . S^1 - S^2_{j_2} ox ... ox S^N_{j_N}`` of
    the ``bell_terms``, shape ``(N, D, D)`` in their order:

        Q_n = (-1)^{a_1 + a_n} T0 - A_{n,0}          (n = N, ..., 2)
        P   = (-1)^{a_1} T1 - A_{2,1} ox ... ox A_{N,1}

    each padded with identities to the full space: the Bell-term kernel
    applied to the rows of the identity gives the transpose of each.
    """
    rest, rows, _ = bell_terms(expr)
    stacks = setting_stacks(observables)
    dims = tuple(len(s[0]) for s in stacks)
    eye = np.eye(math.prod(dims), dtype=complex)
    first = np.tensordot(rows, stacks[0], 1)
    terms = zip(first, term_vectors(eye, dims, rest, stacks))
    return np.stack([(_apply(u, eye, dims, 0) - v).T for u, v in terms])


@dataclass(frozen=True, eq=False)
class SOSWitness:
    """Residual of the sum-of-squares identity

        R = 2 [beta_Q I - B] - sum_g c_g X_g^2

    over the ``bell_terms`` weights ``c_g`` and ``sos_terms`` witnesses
    ``X_g``, that is ``(N-1) P^2 + sum_n Q_n^2``.

    ``residual_norm`` is the max-norm of R (zero exactly when every
    observable squares to the identity); ``min_eigenvalue`` certifies that R
    stays positive semidefinite for contractive observables.
    """

    residual_norm: float
    min_eigenvalue: float
    is_exact_identity: bool


def sos_residual(expr: BellExpression, observables) -> SOSWitness:
    """Evaluate the SOS identity residual for the given observables; the
    identity counts as exact when the residual is below ``ALGEBRA_TOL``."""
    op = build_bell_operator(expr, observables)
    witnesses = sos_terms(expr, observables)
    squares = np.tensordot(bell_terms(expr)[2], witnesses @ witnesses, 1)
    r = 2.0 * (expr.quantum_bound * np.eye(op.shape[0]) - op) - squares
    norm = max_abs(r)
    min_eig = float(np.min(np.linalg.eigvalsh(herm_part(r))))
    return SOSWitness(
        residual_norm=norm, min_eigenvalue=min_eig, is_exact_identity=bool(norm < ALGEBRA_TOL)
    )


def extra_statistics(state: QuantumState, observables) -> tuple[tuple[str, float, float], ...]:
    """The side statistics of one state, as (label, value, target) triples:
    for every party n = 2..N the pair ``<T0 ox I> = -1`` (party-1 rotated
    observable) and ``<I ox A_{n,1}> = +1``, one-party values read off the
    state's marginals.  Whether a value is on target is decided once, by the
    certification chain at its maximal-violation tolerance."""
    marginals = mixture_marginals([state])
    values = [np.real(np.einsum("sab,ba->s", pair, m)) for pair, m in zip(observables, marginals)]
    tilde_val = float(values[0][0] - values[0][1]) / math.sqrt(2.0)
    entries = []
    for n in range(1, len(values)):
        entries.append((f"tilde0(party 1) with party {n + 1}", tilde_val, -1.0))
        entries.append((f"setting-1 observable, party {n + 1}", float(values[n][1]), 1.0))
    return tuple(entries)
