"""Alternating (seesaw) maximization of the Bell functionals.

An optimization oracle independent of the sum-of-squares argument: starting
from random projective observables at a fixed local dimension, alternately
replace the state by the Bell operator's top eigenvector and each observable
by the matrix sign of its effective operator.  Both sub-updates solve their
restricted problem exactly, so the value sequence never decreases, and for
this Bell family it can never pass ``2 (N - 1)`` at any local dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import BellExpression, build_bell_operator
from .linalg import dagger, herm_eig, kron, partial_trace
from .quantum import QuantumState, pure_state, random_projective_observable

__all__ = [
    "SeesawConfig",
    "SeesawResult",
    "optimal_observable_update",
    "optimal_state_update",
    "seesaw_maximize",
    "seesaw_restarts",
]


@dataclass(frozen=True)
class SeesawConfig:
    local_dims: tuple[int, ...]
    max_iters: int = 200
    convergence_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "local_dims", tuple(int(d) for d in self.local_dims))
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if any(d < 2 for d in self.local_dims):
            raise ValueError("local dimensions must be at least 2")


@dataclass(frozen=True, eq=False)
class SeesawResult:
    value: float
    state: QuantumState
    observables: tuple[tuple[np.ndarray, np.ndarray], ...]
    iterations: int
    converged: bool


def optimal_observable_update(effective: np.ndarray) -> np.ndarray:
    """Maximizer of ``Tr(O H)`` over Hermitian ``O`` with ``O^2 = I``: the
    matrix sign of ``H``.

    An eigenvalue ``lambda`` near zero moves the objective by at most
    ``2 |lambda|`` whichever sign it gets; exact zeros are assigned +1.
    """
    return herm_eig(effective).sign()


def optimal_state_update(bell_operator: np.ndarray, dims: tuple[int, ...]) -> tuple[QuantumState, float]:
    """Top eigenvector of the Bell operator as a pure state, with its value."""
    eig = herm_eig(bell_operator)
    return pure_state(eig.eigenvectors[:, -1], dims), float(eig.eigenvalues[-1])


def _effective_operator(expr, observables, state, party, setting):
    """Partial contraction of the Bell operator against everything except
    one observable: value = Tr(O_{party,setting} E) + independent terms."""
    n = expr.parties
    dims = state.dims
    a = expr.target_outcomes
    s1 = -1.0 if a[0] else 1.0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)

    # Primitive terms (coeff, {party: (setting)}) of the functional, with
    # party 1 expanded out of its rotated combinations.
    terms = []
    for j in (0, 1):
        terms.append((s1 * (n - 1) * inv_sqrt2, {0: j, **{m: 1 for m in range(1, n)}}))
    for m in range(1, n):
        sm = -1.0 if (a[0] + a[m]) % 2 else 1.0
        terms.append((sm * inv_sqrt2, {0: 0, m: 0}))
        terms.append((-sm * inv_sqrt2, {0: 1, m: 0}))

    d = dims[party]
    eff = np.zeros((d, d), dtype=complex)
    for coeff, slots in terms:
        if slots.get(party) != setting:
            continue
        mats = []
        for p in range(n):
            if p == party:
                mats.append(np.eye(dims[p], dtype=complex))
            elif p in slots:
                mats.append(observables[p][slots[p]])
            else:
                mats.append(np.eye(dims[p], dtype=complex))
        eff += coeff * partial_trace(kron(*mats) @ state.density, dims, party)
    return (eff + dagger(eff)) / 2.0


def seesaw_maximize(expr: BellExpression, config: SeesawConfig) -> SeesawResult:
    """One seesaw run from a seeded random start."""
    n = expr.parties
    dims = config.local_dims
    if len(dims) != n:
        raise ValueError(f"need {n} local dimensions, got {len(dims)}")
    rng = np.random.default_rng(config.seed)
    observables = [
        [random_projective_observable(dims[p], rng) for _ in range(2)] for p in range(n)
    ]

    value = -np.inf
    iterations = 0
    converged = False
    state = None
    for iterations in range(1, config.max_iters + 1):
        op = build_bell_operator(expr, observables)
        state, value_state = optimal_state_update(op, dims)
        for party in range(n):
            for setting in (0, 1):
                eff = _effective_operator(expr, observables, state, party, setting)
                observables[party][setting] = optimal_observable_update(eff)
        new_value = float(
            np.real(np.trace(build_bell_operator(expr, observables) @ state.density))
        )
        if new_value - value < config.convergence_tol and iterations > 1:
            value = max(value, new_value)
            converged = True
            break
        value = new_value
    return SeesawResult(
        value=value,
        state=state,
        observables=tuple((o[0], o[1]) for o in observables),
        iterations=iterations,
        converged=converged,
    )


def seesaw_restarts(
    expr: BellExpression,
    local_dims: tuple[int, ...],
    seeds,
    max_iters: int = 200,
    convergence_tol: float = 1e-12,
) -> list[SeesawResult]:
    """Independent seeded restarts (the landscape has local optima)."""
    return [
        seesaw_maximize(
            expr,
            SeesawConfig(
                local_dims=tuple(local_dims),
                max_iters=max_iters,
                convergence_tol=convergence_tol,
                seed=int(s),
            ),
        )
        for s in seeds
    ]
