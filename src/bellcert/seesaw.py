"""Alternating (seesaw) maximization of the Bell functionals.

An optimization oracle independent of the sum-of-squares argument: starting
from random projective observables at a fixed local dimension, alternately
replace the state by the Bell operator's top eigenvector and each observable
by the matrix sign of its effective operator.  Both sub-updates solve their
restricted problem exactly, so the value sequence never decreases, and for
this Bell family it can never pass ``2 (N - 1)`` at any local dimension.

Only the state update forms the D x D Bell operator.  Effective operators
and iteration values (``bell.quantum_value``) contract the state with local
operators (``quantum.local_contraction``) and weight the table by the
coefficient tensor ``bell.bell_coefficients``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import (
    BellExpression,
    bell_coefficients,
    build_bell_operator,
    quantum_value,
    setting_stacks,
)
from .linalg import dagger, herm_eig
from .quantum import QuantumState, local_contraction, pure_state, random_projective_observable

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
    one observable: value = Tr(O_{party,setting} E) + independent terms.

    One ``local_contraction``: the other parties get their ``(I, A_0, A_1)``
    stacks and ``party`` the matrix units ``|a><b|``, so the table holds
    ``Tr[(|a><b| ox ...) rho] = E_ba`` against every operator choice of the
    others, weighted by ``C[..., 1 + setting, ...]``.
    """
    d = state.dims[party]
    stacks = setting_stacks(observables)
    stacks[party] = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    table = np.moveaxis(local_contraction(state.density, state.dims, stacks), party, -1)
    weights = np.take(bell_coefficients(expr), 1 + setting, axis=party)
    eff = np.tensordot(weights, table, axes=weights.ndim).reshape(d, d).T
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
        state, _ = optimal_state_update(build_bell_operator(expr, observables), dims)
        for party in range(n):
            for setting in (0, 1):
                eff = _effective_operator(expr, observables, state, party, setting)
                observables[party][setting] = optimal_observable_update(eff)
        new_value = quantum_value(state, observables, expr)
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
