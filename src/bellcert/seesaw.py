"""Alternating (seesaw) maximization of the Bell functionals.

An optimization oracle independent of the sum-of-squares argument: starting
from random projective observables at a fixed local dimension, alternately
replace the state by the Bell operator's top eigenvector and each observable
by the matrix sign of its effective operator.  Both sub-updates solve their
restricted problem exactly, so the value sequence never decreases, and for
this Bell family it can never pass ``2 (N - 1)`` at any local dimension.

Only the state update forms the D x D Bell operator.  The sweep over the
parties costs one ``quantum.local_contraction`` of the state per party:
weighted by the coefficient tensor ``bell.bell_coefficients``, the table
gives the effective operators of that party's identity and both settings
at once.  The last party's table, summed against its updated observables,
is the iteration value, so no separate ``bell.quantum_value`` is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import (
    BellExpression,
    bell_coefficients,
    build_bell_operator,
    setting_stacks,
)
from .linalg import herm_eig
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


def _effective_operators(state, stacks, coefficients, party):
    """Effective operators ``K[i]`` of ``party``'s ``(I, A_0, A_1)``: with
    the other parties' ``stacks`` fixed, the Bell value is
    ``sum_i Tr(S_i K[i])`` for any stack ``S`` of ``party``, so ``K[1 + s]``
    is the effective operator of setting ``s``.

    One ``local_contraction``: the other parties get their stacks and
    ``party`` the matrix units ``|a><b|``, so the table holds
    ``Tr[(|a><b| ox ...) rho] = K_ba`` against every operator choice of the
    others, weighted by ``C`` with ``party``'s axis left open.  ``party``'s
    own stack does not enter, so its updated settings leave ``K`` valid.
    """
    d = state.dims[party]
    stacks = list(stacks)
    stacks[party] = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    table = np.moveaxis(local_contraction(state.density, state.dims, stacks), party, -1)
    weights = np.moveaxis(coefficients, party, 0)
    kt = np.tensordot(weights, table, axes=weights.ndim - 1).reshape(3, d, d)  # K transposed
    return (kt.transpose(0, 2, 1) + np.conj(kt)) / 2.0


def _strategy_value(stack, effective) -> float:
    """Bell value ``sum_i Tr(S_i K[i])`` of the strategy in which the party
    whose ``_effective_operators`` are ``effective`` holds the stack ``S``."""
    return float(np.real(np.einsum("iab,iba->", stack, effective)))


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

    coefficients = bell_coefficients(expr)
    value = -np.inf
    iterations = 0
    converged = False
    state = None
    for iterations in range(1, config.max_iters + 1):
        state, _ = optimal_state_update(build_bell_operator(expr, observables), dims)
        stacks = setting_stacks(observables)
        for party in range(n):
            effective = _effective_operators(state, stacks, coefficients, party)
            observables[party] = [optimal_observable_update(effective[1 + s]) for s in (0, 1)]
            stacks[party] = np.stack([stacks[party][0], *observables[party]])
        # The last table was taken after every other party's update, so
        # against the last party's new stack it gives the updated value.
        new_value = _strategy_value(stacks[-1], effective)
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
