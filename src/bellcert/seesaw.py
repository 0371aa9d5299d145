"""Alternating (seesaw) maximization of the Bell functionals.

An optimization oracle independent of the sum-of-squares argument: starting
from random projective observables at a fixed local dimension, alternately
replace the state by the Bell operator's top eigenvector and each observable
by the matrix sign of its effective operator.  Both sub-updates solve their
restricted problem exactly, the state update to within
``TOP_MARGIN * max(1, |value|)`` and roundoff, so the value sequence never
decreases by more than that, and for this Bell family it can never pass
``2 (N - 1)`` at any local dimension.

The restarts of a run advance in lockstep, from starting observables
drawn together: each restart's seeded generator draws one Gaussian
block of shape ``(2, 2, d, d)`` per party, one stacked QR per party
(``quantum._projective_observables``) makes every restart's pair, and
``bell.setting_stacks`` their ``(R, 3, d, d)`` stacks.  Each iteration
writes the ``(R, D, D)`` Bell operators of the R active restarts in one
``bell.bell_operators`` pass into the leading rows of one operator stack
that the chunk keeps; the state stays a vector, a row of ``psi`` of
shape ``(R, D)``.  Below ``ITERATIVE_MIN_DIM`` one stacked ``eigh``
diagonalizes the operators.  From there on ``optimal_state_update`` runs
lockstep Lanczos steps on all of them: in the first iteration
``LANCZOS_STEPS`` steps from the seed-0 vector, whose top Ritz vectors a
Rayleigh-quotient iteration then refines; in every later one at most
``WARM_STEPS`` from the previous iteration's rows of ``psi``, each restart
stopping once its top Ritz residual estimate meets ``RESIDUAL_TOL``, so
that no linear solve is left to do.  A Cholesky factorization checks each
value to within ``TOP_MARGIN * max(1, |value|)`` up to roundoff, and a
restart that fails the check gets a dense ``eigh``.
Each party's effective operators are read off the Bell-term kernel
(``bell._effective_operators``, ``psi`` as both kets and bras) with the
other parties' ``(I, A_0, A_1)`` stacks, party 0's two settings merged,
so no D x D density is formed, and one stacked ``eigh`` gives the new
settings of every restart.  The last party's effective operators, traced
against its updated settings (``bell._strategy_value``), are the
iteration value.  A restart that meets the convergence rule leaves the
batch, and the restarts go in chunks so that the Bell operators stay
within ``quantum.CHUNK_BYTES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import (
    BellExpression,
    _effective_operators,
    _strategy_value,
    bell_coefficients,
    bell_operators,
    bell_terms,
    setting_stacks,
)
from .linalg import EigenDecomposition
from .quantum import QuantumState, _chunks, _projective_observables, _rng, pure_state

__all__ = [
    "SeesawResult",
    "optimal_observable_update",
    "optimal_state_update",
    "seesaw_restarts",
]


@dataclass(frozen=True, eq=False)
class SeesawResult:
    """One restart's outcome; ``vector`` is the top eigenvector of the last
    state update, and ``observables`` holds each party's ``(2, d, d)``
    pair."""

    value: float
    vector: np.ndarray
    observables: tuple[np.ndarray, ...]
    iterations: int
    converged: bool

    @property
    def state(self) -> QuantumState:
        """The pure state of ``vector``, built each time it is read."""
        return pure_state(self.vector, tuple(pair.shape[-1] for pair in self.observables))


def optimal_observable_update(effective: np.ndarray) -> np.ndarray:
    """Maximizer of ``Tr(O H)`` over Hermitian ``O`` with ``O^2 = I``: the
    matrix sign of ``H``, for one matrix or a stack ``(..., d, d)``.

    An eigenvalue ``lambda`` near zero moves the objective by at most
    ``2 |lambda|`` whichever sign it gets; exact zeros are assigned +1.
    """
    return EigenDecomposition(*np.linalg.eigh(effective)).sign()


# From ITERATIVE_MIN_DIM rows on, a state update ends with Rayleigh-quotient
# iteration per operator, which stops once ``|B x - rho x| <= RESIDUAL_TOL``
# and accepts ``rho`` once the Cholesky check puts it within
# ``TOP_MARGIN * max(1, |rho|)`` of the top eigenvalue (to within the
# factorization's roundoff, about ``D * u * |B|`` with u = 2^-53: 2e-12 at
# D = 1024 and |B| = 18, against a margin of 1.8e-11 there); after
# MAX_STEPS solves it falls back to a dense ``eigh``.  Below
# ITERATIVE_MIN_DIM one stacked ``eigh`` of all operators is faster than a
# Python loop over them: per restart the loop costs about 8x the eigh at
# D = 4, 1.3x at D = 16, and 0.8x at D = 32 (one BLAS thread, x86_64).
RESIDUAL_TOL = 1e-12
TOP_MARGIN = 1e-12
MAX_STEPS = 8
ITERATIVE_MIN_DIM = 32

# Without a start vector, LANCZOS_STEPS lockstep Lanczos steps from the
# seed-0 vector give each operator the top Ritz vector that its
# Rayleigh-quotient iteration starts from; too few steps leave a Ritz vector
# from which the iteration ends at a lower eigenvalue, and the dense
# fallback runs.  On the benchmark's shape (four qutrits, D = 81), the 80
# first-iteration restarts of the round at seed 1 sent 7 to the fallback at
# 10 steps, 2 at 14 and none at 20; over the rounds of seeds 0-149 (12,000
# restarts) 20 steps still sent 27, 24 sent 6 and 28 none.  Going on to the
# residual tolerance instead would take 38-54 steps there (median 48 over
# the first-iteration restarts of seeds 0-319), so the cold start keeps its
# fixed steps and leaves the rest to the iteration.
#
# With a start vector (every seesaw iteration after the first), an operator
# stops as soon as its top Ritz residual estimate meets RESIDUAL_TOL, and
# after WARM_STEPS at the latest; one that has not met it by then is
# finished by the Rayleigh-quotient iteration.  WARM_STEPS is at most
# ITERATIVE_MIN_DIM, since a basis holds no more than D vectors.  Steps to
# the tolerance from the previous iteration's vectors (target all zeros,
# seeds from 0; "1 step" is a start that already meets it), one BLAS
# thread: 670 of 2,841 updates took 1 step at D = 32 (1,024 restarts), the
# rest at most 16; 165 of 718 at D = 64 (256 restarts), at most 23; 154 of
# 656 at D = 81 (four qutrits, 240 restarts), at most 8; 11 of 55 at
# D = 256 (20 restarts), at most 30; and 1 of 9 at D = 1024 (3 restarts),
# at most 27.  A cap of 16 sent 31 of the D = 64 updates and 3 of the
# D = 1024 ones to a solve; at D = 1024 one solve (90 ms) costs as much as
# 60 matvecs (1.4 ms each), and one restart took 0.67 s with the cap at 16
# and 0.59 s at 32 (best of 3).
#
# A new direction shorter than LANCZOS_BREAKDOWN times ``|B q|`` is a
# breakdown: the Krylov space is invariant up to roundoff, and the basis
# goes on from a seeded vector orthogonal to it.  A longer one, however
# short, is a true direction and is kept: with |B| <= 18 (N <= 10) a warm
# start whose residual is above RESIDUAL_TOL never breaks down, since a
# breakdown would hide that residual from the estimate.
LANCZOS_STEPS = 28
WARM_STEPS = 32
LANCZOS_BREAKDOWN = 1e-14

# A restart has converged once an iteration raises its value by less than
# CONVERGENCE_TOL; one that has not stops after MAX_ITERS iterations.
CONVERGENCE_TOL = 1e-12
MAX_ITERS = 200


def optimal_state_update(
    operators: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvectors and eigenvalues of a Bell operator or a stack of
    them, shapes ``(..., D)`` and ``(...)``.  No eigenvector phase is fixed:
    neither the state nor a matrix sign depends on it.

    Below ``ITERATIVE_MIN_DIM`` one stacked ``eigh`` gives them; it reads
    one triangle, so an operator Hermitian only up to roundoff needs no
    symmetrizing.  From there on Lanczos steps run on all operators at once
    (``_ritz_starts``), and each operator ``B`` then gets a Rayleigh-quotient
    iteration from its top Ritz vector, ``x <- solve(B - rho I, x) / |.|``
    with ``rho`` the Rayleigh quotient of ``x``, until ``|B x - rho x| <=
    RESIDUAL_TOL``.  With ``start`` (shape ``(..., D)``, unit rows such as
    the previous seesaw iteration's vectors), each operator's Lanczos steps
    start from its row and stop once the top Ritz residual estimate meets
    ``RESIDUAL_TOL``, after ``WARM_STEPS`` at the latest, so the iteration
    has nothing left to solve unless the steps ran out; a row that already
    meets it is kept as it is.  Without one, they take ``LANCZOS_STEPS``
    steps from the seed-0 vector.  No D x D eigensolve is made.  A result
    counts only if ``(rho + delta) I - B`` has a Cholesky factor, ``delta =
    TOP_MARGIN * max(1, |rho|)``, which checks that ``rho`` is within
    ``delta`` of the top eigenvalue up to roundoff.  An operator whose
    iteration fails that check, meets a singular solve or runs out of steps
    gets a dense ``eigh`` of its own.
    """
    dim = operators.shape[-1]
    if dim < ITERATIVE_MIN_DIM:
        values, vectors = np.linalg.eigh(operators)
        return np.ascontiguousarray(vectors[..., -1]), values[..., -1]
    stack = operators.reshape(-1, dim, dim)
    starts = _ritz_starts(stack, None if start is None else start.reshape(-1, dim))
    vectors = np.empty((len(stack), dim), dtype=complex)
    values = np.empty(len(stack))
    scratch = np.empty((dim, dim), dtype=complex)
    for r, b in enumerate(stack):
        top = _rayleigh_top(b, starts[r], scratch)
        if top is None:
            eigenvalues, eigenvectors = np.linalg.eigh(b)
            top = eigenvectors[:, -1], eigenvalues[-1]
        vectors[r], values[r] = top
    return vectors.reshape(operators.shape[:-1]), values.reshape(operators.shape[:-2])[()]


def _seed_vector(dim: int, seed: int = 0) -> np.ndarray:
    """The unit vector of ``dim`` standard normals drawn from ``seed``."""
    x = _rng(seed).standard_normal(dim)
    return x / np.linalg.norm(x)


def _ritz_starts(stack, start=None):
    """Top Ritz vectors, shape ``(R, D)``, of the ``(R, D, D)`` Hermitian
    ``stack`` after at most ``steps`` Lanczos steps (``LANCZOS_STEPS``
    without ``start``, ``WARM_STEPS`` with it), taken on every operator
    at once and with full reorthogonalisation (two Gram-Schmidt passes
    against the basis, one ``(R, steps, D)`` array; the projections
    conjugate the new direction, not the basis, so no copy of the basis is
    made).  A breakdown gives its operator a zero off-diagonal entry and a
    fresh seeded direction, orthogonal to the basis, so the tridiagonal
    matrix stays a compression of the operator.

    Without ``start`` every operator takes all ``steps`` from the seed-0
    vector.  From the unit rows of ``start``, an operator stops at the first
    step ``k < steps`` at which its top Ritz pair has the residual estimate
    ``beta_k |s_k| <= RESIDUAL_TOL``: ``beta_k`` is the length of the new
    direction and ``s_k`` the last entry of the top eigenvector of the ``k x
    k`` tridiagonal matrix.  One that meets it at the first step gets its
    start row back unchanged; one that never meets it gets its top Ritz
    vector after ``steps`` steps.  A stopped operator's basis rows are
    dropped, and from then on the others' products are taken one operator
    at a time, so no operator row is copied."""
    count, dim = len(stack), stack.shape[-1]
    steps = LANCZOS_STEPS if start is None else WARM_STEPS
    basis = np.empty((count, steps, dim), dtype=complex)
    basis[:, 0] = _seed_vector(dim) if start is None else start
    alpha = np.empty((count, steps))
    beta = np.zeros((count, steps - 1))
    x = np.empty((count, dim), dtype=complex)
    rows = np.arange(count)  # the operators still running, in basis order
    for j in range(steps):
        n = len(rows)
        q = basis[:n, : j + 1]
        if n == count:
            w = np.matmul(stack, q[:, j, :, np.newaxis])
        else:
            w = np.stack([stack[r] @ v for r, v in zip(rows, q[:, j])])[..., np.newaxis]
        projections = np.conj(q @ np.conj(w))
        alpha[:n, j] = projections[:, j, 0].real
        if j == steps - 1:
            break
        scale = np.linalg.norm(w[..., 0], axis=-1)
        w -= np.swapaxes(q, 1, 2) @ projections
        w -= np.swapaxes(q, 1, 2) @ np.conj(q @ np.conj(w))
        w = w[..., 0]
        norms = np.linalg.norm(w, axis=-1)
        if start is not None:
            top = _top_ritz(alpha[:n, : j + 1], beta[:n, :j])
            met = norms * np.abs(top[:, -1]) <= RESIDUAL_TOL
            if met.any():
                x[rows[met]] = _combine(q[met], top[met]) if j else start[rows[met]]
                kept = np.flatnonzero(~met)
                rows, w, norms, scale = rows[kept], w[kept], norms[kept], scale[kept]
                n = len(rows)
                if not n:
                    return x
                basis[:n, : j + 1] = q[kept]
                alpha[:n], beta[:n] = alpha[kept], beta[kept]
                q = basis[:n, : j + 1]
        broken = ~(norms > LANCZOS_BREAKDOWN * scale)
        beta[:n, j] = np.where(broken, 0.0, norms)
        for r in np.flatnonzero(broken):
            fresh = _seed_vector(dim, j + 1).astype(complex)
            for _ in range(2):
                fresh -= np.conj(q[r] @ np.conj(fresh)) @ q[r]
            w[r], norms[r] = fresh, np.linalg.norm(fresh)
        basis[:n, j + 1] = w / norms[:, np.newaxis]
    x[rows] = _combine(basis[:n], _top_ritz(alpha[:n], beta[:n]))
    return x


def _top_ritz(alpha, beta):
    """Top eigenvectors, shape ``(R, k)``, of the real symmetric tridiagonal
    matrices with diagonals ``alpha`` ``(R, k)`` and off-diagonals ``beta``
    ``(R, k - 1)``."""
    count, steps = alpha.shape
    tridiagonal = np.zeros((count, steps, steps))
    diagonal = np.arange(steps)
    tridiagonal[:, diagonal, diagonal] = alpha
    tridiagonal[:, diagonal[1:], diagonal[:-1]] = beta
    tridiagonal[:, diagonal[:-1], diagonal[1:]] = beta
    return np.linalg.eigh(tridiagonal)[1][:, :, -1]


def _combine(basis, coefficients):
    """The unit vectors ``sum_k coefficients[r, k] basis[r, k]``."""
    x = (np.swapaxes(basis, 1, 2) @ coefficients[..., np.newaxis])[..., 0]
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _rayleigh_top(b, x, scratch):
    """Top eigenpair of the Hermitian ``b`` by Rayleigh-quotient iteration
    from the unit vector ``x``, checked by a Cholesky factorization, or
    None.  ``scratch`` is a spare array shaped like ``b``."""
    diagonal = scratch.reshape(-1)[:: len(b) + 1]
    for step in range(MAX_STEPS + 1):
        bx = b @ x
        value = np.vdot(x, bx).real
        if np.linalg.norm(bx - value * x) <= RESIDUAL_TOL:
            np.negative(b, out=scratch)
            diagonal += value + TOP_MARGIN * max(1.0, abs(value))
            try:
                np.linalg.cholesky(scratch)
            except np.linalg.LinAlgError:
                return None
            return x, value
        if step == MAX_STEPS:
            return None
        np.copyto(scratch, b)
        diagonal -= value
        try:
            y = np.linalg.solve(scratch, x)
        except np.linalg.LinAlgError:
            return None
        x = y / np.linalg.norm(y)


def _starting_stacks(dims, seeds) -> list[np.ndarray]:
    """Per-party ``(R, 3, d, d)`` setting stacks of the restarts ``seeds``:
    each seed's generator draws party by party one ``(2, 2, d, d)`` block,
    and one stacked QR per party makes every restart's observables."""
    rngs = [_rng(s) for s in seeds]
    draws = [np.stack([rng.standard_normal((2, 2, d, d)) for rng in rngs]) for d in dims]
    return setting_stacks([_projective_observables(x) for x in draws])


def _lockstep(coefficients, terms, dims, stacks) -> list[SeesawResult]:
    """Seesaw runs from the starting ``(R, 3, d, d)`` setting stacks, all
    advanced together until each converges or runs out of iterations."""
    results: list[SeesawResult | None] = [None] * len(stacks[0])
    active = np.arange(len(results))
    value = np.full(len(results), -np.inf)
    psi = None
    dim = math.prod(dims)
    operators = np.empty((len(results), dim, dim), dtype=complex)
    for iterations in range(1, MAX_ITERS + 1):
        running = bell_operators(coefficients, stacks, out=operators[: len(active)])
        psi, _ = optimal_state_update(running, psi)
        for party in range(len(dims)):
            effective = _effective_operators(psi, psi, dims, stacks, terms, party)
            stacks[party][:, 1:] = optimal_observable_update(effective[:, 1:])
        # The last party's operators were taken after every other party's
        # update, so against its new stack they give the updated value.
        new_value = _strategy_value(stacks[-1], effective)
        converged = (new_value - value < CONVERGENCE_TOL) & (iterations > 1)
        value = np.where(converged, np.maximum(value, new_value), new_value)
        done = converged | (iterations == MAX_ITERS)
        for j in np.flatnonzero(done):
            results[active[j]] = SeesawResult(
                value=float(value[j]),
                vector=psi[j].copy(),
                observables=tuple(s[j, 1:].copy() for s in stacks),
                iterations=iterations,
                converged=bool(converged[j]),
            )
        keep = ~done
        active, value, psi = active[keep], value[keep], psi[keep]
        stacks = [s[keep] for s in stacks]
        if not active.size:
            break
    return results


def seesaw_restarts(expr: BellExpression, local_dims: tuple[int, ...], seeds) -> list[SeesawResult]:
    """Independent seeded restarts (the landscape has local optima), each
    from random projective observables drawn from its seed, advanced in
    lockstep for at most ``MAX_ITERS`` iterations."""
    dims = tuple(int(d) for d in local_dims)
    if any(d < 2 for d in dims):
        raise ValueError("local dimensions must be at least 2")
    if len(dims) != expr.parties:
        raise ValueError(f"need {expr.parties} local dimensions, got {len(dims)}")
    seeds = [int(s) for s in seeds]
    coefficients, terms = bell_coefficients(expr), bell_terms(expr)
    results = []
    for chunk in _chunks(len(seeds), math.prod(dims)):
        stacks = _starting_stacks(dims, seeds[chunk])
        results += _lockstep(coefficients, terms, dims, stacks)
    return results
