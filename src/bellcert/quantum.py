"""States, measurements, unitary evolution and noise.

States are always stored as density matrices, even when pure, so nothing in
the certification chain has to assume purity.  Dichotomic (two-outcome)
measurements are described by their +/-1-valued observable; the measurement
element for outcome ``a`` is ``(I + (-1)^a O) / 2``.

Randomness: every seeded helper draws from ``numpy.random.default_rng``
(PCG64), so a fixed integer seed reproduces results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ALGEBRA_TOL,
    DimensionMismatchError,
    NonHermitianError,
    dagger,
    max_abs,
    partial_trace,
)

__all__ = [
    "ZERO_PROB",
    "NonUnitaryError",
    "ZeroProbabilityError",
    "QuantumState",
    "DichotomicObservable",
    "Interaction",
    "pure_state",
    "local_contraction",
    "born_table",
    "born_probability",
    "expectation",
    "post_measurement_state",
    "evolve",
    "white_noise_mix",
    "random_unitary",
    "random_projective_observable",
    "random_density",
    "as_matrix",
]

ZERO_PROB = 1e-12  # probabilities below this are not trusted for conditioning


class NonUnitaryError(ValueError):
    """An operator required to be unitary is not, within tolerance."""


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Density matrix on a composite system with fixed subsystem dims."""

    density: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "density", _freeze(self.density))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        d = int(np.prod(self.dims))
        if self.density.shape != (d, d):
            raise DimensionMismatchError(
                f"density shape {self.density.shape} does not match dims {self.dims}"
            )
        if max_abs(self.density - dagger(self.density)) > ALGEBRA_TOL:
            raise NonHermitianError("density matrix is not Hermitian")
        if abs(np.trace(self.density) - 1.0) > ALGEBRA_TOL:
            raise ValueError(f"density trace {np.trace(self.density):.12g} != 1")
        lo = float(np.min(np.linalg.eigvalsh(self.density)))
        if lo < -ALGEBRA_TOL:
            raise ValueError(f"density has negative eigenvalue {lo:.3e}")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def marginal(self, keep: int | tuple[int, ...]) -> QuantumState:
        """Reduced state on the kept subsystems."""
        keep_t = (keep,) if isinstance(keep, (int, np.integer)) else tuple(keep)
        red = partial_trace(self.density, self.dims, keep_t)
        return QuantumState(red, tuple(self.dims[k] for k in sorted(keep_t)))


def pure_state(vector: np.ndarray, dims: tuple[int, ...]) -> QuantumState:
    """Density matrix of a (normalized) state vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n < ZERO_PROB:
        raise ValueError("cannot normalize a zero vector")
    v = v / n
    return QuantumState(np.outer(v, np.conj(v)), dims)


@dataclass(frozen=True, eq=False)
class DichotomicObservable:
    """Hermitian +/-1-outcome observable, optionally labelled by
    (party, setting, time_slice)."""

    matrix: np.ndarray
    party: int | None = None
    setting: int | None = None
    time_slice: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        if max_abs(self.matrix - dagger(self.matrix)) > ALGEBRA_TOL:
            raise NonHermitianError(f"observable {self._label()} is not Hermitian")

    def _label(self) -> str:
        return f"(party={self.party}, setting={self.setting}, t={self.time_slice})"

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def effect(self, outcome: int) -> np.ndarray:
        """Measurement element ``(I + (-1)^outcome O) / 2``."""
        sign = 1.0 if outcome == 0 else -1.0
        return (np.eye(self.dim) + sign * self.matrix) / 2.0

    def projectivity_defect(self) -> float:
        """Max-norm distance of ``O^2`` from the identity."""
        return max_abs(self.matrix @ self.matrix - np.eye(self.dim))


@dataclass(frozen=True, eq=False)
class Interaction:
    """Unitary coupling the parties between the two measurement rounds.

    ``dims_in`` / ``dims_out`` list the per-party local dimensions before
    and after the interaction; the total dimension is preserved.
    """

    matrix: np.ndarray
    dims_in: tuple[int, ...]
    dims_out: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        object.__setattr__(self, "dims_in", tuple(int(d) for d in self.dims_in))
        object.__setattr__(self, "dims_out", tuple(int(d) for d in self.dims_out))
        d_in = int(np.prod(self.dims_in))
        d_out = int(np.prod(self.dims_out))
        if self.matrix.shape != (d_out, d_in) or d_in != d_out:
            raise DimensionMismatchError(
                f"interaction shape {self.matrix.shape} does not match dims "
                f"{self.dims_in} -> {self.dims_out}"
            )
        defect = max_abs(dagger(self.matrix) @ self.matrix - np.eye(d_in))
        if defect > ALGEBRA_TOL:
            raise NonUnitaryError(f"interaction is not unitary (defect {defect:.3e})")


def as_matrix(op) -> np.ndarray:
    """Accept a raw matrix or anything exposing ``.matrix``."""
    return np.asarray(getattr(op, "matrix", op), dtype=complex)


def local_contraction(rho: np.ndarray, dims: tuple[int, ...], stacks) -> np.ndarray:
    """Table ``T[i_1, ..., i_N] = Tr[(A^1_{i_1} ox ... ox A^N_{i_N}) rho]``.

    ``stacks[k]`` holds party ``k``'s operators, shape ``(m_k, d_k, d_k)``; a
    single ``(d_k, d_k)`` matrix counts as ``m_k = 1`` and ``None`` traces the
    party out.  ``rho.reshape(dims + dims)`` is contracted with one
    ``tensordot`` per party, the idiom of ``linalg.partial_trace``, so no
    Kronecker-product operator is ever formed.  The result has shape
    ``(m_1, ..., m_N)``.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if len(stacks) != n:
        raise DimensionMismatchError(f"got {len(stacks)} operator stacks for {n} parties")
    t = np.asarray(rho, dtype=complex).reshape(dims + dims)
    for k, (d, stack) in enumerate(zip(dims, stacks)):
        s = np.eye(d, dtype=complex) if stack is None else as_matrix(stack)
        if s.ndim == 2:
            s = s[np.newaxis]
        if s.ndim != 3 or s.shape[1:] != (d, d):
            raise DimensionMismatchError(
                f"party {k}: operator shape {s.shape[-2:]} does not match local dim {d}"
            )
        # Party k's row and column axes sit at 0 and n - k; sum A_ij rho_ji.
        t = np.tensordot(t, s, axes=([0, n - k], [2, 1]))
    return t


def born_table(state: QuantumState, stacks) -> np.ndarray:
    """Outcome probabilities ``Tr[(E^1_{i_1} ox ... ox E^N_{i_N}) rho]`` for
    every combination of per-party effects (see ``local_contraction``).
    Values within ``ZERO_PROB`` of the [0, 1] boundary are clamped onto it.
    """
    p = np.real(local_contraction(state.density, state.dims, stacks))
    p = np.where((-ZERO_PROB <= p) & (p < 0.0), 0.0, p)
    return np.where((1.0 < p) & (p <= 1.0 + ZERO_PROB), 1.0, p)


def born_probability(state: QuantumState, effects) -> float:
    """Outcome probability ``Tr[(E_1 ox ... ox E_N) rho]``.

    ``effects`` holds one positive measurement element per party.  Values
    within ``ZERO_PROB`` of the [0, 1] boundary are clamped onto it.
    """
    return float(born_table(state, effects).item())


def expectation(state: QuantumState, observables) -> float:
    """Expectation value of a product of local observables (``None`` entries
    mean identity on that party)."""
    return float(np.real(local_contraction(state.density, state.dims, observables).item()))


def post_measurement_state(state: QuantumState, projectors) -> QuantumState:
    """State after projecting each party on its observed outcome (Born rule
    renormalization).  Raises ``ZeroProbabilityError`` for outcomes with
    probability at most ``ZERO_PROB``.
    """
    # Entry (a, b) of Pi rho Pi^dag is Tr[(ox_k Pi_k^dag |b_k><a_k| Pi_k) rho],
    # so party k contributes the d_k^2 operators Pi_k^dag |b><a| Pi_k.
    n = len(state.dims)
    if len(projectors) != n:
        raise DimensionMismatchError(f"got {len(projectors)} projectors for {n} parties")
    stacks = []
    for d, op in zip(state.dims, projectors):
        pi = np.eye(d, dtype=complex) if op is None else as_matrix(op)
        stacks.append(np.einsum("bi,aj->abij", np.conj(pi), pi).reshape(-1, *pi.shape))
    t = local_contraction(state.density, state.dims, stacks)
    t = t.reshape(tuple(d for d in state.dims for _ in (0, 1)))  # (a_1, b_1, a_2, b_2, ...)
    t = t.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))
    rho = t.reshape(state.dim, state.dim)
    p = float(np.real(np.trace(rho)))
    if p <= ZERO_PROB:
        raise ZeroProbabilityError(f"outcome probability {p:.3e} too small to condition on")
    rho = rho / p
    return QuantumState((rho + dagger(rho)) / 2.0, state.dims)


def evolve(state: QuantumState, interaction: Interaction) -> QuantumState:
    """Conjugate the state by the interaction unitary, ``V rho V^dag``."""
    if state.dims != interaction.dims_in:
        raise DimensionMismatchError(
            f"evolve: state dims {state.dims} do not match interaction input {interaction.dims_in}"
        )
    v = interaction.matrix
    rho = v @ state.density @ dagger(v)
    return QuantumState((rho + dagger(rho)) / 2.0, interaction.dims_out)


def white_noise_mix(state: QuantumState, visibility: float) -> QuantumState:
    """Mix with the maximally mixed state: ``v rho + (1 - v) I/d``."""
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility {v} outside [0, 1]")
    d = state.dim
    rho = v * state.density + (1.0 - v) * np.eye(d) / d
    return QuantumState(rho, state.dims)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary from QR-orthonormalizing a complex Gaussian
    matrix; deterministic for a fixed integer seed."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    rng = _rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_projective_observable(dim: int, seed, split: int | None = None) -> np.ndarray:
    """Random +/-1 observable with ``O^2 = I``: a balanced (or ``split``
    positive dimensions) signature matrix conjugated by a Haar unitary."""
    rng = _rng(seed)
    k = dim // 2 if split is None else int(split)
    if not 1 <= k <= dim - 1:
        raise ValueError(f"split {k} must leave both eigenspaces nonempty for dim {dim}")
    signs = np.diag(np.array([1.0] * k + [-1.0] * (dim - k), dtype=complex))
    u = random_unitary(dim, rng)
    o = u @ signs @ dagger(u)
    return (o + dagger(o)) / 2.0


def random_density(dims: tuple[int, ...], seed, rank: int | None = None) -> QuantumState:
    """Random density matrix of the given rank (full rank by default),
    ``G G^dag / Tr`` for a complex Gaussian ``G``."""
    rng = _rng(seed)
    d = int(np.prod(tuple(dims)))
    r = d if rank is None else int(rank)
    if not 1 <= r <= d:
        raise ValueError(f"rank {r} outside [1, {d}]")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = g @ dagger(g)
    return QuantumState(rho / np.trace(rho), tuple(dims))
