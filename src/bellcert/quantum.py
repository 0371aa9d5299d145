"""States, measurements, branch states and noise.

States are always stored as density matrices, even when pure, so nothing in
the certification chain has to assume purity.  Dichotomic (two-outcome)
measurements are described by their +/-1-valued observable; the measurement
element for outcome ``a`` is ``(I + (-1)^a O) / 2``.

Validation runs at the boundary.  The public constructors of
``QuantumState``, ``DichotomicObservable`` and ``Interaction`` reject
non-finite entries and check what they promise: a state is Hermitian, has
unit trace and no eigenvalue below ``-ALGEBRA_TOL`` (one ``eigvalsh``).  A
state the package derives from valid states by a positivity-preserving map
(``post_measurement_states``, ``pure_state``, ``white_noise_mix``,
``random_density`` and the scrambled source of
``scenario.scramble_strategy``) is positive by construction, so
it goes through the private ``QuantumState._derived``, which checks the
shape, symmetrizes and freezes but runs no eigensolver (``_wrap`` when the
map has already taken the Hermitian part in place).

Outcome probabilities come from ``effect_table`` and the branch states
``Pi rho Pi^dag / p`` (conjugated by the interaction when one is given)
from ``post_measurement_states``, for one state or a stack, with no
Kronecker-product operator formed: every conditional state of a run is one
slice of a ``(B, D, D)`` array, built party by party with one stacked
``matmul`` per party and side.

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
    "clamp_probabilities",
    "effect_table",
    "post_measurement_states",
    "white_noise_mix",
    "random_unitary",
    "random_projective_observable",
    "random_density",
    "as_matrix",
    "effect",
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


def _check_finite(a: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite entry: every
    ``x > tol`` test passes NaN, so the later checks cannot catch it."""
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise ValueError(f"{what} entry {idx} is not finite: {a[idx]}")


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Density matrix on a composite system with fixed subsystem dims."""

    density: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self._set(_freeze(self.density), self.dims)
        _check_finite(self.density, "density")
        if max_abs(self.density - dagger(self.density)) > ALGEBRA_TOL:
            raise NonHermitianError("density matrix is not Hermitian")
        if abs(np.trace(self.density) - 1.0) > ALGEBRA_TOL:
            raise ValueError(f"density trace {np.trace(self.density).real:.12g} != 1")
        lo = float(np.min(np.linalg.eigvalsh(self.density)))
        if lo < -ALGEBRA_TOL:
            raise ValueError(f"density has negative eigenvalue {lo:.3e}")

    def _set(self, density: np.ndarray, dims) -> None:
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        d = int(np.prod(self.dims))
        if density.shape != (d, d):
            raise DimensionMismatchError(
                f"density shape {density.shape} does not match dims {self.dims}"
            )

    @classmethod
    def _derived(cls, density: np.ndarray, dims) -> QuantumState:
        """State from a positivity-preserving map of valid states: the shape
        check, symmetrization and read-only freeze, but no ``eigvalsh``."""
        rho = np.asarray(density, dtype=complex)
        return cls._wrap((rho + dagger(rho)) / 2.0, dims)

    @classmethod
    def _wrap(cls, rho: np.ndarray, dims) -> QuantumState:
        """``_derived`` for a matrix that is already exactly Hermitian, such as
        a slice of ``post_measurement_states``: frozen in place, not copied."""
        rho.setflags(write=False)
        state = object.__new__(cls)
        state._set(rho, dims)
        return state

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


def pure_state(vector: np.ndarray, dims: tuple[int, ...]) -> QuantumState:
    """Density matrix of a (normalized) state vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n < ZERO_PROB:
        raise ValueError("cannot normalize a zero vector")
    v = v / n
    return QuantumState._derived(np.outer(v, np.conj(v)), dims)


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
        _check_finite(self.matrix, f"observable {self._label()}")
        if max_abs(self.matrix - dagger(self.matrix)) > ALGEBRA_TOL:
            raise NonHermitianError(f"observable {self._label()} is not Hermitian")

    def _label(self) -> str:
        return f"(party={self.party}, setting={self.setting}, t={self.time_slice})"

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def effect(self, outcome: int) -> np.ndarray:
        """Measurement element ``(I + (-1)^outcome O) / 2``."""
        return effect(self.matrix, outcome)

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
        _check_finite(self.matrix, "interaction")
        defect = max_abs(dagger(self.matrix) @ self.matrix - np.eye(d_in))
        if defect > ALGEBRA_TOL:
            raise NonUnitaryError(f"interaction is not unitary (defect {defect:.3e})")


def effect(observable: np.ndarray, outcome: int) -> np.ndarray:
    """Measurement element ``(I + (-1)^outcome O) / 2`` of a +/-1 observable."""
    sign = 1.0 if outcome == 0 else -1.0
    return (np.eye(observable.shape[0]) + sign * observable) / 2.0


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
    ``(m_1, ..., m_N)``; a ``(B, D, D)`` stack of matrices gives all B tables
    from the same N contractions, shape ``(B, m_1, ..., m_N)``.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if len(stacks) != n:
        raise DimensionMismatchError(f"got {len(stacks)} operator stacks for {n} parties")
    ops = []
    for k, (d, stack) in enumerate(zip(dims, stacks)):
        s = np.eye(d, dtype=complex) if stack is None else as_matrix(stack)
        if s.ndim == 2:
            s = s[np.newaxis]
        if s.ndim != 3 or s.shape[1:] != (d, d):
            raise DimensionMismatchError(
                f"party {k}: operator shape {s.shape[-2:]} does not match local dim {d}"
            )
        ops.append(s)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 2:
        return _contract(rho[np.newaxis], dims, ops)[0]
    # The first tensordot copies its input, so a large stack goes in chunks.
    chunks = _chunks(len(rho), rho.shape[-1])
    return np.concatenate([_contract(rho[c], dims, ops) for c in chunks])


def _contract(rho: np.ndarray, dims: tuple[int, ...], ops) -> np.ndarray:
    n = len(dims)
    t = rho.reshape((-1,) + dims + dims)
    for k, s in enumerate(ops):
        # Behind the batch axis, party k's row and column axes sit at 1 and
        # 1 + n - k; sum A_ij rho_ji.
        t = np.tensordot(t, s, axes=([1, 1 + n - k], [2, 1]))
    return t


def clamp_probabilities(p: np.ndarray) -> np.ndarray:
    """Move values within ``ZERO_PROB`` of the [0, 1] boundary onto it."""
    p = np.where((-ZERO_PROB <= p) & (p < 0.0), 0.0, p)
    return np.where((1.0 < p) & (p <= 1.0 + ZERO_PROB), 1.0, p)


def effect_table(rho: np.ndarray, dims: tuple[int, ...], stacks) -> np.ndarray:
    """Unclamped outcome probabilities ``Tr[(E^1_{i_1} ox ... ox E^N_{i_N}) rho]``
    for every combination of per-party effects, of one state or a ``(B, D, D)``
    stack (see ``local_contraction``)."""
    return np.real(local_contraction(rho, dims, stacks))


def post_measurement_states(
    state: QuantumState, projectors, interaction: Interaction | None = None
) -> np.ndarray:
    """Read-only ``(B, D, D)`` stack of the branch states
    ``Pi_b rho Pi_b^dag / p_b``, each conjugated by the interaction when one
    is given, with ``Pi_b = Pi^1_b ox ... ox Pi^N_b`` and ``p_b`` its trace.

    ``projectors[k]`` is party k's ``(B, d_k, d_k)`` stack, one operator per
    branch, or one ``(d_k, d_k)`` operator (or ``None``, the identity) that
    every branch shares.  Raises ``ZeroProbabilityError`` if a branch has
    probability at most ``ZERO_PROB``.

    The work is done by party, not by branch: ``Pi^k`` left-multiplies the
    view ``(B, pre, d_k, post * D)`` of the stack, ``pre`` and ``post`` being
    the dimensions of the parties before and after k, one stacked ``matmul``
    per party.  The column side reuses the row steps: ``Pi (Pi rho)^dag =
    Pi rho^dag Pi^dag`` has the same trace and the same Hermitian part as
    ``Pi rho Pi^dag``, and the Hermitian part is what is returned.  Each
    step writes into the other of two buffers, the stack itself and one
    scratch array of at most ``CHUNK_BYTES``; a larger stack is built in
    chunks of branches.
    """
    dims = state.dims
    n, dim = len(dims), state.dim
    if len(projectors) != n:
        raise DimensionMismatchError(f"got {len(projectors)} projectors for {n} parties")
    if interaction is not None and dims != interaction.dims_in:
        raise DimensionMismatchError(
            f"state dims {dims} do not match interaction input {interaction.dims_in}"
        )
    steps = []
    pre = 1
    for k, (d, op) in enumerate(zip(dims, projectors)):
        if op is not None:
            pi = as_matrix(op)
            pi = pi[np.newaxis] if pi.ndim == 2 else pi
            if pi.ndim != 3 or pi.shape[1:] != (d, d):
                raise DimensionMismatchError(
                    f"party {k}: projector shape {pi.shape[-2:]} does not match local dim {d}"
                )
            steps.append((pi[:, np.newaxis], (pre, d, dim * dim // (pre * d))))
        pre *= d
    lengths = {len(pi) for pi, _ in steps} - {1}
    if len(lengths) > 1:
        raise DimensionMismatchError(f"projector stacks of different lengths {sorted(lengths)}")
    b = lengths.pop() if lengths else 1

    stack = np.empty((b, dim, dim), dtype=complex)
    chunks = _chunks(b, dim)
    scratch = np.empty((chunks[0].stop, dim, dim), dtype=complex)
    for chunk in chunks:
        size = chunk.stop - chunk.start
        # 2 len(steps) + 1 writes alternate between the two buffers, so the
        # first and the last land in the stack.
        buffers = [stack[chunk], scratch[:size]]
        rho = state.density[np.newaxis]  # every branch starts from the same state
        for side in ("rows", "columns"):
            for op, shape in steps:
                op = op[chunk] if len(op) > 1 else op
                out = buffers[0].reshape((size,) + shape)
                np.matmul(op, rho.reshape((len(rho),) + shape), out=out)
                rho = buffers[0]
                buffers.reverse()
            if side == "rows":  # Pi rho -> (Pi rho)^dag
                np.conjugate(rho.swapaxes(1, 2), out=buffers[0])
                rho = buffers[0]
                buffers.reverse()

        p = np.real(np.trace(rho, axis1=1, axis2=2))
        small = np.flatnonzero(p <= ZERO_PROB)
        if small.size:
            raise ZeroProbabilityError(
                f"outcome probability {p[small[0]]:.3e} too small to condition on"
            )
        rho /= p[:, np.newaxis, np.newaxis]
        if interaction is not None:
            _conjugate(rho, interaction.matrix, buffers[0])
        _hermitian_part(rho, buffers[0])
    stack.setflags(write=False)
    return stack


# Scratch bound of the stacked kernels: a stack larger than this is processed
# in chunks of branches (or of seesaw restarts), so its temporaries stay
# within this size.
CHUNK_BYTES = 1 << 26


def _chunks(branches: int, dim: int) -> list[slice]:
    """Consecutive slices of at most ``CHUNK_BYTES`` worth of D x D complex
    matrices (at least one matrix each) covering ``branches``."""
    step = max(1, min(branches, CHUNK_BYTES // (16 * dim * dim)))
    return [slice(i, min(i + step, branches)) for i in range(0, branches, step)]


def _conjugate(stack: np.ndarray, v: np.ndarray, spare: np.ndarray) -> None:
    """``V sigma V^dag`` for every matrix of the stack, in place; ``spare``
    is a scratch buffer of the stack's shape."""
    np.matmul(v, stack, out=spare)
    np.matmul(spare, dagger(v), out=stack)


def _hermitian_part(stack: np.ndarray, spare: np.ndarray) -> None:
    """``(sigma + sigma^dag) / 2`` for every matrix of the stack, in place,
    so that each one is exactly Hermitian."""
    np.conjugate(stack.swapaxes(1, 2), out=spare)
    stack += spare
    stack *= 0.5


def white_noise_mix(state: QuantumState, visibility: float) -> QuantumState:
    """Mix with the maximally mixed state: ``v rho + (1 - v) I/d``."""
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility {v} outside [0, 1]")
    d = state.dim
    return QuantumState._derived(v * state.density + (1.0 - v) * np.eye(d) / d, state.dims)


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


def random_projective_observable(dim: int, seed) -> np.ndarray:
    """Random +/-1 observable with ``O^2 = I``: a balanced signature matrix
    (``dim // 2`` positive entries) conjugated by a Haar unitary."""
    rng = _rng(seed)
    k = dim // 2
    if k < 1:
        raise ValueError(f"dimension {dim} leaves an eigenspace empty")
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
    return QuantumState._derived(rho / np.trace(rho), tuple(dims))
