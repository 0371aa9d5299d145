"""States, measurements, branch states and noise.

A state holds its density matrix, a factor of it, or both: each form is
built from the other the first time it is read (``QuantumState``), so
nothing in the certification chain has to assume purity, and a branch
state that is only contracted never forms its D x D matrix.  Measurements
are plain arrays: a party's two +/-1 observables are one ``(2, d, d)``
array, validated once by ``scenario.Strategy``, and each kernel here takes
one operand form, per-party stacks of operators (effects, projectors or
observables), as they are.

Validation runs at the boundary.  The public constructors of
``QuantumState`` and ``Interaction`` reject non-finite entries and check
what they promise: a state is Hermitian, has unit trace and no eigenvalue
below ``-ALGEBRA_TOL`` (one ``eigh`` of its Hermitian part, whose
eigenpairs are also the state's factor).  A state the package derives
from valid states by a positivity-preserving map
(``post_measurement_states``, ``pure_state``, ``white_noise_mix``,
``random_density`` and the scrambled source of
``scenario.scramble_strategy``) is positive by construction, so it goes
through the private ``QuantumState._derived`` (or ``_from_factor``),
which checks the shape, symmetrizes and freezes but runs no positivity
check; its factor comes from the same ``eigh`` the first time it is
needed (``pure_state`` keeps its vector as the factor).

Outcome probabilities and correlators come from ``effect_table``, per-party
``(m, d, d)`` stacks against one density matrix or a sequence of states
read from their factors, and the branch states ``V Pi rho Pi^dag V^dag /
p`` from ``post_measurement_states``, per-party ``(B, d, d)`` projector
stacks and the interaction V, with no Kronecker-product operator formed:
every branch factor is one slice of a ``(D, B, r)`` array, built party by
party with one stacked ``matmul`` per party, and V is one matmul for all
of them.  Every step that acts on one party's axis of a batch of rows is
``_apply`` or ``_party_rows``, which ``bell`` and ``seesaw`` use too; each
reorder of paired axes is ``_grouped``, and ``_stacked`` runs a kernel per shape.

Randomness: every seeded helper draws from ``numpy.random.default_rng``
(PCG64), so a fixed integer seed reproduces results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ALGEBRA_TOL,
    DimensionMismatchError,
    EigenDecomposition,
    NonHermitianError,
    dagger,
    herm_part,
    max_abs,
)

__all__ = [
    "ZERO_PROB",
    "FACTOR_FLOOR",
    "NonUnitaryError",
    "ZeroProbabilityError",
    "QuantumState",
    "Interaction",
    "pure_state",
    "clamp_probabilities",
    "effect_table",
    "post_measurement_states",
    "mixture_marginals",
    "white_noise_mix",
    "random_unitary",
    "random_density",
]

ZERO_PROB = 1e-12  # probabilities below this are not trusted for conditioning
# Eigenpairs of a state with |lambda| at or below this are left out of its
# factor.  Roundoff puts the zero eigenvalues of the states here at 1e-17 to
# 1e-16, so a pure state keeps rank 1.  What is dropped weighs at most
# (D - r) * FACTOR_FLOOR in trace norm, which bounds the move of every
# first-round probability; a conditional probability moves by at most
# twice that over the probability of its conditioning event.
FACTOR_FLOOR = 1e-14


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


class QuantumState:
    """Density matrix on a composite system with fixed subsystem dims, and
    a factor of it.

    The factor is ``(vectors, signs)``, with ``vectors`` of shape ``(D, r)``
    and ``signs`` of +/-1, such that ``rho = vectors diag(signs)
    vectors^dag``: the eigenpairs of ``rho`` whose |lambda| is above
    ``FACTOR_FLOOR``, each vector scaled by ``sqrt(|lambda|)``.  Signs are
    kept, so an eigenvalue near ``-ALGEBRA_TOL`` that the constructor
    accepts is reproduced too.  A state built from one form builds the
    other the first time it is read, and keeps it: a branch state of
    ``post_measurement_states`` forms its density only if it is read, and a
    derived state factors its density only if its factor is needed.  Both
    are read-only, and the state is immutable.
    """

    __slots__ = ("dims", "_density", "_factor")

    def __init__(self, density: np.ndarray, dims: tuple[int, ...]):
        self._set(dims, _freeze(density), None)
        rho = self._density
        _check_finite(rho, "density")
        if max_abs(rho - dagger(rho)) > ALGEBRA_TOL:
            raise NonHermitianError("density matrix is not Hermitian")
        if abs(np.trace(rho) - 1.0) > ALGEBRA_TOL:
            raise ValueError(f"density trace {np.trace(rho).real:.12g} != 1")
        # The Hermitian part, which every contraction of the density reads:
        # ``eigh`` alone would read only the lower triangle.
        eigenvalues, eigenvectors = np.linalg.eigh(herm_part(rho))
        if eigenvalues[0] < -ALGEBRA_TOL:
            raise ValueError(f"density has negative eigenvalue {eigenvalues[0]:.3e}")
        object.__setattr__(self, "_factor", _factor(eigenvalues, eigenvectors))

    def _set(self, dims, density: np.ndarray | None, factor) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        object.__setattr__(self, "_density", density)
        object.__setattr__(self, "_factor", factor)
        d = self.dim
        shape = density.shape if factor is None else (factor[0].shape[0], d)
        if shape != (d, d):
            raise DimensionMismatchError(f"density shape {shape} does not match dims {self.dims}")

    def __setattr__(self, name, value):
        raise AttributeError(f"QuantumState is immutable: cannot set {name!r}")

    def __repr__(self) -> str:
        return f"QuantumState(dims={self.dims})"

    @classmethod
    def _derived(cls, density: np.ndarray, dims) -> QuantumState:
        """State from a positivity-preserving map of valid states: the shape
        check, symmetrization and read-only freeze, but no positivity check."""
        rho = np.asarray(density, dtype=complex)
        rho = herm_part(rho)
        rho.setflags(write=False)
        state = object.__new__(cls)
        state._set(dims, rho, None)
        return state

    @classmethod
    def _from_factor(cls, vectors: np.ndarray, signs: np.ndarray, dims) -> QuantumState:
        """State ``vectors diag(signs) vectors^dag`` of a positivity-preserving
        map, such as a branch of ``post_measurement_states``; the arrays are
        kept as they are, read-only."""
        state = object.__new__(cls)
        state._set(dims, None, (vectors, signs))
        return state

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def density(self) -> np.ndarray:
        """The density matrix, exactly Hermitian and read-only."""
        if self._density is None:
            vectors, signs = self._factor
            rho = (vectors * signs) @ dagger(vectors)
            rho = herm_part(rho)
            rho.setflags(write=False)
            object.__setattr__(self, "_density", rho)
        return self._density

    @property
    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """``(vectors, signs)`` with ``density = vectors diag(signs)
        vectors^dag``, read-only (see the class docstring)."""
        if self._factor is None:
            object.__setattr__(self, "_factor", _factor(*np.linalg.eigh(self._density)))
        return self._factor


def _factor(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factor of ``QuantumState`` from an ``eigh``: the eigenpairs with
    |lambda| above ``FACTOR_FLOOR``, vectors scaled by ``sqrt(|lambda|)``."""
    keep = np.abs(eigenvalues) > FACTOR_FLOOR
    vectors = eigenvectors[:, keep] * np.sqrt(np.abs(eigenvalues[keep]))
    signs = np.sign(eigenvalues[keep])
    vectors.setflags(write=False)
    signs.setflags(write=False)
    return vectors, signs


def pure_state(vector: np.ndarray, dims: tuple[int, ...]) -> QuantumState:
    """State of a (normalized) state vector, which is also its factor, so
    neither form needs an eigensolver."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n < ZERO_PROB:
        raise ValueError("cannot normalize a zero vector")
    v = v / n
    state = QuantumState._derived(np.outer(v, np.conj(v)), dims)
    object.__setattr__(state, "_factor", _factor(np.ones(1), v[:, np.newaxis]))
    return state


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
        d_in = math.prod(self.dims_in)
        d_out = math.prod(self.dims_out)
        if self.matrix.shape != (d_out, d_in) or d_in != d_out:
            raise DimensionMismatchError(
                f"interaction shape {self.matrix.shape} does not match dims "
                f"{self.dims_in} -> {self.dims_out}"
            )
        _check_finite(self.matrix, "interaction")
        defect = max_abs(dagger(self.matrix) @ self.matrix - np.eye(d_in))
        if defect > ALGEBRA_TOL:
            raise NonUnitaryError(f"interaction is not unitary (defect {defect:.3e})")


def effect_table(rho, dims: tuple[int, ...], stacks) -> np.ndarray:
    """Table ``T[i_1, ..., i_N] = Re Tr[(A^1_{i_1} ox ... ox A^N_{i_N}) rho]``.

    ``stacks[k]`` holds party ``k``'s operators, shape ``(m_k, d_k, d_k)``.
    For Hermitian operators, such as the effects (the unclamped outcome
    probabilities) or each party's ``(I, A_0, A_1)`` (the correlators), the
    table is real up to roundoff, which the real part drops.  ``rho`` is a
    density matrix, reshaped to ``dims + dims`` and contracted party by
    party (``_contract``), so no Kronecker-product operator is ever formed;
    the result has shape ``(m_1, ..., m_N)``.  ``rho`` may instead be a
    sequence of B states with these dims and one factor rank r, such as the
    branches of ``post_measurement_states``: all B tables, shape ``(B, m_1,
    ..., m_N)``, are then read from the factors.  Party 1's step costs about
    ``m_1 r D^2 / d_1`` per state from a factor (``_contract_factors``),
    against ``r D^2`` to form the density and ``m_1 D^2`` to contract it.
    The factors are contracted when that is the cheaper and ``r <= D / 2``;
    otherwise each chunk of states forms its densities.  Above half rank the
    factor step's ``m_1 D r`` entries per state made it the slower in every
    case timed, full rank included (any visibility below 1).
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    ops = [np.asarray(s, dtype=complex) for s in stacks]
    if len(ops) != n or any(s.ndim != 3 or s.shape[1:] != (d, d) for s, d in zip(ops, dims)):
        raise DimensionMismatchError(
            f"operator stacks of shapes {[s.shape for s in ops]} do not match dims {dims}"
        )
    if isinstance(rho, np.ndarray):
        rho = np.asarray(rho, dtype=complex)[np.newaxis]
        return np.real(_contract_densities(rho, dims, ops)[0])
    states = rho
    dim, rank = states[0].factor[0].shape
    m = [len(s) for s in ops]
    from_factors = 2 * rank <= dim and m[0] * rank < dims[0] * (rank + m[0])
    # Entries per branch of party 1's operators applied to the factor, or of
    # the density side's five live arrays (the stacked factors, their signed
    # copy and conjugate transpose, the densities and ``_contract``'s reshape
    # copy of them), and of the table after party 1 and after each later
    # party (last to first): a chunk of branches keeps each within CHUNK_BYTES.
    sizes = [m[0] * dim * rank if from_factors else 3 * dim * rank + 2 * dim * dim] + [
        m[0] * math.prod(m[k:]) * math.prod(dims[1:k]) ** 2 for k in range(1, n + 1)
    ]
    tables = []
    for chunk in _chunks(len(states), dim, max(sizes) // dim + 1):
        vectors = np.stack([s.factor[0] for s in states[chunk]])
        signs = np.stack([s.factor[1] for s in states[chunk]])
        if from_factors:
            tables.append(_contract_factors(vectors, signs, dims, ops))
        else:
            densities = np.matmul(vectors * signs[:, np.newaxis], dagger(vectors))
            tables.append(_contract_densities(densities, dims, ops))
    return np.real(np.concatenate(tables))


def _grouped(n: int) -> list[int]:
    """Axis order from N adjacent pairs of axes (a party's row and column, or
    qubit and aux) to the first of every pair, then the second; ``argsort`` undoes it."""
    return [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]


def _contract_densities(rho: np.ndarray, dims: tuple[int, ...], ops) -> np.ndarray:
    """``_contract`` of a stack of density matrices, ``(B, D, D)``."""
    t = rho.reshape((len(rho),) + dims + dims)
    return _contract(t.transpose([0, *(1 + np.argsort(_grouped(len(dims))))]), dims, ops)


def _contract(t: np.ndarray, dims: tuple[int, ...], ops) -> np.ndarray:
    """``sum_jk A_kj t_jk`` over each party's row and column axes, for every
    operator of its stack: ``t`` has shape ``(B, d_1, d_1, ..., d_N, d_N)``,
    each party's row axis followed by its column axis (the ``argsort`` of
    ``_grouped``), the result ``(B, m_1, ..., m_N)``.

    The parties go last to first, each as one matmul ``(m_k, d_k^2) x
    (d_k^2, rest)`` that reads the trailing axes in place and puts the
    operator axis first, so the next party's axes are the trailing ones.
    """
    b = len(t)
    for d, s in zip(reversed(dims), reversed(ops)):
        t = s.transpose(0, 2, 1).reshape(len(s), d * d) @ t.reshape(-1, d * d).T
    return np.moveaxis(t.reshape(tuple(len(s) for s in ops) + (b,)), -1, 0)


def _contract_factors(vectors: np.ndarray, signs: np.ndarray, dims, ops) -> np.ndarray:
    """``_contract`` of the states ``g_b diag(s_b) g_b^dag`` from their
    factors, ``vectors`` ``(B, D, r)`` and ``signs`` ``(B, r)``.

    Party 1's step reads the factors: with ``rest = D / d_1``, its operators
    act on the ket, ``h = A g``, and the sum over ``(y_1, r)`` of ``h s
    conj(g)`` leaves the ``(rest, rest)`` block of every operator, one
    batched matmul of inner size ``d_1 r``.  The remaining parties are
    contracted as for a stack of density matrices.
    """
    b, dim, r = vectors.shape
    d, m = dims[0], len(ops[0])
    rest = dim // d
    h = np.matmul(ops[0], vectors.reshape(b, 1, d, rest * r))
    left = h.reshape(b, m, d, rest, r).transpose(0, 1, 3, 2, 4).reshape(b, m * rest, d * r)
    right = np.conj(vectors) * signs[:, np.newaxis]
    right = right.reshape(b, d, rest, r).transpose(0, 1, 3, 2).reshape(b, d * r, rest)
    t = np.matmul(left, right).reshape(b * m, rest, rest)
    return _contract_densities(t, dims[1:], ops[1:]).reshape((b, m) + tuple(len(s) for s in ops[1:]))


def clamp_probabilities(p: np.ndarray) -> np.ndarray:
    """Move values within ``ZERO_PROB`` of the [0, 1] boundary onto it."""
    p = np.where((-ZERO_PROB <= p) & (p < 0.0), 0.0, p)
    return np.where((1.0 < p) & (p <= 1.0 + ZERO_PROB), 1.0, p)


def post_measurement_states(
    state: QuantumState, projectors, interaction: Interaction
) -> tuple[QuantumState, ...]:
    """The branch states ``V Pi_b rho Pi_b^dag V^dag / p_b``, with ``Pi_b =
    Pi^1_b ox ... ox Pi^N_b``, ``V`` the interaction and ``p_b`` the trace
    of ``Pi_b rho Pi_b^dag``.

    ``projectors[k]`` is party k's ``(B, d_k, d_k)`` stack, one operator per
    branch.  Raises ``ZeroProbabilityError`` if a branch has probability at
    most ``ZERO_PROB``.

    Each branch is built from the factor of the source, ``rho = F S F^dag``
    (``QuantumState.factor``, rank r), as the factor ``G_b = V Pi_b F /
    sqrt(p_b)`` with the same signs S, and ``p_b = sum_r S_r |Pi_b F e_r|^2``.
    The work is done by party, not by branch: the factor is one row-major
    ``(D, r)`` row, and ``_apply`` left-multiplies party k's axis of every
    branch's row by ``Pi^k``, one stacked ``matmul`` per party; then ``V``
    multiplies the factors of all branches as one ``(D, B r)`` matrix.  The
    factors are slices of one read-only ``(D, B, r)`` array, and no branch
    forms its density unless it is read.  A stack of more than
    ``CHUNK_BYTES`` is built in chunks of branches.
    """
    dims = state.dims
    pis = [np.asarray(pi) for pi in projectors]
    b = len(pis[0]) if pis and pis[0].ndim else 0
    if [pi.shape for pi in pis] != [(b, d, d) for d in dims]:
        raise DimensionMismatchError(
            f"projector stacks of shapes {[pi.shape for pi in pis]} do not match dims {dims}"
        )
    if dims != interaction.dims_in:
        raise DimensionMismatchError(
            f"state dims {dims} do not match interaction input {interaction.dims_in}"
        )
    vectors, signs = state.factor
    dim, r = vectors.shape
    out = np.empty((dim, b, r), dtype=complex)
    for chunk in _chunks(b, dim, r):
        g = vectors.reshape(1, -1)  # every branch starts from the same factor
        for k, pi in enumerate(pis):
            g = _apply(pi[chunk], g, dims, k)
        g = g.reshape(-1, dim, r)
        p = np.sum(np.abs(g) ** 2, axis=1) @ signs
        small = np.flatnonzero(p <= ZERO_PROB)
        if small.size:
            raise ZeroProbabilityError(
                f"outcome probability {p[small[0]]:.3e} too small to condition on"
            )
        g = (g / np.sqrt(p)[:, np.newaxis, np.newaxis]).transpose(1, 0, 2).reshape(dim, -1)
        out[:, chunk] = (interaction.matrix @ g).reshape(dim, -1, r)
    out.setflags(write=False)
    return tuple(QuantumState._from_factor(out[:, i], signs, interaction.dims_out) for i in range(b))


def mixture_marginals(states) -> list[np.ndarray]:
    """The one-party reduced states of the equal mixture of ``states``
    (which share their dims), contracted from their factors: the factors of
    all the states are the columns of one ``(D, R)`` matrix, and party k's
    marginal is the sum, over its columns and the other parties' indices, of
    ``s_r g g^dag``, one matmul of ``_party_rows`` per party.  No density
    matrix is formed."""
    dims = states[0].dims
    vectors = np.concatenate([s.factor[0] for s in states], axis=1)
    signs = np.concatenate([s.factor[1] for s in states])
    rows, signed = vectors.reshape(-1), (vectors * signs).reshape(-1)
    return [
        _party_rows(signed, dims, k) @ dagger(_party_rows(rows, dims, k)) / len(states)
        for k in range(len(dims))
    ]


def _apply(op: np.ndarray, x: np.ndarray, dims, party: int) -> np.ndarray:
    """``op`` acting on ``party``'s factor of each row of ``x``, shape ``(C,
    D k)``: one ``(d, d)`` operator for every row, or ``(C, d, d)``, one
    per row.  A single shared row takes a whole ``(B, d, d)`` stack, and
    the result has B rows."""
    pre = math.prod(dims[:party])
    op = op if op.ndim == 2 else op[:, np.newaxis]
    return np.matmul(op, x.reshape(len(x), pre, dims[party], -1)).reshape(-1, x.shape[-1])


def _party_rows(x: np.ndarray, dims, party: int) -> np.ndarray:
    """``(..., D k)`` rows as ``(..., d, D k / d)`` matrices whose row index
    is ``party``'s."""
    pre = math.prod(dims[:party])
    t = np.swapaxes(x.reshape(x.shape[:-1] + (pre, dims[party], -1)), -3, -2)
    return t.reshape(x.shape[:-1] + (dims[party], -1))


def _stacked(fn, *columns) -> list:
    """``fn`` of the stacked entries of ``columns`` (equal-length lists), one
    call per shape in the first column, with its results in column order."""
    out: dict = {}
    for shape in dict.fromkeys(a.shape for a in columns[0]):
        idx = [i for i, a in enumerate(columns[0]) if a.shape == shape]
        out.update(zip(idx, fn(*(np.array([col[i] for i in idx]) for col in columns))))
    return [out[i] for i in range(len(columns[0]))]


# Scratch bound of the stacked kernels: a stack larger than this is processed
# in chunks of branches (or of seesaw restarts), so its temporaries stay
# within this size.
CHUNK_BYTES = 1 << 26


def _chunks(branches: int, dim: int, cols: int | None = None) -> list[slice]:
    """Consecutive slices of at most ``CHUNK_BYTES`` worth of complex
    ``dim x cols`` matrices (``cols = dim`` by default; at least one matrix
    each) covering ``branches``."""
    step = max(1, min(branches, CHUNK_BYTES // (16 * dim * (dim if cols is None else cols))))
    return [slice(i, min(i + step, branches)) for i in range(0, branches, step)]


def white_noise_mix(state: QuantumState, visibility: float) -> QuantumState:
    """Mix with the maximally mixed state: ``v rho + (1 - v) I/d``."""
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility {v} outside [0, 1]")
    d = state.dim
    return QuantumState._derived(v * state.density + (1.0 - v) * np.eye(d) / d, state.dims)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _haar_unitaries(draws: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from QR-orthonormalizing complex Gaussian
    matrices, R's diagonal phases moved into Q: for standard normal
    ``draws`` of shape ``(..., 2, d, d)`` (real parts, then imaginary parts),
    one stacked QR gives the ``(..., d, d)`` unitaries."""
    z = (draws[..., 0, :, :] + 1j * draws[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., np.newaxis, :]


def _projective_observables(draws: np.ndarray) -> np.ndarray:
    """Random +/-1 observables ``U diag(1, ..., -1) U^dag`` with ``d // 2``
    positive entries, ``U`` the ``_haar_unitaries`` of ``draws``; the same
    signature for every matrix of the stack."""
    u = _haar_unitaries(draws)
    d = u.shape[-1]
    return EigenDecomposition(np.array([1.0] * (d // 2) + [-1.0] * (d - d // 2)), u).sign()


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary (``_haar_unitaries``); deterministic for a
    fixed integer seed."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return _haar_unitaries(_rng(seed).standard_normal((2, dim, dim)))


def random_density(dims: tuple[int, ...], seed, rank: int | None = None) -> QuantumState:
    """Random density matrix of the given rank (full rank by default),
    ``G G^dag / Tr`` for a complex Gaussian ``G``."""
    rng = _rng(seed)
    d = math.prod(dims)
    r = d if rank is None else int(rank)
    if not 1 <= r <= d:
        raise ValueError(f"rank {r} outside [1, {d}]")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = g @ dagger(g)
    return QuantumState._derived(rho / np.trace(rho), tuple(dims))
