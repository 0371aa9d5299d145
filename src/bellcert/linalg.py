"""Dense complex linear algebra kernel.

Everything downstream (states, observables, interaction unitaries, Bell
operators) is a plain ``numpy`` array of complex amplitudes in row-major
layout.  Composite systems use big-endian subsystem order: the index of a
basis vector of ``C^{d_0} x ... x C^{d_{n-1}}`` is ``sum_k i_k * prod_{j>k}
d_j``, which is exactly the convention of ``numpy.kron``.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALGEBRA_TOL",
    "CERT_TOL",
    "SINGULAR_FLOOR",
    "DimensionMismatchError",
    "NonHermitianError",
    "SingularOperatorError",
    "EigenDecomposition",
    "TensorFactorization",
    "dagger",
    "kron",
    "max_abs",
    "is_hermitian",
    "fix_global_phase",
    "herm_eig",
    "sign_operator",
    "partial_trace",
    "permute_subsystems",
    "operator_block",
    "factorize_tensor_product",
]

# Tolerance regime for double precision at the dimensions handled here
# (total dimension at most a few hundred):
ALGEBRA_TOL = 1e-9  # algebraic identities (hermiticity, unitarity, eigen residuals)
CERT_TOL = 1e-8  # factorization / certification acceptance
SINGULAR_FLOOR = 1e-12  # below this an eigenvalue counts as singular


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NonHermitianError(ValueError):
    """An operator required to be Hermitian is not, within tolerance."""


class SingularOperatorError(ValueError):
    """An operator has an eigenvalue too close to zero for the operation."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, big-endian factor order."""
    if not ops:
        raise ValueError("kron needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-norm ``max_ij |m_ij|``."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def is_hermitian(m: np.ndarray, tol: float = ALGEBRA_TOL) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and max_abs(m - dagger(m)) <= tol


def fix_global_phase(v: np.ndarray, cutoff: float = SINGULAR_FLOOR) -> np.ndarray:
    """Rescale by a unit-modulus phase so the first entry with magnitude above
    ``cutoff`` is real and positive.

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


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns, each with its first
    nonzero component made real positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Return ``sum_k lambda_k |v_k><v_k|``."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def herm_eig(h: np.ndarray, tol: float = ALGEBRA_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with a deterministic
    phase convention.

    Raises ``NonHermitianError`` if ``h`` deviates from its adjoint by more
    than ``tol`` in max-norm.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol):
        raise NonHermitianError(
            f"matrix is not Hermitian within {tol:g} "
            f"(defect {max_abs(h - dagger(h)):.3e})"
        )
    vals, vecs = np.linalg.eigh((h + dagger(h)) / 2.0)
    vecs = np.column_stack([fix_global_phase(vecs[:, k]) for k in range(vecs.shape[1])])
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def sign_operator(h: np.ndarray, floor: float = SINGULAR_FLOOR) -> np.ndarray:
    """Matrix sign function ``sum_k sign(lambda_k) |v_k><v_k|`` of a
    Hermitian matrix with no eigenvalue within ``floor`` of zero.
    """
    eig = herm_eig(h)
    small = np.abs(eig.eigenvalues) <= floor
    if np.any(small):
        bad = eig.eigenvalues[small][0]
        raise SingularOperatorError(
            f"eigenvalue {bad:.3e} is within {floor:g} of zero; sign undefined"
        )
    signs = np.where(eig.eigenvalues > 0, 1.0, -1.0)
    v = eig.eigenvectors
    out = (v * signs) @ dagger(v)
    return (out + dagger(out)) / 2.0


def _check_dims(m: np.ndarray, dims: tuple[int, ...], what: str) -> None:
    total = int(np.prod(dims))
    if m.ndim != 2 or m.shape != (total, total):
        raise DimensionMismatchError(
            f"{what}: matrix shape {m.shape} does not match subsystem dims {dims}"
        )


def partial_trace(
    m: np.ndarray, dims: list[int] | tuple[int, ...], keep: int | list[int] | tuple[int, ...]
) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in big-endian order; ``keep`` is
    a subsystem index or an iterable of indices (output order follows
    ascending index).
    """
    m = np.asarray(m, dtype=complex)
    dims = tuple(int(d) for d in dims)
    _check_dims(m, dims, "partial_trace")
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(int(k) for k in keep))
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatchError(f"partial_trace: keep={keep} out of range for {n} subsystems")

    t = m.reshape(dims + dims)
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("a") + i).upper() if i in keep else row[i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, t)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return reduced.reshape(d_keep, d_keep)


def permute_subsystems(
    m: np.ndarray,
    perm: list[int] | tuple[int, ...],
    dims_row: list[int] | tuple[int, ...],
    dims_col: list[int] | tuple[int, ...] | None = None,
) -> np.ndarray:
    """Reorder tensor factors of an operator.

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


def operator_block(
    w: np.ndarray,
    out_vec: np.ndarray,
    in_vec: np.ndarray,
    dims_out: tuple[int, int],
    dims_in: tuple[int, int],
) -> np.ndarray:
    """Contract the primary factor of ``w`` with fixed vectors, returning the
    auxiliary-space block ``(<out| ox I) w (|in> ox I)``.

    ``w`` maps ``C^{dims_in[0]} ox C^{dims_in[1]}`` to
    ``C^{dims_out[0]} ox C^{dims_out[1]}``; the result maps the input
    auxiliary space to the output auxiliary space.
    """
    w = np.asarray(w, dtype=complex)
    d_po, d_ao = int(dims_out[0]), int(dims_out[1])
    d_pi, d_ai = int(dims_in[0]), int(dims_in[1])
    out_vec = np.asarray(out_vec, dtype=complex).reshape(-1)
    in_vec = np.asarray(in_vec, dtype=complex).reshape(-1)
    if w.shape != (d_po * d_ao, d_pi * d_ai):
        raise DimensionMismatchError(
            f"operator_block: shape {w.shape} does not match dims {dims_out}x{dims_in}"
        )
    if out_vec.size != d_po or in_vec.size != d_pi:
        raise DimensionMismatchError(
            "operator_block: vector lengths do not match primary dimensions"
        )
    t = w.reshape(d_po, d_ao, d_pi, d_ai)
    return np.einsum("i,ijkl,k->jl", np.conj(out_vec), t, in_vec)


@dataclass(frozen=True, eq=False)
class TensorFactorization:
    """Outcome of an operator-Schmidt factorization test across a fixed
    bipartite split.

    ``coefficients`` are the operator-Schmidt coefficients in descending
    order; ``is_product`` is true when the leading coefficient carries
    essentially all of the Frobenius weight.  ``factor1`` is normalized to
    unit largest singular value with its first nonzero entry real positive;
    ``residual`` is the Frobenius norm of ``w - factor1 ox factor2``.
    """

    is_product: bool
    factor1: np.ndarray
    factor2: np.ndarray
    residual: float
    coefficients: np.ndarray


def factorize_tensor_product(
    w: np.ndarray,
    dims_out: tuple[int, int],
    dims_in: tuple[int, int],
    tol: float = CERT_TOL,
) -> TensorFactorization:
    """Decide whether ``w`` is a tensor product across the given split and
    return the best rank-one factors either way.
    """
    w = np.asarray(w, dtype=complex)
    d1o, d2o = int(dims_out[0]), int(dims_out[1])
    d1i, d2i = int(dims_in[0]), int(dims_in[1])
    if w.shape != (d1o * d2o, d1i * d2i):
        raise DimensionMismatchError(
            f"factorize_tensor_product: shape {w.shape} does not match {dims_out}x{dims_in}"
        )
    # Realign so rows index factor-1 (out, in) pairs and columns factor-2 pairs.
    t = w.reshape(d1o, d2o, d1i, d2i).transpose(0, 2, 1, 3).reshape(d1o * d1i, d2o * d2i)
    u, s, vh = np.linalg.svd(t, full_matrices=False)
    total = float(np.sqrt(np.sum(s**2)))
    leading = float(s[0]) if s.size else 0.0
    is_product = total > 0 and leading >= (1.0 - tol) * total

    a = u[:, 0].reshape(d1o, d1i)
    b = vh[0, :].reshape(d2o, d2i)
    # Normalize: factor1 gets unit largest singular value and a fixed phase;
    # factor2 absorbs the Schmidt coefficient and the compensating scale/phase.
    sigma = float(np.linalg.norm(a, ord=2))
    flat = a.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > SINGULAR_FLOOR)
    phase = flat[idx[0]] / np.abs(flat[idx[0]]) if idx.size else 1.0
    factor1 = a / (sigma * phase)
    factor2 = leading * sigma * phase * b
    residual = float(np.linalg.norm(w - kron(factor1, factor2)))
    return TensorFactorization(
        is_product=bool(is_product),
        factor1=factor1,
        factor2=factor2,
        residual=residual,
        coefficients=s,
    )
