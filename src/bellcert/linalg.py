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
    "EigenDecomposition",
    "dagger",
    "herm_part",
    "kron",
    "max_abs",
    "fix_column_phases",
    "herm_eig",
]

# Tolerance regime for double precision at the dimensions handled here
# (total dimension up to 1024: N = 5 with auxiliary dimension 2, the seesaw's cap):
ALGEBRA_TOL = 1e-9  # algebraic identities (hermiticity, unitarity, eigen residuals)
CERT_TOL = 1e-8  # certification acceptance
SINGULAR_FLOOR = 1e-12  # entries below this in magnitude count as zero (phase pivot)


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NonHermitianError(ValueError):
    """An operator required to be Hermitian is not, within tolerance."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of a matrix or of each matrix in a stack."""
    return np.swapaxes(np.conj(np.asarray(m)), -1, -2)


def herm_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part ``(a + a^dag) / 2``, of a matrix or of each matrix in a
    stack, summed as ``a / 2 + a^dag / 2`` so that no finite entry
    overflows."""
    half = np.asarray(a) / 2.0
    return half + dagger(half)


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, big-endian factor order.

    Each step is one broadcast product and a reshape, one multiplication per
    entry as in ``numpy.kron``, so the result is the same to the bit.
    """
    if not ops:
        raise ValueError("kron needs at least one operand")
    mats = [np.asarray(op, dtype=complex) for op in ops]
    if any(m.ndim != 2 for m in mats):
        raise DimensionMismatchError(
            f"kron: operands must be matrices, got shapes {[m.shape for m in mats]}"
        )
    out = mats[0]
    for b in mats[1:]:
        rows, cols = out.shape[0] * b.shape[0], out.shape[1] * b.shape[1]
        out = (out[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)
    return out


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-norm ``max_ij |m_ij|``."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.  ``herm_eig`` makes the
    first nonzero component of each column real positive.  ``sign`` does
    not depend on the column phases, and it also takes a stack of
    decompositions along leading axes, such as raw ``numpy.linalg.eigh``
    output of a stack.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def sign(self) -> np.ndarray:
        """Return ``sum_k sign(lambda_k) |v_k><v_k|``, exactly Hermitian,
        with zero eigenvalues counted as +1."""
        v = self.eigenvectors
        signs = np.where(self.eigenvalues >= 0.0, 1.0, -1.0)[..., np.newaxis, :]
        out = (v * signs) @ dagger(v)
        return herm_part(out)


def herm_eig(h: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of a ``(..., d, d)``
    stack in one ``eigh`` with each matrix's own bits, with a deterministic
    phase convention.  Raises ``NonHermitianError`` if ``h`` is not square
    or a matrix of it deviates from its adjoint by more than ``ALGEBRA_TOL``
    in max-norm (a NaN defect included), giving the first such defect.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise NonHermitianError(f"matrix of shape {h.shape} is not square")
    defects = np.abs(h - dagger(h)).max(axis=(-2, -1), initial=0.0).reshape(-1)
    bad = defects[~(defects <= ALGEBRA_TOL)]
    if bad.size:
        raise NonHermitianError(f"matrix is not Hermitian within {ALGEBRA_TOL:g} (defect {bad[0]:.3e})")
    vals, vecs = np.linalg.eigh(herm_part(h))
    return EigenDecomposition(eigenvalues=vals, eigenvectors=fix_column_phases(vecs))


def fix_column_phases(vecs: np.ndarray) -> np.ndarray:
    """Rescale every column (of each matrix of a stack) by a unit-modulus
    phase so that its first entry of magnitude above ``SINGULAR_FLOOR`` is
    real and positive; a numerically zero column is left as it is."""
    big = np.abs(vecs) > SINGULAR_FLOOR
    pivot = np.take_along_axis(vecs, np.argmax(big, axis=-2)[..., np.newaxis, :], axis=-2)
    pivot = np.where(big.any(axis=-2, keepdims=True), pivot, 1.0)
    return np.multiply(vecs, np.conj(pivot) / np.abs(pivot), order="C")
