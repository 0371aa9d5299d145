"""Built-in reference strategy: the states, observables and entangling
unitary that saturate the Bell family.

Conventions used throughout (and relied on by the certifier's block
comparison, so they are fixed here once):

* ``HBAR_BASIS`` = eigenvectors of (X + Z)/sqrt(2):
      |b0> = cos(pi/8)|0> + sin(pi/8)|1>,  |b1> = -sin(pi/8)|0> + cos(pi/8)|1>
* ``X_BASIS`` = eigenvectors of X: |+>, |-> with |-> = (|0> - |1>)/sqrt(2)
* outcome ``a`` of an observable selects its ``(-1)^a`` eigenvector.

The entangling unitary maps the product basis
``|b_{a_1}> ox |a_2> ox |x_{a_3}> ox ... ox |x_{a_N}>`` onto the maximally
entangled family ``|phi_a> = (|a> + (-1)^{a_1} |a_complement>) / sqrt(2)``.
Both sets are built whole from their factors: the product basis is the
columns of one Kronecker product ``B`` of the per-party 2 x 2 basis
matrices, the family is the columns of the fixed matrix ``G``, and the
unitary is ``U = G B^dag``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .linalg import dagger, kron
from .quantum import Interaction, QuantumState, pure_state

__all__ = [
    "PAULI_X",
    "PAULI_Z",
    "HBAR_BASIS",
    "X_BASIS",
    "Z_BASIS",
    "target_observables",
    "ghz_like_vector",
    "ghz_matrix",
    "entangling_unitary",
    "pre_interaction_matrix",
    "pre_interaction_basis",
    "reference_source_state",
    "reference_strategy",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_C8, _S8 = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
HBAR_BASIS = (
    np.array([_C8, _S8], dtype=complex),
    np.array([-_S8, _C8], dtype=complex),
)
X_BASIS = (
    np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
)
Z_BASIS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
)


def target_observables(parties: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-party (setting-0, setting-1) qubit observable pairs:
    ((X+Z)/sqrt2, (X-Z)/sqrt2) for party 1, (Z, X) for every other party."""
    s = math.sqrt(2.0)
    first = ((PAULI_X + PAULI_Z) / s, (PAULI_X - PAULI_Z) / s)
    return [first] + [(PAULI_Z.copy(), PAULI_X.copy()) for _ in range(parties - 1)]


def ghz_like_vector(outcomes: tuple[int, ...]) -> np.ndarray:
    """|phi_a> = (|a> + (-1)^{a_1} |a_complement>) / sqrt(2) on N qubits."""
    bits = tuple(int(b) for b in outcomes)
    n = len(bits)
    v = np.zeros(2**n, dtype=complex)
    idx = int("".join(map(str, bits)), 2)
    comp = int("".join(str(1 - b) for b in bits), 2)
    sign = -1.0 if bits[0] else 1.0
    v[idx] += 1.0
    v[comp] += sign
    return v / math.sqrt(2.0)


def _first_round_basis(parties: int) -> list[tuple[np.ndarray, np.ndarray]]:
    # Party 1 in the (X+Z)/sqrt2 eigenbasis, party 2 computational,
    # the rest in the X eigenbasis: the post-measurement bases of the
    # Bell-branch first-round settings.
    bases = [HBAR_BASIS, Z_BASIS]
    bases.extend(X_BASIS for _ in range(parties - 2))
    return bases[:parties]


def pre_interaction_matrix(parties: int) -> np.ndarray:
    """``B``: the 2^N pre-interaction product states as columns, column
    ``a`` for outcome bits ``a`` (big-endian), built as one Kronecker
    product of the per-party 2 x 2 first-round basis matrices."""
    return kron(*[np.column_stack(basis) for basis in _first_round_basis(parties)])


def ghz_matrix(parties: int) -> np.ndarray:
    """``G``: the 2^N vectors ``|phi_a>`` of ``ghz_like_vector`` as columns,
    column ``a`` for outcome bits ``a`` (big-endian)."""
    d = 2**parties
    a = np.arange(d)
    g = np.zeros((d, d), dtype=complex)
    g[a, a] = 1.0
    g[d - 1 - a, a] += np.where(a < d // 2, 1.0, -1.0)  # (-1)^{a_1} on |a_complement>
    return g / math.sqrt(2.0)


def pre_interaction_basis(parties: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All 2^N pre-interaction product states, keyed by outcome bits: the
    columns of ``pre_interaction_matrix``."""
    columns = pre_interaction_matrix(parties).T
    return list(zip(itertools.product((0, 1), repeat=parties), columns))


def entangling_unitary(parties: int) -> np.ndarray:
    """The reference interaction ``U = sum_a |phi_a><basis_a| = G B^dag`` on
    N qubits (``G = ghz_matrix``, ``B = pre_interaction_matrix``)."""
    return ghz_matrix(parties) @ dagger(pre_interaction_matrix(parties))


def reference_source_state(parties: int) -> QuantumState:
    """The maximally entangled source |phi_{0...0}>."""
    return pure_state(ghz_like_vector((0,) * parties), (2,) * parties)


def reference_strategy(parties: int):
    """Full reference strategy on N qubits (imported lazily to avoid a
    circular import with the scenario module)."""
    from .scenario import Strategy

    if parties < 2:
        raise ValueError("need at least 2 parties")
    dims = (2,) * parties
    interaction = Interaction(entangling_unitary(parties), dims, dims)
    return Strategy(
        source_state=reference_source_state(parties),
        observables_t1=target_observables(parties),
        observables_t2=target_observables(parties),
        interaction=interaction,
    )
