"""Independent numerics the benchmark checks the program's outputs against.

Nothing here imports bellcert.  The strategy file is parsed with ``json``,
probabilities come from one einsum per setting combination, and the
reference strategy, the pre-interaction basis and the Bell operator are
built from their definitions (README of the package, "Verdicts" and the
reference module's documented conventions):

* party 1 measures (X+Z)/sqrt2 and (X-Z)/sqrt2, every other party Z and X;
* outcome ``a`` of an observable ``O`` has the effect ``(I + (-1)^a O) / 2``;
* the source is ``|phi_0>`` and the interaction ``U = sum_a |phi_a><in_a|``
  with ``|phi_a> = (|a> + (-1)^{a_1} |a_complement>) / sqrt2``;
* ``|in_a>`` is party 1's (X+Z)/sqrt2 eigenvector ``|b_{a_1}>``, party 2's
  ``|a_2>`` and every later party's X eigenvector, in the phase convention
  ``|b0> = cos(pi/8)|0> + sin(pi/8)|1>``, ``|b1> = -sin(pi/8)|0> + cos(pi/8)|1>``.
"""

from __future__ import annotations

import itertools
import json
import math
import string

import numpy as np

ZERO_PROB = 1e-12  # conditioning events at or below this are not recorded

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_C8, _S8 = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
_HBAR = (np.array([_C8, _S8], dtype=complex), np.array([-_S8, _C8], dtype=complex))
_ZB = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
_XB = (np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0), np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0))


def bits(t) -> str:
    return "".join(str(int(b)) for b in t)


def dag(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def kron(*ops: np.ndarray) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between two matrices minimised over a global phase."""
    inner = np.trace(dag(b) @ a)
    phase = inner / abs(inner) if abs(inner) > 1e-12 else 1.0
    return max_abs(a - phase * b)


def matrix(payload: dict) -> np.ndarray:
    """A ``{"rows", "cols", "entries": [[re, im], ...]}`` matrix payload."""
    flat = np.array(payload["entries"], dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(int(payload["rows"]), int(payload["cols"]))


def payload(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": [[z.real, z.imag] for z in m.reshape(-1)]}


class Model:
    """A strategy as plain arrays: source density, observables
    ``obs[t][party][setting]`` for rounds t = 1, 2, and the interaction."""

    def __init__(self, rho, dims_t1, dims_t2, obs, interaction):
        self.rho = np.asarray(rho, dtype=complex)
        self.dims_t1 = tuple(dims_t1)
        self.dims_t2 = tuple(dims_t2)
        self.obs = obs
        self.v = np.asarray(interaction, dtype=complex)

    @property
    def parties(self) -> int:
        return len(self.dims_t1)

    @classmethod
    def from_file(cls, path) -> "Model":
        with open(path) as fh:
            data = json.load(fh)
        n = int(data["parties"])
        obs = {1: [[None, None] for _ in range(n)], 2: [[None, None] for _ in range(n)]}
        rho = v = None
        for entry in data["matrices"]:
            if entry["role"] == "source_state":
                rho = matrix(entry)
            elif entry["role"] == "interaction":
                v = matrix(entry)
            else:
                obs[int(entry["time_slice"])][int(entry["party"])][int(entry["setting"])] = matrix(entry)
        return cls(rho, data["dims"]["t1"], data["dims"]["t2"], obs, v)

    @classmethod
    def reference(cls, parties: int) -> "Model":
        """The N-qubit reference strategy, built from its definition."""
        s = math.sqrt(2.0)
        pairs = [[(X + Z) / s, (X - Z) / s]] + [[Z, X] for _ in range(parties - 1)]
        phi = ghz_like_vector((0,) * parties)
        dims = (2,) * parties
        return cls(np.outer(phi, np.conj(phi)), dims, dims, {1: pairs, 2: pairs}, entangling_unitary(parties))


def ghz_like_vector(outcomes) -> np.ndarray:
    n = len(outcomes)
    v = np.zeros(2**n, dtype=complex)
    v[int(bits(outcomes), 2)] += 1.0
    v[int(bits(1 - int(b) for b in outcomes), 2)] += -1.0 if outcomes[0] else 1.0
    return v / math.sqrt(2.0)


def pre_interaction_vector(outcomes) -> np.ndarray:
    bases = [_HBAR, _ZB] + [_XB] * (len(outcomes) - 2)
    return kron(*[bases[k][a].reshape(-1, 1) for k, a in enumerate(outcomes)]).reshape(-1)


def entangling_unitary(parties: int) -> np.ndarray:
    return sum(
        np.outer(ghz_like_vector(a), np.conj(pre_interaction_vector(a)))
        for a in itertools.product((0, 1), repeat=parties)
    )


def diagonal_phase(parties: int, phases) -> np.ndarray:
    """``sum_a exp(i theta_a) |in_a><in_a|`` over the pre-interaction basis."""
    out = 0
    for theta, a in zip(phases, itertools.product((0, 1), repeat=parties)):
        vec = pre_interaction_vector(a)
        out = out + np.exp(1j * theta) * np.outer(vec, np.conj(vec))
    return out


def canonical_transform(frames, aux_dims) -> np.ndarray:
    """``kron(frames)`` with its rows reordered from (qubit_1, aux_1, qubit_2,
    aux_2, ...) to (all qubits, then all auxiliary spaces)."""
    n = len(aux_dims)
    c = kron(*frames)
    local = [d for k in aux_dims for d in (2, int(k))]
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return c.reshape(local + [c.shape[1]]).transpose(perm + [2 * n]).reshape(c.shape)


def herm_exp(h: np.ndarray, eps: float) -> np.ndarray:
    """``exp(i eps h)`` for Hermitian ``h``."""
    vals, vecs = np.linalg.eigh((h + dag(h)) / 2.0)
    return (vecs * np.exp(1j * eps * vals)) @ dag(vecs)


def effects(observable: np.ndarray) -> np.ndarray:
    """Stack of the two measurement elements, shape (2, d, d)."""
    eye = np.eye(observable.shape[0])
    return np.stack([(eye + observable) / 2.0, (eye - observable) / 2.0])


def outcome_table(rho: np.ndarray, dims, pairs, settings) -> np.ndarray:
    """All 2^N Born probabilities ``Tr[(E_1 ox ... ox E_N) rho]`` for one
    setting combination, as one einsum over the reshaped density."""
    n = len(dims)
    letters = iter(string.ascii_letters)
    row, col, out = ([next(letters) for _ in range(n)] for _ in range(3))
    spec = ",".join(f"{out[k]}{row[k]}{col[k]}" for k in range(n))
    spec += "," + "".join(col) + "".join(row) + "->" + "".join(out)
    ops = [effects(pairs[k][settings[k]]) for k in range(n)]
    table = np.einsum(spec, *ops, rho.reshape(tuple(dims) * 2), optimize=True)
    return np.real(table)


def conditional_state(model: Model, settings, outcomes) -> tuple[float, np.ndarray]:
    """Probability of a first-round event and the normalised state it leaves
    after the interaction."""
    pi = kron(*[effects(model.obs[1][k][settings[k]])[outcomes[k]] for k in range(model.parties)])
    rho = pi @ model.rho @ dag(pi)
    p = float(np.real(np.trace(rho)))
    return p, model.v @ (rho / p) @ dag(model.v)


def record(model: Model) -> dict:
    """``p1`` and ``p2`` laid out as the program's machine ``simulate`` output:
    first-round tables for every setting combination, and second-round
    tables on the Bell branch (settings 0,0,1,...,1, every outcome) and the
    side-statistics branch (settings 1,1,0,...,0, all-zero outcome)."""
    n = model.parties
    combos = list(itertools.product((0, 1), repeat=n))
    p1 = {x: outcome_table(model.rho, model.dims_t1, model.obs[1], x) for x in combos}
    x_bell = (0, 0) + (1,) * (n - 2)
    x_extra = (1, 1) + (0,) * (n - 2)
    events = [(x_bell, a) for a in combos] + [(x_extra, (0,) * n)]
    p2 = {}
    for x, a in events:
        if p1[x][a] <= ZERO_PROB:
            continue
        _, sigma = conditional_state(model, x, a)
        p2[f"x={bits(x)}|a={bits(a)}"] = {
            bits(x2): outcome_table(sigma, model.dims_t2, model.obs[2], x2).reshape(-1) for x2 in combos
        }
    return {"p1": {bits(x): t.reshape(-1) for x, t in p1.items()}, "p2": p2}


def bell_operator(pairs, target) -> np.ndarray:
    """``B_a = (-1)^{a_1} [(N-1) T1 ox A_{2,1} ox ... ox A_{N,1}
    + sum_{n>=2} (-1)^{a_n} T0 ox A_{n,0}]`` with identity padding, where
    ``T0, T1 = (A_{1,0} -/+ A_{1,1}) / sqrt2``."""
    n = len(pairs)
    eyes = [np.eye(p[0].shape[0]) for p in pairs]
    t0 = (pairs[0][0] - pairs[0][1]) / math.sqrt(2.0)
    t1 = (pairs[0][0] + pairs[0][1]) / math.sqrt(2.0)
    op = (n - 1) * kron(t1, *[pairs[k][1] for k in range(1, n)])
    for k in range(1, n):
        factors = [t0] + eyes[1:]
        factors[k] = pairs[k][0]
        op = op + (-1.0) ** target[k] * kron(*factors)
    return (-1.0) ** target[0] * op
