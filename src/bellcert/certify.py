"""Numerical execution of the certification chain.

Given a strategy, verify that its statistics meet the premises (maximal Bell
violations at both rounds on the designated branches, plus the side
statistics), check each observable pair once on its certified support
(``_pair_checks``: both settings sharp, the pair anticommuting), extract
per-party local frames from the pairs that pass, certify the source state
as the maximally entangled state times an auxiliary state ``xi``, and
certify the interaction as the reference entangling unitary times an
auxiliary unitary on the support of ``xi``, the part the statistics fix.
Only the maximal-violation tolerance is a parameter; the later gates use
the module's constants.

The 2N pairs run as stacks (``quantum._stacked``), one per support or
compressed dimension, each pair with the bits it gets alone, in chain order.

Verdict semantics, one rule over the chain's ordered list of failed gates:
``inconclusive`` if any is a statistical premise, else ``refuted`` if there
is any, else ``certified``.  The failure lines are that list's, in order.

* ``inconclusive`` - a statistical premise is not met at tolerance (e.g. a
  Bell value short of the quantum bound, a conditioning event of vanishing
  probability, or an auxiliary state too close to rank-deficient for the
  block-proportionality argument to be trusted; a rank-deficient ``xi``
  whose chain passes has ``W = U ox V0`` certified on ``supp(xi)`` only).
  No robustness statement is made: anything short of maximal is never
  called refuted on that basis.
* ``refuted`` - the statistics meet the Bell premises but the claimed
  product structure fails: side statistics off target, non-projective or
  non-anticommuting certified observables, a frame or state residual, a
  recovered auxiliary block that is not unitary on ``supp(xi)``, or an
  interaction residual ``max|W - U ox V0|`` on ``supp(xi)`` beyond the
  certification tolerance.  Each check runs once, and a failing one gives
  one failure line, in chain order: projectivity, frame construction,
  anticommutation, frame residuals, the source state, the interaction.
* ``certified`` - everything passes and the recovered auxiliary state is
  comfortably full-rank.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bell import BellExpression
from .linalg import CERT_TOL, dagger, fix_column_phases, herm_eig, herm_part, kron, max_abs
from .quantum import QuantumState, _grouped, _stacked, mixture_marginals
from .reference import ghz_like_vector, ghz_matrix, pre_interaction_matrix, target_observables
from .scenario import (
    CorrelationRecord,
    Strategy,
    bell_branch_settings,
    run_scenario,
)

__all__ = [
    "MAX_VIOLATION_TOL",
    "XI_EIG_FLOOR",
    "SUPPORT_CUTOFF",
    "FramePremiseError",
    "CheckResult",
    "LocalFrame",
    "StateCertificate",
    "InteractionCertificate",
    "CertificationReport",
    "certify_source_state",
    "certify_interaction",
    "run_full_certification",
]

MAX_VIOLATION_TOL = 1e-9  # "maximal violation" means within this of the quantum bound
XI_EIG_FLOOR = 1e-10  # recovered auxiliary state must be full-rank above this
SUPPORT_CUTOFF = 1e-10  # eigenvalues (of a reduced state or xi) below this are outside the support


class FramePremiseError(ValueError):
    """A premise of the local-frame construction is violated."""


@dataclass(frozen=True)
class CheckResult:
    """One numeric claim together with the tolerance it was checked at."""

    name: str
    value: float
    tolerance: float
    passed: bool

    @staticmethod
    def close_to(name: str, value: float, target: float, tolerance: float) -> "CheckResult":
        return CheckResult(name, float(value), tolerance, bool(abs(value - target) <= tolerance))

    @staticmethod
    def below(name: str, value: float, tolerance: float) -> "CheckResult":
        return CheckResult(name, float(value), tolerance, bool(value <= tolerance))


@dataclass(frozen=True, eq=False)
class LocalFrame:
    """Per-party, per-round unitary onto qubit x auxiliary form.

    ``matrix`` has shape (2k, d): an isometry from the local support onto
    C^2 ox C^k under which the projected observables become the target qubit
    observables padded with the identity.  Its row count is the support
    dimension 2k; its column count is the full local dimension d.
    """

    party: int
    time_slice: int
    matrix: np.ndarray

    @property
    def aux_dim(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def support_dim(self) -> int:
        return self.matrix.shape[0]


def _supports(eig) -> list[np.ndarray]:
    """Orthonormal columns spanning the support of each positive matrix of
    a stack (or of one matrix), from its ``herm_eig`` (ascending, so a
    support is the last columns): the eigenvectors with eigenvalue above
    ``SUPPORT_CUTOFF``, in the basis ``_position_basis`` fixes.  A full-rank
    matrix gives the identity, so strategies without dark subspaces keep
    their native basis; so does one with no eigenvalue above the cutoff (a
    vanishing recovered ``xi`` fails the source-state residual)."""
    d = eig.eigenvalues.shape[-1]
    vectors = eig.eigenvectors.reshape(-1, d, d)
    ranks = np.count_nonzero(eig.eigenvalues.reshape(-1, d) > SUPPORT_CUTOFF, axis=-1)
    partial = [i for i, r in enumerate(ranks) if 0 < r < d]
    bases = _stacked(_position_basis, [vectors[i, :, d - ranks[i] :] for i in partial])
    bases, eye = dict(zip(partial, bases)), np.eye(d, dtype=complex)
    return [bases.get(i, eye) for i in range(len(ranks))]


def _position_basis(span: np.ndarray) -> np.ndarray:
    """The basis of the column space of each ``span`` (orthonormal columns)
    of a stack that depends on the subspace alone, not on the basis ``eigh``
    picks by roundoff inside a degenerate eigenvalue: the eigenvectors of
    the position operator ``diag(0, 1, ..., d-1)`` compressed to the
    subspace (ascending, with the phase convention of ``herm_eig``).  They
    are unique when that compression has a simple spectrum; where it is
    degenerate (on the span of ``(e_0 + e_2) / sqrt(2)`` and ``e_1`` it is
    the identity), roundoff picks again.  One column (or none) is returned
    as it is, already unique up to the phase ``herm_eig`` fixed."""
    if span.shape[-1] <= 1:
        return span
    position = np.arange(span.shape[-2], dtype=float)
    compressed = dagger(span) @ (position[:, None] * span)
    return fix_column_phases(span @ herm_eig(compressed).eigenvectors)


def _pair_checks(pairs: np.ndarray, labels) -> list[tuple[CheckResult, ...]]:
    """The premises of each pair ``labels`` names in a ``(g, 2, k, k)`` stack
    compressed to their supports, each at ``CERT_TOL``: the sharpness defect
    ``max|A_s^2 - I|`` of setting 0 and 1, then the anticommutator norm."""
    a0, a1 = pairs[:, 0], pairs[:, 1]
    sharp = np.max(np.abs(pairs @ pairs - np.eye(pairs.shape[-1])), axis=(-2, -1))
    anti = np.max(np.abs(a0 @ a1 + a1 @ a0), axis=(-2, -1))
    names = ("projectivity {} setting 0", "projectivity {} setting 1", "anticommutator {}")
    return [
        tuple(CheckResult.below(name.format(label), v, CERT_TOL) for name, v in zip(names, row))
        for label, row in zip(labels, np.column_stack([sharp, anti]))
    ]


def _frames(pairs: list, parties: list, n: int) -> list:
    """``_paired_frame`` of each compressed pair, one stack per shape, with
    the targets of its party.  The ``n`` target rotations come from one
    ``herm_eig``: ``[v, t1 v]`` with ``v`` the +1 (last) eigenvector of ``t0``."""
    targets = np.array(target_observables(n), dtype=complex)
    v = herm_eig(targets[:, 0]).eigenvectors[:, :, 1:]
    rotations = np.concatenate([v, targets[:, 1] @ v], axis=-1)
    return _stacked(_paired_frame, pairs, targets[parties], rotations[parties])


def _paired_frame(pairs: np.ndarray, targets: np.ndarray, rotations: np.ndarray) -> list:
    """For each pair ``(m0, m1)`` of a ``(g, 2, d, d)`` stack already known
    to be sharp and anticommuting (``_pair_checks``), the local unitary
    carrying it onto ``target ox identity`` form (``targets`` and
    ``rotations`` per pair, see ``_frames``), with its postcondition
    residual ``max_j |u m_j u^dag - target_j ox I|``: ``(u, residual)``, or
    the ``FramePremiseError`` that refuses the pair.

    The +1 eigenbasis of ``m0`` is fixed by ``_position_basis`` and its -1
    partners are defined as ``m1 v``, so the frame (and every downstream
    report) depends on the pair alone, with the bits it gets on its own.
    Precondition: each pair is sharp and anticommuting to ``CERT_TOL``, so
    its +1 and -1 eigenspaces have equal dimensions, since ``m1`` maps one
    onto the other.
    """
    d = pairs.shape[-1]
    plus = _position_basis(herm_eig(pairs[:, 0]).eigenvectors[..., d // 2 :])
    minus = pairs[:, 1] @ plus  # anticommutation maps the +1 eigenspace onto the -1 one
    u0 = np.concatenate([dagger(plus), dagger(minus)], axis=-2)
    unit_defects = np.max(np.abs(u0 @ dagger(u0) - np.eye(d)), axis=(-2, -1))
    eye = np.eye(d // 2, dtype=complex)[:, None, :]  # t ox I_k is kron's product, per entry
    u = (rotations[..., None, :, None] * eye).reshape(-1, d, d) @ u0
    padded = (targets[..., None, :, None] * eye).reshape(-1, 2, d, d)
    resid = np.max(np.abs(u[:, None] @ pairs @ dagger(u)[:, None] - padded), axis=(1, 2, 3))
    out: list = [(ui, float(r)) for ui, r in zip(u, resid)]
    for i in np.flatnonzero(unit_defects > CERT_TOL):
        out[i] = FramePremiseError(f"paired eigenbasis is not orthonormal (defect {unit_defects[i]:.3e})")
    return out


def _to_canonical(
    m: np.ndarray, frames_out: tuple[LocalFrame, ...], frames_in: tuple[LocalFrame, ...]
) -> np.ndarray:
    """``C_out m C_in^dag`` for the canonical transforms ``C = R (F_1 ox ...
    ox F_N)``: every frame ``F_n`` acts on its own party's axis (one
    ``tensordot`` per party and side), and the reorder ``R`` from (qubit_1,
    aux_1, qubit_2, aux_2, ...) to (all qubits, then all aux) is an axis
    transpose, so no D x D transform is formed."""
    n = len(frames_out)
    t = m.reshape(tuple(f.matrix.shape[1] for f in (*frames_out, *frames_in)))
    # Each step contracts the leading axis and appends the frame's output
    # axis, so after 2N steps the axes are back in party order.
    for f in frames_out:
        t = np.tensordot(t, f.matrix, axes=(0, 1))
    for f in frames_in:
        t = np.tensordot(t, np.conj(f.matrix), axes=(0, 1))
    t = t.reshape(tuple(d for f in (*frames_out, *frames_in) for d in (2, f.aux_dim)))
    rows = 2**n * math.prod(f.aux_dim for f in frames_out)
    return t.transpose(_qubits_first(n)).reshape(rows, -1)


def _from_canonical(
    m: np.ndarray, frames_out: tuple[LocalFrame, ...], frames_in: tuple[LocalFrame, ...]
) -> np.ndarray:
    """``C_out^dag m C_in``, the way back of ``_to_canonical``: the axes of
    ``m`` are transposed from (all qubits, then all aux) back to party order,
    then every frame acts on its own party's axis, one ``tensordot`` per
    party and side."""
    order = _qubits_first(len(frames_out))
    dims = [d for f in (*frames_out, *frames_in) for d in (2, f.aux_dim)]
    t = m.reshape(tuple(dims[k] for k in order)).transpose(np.argsort(order))
    t = t.reshape(tuple(f.matrix.shape[0] for f in (*frames_out, *frames_in)))
    for f in frames_out:
        t = np.tensordot(t, np.conj(f.matrix), axes=(0, 0))
    for f in frames_in:
        t = np.tensordot(t, f.matrix, axes=(0, 0))
    rows = math.prod(f.matrix.shape[1] for f in frames_out)
    return t.reshape(rows, -1)


def _qubits_first(n: int) -> list[int]:
    """Axis order from party order (qubit_1, aux_1, qubit_2, aux_2, ...) to
    all qubits, then all aux, on the row and the column side."""
    return [*_grouped(n), *(2 * n + k for k in _grouped(n))]


def _aux_block(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The least-squares ``X`` in ``m ~ q ox X``, ``Tr_q[(q^dag ox I) m] /
    Tr(q^dag q)``, for ``m`` on (qubits, then aux) with ``q`` on the qubit
    factors; the source certificate splits with ``q = |phi_0><phi_0|``, the
    interaction certificate with ``q = U``."""
    (a, b), (rows, cols) = q.shape, m.shape
    x = np.einsum("ik,ijkl->jl", np.conj(q), m.reshape(a, rows // a, b, cols // b))
    return x / np.real(np.vdot(q, q))


@dataclass(frozen=True, eq=False)
class StateCertificate:
    """``min_eigenvalue`` and ``support`` come from one ``herm_eig`` of ``aux_state``."""

    residual: float
    aux_state: np.ndarray
    aux_dims: tuple[int, ...]
    min_eigenvalue: float
    trace: float
    support: np.ndarray


def certify_source_state(rho: QuantumState, frames_t1: tuple[LocalFrame, ...]) -> StateCertificate:
    """Rotate the source by the first-round frames, each acting on its own
    party, and split off the auxiliary state ``xi`` (``_aux_block`` with
    ``q = |phi_0><phi_0|``): residual of ``rho' - |phi_0><phi_0| ox xi``."""
    n = len(frames_t1)
    aux_dims = tuple(f.aux_dim for f in frames_t1)
    rho_can = _to_canonical(rho.density, frames_t1, frames_t1)
    phi = ghz_like_vector((0,) * n)
    target = np.outer(phi, np.conj(phi))
    xi = _aux_block(rho_can, target)
    xi = herm_part(xi)
    residual = max_abs(rho_can - kron(target, xi))
    eig = herm_eig(xi)
    return StateCertificate(
        residual=float(residual),
        aux_state=xi,
        aux_dims=aux_dims,
        min_eigenvalue=float(eig.eigenvalues[0]),
        trace=float(np.real(np.trace(xi))),
        support=_supports(eig)[0],
    )


@dataclass(frozen=True, eq=False)
class InteractionCertificate:
    aux_unitary: np.ndarray
    residual: float
    proportionality_error: float
    unitarity_defect: float
    failures: tuple[str, ...]


def certify_interaction(
    interaction: np.ndarray,
    frames_t1: tuple[LocalFrame, ...],
    frames_t2: tuple[LocalFrame, ...],
    xi_support: np.ndarray,
) -> InteractionCertificate:
    """Recover the auxiliary unitary and gate the claim ``W = U ox V0``.

    In the certified frames (applied party by party), with all qubit
    factors first, the interaction matrix ``W`` must be the reference
    entangling unitary ``U`` times one auxiliary block.  ``U = G B^dag`` is built from
    the Kronecker product ``B`` of the per-party pre-interaction bases,
    whose columns are also the inputs ``|in_a>`` below.
    ``V0 = Tr_q[(U^dag ox I) W] / 2^N`` (``_aux_block`` with ``q = U``) is
    the least-squares estimate of that block.

    The statistics fix ``V0`` only on the support of the auxiliary state, so
    both gates act there, with ``P = xi_support`` the isometry onto
    ``supp(xi)`` (``_supports`` of the recovered ``xi``): the claim
    holds when the residual ``max|W (I ox P) - U ox V0 P|`` and the isometry
    defect ``max|(V0 P)^dag (V0 P) - I|`` are both within ``CERT_TOL``.
    For a full-rank ``xi``, ``P = I`` and these are ``max|W - U ox V0|`` and
    the unitarity defect of ``V0``.
    ``proportionality_error`` is the largest block
    ``(<out| ox I)(W (I ox P) - U ox V0 P)(|in_a> ox I)`` over computational
    outputs and pre-interaction inputs; a failing residual names that block.
    """
    parties = len(frames_t1)
    w = _to_canonical(interaction, frames_t2, frames_t1)
    d_q = 2**parties
    basis = pre_interaction_matrix(parties)
    u = ghz_matrix(parties) @ dagger(basis)
    v0 = _aux_block(w, u)
    v0_p = v0 @ xi_support
    w_p = (w.reshape(-1, xi_support.shape[0]) @ xi_support).reshape(w.shape[0], -1)
    deviation = w_p - kron(u, v0_p)
    residual = max_abs(deviation)
    unit_defect = max_abs(dagger(v0_p) @ v0_p - np.eye(v0_p.shape[1]))

    shape = (d_q, w.shape[0] // d_q, d_q, v0_p.shape[1])
    blocks = np.tensordot(deviation.reshape(shape), basis, axes=(2, 0))  # (out, j, l, a)
    norms = np.max(np.abs(blocks), axis=(1, 2))
    out, a = np.unravel_index(np.argmax(norms), norms.shape)
    worst = float(norms[out, a])

    failures = []
    if unit_defect > CERT_TOL:
        failures.append(f"recovered auxiliary block is not unitary (defect {unit_defect:.3e})")
    if residual > CERT_TOL:
        failures.append(
            f"rotated interaction differs from U ox V0 by {residual:.3e} (max-norm), "
            f"beyond {CERT_TOL:g}: block out={out:0{parties}b} of input "
            f"{a:0{parties}b} disagrees by {worst:.3e}"
        )
    return InteractionCertificate(
        aux_unitary=v0,
        residual=float(residual),
        proportionality_error=worst,
        unitarity_defect=float(unit_defect),
        failures=tuple(failures),
    )


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Structured outcome of the full certification pipeline.  A stage the
    chain did not reach keeps its empty default."""

    verdict: str  # "certified" | "refuted" | "inconclusive"
    parties: int
    bell_checks: tuple[CheckResult, ...] = ()
    extra_stat_checks: tuple[CheckResult, ...] = ()
    projectivity_checks: tuple[CheckResult, ...] = ()
    anticommutation_checks: tuple[CheckResult, ...] = ()
    frame_checks: tuple[CheckResult, ...] = ()
    frames: tuple[LocalFrame, ...] = ()
    state: StateCertificate | None = None
    interaction: InteractionCertificate | None = None
    failures: tuple[str, ...] = ()
    tolerances: dict = field(default_factory=dict)
    state_residual: CheckResult | None = None  # the residual of ``state``, gated at ``CERT_TOL``


def _compressed_pairs(strategy: Strategy, supports) -> list[tuple]:
    """Each round's observable pairs compressed to their certified supports,
    ``A_bar = S^dag A S`` (a ``(2, k, k)`` array), with their
    ``_pair_checks``, once each, in chain order (first round, then second,
    parties in order): ``(party, time_slice, S, A_bar, checks)``."""
    keys = [(p, t) for t in (1, 2) for p in range(strategy.parties)]
    s = [supports[key] for key in keys]
    obs = [*strategy.observables_t1, *strategy.observables_t2]
    bars = _stacked(lambda s, pairs: dagger(s)[:, None] @ pairs @ s[:, None], s, obs)
    checks = _stacked(_pair_checks, bars, [f"party {p + 1} t{t}" for p, t in keys])
    return [(*key, *rest) for key, *rest in zip(keys, s, bars, checks)]


def _compute_supports(strategy: Strategy, record: CorrelationRecord) -> dict:
    """Support isometries per (party, time_slice): the source marginals at
    the first round, the union of conditional post-interaction marginals
    (realized as the support of their average) at the second.  The average
    of the marginals is the marginal of the average state, so the
    Bell-branch states that ``run_scenario`` kept in the record are mixed
    once; every marginal is contracted from the states' factors
    (``quantum.mixture_marginals``), and the marginals of one dimension get
    one stacked ``herm_eig``."""
    x_bell = bell_branch_settings(strategy.parties)
    sigmas = [s for (x, _), s in zip(record.events, record.conditional_states) if x == x_bell]
    marginals = [*mixture_marginals([strategy.source_state]), *mixture_marginals(sigmas)]
    keys = [(p, t) for t in (1, 2) for p in range(strategy.parties)]
    return dict(zip(keys, _stacked(lambda m: _supports(herm_eig(m)), marginals)))


def run_full_certification(
    strategy: Strategy, max_violation_tol: float = MAX_VIOLATION_TOL
) -> CertificationReport:
    """Simulate the scenario, run the whole chain on its statistics and
    return a structured report; failures are encoded in the report, never
    raised."""
    n = strategy.parties
    tolerances = {
        "max_violation": max_violation_tol,
        "certification": CERT_TOL,
        "xi_eigenvalue_floor": XI_EIG_FLOOR,
    }
    failed: list[tuple[bool, str]] = []  # (is a premise, failure line), in chain order

    def fail(checks, line, premise=False):
        """One line from the template ``line`` per failing check ``c``."""
        failed.extend((premise, line.format(c=c)) for c in checks if not c.passed)

    def report(**stages):
        premise = any(p for p, _ in failed)
        verdict = "inconclusive" if premise else "refuted" if failed else "certified"
        failures = tuple(line for _, line in failed)
        return CertificationReport(verdict, n, failures=failures, tolerances=tolerances, **stages)

    try:
        record = run_scenario(strategy)
    except ValueError as exc:
        failed.append((True, str(exc)))
        return report()

    beta_q = BellExpression(n, (0,) * n).quantum_bound
    bell_checks = [
        CheckResult.close_to("Bell value at t1", record.t1_bell_value, beta_q, max_violation_tol)
    ]
    for outcomes in itertools.product((0, 1), repeat=n):
        label = f"conditional Bell value, outcomes {''.join(map(str, outcomes))}"
        value = record.t2_bell_values.get(outcomes, float("nan"))
        bell_checks.append(CheckResult.close_to(label, value, beta_q, max_violation_tol))
        if outcomes not in record.t2_bell_values:
            failed.append((True, f"conditioning event {outcomes} has vanishing probability"))
    bell_line = "{c.name}: {c.value:.9f} not within {c.tolerance:g} of " + f"{beta_q}"
    fail([c for c in bell_checks if not np.isnan(c.value)], bell_line, premise=True)

    extra_checks = [
        CheckResult.close_to(label, value, target, max_violation_tol)
        for label, value, target in record.extra_stats or ()
    ]
    if record.extra_stats is None:
        failed.append((True, "side-statistics conditioning event has vanishing probability"))
    side_line = "side statistic '{c.name}': {c.value:.9f} not within {c.tolerance:g} of target"
    fail(extra_checks, side_line)
    stages = {"bell_checks": tuple(bell_checks), "extra_stat_checks": tuple(extra_checks)}

    if any(p for p, _ in failed):  # a premise failed: the statistics say nothing
        return report(**stages)

    # One set of premise checks, and one frame residual, per party and round.
    # A pair whose projectivity or anticommutation check failed gets no frame;
    # its failing check is the one line that reports it.  A refused frame and
    # a frame residual past tolerance give a line too, so every missing frame
    # leaves a refutation line.
    pairs = _compressed_pairs(strategy, _compute_supports(strategy, record))
    good = [pair for pair in pairs if all(c.passed for c in pair[4])]
    projectivity = [c for *_, checks in pairs for c in checks[:2]]
    anticomm_checks = [checks[2] for *_, checks in pairs]
    fail(projectivity, "{c.name}: defect {c.value:.3e} exceeds {c.tolerance:g}")
    frame_checks, frames = [], {}
    built = _frames([pair[3] for pair in good], [pair[0] for pair in good], n)
    for (party, time_slice, s, *_), result in zip(good, built):
        label = f"party {party + 1} t{time_slice}"
        if isinstance(result, FramePremiseError):
            failed.append((False, f"{label}: {result}"))
            continue
        u, resid = result
        check = CheckResult.below(f"frame residual {label}", resid, CERT_TOL)
        frame_checks.append(check)
        if check.passed:
            frames[(party, time_slice)] = LocalFrame(party, time_slice, u @ dagger(s))
    fail((*anticomm_checks, *frame_checks), "{c.name}: {c.value:.3e} exceeds {c.tolerance:g}")
    stages.update(
        projectivity_checks=tuple(projectivity),
        anticommutation_checks=tuple(anticomm_checks),
        frame_checks=tuple(frame_checks),
        frames=tuple(frames.values()),
    )

    if len(frames) != 2 * n:
        return report(**stages)

    frames_t1 = tuple(frames[(p, 1)] for p in range(n))
    frames_t2 = tuple(frames[(p, 2)] for p in range(n))
    state_cert = certify_source_state(strategy.source_state, frames_t1)
    state_check = CheckResult.below("source-state residual", state_cert.residual, CERT_TOL)
    fail([state_check], "{c.name} {c.value:.3e} exceeds {c.tolerance:g}")  # NaN fails too

    inter_cert = certify_interaction(
        strategy.interaction.matrix, frames_t1, frames_t2, state_cert.support
    )
    failed.extend((False, line) for line in inter_cert.failures)

    if not failed and state_cert.min_eigenvalue <= XI_EIG_FLOOR:
        # The support reads the same eigenvalues, and XI_EIG_FLOOR >=
        # SUPPORT_CUTOFF: so an xi above the floor has full support, and no
        # certified verdict rests on a support that dropped a direction.
        line = (
            f"recovered auxiliary state has minimum eigenvalue "
            f"{state_cert.min_eigenvalue:.3e} <= {XI_EIG_FLOOR:g}; the "
            f"block-proportionality argument assumes a full-rank auxiliary state"
        )
        failed.append((True, line))
    return report(state=state_cert, state_residual=state_check, interaction=inter_cert, **stages)
