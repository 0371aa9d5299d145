"""Numerical execution of the certification chain.

Given a strategy, verify that its statistics meet the premises (maximal Bell
violations at both rounds on the designated branches, plus the side
statistics), extract per-party local frames from the anticommuting
observable pairs, certify the source state as the maximally entangled state
times an auxiliary state, and certify the interaction as the reference
entangling unitary times an auxiliary unitary.

Verdict semantics:

* ``inconclusive`` - a statistical premise is not met at tolerance (e.g. a
  Bell value short of the quantum bound, a conditioning event of vanishing
  probability, or an auxiliary state too close to rank-deficient for the
  block-proportionality argument to be trusted).  No robustness statement is
  made: anything short of maximal is never called refuted on that basis.
* ``refuted`` - the statistics meet the Bell premises but the claimed
  product structure fails: side statistics off target, non-projective or
  non-anticommuting certified observables, state residual, a broken block
  proportionality, a non-unitary recovered auxiliary block, or an
  interaction residual ``max|W - U ox V0|`` beyond the certification
  tolerance.
* ``certified`` - everything passes and the recovered auxiliary state is
  comfortably full-rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .bell import BellExpression
from .linalg import (
    CERT_TOL,
    dagger,
    factorize_tensor_product,
    herm_eig,
    kron,
    max_abs,
    operator_block,
)
from .quantum import QuantumState, as_matrix
from .reference import entangling_unitary, ghz_like_vector, pre_interaction_basis, target_observables
from .scenario import (
    CorrelationRecord,
    Strategy,
    bell_branch_settings,
    canonical_reordering,
    run_scenario,
)

__all__ = [
    "MAX_VIOLATION_TOL",
    "PROPORTIONALITY_TOL",
    "XI_EIG_FLOOR",
    "SUPPORT_CUTOFF",
    "FramePremiseError",
    "CheckResult",
    "LocalFrame",
    "StateCertificate",
    "InteractionCertificate",
    "CertificationReport",
    "support_isometry",
    "check_anticommutation",
    "check_projectivity",
    "extract_local_frame",
    "certify_source_state",
    "certify_interaction",
    "run_full_certification",
]

MAX_VIOLATION_TOL = 1e-9  # "maximal violation" means within this of the quantum bound
PROPORTIONALITY_TOL = 1e-7  # block-proportionality failures beyond this refute
XI_EIG_FLOOR = 1e-10  # recovered auxiliary state must be full-rank above this
SUPPORT_CUTOFF = 1e-10  # reduced-state eigenvalues below this are outside the support


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
    observables padded with the identity.
    """

    party: int
    time_slice: int
    matrix: np.ndarray
    aux_dim: int
    support_dim: int


def support_isometry(density: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Columns spanning the support of a positive matrix.

    Full-rank inputs return the identity, so strategies without dark
    subspaces are handled in their native basis; otherwise the eigenvectors
    with eigenvalue above ``cutoff`` are returned (descending eigenvalue,
    deterministic phase).
    """
    density = np.asarray(density, dtype=complex)
    eig = herm_eig(density)
    mask = eig.eigenvalues > cutoff
    if np.all(mask):
        return np.eye(density.shape[0], dtype=complex)
    cols = np.flatnonzero(mask)[::-1]  # descending eigenvalue
    if cols.size == 0:
        raise FramePremiseError("state support is empty")
    return eig.eigenvectors[:, cols]


def check_anticommutation(a0, a1) -> float:
    """Max-norm of the anticommutator of two observables (already projected
    onto their common support)."""
    m0, m1 = as_matrix(a0), as_matrix(a1)
    return max_abs(m0 @ m1 + m1 @ m0)


def extract_local_frame(
    a0,
    a1,
    targets: tuple[np.ndarray, np.ndarray],
    party: int = 0,
    time_slice: int = 0,
    tol: float = CERT_TOL,
) -> LocalFrame:
    """Build the local unitary carrying an anticommuting pair of sharp
    observables onto ``target ox identity`` form.

    The inputs must already be restricted to their support: Hermitian, with
    ``O^2 = I`` within ``tol`` on an even-dimensional space, and
    anticommuting within ``tol``.  The +1 eigenbasis of ``a0`` is ordered
    deterministically and its -1 partners are defined as ``a1 v`` so the
    construction (and hence every downstream report) is reproducible.
    """
    m0, m1 = as_matrix(a0), as_matrix(a1)
    d = m0.shape[0]
    if m0.shape != (d, d) or m1.shape != (d, d):
        raise FramePremiseError("observables must be square matrices of equal dimension")
    if d % 2:
        raise FramePremiseError(f"support dimension {d} is odd; no qubit factor exists")
    for j, m in enumerate((m0, m1)):
        defect = max_abs(m @ m - np.eye(d))
        if defect > tol:
            raise FramePremiseError(
                f"observable {j} is not sharp on its support (unitarity defect {defect:.3e})"
            )
    anti = check_anticommutation(m0, m1)
    if anti > tol:
        raise FramePremiseError(f"observables do not anticommute (norm {anti:.3e})")

    eig = herm_eig(m0)
    plus = eig.eigenvectors[:, eig.eigenvalues > 0]
    k = d // 2
    if plus.shape[1] != k:
        raise FramePremiseError(
            f"eigenspace dimensions {plus.shape[1]} / {d - plus.shape[1]} are unequal"
        )
    minus = m1 @ plus  # anticommutation maps the +1 eigenspace onto the -1 one
    u0 = np.vstack([dagger(plus), dagger(minus)])
    unit_defect = max_abs(u0 @ dagger(u0) - np.eye(d))
    if unit_defect > tol:
        raise FramePremiseError(f"paired eigenbasis is not orthonormal (defect {unit_defect:.3e})")

    t0, t1 = np.asarray(targets[0], dtype=complex), np.asarray(targets[1], dtype=complex)
    t_eig = herm_eig(t0)
    t_plus = t_eig.eigenvectors[:, t_eig.eigenvalues > 0][:, 0]
    rot = np.column_stack([t_plus, t1 @ t_plus])
    u = kron(rot, np.eye(k)) @ u0

    for m, t in ((m0, t0), (m1, t1)):
        resid = max_abs(u @ m @ dagger(u) - kron(t, np.eye(k)))
        if resid > tol:
            raise FramePremiseError(f"frame postcondition residual {resid:.3e} exceeds {tol:g}")
    return LocalFrame(party=party, time_slice=time_slice, matrix=u, aux_dim=k, support_dim=d)


def _canonical_transform(frames: tuple[LocalFrame, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Compose per-party frames and reorder to (all qubits, then all aux)."""
    aux_dims = tuple(f.aux_dim for f in frames)
    return canonical_reordering(aux_dims) @ kron(*[f.matrix for f in frames]), aux_dims


@dataclass(frozen=True, eq=False)
class StateCertificate:
    residual: float
    aux_state: np.ndarray
    aux_dims: tuple[int, ...]
    min_eigenvalue: float
    trace: float


def certify_source_state(rho: QuantumState, frames_t1: tuple[LocalFrame, ...]) -> StateCertificate:
    """Rotate the source by the first-round frames and split off the
    auxiliary state: residual of ``rho' - |phi_0><phi_0| ox xi``."""
    c1, aux_dims = _canonical_transform(frames_t1)
    n = len(frames_t1)
    rho_can = c1 @ rho.density @ dagger(c1)
    phi = ghz_like_vector((0,) * n)
    aux_total = int(np.prod(aux_dims))
    xi = operator_block(rho_can, phi, phi, (2**n, aux_total), (2**n, aux_total))
    xi = (xi + dagger(xi)) / 2.0
    residual = max_abs(rho_can - kron(np.outer(phi, np.conj(phi)), xi))
    return StateCertificate(
        residual=float(residual),
        aux_state=xi,
        aux_dims=aux_dims,
        min_eigenvalue=float(np.min(np.linalg.eigvalsh(xi))),
        trace=float(np.real(np.trace(xi))),
    )


@dataclass(frozen=True, eq=False)
class InteractionCertificate:
    is_product: bool
    aux_unitary: np.ndarray | None
    residual: float
    proportionality_error: float
    unitarity_defect: float
    schmidt_coefficients: np.ndarray
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def certify_interaction(
    interaction,
    frames_t1: tuple[LocalFrame, ...],
    frames_t2: tuple[LocalFrame, ...],
    parties: int,
    tol_prop: float = PROPORTIONALITY_TOL,
    tol_cert: float = CERT_TOL,
) -> InteractionCertificate:
    """Check the block structure of the rotated interaction and recover the
    auxiliary unitary.

    In the certified frames the interaction, expressed with all qubit
    factors first, must map each pre-interaction product basis vector
    ``|in_a>`` to ``|phi_a>`` up to one common auxiliary block: every block
    ``(<out| ox I) W (|in_a> ox I)`` has to equal ``<out|phi_a>`` times a
    matrix independent of both ``out`` and ``a``.  Block failures beyond
    ``tol_prop`` are reported with the offending pair named, and the
    residual ``max|W - U ox V0|`` must not exceed ``tol_cert``.
    """
    c1, aux_in_dims = _canonical_transform(frames_t1)
    c2, aux_out_dims = _canonical_transform(frames_t2)
    w = c2 @ as_matrix(interaction) @ dagger(c1)
    d_q = 2**parties
    aux_in = int(np.prod(aux_in_dims))
    aux_out = int(np.prod(aux_out_dims))

    failures: list[str] = []
    worst = 0.0
    block_means = {}
    for bits, in_vec in pre_interaction_basis(parties):
        phi = ghz_like_vector(bits)
        candidates = []
        for out in range(d_q):
            block = operator_block(
                w, np.eye(d_q)[out], in_vec, (d_q, aux_out), (d_q, aux_in)
            )
            coeff = float(np.real(phi[out]))
            if abs(coeff) < 0.1:  # structurally zero amplitude
                dev = max_abs(block)
                worst = max(worst, dev)
                if dev > tol_prop:
                    failures.append(
                        f"block (out={out:0{parties}b}, in={''.join(map(str, bits))}) "
                        f"should vanish but has norm {dev:.3e}"
                    )
            else:
                candidates.append((out, block / coeff))
        ref_out, ref_block = candidates[0]
        for out, block in candidates[1:]:
            dev = max_abs(block - ref_block)
            worst = max(worst, dev)
            if dev > tol_prop:
                failures.append(
                    f"blocks out={ref_out:0{parties}b} and out={out:0{parties}b} of input "
                    f"{''.join(map(str, bits))} disagree by {dev:.3e}"
                )
        block_means[bits] = np.mean([b for _, b in candidates], axis=0)

    zero = (0,) * parties
    for bits, block in block_means.items():
        dev = max_abs(block - block_means[zero])
        worst = max(worst, dev)
        if bits != zero and dev > tol_prop:
            failures.append(
                f"auxiliary blocks of inputs {''.join(map(str, zero))} and "
                f"{''.join(map(str, bits))} disagree by {dev:.3e}"
            )

    v0 = np.mean(list(block_means.values()), axis=0)
    unit_defect = max_abs(dagger(v0) @ v0 - np.eye(aux_in))
    if unit_defect > tol_cert:
        failures.append(f"recovered auxiliary block is not unitary (defect {unit_defect:.3e})")
    residual = max_abs(w - kron(entangling_unitary(parties), v0))
    if residual > tol_cert:
        failures.append(
            f"rotated interaction differs from U ox V0 by {residual:.3e} (max-norm), "
            f"beyond {tol_cert:g}"
        )
    fact = factorize_tensor_product(w, (d_q, aux_out), (d_q, aux_in), tol=tol_cert)
    if not fact.is_product:
        failures.append(
            "rotated interaction is not a tensor product across the qubit/aux split "
            f"(leading Schmidt weight {fact.coefficients[0]:.6f} of "
            f"{float(np.sqrt(np.sum(fact.coefficients ** 2))):.6f})"
        )
    return InteractionCertificate(
        is_product=bool(fact.is_product),
        aux_unitary=v0,
        residual=float(residual),
        proportionality_error=float(worst),
        unitarity_defect=float(unit_defect),
        schmidt_coefficients=fact.coefficients,
        failures=tuple(failures),
    )


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Structured outcome of the full certification pipeline."""

    verdict: str  # "certified" | "refuted" | "inconclusive"
    parties: int
    bell_checks: tuple[CheckResult, ...]
    extra_stat_checks: tuple[CheckResult, ...]
    projectivity_checks: tuple[CheckResult, ...]
    anticommutation_checks: tuple[CheckResult, ...]
    frame_checks: tuple[CheckResult, ...]
    frames: tuple[LocalFrame, ...]
    state_residual: CheckResult | None
    xi_min_eigenvalue: float | None
    state: StateCertificate | None
    interaction: InteractionCertificate | None
    failures: tuple[str, ...]
    tolerances: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def check_projectivity(strategy: Strategy, supports) -> tuple[CheckResult, ...]:
    """Unitarity defect of every observable compressed to its certified
    support: max-norm of ``A_bar^2 - Pi`` expressed on the support."""
    checks = []
    for time_slice, obs in ((1, strategy.observables_t1), (2, strategy.observables_t2)):
        for party, pair in enumerate(obs):
            s = supports[(party, time_slice)]
            r = s.shape[1]
            for setting, o in enumerate(pair):
                compressed = dagger(s) @ o.matrix @ s
                defect = max_abs(compressed @ compressed - np.eye(r))
                checks.append(
                    CheckResult.below(
                        f"projectivity party {party + 1} t{time_slice} setting {setting}",
                        defect,
                        CERT_TOL,
                    )
                )
    return tuple(checks)


def _compute_supports(strategy: Strategy, record: CorrelationRecord) -> dict:
    """Support isometries per (party, time_slice): the source marginals at
    the first round, the union of conditional post-interaction marginals
    (realized as the support of their average) at the second.  The
    Bell-branch states are the ones ``run_scenario`` kept in the record."""
    n = strategy.parties
    supports = {}
    for party in range(n):
        supports[(party, 1)] = support_isometry(
            strategy.source_state.marginal(party).density
        )
    x_bell = bell_branch_settings(n)
    sigmas = [s for (x, _), s in record.conditional_states.items() if x == x_bell]
    for party in range(n):
        average = sum(sigma.marginal(party).density for sigma in sigmas) / len(sigmas)
        supports[(party, 2)] = support_isometry(average)
    return supports


def run_full_certification(
    strategy: Strategy,
    max_violation_tol: float = MAX_VIOLATION_TOL,
) -> CertificationReport:
    """Simulate the scenario, run the whole chain on its statistics and
    return a structured report; failures are encoded in the report, never
    raised."""
    n = strategy.parties
    tolerances = {
        "max_violation": max_violation_tol,
        "certification": CERT_TOL,
        "proportionality": PROPORTIONALITY_TOL,
        "xi_eigenvalue_floor": XI_EIG_FLOOR,
    }
    premise_failures: list[str] = []
    refutation_failures: list[str] = []

    def report(verdict, **kw):
        base = dict(
            verdict=verdict,
            parties=n,
            bell_checks=(),
            extra_stat_checks=(),
            projectivity_checks=(),
            anticommutation_checks=(),
            frame_checks=(),
            frames=(),
            state_residual=None,
            xi_min_eigenvalue=None,
            state=None,
            interaction=None,
            failures=tuple(premise_failures + refutation_failures),
            tolerances=tolerances,
        )
        base.update(kw)
        return CertificationReport(**base)

    try:
        record = run_scenario(strategy)
    except ValueError as exc:
        premise_failures.append(str(exc))
        return report("inconclusive")

    beta_q = BellExpression(n, (0,) * n).quantum_bound
    bell_checks = [
        CheckResult.close_to("Bell value at t1", record.t1_bell_value, beta_q, max_violation_tol)
    ]
    for outcomes in itertools.product((0, 1), repeat=n):
        label = f"conditional Bell value, outcomes {''.join(map(str, outcomes))}"
        if outcomes in record.t2_bell_values:
            bell_checks.append(
                CheckResult.close_to(
                    label, record.t2_bell_values[outcomes], beta_q, max_violation_tol
                )
            )
        else:
            bell_checks.append(CheckResult(label, float("nan"), max_violation_tol, False))
            premise_failures.append(f"conditioning event {outcomes} has vanishing probability")
    premise_failures.extend(
        f"{c.name}: {c.value:.9f} not within {c.tolerance:g} of {beta_q}"
        for c in bell_checks
        if not c.passed and not np.isnan(c.value)
    )

    extra_checks: list[CheckResult] = []
    if record.extra_stats is None:
        premise_failures.append("side-statistics conditioning event has vanishing probability")
    else:
        for label, value, target in record.extra_stats.entries:
            extra_checks.append(CheckResult.close_to(label, value, target, max_violation_tol))
        refutation_failures.extend(
            f"side statistic '{c.name}': {c.value:.9f} not within {c.tolerance:g} of target"
            for c in extra_checks
            if not c.passed
        )

    if premise_failures:
        return report(
            "inconclusive", bell_checks=tuple(bell_checks), extra_stat_checks=tuple(extra_checks)
        )

    try:
        supports = _compute_supports(strategy, record)
    except (FramePremiseError, ValueError) as exc:
        refutation_failures.append(str(exc))
        return report(
            "refuted", bell_checks=tuple(bell_checks), extra_stat_checks=tuple(extra_checks)
        )

    projectivity = check_projectivity(strategy, supports)
    refutation_failures.extend(
        f"{c.name}: defect {c.value:.3e} exceeds {c.tolerance:g}"
        for c in projectivity
        if not c.passed
    )

    targets = target_observables(n)
    anticomm_checks: list[CheckResult] = []
    frames: dict[tuple[int, int], LocalFrame] = {}
    frame_checks: list[CheckResult] = []
    for time_slice, obs in ((1, strategy.observables_t1), (2, strategy.observables_t2)):
        for party, pair in enumerate(obs):
            s = supports[(party, time_slice)]
            a0 = dagger(s) @ pair[0].matrix @ s
            a1 = dagger(s) @ pair[1].matrix @ s
            norm = check_anticommutation(a0, a1)
            anticomm_checks.append(
                CheckResult.below(f"anticommutator party {party + 1} t{time_slice}", norm, CERT_TOL)
            )
            try:
                frame = extract_local_frame(
                    a0, a1, targets[party], party=party, time_slice=time_slice
                )
            except FramePremiseError as exc:
                refutation_failures.append(f"party {party + 1} t{time_slice}: {exc}")
                continue
            full = frame.matrix @ dagger(s)
            frames[(party, time_slice)] = LocalFrame(
                party=party,
                time_slice=time_slice,
                matrix=full,
                aux_dim=frame.aux_dim,
                support_dim=frame.support_dim,
            )
            resid = max(
                max_abs(full @ pair[j].matrix @ dagger(full) - kron(targets[party][j], np.eye(frame.aux_dim)))
                for j in (0, 1)
            )
            frame_checks.append(
                CheckResult.below(f"frame residual party {party + 1} t{time_slice}", resid, CERT_TOL)
            )
    refutation_failures.extend(
        f"{c.name}: {c.value:.3e} exceeds {c.tolerance:g}"
        for c in (*anticomm_checks, *frame_checks)
        if not c.passed
    )

    if len(frames) != 2 * n:
        return report(
            "refuted",
            bell_checks=tuple(bell_checks),
            extra_stat_checks=tuple(extra_checks),
            projectivity_checks=projectivity,
            anticommutation_checks=tuple(anticomm_checks),
            frame_checks=tuple(frame_checks),
            frames=tuple(frames.values()),
        )

    frames_t1 = tuple(frames[(p, 1)] for p in range(n))
    frames_t2 = tuple(frames[(p, 2)] for p in range(n))
    state_cert = certify_source_state(strategy.source_state, frames_t1)
    state_check = CheckResult.below("source-state residual", state_cert.residual, CERT_TOL)
    if not state_check.passed:
        refutation_failures.append(
            f"source-state residual {state_cert.residual:.3e} exceeds {CERT_TOL:g}"
        )

    inter_cert = certify_interaction(strategy.interaction, frames_t1, frames_t2, n)
    refutation_failures.extend(inter_cert.failures)

    if refutation_failures:
        verdict = "refuted"
    elif state_cert.min_eigenvalue <= XI_EIG_FLOOR:
        premise_failures.append(
            f"recovered auxiliary state has minimum eigenvalue "
            f"{state_cert.min_eigenvalue:.3e} <= {XI_EIG_FLOOR:g}; the "
            f"block-proportionality argument assumes a full-rank auxiliary state"
        )
        verdict = "inconclusive"
    else:
        verdict = "certified"

    return report(
        verdict,
        bell_checks=tuple(bell_checks),
        extra_stat_checks=tuple(extra_checks),
        projectivity_checks=projectivity,
        anticommutation_checks=tuple(anticomm_checks),
        frame_checks=tuple(frame_checks),
        frames=tuple(frames.values()),
        state_residual=state_check,
        xi_min_eigenvalue=state_cert.min_eigenvalue,
        state=state_cert,
        interaction=inter_cert,
    )
