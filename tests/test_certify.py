import dataclasses
import itertools
import math

import numpy as np
import pytest

from bellcert.bell import BellExpression, quantum_value
from bellcert import bell, certify, scenario
from bellcert.certify import (
    FramePremiseError,
    LocalFrame,
    certify_interaction,
    certify_source_state,
    run_full_certification,
)
from bellcert.linalg import dagger, herm_eig, kron, max_abs
from bellcert.quantum import (
    Interaction,
    QuantumState,
    _rng,
    pure_state,
    random_density,
    random_unitary,
    white_noise_mix,
)
from bellcert.reference import (
    entangling_unitary,
    ghz_like_vector,
    pre_interaction_matrix,
    reference_strategy,
    target_observables,
)
from bellcert.scenario import (
    Strategy,
    bell_branch_settings,
    run_scenario,
    scramble_strategy,
)

from conftest import (
    PSI_MINUS,
    X,
    Z,
    canonical_reordering,
    diag_phase_deviation,
    effect,
    partial_trace,
    phase_distance,
    swap_deviation,
    vector_block,
)


def support_of(m):
    """The support isometry of one positive matrix, from the chain's kernel."""
    return certify._supports(herm_eig(m))[0]


# The reference qubit pairs: ((X+Z)/sqrt2, (X-Z)/sqrt2) for party 1, (Z, X)
# for every other party.
FIRST_TARGETS, OTHER_TARGETS = target_observables(2)


def pair_checks(a0, a1):
    """The chain's premise checks of one pair, from ``_pair_checks`` on a
    one-pair stack."""
    (checks,) = certify._pair_checks(np.stack([a0, a1])[np.newaxis], ["pair"])
    return checks


def anticommutator(a0, a1):
    """The anticommutator norm the chain gates, from ``_pair_checks``."""
    return pair_checks(a0, a1)[2].value


def target_rotation(targets):
    """Oracle of the frame's target rotation ``[v, t1 v]``, with ``v`` the +1
    eigenvector of ``t0`` in the phase of ``herm_eig``, one pair at a time."""
    t0, t1 = (np.asarray(t, dtype=complex) for t in targets)
    eig = herm_eig(t0)
    v = eig.eigenvectors[:, eig.eigenvalues > 0][:, 0]
    return np.column_stack([v, t1 @ v])


def single_frame(a0, a1, targets):
    """``_paired_frame`` on a one-pair stack: ``(u, residual)``, or the
    ``FramePremiseError`` it gives, raised."""
    t, rot = np.array([targets], dtype=complex), target_rotation(targets)[np.newaxis]
    (result,) = certify._paired_frame(np.stack([a0, a1])[np.newaxis], t, rot)
    if isinstance(result, FramePremiseError):
        raise result
    return result


def paired_frame(a0, a1, targets):
    """The chain's frame path for one pair: its premises from
    ``_pair_checks`` (the names of the failing ones raised), then
    ``_paired_frame`` with its residual within ``CERT_TOL``."""
    failed = [c.name for c in pair_checks(a0, a1) if not c.passed]
    if failed:
        raise FramePremiseError(", ".join(failed))
    u, resid = single_frame(a0, a1, targets)
    assert resid <= certify.CERT_TOL
    return LocalFrame(0, 1, u)


class TestAnticommutation:
    def test_reference_party_one_pair(self):
        assert anticommutator(*FIRST_TARGETS) < 1e-15

    def test_pauli_pair(self):
        assert anticommutator(Z, X) < 1e-15

    def test_commuting_component(self):
        norm = anticommutator(Z, (X + Z) / math.sqrt(2.0))
        assert abs(norm - math.sqrt(2.0)) < 1e-12


class TestProjectivityCheck:
    def test_reference_defects_vanish(self, ref2):
        checks = run_full_certification(ref2).projectivity_checks
        assert len(checks) == 8
        for check in checks:
            assert check.passed and check.value < 1e-12

    def test_scaled_observable_defect(self, ref2):
        scaled = tuple((0.95 * pair[0], pair[1]) for pair in ref2.observables_t2)
        strategy = Strategy(
            source_state=ref2.source_state,
            observables_t1=ref2.observables_t1,
            observables_t2=scaled,
            interaction=ref2.interaction,
        )
        supports = {(p, t): np.eye(2, dtype=complex) for p in range(2) for t in (1, 2)}
        defects = {
            c.name: c.value
            for *_, checks in certify._compressed_pairs(strategy, supports)
            for c in checks[:2]
        }
        assert abs(defects["projectivity party 1 t2 setting 0"] - 0.0975) < 1e-12


class TestSupportIsometry:
    def test_full_rank_returns_identity(self):
        rho = random_density((4,), 0).density
        assert np.array_equal(support_of(rho), np.eye(4))

    def test_rank_deficient_support(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        s = support_of(rho)
        assert s.shape == (4, 2)
        assert max_abs(dagger(s) @ s - np.eye(2)) < 1e-12
        assert max_abs(s @ dagger(s) - np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-12

    def test_no_support_returns_identity(self):
        # nothing to restrict to: the caller works on the whole space
        assert np.array_equal(support_of(np.zeros((3, 3))), np.eye(3))

    def test_basis_depends_on_support_alone(self):
        # Two states with the same support whose eigenbases inside it differ
        # by a rotation: the isometry is the same, and for a coordinate
        # subspace it is the coordinate basis.
        w = random_unitary(4, np.random.default_rng(3))
        q = w[:, :2]
        r = random_unitary(2, np.random.default_rng(4))
        rho = q @ np.diag([0.5 + 1e-13, 0.5 - 1e-13]) @ dagger(q)
        rotated = (q @ r) @ np.diag([0.7, 0.3]) @ dagger(q @ r)
        assert max_abs(support_of(rho) - support_of(rotated)) < 1e-12
        coordinate = np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex)
        assert max_abs(support_of(coordinate) - np.eye(4)[:, [1, 3]]) < 1e-15


class TestExtractLocalFrame:
    """The frame of one pair, built as the chain builds it (``paired_frame``)."""

    def test_identity_case(self):
        frame = paired_frame(Z, X, (Z, X))
        assert phase_distance(frame.matrix, np.eye(2)) < 1e-12
        assert frame.aux_dim == 1

    def test_reference_pair_to_own_targets(self):
        a0, a1 = FIRST_TARGETS
        frame = paired_frame(a0, a1, (a0, a1))
        u = frame.matrix
        for m, t in ((a0, a0), (a1, a1)):
            assert max_abs(u @ m @ dagger(u) - t) < 1e-10

    def test_scrambled_qubit_with_auxiliary(self):
        targets = OTHER_TARGETS
        for seed in range(5):
            w = random_unitary(6, seed)
            a0 = w @ kron(Z, np.eye(3)) @ dagger(w)
            a1 = w @ kron(X, np.eye(3)) @ dagger(w)
            frame = paired_frame(a0, a1, targets)
            assert frame.aux_dim == 3
            u = frame.matrix
            assert max_abs(dagger(u) @ u - np.eye(6)) < 1e-9
            for m, t in ((a0, targets[0]), (a1, targets[1])):
                assert max_abs(u @ m @ dagger(u) - kron(t, np.eye(3))) < 1e-8

    def test_odd_dimension_rejected(self):
        # no sharp pair anticommutes in odd dimension, so the premises refuse
        # it and the frame builder never sees it
        o = np.diag([1.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(FramePremiseError, match="^anticommutator pair$"):
            paired_frame(o, o, OTHER_TARGETS)

    def test_non_sharp_observable_rejected(self):
        with pytest.raises(FramePremiseError, match="^projectivity pair setting 0$"):
            paired_frame(0.9 * Z, X, (Z, X))

    def test_non_anticommuting_rejected(self):
        with pytest.raises(FramePremiseError, match="^anticommutator pair$"):
            paired_frame(Z, (X + Z) / math.sqrt(2.0), (Z, X))


def nearly_anticommuting(seed=364, k=6):
    """``W``, ``W (Z ox I_k) W^dag`` and ``W (X ox I_k + delta Z ox K)
    W^dag``, W Haar and K the Hermitian part of a complex Gaussian, with
    delta putting the anticommutator ``2 delta W (I ox K) W^dag`` at 0.99
    CERT_TOL.  A seeded search over such pairs found this one: it meets
    every premise, but the -1 partners ``A_1 v`` of its +1 eigenvectors
    overlap them by more than CERT_TOL."""
    rng = np.random.default_rng(seed)
    w = random_unitary(2 * k, rng)
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    kk = (g + dagger(g)) / 2
    delta = 0.99 * certify.CERT_TOL / np.max(np.abs(2 * w @ kron(np.eye(2), kk) @ dagger(w)))
    a0 = w @ kron(Z, np.eye(k)) @ dagger(w)
    a1 = w @ (kron(X, np.eye(k)) + delta * kron(Z, kk)) @ dagger(w)
    return w, (a0 + dagger(a0)) / 2, (a1 + dagger(a1)) / 2


class TestFrameOrthonormality:
    """The frame's one refusal of a pair that met its premises."""

    LINE = "paired eigenbasis is not orthonormal (defect 1.192e-08)"

    def test_premises_met_and_frame_refused(self):
        _, a0, a1 = nearly_anticommuting()
        checks = pair_checks(a0, a1)
        assert all(c.passed for c in checks)
        assert abs(checks[2].value - 0.99 * certify.CERT_TOL) <= 1e-15
        with pytest.raises(FramePremiseError) as refused:
            single_frame(a0, a1, OTHER_TARGETS)
        assert str(refused.value) == self.LINE

    def test_chain_refutes_with_the_frame_line(self):
        # The pair is party 2's at t1 of the N = 2 reference, its auxiliary
        # space in the maximally mixed state, so every Bell value and side
        # statistic stays on target and the frame stage decides.
        ref, (w, a0, a1) = reference_strategy(2), nearly_anticommuting()
        k = len(w) // 2
        lift = kron(np.eye(2), w)
        source = lift @ kron(ref.source_state.density, np.eye(k) / k) @ dagger(lift)
        t2 = (ref.observables_t2[0], [kron(m, np.eye(k)) for m in ref.observables_t2[1]])
        v = kron(ref.interaction.matrix, np.eye(k)) @ dagger(lift)
        strategy = Strategy(
            source_state=QuantumState(source, (2, 2 * k)),
            observables_t1=(ref.observables_t1[0], (a0, a1)),
            observables_t2=t2,
            interaction=Interaction(v, (2, 2 * k), (2, 2 * k)),
        )
        report = run_full_certification(strategy)
        assert report.verdict == "refuted"
        assert report.failures == (f"party 2 t1: {self.LINE}",)
        names = [c.name for c in report.frame_checks]
        assert names == [f"frame residual party {p}" for p in ("1 t1", "1 t2", "2 t2")]


def _frames_of(report):
    t1 = tuple(f for f in report.frames if f.time_slice == 1)
    t2 = tuple(f for f in report.frames if f.time_slice == 2)
    return t1, t2


class TestAuxBlock:
    """``_aux_block(m, q)``, the one split of both certificates, against the
    dense oracle ``sum_ik conj(q_ik) (<i| ox I) m (|k> ox I) / Tr(q^dag q)``:
    with the rank-one projector ``|phi_0><phi_0|`` of the source certificate,
    with the unitary ``U`` of the interaction certificate (both real), with a
    complex unitary, and with unequal auxiliary dimensions on the two sides."""

    @staticmethod
    def oracle(m, q):
        e_out, e_in = np.eye(q.shape[0]), np.eye(q.shape[1])
        blocks = (
            np.conj(q[i, k]) * vector_block(m, e_out[i], e_in[k])
            for i in range(q.shape[0])
            for k in range(q.shape[1])
        )
        return sum(blocks) / np.real(np.trace(dagger(q) @ q))

    @pytest.mark.parametrize("k_out, k_in", [(1, 1), (3, 2), (2, 3), (6, 5), (6, 6)])
    def test_matches_the_dense_oracle(self, k_out, k_in):
        rng = np.random.default_rng(10 * k_out + k_in)
        phi = ghz_like_vector((0, 0, 0))
        projector = np.outer(phi, np.conj(phi))
        u = entangling_unitary(3)
        shape = (8 * k_out, 8 * k_in)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = rng.standard_normal((k_out, k_in)) + 1j * rng.standard_normal((k_out, k_in))
        assert max_abs(certify._aux_block(m, projector) - vector_block(m, phi, phi)) < 1e-13
        for q in (projector, u, random_unitary(8, rng)):  # the last one complex
            block = certify._aux_block(m, q)
            assert block.shape == (k_out, k_in)
            assert max_abs(block - self.oracle(m, q)) < 1e-13
            # an exact product gives its factor back, and the residual of the
            # least-squares split has no component along q
            assert max_abs(certify._aux_block(kron(q, x), q) - x) < 1e-14
            assert max_abs(certify._aux_block(m - kron(q, block), q)) < 1e-13


class TestFramesActPerParty:
    """The frames applied party by party, with the qubits-first reorder as an
    axis transpose, agree with the dense transform
    ``canonical_reordering(aux) @ kron(F_1, ..., F_N)`` built from the
    chain's own frames."""

    @staticmethod
    def dense_transform(frames):
        aux = tuple(f.aux_dim for f in frames)
        return canonical_reordering(aux) @ kron(*[f.matrix for f in frames])

    @pytest.fixture(
        params=[
            ((2, 3), (3, 2), {}),
            ((3, 5), (2, 1, 1), {"xi_rank": 1}),
        ],
        ids=["unequal-aux", "rank-deficient"],
    )
    def certified(self, request):
        (parties, seed), aux, kw = request.param
        strategy = scramble_strategy(reference_strategy(parties), aux, seed=seed, **kw).strategy
        report = run_full_certification(strategy)
        assert report.verdict == "certified", report.failures
        if kw:
            # the rank-one xi leaves party 1 a rank-deficient support in both
            # rounds, so its frames are 2k x d rectangles with 2k < d
            assert [f.matrix.shape for f in report.frames if f.party == 0] == [(2, 4), (2, 4)]
        return strategy, report

    def test_source_state(self, certified):
        strategy, report = certified
        frames_t1, _ = _frames_of(report)
        n = strategy.parties
        c1 = self.dense_transform(frames_t1)
        rho = c1 @ strategy.source_state.density @ dagger(c1)
        phi = ghz_like_vector((0,) * n)
        xi = vector_block(rho, phi, phi)
        xi = (xi + dagger(xi)) / 2.0
        residual = max_abs(rho - kron(np.outer(phi, np.conj(phi)), xi))

        cert = certify_source_state(strategy.source_state, frames_t1)
        assert abs(cert.residual - residual) <= 1e-14
        assert max_abs(cert.aux_state - xi) <= 1e-14

    def test_interaction(self, certified):
        strategy, report = certified
        frames_t1, frames_t2 = _frames_of(report)
        n = strategy.parties
        c1, c2 = self.dense_transform(frames_t1), self.dense_transform(frames_t2)
        w = c2 @ strategy.interaction.matrix @ dagger(c1)
        d_q = 2**n
        k_out, k_in = w.shape[0] // d_q, w.shape[1] // d_q
        u = entangling_unitary(n)
        v0 = np.einsum("ik,ijkl->jl", np.conj(u), w.reshape(d_q, k_out, d_q, k_in)) / d_q
        deviation = w - kron(u, v0)
        proportionality = max(
            max_abs(vector_block(deviation, e_out, in_a))
            for e_out in np.eye(d_q)
            for in_a in pre_interaction_matrix(n).T
        )

        xi_support = support_of(report.state.aux_state)
        assert xi_support.shape == (k_in, k_in)  # xi is full-rank on the supports
        cert = certify_interaction(strategy.interaction.matrix, frames_t1, frames_t2, xi_support)
        assert max_abs(cert.aux_unitary - v0) <= 1e-14
        assert abs(cert.residual - max_abs(deviation)) <= 1e-14
        assert abs(cert.proportionality_error - proportionality) <= 1e-14

    def test_frame_dims_read_from_the_matrix(self, certified):
        # a frame is 2k x d: the support dimension 2k is its row count, the
        # full local dimension d its column count
        strategy, report = certified
        supports = certify._compute_supports(strategy, run_scenario(strategy))
        for f in report.frames:
            support = supports[(f.party, f.time_slice)]
            assert f.matrix.shape == (support.shape[1], support.shape[0])
            assert f.support_dim == support.shape[1] == 2 * f.aux_dim
        proper = [f for f in report.frames if f.support_dim < f.matrix.shape[1]]
        assert bool(proper) == (strategy.parties == 3)  # the rank-one xi's proper supports


class TestPlantingPath:
    """``scramble_strategy`` plants the source and interaction with
    ``_from_canonical``, the way back of the chain's ``_to_canonical``."""

    CASES = [((3, 2), 4, {}), ((2, 1, 2), 5, {}), ((6, 5), 9, {}), ((3, 2), 2, {"xi_rank": 1})]

    @pytest.mark.parametrize("aux, seed, kw", CASES)
    def test_planted_objects_match_dense_oracle(self, aux, seed, kw):
        reference = reference_strategy(len(aux))
        scrambled = scramble_strategy(reference, aux, seed=seed, **kw)
        c1 = canonical_reordering(aux) @ kron(*scrambled.frames_t1)
        c2 = canonical_reordering(aux) @ kron(*scrambled.frames_t2)
        rho = dagger(c1) @ kron(reference.source_state.density, scrambled.aux_state.density) @ c1
        v = dagger(c2) @ kron(reference.interaction.matrix, scrambled.aux_unitary) @ c1
        assert max_abs(scrambled.strategy.source_state.density - rho) <= 1e-14
        assert max_abs(scrambled.strategy.interaction.matrix - v) <= 1e-14

    @pytest.mark.parametrize("aux, seed, kw", CASES + [((2, 1, 1), 5, {"xi_rank": 1})])
    def test_round_trip_through_the_chain_frames(self, aux, seed, kw):
        # xi_rank=1 leaves rank-deficient supports, so some frames are
        # 2k x d rectangles, isometries only from the right
        strategy = scramble_strategy(reference_strategy(len(aux)), aux, seed=seed, **kw).strategy
        frames_t1, frames_t2 = _frames_of(run_full_certification(strategy))
        assert len(frames_t1) == len(frames_t2) == len(aux)
        rng = np.random.default_rng(seed)
        for out, inp in ((frames_t1, frames_t1), (frames_t2, frames_t1)):
            rows = 2 ** len(aux) * int(np.prod([f.aux_dim for f in out]))
            cols = 2 ** len(aux) * int(np.prod([f.aux_dim for f in inp]))
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            m /= max_abs(m)  # max-norm 1, as the planted state and unitary
            planted = certify._from_canonical(m, out, inp)
            assert planted.shape == (
                int(np.prod([f.matrix.shape[1] for f in out])),
                int(np.prod([f.matrix.shape[1] for f in inp])),
            )
            assert max_abs(certify._to_canonical(planted, out, inp) - m) <= 1e-14


class TestFramesIgnoreRoundoff:
    """The frames, and the recovered auxiliary state and unitary, depend on
    the observables, not on the basis ``eigh`` picks inside a degenerate
    eigenvalue."""

    @staticmethod
    def perturbed(strategy, which, seed):
        """The strategy with a Hermitian perturbation of max-norm 1e-16
        added to one observable, ``which = (time_slice, party, setting)``."""
        rng = np.random.default_rng(seed)
        time_slice, party, setting = which
        field = f"observables_t{time_slice}"
        obs = [list(pair) for pair in getattr(strategy, field)]
        o = obs[party][setting]
        h = rng.standard_normal(o.shape) + 1j * rng.standard_normal(o.shape)
        h = (h + dagger(h)) / 2.0
        moved = o + 1e-16 * h / max_abs(h)
        assert not np.array_equal(moved, o)
        obs[party][setting] = moved
        return dataclasses.replace(strategy, **{field: tuple(tuple(p) for p in obs)})

    @pytest.mark.parametrize(
        "aux, seed", [((3, 2), 4), ((2, 2), 1), ((2, 1, 2), 5), ((6, 5), 9), ((6, 5), 3)]
    )
    def test_tiny_perturbation_moves_nothing(self, aux, seed):
        strategy = scramble_strategy(reference_strategy(len(aux)), aux, seed=seed).strategy
        report = run_full_certification(strategy)
        assert report.verdict == "certified", report.failures
        for which in itertools.product((1, 2), range(len(aux)), (0, 1)):
            other = run_full_certification(self.perturbed(strategy, which, seed))
            assert other.verdict == "certified", other.failures
            for f, g in zip(report.frames, other.frames):
                assert max_abs(f.matrix - g.matrix) < 1e-12, which
            assert max_abs(report.state.aux_state - other.state.aux_state) < 1e-12, which
            assert max_abs(report.interaction.aux_unitary - other.interaction.aux_unitary) < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_rotated_plus_eigenbasis_gives_the_same_frame(self, k, monkeypatch):
        rng = np.random.default_rng(k)
        t0, t1 = FIRST_TARGETS
        w = random_unitary(2 * k, rng)
        a0, a1 = (w @ kron(t, np.eye(k)) @ dagger(w) for t in (t0, t1))
        a0, a1 = (a0 + dagger(a0)) / 2.0, (a1 + dagger(a1)) / 2.0
        frame = paired_frame(a0, a1, (t0, t1)).matrix

        # The same pair, with eigh's +1 eigenvectors of a0 turned by a
        # random unitary inside their eigenspace.
        r = random_unitary(k, rng)
        herm_eig = certify.herm_eig

        turned = []

        def rotated(h, *args, **kwargs):
            eig = herm_eig(h, *args, **kwargs)
            vecs = eig.eigenvectors.copy()
            for i, entry in enumerate(h):  # the stack entry that is a0
                if entry.shape == a0.shape and np.array_equal(entry, a0):
                    plus = eig.eigenvalues[i] > 0
                    vecs[i][:, plus] = vecs[i][:, plus] @ r
                    turned.append(i)
            return dataclasses.replace(eig, eigenvectors=vecs)

        monkeypatch.setattr(certify, "herm_eig", rotated)
        assert max_abs(paired_frame(a0, a1, (t0, t1)).matrix - frame) < 1e-12
        assert turned == [0]


class TestStackedStage:
    """The supports, pair premises and frames of a run come from stacks,
    one per compressed dimension, with the bits each pair gets alone."""

    def test_stack_keeps_each_pairs_frame(self):
        pairs = []
        for seed in (2, 3):
            w = random_unitary(4, np.random.default_rng(seed))
            pair = np.stack([w @ kron(t, np.eye(2)) @ dagger(w) for t in FIRST_TARGETS])
            pairs.append((pair + dagger(pair)) / 2.0)
        # Party 1 of two takes FIRST_TARGETS; the rotations come from one
        # stacked eigh, the oracle's from one eigh per pair.
        for frame, pair in zip(certify._frames(pairs, [0, 0], 2), pairs):
            u, resid = single_frame(pair[0], pair[1], FIRST_TARGETS)
            assert np.array_equal(frame[0], u) and frame[1] == resid

    @pytest.mark.parametrize(
        "parties, aux, most", [(4, (1, 1, 1, 1), 5), (2, (6, 6), 6), (3, (1, 2, 1), 8)]
    )
    def test_eigensolves_per_run(self, parties, aux, most, monkeypatch):
        # The source's factor, one stacked eigh per marginal dimension, per
        # compressed dimension (setting-0 observables, and position bases
        # where the +1 eigenspace has two or more dimensions), the targets
        # once, and xi.
        strategy = scramble_strategy(reference_strategy(parties), aux, seed=7).strategy
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        assert run_full_certification(strategy).verdict == "certified"
        assert len(calls) <= most, calls


class TestCertifySourceState:
    def test_reference_state(self, ref2):
        report = run_full_certification(ref2)
        cert = report.state
        assert cert.residual < 1e-12
        assert cert.aux_state.shape == (1, 1)
        assert abs(cert.aux_state[0, 0] - 1.0) < 1e-12

    def test_scrambled_state_recovers_planted_xi(self, ref2):
        scrambled = scramble_strategy(ref2, (2, 1), seed=21)
        report = run_full_certification(scrambled.strategy)
        assert report.state.residual < 1e-8
        assert max_abs(report.state.aux_state - scrambled.aux_state.density) < 1e-8

    def test_wrong_state_forced_through_reference_frames(self, ref2):
        # |psi-> never reaches the Bell premises (value -2); forcing the frame
        # rotation anyway leaves a macroscopic residual
        psi_minus = pure_state(PSI_MINUS, (2, 2))
        value = quantum_value(psi_minus, target_observables(2), BellExpression(2, (0, 0)))
        assert abs(value + 2.0) < 1e-12
        report = run_full_certification(ref2)
        frames_t1, _ = _frames_of(report)
        cert = certify_source_state(psi_minus, frames_t1)
        assert cert.residual > 0.4


class TestCertifyInteraction:
    def test_reference_interaction(self, ref2):
        report = run_full_certification(ref2)
        cert = report.interaction
        assert not cert.failures
        assert cert.residual < 1e-12
        assert cert.aux_unitary.shape == (1, 1)
        assert abs(cert.aux_unitary[0, 0] - 1.0) < 1e-12

    def test_leading_block_coefficient(self, ref2):
        # in the rotated first-slot basis the leading auxiliary block of the
        # reference interaction carries cos(pi/8)
        report = run_full_certification(ref2)
        frames_t1, frames_t2 = _frames_of(report)
        c1 = canonical_reordering((1, 1)) @ kron(frames_t1[0].matrix, frames_t1[1].matrix)
        c2 = canonical_reordering((1, 1)) @ kron(frames_t2[0].matrix, frames_t2[1].matrix)
        w = c2 @ ref2.interaction.matrix @ dagger(c1)
        c8, s8 = math.cos(math.pi / 8), math.sin(math.pi / 8)
        bar0 = np.array([c8, s8], dtype=complex)
        out_vec = kron(bar0.reshape(-1, 1), np.array([[1.0], [0.0]])).reshape(-1)
        in_vec = out_vec
        block = vector_block(w, out_vec, in_vec)
        assert abs(math.sqrt(2.0) * block[0, 0] - c8) < 1e-12

    def test_scrambled_recovery_three_dim_aux(self, ref2):
        scrambled = scramble_strategy(ref2, (3, 1), seed=23)
        assert scrambled.aux_unitary.shape == (3, 3)
        report = run_full_certification(scrambled.strategy)
        assert report.verdict == "certified"
        assert phase_distance(report.interaction.aux_unitary, scrambled.aux_unitary) < 1e-8
        assert report.interaction.residual < 1e-8

    def test_swap_deviation_breaks_cross_block_equalities(self, ref2):
        report = run_full_certification(swap_deviation(ref2))
        assert report.verdict == "refuted"
        assert report.interaction is not None
        assert any("disagree" in f for f in report.interaction.failures)
        # the side statistics fail too: the refutation is visible in the data
        assert any(not c.passed for c in report.extra_stat_checks)


class TestFullCertification:
    def test_reference_is_certified(self, ref2):
        report = run_full_certification(ref2)
        assert report.verdict == "certified"
        assert not report.failures
        assert all(c.passed for c in report.bell_checks)

    def test_three_party_reference_is_certified(self, ref3):
        report = run_full_certification(ref3)
        assert report.verdict == "certified"

    def test_scrambled_roundtrip_various_seeds(self, ref2):
        for seed, aux in ((31, (1, 1)), (32, (2, 2)), (33, (3, 2))):
            scrambled = scramble_strategy(ref2, aux, seed=seed)
            report = run_full_certification(scrambled.strategy)
            assert report.verdict == "certified", report.failures
            assert phase_distance(report.interaction.aux_unitary, scrambled.aux_unitary) < 1e-8
            # conjugation preserves sharpness: defects stay at rounding level
            assert all(c.value < 1e-9 for c in report.projectivity_checks)

    def test_visibility_shortfall_is_inconclusive(self, ref2):
        noisy = Strategy(
            source_state=white_noise_mix(ref2.source_state, 0.99),
            observables_t1=ref2.observables_t1,
            observables_t2=ref2.observables_t2,
            interaction=ref2.interaction,
        )
        report = run_full_certification(noisy)
        assert report.verdict == "inconclusive"
        t1 = report.bell_checks[0]
        assert abs(t1.value - 1.98) < 1e-9 and not t1.passed

    def test_diag_phase_deviation_is_refuted(self, ref2):
        report = run_full_certification(diag_phase_deviation(ref2))
        assert report.verdict == "refuted"
        # all conditional Bell values survive the deviation
        assert all(c.passed for c in report.bell_checks)
        assert any(not c.passed for c in report.extra_stat_checks)

    def test_identity_interaction_not_certified(self, ref2):
        strategy = Strategy(
            source_state=ref2.source_state,
            observables_t1=ref2.observables_t1,
            observables_t2=ref2.observables_t2,
            interaction=Interaction(np.eye(4), (2, 2), (2, 2)),
        )
        report = run_full_certification(strategy)
        assert report.verdict == "inconclusive"

    def test_rank_deficient_aux_state_demotes_to_inconclusive(self, ref2):
        scrambled = scramble_strategy(ref2, (2, 2), seed=34, xi_rank=1)
        report = run_full_certification(scrambled.strategy)
        assert report.verdict == "inconclusive"
        assert report.state.min_eigenvalue <= 1e-10
        assert any("full-rank" in f for f in report.failures)

    def test_support_of_xi_short_of_full_is_not_certified(self, ref2, monkeypatch):
        # The floor check and the support of xi read the same eigenvalues, so
        # with XI_EIG_FLOOR >= SUPPORT_CUTOFF a support that drops a direction
        # comes with a minimum eigenvalue at or below the floor.  Both are
        # raised to 0.01, the condition's edge: xi's smallest eigenvalue
        # (0.0047) leaves the support, and the verdict is not certified.
        assert certify.XI_EIG_FLOOR >= certify.SUPPORT_CUTOFF
        scrambled = scramble_strategy(ref2, (2, 2), seed=34)
        monkeypatch.setattr(certify, "SUPPORT_CUTOFF", 0.01)
        monkeypatch.setattr(certify, "XI_EIG_FLOOR", 0.01)
        report = run_full_certification(scrambled.strategy)
        assert 1e-10 < report.state.min_eigenvalue < 0.01
        assert report.state.support.shape == (4, 3)
        assert not report.interaction.failures
        assert report.verdict == "inconclusive"

    def test_vanishing_aux_state_is_refuted_not_raised(self, ref2):
        # |psi-> passes every Bell premise only at a tolerance of 10; its
        # recovered xi is 0, whose support is empty, and the state residual
        # is the one failure line
        strategy = dataclasses.replace(ref2, source_state=pure_state(PSI_MINUS, (2, 2)))
        report = run_full_certification(strategy, max_violation_tol=10.0)
        assert abs(report.state.aux_state[0, 0]) < 1e-15
        assert report.verdict == "refuted"
        assert report.failures == ("source-state residual 5.000e-01 exceeds 1e-08",)
        assert not report.interaction.failures

    def test_global_phase_on_interaction_is_absorbed(self, ref2):
        phased = Strategy(
            source_state=ref2.source_state,
            observables_t1=ref2.observables_t1,
            observables_t2=ref2.observables_t2,
            interaction=Interaction(
                np.exp(0.7j) * ref2.interaction.matrix, (2, 2), (2, 2)
            ),
        )
        report = run_full_certification(phased)
        assert report.verdict == "certified"
        assert abs(report.interaction.aux_unitary[0, 0] - np.exp(0.7j)) < 1e-10


class TestInteractionResidualGate:
    """The N=2 reference interaction times ``exp(i eps H)``: every Bell value
    and side statistic stays maximal to second order in eps, so only the
    interaction residual ``max|W - U ox V0|`` (about 0.75 eps for this H)
    separates the two verdicts."""

    @staticmethod
    def perturbed(ref2, eps):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + dagger(g)) / 2.0
        vals, vecs = np.linalg.eigh(h / np.linalg.norm(h, 2))
        kick = vecs @ np.diag(np.exp(1j * eps * vals)) @ dagger(vecs)
        return Strategy(
            source_state=ref2.source_state,
            observables_t1=ref2.observables_t1,
            observables_t2=ref2.observables_t2,
            interaction=Interaction(ref2.interaction.matrix @ kick, (2, 2), (2, 2)),
        )

    def test_residual_below_tolerance_is_certified(self, ref2):
        report = run_full_certification(self.perturbed(ref2, 5e-9))
        assert 1e-9 < report.interaction.residual < 1e-8
        assert report.verdict == "certified"

    def test_residual_beyond_tolerance_is_refuted(self, ref2):
        report = run_full_certification(self.perturbed(ref2, 5.4e-8))
        assert 3.5e-8 < report.interaction.residual < 4.5e-8
        assert report.interaction.proportionality_error < 1e-7
        assert report.verdict == "refuted"
        assert len(report.failures) == 1 and "differs from U ox V0" in report.failures[0]


class TestDirectInteractionGate:
    """``certify_interaction`` on interactions given directly in the canonical
    frame.  With auxiliary dims (1, 3) the party-local factor order
    (q1, a1, q2, a2) is already (qubits, then aux), so identity frames leave
    ``W`` as it is."""

    FRAMES = tuple(
        LocalFrame(party=p, time_slice=1, matrix=np.eye(d, dtype=complex))
        for p, d in enumerate((2, 6))
    )

    def certify(self, w, xi_support=np.eye(3)):
        return certify_interaction(w, self.FRAMES, self.FRAMES, xi_support)

    def test_product_is_certified_and_v0_recovered(self):
        v0 = random_unitary(3, 5)
        cert = self.certify(kron(entangling_unitary(2), v0))
        assert not cert.failures
        assert max_abs(cert.aux_unitary - v0) < 1e-12
        assert cert.residual < 1e-12 and cert.unitarity_defect < 1e-12

    def test_controlled_v0_fails_with_one_residual_line(self):
        v0 = random_unitary(3, 6)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        controlled = kron(np.eye(2) - p1, np.eye(6)) + kron(p1, np.eye(2), v0)
        cert = self.certify(kron(entangling_unitary(2), np.eye(3)) @ controlled)
        # the least-squares block (I + v0) / 2 is not unitary: one line each
        assert len(cert.failures) == 2
        assert cert.failures[0].startswith("recovered auxiliary block is not unitary")
        assert "differs from U ox V0" in cert.failures[1]
        assert "block out=" in cert.failures[1] and "disagrees by" in cert.failures[1]
        assert cert.proportionality_error > 0.1

    def test_gates_act_on_the_support_of_xi(self):
        # V0 unitary on supp(xi) = span(e0, e1) and not on e2: certified
        # there, with V0 recovered whole; the same V0 gated on all of C^3
        # is refused
        v0 = random_unitary(3, 7) @ np.diag([1.0, 1.0, 0.5])
        w = kron(entangling_unitary(2), v0)
        cert = self.certify(w, np.eye(3)[:, :2])
        assert not cert.failures
        assert max_abs(cert.aux_unitary - v0) < 1e-12
        assert cert.residual < 1e-12 and cert.unitarity_defect < 1e-12
        assert self.certify(w).failures[0].startswith("recovered auxiliary block is not unitary")

    def test_v0_not_unitary_on_support_is_refuted(self):
        # V0 scales a direction inside supp(xi): refused with the unitarity
        # line alone (W = U ox V0 holds exactly); a controlled V0 restricted
        # to a support that meets both branches keeps both lines
        v0 = random_unitary(3, 8) @ np.diag([1.0, 0.5, 1.0])
        cert = self.certify(kron(entangling_unitary(2), v0), np.eye(3)[:, :2])
        assert len(cert.failures) == 1
        assert cert.failures[0] == (
            f"recovered auxiliary block is not unitary (defect {cert.unitarity_defect:.3e})"
        )
        assert abs(cert.unitarity_defect - 0.75) < 1e-12 and cert.residual < 1e-12

        p1 = np.diag([0.0, 1.0]).astype(complex)
        controlled = kron(np.eye(2) - p1, np.eye(6)) + kron(p1, np.eye(2), random_unitary(3, 6))
        w = kron(entangling_unitary(2), np.eye(3)) @ controlled
        cert = self.certify(w, random_unitary(3, 9)[:, :1])
        assert len(cert.failures) == 2 and "differs from U ox V0" in cert.failures[1]


class TestBlockGateRemoved:
    """VERDICT CHANGE, pinned: at N=6 an interaction within ``CERT_TOL`` of
    ``U ox V0`` can still have two blocks ``<out|W|in_a> / <out|phi_a>`` of
    one input that differ by more than 1e-7.  The removed 1e-7
    block-proportionality gate refuted such an interaction; the residual
    gate certifies it."""

    def test_six_party_interaction_within_tolerance_is_certified(self):
        n = 6
        ref = reference_strategy(n)
        u = entangling_unitary(n)
        in_a, phi_a = pre_interaction_matrix(n)[:, 0], ghz_like_vector((0,) * n)
        o1, o2 = np.flatnonzero(np.abs(phi_a) > 0.1)
        # W = U exp(-i eps G) with G = i(|U^dag chi><omega| - h.c.), so to
        # first order W - U = eps (|chi><omega| - |U omega><U^dag chi|), with
        # omega the phase pattern of in_a.  The first term parts the two
        # blocks of input a by 2 sqrt(2) ||in_a||_1 eps (about 15 eps), the
        # second adds nothing to them (<chi|phi_a> = 0), and no entry of
        # W - U exceeds about 1.2 eps.
        chi = np.zeros(2**n, dtype=complex)
        chi[o1], chi[o2] = np.sign(phi_a[o1].real), -np.sign(phi_a[o2].real)
        omega = np.where(np.abs(in_a) > 1e-12, np.exp(1j * np.angle(in_a)), 0.0)
        psi = dagger(u) @ chi
        g = 1j * (np.outer(psi, np.conj(omega)) - np.outer(omega, np.conj(psi)))
        eps = 0.95e-8 / max_abs(u @ g)
        vals, vecs = np.linalg.eigh(g)
        kick = vecs @ np.diag(np.exp(-1j * eps * vals)) @ dagger(vecs)
        strategy = Strategy(
            source_state=ref.source_state,
            observables_t1=ref.observables_t1,
            observables_t2=ref.observables_t2,
            interaction=Interaction(ref.interaction.matrix @ kick, (2,) * n, (2,) * n),
        )
        report = run_full_certification(strategy)
        assert report.verdict == "certified", report.failures
        assert 9e-9 < report.interaction.residual < 1e-8

        # the quantity the removed gate bounded, in the certified frames
        frames_t1, frames_t2 = _frames_of(report)
        reorder = canonical_reordering((1,) * n)
        c1 = reorder @ kron(*[f.matrix for f in frames_t1])
        c2 = reorder @ kron(*[f.matrix for f in frames_t2])
        w = c2 @ strategy.interaction.matrix @ dagger(c1)
        ratios = (w @ in_a)[[o1, o2]] / phi_a[[o1, o2]].real
        assert abs(ratios[0] - ratios[1]) > 1.1e-7


class TestOneLinePerPremise:
    """Each failing premise gives one failure line, and each frame's
    residual is computed once."""

    @staticmethod
    def rotated_t2(reference, delta):
        """Rotate party 2's second-round setting-1 observable by ``delta``:
        the pair stops anticommuting at about 4 delta, while every Bell value
        stays within 1e-9 of maximal for delta = 1e-5."""
        c, s = math.cos(delta), math.sin(delta)
        r = np.array([[c, -s], [s, c]], dtype=complex)
        pairs = [list(pair) for pair in reference.observables_t2]
        pairs[1][1] = r @ pairs[1][1] @ dagger(r)
        return Strategy(
            source_state=reference.source_state,
            observables_t1=reference.observables_t1,
            observables_t2=tuple(tuple(pair) for pair in pairs),
            interaction=reference.interaction,
        )

    @pytest.mark.parametrize("parties", [2, 3])
    def test_rotated_observable_refuted_once(self, parties):
        report = run_full_certification(self.rotated_t2(reference_strategy(parties), 1e-5))
        assert all(c.passed for c in report.bell_checks)
        assert report.verdict == "refuted"
        assert report.failures == ("anticommutator party 2 t2: 4.000e-05 exceeds 1e-08",)

    def test_frame_residual_computed_once_per_frame(self, ref3, monkeypatch):
        built = []
        original = certify._paired_frame

        def counting(pairs, *args):
            built.append(len(pairs))
            return original(pairs, *args)

        monkeypatch.setattr(certify, "_paired_frame", counting)
        report = run_full_certification(ref3)
        assert report.verdict == "certified"
        assert sum(built) == len(report.frame_checks) == len(report.frames) == 6

    def test_pair_premises_checked_once_per_pair(self, ref3, monkeypatch):
        """The chain takes the pair premises from ``_pair_checks``, once per
        party and round."""
        labels = []
        original = certify._pair_checks

        def counting(pairs, stack_labels):
            labels.extend(stack_labels)
            return original(pairs, stack_labels)

        monkeypatch.setattr(certify, "_pair_checks", counting)
        report = run_full_certification(ref3)
        assert report.verdict == "certified"
        assert sorted(labels) == sorted(f"party {p} t{t}" for p in (1, 2, 3) for t in (1, 2))
        names = [c.name for c in (*report.projectivity_checks, *report.anticommutation_checks)]
        assert len(names) == 3 * len(labels) == 18


class TestFailureLinesPinned:
    """The exact failure lines, in the chain's order (projectivity, frame
    construction, anticommutation, frame residuals, then the source state),
    at a maximal-violation tolerance loose enough for every Bell premise to
    hold; the report's state fields restate its state certificate."""

    @staticmethod
    def with_t2(reference, party, setting, change):
        """Replace one second-round observable ``O`` by ``change(O)``."""
        pairs = [list(pair) for pair in reference.observables_t2]
        pairs[party][setting] = change(pairs[party][setting])
        return dataclasses.replace(reference, observables_t2=tuple(tuple(p) for p in pairs))

    @staticmethod
    def rotated(delta):
        r = np.array([[math.cos(delta), -math.sin(delta)], [math.sin(delta), math.cos(delta)]])
        return lambda m: r @ m @ r.T

    def certify(self, strategy, failures):
        report = run_full_certification(strategy, max_violation_tol=1e-2)
        assert report.verdict == "refuted"
        assert report.failures == failures
        if report.state is None:
            assert report.state_residual is None
        else:
            assert report.state_residual.value == report.state.residual
            assert report.state_residual.passed == (report.state.residual <= 1e-8)
        return report

    def test_projectivity_on_support(self, ref2):
        strategy = self.with_t2(ref2, 1, 0, lambda m: (1 - 1e-6) * m)
        self.certify(
            strategy, ("projectivity party 2 t2 setting 0: defect 2.000e-06 exceeds 1e-08",)
        )

    def test_projectivity_before_anticommutation(self, ref3):
        strategy = self.with_t2(ref3, 1, 0, lambda m: (1 - 1e-6) * m)
        strategy = self.with_t2(strategy, 2, 1, self.rotated(1e-5))
        self.certify(
            strategy,
            (
                "projectivity party 2 t2 setting 0: defect 2.000e-06 exceeds 1e-08",
                "anticommutator party 3 t2: 4.000e-05 exceeds 1e-08",
            ),
        )

    def test_source_state_residual(self, ref2):
        strategy = dataclasses.replace(
            ref2, source_state=white_noise_mix(ref2.source_state, 0.999999)
        )
        report = self.certify(strategy, ("source-state residual 2.500e-07 exceeds 1e-08",))
        assert not report.state_residual.passed

    def test_vanishing_events_before_bell_values(self, ref2):
        # The product eigenstate of both setting-0 observables: three of the
        # four Bell-branch events have probability zero.  Their premise lines
        # come first, then the Bell value the one kept event leaves short.
        e = [effect(pair[0], 0) for pair in ref2.observables_t1]
        rho = np.kron(e[0], e[1])
        source = QuantumState(rho / np.trace(rho), (2, 2))
        report = run_full_certification(dataclasses.replace(ref2, source_state=source))
        assert report.verdict == "inconclusive"
        assert report.failures == (
            "conditioning event (0, 1) has vanishing probability",
            "conditioning event (1, 0) has vanishing probability",
            "conditioning event (1, 1) has vanishing probability",
            "Bell value at t1: 0.707106781 not within 1e-09 of 2.0",
        )
        assert report.state is None and report.frames == ()


class TestBranchStatesBuiltOnce:
    """``run_scenario`` builds every conditional state once, as one stack,
    and the chain takes the second-round supports from those states;
    rank-deficient auxiliary states make the supports proper isometries."""

    @staticmethod
    def dense_supports(strategy, _record=None):
        """Oracle: the supports of the average of the per-event marginals,
        each event's state built densely as ``V Pi rho Pi^dag V^dag / p``."""
        n = strategy.parties
        rho, v = strategy.source_state.density, strategy.interaction.matrix
        dims = strategy.interaction.dims_out
        supports = {
            (p, 1): support_of(partial_trace(rho, strategy.source_state.dims, p))
            for p in range(n)
        }
        marginals = [[] for _ in range(n)]
        for a in itertools.product((0, 1), repeat=n):
            x = bell_branch_settings(n)
            pi = kron(*[effect(strategy.observables_t1[k][x[k]], a[k]) for k in range(n)])
            projected = pi @ rho @ dagger(pi)
            sigma = v @ (projected / np.real(np.trace(projected))) @ dagger(v)
            for p in range(n):
                marginals[p].append(partial_trace(sigma, dims, p))
        for p in range(n):
            average = sum(marginals[p]) / len(marginals[p])
            supports[(p, 2)] = support_of((average + dagger(average)) / 2.0)
        return supports

    def certify_and_compare(self, strategy, monkeypatch):
        """Certify, check that the chain builds one stack and takes the
        supports from the record's own states, and compare those supports
        with the dense oracle's.  Returns the report, the report with the
        oracle's supports substituted, and the record's supports."""
        parties = strategy.parties
        seen = {"stacks": 0}
        run, supports_of, stack_of = (
            certify.run_scenario,
            certify._compute_supports,
            scenario.post_measurement_states,
        )

        def recording_run(s):
            seen["record"] = run(s)
            return seen["record"]

        def recording_supports(s, record):
            seen["read"] = record
            return supports_of(s, record)

        def counting_stack(*args):
            seen["stacks"] += 1
            return stack_of(*args)

        with monkeypatch.context() as m:
            m.setattr(certify, "run_scenario", recording_run)
            m.setattr(certify, "_compute_supports", recording_supports)
            m.setattr(scenario, "post_measurement_states", counting_stack)
            report = run_full_certification(strategy)
        # One stack for the whole chain, and the supports read the record's
        # own states, whose factors are read-only views into that stack.
        record = seen["record"]
        assert seen["stacks"] == 1 and seen["read"] is record
        factors = [s.factor[0] for s in record.conditional_states]
        assert len(factors) == 2**parties + 1
        base = factors[0].base
        assert base is not None and base.shape[1] == len(factors)
        assert all(f.base is base and not f.flags.writeable for f in factors)
        # The chain contracts the branch states from their factors: none of
        # them has formed its D x D density.
        assert all(s._density is None for s in record.conditional_states)

        supports = certify._compute_supports(strategy, record)
        dense = self.dense_supports(strategy)
        assert supports.keys() == dense.keys()
        for key, s in supports.items():
            assert s.shape == dense[key].shape
            assert max_abs(s - dense[key]) <= 1e-12

        monkeypatch.setattr(certify, "_compute_supports", self.dense_supports)
        return report, run_full_certification(strategy), supports

    @pytest.mark.parametrize("parties, aux", [(3, (2, 1, 1)), (4, (1, 2, 1, 1))])
    def test_one_state_per_event(self, parties, aux, monkeypatch):
        # The rank-one xi makes the second-round supports rank-deficient with
        # a degenerate eigenvalue, so this also checks that the isometry, and
        # hence V0, does not depend on the basis eigh picks inside it.
        strategy = scramble_strategy(reference_strategy(parties), aux, seed=5, xi_rank=1).strategy
        report, rebuilt, supports = self.certify_and_compare(strategy, monkeypatch)
        assert any(s.shape[0] != s.shape[1] for s in supports.values())
        assert report.verdict == rebuilt.verdict == "certified"
        assert max_abs(report.interaction.aux_unitary - rebuilt.interaction.aux_unitary) <= 1e-12

    def test_full_rank_aux_unitary_unchanged(self, monkeypatch):
        strategy = scramble_strategy(reference_strategy(3), (2, 1, 1), seed=5).strategy
        report, rebuilt, supports = self.certify_and_compare(strategy, monkeypatch)
        assert all(s.shape[0] == s.shape[1] for s in supports.values())
        assert report.verdict == rebuilt.verdict == "certified"
        assert max_abs(report.interaction.aux_unitary - rebuilt.interaction.aux_unitary) <= 1e-12


def _pin_cases():
    """The inputs of ``TestNoSecondRoundTables``, with their verdicts."""
    cases = [pytest.param(reference_strategy(n), "certified", id=f"reference-{n}") for n in range(2, 6)]
    for rank, verdict in ((None, "certified"), (1, "inconclusive")):
        scrambled = scramble_strategy(reference_strategy(2), (3, 2), seed=3, xi_rank=rank)
        cases.append(pytest.param(scrambled.strategy, verdict, id=f"aux-3-2-rank-{rank or 'full'}"))
    noisy = reference_strategy(4)
    noisy = dataclasses.replace(noisy, source_state=white_noise_mix(noisy.source_state, 0.9))
    return cases + [pytest.param(noisy, "inconclusive", id="reference-4-visibility-0.9")]


class TestNoSecondRoundTables:
    """The chain reads the Bell values, the side statistics and the branch
    states, never ``p2``: certifying builds the first-round table and no
    other, and no coefficient tensor."""

    @pytest.mark.parametrize("strategy, verdict", _pin_cases())
    def test_certify_builds_only_the_first_round_table(self, strategy, verdict, monkeypatch):
        def once(fn):
            calls = []

            def first_call_only(*args):
                calls.append(args)
                if len(calls) > 1:
                    raise AssertionError(f"{fn.__name__} called again: a second-round table")
                return fn(*args)

            return first_call_only

        def refused(*args):
            raise AssertionError("bell_coefficients called")

        for fn in (scenario.effect_table, scenario.outcome_table, scenario.clamp_probabilities):
            monkeypatch.setattr(scenario, fn.__name__, once(fn))
        monkeypatch.setattr(bell, "bell_coefficients", refused)
        report = run_full_certification(strategy)
        assert report.verdict == verdict, report.failures


def _edge_source(parties: int, seed: int) -> QuantumState:
    """The reference source minus ``eps |phi><phi|``: ``phi`` a seeded unit
    vector orthogonal to the GHZ vector, ``eps`` log-uniform in [1e-12,
    9e-10], so the trace and the one negative eigenvalue stay inside the
    loader's 1e-9."""
    rng = np.random.default_rng([parties, seed])
    ghz = ghz_like_vector((0,) * parties)
    phi = rng.standard_normal(2**parties) + 1j * rng.standard_normal(2**parties)
    phi -= ghz * np.vdot(ghz, phi)
    phi /= np.linalg.norm(phi)
    eps = 10.0 ** rng.uniform(-12.0, math.log10(9e-10))
    return QuantumState(np.outer(ghz, ghz.conj()) - eps * np.outer(phi, phi.conj()), (2,) * parties)


class TestPositivityEdge:
    """Sources that the loader accepts with an eigenvalue down to -9e-10:
    a first-round probability can fall below ``-ZERO_PROB``, and the range
    gate of ``p1`` then makes certify inconclusive.  No second-round table
    is built, so that gate is the only one that can fire."""

    def test_verdicts_pinned(self):
        verdicts = {}
        for parties in (3, 4):
            reference = reference_strategy(parties)
            for seed in range(20):
                source = _edge_source(parties, seed)
                report = run_full_certification(dataclasses.replace(reference, source_state=source))
                verdicts[(parties, seed)] = report.verdict
                if report.verdict != "certified":
                    assert report.verdict == "inconclusive"
                    assert len(report.failures) == 1
                    assert report.failures[0].startswith("first-round distribution for inputs ")
        # 34 of the 40 are inconclusive by the first-round gate; six certify.
        certified = {key for key, verdict in verdicts.items() if verdict == "certified"}
        assert certified == {(3, 10), (3, 17), (4, 7), (4, 12), (4, 13), (4, 18)}


class TestIndependentHaarEmbedding:
    """Round trip with embeddings chosen independently of the certifier's
    canonical frame construction: recovery holds up to the frame gauge
    (an auxiliary rotation per party and round)."""

    def test_equivalence_class_recovery(self, ref2):
        rng = np.random.default_rng(99)
        aux = (2, 2)
        targets = target_observables(2)
        ws = {}
        obs = {1: [], 2: []}
        for t in (1, 2):
            for p in range(2):
                w = random_unitary(4, rng)
                ws[(p, t)] = w
                pair = tuple(w @ kron(targets[p][j], np.eye(2)) @ dagger(w) for j in (0, 1))
                obs[t].append(pair)
        reorder = canonical_reordering(aux)
        xi = random_density(aux, rng)
        v0 = random_unitary(4, rng)
        emb1 = kron(ws[(0, 1)], ws[(1, 1)]) @ dagger(reorder)
        emb2 = kron(ws[(0, 2)], ws[(1, 2)]) @ dagger(reorder)
        rho = emb1 @ kron(ref2.source_state.density, xi.density) @ dagger(emb1)
        v = emb2 @ kron(ref2.interaction.matrix, v0) @ dagger(emb1)
        strategy = Strategy(
            source_state=QuantumState((rho + dagger(rho)) / 2, (4, 4)),
            observables_t1=tuple(obs[1]),
            observables_t2=tuple(obs[2]),
            interaction=Interaction(v, (4, 4), (4, 4)),
        )
        report = run_full_certification(strategy)
        assert report.verdict == "certified", report.failures

        # gauge per party and round: F W = I_2 ox R for some rotation R
        rotations = {}
        for frame in report.frames:
            g = frame.matrix @ ws[(frame.party, frame.time_slice)]
            r = vector_block(g, np.eye(2)[0], np.eye(2)[0])
            assert max_abs(g - kron(np.eye(2), r)) < 1e-8
            rotations[(frame.party, frame.time_slice)] = r
        expected = (
            kron(rotations[(0, 2)], rotations[(1, 2)])
            @ v0
            @ dagger(kron(rotations[(0, 1)], rotations[(1, 1)]))
        )
        assert phase_distance(report.interaction.aux_unitary, expected) < 1e-8


class TestSeededRoundTrip:
    """Property over seeds drawn from ``quantum._rng``: every scramble of the
    reference certifies, or is inconclusive when the planted auxiliary state
    is rank-deficient, and the chain recovers the planted ``xi`` and ``V0``
    (the latter up to a global phase) within 1e-12.

    Where a rank-deficient ``xi`` leaves a party a proper support, the
    chain's frame ``F`` and the planted one ``f`` differ by a gauge,
    ``F f^dag = I_2 ox g`` with ``g`` a co-isometry onto the support, and
    the chain recovers ``g xi g^dag`` and ``h V0 g^dag`` (``h`` the
    second-round gauges); on full supports ``g = I``, and ``gauges`` checks
    it."""

    SEEDS = [int(s) for s in _rng(20261019).integers(0, 2**31, size=12)]

    @staticmethod
    def gauges(frames, planted):
        """The aux gauge ``g`` of each party, checked to be ``F f^dag = I ox g``,
        and ``g = I`` where the party's support is full (a square frame)."""
        out = []
        for frame, f in zip(frames, planted):
            g = frame.matrix @ dagger(f)
            block = g.reshape(2, frame.aux_dim, 2, -1)[0, :, 0, :]
            assert max_abs(g - kron(np.eye(2), block)) < 1e-12
            if block.shape[0] == block.shape[1]:
                assert max_abs(block - np.eye(frame.aux_dim)) < 1e-12
            out.append(block)
        return kron(*out)

    @pytest.mark.parametrize(
        "aux, rank",
        [
            ((1, 2, 1), None),
            ((3, 2), None),
            ((3, 2), 2),
            ((6, 5), None),
            ((6, 5), 2),
            ((2, 2), 1),
            ((2, 1, 2), 3),
            ((3, 2), 1),
            ((6, 5), 1),
        ],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else f"rank{v}",
    )
    def test_planted_factors_recovered(self, aux, rank):
        for seed in self.SEEDS:
            scrambled = scramble_strategy(reference_strategy(len(aux)), aux, seed, xi_rank=rank)
            report = run_full_certification(scrambled.strategy)
            assert report.verdict == ("certified" if rank is None else "inconclusive"), seed
            if rank is not None:  # the rank premise is the one failure
                assert len(report.failures) == 1 and "full-rank" in report.failures[0]
            frames_t1, frames_t2 = _frames_of(report)
            g = self.gauges(frames_t1, scrambled.frames_t1)
            h = self.gauges(frames_t2, scrambled.frames_t2)
            xi = g @ scrambled.aux_state.density @ dagger(g)
            assert max_abs(report.state.aux_state - xi) < 1e-12, seed
            v0 = h @ scrambled.aux_unitary @ dagger(g)
            assert phase_distance(report.interaction.aux_unitary, v0) < 1e-12, seed

    def test_rank_one_xi_on_one_aux_party_certifies_on_its_support(self):
        # Party 2 alone carries an auxiliary space; a rank-one xi leaves it a
        # one-dimensional support in both rounds, on which xi is [1] and V0 a
        # phase.
        for seed in self.SEEDS:
            scrambled = scramble_strategy(reference_strategy(3), (1, 2, 1), seed, xi_rank=1)
            report = run_full_certification(scrambled.strategy)
            assert report.verdict == "certified", seed
            assert abs(report.state.aux_state[0, 0] - 1.0) < 1e-12
            assert abs(abs(report.interaction.aux_unitary[0, 0]) - 1.0) < 1e-12
