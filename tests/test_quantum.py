import itertools
import math

import numpy as np
import pytest

from bellcert.linalg import (
    DimensionMismatchError,
    NonHermitianError,
    dagger,
    kron,
    max_abs,
)
from bellcert.quantum import (
    Interaction,
    NonUnitaryError,
    QuantumState,
    ZeroProbabilityError,
    clamp_probabilities,
    effect_table,
    mixture_marginals,
    post_measurement_states,
    pure_state,
    random_density,
    random_unitary,
    white_noise_mix,
)
from bellcert.bell import BellExpression, quantum_value
from bellcert.reference import (
    HBAR_BASIS,
    entangling_unitary,
    ghz_like_vector,
    reference_strategy,
    target_observables,
)
from bellcert.scenario import Strategy

from conftest import I2, PHI_PLUS, X, Z, effect, identity_interaction, projective_observable


NO_INTERACTION = identity_interaction((2, 2))


@pytest.fixture
def phi_plus():
    return pure_state(PHI_PLUS, (2, 2))


class TestQuantumState:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantumState(np.eye(4), (2, 2))  # trace 4
        with pytest.raises(DimensionMismatchError):
            QuantumState(np.eye(4) / 4, (2, 3))
        with pytest.raises(ValueError):
            QuantumState(np.diag([1.5, -0.5]).astype(complex), (2,))

    def test_public_constructor_checks_every_premise(self):
        with pytest.raises(NonHermitianError, match="not Hermitian"):
            QuantumState(np.array([[0.5, 0.1], [0.0, 0.5]]), (2,))
        with pytest.raises(ValueError, match="trace"):
            QuantumState(np.diag([0.5, 0.6]), (2,))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            QuantumState(np.array([[0.5, 0.9], [0.9, 0.5]]), (2,))

    def test_non_finite_density_rejected(self):
        with pytest.raises(ValueError, match=r"density entry \(0, 0\) is not finite"):
            QuantumState(np.array([[np.nan, 0.0], [0.0, 1.0]]), (2,))
        with pytest.raises(ValueError, match=r"density entry \(1, 0\) is not finite"):
            QuantumState(np.array([[0.5, 0.0], [np.inf, 0.5]]), (2,))

    def test_derived_states_run_no_eigensolver(self, phi_plus, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolver called on a derived state")

        # The source's factor is the branches' input, computed once here;
        # reading a derived density, branch densities included, needs none.
        phi_plus.factor
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        u = Interaction(entangling_unitary(2), (2, 2), (2, 2))
        z0, eye = effect(Z, 0)[None], np.eye(2)[None]
        derived = [
            pure_state(PHI_PLUS, (2, 2)).density,
            *(s.density for s in post_measurement_states(phi_plus, [z0, eye], u)),
            *(s.density for s in post_measurement_states(phi_plus, [eye, eye], u)),
            white_noise_mix(phi_plus, 0.3).density,
            random_density((2, 3), 5).density,
        ]
        for density in derived:
            assert not density.flags.writeable
            assert np.array_equal(density, dagger(density))
        with pytest.raises(DimensionMismatchError):
            pure_state(PHI_PLUS, (2, 3))

    def test_pure_state_keeps_its_vector_as_the_factor(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolver called on a pure state")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        state = reference_strategy(6).source_state
        vectors, signs = state.factor
        v = ghz_like_vector((0,) * 6)
        assert np.array_equal(vectors[:, 0], v / np.linalg.norm(v))
        assert np.array_equal(state.density, np.outer(vectors[:, 0], np.conj(vectors[:, 0])))
        assert vectors.shape == (64, 1) and np.array_equal(signs, np.ones(1))
        assert not (vectors.flags.writeable or signs.flags.writeable)

    def test_marginal(self, phi_plus):
        assert max_abs(mixture_marginals([phi_plus])[0] - I2 / 2) < 1e-12

    def test_immutable(self, phi_plus):
        with pytest.raises(ValueError):
            phi_plus.density[0, 0] = 9.0


class TestDichotomicObservable:
    def test_non_finite_matrix_rejected(self):
        ref = reference_strategy(2)
        pairs = list(ref.observables_t2)
        pairs[1] = (np.array([[np.nan, 0.0], [0.0, 1.0]]), pairs[1][1])
        with pytest.raises(
            ValueError, match=r"t2 observable \(party 1, setting 0\) entry \(0, 0\) is not finite"
        ):
            Strategy(ref.source_state, ref.observables_t1, pairs, ref.interaction)


class TestBornProbability:
    """``effect_table``: one probability per combination of per-party
    effects, settled onto [0, 1] by ``clamp_probabilities``."""

    @staticmethod
    def _effects(o):
        return np.stack([effect(o, 0), effect(o, 1)])

    def test_perfect_correlation(self, phi_plus):
        zs = self._effects(Z)
        table = effect_table(phi_plus.density, phi_plus.dims, [zs, zs])
        assert table.shape == (2, 2)
        assert abs(table[0, 0] - 0.5) < 1e-12 and abs(table[1, 1] - 0.5) < 1e-12

    def test_forbidden_outcome(self, phi_plus):
        zs = self._effects(Z)
        table = clamp_probabilities(effect_table(phi_plus.density, phi_plus.dims, [zs, zs]))
        assert table[0, 1] == 0.0 and table[1, 0] == 0.0

    def test_clamps_within_zero_prob_onto_unit_interval(self):
        # A valid state up to rounding: eigenvalues 1 + 1e-13 and -1e-13.
        state = QuantumState(np.diag([1.0 + 1e-13, -1e-13]), (2,))
        table = effect_table(state.density, state.dims, [self._effects(Z)])
        assert table.tolist() == [1.0 + 1e-13, -1e-13]
        assert clamp_probabilities(table).tolist() == [1.0, 0.0]

    def test_tilted_setting(self, phi_plus):
        a0 = (X + Z) / math.sqrt(2.0)
        b0 = Z
        stacks = [effect(a0, 0)[None], effect(b0, 0)[None]]
        p = effect_table(phi_plus.density, phi_plus.dims, stacks).item()
        assert abs(p - (1.0 + 1.0 / math.sqrt(2.0)) / 4.0) < 1e-12

    def test_dimension_mismatch(self, phi_plus):
        with pytest.raises(DimensionMismatchError):
            effect_table(phi_plus.density, phi_plus.dims, [np.eye(3)[None], np.eye(2)[None]])

    def test_normalization_property(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            dims = (2, int(rng.integers(2, 5)))
            state = random_density(dims, rng)
            observables = [projective_observable(d, rng) for d in dims]
            stacks = [self._effects(o) for o in observables]
            table = clamp_probabilities(effect_table(state.density, state.dims, stacks))
            assert np.all(table >= 0.0)
            assert abs(table.sum() - 1.0) < 1e-10


class TestExpectation:
    """``effect_table`` with one operator per party, ``(1, d, d)`` stacks:
    the expectation value of their product."""

    def test_xx_on_phi_plus(self, phi_plus):
        assert abs(effect_table(phi_plus.density, (2, 2), [X[None], X[None]]).item() - 1.0) < 1e-12

    def test_zx_on_phi_plus(self, phi_plus):
        assert abs(effect_table(phi_plus.density, (2, 2), [Z[None], X[None]]).item()) < 1e-12

    def test_reference_pair(self, phi_plus):
        a0 = (X + Z) / math.sqrt(2.0)
        value = effect_table(phi_plus.density, (2, 2), [a0[None], Z[None]]).item()
        assert abs(value - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_consistency_with_probabilities(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dims = (int(rng.integers(2, 5)), 2)
            state = random_density(dims, rng)
            obs = [projective_observable(d, rng) for d in dims]
            stacks = [[effect(o, 0), effect(o, 1)] for o in obs]
            table = clamp_probabilities(effect_table(state.density, dims, stacks))
            signed = table[0, 0] - table[0, 1] - table[1, 0] + table[1, 1]
            expectation = effect_table(state.density, dims, [o[None] for o in obs]).item()
            assert abs(expectation - signed) < 1e-12


class TestPostMeasurement:
    """``post_measurement_states`` on one branch, ``(1, d, d)`` stacks,
    with the identity interaction."""

    def test_projects_onto_outcome(self, phi_plus):
        (out,) = post_measurement_states(phi_plus, [effect(Z, 0)[None]] * 2, NO_INTERACTION)
        target = np.zeros((4, 4), dtype=complex)
        target[0, 0] = 1.0
        assert max_abs(out.density - target) < 1e-12

    def test_reference_first_round_leaves_product_state(self, phi_plus):
        obs = target_observables(2)
        for a, b in itertools.product((0, 1), repeat=2):
            (out,) = post_measurement_states(
                phi_plus,
                [effect(obs[0][0], a)[None], effect(obs[1][0], b)[None]],
                NO_INTERACTION,
            )
            vec = kron(
                HBAR_BASIS[a].reshape(-1, 1), np.eye(2)[:, b].reshape(-1, 1)
            ).reshape(-1)
            assert max_abs(out.density - np.outer(vec, vec.conj())) < 1e-12

    def test_impossible_outcome(self):
        state = pure_state(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
        with pytest.raises(ZeroProbabilityError):
            post_measurement_states(state, [effect(Z, 1)[None]] * 2, NO_INTERACTION)

    def test_repeat_measurement_is_deterministic(self, phi_plus):
        (out,) = post_measurement_states(phi_plus, [effect(Z, 0)[None]] * 2, NO_INTERACTION)
        assert abs(effect_table([out], (2, 2), [effect(Z, 0)[None]] * 2).item() - 1.0) < 1e-10


class TestEvolve:
    """``post_measurement_states`` with identity projectors and an
    interaction: the one branch ``V rho V^dag``."""

    def test_identity(self, phi_plus):
        (out,) = post_measurement_states(
            phi_plus, [np.eye(2)[None]] * 2, Interaction(np.eye(4), (2, 2), (2, 2))
        )
        assert max_abs(out.density - phi_plus.density) < 1e-12

    def test_reference_interaction_creates_entanglement(self):
        u = Interaction(entangling_unitary(2), (2, 2), (2, 2))
        vec = kron(HBAR_BASIS[0].reshape(-1, 1), np.array([[1.0], [0.0]])).reshape(-1)
        (out,) = post_measurement_states(pure_state(vec, (2, 2)), [np.eye(2)[None]] * 2, u)
        phi = ghz_like_vector((0, 0))
        assert max_abs(out.density - np.outer(phi, phi.conj())) < 1e-12

    def test_branch_11_gives_phi_minus(self):
        u = Interaction(entangling_unitary(2), (2, 2), (2, 2))
        vec = kron(HBAR_BASIS[1].reshape(-1, 1), np.array([[0.0], [1.0]])).reshape(-1)
        (out,) = post_measurement_states(pure_state(vec, (2, 2)), [np.eye(2)[None]] * 2, u)
        phi_minus = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / math.sqrt(2.0)
        assert max_abs(out.density - np.outer(phi_minus, phi_minus.conj())) < 1e-12

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(12)
        state = random_density((2, 3), rng)
        u = Interaction(random_unitary(6, rng), (2, 3), (2, 3))
        before = np.sort(np.linalg.eigvalsh(state.density))
        (out,) = post_measurement_states(state, [np.eye(2)[None], np.eye(3)[None]], u)
        after = np.sort(np.linalg.eigvalsh(out.density))
        assert max_abs(before - after) < 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            Interaction(np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex), (2, 2), (2, 2))

    def test_non_finite_interaction_rejected(self):
        with pytest.raises(ValueError, match=r"interaction entry \(0, 0\) is not finite"):
            Interaction(np.array([[np.nan, 0.0], [0.0, 1.0]]), (2,), (2,))


class TestWhiteNoise:
    def test_visibility_one(self, phi_plus):
        assert max_abs(white_noise_mix(phi_plus, 1.0).density - phi_plus.density) < 1e-15

    def test_visibility_zero(self, phi_plus):
        assert max_abs(white_noise_mix(phi_plus, 0.0).density - np.eye(4) / 4) < 1e-15

    def test_bell_value_scales_linearly(self, phi_plus):
        expr = BellExpression(2, (0, 0))
        obs = target_observables(2)
        mixed = white_noise_mix(phi_plus, 0.9)
        assert abs(quantum_value(mixed, obs, expr) - 1.8) < 1e-12

    def test_range_check(self, phi_plus):
        with pytest.raises(ValueError):
            white_noise_mix(phi_plus, 1.2)


class TestRandomUnitary:
    def test_scalar_case(self):
        u = random_unitary(1, 3)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(random_unitary(4, 42), random_unitary(4, 42))

    def test_unitarity(self):
        for seed in range(5):
            u = random_unitary(6, seed)
            assert max_abs(dagger(u) @ u - np.eye(6)) < 1e-10
