import math

import numpy as np
import pytest

from bellcert.linalg import (
    DimensionMismatchError,
    NonHermitianError,
    dagger,
    herm_eig,
    herm_part,
    kron,
    max_abs,
)
from bellcert.certify import _aux_block
from bellcert.quantum import QuantumState, mixture_marginals, random_density, random_unitary
from bellcert.reference import HBAR_BASIS, entangling_unitary, ghz_like_vector

from conftest import I2, PHI_PLUS, X, Z, fix_global_phase, partial_trace, permute_subsystems


def sign(h):
    return herm_eig(h).sign()


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal(self):
        assert np.array_equal(kron(Z, Z), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))

    def test_permutation(self):
        assert np.array_equal(kron(X, X), np.fliplr(np.eye(4)).astype(complex))

    def test_associativity_exact_on_representable_entries(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = (
                (rng.integers(-3, 4, (2, 2)) + 1j * rng.integers(-3, 4, (2, 2))).astype(complex)
                for _ in range(3)
            )
            assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    def test_dimensions_multiply(self):
        assert kron(np.ones((2, 3)), np.ones((4, 5))).shape == (8, 15)

    @staticmethod
    def _numpy_chain(*ops):
        out = np.asarray(ops[0], dtype=complex)
        for op in ops[1:]:
            out = np.kron(out, np.asarray(op, dtype=complex))
        return out

    @pytest.mark.parametrize(
        "shapes",
        [
            [(2, 2), (3, 3)],
            [(2, 3), (4, 1)],
            [(1, 1), (3, 2)],
            [(3, 2), (1, 1)],
            [(1, 1), (1, 1)],
            [(2, 2), (3, 1), (1, 4)],
            [(2, 3), (2, 2), (3, 2), (2, 1)],
        ],
    )
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_bit_identical_to_numpy(self, shapes, kind):
        rng = np.random.default_rng(len(shapes))
        ops = [rng.normal(size=s) for s in shapes]
        if kind == "complex":
            ops = [op + 1j * rng.normal(size=op.shape) for op in ops]
        got = kron(*ops)
        assert got.dtype == complex
        assert np.array_equal(got, self._numpy_chain(*ops))

    def test_columns(self):
        # (d, 1) columns, the shape of kets
        a, b = HBAR_BASIS[1].reshape(-1, 1), np.array([[0.0], [1.0]])
        c = ghz_like_vector((1, 0)).reshape(-1, 1)
        got = kron(a, b, c)
        assert got.shape == (16, 1)
        assert np.array_equal(got, self._numpy_chain(a, b, c))

    @pytest.mark.parametrize(
        "ops",
        [(np.ones(2), I2), (I2, np.ones(2)), (np.ones((2, 2, 2)), I2), (np.ones(3),)],
        ids=["1-D first", "1-D second", "3-D", "lone 1-D"],
    )
    def test_non_matrix_operand_raises(self, ops):
        with pytest.raises(DimensionMismatchError):
            kron(*ops)


class TestPartialTrace:
    """One-party reduced states, from the factors (``mixture_marginals``),
    against the dense ``einsum`` oracle."""

    def test_maximally_entangled_reduction(self):
        phi_plus = QuantumState(np.outer(PHI_PLUS, PHI_PLUS.conj()), (2, 2))
        assert max_abs(mixture_marginals([phi_plus])[0] - I2 / 2) < 1e-12

    def test_product_factorization(self):
        a, b = random_density((3,), 1), random_density((4,), 2)
        product = QuantumState(kron(a.density, b.density), (3, 4))
        first, second = mixture_marginals([product])
        assert max_abs(first - a.density) < 1e-12
        assert max_abs(second - b.density) < 1e-12

    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        out = mixture_marginals([QuantumState(rho, (2, 2))])[1]
        assert max_abs(out - np.diag([1.0, 0.0])) < 1e-15

    def test_trace_preserved_up_to_dim_32(self):
        rng = np.random.default_rng(2)
        for dims in ((2, 2), (2, 3, 4), (2, 4, 4), (2, 2, 2, 2, 2)):
            states = [random_density(dims, rng), random_density(dims, rng, rank=2)]
            mixture = (states[0].density + states[1].density) / 2
            for keep, marginal in enumerate(mixture_marginals(states)):
                assert abs(np.trace(marginal) - 1.0) < 1e-12
                assert max_abs(marginal - partial_trace(mixture, dims, keep)) < 1e-12


class TestHermPart:
    def test_the_mean_with_the_adjoint_to_the_bit(self):
        rng = np.random.default_rng(13)
        for scale in (1e-300, 1.0, 1e300):
            a = scale * (rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
            assert np.array_equal(herm_part(a), (a + dagger(a)) / 2.0)

    def test_largest_finite_entries_stay_finite(self):
        a = np.array([[1e308, 1e308], [-1e308, 1e308j]])
        h = herm_part(a)
        assert np.all(np.isfinite(h)) and np.array_equal(h, dagger(h))
        assert h[0, 0] == 1e308 and h[0, 1] == 0.0 and h[1, 1] == 0.0


class TestHermEig:
    def test_pauli_z(self):
        eig = herm_eig(Z)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_hadamard_direction_convention(self):
        eig = herm_eig((X + Z) / math.sqrt(2.0))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        assert max_abs(eig.eigenvectors[:, 1] - np.array([c, s])) < 1e-12
        # the -1 eigenvector is the second basis direction up to the sign
        # convention (first nonzero component real positive)
        assert max_abs(eig.eigenvectors[:, 0] - np.array([s, -c])) < 1e-12

    def test_reference_bell_operator_top_eigenvalue(self):
        op = kron(X, X) + kron(Z, Z)
        eig = herm_eig(op)
        assert abs(eig.eigenvalues[-1] - 2.0) < 1e-12

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        for d in (2, 5, 8):
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = h + dagger(h)
            eig = herm_eig(h)
            v = eig.eigenvectors
            assert max_abs((v * eig.eigenvalues) @ dagger(v) - h) < 1e-9
            overlap = dagger(eig.eigenvectors) @ eig.eigenvectors
            assert max_abs(overlap - np.eye(d)) < 1e-9
            assert np.all(np.diff(eig.eigenvalues) >= -1e-12)

    def test_phase_convention(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = h + dagger(h)
        vecs = herm_eig(h).eigenvectors
        for k in range(6):
            first = vecs[np.flatnonzero(np.abs(vecs[:, k]) > 1e-12)[0], k]
            assert first.real > 0 and abs(first.imag) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("d", [1, 2, 3, 81, 144])
    def test_phase_fix_bit_identical_to_per_column_loop(self, d):
        rng = np.random.default_rng(5 + d)
        mats = [np.diag([1.0, 0.0, 0.0, 2.0]).astype(complex)]
        for _ in range(3):
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mats.append(h + dagger(h))
        for h in mats:
            _, vecs = np.linalg.eigh((h + dagger(h)) / 2.0)
            loop = np.column_stack([fix_global_phase(vecs[:, k]) for k in range(vecs.shape[1])])
            assert np.array_equal(herm_eig(h).eigenvectors, loop)


class TestStackedHermEig:
    """``herm_eig`` of a ``(g, d, d)`` stack: one ``eigh``, each matrix with
    the bits it gets on its own, and the hermiticity gate per matrix."""

    @pytest.mark.parametrize("d", [1, 2, 3, 12, 81])
    def test_stack_matches_each_matrix(self, d):
        rng = np.random.default_rng(d)
        h = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
        stack = np.concatenate([h + dagger(h), np.diag([1.0, 0.0, 0.0, 2.0] * d)[None, :d, :d]])
        eig = herm_eig(stack)
        for i, m in enumerate(stack):
            alone = herm_eig(m)
            assert np.array_equal(eig.eigenvalues[i], alone.eigenvalues)
            assert np.array_equal(eig.eigenvectors[i], alone.eigenvectors)

    def test_non_hermitian_entry_gives_the_same_error(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        stack = h + dagger(h)
        stack[1, 0, 2] += 3e-6
        with pytest.raises(NonHermitianError) as alone:
            herm_eig(stack[1])
        with pytest.raises(NonHermitianError) as stacked:
            herm_eig(stack)
        assert str(stacked.value) == str(alone.value)
        assert "(defect 3.000e-06)" in str(alone.value)


class TestSignOperator:
    """``EigenDecomposition.sign``, the package's one matrix sign."""

    def test_pauli_z_fixed_point(self):
        assert max_abs(sign(Z) - Z) < 1e-12

    def test_diagonal(self):
        assert max_abs(sign(np.diag([3.0, -2.0])) - np.diag([1.0, -1.0])) < 1e-12

    def test_scale_invariance(self):
        assert max_abs(sign(2.0 * X) - X) < 1e-12

    def test_idempotent_on_unitary_observables(self):
        rng = np.random.default_rng(5)
        for d in (2, 4, 6):
            u = random_unitary(d, rng)
            o = u @ np.diag([1.0] * (d // 2) + [-1.0] * (d - d // 2)).astype(complex) @ dagger(u)
            o = (o + dagger(o)) / 2
            assert max_abs(sign(o) - o) < 1e-9
            assert max_abs(sign(o) @ sign(o) - np.eye(d)) < 1e-9

    def test_near_singular_rejected(self):
        # No eigenvalue is rejected as too close to zero: a tiny positive one
        # counts as +1, a tiny negative one as -1, and zero as +1.
        assert np.array_equal(sign(np.diag([1.0, 1e-13])), np.eye(2))
        assert np.array_equal(sign(np.diag([1e-13, -1e-13])), np.diag([1.0, -1.0]))
        assert np.array_equal(sign(np.diag([0.0, -1.0])), np.diag([1.0, -1.0]))


def operator_block(w, out_vec, in_vec):
    """``(<out| ox I) w (|in> ox I)`` for unit vectors, through the
    certificates' split: ``certify._aux_block`` with ``q = |out><in|``."""
    return _aux_block(w, np.outer(out_vec, np.conj(in_vec)))


class TestOperatorBlock:
    def test_unitary_maps_basis_to_target(self):
        u = entangling_unitary(2)
        in_vec = kron(HBAR_BASIS[0].reshape(-1, 1), np.array([[1.0], [0.0]])).reshape(-1)
        out = operator_block(u, ghz_like_vector((0, 0)), in_vec)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 1.0) < 1e-12

    def test_computational_output_amplitude(self):
        u = entangling_unitary(2)
        in_vec = kron(HBAR_BASIS[0].reshape(-1, 1), np.array([[1.0], [0.0]])).reshape(-1)
        e00 = np.eye(4)[0]
        out = operator_block(u, e00, in_vec)
        assert abs(out[0, 0] - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_rotated_output_amplitude(self):
        # in the (X+Z)/sqrt2 eigenbasis on the first slot, the leading block
        # carries cos(pi/8) / sqrt(2)
        u = entangling_unitary(2)
        in_vec = kron(HBAR_BASIS[0].reshape(-1, 1), np.array([[1.0], [0.0]])).reshape(-1)
        out_vec = kron(HBAR_BASIS[0].reshape(-1, 1), np.array([[1.0], [0.0]])).reshape(-1)
        out = operator_block(u, out_vec, in_vec)
        assert abs(math.sqrt(2.0) * out[0, 0] - math.cos(math.pi / 8.0)) < 1e-12

    def test_auxiliary_block_recovery(self):
        rng = np.random.default_rng(6)
        v0 = random_unitary(2, rng)
        w = kron(entangling_unitary(2), v0)
        in_vec = kron(HBAR_BASIS[0].reshape(-1, 1), np.array([[1.0], [0.0]])).reshape(-1)
        out = operator_block(w, np.eye(4)[0], in_vec)
        assert max_abs(out - v0 / math.sqrt(2.0)) < 1e-12


class TestPermuteSubsystems:
    def test_swap_matches_kron_order(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        swapped = permute_subsystems(kron(a, b), (1, 0), (2, 3))
        assert max_abs(swapped - kron(b, a)) < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        perm = (2, 0, 1)
        inverse = (1, 2, 0)
        once = permute_subsystems(m, perm, (2, 2, 3))
        back = permute_subsystems(once, inverse, tuple((2, 2, 3)[p] for p in perm))
        assert max_abs(back - m) < 1e-12


def test_fix_global_phase_matrix():
    m = np.array([[0.0, -2.0j], [1.0, 0.0]])
    fixed = fix_global_phase(m)
    assert abs(fixed[0, 1] - 2.0) < 1e-15
