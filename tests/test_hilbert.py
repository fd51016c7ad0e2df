"""The trace distance, and the labeled-factor oracles in
``tests/reference.py``: factorizations, density matrices, states, bases and
partial operations."""

import numpy as np
import pytest

from gaplab.hilbert import trace_distance
from reference import (
    DensityMatrix,
    OrthonormalBasis,
    SpaceFactorization,
    StateVector,
    maximally_mixed,
    partial_inner_product,
    partial_trace,
    pure_density_matrix,
    purity,
    single_factor,
    state_tensor_product,
    tensor_product,
    without,
)


def random_state(rng, fact):
    z = rng.standard_normal(fact.total_dim) + 1j * rng.standard_normal(fact.total_dim)
    return StateVector(z / np.linalg.norm(z), fact, normalized=True)


def random_density(rng, fact):
    d = fact.total_dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace().real, fact)


class TestSpaceFactorization:
    def test_of_total_dim_axis(self):
        fact = SpaceFactorization.of(("S", 2), ("Y", 3), ("s", 4))
        assert fact.total_dim == 24
        assert fact.axis("Y") == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpaceFactorization(("A", "A"), (2, 2))

    def test_unknown_label(self):
        fact = single_factor("S", 2)
        with pytest.raises(KeyError):
            fact.axis("B")

    def test_without_preserves_order(self):
        fact = SpaceFactorization.of(("S", 2), ("Y", 3), ("s", 4))
        rest = without(fact, ("Y",))
        assert rest.labels == ("S", "s")
        assert rest.dims == (2, 4)
        with pytest.raises(ValueError):
            without(fact, ("S", "Y", "s"))


class TestStateVector:
    def test_tensor_flat_index_agreement(self):
        # tensor()[i, j, k] must be the amplitude at the row-major flat index.
        rng = np.random.default_rng(7)
        fact = SpaceFactorization.of(("A", 2), ("B", 3), ("C", 4))
        psi = random_state(rng, fact)
        t = psi.tensor()
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    flat = np.ravel_multi_index((i, j, k), (2, 3, 4))
                    assert t[i, j, k] == psi.amplitudes[flat]

    def test_normalized_flag_checked(self):
        fact = single_factor("S", 2)
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([1.0, 1.0]), fact, normalized=True)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(3), single_factor("S", 2))

    def test_normalized_copy_of_zero(self):
        sv = StateVector(np.zeros(2), single_factor("S", 2))
        with pytest.raises(ValueError):
            sv.normalized_copy()


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, single_factor("S", 2))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex), single_factor("S", 2))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(m, single_factor("S", 2), check_psd=True)

    def test_eigensystem_reconstructs(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, single_factor("S", 4))
        w, v = rho.eigensystem()
        assert np.allclose((v * w) @ v.conj().T, rho.entries, atol=1e-12)


class TestTensorProduct:
    def test_state_ordering_matches_flat_convention(self):
        a = StateVector(np.array([1.0, 2.0j]), single_factor("A", 2))
        b = StateVector(np.array([3.0, 0.0, 1.0]), single_factor("B", 3))
        prod = state_tensor_product(a, b)
        assert prod.factorization.labels == ("A", "B")
        t = prod.tensor()
        for i in range(2):
            for j in range(3):
                assert t[i, j] == a.amplitudes[i] * b.amplitudes[j]

    def test_density_product_factors(self):
        rng = np.random.default_rng(5)
        ra = random_density(rng, single_factor("A", 2))
        rb = random_density(rng, single_factor("B", 3))
        rho = tensor_product(ra, rb)
        back = partial_trace(rho, "B")
        assert trace_distance(back.entries, ra.entries) < 1e-12


class TestPartialTrace:
    def test_index_sum_oracle(self):
        # Entrywise definition: (tr_B rho)[i i'] = sum_j rho[(i j), (i' j)].
        rng = np.random.default_rng(11)
        fact = SpaceFactorization.of(("A", 3), ("B", 4))
        rho = random_density(rng, fact)
        red = partial_trace(rho, "B")
        expect = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for ip in range(3):
                for j in range(4):
                    expect[i, ip] += rho.entries[i * 4 + j, ip * 4 + j]
        assert np.max(np.abs(red.entries - expect)) < 1e-12

    def test_first_factor_index_sum_oracle(self):
        rng = np.random.default_rng(13)
        fact = SpaceFactorization.of(("A", 3), ("B", 4))
        rho = random_density(rng, fact)
        red = partial_trace(rho, "A")
        expect = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            for jp in range(4):
                for i in range(3):
                    expect[j, jp] += rho.entries[i * 4 + j, i * 4 + jp]
        assert np.max(np.abs(red.entries - expect)) < 1e-12

    def test_multi_factor_trace(self):
        rng = np.random.default_rng(17)
        fact = SpaceFactorization.of(("S", 2), ("Y", 3), ("s", 2))
        rho = random_density(rng, fact)
        step = partial_trace(partial_trace(rho, "s"), "Y")
        joint = partial_trace(rho, ("Y", "s"))
        assert trace_distance(step.entries, joint.entries) < 1e-12
        assert joint.factorization.labels == ("S",)

    def test_trace_preserved(self):
        rng = np.random.default_rng(19)
        rho = random_density(rng, SpaceFactorization.of(("A", 2), ("B", 5)))
        red = partial_trace(rho, "B")
        assert abs(red.entries.trace() - 1.0) < 1e-12


class TestPartialInnerProduct:
    def test_slice_sum_oracle(self):
        # <bra| psi> on the middle factor: explicit coordinate contraction.
        rng = np.random.default_rng(23)
        fact = SpaceFactorization.of(("A", 2), ("B", 3), ("C", 4))
        psi = random_state(rng, fact)
        bra = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = partial_inner_product(bra, psi, "B")
        assert out.factorization.labels == ("A", "C")
        t = psi.tensor()
        expect = np.zeros((2, 4), dtype=complex)
        for i in range(2):
            for k in range(4):
                for j in range(3):
                    expect[i, k] += np.conj(bra[j]) * t[i, j, k]
        assert np.max(np.abs(out.amplitudes - expect.reshape(-1))) < 1e-12

    def test_antilinear_in_bra(self):
        rng = np.random.default_rng(29)
        fact = SpaceFactorization.of(("A", 2), ("B", 3))
        psi = random_state(rng, fact)
        bra = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        scaled = partial_inner_product(2j * bra, psi, "B")
        base = partial_inner_product(bra, psi, "B")
        assert np.allclose(scaled.amplitudes, -2j * base.amplitudes)

    def test_weight_is_squared_norm(self):
        # Summing |<e_j|psi>|^2 over a basis recovers the squared norm.
        rng = np.random.default_rng(31)
        fact = SpaceFactorization.of(("A", 4), ("B", 3))
        psi = random_state(rng, fact)
        total = sum(
            partial_inner_product(np.eye(3)[j], psi, "B").norm() ** 2
            for j in range(3)
        )
        assert abs(total - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        psi = StateVector(np.zeros(6), SpaceFactorization.of(("A", 2), ("B", 3)))
        with pytest.raises(ValueError, match="shape"):
            partial_inner_product(np.zeros(2), psi, "B")


class TestMetrics:
    def test_trace_distance_hand_value(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = maximally_mixed(single_factor("S", 2)).entries
        assert abs(trace_distance(a, b) - 0.2) < 1e-12

    def test_trace_distance_basic_properties(self):
        rng = np.random.default_rng(37)
        fact = single_factor("S", 3)
        a = random_density(rng, fact).entries
        b = random_density(rng, fact).entries
        assert trace_distance(a, a) < 1e-14
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-14
        assert 0.0 <= trace_distance(a, b) <= 1.0 + 1e-12

    def test_purity_hand_value(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), single_factor("S", 2))
        assert abs(purity(rho) - 0.58) < 1e-12

    def test_purity_extremes(self):
        fact = single_factor("S", 5)
        assert abs(purity(maximally_mixed(fact)) - 0.2) < 1e-12
        psi = StateVector(np.eye(5)[0].astype(complex), fact, normalized=True)
        assert abs(purity(pure_density_matrix(psi)) - 1.0) < 1e-12


class TestOrthonormalBasis:
    def test_rejects_non_orthonormal(self):
        v = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            OrthonormalBasis(v, "Y")

    def test_computational(self):
        b = OrthonormalBasis.computational(3, "Y")
        assert b.space_dim == 3
        assert b.num_vectors == 3
        assert np.allclose(b.column(1), [0, 1, 0])
