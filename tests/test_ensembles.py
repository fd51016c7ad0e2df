"""Samplers for the uniform, Gaussian, adjusted, and projected ensembles."""

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

import gaplab.ensembles as ens
from gaplab.ensembles import (
    AcceptanceStarvationError,
    GAP_SAMPLERS,
    RandomStream,
    RejectionOracleResult,
    complex_normals,
    empirical_covariance,
    rejection_oracle_ga,
    sample_complex_gaussian,
    sample_d,
    sample_g,
    sample_ga,
    sample_gap,
    sample_gap_via_dap,
    sample_gap_via_purification,
    sample_haar_unitary,
    sample_reduced_grams,
    sample_uniform_sphere,
)
from gaplab.experiments import NAMED_RHOS, named_rho
from gaplab.hilbert import trace_distance
from reference import (
    StateVector,
    partial_inner_product,
    partial_trace,
    pure_density_matrix,
    sample_haar_onb,
    single_factor,
)


def diag_rho(probs):
    return np.diag(np.asarray(probs, dtype=float)).astype(complex)


def random_rho(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / m.trace().real


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(42, 3).generator().standard_normal(8)
        b = RandomStream(42, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomStream(42, 0).generator().standard_normal(8)
        b = RandomStream(42, 1).generator().standard_normal(8)
        c = RandomStream(43, 0).generator().standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(0, -2)


class TestComplexGaussian:
    def test_variance_per_coordinate(self):
        z = sample_complex_gaussian(
            RandomStream(1), [0.5, 2.0, 0.0], size=200_000
        )
        second = np.mean(np.abs(z) ** 2, axis=0)
        assert abs(second[0] - 0.5) < 0.01
        assert abs(second[1] - 2.0) < 0.04
        assert np.all(z[:, 2] == 0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            sample_complex_gaussian(RandomStream(1), [-1.0], size=1)


class TestComplexNormals:
    """The in-place draw reproduces the two-temporary idiom it replaces."""

    @pytest.mark.parametrize(
        "shape, scale",
        [
            ((7,), None),
            ((7,), np.linspace(0.1, 2.0, 7)),
            ((5, 3, 4), None),
            ((5, 3, 4), np.linspace(0.1, 2.0, 4)),
            (9, 0.5),
        ],
    )
    def test_bits_and_generator_state_match(self, shape, scale):
        rng_a = RandomStream(3).generator()
        rng_b = RandomStream(3).generator()
        a = rng_a.standard_normal(shape) + 1j * rng_a.standard_normal(shape)
        if scale is None:
            b = complex_normals(rng_b, shape)
        else:
            a = a * scale
            b = complex_normals(rng_b, shape, scale)
        assert b.dtype == np.complex128 and b.shape == a.shape
        assert np.array_equal(a.view(np.float64), b.view(np.float64))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestUniformSphere:
    def test_norms_and_single(self):
        batch = sample_uniform_sphere(RandomStream(2), 5, size=100)
        assert np.max(np.abs(np.linalg.norm(batch, axis=1) - 1.0)) < 1e-12
        one = sample_uniform_sphere(RandomStream(2), 5, size=1)
        assert one.shape == (1, 5)
        assert abs(np.linalg.norm(one) - 1.0) < 1e-12

    def test_dim2_marginal_is_uniform(self):
        # In dim 2 the squared overlap with any fixed vector is Uniform(0,1).
        batch = sample_uniform_sphere(RandomStream(3), 2, size=10_000)
        x = np.abs(batch[:, 0]) ** 2
        assert kstest(x, "uniform").pvalue > 1e-4

    def test_covariance_is_maximally_mixed(self):
        batch = sample_uniform_sphere(RandomStream(4), 4, size=50_000)
        cov = empirical_covariance(batch)
        assert np.max(np.abs(cov - np.eye(4) / 4)) < 0.01


class TestGaussianEnsemble:
    def test_covariance_matches_rho(self):
        rho = random_rho(np.random.default_rng(9), 3)
        z = sample_g(RandomStream(5), rho, size=100_000)
        cov = empirical_covariance(z)
        assert trace_distance(cov, rho) < 3.0 / np.sqrt(100_000) * 2

    def test_mean_squared_norm_is_one(self):
        rho = diag_rho([0.6, 0.3, 0.1])
        z = sample_g(RandomStream(6), rho, size=100_000)
        assert abs(np.mean(np.abs(z) ** 2) * 3 - 1.0) < 0.01

    def test_single_draw_state(self):
        rho = diag_rho([0.5, 0.5])
        z = sample_g(RandomStream(7), rho, size=1)
        assert z.shape == (1, 2) and z.dtype == np.complex128


class TestAdjustedEnsemble:
    def test_mean_squared_norm_is_one_plus_purity(self):
        # The squared-norm bias shifts E||psi||^2 from 1 to 1 + tr(rho^2).
        rho = diag_rho([0.7, 0.2, 0.1])
        z = sample_ga(RandomStream(8), rho, size=200_000)
        norm2 = np.sum(np.abs(z) ** 2, axis=1)
        expect = 1.0 + float(np.sum(np.diag(rho).real ** 2))
        assert abs(np.mean(norm2) - expect) < 0.01

    def test_matches_rejection_oracle_in_law(self):
        rho = diag_rho([0.75, 0.25])
        z = sample_ga(RandomStream(9), rho, size=8_000)
        oracle = rejection_oracle_ga(RandomStream(10), rho, cap=50.0, size=8_000)
        # Compare both coordinate masses and the squared norm.
        for j in range(2):
            p = ks_2samp(
                np.abs(z[:, j]) ** 2,
                np.abs(oracle.samples[:, j]) ** 2,
                method="asymp",
            ).pvalue
            assert p > 1e-4
        p = ks_2samp(
            np.sum(np.abs(z) ** 2, axis=1),
            np.sum(np.abs(oracle.samples) ** 2, axis=1),
            method="asymp",
        ).pvalue
        assert p > 1e-4


class TestGapSamplers:
    @pytest.mark.parametrize("tag", sorted(GAP_SAMPLERS))
    def test_covariance_identity(self, tag):
        rho = diag_rho([0.5, 0.3, 0.2])
        batch = GAP_SAMPLERS[tag](RandomStream(11), rho, size=20_000)
        cov = empirical_covariance(batch)
        assert trace_distance(cov, rho) < 0.02

    def test_mixture_vs_dap_marginals(self):
        rho = diag_rho([0.85, 0.1, 0.05])
        a = sample_gap(RandomStream(12), rho, size=6_000)
        b = sample_gap_via_dap(RandomStream(13), rho, size=6_000)
        for j in range(3):
            p = ks_2samp(
                np.abs(a[:, j]) ** 2,
                np.abs(b[:, j]) ** 2,
                method="asymp",
            ).pvalue
            assert p > 1e-4

    def test_mixture_vs_purification_marginals(self):
        rho = diag_rho([0.85, 0.1, 0.05])
        a = sample_gap(RandomStream(14), rho, size=6_000)
        b = sample_gap_via_purification(RandomStream(15), rho, size=6_000)
        for j in range(3):
            p = ks_2samp(
                np.abs(a[:, j]) ** 2,
                np.abs(b[:, j]) ** 2,
                method="asymp",
            ).pvalue
            assert p > 1e-4

    def test_pure_state_is_deterministic(self):
        # GAP of a rank-1 density matrix is a point mass up to global phase.
        rho = diag_rho([1.0, 0.0])
        batch = sample_gap(RandomStream(16), rho, size=64)
        assert np.max(np.abs(np.abs(batch[:, 0]) - 1.0)) < 1e-12
        assert np.max(np.abs(batch[:, 1])) < 1e-12

    @pytest.mark.parametrize(
        "sampler", [sample_gap_via_dap, sample_gap_via_purification]
    )
    def test_rejection_samplers_independent_of_block_size(
        self, sampler, monkeypatch
    ):
        # The sphere proposals are normalized, weighted and accepted in row
        # blocks; any block size gives the same rows, bit for bit, and
        # leaves the generator where one block would.
        rho = diag_rho([0.6, 0.3, 0.1])
        rng_one = RandomStream(18).generator()
        one = sampler(rng_one, rho, size=3_000)
        monkeypatch.setattr(ens, "_BLOCK_BYTES", 16 * 3 * 100)
        rng_many = RandomStream(18).generator()
        many = sampler(rng_many, rho, size=3_000)
        assert np.array_equal(many.view(np.float64), one.view(np.float64))
        assert rng_many.bit_generator.state == rng_one.bit_generator.state

    @pytest.mark.parametrize("tag", sorted(GAP_SAMPLERS))
    def test_single_draw_is_batch_of_one(self, tag):
        sampler = GAP_SAMPLERS[tag]
        rho = random_rho(np.random.default_rng(17), 3)
        for s in range(5):
            batch = sampler(RandomStream(s), rho, size=1)
            assert batch.shape == (1, 3) and batch.dtype == np.complex128
            assert abs(np.linalg.norm(batch) - 1.0) < 1e-12

    @pytest.mark.parametrize("rho_name", [*NAMED_RHOS, "random"])
    @pytest.mark.parametrize("tag", sorted(GAP_SAMPLERS))
    def test_rows_are_unit_vectors(self, tag, rho_name):
        if rho_name == "random":
            rho = random_rho(np.random.default_rng(24), 3)
        else:
            rho = named_rho(rho_name)
        d = rho.shape[0]
        for size in (1, 1000):
            rows = GAP_SAMPLERS[tag](RandomStream(size, d), rho, size=size)
            assert rows.shape == (size, d) and rows.dtype == np.complex128
            assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 1e-12


def oracle_rows(stream, rho, size):
    return rejection_oracle_ga(stream, rho, size=size).samples


class TestReadOnlyRho:
    # gap_distribution's threads share one rho: a sampler only reads it.
    @pytest.mark.parametrize(
        "sampler",
        [
            sample_g,
            sample_ga,
            sample_gap,
            sample_d,
            sample_gap_via_dap,
            sample_gap_via_purification,
            oracle_rows,
        ],
        ids=lambda f: f.__name__,
    )
    def test_accepts_read_only_rho(self, sampler):
        rho = random_rho(np.random.default_rng(25), 3)
        frozen = rho.copy()
        frozen.setflags(write=False)
        got = sampler(RandomStream(26), frozen, size=200)
        assert np.array_equal(got, sampler(RandomStream(26), rho, size=200))


class TestPushforwardEnsemble:
    def test_rank_one_pushforward_concentrates(self):
        z = sample_d(RandomStream(18), diag_rho([1.0, 0.0]), size=500)
        assert np.max(np.abs(z[:, 1])) == 0.0
        # Squared norms are 2|u_0|^2 for uniform sphere u, so mean 1.
        norm2 = np.abs(z[:, 0]) ** 2
        assert abs(norm2.mean() - 1.0) < 0.1

    def test_covariance_matches_rho(self):
        rho = diag_rho([0.4, 0.35, 0.25])
        z = sample_d(RandomStream(19), rho, size=100_000)
        cov = empirical_covariance(z)
        assert trace_distance(cov, rho) < 0.02


PURIFIER_LABEL = "_purifier"


def purification_of(rho: np.ndarray) -> StateVector:
    """A canonical purification of rho on rho's space (factor ``S``) joined
    with an ancilla.

    Uses sqrt(p_j) |v_j> (x) |e_j> over the eigensystem of rho, with the
    ancilla in its computational basis under the label ``_purifier``: the
    state that ``sample_gap_via_purification`` conditions, written out.
    """
    p, vecs = ens._eigensystem(rho)
    d = rho.shape[0]
    amps = (vecs * np.sqrt(p)).reshape(-1)  # sum_j sqrt(p_j) v_j (x) e_j
    fact = single_factor("S", d).joined_with(single_factor(PURIFIER_LABEL, d))
    return StateVector(amps, fact, normalized=True)


class TestPurification:
    def test_reduces_to_rho(self):
        rho = random_rho(np.random.default_rng(20), 4)
        phi = purification_of(rho)
        assert abs(phi.norm() - 1.0) < 1e-12
        reduced = partial_trace(pure_density_matrix(phi), PURIFIER_LABEL)
        assert trace_distance(reduced.entries, rho) < 1e-12

    def test_sampler_conditions_the_purification(self):
        # Replay the sampler's ancilla draws and condition purification_of
        # on each through the generic partial inner product.
        rho = random_rho(np.random.default_rng(21), 3)
        p, _ = ens._eigensystem(rho)
        draws = sample_gap_via_purification(RandomStream(22), rho, size=4)
        ancillas = ens._accept_biased_sphere(
            RandomStream(22).generator(),
            lambda u: (np.abs(u) ** 2) @ p,
            3,
            float(p.max()),
            4,
        )
        phi = purification_of(rho)
        for row, a in zip(draws, ancillas):
            v = partial_inner_product(a, phi, PURIFIER_LABEL).normalized_copy()
            assert np.allclose(row, v.amplitudes, atol=1e-12)


class TestRejectionOracle:
    def test_acceptance_rate_near_inverse_cap(self):
        rho = diag_rho([0.5, 0.3, 0.2])
        res = rejection_oracle_ga(RandomStream(21), rho, cap=50.0, size=2_000)
        assert 0.8 / 50.0 < res.acceptance_rate < 1.2 / 50.0
        assert res.proposals > 0
        assert 0.0 <= res.tail_fraction < 0.01

    def test_covariance_of_projection(self):
        rho = diag_rho([0.5, 0.3, 0.2])
        res = rejection_oracle_ga(RandomStream(22), rho, cap=50.0, size=10_000)
        rows = res.samples / np.linalg.norm(res.samples, axis=1, keepdims=True)
        assert trace_distance(empirical_covariance(rows), rho) < 0.03

    def test_cap_floor(self):
        with pytest.raises(ValueError, match="cap"):
            rejection_oracle_ga(RandomStream(23), diag_rho([1.0]), cap=10.0)

    def test_starvation_guard(self, monkeypatch):
        # Shrink every proposal so the acceptance weight collapses; the
        # guard must fire rather than loop forever.
        real = ens._normal_blocks

        def tiny(rng, n, d, scale=1.0):
            return [1e-6 * block for block in real(rng, n, d, scale)]

        monkeypatch.setattr(ens, "_normal_blocks", tiny)
        with pytest.raises(AcceptanceStarvationError):
            rejection_oracle_ga(RandomStream(24), diag_rho([0.5, 0.5]), size=10)

    def test_proposal_blocks_hold_one_batch(self, monkeypatch):
        # Row blocks of any size hold the draws of one batch, bit for bit,
        # and leave the generator where one batch would.
        p = np.array([0.5, 0.3, 0.2])
        rng_a = RandomStream(25).generator()
        rng_b = RandomStream(25).generator()
        whole = sample_complex_gaussian(rng_a, p, size=1_000)
        monkeypatch.setattr(ens, "_BLOCK_BYTES", 16 * p.size * 7)
        blocks = ens._normal_blocks(rng_b, 1_000, p.size, np.sqrt(p / 2.0))
        assert [len(b) for b in blocks] == [7] * 142 + [6]
        joined = np.concatenate(blocks)
        assert np.array_equal(joined.view(np.float64), whole.view(np.float64))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_result_independent_of_block_size(self, monkeypatch):
        rho = diag_rho([0.5, 0.3, 0.2])
        one = rejection_oracle_ga(RandomStream(26), rho, cap=50.0, size=500)
        monkeypatch.setattr(ens, "_BLOCK_BYTES", 16 * 3 * 1_000)
        many = rejection_oracle_ga(RandomStream(26), rho, cap=50.0, size=500)
        assert np.array_equal(
            many.samples.view(np.float64), one.samples.view(np.float64)
        )
        assert (many.acceptance_rate, many.proposals, many.tail_fraction) == (
            one.acceptance_rate,
            one.proposals,
            one.tail_fraction,
        )


class TestHaar:
    def test_unitary(self):
        u = sample_haar_unitary(RandomStream(25), 6)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10

    def test_onb_first_column_marginal(self):
        # The first column of a Haar unitary is a uniform sphere point; in
        # dim 2 its first squared entry is Uniform(0,1).
        xs = np.empty(4_000)
        rng = RandomStream(26).generator()
        for i in range(xs.size):
            xs[i] = abs(sample_haar_unitary(rng, 2)[0, 0]) ** 2
        assert kstest(xs, "uniform").pvalue > 1e-4

    def test_onb_wrapper(self):
        b = sample_haar_onb(RandomStream(27), 4, "Y")
        assert b.factor_label == "Y"
        assert b.num_vectors == 4


class _FlatGammaGenerator(np.random.Generator):
    """A generator whose gammas all take one shape: fed to the Bartlett
    sampler, it puts Gamma(dim_traced) on every diagonal entry, the wrong
    law for all but the first."""

    dof = 0

    def standard_gamma(self, shape, size=None, dtype=np.float64, out=None):
        return super().standard_gamma(self.dof, size)


class TestReducedGrams:
    """The Bartlett stack against Phi Phi^dagger of directly drawn Phi."""

    P_SYS = np.array([0.5, 0.3, 0.2])
    N = 20_000

    def direct_grams(self, seed, dim_traced):
        scale = np.sqrt(self.P_SYS / (2.0 * dim_traced))[:, None]
        phi = complex_normals(
            RandomStream(seed).generator(),
            (self.N, self.P_SYS.size, dim_traced),
            scale,
        )
        return phi @ phi.conj().transpose(0, 2, 1)

    def ks_pvalues(self, a, b):
        """Two-sample KS p-values on the probe values, tr G and Re/Im G_01."""
        probes = sample_uniform_sphere(
            RandomStream(92), self.P_SYS.size, size=3
        )

        def stats(g):
            out = [
                np.einsum("i,nij,j->n", ph.conj(), g, ph).real for ph in probes
            ]
            out.append(np.einsum("nii->n", g).real)
            out.extend([g[:, 0, 1].real, g[:, 0, 1].imag])
            return out

        return [ks_2samp(x, y).pvalue for x, y in zip(stats(a), stats(b))]

    def test_shape_hermitian_and_rank(self):
        g = sample_reduced_grams(RandomStream(90), self.P_SYS, 2, 50)
        assert g.shape == (50, 3, 3) and g.dtype == np.complex128
        assert np.max(np.abs(g - g.conj().transpose(0, 2, 1))) < 1e-15
        # two traced dimensions leave rank 2
        ev = np.linalg.eigvalsh(g)
        assert np.all(ev[:, 1] > 1e-6 * ev[:, 2])
        assert np.max(np.abs(ev[:, 0]) / ev[:, 2]) < 1e-12

    def test_reproducible_from_stream(self):
        a = sample_reduced_grams(RandomStream(91), self.P_SYS, 4, 10)
        b = sample_reduced_grams(RandomStream(91), self.P_SYS, 4, 10)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim_traced", [4, 2])
    def test_law_matches_direct_phi(self, dim_traced):
        # d_s = 4 has few degrees of freedom, far from the Gaussian limit;
        # d_s = 2 < d_sys leaves T trapezoidal and G singular.
        got = sample_reduced_grams(
            RandomStream(93), self.P_SYS, dim_traced, self.N
        )
        ref = self.direct_grams(94, dim_traced)
        assert min(self.ks_pvalues(got, ref)) > 1e-3

    @pytest.mark.parametrize("dim_traced", [4, 2])
    def test_negative_control_flat_gammas_fail(self, dim_traced):
        rng = _FlatGammaGenerator(RandomStream(93).generator().bit_generator)
        rng.dof = dim_traced
        wrong = sample_reduced_grams(rng, self.P_SYS, dim_traced, self.N)
        ref = self.direct_grams(94, dim_traced)
        assert min(self.ks_pvalues(wrong, ref)) < 1e-6


class TestEmpiricalCovariance:
    def test_loop_oracle(self):
        rng = np.random.default_rng(30)
        v = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
        expect = np.zeros((3, 3), dtype=complex)
        for r in range(9):
            expect += np.outer(v[r], v[r].conj())
        expect /= 9
        got = empirical_covariance(v)
        assert np.max(np.abs(got - expect)) < 1e-12
        assert np.max(np.abs(got - got.conj().T)) == 0.0
