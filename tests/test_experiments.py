"""Experiment helpers plus small-scale runs of each registered experiment."""

import numpy as np
import pytest

from gaplab.ensembles import (
    RandomStream,
    sample_complex_gaussian,
    sample_gap,
    sample_uniform_sphere,
)
from gaplab.experiments import (
    EXPERIMENTS,
    CanonicalTypicalityConfig,
    ConditionalDmConfig,
    GapDistributionConfig,
    GapEquivalenceConfig,
    SurrogateConfig,
    UnitaryCovarianceConfig,
    estimate_density_matrix,
    fixed_probes,
    heredity_check,
    named_rho,
    probe_marginals,
    run_canonical_typicality,
    run_conditional_dm_concentration,
    run_gap_definition_equivalence,
    run_gap_distribution,
    run_gaussian_surrogate_concentration,
    run_unitary_covariance,
)
from gaplab.hilbert import single_factor, trace_distance


class TestFixedProbes:
    def test_reproducible_and_normalized(self):
        a = fixed_probes(6, 5)
        b = fixed_probes(6, 5)
        assert np.array_equal(a, b)
        assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) < 1e-12

    def test_distinct_across_dims(self):
        assert fixed_probes(4, 3).shape == (3, 4)
        assert not np.array_equal(fixed_probes(4, 3)[:, :2], fixed_probes(2, 3))


class TestProbeMarginals:
    def test_loop_oracle(self):
        rng = np.random.default_rng(70)
        vecs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        probes = fixed_probes(3, 2)
        got = probe_marginals(vecs, probes)
        assert got.shape == (2, 4)
        for m in range(2):
            for n in range(4):
                expect = abs(np.vdot(probes[m], vecs[n])) ** 2
                assert abs(got[m, n] - expect) < 1e-12


class TestEstimateDensityMatrix:
    def test_single_sample_is_projector(self):
        v = np.array([[0.6, 0.8j]], dtype=complex)
        rho = estimate_density_matrix(v)
        assert np.allclose(rho.entries, np.outer(v[0], v[0].conj()), atol=1e-12)

    def test_sphere_recovers_maximally_mixed(self):
        batch = sample_uniform_sphere(RandomStream(71), 3, size=30_000)
        rho = estimate_density_matrix(batch)
        assert trace_distance(rho.entries, np.eye(3) / 3) < 0.02

    def test_gap_recovers_source(self):
        src = named_rho("spiked_2")
        batch = sample_gap(RandomStream(72), src, size=30_000)
        rho = estimate_density_matrix(batch)
        assert trace_distance(rho, src) < 0.02
        assert rho.factorization == src.factorization

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            estimate_density_matrix(np.array([[2.0, 0.0]], dtype=complex))

    def test_exact_unit_trace(self):
        batch = sample_uniform_sphere(RandomStream(73), 4, size=100)
        rho = estimate_density_matrix(batch)
        assert rho.entries.trace().real == pytest.approx(1.0, abs=1e-14)


class TestNamedRho:
    def test_catalog(self):
        assert np.allclose(
            named_rho("maximally_mixed_2").entries, np.eye(2) / 2
        )
        assert np.allclose(named_rho("spiked_2").entries, np.diag([0.9, 0.1]))
        r = named_rho("random_rank3_dim4")
        w = np.linalg.eigvalsh(r.entries)
        assert abs(w[0]) < 1e-12  # rank 3: one zero eigenvalue
        assert np.allclose(sorted(w[1:]), [0.2, 0.3, 0.5], atol=1e-12)

    def test_frozen_across_calls(self):
        assert np.array_equal(
            named_rho("random_rank3_dim4").entries,
            named_rho("random_rank3_dim4").entries,
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            named_rho("thermal_42")


class TestGaussianNormMoments:
    def test_variance_of_squared_norm_is_purity(self):
        # For unnormalized Gaussian draws with covariance C (trace 1),
        # E ||psi||^2 = tr C and Var ||psi||^2 = tr C^2; brute force at
        # dim 4 against both identities.
        p = np.array([0.4, 0.3, 0.2, 0.1])
        z = sample_complex_gaussian(RandomStream(74), p, size=400_000)
        norm2 = np.sum(np.abs(z) ** 2, axis=1)
        assert abs(norm2.mean() - 1.0) < 0.005
        assert abs(norm2.var() / np.sum(p**2) - 1.0) < 0.03


class TestRegistry:
    def test_six_experiments_with_claims(self):
        assert len(EXPERIMENTS) == 6
        for info in EXPERIMENTS.values():
            assert info.claim
            assert callable(info.runner)

    def test_registry_names_match_runners(self):
        assert (
            EXPERIMENTS["gap_definition_equivalence"].runner
            is run_gap_definition_equivalence
        )
        assert EXPERIMENTS["gaussian_surrogate"].config_type is SurrogateConfig


SMALL_EQUIVALENCE = GapEquivalenceConfig(
    rho_names=("spiked_2",), moment_samples=4_000, ks_samples=1_500
)
SMALL_SURROGATE = SurrogateConfig(dim_s=64, n_samples=8_000, ad_subsample=500)
SMALL_TYPICALITY = CanonicalTypicalityConfig(
    bath_dim=128, shell_width=60.0, n_draws=40, min_shell_dim=50
)
SMALL_DISTRIBUTION = GapDistributionConfig(
    bath_dim=256,
    shell_width=50.0,
    outer_trials=10,
    inner_draws=40,
    heredity_samples=1_500,
    min_shell_dim=50,
)
SMALL_CONDITIONAL = ConditionalDmConfig(
    dim_s_values=(64,), n_trials=250, min_shell_dim=50
)
SMALL_UNITARY = UnitaryCovarianceConfig(n_samples=3_000)


class TestExperimentRuns:
    """Small-scale executions: structure, determinism, and sane checks.

    Pass/fail of individual statistical checks at these reduced sizes is
    not asserted; the full-size runs live in the acceptance tests.
    """

    def test_gap_equivalence_structure(self):
        rep = run_gap_definition_equivalence(SMALL_EQUIVALENCE, seed=5)
        assert rep.experiment == "gap_definition_equivalence"
        names = [c.name for c in rep.checks]
        assert any("covariance_matches_source" in n for n in names)
        assert any("marginal_ks" in n for n in names)
        assert rep.trial_rows.shape[1] == len(rep.trial_columns)

    def test_gap_equivalence_deterministic(self):
        a = run_gap_definition_equivalence(SMALL_EQUIVALENCE, seed=6)
        b = run_gap_definition_equivalence(SMALL_EQUIVALENCE, seed=6)
        assert a.deterministic_payload() == b.deterministic_payload()
        assert np.array_equal(a.trial_rows, b.trial_rows)

    def test_gap_equivalence_seed_sensitivity(self):
        a = run_gap_definition_equivalence(SMALL_EQUIVALENCE, seed=6)
        b = run_gap_definition_equivalence(SMALL_EQUIVALENCE, seed=7)
        assert a.statistics != b.statistics

    def test_unitary_covariance(self):
        rep = run_unitary_covariance(SMALL_UNITARY, seed=8)
        assert any("pushforward" in c.name for c in rep.checks)
        assert rep.overall_pass  # exact-law checks hold at small N too

    def test_canonical_typicality(self):
        rep = run_canonical_typicality(SMALL_TYPICALITY, seed=9)
        stats = rep.statistics
        assert 0.0 < stats["mean_distance"] < 1.0
        assert stats["scaled_mean_distance"] < stats["mean_distance"]
        assert rep.overall_pass

    def test_canonical_typicality_shell_floor(self):
        small = CanonicalTypicalityConfig(
            bath_dim=64, shell_width=2.0, n_draws=5, min_shell_dim=100
        )
        with pytest.raises(ValueError, match="shell"):
            run_canonical_typicality(small, seed=10)

    def test_gap_distribution(self):
        rep = run_gap_distribution(SMALL_DISTRIBUTION, seed=11)
        assert "pooled_covariance_distance" in rep.statistics
        assert any(c.name.startswith("heredity") for c in rep.checks)
        # per-trial table: one row per outer trial
        assert rep.trial_rows.shape[0] == SMALL_DISTRIBUTION.outer_trials

    def test_gap_distribution_parallelism_invariant(self):
        a = run_gap_distribution(SMALL_DISTRIBUTION, seed=16, parallelism=1)
        b = run_gap_distribution(SMALL_DISTRIBUTION, seed=16, parallelism=4)
        assert a.deterministic_payload() == b.deterministic_payload()
        assert np.array_equal(a.trial_rows, b.trial_rows)

    def test_conditional_dm_concentration(self):
        rep = run_conditional_dm_concentration(SMALL_CONDITIONAL, seed=12)
        assert "probe_var_ratio[dim_s=64,probe0]" in rep.statistics
        assert rep.trial_rows.shape[0] == 250

    def test_conditional_dm_parallelism_invariant(self):
        a = run_conditional_dm_concentration(SMALL_CONDITIONAL, seed=13, parallelism=1)
        b = run_conditional_dm_concentration(SMALL_CONDITIONAL, seed=13, parallelism=4)
        assert a.deterministic_payload() == b.deterministic_payload()
        assert np.array_equal(a.trial_rows, b.trial_rows)

    def test_gaussian_surrogate(self):
        rep = run_gaussian_surrogate_concentration(SMALL_SURROGATE, seed=14)
        assert "probe_var_ratio[probe0]" in rep.statistics
        ratio = rep.statistics["probe_var_ratio[probe0]"]
        assert abs(ratio / (1.0 / 64) - 1.0) < 0.25  # loose at small N
        assert rep.sample_count == 8_000

    def test_heredity_check_runs(self):
        checks, stats = heredity_check(seed=15, n_samples=1_000, probe_count=3,
                                       alpha_each=1e-3)
        assert len(checks) == 4  # 3 probe KS + 1 covariance
        assert all(c.passed for c in checks)


class TestPermutationPushforward:
    def test_permutation_exactly_permutes_marginals(self):
        # For a permutation matrix P, coordinates of P psi are a relabeling,
        # so computational-basis marginals permute exactly, sample by sample.
        rho = named_rho("random_rank3_dim4")
        batch = sample_gap(RandomStream(75), rho, size=200).amplitudes
        perm = np.eye(4)[:, np.roll(np.arange(4), 1)]
        pushed = batch @ perm.T
        src = np.abs(batch) ** 2
        dst = np.abs(pushed) ** 2
        for i in range(4):
            j = int(np.argmax(perm[i]))  # P e_j = e_i
            assert np.max(np.abs(dst[:, i] - src[:, j])) < 1e-15
