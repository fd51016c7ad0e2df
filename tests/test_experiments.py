"""Experiment helpers plus small-scale runs of each registered experiment."""

import dataclasses
import itertools

import numpy as np
import pytest

from gaplab.ensembles import (
    GAP_SAMPLERS,
    RandomStream,
    sample_complex_gaussian,
    sample_d,
    sample_gap,
    sample_uniform_sphere,
)
from gaplab.experiments import (
    EXPERIMENTS,
    NAMED_RHOS,
    CanonicalTypicalityConfig,
    ConditionalDmConfig,
    GapDistributionConfig,
    GapEquivalenceConfig,
    SurrogateConfig,
    UnitaryCovarianceConfig,
    estimate_density_matrix,
    fixed_probes,
    heredity_check,
    ks_pvalue,
    named_rho,
    probe_marginals,
    run_canonical_typicality,
    run_conditional_dm_concentration,
    run_gap_definition_equivalence,
    run_gap_distribution,
    run_gaussian_surrogate_concentration,
    run_unitary_covariance,
    shell_factor,
)
from gaplab import experiments
from gaplab.hilbert import trace_distance

from reference import (
    assert_density_matrix,
    bartlett_shell_grams,
    conditional_dm_trials,
    direct_shell_grams,
)


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
        assert np.allclose(rho, np.outer(v[0], v[0].conj()), atol=1e-12)

    def test_sphere_recovers_maximally_mixed(self):
        batch = sample_uniform_sphere(RandomStream(71), 3, size=30_000)
        rho = estimate_density_matrix(batch)
        assert trace_distance(rho, np.eye(3) / 3) < 0.02

    def test_gap_recovers_source(self):
        src = named_rho("spiked_2")
        batch = sample_gap(RandomStream(72), src, size=30_000)
        rho = estimate_density_matrix(batch)
        assert trace_distance(rho, src) < 0.02

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            estimate_density_matrix(np.array([[2.0, 0.0]], dtype=complex))

    def test_accepts_read_only_rows(self):
        batch = sample_uniform_sphere(RandomStream(74), 3, size=100)
        frozen = batch.copy()
        frozen.setflags(write=False)
        assert np.array_equal(
            estimate_density_matrix(frozen), estimate_density_matrix(batch)
        )

    def test_exact_unit_trace(self):
        batch = sample_uniform_sphere(RandomStream(73), 4, size=100)
        rho = estimate_density_matrix(batch)
        assert rho.trace().real == pytest.approx(1.0, abs=1e-14)


class TestNamedRho:
    def test_catalog(self):
        assert np.allclose(named_rho("maximally_mixed_2"), np.eye(2) / 2)
        assert np.allclose(named_rho("spiked_2"), np.diag([0.9, 0.1]))
        w = np.linalg.eigvalsh(named_rho("random_rank3_dim4"))
        assert abs(w[0]) < 1e-12  # rank 3: one zero eigenvalue
        assert np.allclose(sorted(w[1:]), [0.2, 0.3, 0.5], atol=1e-12)

    def test_frozen_across_calls(self):
        assert np.array_equal(
            named_rho("random_rank3_dim4"), named_rho("random_rank3_dim4")
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            named_rho("thermal_42")

    @pytest.mark.parametrize("name", NAMED_RHOS)
    def test_is_density_matrix(self, name):
        assert_density_matrix(named_rho(name))

    def test_heredity_states_are_density_matrices(self, monkeypatch):
        # heredity_check builds rho1 (x) rho2 and rho1 inline; record what
        # it hands to sample_gap.
        seen = []

        def recording_sample_gap(stream, rho, size):
            seen.append(rho)
            return sample_gap(stream, rho, size)

        monkeypatch.setattr(experiments, "sample_gap", recording_sample_gap)
        heredity_check(seed=0, n_samples=20, probe_count=1, alpha_each=0.0)
        assert [rho.shape for rho in seen] == [(32, 32), (2, 2)]
        for rho in seen:
            assert_density_matrix(rho)


class TestProbeKsPower:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gp_passed_off_as_gap_fails(self, seed):
        # Negative control for the marginal_ks checks of
        # gap_definition_equivalence: normalized rows of sqrt(dim rho) times
        # a uniform sphere draw are GP(rho), the Gaussian ensemble projected
        # without the norm-square adjustment.  At the shipped sample size
        # and probes, every probe must reject it against GAP(rho) at the
        # shipped Bonferroni level, alpha 0.01 over 93 tests (3 states, 6
        # sampler pairs x 5 probes + 1 norm test each).
        cfg = GapEquivalenceConfig()
        threshold = cfg.alpha / 93
        rho = named_rho("spiked_2")
        probes = fixed_probes(rho.shape[0], cfg.probe_count)
        gp = sample_d(RandomStream(seed, 0), rho, size=cfg.ks_samples)
        gp /= np.linalg.norm(gp, axis=1, keepdims=True)
        gap = sample_gap(RandomStream(seed, 1), rho, size=cfg.ks_samples)
        a = probe_marginals(gp, probes)
        b = probe_marginals(gap, probes)
        pvalues = [ks_pvalue(a[m], b[m]) for m in range(cfg.probe_count)]
        assert max(pvalues) < threshold


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
        cfg = SMALL_EQUIVALENCE
        assert rep.sample_count == 3 * cfg.moment_samples + 5 * cfg.ks_samples

    def test_gap_equivalence_table_is_its_ks_checks(self):
        # One row per KS check, in check order: (rho, pair, probe, p-value);
        # the squared-norm test is the pair after the method pairs, probe -1.
        rep = run_gap_definition_equivalence(SMALL_EQUIVALENCE, seed=5)
        ks = [c for c in rep.checks if "_ks[" in c.name]
        pairs = list(
            itertools.combinations([*GAP_SAMPLERS, "rejection_oracle"], 2)
        )
        names = []
        for r_idx, pair_idx, p_idx, _ in rep.trial_rows.tolist():
            rho_name = SMALL_EQUIVALENCE.rho_names[int(r_idx)]
            if p_idx == -1:
                assert pair_idx == len(pairs)
                names.append(f"adjusted_norm_sq_ks[{rho_name}]")
            else:
                a, b = pairs[int(pair_idx)]
                names.append(f"marginal_ks[{rho_name},{a}~{b},probe{int(p_idx)}]")
        assert rep.trial_columns == (
            "rho_index", "pair_index", "probe_index", "ks_pvalue"
        )
        assert names == [c.name for c in ks]
        assert rep.trial_rows[:, 3].tolist() == [c.statistic for c in ks]

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
        # one trials row per probe, holding the statistics its checks use
        keys = ("probe_mean", "probe_var_ratio", "probe_var_ratio_normalized")
        assert rep.trial_columns == ("probe_index", *keys)
        assert rep.trial_rows.tolist() == [
            [p, *(rep.statistics[f"{k}[probe{p}]"] for k in keys)]
            for p in range(SMALL_SURROGATE.probe_count)
        ]

    def test_heredity_check_runs(self):
        checks, stats = heredity_check(seed=15, n_samples=1_000, probe_count=3,
                                       alpha_each=1e-3)
        assert len(checks) == 4  # 3 probe KS + 1 covariance
        assert all(c.passed for c in checks)


ORACLE_CONDITIONAL = ConditionalDmConfig(
    dim_s_values=(64, 128), n_trials=20, min_shell_dim=50
)


class TestConditionalDmBlocks:
    """The block path against the one-trial-at-a-time reference, bit for bit,
    at any block size and any parallelism."""

    SEED = 21

    @pytest.fixture(scope="class")
    def expected(self):
        rows, stats = [], {}
        for ds_idx, d_s in enumerate(ORACLE_CONDITIONAL.dim_s_values):
            ys, w_ys, dists, x_ys, *moments = conditional_dm_trials(
                ORACLE_CONDITIONAL, self.SEED, ds_idx
            )
            rows.append(
                np.column_stack([np.full(ys.shape[0], d_s), ys, w_ys, dists, x_ys])
            )
            m1n, m2n, m1u, m2u = (m.mean(axis=0) for m in moments)
            tag = f"dim_s={d_s}"
            stats[f"mean_distance[{tag}]"] = float(dists.mean())
            stats[f"p95_distance[{tag}]"] = float(np.quantile(dists, 0.95))
            for p_idx in range(ORACLE_CONDITIONAL.probe_count):
                key = f"[{tag},probe{p_idx}]"
                stats[f"probe_mean{key}"] = float(m1n[p_idx])
                stats[f"probe_var_ratio{key}"] = float(
                    ((m2u - m1u**2) / m1u**2)[p_idx]
                )
                stats[f"probe_var_ratio_normalized{key}"] = float(
                    ((m2n - m1n**2) / m1n**2)[p_idx]
                )
        return np.concatenate(rows), stats

    # States per block at the first traced dimension (dim 2 * 64 * 64);
    # None keeps the shipped budget.  With 3, the last block is partial.
    @pytest.mark.parametrize("states", [1, 3, None])
    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_matches_reference(self, monkeypatch, expected, states, parallelism):
        if states is not None:
            monkeypatch.setattr(experiments, "CDM_BLOCK_BYTES", states * 16 * 8192)
        rep = run_conditional_dm_concentration(
            ORACLE_CONDITIONAL, seed=self.SEED, parallelism=parallelism
        )
        rows, stats = expected
        assert np.array_equal(rep.trial_rows, rows)
        for key, value in stats.items():
            assert rep.statistics[key] == value, key


class TestShellFactor:
    """C = sum_s v_s v_s^dagger from the Bartlett factor against C from the
    direct shell draw, at small dimensions."""

    N = 20_000
    # (dim_y, dim_s, s_scale, shell_width) -> the groups (p_g, n_g) of the
    # shell's traced levels
    SHELLS = {
        "n<p": (3, 4, 0.05, 4.0),  # [(6, 4)]
        "n>p": (2, 6, 0.05, 2.5),  # [(4, 6)]
        # [(1, 2), (2, 2), (3, 1), (2, 1), (4, 2), (1, 2), (3, 2)]
        "many_groups": (3, 12, 0.3, 1.5),
    }

    def shell(self, name):
        d_y, d_s, s_scale, width = self.SHELLS[name]
        config = ConditionalDmConfig(
            dim_y=d_y, dim_s_values=(d_s,), s_scale=s_scale,
            shell_width=width, min_shell_dim=1,
        )
        return experiments._conditional_dm_shell(config, 0, 0).shell

    def ks_pvalues(self, a, b):
        """Two-sample KS p-values on three probe values, the weight of the
        first observed level, and Re/Im of two off-diagonal entries."""
        probes = sample_uniform_sphere(RandomStream(92), a.shape[1], size=3)

        def stats(c):
            out = [np.einsum("i,nij,j->n", ph.conj(), c, ph).real for ph in probes]
            out.append(np.einsum("nii->n", c[:, :2, :2]).real)
            out.extend([c[:, 0, 1].real, c[:, 0, 1].imag, c[:, 0, -1].real])
            return out

        return [ks_pvalue(x, y) for x, y in zip(stats(a), stats(b))]

    def test_reference_layouts(self):
        # Two groups of 120 (y, S) pairs per leg: widths 64, 128 and 240,
        # and 13,248, 22,400 and 28,560 normals per state instead of
        # 15,360, 30,720 and 61,440.
        config = ConditionalDmConfig()
        for ds_idx, (width, normals) in enumerate(
            [(64, 13_248), (128, 22_400), (240, 28_560)]
        ):
            shell = experiments._conditional_dm_shell(config, 0, ds_idx).shell
            factor = shell_factor(shell)
            assert factor.width == width
            assert 2 * (factor.positions.size - factor.shapes.size) == normals
            assert 2 * shell.shell_dim == 240 * config.dim_s_values[ds_idx]

    @pytest.mark.parametrize("name", sorted(SHELLS))
    def test_unit_trace_and_width(self, name):
        shell = self.shell(name)
        c = bartlett_shell_grams(RandomStream(95), shell, 50)
        assert np.max(np.abs(np.einsum("nii->n", c) - 1.0)) < 1e-14
        assert shell_factor(shell).width <= shell.hamiltonian.factor_dims[2]

    @pytest.mark.parametrize("name", sorted(SHELLS))
    def test_law_matches_direct_draw(self, name):
        shell = self.shell(name)
        got = bartlett_shell_grams(RandomStream(93), shell, self.N)
        ref = direct_shell_grams(RandomStream(94), shell, self.N)
        assert min(self.ks_pvalues(got, ref)) > 1e-3

    # Piloted at this N and these streams: the control's smallest p-value
    # was 7e-110 for "n<p" and underflowed to 0 for "many_groups".  For
    # "n>p" it was 9e-8, too close to the bound to serve as a control.
    @pytest.mark.parametrize("name", ["n<p", "many_groups"])
    def test_negative_control_shifted_gammas_fail(self, name):
        # |T_ii|^2 ~ Gamma(n_g - i + 1): one degree of freedom too many on
        # every diagonal entry
        shell = self.shell(name)
        factor = shell_factor(shell)
        wrong = dataclasses.replace(factor, shapes=factor.shapes + 1.0)
        got = bartlett_shell_grams(RandomStream(93), shell, self.N, wrong)
        ref = direct_shell_grams(RandomStream(94), shell, self.N)
        assert min(self.ks_pvalues(got, ref)) < 1e-6


class TestPermutationPushforward:
    def test_permutation_exactly_permutes_marginals(self):
        # For a permutation matrix P, coordinates of P psi are a relabeling,
        # so computational-basis marginals permute exactly, sample by sample.
        rho = named_rho("random_rank3_dim4")
        batch = sample_gap(RandomStream(75), rho, size=200)
        perm = np.eye(4)[:, np.roll(np.arange(4), 1)]
        pushed = batch @ perm.T
        src = np.abs(batch) ** 2
        dst = np.abs(pushed) ** 2
        for i in range(4):
            j = int(np.argmax(perm[i]))  # P e_j = e_i
            assert np.max(np.abs(dst[:, i] - src[:, j])) < 1e-15
