"""Full-size acceptance runs: one test per release criterion.

Each test executes at the sizes and tolerances the criteria state, prints
the key measured numbers, and asserts the experiment's own verdicts.  Seeds
are fixed; every run here is reproducible bit for bit.  Expect a few
minutes of wall time for the whole module.
"""

import json

import numpy as np
import pytest

from gaplab.ensembles import RandomStream
from gaplab.experiments import (
    CanonicalTypicalityConfig,
    ConditionalDmConfig,
    GapDistributionConfig,
    GapEquivalenceConfig,
    SurrogateConfig,
    heredity_check,
    run_canonical_typicality,
    run_conditional_dm_concentration,
    run_gap_definition_equivalence,
    run_gap_distribution,
    run_gaussian_surrogate_concentration,
)
from gaplab.runner import report_envelope
from gaplab.thermal import (
    canonical_density_matrix,
    synth_bath_spectrum,
    variance_ratio_prediction,
)

from reference import (
    SpaceFactorization,
    StateVector,
    conditional_density_matrix,
    conditional_dm_from_s_average,
    outcome_distribution,
    partial_trace,
    pure_density_matrix,
    purity,
    sample_haar_onb,
)

SEED = 0


def announce(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def equivalence_report():
    return run_gap_definition_equivalence(GapEquivalenceConfig(), seed=SEED)


@pytest.fixture(scope="module")
def conditional_report():
    # Two workers: criterion 10 shows that the payload does not depend on
    # the worker count, and the fixture is most of this module's wall time.
    return run_conditional_dm_concentration(
        ConditionalDmConfig(n_trials=10_000), seed=SEED, parallelism=2
    )


@pytest.fixture(scope="module")
def distribution_report():
    return run_gap_distribution(GapDistributionConfig(), seed=SEED)


def test_criterion_01_gap_covariance_identity(equivalence_report):
    """Each sampler's empirical covariance reproduces its source density
    matrix within 3/sqrt(N) at N = 1e5, for all three reference matrices."""
    checks = [
        c
        for c in equivalence_report.checks
        if c.name.startswith("covariance_matches_source")
    ]
    assert len(checks) == 9  # 3 matrices x 3 samplers
    worst = max(c.statistic for c in checks)
    announce(
        "criterion-1 covariance identity",
        all(c.passed for c in checks),
        f"worst trace distance {worst:.5f} vs bound {checks[0].tolerance:.5f}",
    )


def test_criterion_02_sampler_equivalence(equivalence_report):
    """All pairwise probe-marginal KS tests among the three constructions
    plus the rejection oracle accept at Bonferroni alpha = 0.01, N = 1e4."""
    checks = [
        c
        for c in equivalence_report.checks
        if "marginal_ks" in c.name or "adjusted_norm_sq_ks" in c.name
    ]
    assert len(checks) == 3 * (6 * 5 + 1)
    worst_p = min(c.statistic for c in checks)
    announce(
        "criterion-2 sampler equivalence",
        all(c.passed for c in checks),
        f"smallest KS p-value {worst_p:.3e} vs threshold "
        f"{checks[0].tolerance:.3e}",
    )


def test_criterion_03_flat_spectrum_variance_ratio():
    """Gaussian-surrogate probe variance over squared mean hits the exact
    flat-spectrum constant 1/256 within 10% at N = 1e5."""
    rep = run_gaussian_surrogate_concentration(SurrogateConfig(), seed=SEED)
    ratio_checks = [
        c for c in rep.checks if c.name.startswith("variance_ratio_is")
    ]
    assert len(ratio_checks) == 5
    worst = max(abs(c.statistic / c.prediction - 1.0) for c in ratio_checks)
    announce(
        "criterion-3 flat-spectrum ratio",
        rep.overall_pass,
        f"Var/Mean^2 within {worst:.2%} of 1/256 on all probes "
        f"(norm and normality checks included)",
    )


def test_criterion_04_variance_ratio_prediction(conditional_report):
    """Shell conditional density matrices at dim_S=2, dim_y=64, dim_s=64
    match the partition-function variance prediction within 30% at N=1e4."""
    checks = [
        c
        for c in conditional_report.checks
        if c.name.startswith("variance_ratio_matches_prediction[dim_s=64")
    ]
    assert len(checks) == 5
    worst = max(abs(c.statistic / c.prediction - 1.0) for c in checks)
    announce(
        "criterion-4 variance prediction",
        all(c.passed for c in checks),
        f"largest probe deviation {worst:.2%} of prediction "
        f"{checks[0].prediction:.5f} (tolerance 30%)",
    )


def test_criterion_05_concentration_scaling(conditional_report):
    """Doubling the traced dimension 64 -> 128 -> 256 halves the variance
    ratio at each step within 30%, and the composed drop is 4x within 30%."""
    checks = [
        c
        for c in conditional_report.checks
        if c.name.startswith("variance_ratio_scaling")
    ]
    assert len(checks) == 3
    detail = ", ".join(
        f"{c.name.split('[')[1].rstrip(']')}: {c.statistic:.3f}x"
        for c in checks
    )
    announce(
        "criterion-5 concentration scaling",
        all(c.passed for c in checks),
        detail + " (predictions 2x, 2x, 4x; tolerance 30%)",
    )


def test_criterion_06_canonical_typicality():
    """At least 95% of 200 shell draws sit below the calibrated distance
    threshold, and the mean distance strictly drops at 4x the bath size."""
    rep = run_canonical_typicality(CanonicalTypicalityConfig(), seed=SEED)
    s = rep.statistics
    announce(
        "criterion-6 canonical typicality",
        rep.overall_pass,
        f"fraction below 0.15: {s['fraction_below_threshold']:.3f}, "
        f"mean {s['mean_distance']:.4f} -> {s['scaled_mean_distance']:.4f} "
        f"at 4x bath (shell dims {int(s['shell_dim'])} -> "
        f"{int(s['scaled_shell_dim'])})",
    )


def test_criterion_07_gap_typicality_of_conditionals(distribution_report):
    """Pooled conditional wave functions match fresh GAP draws of the
    canonical ensemble: covariance within 0.05 and probe KS at alpha=0.01."""
    wanted = [
        c
        for c in distribution_report.checks
        if c.name.startswith(("pooled_covariance", "conditional_marginal_ks"))
    ]
    assert len(wanted) == 6
    cov = distribution_report.statistics["pooled_covariance_distance"]
    announce(
        "criterion-7 conditionals are GAP",
        all(c.passed for c in wanted),
        f"pooled covariance distance {cov:.4f} (bound 0.05), "
        "five probe KS tests accept",
    )


def test_criterion_08_exact_identities():
    """Machine-precision identities: outcome-averaged conditional density
    matrices reconstruct the reduced state; the traced-factor resolution is
    basis independent; the variance predictor equals a purity."""
    rng = np.random.default_rng(2024)
    worst_avg = 0.0
    worst_basis = 0.0
    for dims in [(2, 2, 2), (2, 4, 4)]:
        fact = SpaceFactorization(("S", "Y", "s"), dims)
        z = rng.standard_normal(fact.total_dim) + 1j * rng.standard_normal(
            fact.total_dim
        )
        psi = StateVector(z / np.linalg.norm(z), fact, normalized=True)
        basis = sample_haar_onb(RandomStream(81, dims[1]), dims[1], "Y")
        probs = outcome_distribution(psi, basis)
        acc = np.zeros((2, 2), dtype=complex)
        for y in range(dims[1]):
            acc += probs[y] * conditional_density_matrix(psi, basis, y, "s").entries
        reduced = partial_trace(pure_density_matrix(psi), ("Y", "s"))
        worst_avg = max(worst_avg, float(np.max(np.abs(acc - reduced.entries))))
        for k in range(3):
            s_basis = sample_haar_onb(RandomStream(82, 10 * dims[2] + k),
                                      dims[2], "s")
            a = conditional_dm_from_s_average(psi, basis, 0, s_basis)
            b = conditional_density_matrix(psi, basis, 0, "s")
            worst_basis = max(
                worst_basis, float(np.max(np.abs(a.entries - b.entries)))
            )
    worst_purity = 0.0
    h = synth_bath_spectrum(RandomStream(83), 8, "poisson_gaps", scale=0.4)
    for beta in (0.0, 0.7, 2.5):
        lhs = variance_ratio_prediction(h, beta)
        rhs = purity(canonical_density_matrix(h, beta))
        worst_purity = max(worst_purity, abs(lhs - rhs))
    ok = worst_avg < 1e-12 and worst_basis < 1e-12 and worst_purity < 1e-12
    announce(
        "criterion-8 exact identities",
        ok,
        f"max defects: outcome average {worst_avg:.2e}, "
        f"s-basis independence {worst_basis:.2e}, "
        f"predictor vs purity {worst_purity:.2e} (all vs 1e-12)",
    )


def test_criterion_09_heredity():
    """Conditionals of GAP draws on a 2 (x) 16 product factor through a Haar
    measurement basis are themselves GAP draws of the first factor."""
    checks, stats = heredity_check(
        seed=SEED, n_samples=10_000, probe_count=5, alpha_each=0.01 / 5
    )
    worst_p = min(c.statistic for c in checks if "ks" in c.name)
    announce(
        "criterion-9 heredity",
        all(c.passed for c in checks),
        f"covariance distance {stats['heredity_covariance_distance']:.4f}, "
        f"smallest probe KS p-value {worst_p:.3e} (threshold 2e-3)",
    )


def test_criterion_10_determinism_across_parallelism():
    """Reruns with the same config and seed give identical reports at
    parallelism 1 and 8, including every statistic and trial row."""
    config = ConditionalDmConfig(dim_s_values=(64,), n_trials=600)
    a = run_conditional_dm_concentration(config, seed=SEED, parallelism=1)
    b = run_conditional_dm_concentration(config, seed=SEED, parallelism=8)
    same_payload = a.deterministic_payload() == b.deterministic_payload()
    same_rows = np.array_equal(a.trial_rows, b.trial_rows)
    env_a = json.dumps(report_envelope(a)["report"], sort_keys=True)
    env_b = json.dumps(report_envelope(b)["report"], sort_keys=True)
    announce(
        "criterion-10 determinism",
        same_payload and same_rows and env_a == env_b,
        "parallelism 1 and 8 agree on all statistics, checks, trial rows, "
        "and serialized report bytes",
    )
