"""Monte Carlo experiments checking typicality claims about thermal states.

Each experiment is a pure function of (config, seed, parallelism) returning
an ExperimentReport: echoed config, named scalar statistics, predicted
values, and a list of named checks in which every verdict records the
statistic, the prediction, the tolerance, and where that tolerance comes
from.  Tolerances marked ``pilot-calibrated`` were frozen from pilot runs
of this code; ``monte-carlo-bound`` means a generic sampling-error bound;
``exact-identity`` marks algebraic identities expected at roundoff scale.

Randomness follows one convention: trial t of an experiment uses the
substream (seed, t), and auxiliary draws (reference ensembles, bath
spectra, fixed unitaries) use substream indexes above AUX_STREAM_BASE, so
results are independent of scheduling and worker count.  Probe vectors are
drawn once per dimension from a constant seed and shared by all
experiments, so probe marginals are comparable across runs and seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .conditional import (
    ZERO_WEIGHT,
    condition_on_random_basis,
    draw_outcomes,
    outcome_weights,
)
from .ensembles import (
    GAP_SAMPLERS,
    RandomStream,
    complex_normals,
    empirical_covariance,
    rejection_oracle_ga,
    sample_ga,
    sample_gap,
    sample_haar_unitary,
    sample_reduced_grams,
    sample_uniform_sphere,
)
from .hilbert import trace_distance
from .parallel import run_tasks, run_trials
from .stattests import anderson_normal, ks_2samp
from .thermal import (
    SPECTRUM_MODELS,
    EnergyShell,
    HamiltonianSpec,
    build_composite,
    canonical_density_matrix,
    energy_shell,
    match_beta,
    sample_shell_state,
    synth_bath_spectrum,
    variance_ratio_prediction,
)

AUX_STREAM_BASE = 1 << 40
PROBE_SEED = 777_000_001
# State bytes per block of conditional-DM trials, each block conditioned
# with one batched QR and one batched rotation.  Larger blocks raise the
# peak RSS: at 300 trials per dimension it read 0.3, 1.7 and 43 MB above
# per-trial conditioning at 512 KiB, 1 MiB and 8 MiB.
CDM_BLOCK_BYTES = 512 << 10
# Outer trials per task of gap_distribution.  A trial takes about 0.4 ms,
# so a block outweighs the pool's cost per task, and the blocks of the
# reference config still spread over the workers beside the heredity check.
GAPDIST_BLOCK_TRIALS = 10
DEFAULT_PROBE_COUNT = 5


# ---------------------------------------------------------------------------
# report structure


@dataclass(frozen=True)
class CheckResult:
    """One named verdict: statistic versus prediction at a stated tolerance."""

    name: str
    statistic: float
    prediction: float
    tolerance: float
    tolerance_provenance: str
    comparison: str
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    config: dict
    seed: int
    parallelism: int
    sample_count: int
    statistics: dict
    predictions: dict
    checks: tuple[CheckResult, ...]
    trial_columns: tuple[str, ...]
    trial_rows: np.ndarray
    wall_time_s: float

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdicts(self) -> dict:
        return {c.name: ("pass" if c.passed else "fail") for c in self.checks}

    def deterministic_payload(self) -> dict:
        """Everything reproducible from (config, seed): excludes wall time."""
        return {
            "experiment": self.experiment,
            "config": self.config,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "statistics": self.statistics,
            "predictions": self.predictions,
            "checks": [dataclasses.asdict(c) for c in self.checks],
            "trial_columns": list(self.trial_columns),
            "trial_row_count": int(self.trial_rows.shape[0]),
            "overall_pass": self.overall_pass,
        }


def _abs_check(name, stat, pred, tol, provenance) -> CheckResult:
    return CheckResult(
        name, float(stat), float(pred), float(tol), provenance,
        "abs(statistic - prediction) <= tolerance",
        bool(abs(stat - pred) <= tol),
    )


def _rel_check(name, stat, pred, tol, provenance) -> CheckResult:
    ok = pred != 0 and abs(stat / pred - 1.0) <= tol
    return CheckResult(
        name, float(stat), float(pred), float(tol), provenance,
        "abs(statistic / prediction - 1) <= tolerance",
        bool(ok),
    )


def _upper_check(name, stat, bound, provenance) -> CheckResult:
    return CheckResult(
        name, float(stat), float(bound), float(bound), provenance,
        "statistic <= tolerance",
        bool(stat <= bound),
    )


def _lower_check(name, stat, bound, provenance) -> CheckResult:
    return CheckResult(
        name, float(stat), float(bound), float(bound), provenance,
        "statistic >= tolerance",
        bool(stat >= bound),
    )


def _above_check(name, stat, bound, provenance) -> CheckResult:
    return CheckResult(
        name, float(stat), float(bound), float(bound), provenance,
        "statistic > tolerance (strict)",
        bool(stat > bound),
    )


def _decrease_check(name, stat, reference, provenance) -> CheckResult:
    return CheckResult(
        name, float(stat), float(reference), 0.0, provenance,
        "statistic < prediction (strict)",
        bool(stat < reference),
    )


# ---------------------------------------------------------------------------
# config validation


class ConfigError(ValueError):
    """Raised for malformed run configurations; maps to exit code 2."""


def _at_least(config, floor, *names) -> None:
    for name in names:
        value = getattr(config, name)
        if not value >= floor:
            raise ConfigError(
                f"field {name!r} must be at least {floor}, got {value!r}"
            )


def _positive(config, *names) -> None:
    for name in names:
        value = getattr(config, name)
        if not value > 0:
            raise ConfigError(f"field {name!r} must be positive, got {value!r}")


def _fractions(config, *names) -> None:
    for name in names:
        value = getattr(config, name)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"field {name!r} must lie in [0, 1], got {value!r}")


def _significance(config) -> None:
    if not 0.0 < config.alpha < 1.0:
        raise ConfigError(f"field 'alpha' must lie in (0, 1), got {config.alpha!r}")


def _one_of(config, name: str, choices) -> None:
    values = getattr(config, name)
    for value in values if isinstance(values, tuple) else (values,):
        if value not in choices:
            raise ConfigError(
                f"field {name!r}: unknown value {value!r}; use one of {choices}"
            )


def _nonempty_of(config, name: str, kind: type) -> None:
    values = getattr(config, name)
    if not values:
        raise ConfigError(f"field {name!r} must not be empty")
    for value in values:
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"field {name!r} holds a wrong-type entry {value!r}")


# ---------------------------------------------------------------------------
# shared helpers


def fixed_probes(dim: int, count: int = DEFAULT_PROBE_COUNT) -> np.ndarray:
    """Frozen Haar-random unit probe vectors for one dimension.

    Drawn from a constant seed, independent of experiment seeds, so probe
    marginals mean the same thing in every run.
    """
    stream = RandomStream(PROBE_SEED, dim * 128 + count)
    return sample_uniform_sphere(stream, dim, size=count)


def probe_marginals(vectors: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """|<probe_m | row_n>|^2 as an (m, n) array."""
    overlaps = vectors @ probes.conj().T
    return (overlaps.real**2 + overlaps.imag**2).T


def ks_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided two-sample KS p-value (asymptotic, as SciPy's ``asymp``)."""
    return ks_2samp(a, b)[1]


def estimate_density_matrix(samples) -> np.ndarray:
    """Average projector of the normalized rows of a (size, dim) array.

    Checks that accumulation roundoff kept the raw average Hermitian to
    1e-8, then symmetrizes and rescales so the trace is exactly one.
    """
    arr = np.asarray(samples, dtype=np.complex128)
    norms = np.linalg.norm(arr, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise ValueError("estimate_density_matrix expects normalized rows")
    m = kernels.sum_outer(np.ascontiguousarray(arr)) / arr.shape[0]
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > 1e-8:
        raise RuntimeError(f"accumulated projector asymmetry {asym:.3e}")
    h = 0.5 * (m + m.conj().T)
    return h / h.trace().real


NAMED_RHOS = ("maximally_mixed_2", "spiked_2", "random_rank3_dim4")


def named_rho(name: str) -> np.ndarray:
    """Reference density matrices used by the sampler experiments."""
    if name == "maximally_mixed_2":
        return np.eye(2, dtype=complex) / 2
    if name == "spiked_2":
        return np.diag([0.9, 0.1]).astype(complex)
    if name == "random_rank3_dim4":
        v = sample_haar_unitary(RandomStream(PROBE_SEED, 424242), 4)
        p = np.array([0.5, 0.3, 0.2, 0.0])
        rho = (v * p) @ v.conj().T
        return 0.5 * (rho + rho.conj().T)
    raise ValueError(f"unknown reference density matrix {name!r}")


def _batched_trace_distance(grams: np.ndarray, ref: np.ndarray) -> np.ndarray:
    diffs = grams - ref[None, :, :]
    diffs = 0.5 * (diffs + diffs.conj().transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(diffs)
    return 0.5 * np.sum(np.abs(eigs), axis=1)


def _reduced_grams(states: np.ndarray, dim_keep: int) -> np.ndarray:
    """Normalized reduced matrices of normalized rows on keep (x) rest."""
    a = states.reshape(states.shape[0], dim_keep, -1)
    return a @ a.conj().transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# experiment: agreement of the three GAP constructions (plus oracle)


@dataclass(frozen=True)
class GapEquivalenceConfig:
    rho_names: tuple[str, ...] = (
        "maximally_mixed_2",
        "spiked_2",
        "random_rank3_dim4",
    )
    moment_samples: int = 100_000
    ks_samples: int = 10_000
    probe_count: int = 5
    alpha: float = 0.01
    oracle_cap: float = 50.0

    def __post_init__(self):
        _nonempty_of(self, "rho_names", str)
        _one_of(self, "rho_names", NAMED_RHOS)
        _positive(self, "moment_samples", "ks_samples", "probe_count")
        _significance(self)
        _at_least(self, 50.0, "oracle_cap")


def run_gap_definition_equivalence(
    config: GapEquivalenceConfig, seed: int, parallelism: int = 1
) -> ExperimentReport:
    """All GAP constructions agree: moments against the source density
    matrix, and pairwise probe marginals (including a capped-rejection
    oracle for the pre-projection adjusted ensemble)."""
    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    statistics: dict = {}
    predictions: dict = {}
    rows = []

    method_names = list(GAP_SAMPLERS) + ["rejection_oracle"]
    n_pairs = len(method_names) * (len(method_names) - 1) // 2
    m_total = len(config.rho_names) * (n_pairs * config.probe_count + 1)
    p_threshold = config.alpha / m_total
    predictions["bonferroni_pvalue_threshold"] = p_threshold
    cov_bound = 3.0 / math.sqrt(config.moment_samples)

    for r_idx, rho_name in enumerate(config.rho_names):
        rho = named_rho(rho_name)
        probes = fixed_probes(rho.shape[0], config.probe_count)
        base = AUX_STREAM_BASE + 64 * r_idx

        for m_idx, (tag, sampler) in enumerate(GAP_SAMPLERS.items()):
            batch = sampler(
                RandomStream(seed, base + m_idx), rho, size=config.moment_samples
            )
            dist = trace_distance(estimate_density_matrix(batch), rho)
            statistics[f"cov_distance[{rho_name},{tag}]"] = dist
            checks.append(
                _upper_check(
                    f"covariance_matches_source[{rho_name},{tag}]",
                    dist,
                    cov_bound,
                    "monte-carlo-bound 3/sqrt(N)",
                )
            )

        ks_arrays = {}
        for m_idx, (tag, sampler) in enumerate(GAP_SAMPLERS.items()):
            batch = sampler(
                RandomStream(seed, base + 8 + m_idx), rho, size=config.ks_samples
            )
            ks_arrays[tag] = batch
        oracle = rejection_oracle_ga(
            RandomStream(seed, base + 12),
            rho,
            cap=config.oracle_cap,
            size=config.ks_samples,
        )
        ks_arrays["rejection_oracle"] = oracle.samples / np.linalg.norm(
            oracle.samples, axis=1, keepdims=True
        )
        statistics[f"oracle_acceptance_rate[{rho_name}]"] = oracle.acceptance_rate
        statistics[f"oracle_tail_fraction[{rho_name}]"] = oracle.tail_fraction

        marg = {
            tag: probe_marginals(arr, probes) for tag, arr in ks_arrays.items()
        }
        for pair_idx, (a, b) in enumerate(itertools.combinations(method_names, 2)):
            for p_idx in range(config.probe_count):
                p = ks_pvalue(marg[a][p_idx], marg[b][p_idx])
                checks.append(
                    _lower_check(
                        f"marginal_ks[{rho_name},{a}~{b},probe{p_idx}]",
                        p,
                        p_threshold,
                        "significance-level, Bonferroni",
                    )
                )
                rows.append((r_idx, pair_idx, p_idx, p))

        # The mixture sampler and the oracle both target the adjusted
        # (unprojected) ensemble, so their squared norms must agree too.
        ga = sample_ga(RandomStream(seed, base + 13), rho, size=config.ks_samples)
        norm2_mixture = np.sum(np.abs(ga) ** 2, axis=1)
        norm2_oracle = np.sum(np.abs(oracle.samples) ** 2, axis=1)
        p = ks_pvalue(norm2_mixture, norm2_oracle)
        checks.append(
            _lower_check(
                f"adjusted_norm_sq_ks[{rho_name}]",
                p,
                p_threshold,
                "significance-level, Bonferroni",
            )
        )
        # pair n_pairs is mixture~oracle; probe -1 marks the squared norm
        rows.append((r_idx, n_pairs, -1, p))

    report = ExperimentReport(
        experiment="gap_definition_equivalence",
        config=dataclasses.asdict(config),
        seed=seed,
        parallelism=parallelism,
        sample_count=len(config.rho_names)
        * (3 * config.moment_samples + 5 * config.ks_samples),
        statistics=statistics,
        predictions=predictions,
        checks=tuple(checks),
        trial_columns=("rho_index", "pair_index", "probe_index", "ks_pvalue"),
        trial_rows=np.asarray(rows, dtype=np.float64),
        wall_time_s=time.perf_counter() - t0,
    )
    return report


# ---------------------------------------------------------------------------
# experiment: unitary covariance of the GAP family


@dataclass(frozen=True)
class UnitaryCovarianceConfig:
    rho_name: str = "random_rank3_dim4"
    n_samples: int = 10_000
    probe_count: int = 5
    alpha: float = 0.01

    def __post_init__(self):
        _one_of(self, "rho_name", NAMED_RHOS)
        _positive(self, "n_samples", "probe_count")
        _significance(self)


def run_unitary_covariance(
    config: UnitaryCovarianceConfig, seed: int, parallelism: int = 1
) -> ExperimentReport:
    """Pushing GAP(rho) through U matches sampling GAP(U rho U^dagger)."""
    t0 = time.perf_counter()
    rho = named_rho(config.rho_name)
    d = rho.shape[0]
    probes = fixed_probes(d, config.probe_count)
    checks: list[CheckResult] = []
    statistics: dict = {}
    rows = []

    unitaries = {
        "haar": sample_haar_unitary(RandomStream(seed, AUX_STREAM_BASE), d),
        "cyclic_permutation": np.eye(d, dtype=complex)[:, np.roll(np.arange(d), 1)],
        "identity": np.eye(d, dtype=complex),
    }
    m_total = len(unitaries) * config.probe_count
    p_threshold = config.alpha / m_total
    cov_bound = 3.0 / math.sqrt(config.n_samples)

    for u_idx, (u_name, u) in enumerate(unitaries.items()):
        rho_rot = u @ rho @ u.conj().T
        rho_rot = 0.5 * (rho_rot + rho_rot.conj().T)
        direct = sample_gap(
            RandomStream(seed, AUX_STREAM_BASE + 8 + 2 * u_idx),
            rho_rot,
            size=config.n_samples,
        )
        pushed = (
            sample_gap(
                RandomStream(seed, AUX_STREAM_BASE + 9 + 2 * u_idx),
                rho,
                size=config.n_samples,
            )
            @ u.T
        )
        dist = trace_distance(empirical_covariance(pushed), rho_rot)
        statistics[f"pushed_cov_distance[{u_name}]"] = dist
        checks.append(
            _upper_check(
                f"pushed_covariance_matches[{u_name}]",
                dist,
                cov_bound,
                "monte-carlo-bound 3/sqrt(N)",
            )
        )
        md = probe_marginals(direct, probes)
        mp = probe_marginals(pushed, probes)
        for p_idx in range(config.probe_count):
            p = ks_pvalue(md[p_idx], mp[p_idx])
            checks.append(
                _lower_check(
                    f"pushforward_marginal_ks[{u_name},probe{p_idx}]",
                    p,
                    p_threshold,
                    "significance-level, Bonferroni",
                )
            )
            rows.append((u_idx, p_idx, p))

    return ExperimentReport(
        experiment="unitary_covariance",
        config=dataclasses.asdict(config),
        seed=seed,
        parallelism=parallelism,
        sample_count=2 * len(unitaries) * config.n_samples,
        statistics=statistics,
        predictions={"bonferroni_pvalue_threshold": p_threshold},
        checks=tuple(checks),
        trial_columns=("unitary_index", "probe_index", "ks_pvalue"),
        trial_rows=np.asarray(rows, dtype=np.float64),
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# experiment: reduced states of shell-uniform draws concentrate at canonical


@dataclass(frozen=True)
class CanonicalTypicalityConfig:
    dim_system: int = 4
    system_scale: float = 1.0
    bath_dim: int = 256
    bath_model: str = "equal_spaced"
    bath_scale: float = 1.0
    center_fraction: float = 0.5
    shell_width: float = 100.0
    n_draws: int = 200
    distance_threshold: float = 0.15
    min_pass_fraction: float = 0.95
    scaling_factor: int = 4
    min_shell_dim: int = 100

    def __post_init__(self):
        _positive(
            self, "dim_system", "system_scale", "bath_dim", "bath_scale",
            "shell_width", "n_draws", "distance_threshold", "min_shell_dim",
        )
        _one_of(self, "bath_model", SPECTRUM_MODELS)
        _fractions(self, "center_fraction", "min_pass_fraction")
        _at_least(self, 2, "scaling_factor")


@dataclass(frozen=True)
class ShellSetup:
    """Factor spectra, their composite, its energy shell and the inverse
    temperature matched to the shell's midpoint energy."""

    factors: tuple[HamiltonianSpec, ...]
    h: HamiltonianSpec
    shell: EnergyShell
    beta: float


def _shell_setup(config, factors) -> ShellSetup:
    """Composite of the factor spectra (left to right) and its shell at the
    config's center fraction and width.  A shell below the config's floor
    is a configuration error: the config asks for more levels than its
    spectra put in the window."""
    h = functools.reduce(build_composite, factors)
    ev = h.eigenvalues
    center = ev[0] + config.center_fraction * (ev[-1] - ev[0])
    shell = energy_shell(h, center - 0.5 * config.shell_width, config.shell_width)
    if shell.shell_dim < config.min_shell_dim:
        raise ConfigError(
            f"shell holds {shell.shell_dim} levels, below the configured "
            f"floor min_shell_dim={config.min_shell_dim}"
        )
    return ShellSetup(
        tuple(factors), h, shell, match_beta(h, shell.midpoint_energy)
    )


def _system_bath_shell(
    config, seed: int, bath_dim: int, bath_scale: float, stream_base: int
) -> ShellSetup:
    """Shell of an equal-spaced system with a synthetic bath."""
    h_s = synth_bath_spectrum(
        None, config.dim_system, "equal_spaced", config.system_scale
    )
    h_b = synth_bath_spectrum(
        RandomStream(seed, stream_base), bath_dim, config.bath_model, bath_scale
    )
    return _shell_setup(config, (h_s, h_b))


def canonical_typicality_shells(
    config: CanonicalTypicalityConfig, seed: int
) -> list[ShellSetup]:
    """The reference shell, then the same energy span at scaling_factor
    times the level density: more shell states per window."""
    f = config.scaling_factor
    return [
        _system_bath_shell(
            config, seed, config.bath_dim, config.bath_scale, AUX_STREAM_BASE
        ),
        _system_bath_shell(
            config, seed, config.bath_dim * f, config.bath_scale / f,
            AUX_STREAM_BASE + 16,
        ),
    ]


def _typicality_distances(
    config: CanonicalTypicalityConfig, seed: int, setup: ShellSetup,
    stream_base: int,
) -> np.ndarray:
    rho_s = canonical_density_matrix(setup.factors[0], setup.beta)
    states = sample_shell_state(
        RandomStream(seed, stream_base + 1), setup.shell, size=config.n_draws
    )
    grams = _reduced_grams(states, config.dim_system)
    return _batched_trace_distance(grams, rho_s)


def run_canonical_typicality(
    config: CanonicalTypicalityConfig, seed: int, parallelism: int = 1
) -> ExperimentReport:
    """Reduced density matrices of random shell states sit near the
    canonical state at the matched inverse temperature, and get closer
    when the bath's density of states grows."""
    t0 = time.perf_counter()
    ref, big = canonical_typicality_shells(config, seed)
    dists_ref = _typicality_distances(config, seed, ref, AUX_STREAM_BASE)
    dists_big = _typicality_distances(config, seed, big, AUX_STREAM_BASE + 16)

    frac = float(np.mean(dists_ref <= config.distance_threshold))
    statistics = {
        "beta": ref.beta,
        "shell_dim": float(ref.shell.shell_dim),
        "mean_distance": float(dists_ref.mean()),
        "max_distance": float(dists_ref.max()),
        "p95_distance": float(np.quantile(dists_ref, 0.95)),
        "fraction_below_threshold": frac,
        "scaled_beta": big.beta,
        "scaled_shell_dim": float(big.shell.shell_dim),
        "scaled_mean_distance": float(dists_big.mean()),
        "scaled_max_distance": float(dists_big.max()),
    }
    checks = [
        _lower_check(
            "most_draws_near_canonical",
            frac,
            config.min_pass_fraction,
            "pilot-calibrated threshold "
            f"(trace distance {config.distance_threshold})",
        ),
        _decrease_check(
            "mean_distance_shrinks_with_level_density",
            float(dists_big.mean()),
            float(dists_ref.mean()),
            "scaling-direction (strict decrease)",
        ),
    ]
    rows = [(0.0, i, d) for i, d in enumerate(dists_ref)] + [
        (1.0, i, d) for i, d in enumerate(dists_big)
    ]
    return ExperimentReport(
        experiment="canonical_typicality",
        config=dataclasses.asdict(config),
        seed=seed,
        parallelism=parallelism,
        sample_count=2 * config.n_draws,
        statistics=statistics,
        predictions={
            "distance_threshold": config.distance_threshold,
            "min_pass_fraction": config.min_pass_fraction,
        },
        checks=tuple(checks),
        trial_columns=("phase", "draw_index", "trace_distance"),
        trial_rows=np.asarray(rows, dtype=np.float64),
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# experiment: conditional wave functions of shell states follow GAP


@dataclass(frozen=True)
class GapDistributionConfig:
    dim_system: int = 2
    system_scale: float = 1.0
    bath_dim: int = 512
    bath_model: str = "equal_spaced"
    bath_scale: float = 1.0
    center_fraction: float = 0.5
    shell_width: float = 80.0
    outer_trials: int = 100
    inner_draws: int = 100
    probe_count: int = 5
    alpha: float = 0.01
    covariance_tolerance: float = 0.05
    per_trial_tolerance: float = 0.30
    min_pass_fraction: float = 0.95
    run_heredity: bool = True
    heredity_samples: int = 10_000
    min_shell_dim: int = 100

    def __post_init__(self):
        _positive(
            self, "dim_system", "system_scale", "bath_dim", "bath_scale",
            "shell_width", "outer_trials", "inner_draws", "probe_count",
            "covariance_tolerance", "per_trial_tolerance", "heredity_samples",
            "min_shell_dim",
        )
        _one_of(self, "bath_model", SPECTRUM_MODELS)
        _fractions(self, "center_fraction", "min_pass_fraction")
        _significance(self)
        # conditioning on a bath basis needs at least as many bath
        # directions as system ones
        if self.dim_system > self.bath_dim:
            raise ConfigError(
                f"dim_system {self.dim_system} exceeds bath_dim {self.bath_dim}"
            )


def heredity_check(
    seed: int,
    n_samples: int,
    probe_count: int,
    alpha_each: float,
    stream_base: int = AUX_STREAM_BASE + 32,
) -> tuple[list[CheckResult], dict]:
    """Conditionals of GAP(rho1 (x) rho2) on a random basis of factor 2
    follow GAP(rho1) exactly; checked by probe KS plus covariance."""
    rho1 = np.diag([0.7, 0.3]).astype(complex)
    p2 = 0.85 ** np.arange(16)
    rho2 = np.diag(p2 / p2.sum()).astype(complex)
    product = np.kron(rho1, rho2)
    batch = sample_gap(RandomStream(seed, stream_base), product, size=n_samples)
    rng = RandomStream(seed, stream_base + 1).generator()
    d1, d2 = 2, 16
    c = condition_on_random_basis(rng, batch.reshape(n_samples, d1, d2))
    ys = draw_outcomes(rng, outcome_weights(c))
    conditionals = c[np.arange(n_samples), :, ys]
    conditionals /= np.linalg.norm(conditionals, axis=1, keepdims=True)
    reference = sample_gap(RandomStream(seed, stream_base + 2), rho1, size=n_samples)
    probes = fixed_probes(d1, probe_count)
    mc = probe_marginals(conditionals, probes)
    mr = probe_marginals(reference, probes)
    checks = []
    for p_idx in range(probe_count):
        p = ks_pvalue(mc[p_idx], mr[p_idx])
        checks.append(
            _lower_check(
                f"heredity_marginal_ks[probe{p_idx}]",
                p,
                alpha_each,
                "significance-level, Bonferroni",
            )
        )
    cov_dist = trace_distance(empirical_covariance(conditionals), rho1)
    checks.append(
        _upper_check(
            "heredity_covariance_matches",
            cov_dist,
            3.0 / math.sqrt(n_samples),
            "monte-carlo-bound 3/sqrt(N)",
        )
    )
    stat = {"heredity_covariance_distance": cov_dist}
    return checks, stat


def gap_distribution_shells(
    config: GapDistributionConfig, seed: int
) -> list[ShellSetup]:
    return [
        _system_bath_shell(
            config, seed, config.bath_dim, config.bath_scale, AUX_STREAM_BASE
        )
    ]


def run_gap_distribution(
    config: GapDistributionConfig, seed: int, parallelism: int = 1
) -> ExperimentReport:
    """Conditional wave functions of shell-uniform states, conditioned on a
    random basis of the bath, are distributed like GAP of the canonical
    state; includes the product-state heredity control."""
    t0 = time.perf_counter()
    d_s = config.dim_system
    (setup,) = gap_distribution_shells(config, seed)
    h, shell, beta = setup.h, setup.shell, setup.beta
    target = canonical_density_matrix(setup.factors[0], beta)
    probes = fixed_probes(d_s, config.probe_count)
    flat = h.flat_indices(shell.member_ranks)
    d_b = config.bath_dim
    m_inner = config.inner_draws

    def trial(t: int) -> tuple:
        rng = RandomStream(seed, t).generator()
        k = shell.shell_dim
        z = complex_normals(rng, k)
        z /= np.linalg.norm(z)
        psi = np.zeros(h.dim, dtype=np.complex128)
        psi[flat] = z
        c = condition_on_random_basis(rng, psi.reshape(1, d_s, d_b))[0]
        w = outcome_weights(c)
        ys = rng.choice(d_b, size=m_inner, p=w / w.sum())
        v = c[:, ys]
        v = v / np.linalg.norm(v, axis=0, keepdims=True)
        cond = v.T  # (m_inner, d_s)
        mean_outer = kernels.sum_outer(np.ascontiguousarray(cond)) / m_inner
        mean_outer = 0.5 * (mean_outer + mean_outer.conj().T)
        dist = trace_distance(mean_outer, target)
        marg = probe_marginals(cond, probes)  # (probes, m_inner)
        return dist, mean_outer, marg

    def trials(start: int, stop: int) -> tuple:
        records = [trial(t) for t in range(start, stop)]
        return tuple(np.stack(field) for field in zip(*records))

    n_pool = config.outer_trials * m_inner
    m_total = config.probe_count + (config.probe_count if config.run_heredity else 0)
    p_threshold = config.alpha / m_total

    def trial_loop() -> tuple:
        return run_trials(
            trials, config.outer_trials, parallelism, GAPDIST_BLOCK_TRIALS
        )

    def reference_marginals() -> np.ndarray:
        reference = sample_gap(
            RandomStream(seed, AUX_STREAM_BASE + 2), target, size=n_pool
        )
        return probe_marginals(reference, probes)

    def heredity() -> tuple[list[CheckResult], dict]:
        if not config.run_heredity:
            return [], {}
        return heredity_check(
            seed, config.heredity_samples, config.probe_count, p_threshold
        )

    # The three phases draw from disjoint streams, so they run as
    # independent tasks; the heredity check, the longest, goes first, and
    # the trial loop spreads its blocks over workers of its own.
    (h_checks, h_stats), (dists, outers, margs), ref_marg = run_tasks(
        [heredity, trial_loop, reference_marginals], parallelism
    )
    # Real and imaginary parts are averaged apart: a complex mean divides
    # by a complex count, which can round differently.
    cov = outers.real.mean(axis=0) + 1j * outers.imag.mean(axis=0)
    pooled_marg = np.transpose(margs, (1, 0, 2)).reshape(config.probe_count, -1)

    cov_dist = trace_distance(0.5 * (cov + cov.conj().T), target)
    frac = float(np.mean(dists <= config.per_trial_tolerance))
    checks = [
        _upper_check(
            "pooled_covariance_near_canonical",
            cov_dist,
            config.covariance_tolerance,
            "acceptance-tolerance",
        ),
        _lower_check(
            "most_trials_concentrate",
            frac,
            config.min_pass_fraction,
            "pilot-calibrated per-trial tolerance "
            f"({config.per_trial_tolerance})",
        ),
    ]
    for p_idx in range(config.probe_count):
        p = ks_pvalue(pooled_marg[p_idx], ref_marg[p_idx])
        checks.append(
            _lower_check(
                f"conditional_marginal_ks[probe{p_idx}]",
                p,
                p_threshold,
                "significance-level, Bonferroni",
            )
        )

    statistics = {
        "beta": beta,
        "shell_dim": float(shell.shell_dim),
        "pooled_covariance_distance": cov_dist,
        "per_trial_mean_distance": float(dists.mean()),
        "per_trial_pass_fraction": frac,
    }
    checks.extend(h_checks)
    statistics.update(h_stats)

    return ExperimentReport(
        experiment="gap_distribution",
        config=dataclasses.asdict(config),
        seed=seed,
        parallelism=parallelism,
        sample_count=n_pool,
        statistics=statistics,
        predictions={
            "bonferroni_pvalue_threshold": p_threshold,
            "covariance_tolerance": config.covariance_tolerance,
        },
        checks=tuple(checks),
        trial_columns=("trial_index", "per_trial_distance"),
        trial_rows=np.column_stack(
            [np.arange(config.outer_trials, dtype=float), dists]
        ),
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# experiment: conditional density matrices concentrate; variance predictor


@dataclass(frozen=True)
class ConditionalDmConfig:
    # Geometry constraints: the energy window must sit inside
    # [span(system)+span(traced), span(observed)] so every traced level is
    # reachable for every observed outcome, and it must cover most of the
    # observed factor's spectrum: each mode of the conditional then couples
    # to nearly all observed levels, whose total weight is pinned near 1 by
    # unitarity.  A narrow window leaves each mode coupled to few levels,
    # and the shared fluctuation of their weight puts a floor under
    # Var/Mean^2 that does not shrink with the traced dimension.
    dim_system: int = 2
    system_scale: float = 1.0
    dim_y: int = 64
    y_scale: float = 1.0
    dim_s_values: tuple[int, ...] = (64, 128, 256)
    s_model: str = "equal_spaced"
    s_scale: float = 0.005
    center_fraction: float = 0.5
    shell_width: float = 60.0
    n_trials: int = 6_000
    probe_count: int = 5
    probe_mean_tolerance: float = 0.02
    ratio_tolerance: float = 0.30
    step_ratio_tolerance: float = 0.30
    p95_threshold: float = 0.20
    min_shell_dim: int = 100

    def __post_init__(self):
        _positive(
            self, "dim_system", "system_scale", "dim_y", "y_scale", "s_scale",
            "shell_width", "n_trials", "probe_count", "probe_mean_tolerance",
            "ratio_tolerance", "step_ratio_tolerance", "p95_threshold",
            "min_shell_dim",
        )
        _nonempty_of(self, "dim_s_values", int)
        if min(self.dim_s_values) < 1:
            raise ConfigError(
                f"field 'dim_s_values' must be positive, got {self.dim_s_values!r}"
            )
        _one_of(self, "s_model", SPECTRUM_MODELS)
        _fractions(self, "center_fraction")


def _conditional_dm_shell(
    config: ConditionalDmConfig, seed: int, ds_idx: int
) -> ShellSetup:
    """Shell of system (x) y (x) s at the ds_idx-th traced dimension."""
    h_sys = synth_bath_spectrum(
        None, config.dim_system, "equal_spaced", config.system_scale
    )
    h_y = synth_bath_spectrum(None, config.dim_y, "equal_spaced", config.y_scale)
    h_s = synth_bath_spectrum(
        RandomStream(seed, AUX_STREAM_BASE + ds_idx),
        config.dim_s_values[ds_idx],
        config.s_model,
        config.s_scale,
    )
    return _shell_setup(config, (h_sys, h_y, h_s))


def conditional_dm_shells(
    config: ConditionalDmConfig, seed: int
) -> list[ShellSetup]:
    return [
        _conditional_dm_shell(config, seed, ds_idx)
        for ds_idx in range(len(config.dim_s_values))
    ]


@dataclass(frozen=True)
class ShellFactor:
    """Where the entries of a Bartlett-drawn shell factor sit.

    A conditional-DM trial depends on its shell state only through
    C = sum_s v_s v_s^dagger, where v_s holds the amplitudes at traced
    level s over the (y, S) pairs; the Haar rotation of y comes after.
    The traced levels that reach the same set of (y, S) pairs inside the
    shell form a group g: n_g levels on p_g pairs.  For Gaussian
    amplitudes, each group adds an independent complex Wishart
    W(p_g, n_g, I) to C, which T_g T_g^dagger reproduces exactly for the
    p_g x r_g lower-trapezoidal Bartlett factor T_g, r_g = min(p_g, n_g):
    |T_ii|^2 ~ Gamma(n_g - i) (i from 0) and standard complex normals
    (E|z|^2 = 1) below the diagonal (Goodman, Ann. Math. Statist. 34,
    1963).  The factors side by side are a virtual traced factor of width
    r = sum_g r_g, and the state laid out as (y, S, s') with s' < r,
    normalized, gives C the law it has for a uniform shell state.

    ``shapes`` are the Gamma shapes of the diagonal, group by group;
    ``positions`` are the flat (y, S, s') indexes of the diagonal entries,
    in the same order, then of the entries below the diagonal, group by
    group, each group's in the order of ``np.tril_indices(p_g, -1, r_g)``.
    """

    shapes: np.ndarray
    positions: np.ndarray
    width: int


def shell_factor(shell: EnergyShell) -> ShellFactor:
    """The Bartlett layout of a shell of system (x) y (x) s.  Groups follow
    the lexicographic order of their reach, and the pairs of a group
    ascend in (y, S)."""
    dims = shell.hamiltonian.factor_dims
    d_sys, d_y, d_s = dims
    flat = shell.hamiltonian.flat_indices(shell.member_ranks)
    sys_i, y_i, s_i = np.unravel_index(flat, dims)
    reach = np.zeros((d_s, d_y * d_sys), dtype=bool)
    reach[s_i, y_i * d_sys + sys_i] = True
    supports, counts = np.unique(reach, axis=0, return_counts=True)
    groups = [
        (np.flatnonzero(support), int(n))
        for support, n in zip(supports, counts)
        if support.any()
    ]
    width = sum(min(pairs.size, n) for pairs, n in groups)
    shapes, diagonal, below = [], [], []
    col = 0
    for pairs, n in groups:
        r = min(pairs.size, n)
        i, j = np.tril_indices(pairs.size, -1, r)
        shapes.append(n - np.arange(r))
        diagonal.append(pairs[:r] * width + col + np.arange(r))
        below.append(pairs[i] * width + col + j)
        col += r
    return ShellFactor(
        np.concatenate(shapes).astype(np.float64),
        np.concatenate(diagonal + below),
        width,
    )


def draw_shell_factor(rng: np.random.Generator, factor: ShellFactor) -> np.ndarray:
    """The entries of one normalized Bartlett factor, in the order of
    ``factor.positions``.  RNG order: all gammas, then the real parts of
    the entries below the diagonal, then their imaginary parts."""
    gammas = rng.standard_gamma(factor.shapes)
    t = np.empty(factor.positions.size, dtype=np.complex128)
    t[: gammas.size] = np.sqrt(gammas)
    t[gammas.size :] = complex_normals(
        rng, t.size - gammas.size, 1.0 / math.sqrt(2.0)
    )
    t /= np.linalg.norm(t)
    return t


def run_conditional_dm_concentration(
    config: ConditionalDmConfig, seed: int, parallelism: int = 1
) -> ExperimentReport:
    """Conditional density matrices of shell states cluster tightly around
    the canonical state; probe fluctuations follow the partition-function
    variance ratio and shrink as the traced factor grows."""
    t0 = time.perf_counter()
    d_sys = config.dim_system
    d_y = config.dim_y
    probes = fixed_probes(d_sys, config.probe_count)
    checks: list[CheckResult] = []
    statistics: dict = {}
    predictions: dict = {}
    all_rows = []
    ratios_by_dim = []

    # Each shell is set up just before its trials: building all of them
    # first measurably slowed the trial loop that follows.
    for ds_idx, d_s in enumerate(config.dim_s_values):
        setup = _conditional_dm_shell(config, seed, ds_idx)
        h_sys, _, h_s = setup.factors
        shell, beta = setup.shell, setup.beta
        target = canonical_density_matrix(h_sys, beta)
        vr_prediction = variance_ratio_prediction(h_s, beta)
        q_expected = np.array(
            [
                float(np.real(np.conj(ph) @ target @ ph))
                for ph in probes
            ]
        )
        # Each trial draws its state as a Bartlett factor of width r (see
        # ShellFactor), one substream per trial, in the order: factor,
        # unitary, outcome.  A block's states, their rotation and a
        # scratch for conjugates are laid out as (y, S, s'), the observed
        # index first, so the rotated block splits into the outcome blocks
        # A_y without a copy.  The three come from one allocation: with
        # glibc, separate block-sized arrays made the heap shrink and
        # regrow around every block, with up to one page fault per 4 KiB
        # of state (0.2-0.5 s of a 300-trial run, 694k faults in a
        # 10,000-trial run, 55k this way).
        factor = shell_factor(shell)
        r = factor.width
        stream_base = ds_idx * config.n_trials
        n_probes = config.probe_count
        block_size = max(1, CDM_BLOCK_BYTES // (16 * d_y * d_sys * r))

        def trials(start: int, stop: int) -> tuple:
            n = stop - start
            gens = [
                RandomStream(seed, stream_base + t).generator()
                for t in range(start, stop)
            ]
            psi, rot, conj = np.empty((3, n, d_y, d_sys * r), dtype=np.complex128)
            psi.fill(0.0)
            psi.reshape(n, -1)[:, factor.positions] = np.stack(
                [draw_shell_factor(rng, factor) for rng in gens]
            )
            condition_on_random_basis(
                gens, psi.transpose(0, 2, 1), out=rot.transpose(0, 2, 1)
            )
            grams, wts = kernels.conditional_dms(
                rot.reshape(n * d_y, d_sys, r), conj.reshape(n * d_y, d_sys, r)
            )
            # exact mixture identity: outcome-weighted conditionals resolve
            # the reduced state of S, one (S, y s') product per trial with
            # the two scratch arrays holding the state and its conjugate
            m = conj.reshape(n, d_sys, d_y, r)
            m[...] = psi.reshape(n, d_y, d_sys, r).transpose(0, 2, 1, 3)
            m = m.reshape(n, d_sys, d_y * r)
            reduced = m @ np.conjugate(m, out=rot.reshape(m.shape)).transpose(0, 2, 1)
            gaps = grams.reshape(n, d_y, d_sys, d_sys).sum(axis=1) - reduced
            defect = float(np.max(np.abs(gaps)))
            if defect > 1e-12:
                raise RuntimeError(
                    f"conditional decomposition defect {defect:.3e}"
                )
            # Exact outcome-weighted first and second moments of the probe
            # values, both for the raw conditional (weight * value, the
            # quantity the variance prediction describes) and for the
            # trace-normalized conditional density matrix.  Averaging over
            # all outcomes removes the sampling noise a single drawn y
            # would add.
            uv = np.stack([kernels.quad_forms(grams, ph) for ph in probes])
            uv = uv.reshape(n_probes, n, d_y).transpose(1, 0, 2)
            grams = grams.reshape(n, d_y, d_sys, d_sys)
            wts = wts.reshape(n, d_y)
            w = np.maximum(wts, ZERO_WEIGHT)
            w_norm = (w / w.sum(axis=1, keepdims=True))[:, :, None]
            xv = uv / w[:, None, :]
            m1n = (xv @ w_norm)[..., 0]
            m2n = ((xv * xv) @ w_norm)[..., 0]
            m1u = (uv @ w_norm)[..., 0]
            m2u = ((uv * uv) @ w_norm)[..., 0]
            ys = draw_outcomes(gens, w)
            at_y = (np.arange(n), ys)
            dists = _batched_trace_distance(
                grams[at_y] / wts[at_y][:, None, None], target
            )
            return ys, wts[at_y], dists, xv[at_y[0], :, ys], m1n, m2n, m1u, m2u

        ys, w_ys, dists, x_ys, *moments = run_trials(
            trials, config.n_trials, parallelism, block_size
        )
        tag = f"dim_s={d_s}"
        m1n, m2n, m1u, m2u = (m.mean(axis=0) for m in moments)
        # The variance prediction describes the raw (unnormalized)
        # conditional; dividing by the fluctuating weight correlates
        # numerator and denominator and multiplies the ratio by an exact
        # probe-dependent factor (about 1/2 here), so the ratio check uses
        # the raw values while the mean check uses the normalized ones.
        means = m1n
        ratios = (m2u - m1u**2) / m1u**2
        ratios_normalized = (m2n - m1n**2) / m1n**2
        ratios_by_dim.append((d_s, ratios))

        statistics[f"beta[{tag}]"] = beta
        statistics[f"shell_dim[{tag}]"] = float(shell.shell_dim)
        statistics[f"mean_distance[{tag}]"] = float(dists.mean())
        statistics[f"p95_distance[{tag}]"] = float(np.quantile(dists, 0.95))
        predictions[f"variance_ratio[{tag}]"] = vr_prediction
        for p_idx in range(config.probe_count):
            statistics[f"probe_mean[{tag},probe{p_idx}]"] = float(means[p_idx])
            statistics[f"probe_var_ratio[{tag},probe{p_idx}]"] = float(
                ratios[p_idx]
            )
            statistics[f"probe_var_ratio_normalized[{tag},probe{p_idx}]"] = (
                float(ratios_normalized[p_idx])
            )
            checks.append(
                _abs_check(
                    f"probe_mean_matches_canonical[{tag},probe{p_idx}]",
                    means[p_idx],
                    q_expected[p_idx],
                    config.probe_mean_tolerance,
                    "pilot-calibrated",
                )
            )
            # The per-probe prediction check runs at the base dimension;
            # larger dimensions feed the scaling checks, where the small
            # conditioning-noise floor cancels less of the budget.
            if ds_idx == 0:
                checks.append(
                    _rel_check(
                        f"variance_ratio_matches_prediction[{tag},probe{p_idx}]",
                        ratios[p_idx],
                        vr_prediction,
                        config.ratio_tolerance,
                        "acceptance-tolerance (30%)",
                    )
                )
        if ds_idx == 0:
            checks.append(
                _upper_check(
                    f"p95_distance_concentrates[{tag}]",
                    float(np.quantile(dists, 0.95)),
                    config.p95_threshold,
                    "pilot-calibrated",
                )
            )
        all_rows.append(
            np.column_stack([np.full(ys.shape[0], d_s), ys, w_ys, dists, x_ys])
        )

    for (d_a, r_a), (d_b, r_b) in zip(ratios_by_dim, ratios_by_dim[1:]):
        expected = d_b / d_a
        observed = float(r_a.mean() / r_b.mean())
        checks.append(
            _rel_check(
                f"variance_ratio_scaling[{d_a}->{d_b}]",
                observed,
                expected,
                config.step_ratio_tolerance,
                "acceptance-tolerance (30%)",
            )
        )
    if len(ratios_by_dim) > 2:
        d_first, r_first = ratios_by_dim[0]
        d_last, r_last = ratios_by_dim[-1]
        checks.append(
            _rel_check(
                f"variance_ratio_scaling[{d_first}->{d_last}]",
                float(r_first.mean() / r_last.mean()),
                d_last / d_first,
                config.step_ratio_tolerance,
                "acceptance-tolerance (30%)",
            )
        )

    trial_rows = np.concatenate(all_rows, axis=0)
    return ExperimentReport(
        experiment="conditional_dm_concentration",
        config=dataclasses.asdict(config),
        seed=seed,
        parallelism=parallelism,
        sample_count=config.n_trials * len(config.dim_s_values),
        statistics=statistics,
        predictions=predictions,
        checks=tuple(checks),
        trial_columns=(
            "dim_s",
            "y_outcome",
            "outcome_weight",
            "trace_distance",
        )
        + tuple(f"probe{i}" for i in range(config.probe_count)),
        trial_rows=trial_rows,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# experiment: Gaussian surrogate of the conditional ensemble


@dataclass(frozen=True)
class SurrogateConfig:
    system_probs: tuple[float, ...] = (0.6, 0.4)
    dim_s: int = 256
    n_samples: int = 100_000
    probe_count: int = 5
    mean_tolerance: float = 0.05
    ratio_tolerance: float = 0.10
    norm_var_tolerance: float = 0.10
    ad_subsample: int = 1000

    def __post_init__(self):
        _nonempty_of(self, "system_probs", (int, float))
        p = np.asarray(self.system_probs, dtype=float)
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ConfigError("field 'system_probs' must be a probability vector")
        _positive(
            self, "dim_s", "probe_count", "mean_tolerance", "ratio_tolerance",
            "norm_var_tolerance",
        )
        # sample variances and the Anderson-Darling statistic need two values
        _at_least(self, 2, "n_samples", "ad_subsample")


def run_gaussian_surrogate_concentration(
    config: SurrogateConfig, seed: int, parallelism: int = 1
) -> ExperimentReport:
    """Gaussian stand-in for the conditional ensemble, bypassing the shell:
    Phi ~ G(rho_S (x) rho_s) with a flat traced factor.  Probe averages hit
    the system state, probe fluctuations follow the traced factor's purity,
    the squared norm concentrates with variance tr(C^2), and the probe
    values pass a normality check."""
    t0 = time.perf_counter()
    p_sys = np.asarray(config.system_probs, dtype=float)
    d_sys = p_sys.shape[0]
    d_s = config.dim_s
    probes = fixed_probes(d_sys, config.probe_count)
    rho_sys = np.diag(p_sys).astype(complex)
    q_expected = np.array(
        [float(np.real(np.conj(ph) @ rho_sys @ ph)) for ph in probes]
    )
    purity_s = 1.0 / d_s
    tr_c_sq = float(np.sum(p_sys**2)) * purity_s

    # Only the reduced matrices Phi Phi^dagger enter the checks, so they
    # are drawn directly from their exact law; Phi is never formed.
    n = config.n_samples
    grams = sample_reduced_grams(
        RandomStream(seed, AUX_STREAM_BASE), p_sys, d_s, n
    )
    norm_sq = np.einsum("nii->n", grams).real
    u_vals = np.stack([kernels.quad_forms(grams, ph) for ph in probes])
    # Raw probe values follow the stated mean and variance; dividing by
    # the fluctuating squared norm keeps the mean but shrinks the variance
    # by an exact probe-dependent factor, so the normalized ratio is
    # reported without a prediction check.
    vals = u_vals / norm_sq[None, :]

    checks: list[CheckResult] = []
    statistics: dict = {}
    rows = []
    ratios = u_vals.var(axis=1, ddof=1) / u_vals.mean(axis=1) ** 2
    ratios_normalized = vals.var(axis=1, ddof=1) / vals.mean(axis=1) ** 2
    for p_idx in range(config.probe_count):
        mean = float(vals[p_idx].mean())
        statistics[f"probe_mean[probe{p_idx}]"] = mean
        statistics[f"probe_var_ratio[probe{p_idx}]"] = float(ratios[p_idx])
        statistics[f"probe_var_ratio_normalized[probe{p_idx}]"] = float(
            ratios_normalized[p_idx]
        )
        rows.append((p_idx, mean, ratios[p_idx], ratios_normalized[p_idx]))
        checks.append(
            _rel_check(
                f"probe_mean_matches_system[probe{p_idx}]",
                mean,
                q_expected[p_idx],
                config.mean_tolerance,
                "pilot-calibrated",
            )
        )
        checks.append(
            _rel_check(
                f"variance_ratio_is_traced_purity[probe{p_idx}]",
                float(ratios[p_idx]),
                purity_s,
                config.ratio_tolerance,
                "acceptance-tolerance (10%)",
            )
        )

    nv = float(norm_sq.var(ddof=1))
    statistics["norm_sq_mean"] = float(norm_sq.mean())
    statistics["norm_sq_var"] = nv
    checks.append(
        _rel_check(
            "norm_sq_variance_is_tr_c_squared",
            nv,
            tr_c_sq,
            config.norm_var_tolerance,
            "acceptance-tolerance (10%)",
        )
    )

    # Normality is checked on the normalized values: dividing by the squared
    # norm cancels the shared fluctuation that dominates the skewness of the
    # raw values, which is what makes the Gaussian limit visible here.
    # The p-value is interpolated in a critical-value table and clamped to
    # [0.01, 0.15], so a statistic beyond the 1% critical value reads
    # exactly 0.01: the check passes only strictly above that level.
    ad_stat, ad_pvalue = anderson_normal(vals[0, : config.ad_subsample])
    statistics["anderson_darling_stat"] = ad_stat
    checks.append(
        _above_check(
            "probe_values_normality",
            ad_pvalue,
            0.01,
            "significance-level (1% nominal, interpolated p-value, "
            f"subsample {config.ad_subsample}; at the reference config it "
            "failed 52 of 3000 seeds, 1.73%, 95% CI 1.30-2.27%)",
        )
    )

    predictions = {
        "probe_variance_ratio": purity_s,
        "norm_sq_variance": tr_c_sq,
        **{f"probe_mean[probe{i}]": float(q_expected[i]) for i in range(
            config.probe_count
        )},
    }
    return ExperimentReport(
        experiment="gaussian_surrogate",
        config=dataclasses.asdict(config),
        seed=seed,
        parallelism=parallelism,
        sample_count=n,
        statistics=statistics,
        predictions=predictions,
        checks=tuple(checks),
        trial_columns=(
            "probe_index",
            "probe_mean",
            "probe_var_ratio",
            "probe_var_ratio_normalized",
        ),
        trial_rows=np.asarray(rows, dtype=np.float64),
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ExperimentInfo:
    name: str
    runner: object
    config_type: type
    claim: str
    # (config, seed) -> the run's energy shells, for experiments that have
    # them; raises ConfigError for a shell below the config's floor
    shells: object = None


EXPERIMENTS = {
    "gap_definition_equivalence": ExperimentInfo(
        "gap_definition_equivalence",
        run_gap_definition_equivalence,
        GapEquivalenceConfig,
        "The mixture, adjust-project, and purification constructions of the "
        "GAP ensemble agree in moments and probe marginals.",
    ),
    "unitary_covariance": ExperimentInfo(
        "unitary_covariance",
        run_unitary_covariance,
        UnitaryCovarianceConfig,
        "Pushing GAP(rho) through a unitary matches GAP of the rotated "
        "density matrix.",
    ),
    "canonical_typicality": ExperimentInfo(
        "canonical_typicality",
        run_canonical_typicality,
        CanonicalTypicalityConfig,
        "Reduced states of random energy-shell vectors concentrate at the "
        "canonical density matrix of the matched inverse temperature.",
        canonical_typicality_shells,
    ),
    "gap_distribution": ExperimentInfo(
        "gap_distribution",
        run_gap_distribution,
        GapDistributionConfig,
        "Conditional wave functions of shell states, given a random bath "
        "basis outcome, are GAP-distributed around the canonical state; "
        "conditionals of product-GAP states inherit GAP exactly.",
        gap_distribution_shells,
    ),
    "conditional_dm_concentration": ExperimentInfo(
        "conditional_dm_concentration",
        run_conditional_dm_concentration,
        ConditionalDmConfig,
        "Conditional density matrices of shell states form a narrow peak at "
        "the canonical state whose probe variance follows the "
        "partition-function ratio and shrinks as the traced factor grows.",
        conditional_dm_shells,
    ),
    "gaussian_surrogate": ExperimentInfo(
        "gaussian_surrogate",
        run_gaussian_surrogate_concentration,
        SurrogateConfig,
        "A Gaussian product surrogate reproduces the concentration scaling "
        "of conditional density matrices without any energy shell.",
    ),
}
