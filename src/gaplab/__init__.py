"""Numerical laboratory for GAP ensembles, conditional states, and
canonical typicality in finite-dimensional quantum systems."""

# Set before the submodule imports: ``runner`` reads it at import time.
__version__ = "0.1.0"

from .conditional import condition_on_random_basis
from .ensembles import (
    GAP_SAMPLERS,
    AcceptanceStarvationError,
    RandomStream,
    RejectionOracleResult,
    empirical_covariance,
    rejection_oracle_ga,
    sample_g,
    sample_ga,
    sample_gap,
    sample_gap_via_dap,
    sample_gap_via_purification,
    sample_haar_frames,
    sample_haar_unitary,
    sample_uniform_sphere,
)
from .experiments import (
    EXPERIMENTS,
    CheckResult,
    ExperimentReport,
    estimate_density_matrix,
    fixed_probes,
    named_rho,
)
from .hilbert import trace_distance
from .runner import RunConfig, load_run_config, main
from .thermal import (
    EnergyShell,
    HamiltonianSpec,
    build_composite,
    canonical_density_matrix,
    canonical_mean_energy,
    energy_shell,
    match_beta,
    sample_shell_state,
    synth_bath_spectrum,
    variance_ratio_prediction,
)

__all__ = [
    "AcceptanceStarvationError",
    "CheckResult",
    "EXPERIMENTS",
    "EnergyShell",
    "ExperimentReport",
    "GAP_SAMPLERS",
    "HamiltonianSpec",
    "RandomStream",
    "RejectionOracleResult",
    "RunConfig",
    "build_composite",
    "canonical_density_matrix",
    "canonical_mean_energy",
    "condition_on_random_basis",
    "empirical_covariance",
    "energy_shell",
    "estimate_density_matrix",
    "fixed_probes",
    "load_run_config",
    "main",
    "match_beta",
    "named_rho",
    "rejection_oracle_ga",
    "sample_g",
    "sample_ga",
    "sample_gap",
    "sample_gap_via_dap",
    "sample_gap_via_purification",
    "sample_haar_frames",
    "sample_haar_unitary",
    "sample_shell_state",
    "sample_uniform_sphere",
    "synth_bath_spectrum",
    "trace_distance",
    "variance_ratio_prediction",
]
