"""Exact reference implementations that the package itself does not need.

Tests use these as oracles: dense or one-at-a-time forms of quantities the
package computes in a cheaper or batched way.
"""

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from gaplab import kernels
from gaplab.conditional import ZERO_WEIGHT
from gaplab.ensembles import (
    RandomStream,
    _rng_of,
    complex_normals,
    sample_haar_unitary,
)
from gaplab.experiments import (
    ConditionalDmConfig,
    _conditional_dm_shell,
    fixed_probes,
)
from gaplab.hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    StateVector,
    partial_inner_product,
)
from gaplab.parallel import run_tasks
from gaplab.thermal import (
    EnergyShell,
    HamiltonianSpec,
    canonical_density_matrix,
    energy_shell,
    log_partition_function,
)


# ---------------------------------------------------------------------------
# one state conditioned on one given basis: outcome y has probability
# ||<y|Psi>||^2, the conditional wave function is the normalized <y|Psi>,
# and the conditional density matrix also traces out named factors


@dataclass(frozen=True)
class ConditionalOutcome:
    """One sampled outcome: its index, probability weight, and the
    normalized conditional state on the remaining factors."""

    y_index: int
    weight: float
    conditional_state: StateVector

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0 + 1e-9):
            raise ValueError(f"weight {self.weight} is not a probability")
        if not self.conditional_state.normalized:
            raise ValueError("conditional_state must be normalized")


def _rotated_outcome_matrix(psi: StateVector, basis: OrthonormalBasis) -> np.ndarray:
    """(num_outcomes, rest) array whose row y is the unnormalized <y|Psi>,
    with the remaining factors flattened in their original order."""
    fact = psi.factorization
    ax = fact.axis(basis.factor_label)
    if basis.space_dim != fact.dims[ax]:
        raise ValueError(
            f"basis spans dim {basis.space_dim}, factor "
            f"{basis.factor_label!r} has dim {fact.dims[ax]}"
        )
    if basis.num_vectors != basis.space_dim:
        raise ValueError("conditioning requires a complete basis")
    t = np.moveaxis(psi.tensor(), ax, 0).reshape(fact.dims[ax], -1)
    return basis.vectors.conj().T @ t


def outcome_distribution(psi: StateVector, basis: OrthonormalBasis) -> np.ndarray:
    """Probability of each basis outcome on the conditioning factor."""
    rows = _rotated_outcome_matrix(psi, basis)
    w = np.einsum("ij,ij->i", rows.real, rows.real) + np.einsum(
        "ij,ij->i", rows.imag, rows.imag
    )
    total = w.sum()
    if abs(total - psi.norm() ** 2) > 1e-9:
        raise RuntimeError("outcome weights do not sum to the squared norm")
    return w / total


def conditional_wave_function(
    psi: StateVector, basis: OrthonormalBasis, y_index: int
) -> ConditionalOutcome:
    """The normalized conditional state for one fixed outcome index."""
    v = partial_inner_product(
        basis.column(y_index), psi, basis.factor_label
    )
    w = v.norm() ** 2
    if w < ZERO_WEIGHT:
        raise ValueError(
            f"outcome {y_index} has weight {w:.3e}, below the zero cutoff"
        )
    return ConditionalOutcome(int(y_index), float(w), v.normalized_copy())


def sample_conditional_wf(
    stream_or_rng, psi: StateVector, basis: OrthonormalBasis
) -> ConditionalOutcome:
    """Draw an outcome with its Born probability and return the conditional.

    Outcomes with weight below 1e-14 are excluded outright, so a
    zero-probability branch can never be sampled.
    """
    rng = _rng_of(stream_or_rng)
    probs = outcome_distribution(psi, basis)
    probs = np.where(probs < ZERO_WEIGHT, 0.0, probs)
    probs = probs / probs.sum()
    y = int(rng.choice(probs.shape[0], p=probs))
    return conditional_wave_function(psi, basis, y)


def _split_matrix(
    v: StateVector, traced_labels: tuple[str, ...]
) -> tuple[np.ndarray, "StateVector"]:
    """Flatten v into (kept, traced) matrix form; kept factors keep order."""
    fact = v.factorization
    traced_axes = [fact.axis(lbl) for lbl in traced_labels]
    kept_axes = [i for i in range(len(fact.dims)) if i not in traced_axes]
    if not kept_axes:
        raise ValueError("cannot trace out every remaining factor")
    t = v.tensor().transpose(kept_axes + traced_axes)
    kept_dim = int(np.prod([fact.dims[i] for i in kept_axes]))
    return t.reshape(kept_dim, -1), fact.without(traced_labels)


def conditional_density_matrix(
    psi: StateVector,
    basis: OrthonormalBasis,
    y_index: int,
    traced_labels: str | Iterable[str],
) -> DensityMatrix:
    """Density matrix of the kept factors, conditioned on outcome y_index of
    the basis factor, with ``traced_labels`` traced out afterwards."""
    if isinstance(traced_labels, str):
        traced_labels = (traced_labels,)
    traced_labels = tuple(traced_labels)
    v = partial_inner_product(basis.column(y_index), psi, basis.factor_label)
    w = v.norm() ** 2
    if w < ZERO_WEIGHT:
        raise ValueError(f"outcome {y_index} has negligible weight {w:.3e}")
    a, kept_fact = _split_matrix(v, traced_labels)
    gram = a @ a.conj().T
    entries = gram / gram.trace().real
    entries = 0.5 * (entries + entries.conj().T)
    return DensityMatrix(entries, kept_fact, check_psd=False)


def conditional_dm_from_s_average(
    psi: StateVector,
    basis: OrthonormalBasis,
    y_index: int,
    s_basis: OrthonormalBasis,
) -> DensityMatrix:
    """The same conditional density matrix, assembled outcome by outcome.

    Resolves the traced factor in the given orthonormal basis and averages
    the projectors of the doubly conditioned wave functions, weighted by
    the conditional outcome probabilities.  Agrees with
    ``conditional_density_matrix`` to machine precision for every choice of
    ``s_basis``; conditioning instead on the observed factor would not
    average back to anything basis-independent.
    """
    v = partial_inner_product(basis.column(y_index), psi, basis.factor_label)
    w = v.norm() ** 2
    if w < ZERO_WEIGHT:
        raise ValueError(f"outcome {y_index} has negligible weight {w:.3e}")
    rows = _rotated_outcome_matrix(v, s_basis)  # (num_s, kept)
    kept_fact = v.factorization.without((s_basis.factor_label,))
    acc = rows.T @ rows.conj()  # sum_k u_k u_k^dagger over kept factors
    entries = acc / acc.trace().real
    entries = 0.5 * (entries + entries.conj().T)
    return DensityMatrix(entries, kept_fact, check_psd=False)


# ---------------------------------------------------------------------------
# thermal states as dense matrices


def partition_function(h: HamiltonianSpec, beta: float) -> float:
    return math.exp(log_partition_function(h, beta))


def microcanonical(
    h: HamiltonianSpec, energy: float, delta: float
) -> tuple[EnergyShell, DensityMatrix]:
    """The shell and the normalized projector onto it, as a dense matrix."""
    shell = energy_shell(h, energy, delta)
    diag = np.zeros(h.dim, dtype=np.float64)
    diag[h.flat_indices(shell.member_ranks)] = 1.0 / shell.shell_dim
    entries = np.diag(diag).astype(np.complex128)
    return shell, DensityMatrix(entries, h.factorization, check_psd=False)


# ---------------------------------------------------------------------------
# conditional_dm_concentration, one trial at a time


def conditional_dm_trials(
    config: ConditionalDmConfig, seed: int, ds_idx: int
) -> tuple[np.ndarray, ...]:
    """The per-trial fields of ``run_conditional_dm_concentration`` at one
    traced dimension, each trial conditioned on its own: one Haar unitary,
    one tensordot and one kernel call per trial.

    Returns (y, w_y, distance, x_y, m1n, m2n, m1u, m2u), stacked over trials.
    """
    d_sys = config.dim_system
    d_y = config.dim_y
    d_s = config.dim_s_values[ds_idx]
    probes = fixed_probes(d_sys, config.probe_count)
    setup = _conditional_dm_shell(config, seed, ds_idx)
    h, shell = setup.h, setup.shell
    target = canonical_density_matrix(setup.factors[0], setup.beta).entries
    flat = h.flat_indices(shell.member_ranks)
    block = ds_idx * config.n_trials
    k = shell.shell_dim
    dims3 = (d_sys, d_y, d_s)
    n_probes = config.probe_count

    def trial(t: int) -> tuple:
        rng = RandomStream(seed, block + t).generator()
        z = complex_normals(rng, k)
        z /= np.linalg.norm(z)
        psi = np.zeros(h.dim, dtype=np.complex128)
        psi[flat] = z
        t3 = psi.reshape(dims3)
        u = sample_haar_unitary(rng, d_y)
        rot = np.tensordot(t3, u.conj(), axes=([1], [0]))  # (S, s, y)
        rot = np.ascontiguousarray(np.transpose(rot, (0, 2, 1)))
        a_y = np.ascontiguousarray(rot.transpose(1, 0, 2))
        grams, wts = kernels.conditional_dms(a_y)
        # exact mixture identity: outcome-weighted conditionals resolve
        # the reduced state of S
        total = grams.sum(axis=0)
        mat = t3.reshape(d_sys, -1)
        defect = float(np.max(np.abs(total - mat @ mat.conj().T)))
        if defect > 1e-12:
            raise RuntimeError(
                f"conditional decomposition defect {defect:.3e}"
            )
        w = np.maximum(wts, ZERO_WEIGHT)
        w_norm = w / w.sum()
        uv = np.empty((n_probes, d_y))
        for p_idx in range(n_probes):
            uv[p_idx] = kernels.quad_forms(grams, probes[p_idx])
        xv = uv / w[None, :]
        m1n = xv @ w_norm
        m2n = (xv * xv) @ w_norm
        m1u = uv @ w_norm
        m2u = (uv * uv) @ w_norm
        y = int(rng.choice(d_y, p=w_norm))
        rho_c = grams[y] / wts[y]
        diff = rho_c - target
        eigs = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
        dist = 0.5 * float(np.sum(np.abs(eigs)))
        return y, wts[y], dist, xv[:, y], m1n, m2n, m1u, m2u

    # Serial, under the one-thread OpenBLAS pin the block path runs with, so
    # that both sides round alike.
    records = run_tasks([functools.partial(trial, t) for t in range(config.n_trials)])
    return tuple(np.stack(field) for field in zip(*records))
