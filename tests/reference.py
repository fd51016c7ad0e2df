"""Exact reference implementations that the package itself does not need.

Tests use these as oracles: dense or one-at-a-time forms of quantities the
package computes in a cheaper or batched way.  The package carries density
matrices as plain (d, d) arrays and draws and conditions states only in
batches, as rows of arrays.  Here live the labeled forms: an ordered list
of named tensor factors, a density matrix on them that validates its
defining properties on construction, and the one-state forms built on
them: a state vector, orthonormal bases, partial traces and partial inner
products, conditioning one state on one given basis, dense thermal
states, and a conditional-DM trial run one at a time.
"""

import functools
import math
from dataclasses import dataclass, field
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
from gaplab.parallel import run_tasks
from gaplab.thermal import (
    EnergyShell,
    HamiltonianSpec,
    canonical_density_matrix,
    energy_shell,
    log_partition_function,
)

HERMITIAN_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10

# Eigenvalue checks cost O(dim^3); above this size they are skipped unless
# explicitly requested.
_PSD_CHECK_AUTO_LIMIT = 512


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# labeled tensor factors, and density matrices on them


@dataclass(frozen=True)
class SpaceFactorization:
    """Ordered labeled tensor factors of a finite-dimensional Hilbert space.

    Flat vector and matrix indices are row-major over the factors in the
    order listed, so amplitudes on S (x) B reshape to (dim_S, dim_B) with
    the S index varying slowest.
    """

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate factor labels in {self.labels}")
        if not self.labels:
            raise ValueError("at least one factor is required")
        for d in self.dims:
            if d < 1:
                raise ValueError(f"factor dimensions must be >= 1, got {d}")

    @classmethod
    def of(cls, *factors: tuple[str, int]) -> "SpaceFactorization":
        return cls(tuple(f[0] for f in factors), tuple(int(f[1]) for f in factors))

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no factor labeled {label!r} in {self.labels}") from None

    def joined_with(self, other: "SpaceFactorization") -> "SpaceFactorization":
        return SpaceFactorization(self.labels + other.labels, self.dims + other.dims)


def single_factor(label: str, dim: int) -> SpaceFactorization:
    return SpaceFactorization((label,), (int(dim),))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix on a factorized space.

    Construction checks hermiticity elementwise to 1e-12 and the trace to
    1e-10.  The eigenvalue floor (>= -1e-10) is checked when ``check_psd``
    is true, or by default whenever the dimension is small enough that the
    O(dim^3) eigensolve is cheap.
    """

    entries: np.ndarray
    factorization: SpaceFactorization
    check_psd: bool | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        d = self.factorization.total_dim
        if m.shape != (d, d):
            raise ValueError(f"entries shape {m.shape} does not match dimension {d}")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("entries are not Hermitian to 1e-12")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1 within 1e-10")
        do_psd = self.check_psd
        if do_psd is None:
            do_psd = d <= _PSD_CHECK_AUTO_LIMIT
        if do_psd:
            lo = float(np.linalg.eigvalsh(m)[0])
            if lo < EIGENVALUE_FLOOR:
                raise ValueError(f"smallest eigenvalue {lo} is below -1e-10")
        object.__setattr__(self, "entries", _frozen_array(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and matching eigenvector columns."""
        return np.linalg.eigh(self.entries)


def assert_density_matrix(rho: np.ndarray) -> None:
    """A (d, d) complex128 array that passes the ``DensityMatrix`` checks:
    Hermitian to 1e-12, trace 1 to 1e-10, eigenvalues >= -1e-10."""
    assert rho.dtype == np.complex128 and rho.shape == (rho.shape[0],) * 2
    DensityMatrix(rho, single_factor("H", rho.shape[0]), check_psd=True)


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two density matrices.

    The factor lists concatenate in order, so flat indices of the product
    follow the row-major convention of the joined factorization.
    """
    return DensityMatrix(
        np.kron(a.entries, b.entries),
        a.factorization.joined_with(b.factorization),
        check_psd=False,
    )


# ---------------------------------------------------------------------------
# one state on labeled factors, and the operations on it


def without(fact: SpaceFactorization, labels: Iterable[str]) -> SpaceFactorization:
    """The factorization with the named factors dropped, the rest in order."""
    drop = set(labels)
    for lbl in drop:
        fact.axis(lbl)
    kept = [(l, d) for l, d in zip(fact.labels, fact.dims) if l not in drop]
    if not kept:
        raise ValueError("cannot drop every factor")
    return SpaceFactorization(tuple(l for l, _ in kept), tuple(d for _, d in kept))


@dataclass(frozen=True)
class StateVector:
    """A vector on a factorized space, optionally marked as unit-normalized."""

    amplitudes: np.ndarray
    factorization: SpaceFactorization
    normalized: bool = False

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be 1-D, got shape {amps.shape}")
        if amps.shape[0] != self.factorization.total_dim:
            raise ValueError(
                f"amplitude length {amps.shape[0]} does not match "
                f"total dimension {self.factorization.total_dim}"
            )
        object.__setattr__(self, "amplitudes", _frozen_array(amps))
        if self.normalized and abs(self.norm() - 1.0) > NORM_TOL:
            raise ValueError(f"state marked normalized has norm {self.norm()!r}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per factor (row-major)."""
        return self.amplitudes.reshape(self.factorization.dims)

    def normalized_copy(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n, self.factorization, normalized=True)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal columns spanning (a subspace of) one labeled factor."""

    vectors: np.ndarray
    factor_label: str

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2:
            raise ValueError("vectors must be a 2-D array of columns")
        gram = v.conj().T @ v
        defect = np.max(np.abs(gram - np.eye(v.shape[1])))
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(f"columns not orthonormal: defect {defect:.3e}")
        object.__setattr__(self, "vectors", _frozen_array(v))

    @classmethod
    def computational(cls, dim: int, factor_label: str) -> "OrthonormalBasis":
        return cls(np.eye(dim, dtype=np.complex128), factor_label)

    @property
    def space_dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def num_vectors(self) -> int:
        return self.vectors.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.vectors[:, i]


def sample_haar_onb(stream_or_rng, dim: int, factor_label: str) -> OrthonormalBasis:
    """Haar-random orthonormal basis of one labeled factor."""
    return OrthonormalBasis(sample_haar_unitary(stream_or_rng, dim), factor_label)


def state_tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states, factor lists concatenated in order."""
    return StateVector(
        np.kron(a.amplitudes, b.amplitudes),
        a.factorization.joined_with(b.factorization),
        normalized=a.normalized and b.normalized,
    )


def maximally_mixed(factorization: SpaceFactorization) -> DensityMatrix:
    d = factorization.total_dim
    return DensityMatrix(np.eye(d, dtype=np.complex128) / d, factorization)


def pure_density_matrix(psi: StateVector) -> DensityMatrix:
    """|psi><psi| of a normalized state."""
    v = psi.amplitudes
    n2 = float(np.vdot(v, v).real)
    if abs(n2 - 1.0) > 1e-9:
        raise ValueError("pure_density_matrix expects a normalized state")
    return DensityMatrix(np.outer(v, v.conj()) / n2, psi.factorization)


def purity(rho) -> float:
    """tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state."""
    m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return float(np.sum(np.abs(m) ** 2))


def partial_trace(rho: DensityMatrix, traced: str | Iterable[str]) -> DensityMatrix:
    """Trace out the named factors, keeping the rest in their original order."""
    if isinstance(traced, str):
        traced = (traced,)
    traced = tuple(traced)
    fact = rho.factorization
    remaining = without(fact, traced)
    dims = fact.dims
    k = len(dims)
    t = rho.entries.reshape(dims + dims)
    # Contract each traced axis pair, starting from the rightmost so axis
    # positions stay valid as the tensor loses axes.
    traced_axes = sorted((fact.axis(lbl) for lbl in traced), reverse=True)
    nfac = k
    for ax in traced_axes:
        t = np.trace(t, axis1=ax, axis2=ax + nfac)
        nfac -= 1
    d = remaining.total_dim
    return DensityMatrix(t.reshape(d, d), remaining, check_psd=False)


def partial_inner_product(
    bra: np.ndarray, psi: StateVector, factor_label: str
) -> StateVector:
    """Contract <bra| against one factor of psi, returning a vector on the rest.

    Antilinear in ``bra`` and linear in ``psi``.  The result is generally not
    normalized; its squared norm is the outcome weight of ``bra``.
    """
    fact = psi.factorization
    ax = fact.axis(factor_label)
    b = np.asarray(bra, dtype=np.complex128)
    if b.shape != (fact.dims[ax],):
        raise ValueError(
            f"bra has shape {b.shape}, factor {factor_label!r} has dim {fact.dims[ax]}"
        )
    t = np.tensordot(b.conj(), psi.tensor(), axes=([0], [ax]))
    return StateVector(t.reshape(-1), without(fact, (factor_label,)))


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
    return t.reshape(kept_dim, -1), without(fact, traced_labels)


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
    kept_fact = without(v.factorization, (s_basis.factor_label,))
    acc = rows.T @ rows.conj()  # sum_k u_k u_k^dagger over kept factors
    entries = acc / acc.trace().real
    entries = 0.5 * (entries + entries.conj().T)
    return DensityMatrix(entries, kept_fact, check_psd=False)


# ---------------------------------------------------------------------------
# thermal states as dense matrices


def partition_function(h: HamiltonianSpec, beta: float) -> float:
    return math.exp(log_partition_function(h, beta))


def microcanonical(
    h: HamiltonianSpec, energy: float, delta: float, labels: tuple[str, ...]
) -> tuple[EnergyShell, DensityMatrix]:
    """The shell and the normalized projector onto it, as a dense matrix on
    the factors of ``h`` under the given labels."""
    shell = energy_shell(h, energy, delta)
    diag = np.zeros(h.dim, dtype=np.float64)
    diag[h.flat_indices(shell.member_ranks)] = 1.0 / shell.shell_dim
    entries = np.diag(diag).astype(np.complex128)
    fact = SpaceFactorization(tuple(labels), h.factor_dims)
    return shell, DensityMatrix(entries, fact, check_psd=False)


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
    target = canonical_density_matrix(setup.factors[0], setup.beta)
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
