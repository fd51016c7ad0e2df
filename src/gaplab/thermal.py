"""Hamiltonian spectra, canonical ensembles, and microcanonical energy shells.

A Hamiltonian is represented by its sorted eigenvalues together with a
product-structured eigenbasis: each tensor factor carries either an explicit
unitary or ``None`` for the computational basis.  Composites built with
``build_composite`` (noninteracting coupling, so eigenvalues add pairwise)
keep this product form instead of materializing the Kronecker eigenbasis,
which lets shell states on spaces of dimension ~10^4 be assembled by
scattering coefficients rather than by dense matrix products.

Inverse temperatures enter through the canonical family
rho_beta = exp(-beta H) / Z(beta); the partition function is handled in log
space throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    SpaceFactorization,
    StateVector,
)
from .ensembles import (
    RandomStream,
    _rng_of,
    complex_normals,
    sample_haar_unitary,
)

SHELL_EDGE_TOL = 1e-12
SPECTRUM_MODELS = ("equal_spaced", "poisson_gaps", "semicircle")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Sorted spectrum plus a product-structured eigenbasis.

    ``column_indices[m]`` names, per factor, which basis column the rank-m
    eigenvector is built from; a factor basis of ``None`` stands for the
    computational basis of that factor.
    """

    eigenvalues: np.ndarray
    factor_labels: tuple[str, ...]
    factor_dims: tuple[int, ...]
    factor_bases: tuple[np.ndarray | None, ...]
    column_indices: np.ndarray
    label: str
    # Set only by the perturbed-composite path: a full (dim, dim) eigenbasis
    # that overrides the product structure while keeping the factorization.
    dense_basis: np.ndarray | None = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if ev.ndim != 1 or not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues must be a finite 1-D array")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        total = int(np.prod(self.factor_dims))
        if ev.shape[0] != total:
            raise ValueError("eigenvalue count does not match total dimension")
        ci = np.asarray(self.column_indices, dtype=np.int64)
        if ci.shape != (total, len(self.factor_dims)):
            raise ValueError("column_indices has the wrong shape")
        for k, basis in enumerate(self.factor_bases):
            if basis is None:
                continue
            b = np.asarray(basis, dtype=np.complex128)
            if b.shape != (self.factor_dims[k], self.factor_dims[k]):
                raise ValueError(f"factor basis {k} has shape {b.shape}")
            defect = np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0])))
            if defect > 1e-10:
                raise ValueError(f"factor basis {k} not unitary: defect {defect:.2e}")
        if self.dense_basis is not None:
            db = np.asarray(self.dense_basis, dtype=np.complex128)
            if db.shape != (total, total):
                raise ValueError("dense eigenbasis has the wrong shape")
            defect = np.max(np.abs(db.conj().T @ db - np.eye(total)))
            if defect > 1e-10:
                raise ValueError(f"dense eigenbasis not unitary: defect {defect:.2e}")
            object.__setattr__(self, "dense_basis", db)
        ev.setflags(write=False)
        ci.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "column_indices", ci)
        # triggers the duplicate-label check
        self.factorization

    @classmethod
    def from_spectrum(
        cls,
        eigenvalues,
        label: str,
        basis: np.ndarray | None = None,
    ) -> "HamiltonianSpec":
        ev = np.asarray(eigenvalues, dtype=np.float64)
        order = np.argsort(ev, kind="stable")
        return cls(
            eigenvalues=ev[order],
            factor_labels=(label,),
            factor_dims=(ev.shape[0],),
            factor_bases=(None if basis is None else np.asarray(basis, complex),),
            column_indices=order.reshape(-1, 1),
            label=label,
        )

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def factorization(self) -> SpaceFactorization:
        return SpaceFactorization(self.factor_labels, self.factor_dims)

    @property
    def has_computational_bases(self) -> bool:
        if self.dense_basis is not None:
            return False
        return all(b is None for b in self.factor_bases)

    def flat_indices(self, ranks: np.ndarray) -> np.ndarray:
        """Computational-basis positions of the given eigenvectors.

        Only meaningful when every factor uses its computational basis, in
        which case eigenvectors are one-hot at these row-major flat indices.
        """
        if not self.has_computational_bases:
            raise ValueError("eigenbasis is not the computational basis")
        cols = self.column_indices[np.asarray(ranks)]
        return np.ravel_multi_index(tuple(cols.T), self.factor_dims)

    def eigenvector_columns(self, ranks) -> np.ndarray:
        """Dense (dim, k) array of the eigenvectors at the given sorted ranks."""
        ranks = np.atleast_1d(np.asarray(ranks, dtype=np.int64))
        if self.dense_basis is not None:
            return self.dense_basis[:, ranks]
        if self.has_computational_bases:
            q = np.zeros((self.dim, ranks.shape[0]), dtype=np.complex128)
            q[self.flat_indices(ranks), np.arange(ranks.shape[0])] = 1.0
            return q
        cols = []
        for m in ranks:
            parts = []
            for k, basis in enumerate(self.factor_bases):
                idx = self.column_indices[m, k]
                if basis is None:
                    e = np.zeros(self.factor_dims[k], dtype=np.complex128)
                    e[idx] = 1.0
                    parts.append(e)
                else:
                    parts.append(basis[:, idx])
            cols.append(reduce(np.kron, parts))
        return np.stack(cols, axis=1)

    def eigenbasis(self) -> OrthonormalBasis:
        """Dense eigenbasis; materializes a dim x dim matrix."""
        return OrthonormalBasis(
            self.eigenvector_columns(np.arange(self.dim)), self.label
        )


def build_composite(
    a: HamiltonianSpec,
    b: HamiltonianSpec,
    perturbation: np.ndarray | None = None,
) -> HamiltonianSpec:
    """Composite of two Hamiltonians on the tensor-product space.

    Without a perturbation the coupling is zero: every eigenvalue is a
    pairwise sum and every eigenvector a product of factor eigenvectors,
    re-sorted ascending.  A ``perturbation`` is an optional Hermitian
    coupling matrix on the composite space (row-major order, ``a`` before
    ``b``); it triggers a dense diagonalization, so that path only suits
    modest total dimensions.  No standard pipeline passes one.
    """
    if perturbation is not None:
        pert = np.asarray(perturbation, dtype=np.complex128)
        total = a.dim * b.dim
        if pert.shape != (total, total):
            raise ValueError(
                f"perturbation shape {pert.shape} does not match composite "
                f"dimension {total}"
            )
        if np.max(np.abs(pert - pert.conj().T)) > 1e-10:
            raise ValueError("perturbation must be Hermitian")
        qa = a.eigenvector_columns(np.arange(a.dim))
        qb = b.eigenvector_columns(np.arange(b.dim))
        ha = (qa * a.eigenvalues) @ qa.conj().T
        hb = (qb * b.eigenvalues) @ qb.conj().T
        dense = (
            np.kron(ha, np.eye(b.dim))
            + np.kron(np.eye(a.dim), hb)
            + pert
        )
        w, v = np.linalg.eigh(dense)
        return HamiltonianSpec(
            eigenvalues=w,
            factor_labels=a.factor_labels + b.factor_labels,
            factor_dims=a.factor_dims + b.factor_dims,
            factor_bases=(None,) * (len(a.factor_dims) + len(b.factor_dims)),
            column_indices=np.zeros(
                (total, len(a.factor_dims) + len(b.factor_dims)), dtype=np.int64
            ),
            label=f"{a.label}+{b.label}",
            dense_basis=v,
        )
    sums = np.add.outer(a.eigenvalues, b.eigenvalues).reshape(-1)
    order = np.argsort(sums, kind="stable")
    ia, ib = np.divmod(order, b.dim)
    column_indices = np.concatenate(
        [a.column_indices[ia], b.column_indices[ib]], axis=1
    )
    return HamiltonianSpec(
        eigenvalues=sums[order],
        factor_labels=a.factor_labels + b.factor_labels,
        factor_dims=a.factor_dims + b.factor_dims,
        factor_bases=a.factor_bases + b.factor_bases,
        column_indices=column_indices,
        label=f"{a.label}+{b.label}",
    )


def log_partition_function(h: HamiltonianSpec, beta: float) -> float:
    """log Z(beta) = log sum exp(-beta E), evaluated without overflow.

    With x = -beta E, the largest exponent x_max and its multiplicity m are
    factored out: Z = m exp(x_max) (1 + s), where s is the sum of the other
    terms exp(x - x_max) over m.  Then log Z = log1p(s) + log(m) + x_max,
    accurate for any spread of x (Blanchard, Higham & Higham, IMA J. Numer.
    Anal. 41(4), 2021).  These are the steps of SciPy's real-input
    ``logsumexp``, in its order, so the two agree bit for bit.
    """
    x = -beta * h.eigenvalues
    x_max = x.max()
    at_max = x == x_max
    terms = np.exp(x - x_max)
    terms[at_max] = 0.0  # zeroed, not dropped: the sum then pairs as SciPy's
    m = float(np.count_nonzero(at_max))
    s = terms.sum() / m
    return float(np.log1p(s) + np.log(m) + x_max)


def partition_function(h: HamiltonianSpec, beta: float) -> float:
    return math.exp(log_partition_function(h, beta))


def _boltzmann_weights(h: HamiltonianSpec, beta: float) -> np.ndarray:
    ev = h.eigenvalues
    shifted = -beta * ev
    shifted = shifted - shifted.max()
    w = np.exp(shifted)
    return w / w.sum()


def canonical_mean_energy(h: HamiltonianSpec, beta: float) -> float:
    return float(_boltzmann_weights(h, beta) @ h.eigenvalues)


def canonical_density_matrix(h: HamiltonianSpec, beta: float) -> DensityMatrix:
    """rho_beta = exp(-beta H)/Z on the factorized space of H."""
    w = _boltzmann_weights(h, beta)
    if h.has_computational_bases:
        diag = np.zeros(h.dim, dtype=np.float64)
        diag[h.flat_indices(np.arange(h.dim))] = w
        entries = np.diag(diag).astype(np.complex128)
    else:
        q = h.eigenvector_columns(np.arange(h.dim))
        entries = (q * w) @ q.conj().T
    return DensityMatrix(entries, h.factorization, check_psd=False)


def match_beta(
    h: HamiltonianSpec, target_energy: float, residual_factor: float = 1e-9
) -> float:
    """Inverse temperature whose canonical mean energy hits the target.

    Bisection on the strictly decreasing map beta -> tr(rho_beta H); the
    returned beta satisfies |tr(rho_beta H) - target| <= residual_factor
    times the spectral spread.  The target must lie strictly between the
    extreme eigenvalues (negative beta covers targets above the beta=0
    mean).
    """
    ev = h.eigenvalues
    lo_e, hi_e = float(ev[0]), float(ev[-1])
    spread = hi_e - lo_e
    if not (lo_e < target_energy < hi_e):
        raise ValueError(
            f"target {target_energy} outside the open spectral range "
            f"({lo_e}, {hi_e})"
        )
    tol = residual_factor * spread

    def mean(beta: float) -> float:
        return canonical_mean_energy(h, beta)

    lo, hi = -1.0, 1.0  # mean(lo) > mean(hi); energy decreases in beta
    while mean(lo) < target_energy:
        lo *= 2.0
        if lo < -1e12:
            raise RuntimeError("failed to bracket target energy from above")
    while mean(hi) > target_energy:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket target energy from below")
    beta = 0.0
    for _ in range(300):
        beta = 0.5 * (lo + hi)
        m = mean(beta)
        if abs(m - target_energy) <= tol:
            return beta
        if m > target_energy:
            lo = beta
        else:
            hi = beta
    raise RuntimeError(
        f"bisection did not reach residual {tol:.3e}; interval [{lo}, {hi}]"
    )


def variance_ratio_prediction(h: HamiltonianSpec, beta: float) -> float:
    """Z(2 beta) / Z(beta)^2, the purity of the canonical ensemble of H."""
    return math.exp(
        log_partition_function(h, 2.0 * beta) - 2.0 * log_partition_function(h, beta)
    )


@dataclass(frozen=True)
class EnergyShell:
    """Eigenvalue window [energy, energy + delta) of one Hamiltonian.

    Membership uses half-open semantics with a 1e-12 comparison slack so
    floating-point ties resolve deterministically.  ``member_ranks`` index
    into the sorted spectrum and are contiguous.
    """

    hamiltonian: HamiltonianSpec
    energy: float
    delta: float
    member_ranks: np.ndarray

    def __post_init__(self):
        ranks = np.asarray(self.member_ranks, dtype=np.int64)
        if ranks.size == 0:
            raise ValueError("energy shell contains no eigenvalues")
        ev = self.hamiltonian.eigenvalues[ranks]
        if ev.min() < self.energy - 1e-9 or ev.max() > self.energy + self.delta + 1e-9:
            raise ValueError("member eigenvalues fall outside the shell window")
        ranks.setflags(write=False)
        object.__setattr__(self, "member_ranks", ranks)

    @property
    def shell_dim(self) -> int:
        return self.member_ranks.shape[0]

    @property
    def midpoint_energy(self) -> float:
        return self.energy + 0.5 * self.delta

    def basis_columns(self) -> np.ndarray:
        return self.hamiltonian.eigenvector_columns(self.member_ranks)


def energy_shell(h: HamiltonianSpec, energy: float, delta: float) -> EnergyShell:
    """Members of [energy, energy + delta) among the sorted eigenvalues."""
    if delta <= 0:
        raise ValueError("shell width delta must be positive")
    ev = h.eigenvalues
    lo = np.searchsorted(ev, energy - SHELL_EDGE_TOL, side="left")
    hi = np.searchsorted(ev, energy + delta - SHELL_EDGE_TOL, side="left")
    if hi <= lo:
        raise ValueError(
            f"no eigenvalues in [{energy}, {energy + delta}) for {h.label!r}"
        )
    return EnergyShell(h, float(energy), float(delta), np.arange(lo, hi))


def microcanonical(
    h: HamiltonianSpec, energy: float, delta: float
) -> tuple[EnergyShell, DensityMatrix]:
    """The shell and the normalized projector onto it."""
    shell = energy_shell(h, energy, delta)
    k = shell.shell_dim
    if h.has_computational_bases:
        diag = np.zeros(h.dim, dtype=np.float64)
        diag[h.flat_indices(shell.member_ranks)] = 1.0 / k
        entries = np.diag(diag).astype(np.complex128)
    else:
        q = shell.basis_columns()
        entries = (q @ q.conj().T) / k
    return shell, DensityMatrix(entries, h.factorization, check_psd=False)


def sample_shell_state(stream_or_rng, shell: EnergyShell, size: int | None = None):
    """Uniform (Haar) random state within the shell's spanned subspace.

    Returns a normalized StateVector, or a (size, dim) array of normalized
    rows when ``size`` is given.
    """
    rng = _rng_of(stream_or_rng)
    n = size if size is not None else 1
    k = shell.shell_dim
    z = complex_normals(rng, (n, k))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    h = shell.hamiltonian
    if h.has_computational_bases:
        states = np.zeros((n, h.dim), dtype=np.complex128)
        states[:, h.flat_indices(shell.member_ranks)] = z
    else:
        states = z @ shell.basis_columns().T
        states /= np.linalg.norm(states, axis=1, keepdims=True)
    if size is None:
        return StateVector(states[0], h.factorization, normalized=True)
    return states


def _semicircle_quantiles(dim: int, radius: float) -> np.ndarray:
    """Midpoint quantiles of the semicircle law on [-radius, radius],
    mirrored so the spectrum is symmetric to machine precision."""

    def cdf(x: np.ndarray) -> np.ndarray:
        r = radius
        return 0.5 + (x * np.sqrt(r * r - x * x)) / (math.pi * r * r) + np.arcsin(
            x / r
        ) / math.pi

    half = dim // 2
    probs = (np.arange(half) + 0.5) / dim
    lo = np.full(half, -radius)
    hi = np.zeros(half)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < probs
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    left = 0.5 * (lo + hi)
    if dim % 2:
        return np.concatenate([left, [0.0], -left[::-1]])
    return np.concatenate([left, -left[::-1]])


def synth_bath_spectrum(
    stream_or_rng,
    dim: int,
    model: str,
    scale: float = 1.0,
    label: str = "B",
    basis: str = "identity",
) -> HamiltonianSpec:
    """Synthetic bath Hamiltonian with a chosen level-statistics model.

    ``equal_spaced``: arithmetic progression 0, scale, 2*scale, ...
    ``poisson_gaps``: level 0 at zero, then i.i.d. exponential gaps with
    mean ``scale``.
    ``semicircle``: deterministic quantiles of the semicircle law with
    radius ``scale``, symmetric about zero.

    ``basis`` selects the eigenbasis: the computational basis, or a Haar
    unitary drawn from the stream.
    """
    if model not in SPECTRUM_MODELS:
        raise ValueError(f"unknown spectrum model {model!r}; use {SPECTRUM_MODELS}")
    if dim < 1:
        raise ValueError("dim must be positive")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    # One generator for the whole call, so gap draws and a Haar eigenbasis
    # come from a single stream rather than two restarts of the same seed.
    rng = None if stream_or_rng is None else _rng_of(stream_or_rng)
    if model == "equal_spaced":
        ev = scale * np.arange(dim, dtype=np.float64)
    elif model == "poisson_gaps":
        if rng is None:
            raise ValueError("poisson_gaps requires a random stream")
        gaps = rng.exponential(scale, size=dim - 1) if dim > 1 else np.empty(0)
        ev = np.concatenate([[0.0], np.cumsum(gaps)])
    else:
        if scale == 0:
            ev = np.zeros(dim)
        else:
            ev = _semicircle_quantiles(dim, scale)
    if basis == "identity":
        b = None
    elif basis == "haar":
        if rng is None:
            raise ValueError("a haar eigenbasis requires a random stream")
        b = sample_haar_unitary(rng, dim)
    else:
        raise ValueError(f"unknown basis choice {basis!r}")
    return HamiltonianSpec.from_spectrum(ev, label=label, basis=b)
