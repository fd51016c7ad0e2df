"""Hamiltonian spectra, canonical ensembles, and microcanonical energy shells.

Every Hamiltonian here is diagonal in the product computational basis: it
is given by its sorted eigenvalues and, per rank, the computational-basis
index of its eigenvector in each tensor factor.  Composites built with
``build_composite`` are noninteracting (energies add, the weak-coupling
limit), so they stay diagonal, and an eigenvector is one-hot at a
row-major flat index.  Canonical states are therefore diagonal, and
shell states on spaces of dimension ~10^4 are assembled by
scattering coefficients rather than by dense matrix products.

Inverse temperatures enter through the canonical family
rho_beta = exp(-beta H) / Z(beta); the partition function is handled in log
space throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import _rng_of, complex_normals

SHELL_EDGE_TOL = 1e-12
SPECTRUM_MODELS = ("equal_spaced", "poisson_gaps", "semicircle")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Sorted spectrum of a Hamiltonian diagonal in the product basis.

    ``column_indices[m]`` names, per factor, the computational-basis index
    of the rank-m eigenvector's factor component.
    """

    eigenvalues: np.ndarray
    factor_dims: tuple[int, ...]
    column_indices: np.ndarray

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
        ev.setflags(write=False)
        ci.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "column_indices", ci)

    @classmethod
    def from_spectrum(cls, eigenvalues) -> "HamiltonianSpec":
        ev = np.asarray(eigenvalues, dtype=np.float64)
        order = np.argsort(ev, kind="stable")
        return cls(
            eigenvalues=ev[order],
            factor_dims=(ev.shape[0],),
            column_indices=order.reshape(-1, 1),
        )

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def flat_indices(self, ranks: np.ndarray) -> np.ndarray:
        """Row-major flat indices at which the given eigenvectors are one-hot."""
        cols = self.column_indices[np.asarray(ranks)]
        return np.ravel_multi_index(tuple(cols.T), self.factor_dims)


def build_composite(a: HamiltonianSpec, b: HamiltonianSpec) -> HamiltonianSpec:
    """Noninteracting composite of two Hamiltonians on the tensor-product
    space (``a`` before ``b``): every eigenvalue is a pairwise sum and every
    eigenvector a product of factor eigenvectors, re-sorted ascending."""
    sums = np.add.outer(a.eigenvalues, b.eigenvalues).reshape(-1)
    order = np.argsort(sums, kind="stable")
    ia, ib = np.divmod(order, b.dim)
    column_indices = np.concatenate(
        [a.column_indices[ia], b.column_indices[ib]], axis=1
    )
    return HamiltonianSpec(
        eigenvalues=sums[order],
        factor_dims=a.factor_dims + b.factor_dims,
        column_indices=column_indices,
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


def _boltzmann_weights(h: HamiltonianSpec, beta: float) -> np.ndarray:
    ev = h.eigenvalues
    shifted = -beta * ev
    shifted = shifted - shifted.max()
    w = np.exp(shifted)
    return w / w.sum()


def canonical_mean_energy(h: HamiltonianSpec, beta: float) -> float:
    """tr(rho_beta H), summed by numpy rather than BLAS: the bits then do
    not depend on the BLAS thread count, and neither does ``match_beta``."""
    return float(np.sum(_boltzmann_weights(h, beta) * h.eigenvalues))


def canonical_density_matrix(h: HamiltonianSpec, beta: float) -> np.ndarray:
    """rho_beta = exp(-beta H)/Z on the space of H, as a dense (dim, dim)
    complex matrix: meant for a system factor, not a large composite."""
    diag = np.zeros(h.dim, dtype=np.float64)
    diag[h.flat_indices(np.arange(h.dim))] = _boltzmann_weights(h, beta)
    return np.diag(diag).astype(np.complex128)


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


def energy_shell(h: HamiltonianSpec, energy: float, delta: float) -> EnergyShell:
    """Members of [energy, energy + delta) among the sorted eigenvalues."""
    if delta <= 0:
        raise ValueError("shell width delta must be positive")
    ev = h.eigenvalues
    lo = np.searchsorted(ev, energy - SHELL_EDGE_TOL, side="left")
    hi = np.searchsorted(ev, energy + delta - SHELL_EDGE_TOL, side="left")
    if hi <= lo:
        raise ValueError(f"no eigenvalues in [{energy}, {energy + delta})")
    return EnergyShell(h, float(energy), float(delta), np.arange(lo, hi))


def sample_shell_state(stream_or_rng, shell: EnergyShell, size: int) -> np.ndarray:
    """A (size, dim) array of normalized rows, each a uniform (Haar) random
    state within the shell's spanned subspace."""
    rng = _rng_of(stream_or_rng)
    z = complex_normals(rng, (size, shell.shell_dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    h = shell.hamiltonian
    states = np.zeros((size, h.dim), dtype=np.complex128)
    states[:, h.flat_indices(shell.member_ranks)] = z
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
    stream_or_rng, dim: int, model: str, scale: float = 1.0
) -> HamiltonianSpec:
    """Synthetic bath Hamiltonian with a chosen level-statistics model,
    diagonal in the computational basis.

    ``equal_spaced``: arithmetic progression 0, scale, 2*scale, ...
    ``poisson_gaps``: level 0 at zero, then i.i.d. exponential gaps with
    mean ``scale``; the only model that draws from the stream.
    ``semicircle``: deterministic quantiles of the semicircle law with
    radius ``scale``, symmetric about zero.
    """
    if model not in SPECTRUM_MODELS:
        raise ValueError(f"unknown spectrum model {model!r}; use {SPECTRUM_MODELS}")
    if dim < 1:
        raise ValueError("dim must be positive")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if model == "equal_spaced":
        ev = scale * np.arange(dim, dtype=np.float64)
    elif model == "poisson_gaps":
        if stream_or_rng is None:
            raise ValueError("poisson_gaps requires a random stream")
        rng = _rng_of(stream_or_rng)
        gaps = rng.exponential(scale, size=dim - 1) if dim > 1 else np.empty(0)
        ev = np.concatenate([[0.0], np.cumsum(gaps)])
    elif scale == 0:
        ev = np.zeros(dim)
    else:
        ev = _semicircle_quantiles(dim, scale)
    return HamiltonianSpec.from_spectrum(ev)
