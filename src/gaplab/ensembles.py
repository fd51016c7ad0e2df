"""Random state ensembles: uniform, Gaussian, and Gaussian-adjusted-projected.

The Gaussian-adjusted-projected (GAP) distribution of a density matrix rho
is realized three independent ways, which agree exactly in law:

* ``sample_gap``: draw coordinates in the eigenvector basis of rho from
  the size-biased mixture that the norm-square adjustment of a product of
  complex Gaussians factors into, then project to the unit sphere.  One
  mixture index J is drawn with probability p_J, coordinate J gets its
  squared modulus from Gamma(shape 2, scale p_J) with a uniform phase, and
  every other coordinate stays an unbiased complex Gaussian.  Exact, O(dim)
  per draw, no rejection.
* ``sample_gap_via_dap``: push the uniform sphere distribution through
  sqrt(dim * rho), apply the norm-square adjustment by exact rejection
  (the adjusted weight is bounded by dim * max eigenvalue), and project.
* ``sample_gap_via_purification``: build a purification of rho on a
  doubled space, draw the ancilla vector from the norm-square-biased
  uniform distribution by exact rejection, and normalize the partial inner
  product with the purification.

``rejection_oracle_ga`` provides a deliberately naive fourth route to the
adjusted (pre-projection) ensemble for cross-checks in tests.

Every sampler takes rho as a (dim, dim) complex array, which it only
reads, and returns its draws as the rows of a (size, dim) array.

All draws flow through ``RandomStream``: a (seed, stream_index) pair that
deterministically names one PCG64 sequence, so every sampler is bit-for-bit
reproducible and independent streams can be assigned to parallel trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels


class AcceptanceStarvationError(RuntimeError):
    """Raised when a rejection loop accepts far less often than it should."""


@dataclass(frozen=True)
class RandomStream:
    """Deterministic name of one random sequence: a seed plus a stream index.

    Equal (seed, stream_index) pairs always reproduce the same draws, and
    distinct stream indexes give statistically independent sequences, so
    per-trial substreams make results independent of scheduling.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream_index < 0:
            raise ValueError("seed and stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_index,)
        )
        return np.random.Generator(np.random.PCG64(ss))


def _eigensystem(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues as a probability vector (clipped, renormalized) plus basis."""
    vals, vecs = np.linalg.eigh(rho)
    p = np.clip(vals, 0.0, None)
    p = p / p.sum()
    return p, vecs


def complex_normals(rng: np.random.Generator, shape, scale=1.0) -> np.ndarray:
    """A complex128 array whose real and imaginary parts are standard normals.

    All real parts are drawn before all imaginary parts, each block in C
    order, through one float buffer refilled in place.  The result and the
    generator state after the call equal those of
    ``(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale``
    bit for bit; ``scale`` broadcasts against ``shape`` and defaults to 1.
    """
    out = np.empty(shape, dtype=np.complex128)
    buf = np.empty(out.shape)
    for part in (out.real, out.imag):
        rng.standard_normal(out=buf)
        np.multiply(buf, scale, out=part)
    return out


def sample_complex_gaussian(stream_or_rng, variances, size: int) -> np.ndarray:
    """A (size, len(variances)) array of complex Gaussian draws: real and
    imaginary parts are independent N(0, variance/2), so E|X|^2 equals the
    requested variance."""
    rng = _rng_of(stream_or_rng)
    var = np.atleast_1d(np.asarray(variances, dtype=np.float64))
    if np.any(var < 0):
        raise ValueError("variances must be nonnegative")
    return complex_normals(rng, (size, var.shape[0]), np.sqrt(var / 2.0))


def _rng_of(stream_or_rng) -> np.random.Generator:
    if isinstance(stream_or_rng, RandomStream):
        return stream_or_rng.generator()
    if isinstance(stream_or_rng, np.random.Generator):
        return stream_or_rng
    raise TypeError("expected a RandomStream or numpy Generator")


def sample_uniform_sphere(stream_or_rng, dim: int, size: int) -> np.ndarray:
    """A (size, dim) array of rows drawn uniformly from the unit sphere of
    C^dim."""
    rng = _rng_of(stream_or_rng)
    z = complex_normals(rng, (size, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def sample_g(stream_or_rng, rho: np.ndarray, size: int) -> np.ndarray:
    """The Gaussian ensemble of rho: (size, dim) unnormalized rows with
    covariance rho.

    Coordinates in the eigenvector basis of rho are independent complex
    Gaussians whose variances are the eigenvalues; E |Psi|^2 = tr rho = 1.
    """
    p, vecs = _eigensystem(rho)
    rng = _rng_of(stream_or_rng)
    return sample_complex_gaussian(rng, p, size) @ vecs.T


def _ga_coefficients(rng: np.random.Generator, p: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized eigenvector-basis coordinates of n draws from the
    norm-square adjusted Gaussian ensemble, via its exact mixture
    decomposition."""
    d = p.shape[0]
    j_idx = rng.choice(d, size=n, p=p)
    coeffs = sample_complex_gaussian(rng, p, size=n)
    r = rng.gamma(2.0, scale=p[j_idx])
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    coeffs[np.arange(n), j_idx] = np.sqrt(r) * np.exp(1j * theta)
    return coeffs


def sample_ga(stream_or_rng, rho: np.ndarray, size: int) -> np.ndarray:
    """The adjusted (size-biased) Gaussian ensemble of rho, not yet projected.

    Each draw picks one eigendirection J with probability p_J, gives it
    squared modulus Gamma(2, p_J) with a uniform phase, and keeps plain
    complex Gaussians elsewhere; this is exactly the |psi|^2-reweighted
    Gaussian ensemble.  Returns (size, dim) unnormalized rows.
    """
    p, vecs = _eigensystem(rho)
    rng = _rng_of(stream_or_rng)
    return _ga_coefficients(rng, p, size) @ vecs.T


def sample_gap(stream_or_rng, rho: np.ndarray, size: int) -> np.ndarray:
    """GAP(rho) by the exact mixture construction: adjusted draw, projected."""
    p, vecs = _eigensystem(rho)
    rng = _rng_of(stream_or_rng)
    coeffs = _ga_coefficients(rng, p, size)
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    samples = coeffs @ vecs.T
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    return samples


def sample_d(stream_or_rng, rho: np.ndarray, size: int) -> np.ndarray:
    """Pushforward of the uniform sphere measure through sqrt(dim * rho):
    (size, dim) rows."""
    p, vecs = _eigensystem(rho)
    rng = _rng_of(stream_or_rng)
    d = p.shape[0]
    u = sample_uniform_sphere(rng, d, size)
    return (u * np.sqrt(d * p)) @ vecs.T


# Largest row block of a rejection sampler's proposal batch, in bytes.  A
# batch is about 1.3 * cap * size rows in rejection_oracle_ga (42 MB at
# dim 4, size 1e4, cap 50); glibc's malloc serves every request above 32 MiB
# with a fresh mmap, so one array that size adds to whatever freed heap
# memory happens to be resident instead of reusing it, and peak RSS then
# varies from run to run.
_BLOCK_BYTES = 8 << 20


def _normal_blocks(rng: np.random.Generator, n: int, d: int, scale=1.0) -> list:
    """``complex_normals(rng, (n, d), scale)`` as a list of row blocks of at
    most ``_BLOCK_BYTES``: the same draws, bit for bit, in the same generator
    order (all real parts, then all imaginary parts)."""
    step = max(1, _BLOCK_BYTES // (16 * d))
    blocks = [
        np.empty((min(step, n - start), d), dtype=np.complex128)
        for start in range(0, n, step)
    ]
    buf = np.empty(blocks[0].shape)
    for part in ("real", "imag"):
        for block in blocks:
            draw = buf[: len(block)]
            rng.standard_normal(out=draw)
            np.multiply(draw, scale, out=getattr(block, part))
    return blocks


def _accept_biased_sphere(
    rng: np.random.Generator, weights_of, dim: int, bound: float, n: int
) -> np.ndarray:
    """Draw n uniform-sphere coordinate rows accepted with probability
    weights_of(row) / bound.  Exact rejection; bound must dominate."""
    have = []
    count = 0
    expected_rate = max(1.0 / bound, 1e-6)
    while count < n:
        need = n - count
        chunk = max(256, int(1.6 * need / expected_rate) + 16)
        # The batch is complex_normals(rng, (chunk, dim)) in row blocks, so
        # the norms' and weights' temporaries are block-sized, and each
        # block is freed once its rows are accepted.  Every step acts row by
        # row, so the rows are the same bits as unblocked.
        blocks = _normal_blocks(rng, chunk, dim)
        thresholds = rng.uniform(0.0, 1.0, size=chunk) * bound
        start = 0
        while blocks:
            z = blocks.pop(0)
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            w = weights_of(z)
            if np.any(w > bound * (1 + 1e-9)):
                raise RuntimeError("rejection bound violated; bound does not dominate")
            accepted = z[thresholds[start : start + len(z)] < w]
            have.append(accepted)
            count += accepted.shape[0]
            start += len(z)
    return np.concatenate(have, axis=0)[:n]


def sample_gap_via_dap(stream_or_rng, rho: np.ndarray, size: int) -> np.ndarray:
    """GAP(rho) as adjust-then-project applied to the sqrt(dim*rho) pushforward.

    The adjustment density |psi|^2 on D(rho) draws is bounded by
    dim * max-eigenvalue, so plain rejection realizes it exactly.
    """
    p, vecs = _eigensystem(rho)
    rng = _rng_of(stream_or_rng)
    d = p.shape[0]
    scale2 = d * p  # squared coordinate scaling of the pushforward
    bound = float(scale2.max())

    def weights(u):
        return (np.abs(u) ** 2) @ scale2

    u = _accept_biased_sphere(rng, weights, d, bound, size)
    coeffs = u * np.sqrt(scale2)
    samples = coeffs @ vecs.T
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    return samples


def sample_gap_via_purification(
    stream_or_rng, rho: np.ndarray, size: int
) -> np.ndarray:
    """GAP(rho) by conditioning a purification on a biased ancilla draw.

    The ancilla vector is drawn from the uniform sphere reweighted by the
    squared norm of the partial inner product with the purification (exact
    rejection; the weight is bounded by the top eigenvalue of rho), and the
    partial inner product is then normalized.
    """
    p, vecs = _eigensystem(rho)
    rng = _rng_of(stream_or_rng)
    d = p.shape[0]
    bound = float(p.max())

    def weights(u):
        return (np.abs(u) ** 2) @ p

    psi2 = _accept_biased_sphere(rng, weights, d, bound, size)
    # <psi2|Phi> in rho's eigenvector basis: coordinate j is sqrt(p_j) * conj(psi2_j).
    coeffs = np.sqrt(p) * psi2.conj()
    samples = coeffs @ vecs.T
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    return samples


@dataclass(frozen=True)
class RejectionOracleResult:
    """Unnormalized adjusted-ensemble draws plus rejection diagnostics."""

    samples: np.ndarray
    cap: float
    acceptance_rate: float
    proposals: int
    tail_fraction: float  # fraction of proposals with |psi|^2 above the cap


def rejection_oracle_ga(
    stream_or_rng, rho: np.ndarray, cap: float = 50.0, size: int = 1
) -> RejectionOracleResult:
    """Slow reference sampler for the norm-square-adjusted Gaussian ensemble.

    Accepts Gaussian-ensemble draws with probability min(|psi|^2, cap)/cap.
    The capped weight truncates the (unbounded) adjustment, biasing the
    result by at most the tail probability of |psi|^2 beyond the cap, which
    is estimated from the proposals and reported.  Intended for tests only.
    """
    if cap < 50.0:
        raise ValueError("cap must be at least 50")
    rng = _rng_of(stream_or_rng)
    p, vecs = _eigensystem(rho)
    kept = []
    count = 0
    proposals = 0
    tail = 0
    while count < size:
        need = size - count
        chunk = max(512, int(1.3 * need * cap) + 16)
        blocks = _normal_blocks(rng, chunk, p.shape[0], np.sqrt(p / 2.0))
        thresholds = rng.uniform(0.0, 1.0, size=chunk) * cap
        proposals += chunk
        start = 0
        for block in blocks:
            w = np.einsum("ij,ij->i", block.real, block.real) + np.einsum(
                "ij,ij->i", block.imag, block.imag
            )
            tail += int(np.count_nonzero(w > cap))
            keep = thresholds[start : start + len(block)] < np.minimum(w, cap)
            kept.append(block[keep])
            count += int(np.count_nonzero(keep))
            start += len(block)
        # Starvation guard: the long-run acceptance rate sits near 1/cap
        # because the adjustment has unit mean; far below that means the
        # proposal ensemble is broken.
        if proposals >= 50 * cap and count / proposals < 0.2 / cap:
            raise AcceptanceStarvationError(
                f"acceptance rate {count / proposals:.2e} with cap {cap}"
            )
    coeffs = np.concatenate(kept, axis=0)[:size]
    samples = coeffs @ vecs.T
    return RejectionOracleResult(
        samples=samples,
        cap=float(cap),
        acceptance_rate=count / proposals,
        proposals=proposals,
        tail_fraction=tail / proposals,
    )


def sample_haar_frames(stream_or_rng, dim: int, k: int, count: int) -> np.ndarray:
    """A (count, dim, k) stack of Haar-random k-frames of C^dim.

    Each frame holds k orthonormal columns distributed like the first k
    columns of a Haar unitary: the Q factor of a dim x k complex Ginibre
    matrix, with the phases of R's diagonal absorbed so the factorization
    is unique (Mezzadri, arXiv:math-ph/0609050).  One stream or generator
    draws the real parts of all entries before the imaginary parts; a
    sequence of ``count`` generators draws frame i from the i-th alone.
    LAPACK factors each matrix of the stack on its own, so a frame has the
    same bits in any stack.
    """
    if not 1 <= k <= dim:
        raise ValueError(f"frame size {k} must lie in [1, {dim}]")
    scale = 1.0 / math.sqrt(2.0)
    if isinstance(stream_or_rng, (RandomStream, np.random.Generator)):
        z = complex_normals(_rng_of(stream_or_rng), (count, dim, k), scale)
    else:
        z = np.stack([complex_normals(g, (dim, k), scale) for g in stream_or_rng])
        if len(z) != count:
            raise ValueError(f"expected {count} generators, got {len(z)}")
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def sample_haar_unitary(stream_or_rng, dim: int) -> np.ndarray:
    """Haar-distributed unitary: a Haar frame with as many columns as rows;
    for a sequence of generators, a stack with one unitary from each."""
    if isinstance(stream_or_rng, (RandomStream, np.random.Generator)):
        return sample_haar_frames(stream_or_rng, dim, dim, 1)[0]
    return sample_haar_frames(stream_or_rng, dim, dim, len(stream_or_rng))


def sample_reduced_grams(
    stream_or_rng, probs, dim_traced: int, count: int
) -> np.ndarray:
    """A (count, d, d) stack of reduced matrices Phi Phi^dagger, d = len(probs),
    of Gaussian matrices Phi (d x dim_traced) with independent entries,
    E|Phi_ij|^2 = probs[i] / dim_traced: the reduced matrices of
    G(diag(probs) (x) 1/dim_traced) on system (x) traced.

    Phi Phi^dagger = D W D with D = diag(sqrt(probs / dim_traced)) and W
    complex Wishart with dim_traced degrees of freedom.  W is drawn exactly
    from its Bartlett factor (Goodman, Ann. Math. Statist. 34, 1963):
    W = T T^dagger with T lower-trapezoidal, d x r, r = min(d, dim_traced),
    a positive diagonal with |T_ii|^2 ~ Gamma(dim_traced - i) (i from 0),
    and standard complex normals (E|z|^2 = 1) below it.  A sample costs
    r gammas and at most d(d-1)/2 complex normals, not 2 d dim_traced
    normals.  RNG order: all gammas, in C order over (count, r), then the
    real parts of all entries below the diagonal, then their imaginary
    parts.
    """
    rng = _rng_of(stream_or_rng)
    p = np.asarray(probs, dtype=np.float64)
    d = p.shape[0]
    r = min(d, dim_traced)
    gammas = rng.standard_gamma(dim_traced - np.arange(r), size=(count, r))
    rows, cols = np.tril_indices(d, -1, r)
    t = np.zeros((count, d, r), dtype=np.complex128)
    t[:, np.arange(r), np.arange(r)] = np.sqrt(gammas)
    t[:, rows, cols] = complex_normals(
        rng, (count, rows.size), 1.0 / math.sqrt(2.0)
    )
    t *= np.sqrt(p / dim_traced)[:, None]
    return t @ t.conj().transpose(0, 2, 1)


def empirical_covariance(vectors: np.ndarray) -> np.ndarray:
    """Mean outer product of the rows, symmetrized against roundoff."""
    n = vectors.shape[0]
    m = kernels.sum_outer(np.ascontiguousarray(vectors)) / n
    return 0.5 * (m + m.conj().T)


GAP_SAMPLERS = {
    "GAP_def1": sample_gap,
    "DAP_def2": sample_gap_via_dap,
    "purification_def3": sample_gap_via_purification,
}
