"""Conditional states of a composite pure state, given one factor's outcome.

For a normalized state Psi on S (x) Y (x) s and an orthonormal basis {|y>}
of the conditioning factor Y, outcome y occurs with probability
||<y|Psi>||^2; the conditional wave function is the normalized partial inner
product <y|Psi>, and the conditional density matrix of S additionally traces
out the unobserved factor s.  The conditioning and traced factors are
addressed by label, so S itself may be a composite of several factors.

``condition_on_random_basis`` is the batched Monte Carlo form: it conditions
a stack of states, given as matrices, on independent Haar-random bases of
the conditioning factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .hilbert import (
    DensityMatrix,
    OrthonormalBasis,
    StateVector,
    partial_inner_product,
)
from .ensembles import _rng_of, sample_haar_frames

ZERO_WEIGHT = 1e-14


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


def condition_on_random_basis(stream_or_rng, a: np.ndarray) -> np.ndarray:
    """Condition a stack of states on independent Haar-random bases.

    ``a`` is an (n, keep, cond) stack with keep <= cond: row k of ``a[i]``
    holds the amplitudes of kept index k over the conditioning factor.  The
    result has the same shape; column y of ``result[i]`` is the unnormalized
    conditional <u_y|Psi_i>, and the whole matrix has the law of
    ``a[i] @ conj(U)`` for a Haar unitary U, drawn independently per i.

    Only keep directions of the conditioning factor ever meet the state.
    Write A = L Q with orthonormal rows in Q; then A conj(U) = L (Q conj(U)),
    and Q conj(U) is distributed like F^T for a Haar keep-frame F of
    C^cond.  L = R^H comes from the reduced QR of A^H, so each state costs
    one cond x keep QR instead of a cond x cond Haar unitary, and
    result @ result^H = A A^H holds exactly, rank-deficient A included.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] > a.shape[2]:
        raise ValueError(
            f"expected an (n, keep, cond) stack with keep <= cond, got {a.shape}"
        )
    n, keep, cond = a.shape
    r = np.linalg.qr(a.conj().transpose(0, 2, 1), mode="r")  # (n, keep, keep)
    frames = sample_haar_frames(stream_or_rng, cond, keep, n)
    return r.conj().transpose(0, 2, 1) @ frames.transpose(0, 2, 1)


def outcome_weights(c: np.ndarray) -> np.ndarray:
    """Born weights ||column y||^2 of (..., keep, cond) conditionals, with
    weights below the zero cutoff set to exactly zero."""
    w = np.sum(c.real**2 + c.imag**2, axis=-2)
    return np.where(w < ZERO_WEIGHT, 0.0, w)


def draw_outcomes(stream_or_rng, weights: np.ndarray) -> np.ndarray:
    """One outcome per row of an (n, cond) weight array, drawn with
    probability proportional to the weights.

    Uses one uniform u per row and returns #{y : cdf_y <= u}, the same
    inverse-CDF rule ``Generator.choice`` applies to a single row.
    """
    rng = _rng_of(stream_or_rng)
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(weights.shape[0])
    return np.count_nonzero(cdf <= u[:, None], axis=1)
