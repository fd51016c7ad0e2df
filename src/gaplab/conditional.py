"""Conditioning stacks of composite pure states on random bases.

For a normalized state Psi on S (x) Y (x) s and an orthonormal basis {|y>}
of the conditioning factor Y, outcome y occurs with probability
||<y|Psi>||^2; the conditional wave function is the normalized partial inner
product <y|Psi>, and the conditional density matrix of S additionally traces
out the unobserved factor s.

``condition_on_random_basis`` conditions a stack of states, each written as
a (keep, cond) matrix, on independent Haar-random bases of the conditioning
factor, for any keep and cond.  ``outcome_weights`` and ``draw_outcomes``
then give the Born weights and one drawn outcome per state.  The exact
one-state forms (a given basis, a named traced factor) are test oracles in
``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np

from .ensembles import RandomStream, _rng_of, sample_haar_frames, sample_haar_unitary

ZERO_WEIGHT = 1e-14


def condition_on_random_basis(
    stream_or_rng, a: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Condition a stack of states on independent Haar-random bases.

    ``a`` is an (n, keep, cond) stack: row k of ``a[i]`` holds the
    amplitudes of kept index k over the conditioning factor.  The result
    has the same shape; column y of ``result[i]`` is the unnormalized
    conditional <u_y|Psi_i>, and the whole matrix has the law of
    ``a[i] @ conj(U)`` for a Haar unitary U, drawn independently per i.
    ``stream_or_rng`` is one stream or generator for the whole stack, or a
    sequence of n generators, one per state.  ``out``, an (n, keep, cond)
    array, receives the result in place of a new one, with the same bits
    when laid out as a new result would be (see below).

    With keep >= cond, U is drawn in full and the result is a transposed
    view of the C-order batched product U^H a^T: when ``a`` is itself a
    transposed view of an (n, cond, keep) stack, the rotation copies
    nothing.  With keep < cond the result is in C order, and only keep
    directions of the conditioning factor ever meet the state.  Write
    A = L Q with orthonormal rows in Q; then A conj(U) = L (Q conj(U)), and
    Q conj(U) is distributed like F^T for a Haar keep-frame F of C^cond.
    L = R^H comes from the reduced QR of A^H, so each state costs one
    cond x keep QR instead of a cond x cond Haar unitary.  Either way
    result @ result^H = A A^H holds exactly, rank-deficient A included.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 3:
        raise ValueError(f"expected an (n, keep, cond) stack, got {a.shape}")
    n, keep, cond = a.shape
    if keep >= cond:
        if isinstance(stream_or_rng, (RandomStream, np.random.Generator)):
            stream_or_rng = [_rng_of(stream_or_rng)] * n
        u = sample_haar_unitary(stream_or_rng, cond)
        rotated = np.matmul(
            u.conj().transpose(0, 2, 1),
            a.transpose(0, 2, 1),
            out=None if out is None else out.transpose(0, 2, 1),
        )
        return rotated.transpose(0, 2, 1)
    r = np.linalg.qr(a.conj().transpose(0, 2, 1), mode="r")  # (n, keep, keep)
    frames = sample_haar_frames(stream_or_rng, cond, keep, n)
    return np.matmul(
        r.conj().transpose(0, 2, 1), frames.transpose(0, 2, 1), out=out
    )


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
