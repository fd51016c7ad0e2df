"""Hot array kernels, each one numpy expression.

Randomness never enters here.  Callers reach the kernels through this
module's namespace (``kernels.<name>``), so a profiler that rebinds a name
here sees every call.
"""

from __future__ import annotations

import numpy as np


def sum_outer(vectors: np.ndarray) -> np.ndarray:
    """Sum of outer products v_n v_n^dagger over the rows of an (N, d) array."""
    return vectors.T @ vectors.conj()


def conditional_dms(
    a_y: np.ndarray, conj_out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized conditional matrices A_y A_y^dagger and their weights.

    For an (n, a, c) stack of blocks A_y, the result is the (n, a, a) stack
    of A_y A_y^dagger plus the (n,) vector of their traces.  ``conj_out``,
    an array shaped like ``a_y``, receives conj(A_y) in place of a new one.
    """
    grams = a_y @ np.conjugate(a_y, out=conj_out).transpose(0, 2, 1)
    weights = np.einsum("yii->y", grams).real
    return grams, weights


def quad_forms(mats: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Re <phi| M_t |phi> across a (T, d, d) stack of Hermitian matrices."""
    return np.einsum("i,tij,j->t", phi.conj(), mats, phi).real
