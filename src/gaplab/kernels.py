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


def conditional_dms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized conditional matrices A_y A_y^dagger and their weights.

    For an (a, b, c) tensor, slice y gives A_y = t[:, y, :]; the result is a
    (b, a, a) stack of A_y A_y^dagger plus the (b,) vector of traces.
    """
    a_y = np.ascontiguousarray(t.transpose(1, 0, 2))
    grams = a_y @ a_y.conj().transpose(0, 2, 1)
    weights = np.einsum("yii->y", grams).real
    return grams, weights


def quad_forms(mats: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Re <phi| M_t |phi> across a (T, d, d) stack of Hermitian matrices."""
    return np.einsum("i,tij,j->t", phi.conj(), mats, phi).real
