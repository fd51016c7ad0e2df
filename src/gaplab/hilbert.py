"""Distances between density matrices.

A density matrix is a (d, d) complex128 array.  On a composite space the
flat indices are row-major over the tensor factors, so a state's
amplitudes on S (x) B reshape to (dim_S, dim_B) with the S index varying
slowest.  Density matrices on named tensor factors, single states, and
the one-state operations on them are test oracles in
``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two density matrices."""
    eigs = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.sum(np.abs(eigs)))
