"""Labeled tensor-product spaces and density matrices on them.

A composite space is described by an ordered list of labeled tensor factors.
Flat vector and matrix indices are always row-major over the factors in the
order listed, so a state's amplitudes on S (x) B reshape to (dim_S, dim_B)
with the S index varying slowest.

Values are immutable after construction and validate their defining
properties on construction (tolerances noted per type).  The one-state
operations (state vectors, partial traces, partial inner products) are test
oracles in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
TRACE_TOL = 1e-10

# Eigenvalue checks cost O(dim^3); above this size they are skipped unless
# explicitly requested.
_PSD_CHECK_AUTO_LIMIT = 512


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpaceFactorization:
    """Ordered labeled tensor factors of a finite-dimensional Hilbert space."""

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


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two density matrices."""
    ma = a.entries if isinstance(a, DensityMatrix) else np.asarray(a)
    mb = b.entries if isinstance(b, DensityMatrix) else np.asarray(b)
    eigs = np.linalg.eigvalsh(ma - mb)
    return float(0.5 * np.sum(np.abs(eigs)))
