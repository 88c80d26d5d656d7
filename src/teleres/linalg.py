"""Dense complex Hermitian linear algebra for small matrices (dim <= 16).

The eigensolver is LAPACK's Hermitian driver through
``np.linalg.eigvalsh``: eigenvalues only, deterministic for identical
input and in ascending order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotHermitian",
    "NoConvergence",
    "DimensionMismatch",
    "hermitian_eigen",
    "tensor",
    "trace_product",
    "hermiticity_defect",
]

HERMITIAN_TOL = 1e-10


class NotHermitian(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergence(RuntimeError):
    """The eigensolver did not converge."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


def as_complex_matrix(mat: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(mat, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(mat: np.ndarray) -> float:
    """max |M_ij - conj(M_ji)| over all entries; inf for a non-finite entry."""
    m = as_complex_matrix(mat)
    if not np.isfinite(m).all():
        return np.inf
    return float(np.abs(m - m.conj().T).max(initial=0.0))


def hermitian_eigen(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix.

    Deterministic for identical input. Raises :class:`NotHermitian` when
    the Hermiticity defect exceeds 1e-10, as it does for any non-finite
    entry, and
    :class:`NoConvergence` when LAPACK reports no convergence.
    """
    m = as_complex_matrix(mat)
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}")
    # eigvalsh reads one triangle only; symmetrise so both halves count
    try:
        return np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver did not converge (n={m.shape[0]}): {exc}") from exc


def tensor(amat: np.ndarray, bmat: np.ndarray) -> np.ndarray:
    """Kronecker product, subsystem-A-major: |i_A i_B> -> i_A * d_B + i_B."""
    return np.kron(
        np.asarray(amat, dtype=np.complex128), np.asarray(bmat, dtype=np.complex128)
    )


def trace_product(amat: np.ndarray, bmat: np.ndarray) -> complex:
    """Tr(A B) as sum_ij A_ij B_ji, without forming the matrix product."""
    a = as_complex_matrix(amat)
    b = as_complex_matrix(bmat)
    if a.shape != b.shape:
        raise DimensionMismatch(f"trace_product needs equal dims, got {a.shape} and {b.shape}")
    return complex(np.einsum("ij,ji->", a, b))
