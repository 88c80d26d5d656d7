"""Dense complex Hermitian linear algebra for small matrices (dim <= 16).

The eigensolver is LAPACK's Hermitian driver through ``np.linalg.eigh``:
deterministic for identical input, with eigenvalues in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
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


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors[:, i]`` is the
    unit eigenvector for ``eigenvalues[i]``. Ties keep the order of the
    original diagonal index.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_complex_matrix(mat: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(mat, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(mat: np.ndarray) -> float:
    """max |M_ij - conj(M_ji)| over all entries."""
    m = as_complex_matrix(mat)
    return float(np.abs(m - m.conj().T).max(initial=0.0))


def hermitian_eigen(mat: np.ndarray) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix.

    Deterministic for identical input. Raises :class:`NotHermitian` when
    the Hermiticity defect exceeds 1e-10 or is not finite, and
    :class:`NoConvergence` when LAPACK reports no convergence.
    """
    m = as_complex_matrix(mat)
    defect = hermiticity_defect(m)
    # NaN-safe: a NaN or inf entry fails here and never reaches LAPACK
    if not defect <= HERMITIAN_TOL:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}")
    # eigh reads one triangle only; symmetrise so both halves count
    try:
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver did not converge (n={m.shape[0]}): {exc}") from exc
    return EigenDecomposition(vals, vecs)


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
