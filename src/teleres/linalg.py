"""Dense complex Hermitian linear algebra for small matrices (dim <= 16).

The eigensolver is LAPACK's Hermitian driver through
``np.linalg.eigvalsh``: eigenvalues only, deterministic for identical
input and in ascending order. One private helper, ``_eigvalsh``, is the
only caller of that driver. It reads one triangle and checks nothing, so
it is called directly only on matrices known to be Hermitian: a validated
state's symmetrised stack, its partial transpose, its principal blocks and
its symmetrised magic-basis real part. :func:`hermitian_eigen` is the
checked entry point for any other matrix. Every routine takes one (n, n)
matrix or a (k, n, n) stack of them and works on each member alike.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotHermitian",
    "NoConvergence",
    "DimensionMismatch",
    "hermitian_eigen",
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
    """A square matrix, or a (k, n, n) stack of them, as contiguous complex."""
    m = np.ascontiguousarray(mat, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def hermiticity_defect(mat: np.ndarray) -> float | np.ndarray:
    """max |M_ij - conj(M_ji)| over all entries; inf for a non-finite entry.
    A stack gives one defect per member."""
    m = as_complex_matrix(mat)
    with np.errstate(over="ignore", invalid="ignore"):  # a difference near 2e308 overflows; inf - inf is NaN
        defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    defect = np.where(np.isfinite(m).all(axis=(-2, -1)), defect, np.inf)
    return float(defect) if m.ndim == 2 else defect


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or stack, read from its
    lower triangle; :class:`NoConvergence` when LAPACK does not converge."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver did not converge (n={m.shape[-1]}): {exc}") from exc


def hermitian_eigen(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each member of a
    (k, n, n) stack as a (k, n) array.

    Deterministic for identical input. Raises :class:`NotHermitian` when
    a Hermiticity defect exceeds 1e-10, as it does for any non-finite
    entry, and :class:`NoConvergence` when LAPACK reports no convergence.
    """
    m = as_complex_matrix(mat)
    defect = np.max(hermiticity_defect(m), initial=0.0)
    if defect > HERMITIAN_TOL:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}")
    # eigvalsh reads one triangle only; symmetrise so both halves count, each halved so no sum overflows
    return _eigvalsh(0.5 * m + 0.5 * m.conj().swapaxes(-1, -2))


def trace_product(amat: np.ndarray, bmat: np.ndarray) -> complex | np.ndarray:
    """Tr(A B) as sum_ij A_ij B_ji, without forming the matrix product.

    A stack on either side gives one trace per member; a single matrix
    pairs with every member of the other side.
    """
    a = as_complex_matrix(amat)
    b = as_complex_matrix(bmat)
    if a.shape[-2:] != b.shape[-2:]:
        raise DimensionMismatch(f"trace_product needs equal dims, got {a.shape} and {b.shape}")
    tr = np.einsum("...ij,...ji->...", a, b)
    return complex(tr) if tr.ndim == 0 else tr
