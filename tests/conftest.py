import numpy as np
import pytest

from teleres.criteria import QUANTITIES
from teleres.oracle import _rng, random_density_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def partial_trace(mat: np.ndarray, d: int, keep: str) -> np.ndarray:
    """Independent partial-trace oracle by direct index summation."""
    r = mat.reshape(d, d, d, d)
    if keep == "first":
        return np.einsum("iaja->ij", r)
    if keep == "second":
        return np.einsum("iaib->ab", r)
    raise ValueError(keep)


def random_state(d: int, index: int, seed: int = 515):
    return random_density_matrix(d, _rng(seed, index))


def near_hermitian_2qubit() -> np.ndarray:
    """I/4 with 4.95e-11 moved from rho[i, j] to rho[j, i] for three pairs:
    a Hermiticity defect of 9.9e-11, inside the tolerance, whose magic-basis
    real part has a defect of 1.485e-10, outside it."""
    mat = np.eye(4, dtype=complex) / 4
    for i, j in ((0, 1), (0, 2), (1, 3)):
        mat[i, j] -= 4.95e-11
        mat[j, i] += 4.95e-11
    return mat


def sweep_quantities(family: str) -> str:
    """Every quantity a sweep of ``family`` accepts, comma-joined in table order."""
    return ",".join(q for q, (_, sweeps) in QUANTITIES.items() if sweeps is None or family in sweeps)
