"""Brute-force verifiers that audit the criteria against first principles.

Everything here is deliberately independent of the package's own
eigensolver: the package runs LAPACK's Hermitian driver (zheevd), while
every spectrum here comes from the general eigenvalue driver (zgeev), so
the audit and the artifact form a dual route. Random streams are
counter-based (Philox) and derived from (seed, trial index), so results
do not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import criteria
from .states import DensityMatrix, phi_plus, qutrit_me_basis

__all__ = [
    "SamplingBudget",
    "sampled_singlet_fraction",
    "wootters_concurrence",
    "inequality_harness",
    "HarnessReport",
    "CheckResult",
    "haar_unitary",
    "random_hermitian",
    "random_psd",
    "random_density_matrix",
]


@dataclass(frozen=True)
class SamplingBudget:
    """Number of Haar local-unitary pairs to draw, plus the stream seed."""

    n_unitaries: int
    seed: int = 0

    def __post_init__(self):
        if self.n_unitaries < 1:
            raise ValueError(f"n_unitaries must be >= 1, got {self.n_unitaries}")


def _rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fixing."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix by the general QR route."""
    return np.sort(np.linalg.eigvals(mat).real)


def random_density_matrix(
    d: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Generic full-rank state GG^dag / Tr, or a rank-limited projector mixture."""
    n = d * d
    cols = n if rank is None else max(1, min(rank, n))
    g = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)  # exact Hermitian symmetry, not just within tolerance
    m /= np.trace(m).real
    return DensityMatrix._with_spectrum(m, d, _spectrum(m))


def sampled_singlet_fraction(rho: DensityMatrix, budget: SamplingBudget) -> float:
    """Max overlap of rho with (U_A x U_B)|phi_d+> over sampled Haar pairs.

    The identity pair is always evaluated first, so the result is a lower
    bound on the fully entangled fraction that is monotone in the budget
    for a fixed seed. Samples are drawn from one sequential counter-based
    stream with a per-sample interleaved layout, so sample k is the same
    for every budget that reaches it.
    """
    d = rho.d
    psi = phi_plus(d).vec
    best = float(np.vdot(psi, rho.mat @ psi).real)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(budget.seed)))
    remaining = budget.n_unitaries
    while remaining > 0:
        take = min(8192, remaining)
        z = rng.standard_normal((take, 2, d, d, 2))
        g = z[..., 0] + 1j * z[..., 1]
        q, r = np.linalg.qr(g.reshape(take * 2, d, d))
        ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
        ph /= np.abs(ph)
        u = (q * ph[:, None, :]).reshape(take, 2, d, d)
        # (U_A x U_B)|phi+> flattens to rows of U_A U_B^T / sqrt(d)
        vs = np.einsum("kij,kaj->kia", u[:, 0], u[:, 1]).reshape(take, d * d) / np.sqrt(d)
        overlaps = np.einsum("ki,ij,kj->k", vs.conj(), rho.mat, vs).real
        best = max(best, float(overlaps.max()))
        remaining -= take
    return best


_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4))
    from the spectrum of rho (sy x sy) rho* (sy x sy), descending."""
    if rho.d != 2:
        raise criteria.DimensionUnsupported("concurrence is defined for d=2")
    r = rho.mat @ _YY @ rho.mat.conj() @ _YY
    lam = np.sort(np.sqrt(np.abs(np.linalg.eigvals(r).real)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    violations: int
    worst_slack: float
    worst_trial: int


@dataclass(frozen=True)
class HarnessReport:
    seed: int
    trials: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.checks)


# Each check maps a per-trial Generator to its worst signed margin;
# nonnegative means the inequality held with the stated slack to spare.

def _check_trace_sandwich(rng: np.random.Generator) -> float:
    dim = int(rng.integers(2, 10))
    a = random_hermitian(dim, rng)
    b = random_psd(dim, rng)
    w = _spectrum(a)
    tr_ab = np.einsum("ij,ji->", a, b).real
    tr_b = np.trace(b).real
    return min(tr_ab - w[0] * tr_b + 1e-9, w[-1] * tr_b - tr_ab + 1e-9)


def _check_weyl(rng: np.random.Generator) -> float:
    dim = int(rng.integers(2, 10))
    a = random_hermitian(dim, rng)
    b = random_hermitian(dim, rng)
    wa = _spectrum(a)
    wb = _spectrum(b)
    ws = _spectrum(a + b)
    return min(ws[-1] - (wa[-1] + wb[0]) + 1e-9, (wa[-1] + wb[-1]) - ws[-1] + 1e-9)


def _check_lambda_max_range(rng: np.random.Generator) -> float:
    d = int(rng.integers(2, 4))
    rho = random_density_matrix(d, rng)
    lam = _spectrum(rho.mat)[-1]
    return min(lam - 1.0 / (d * d) + 1e-10, 1.0 - lam + 1e-10)


def _check_fef_below_lambda_max_d2(rng: np.random.Generator) -> float:
    rho = random_density_matrix(2, rng)
    lam = _spectrum(rho.mat)[-1]
    return lam - criteria.fef_2qubit(rho) + 1e-9


def _check_basis_below_lambda_max_d3(rng: np.random.Generator) -> float:
    rho = random_density_matrix(3, rng)
    lam = _spectrum(rho.mat)[-1]
    return lam - criteria.singlet_fraction_basis(rho, qutrit_me_basis()) + 1e-9


def _check_dembo_quarter_sandwich(rng: np.random.Generator) -> float:
    d = int(rng.integers(2, 4))
    rho = random_density_matrix(d, rng)
    lam = _spectrum(rho.mat)[-1]
    lower, upper_q = criteria.dembo_bounds(rho, "quarter")
    _, upper_p = criteria.dembo_bounds(rho, "paper")
    return min(lam - lower + 1e-9, upper_q - lam + 1e-9, upper_p - upper_q + 1e-9)


DEFAULT_CHECKS = (
    ("trace_sandwich", _check_trace_sandwich),
    ("weyl_extremes", _check_weyl),
    ("lambda_max_range", _check_lambda_max_range),
    ("fef_below_lambda_max_d2", _check_fef_below_lambda_max_d2),
    ("basis_bound_below_lambda_max_d3", _check_basis_below_lambda_max_d3),
    ("dembo_quarter_sandwich", _check_dembo_quarter_sandwich),
)


def inequality_harness(trials: int, seed: int, checks=None) -> HarnessReport:
    """Run every registered inequality check over seeded random instances.

    Deterministic for a fixed seed; a violation is any check whose signed
    margin goes negative. ``checks`` overrides the default registry
    (used to exercise the failure path).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    registry = DEFAULT_CHECKS if checks is None else tuple(checks)
    results = []
    for ci, (name, fn) in enumerate(registry):
        worst = np.inf
        worst_trial = -1
        violations = 0
        for t in range(trials):
            rng = _rng(seed, ci * trials + t)
            slack = float(fn(rng))
            if slack < worst:
                worst = slack
                worst_trial = t
            if slack < 0.0:
                violations += 1
        results.append(CheckResult(name, trials, violations, worst, worst_trial))
    return HarnessReport(seed=seed, trials=trials, checks=results)
