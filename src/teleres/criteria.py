"""Teleportation-usefulness criteria for bipartite mixed states.

Covers partial transposition and its structural physical approximation
(SPA), singlet-fraction estimates along three routes (filtered LOCC value,
basis overlap, exact two-qubit fully entangled fraction), the
maximum-eigenvalue criterion, teleportation-fidelity bounds, and two-sided
Dembo eigenvalue bounds from a bordered block split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    DimensionMismatch,
    hermitian_eigen,
    hermiticity_defect,
    tensor,
    trace_product,
)
from .states import DensityMatrix, MaximallyEntangledVector, phi_plus, qutrit_me_basis

__all__ = [
    "DimensionUnsupported",
    "FilterOperator",
    "DemboDecomposition",
    "CriterionReport",
    "Verdict",
    "partial_transpose",
    "is_npt",
    "spa_pt_2qubit",
    "spa_trace_identity",
    "x_opt",
    "f_opt_locc_pt",
    "f_opt_locc_spa",
    "sigma_spa_threshold",
    "optimize_filter",
    "singlet_fraction_basis",
    "fef_2qubit",
    "max_eigenvalue",
    "fidelity_from_fraction",
    "dembo_bounds",
    "verdict",
]

NPT_TOL = 1e-10


class DimensionUnsupported(ValueError):
    """Operation is only defined for a specific local dimension."""


@dataclass(frozen=True)
class FilterOperator:
    """Local filter diag(a, 1) on the first qubit, 0 <= a <= 1."""

    a: float

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"filter parameter a = {self.a!r} outside [0, 1]")

    @property
    def matrix(self) -> np.ndarray:
        return np.diag([self.a, 1.0]).astype(np.complex128)


def partial_transpose(rho: DensityMatrix, subsystem: str = "second") -> np.ndarray:
    """Transpose the indices of one subsystem only.

    Hermitian and trace-preserving but possibly non-PSD; a negative
    eigenvalue witnesses entanglement.
    """
    d = rho.d
    r = rho.mat.reshape(d, d, d, d)
    if subsystem == "second":
        out = r.transpose(0, 3, 2, 1)
    elif subsystem == "first":
        out = r.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")
    return np.ascontiguousarray(out.reshape(d * d, d * d))


def _pt_min(rho: DensityMatrix) -> float:
    return float(hermitian_eigen(partial_transpose(rho))[0])


def is_npt(rho: DensityMatrix) -> bool:
    """True iff the partial transpose has an eigenvalue below -1e-10."""
    return _pt_min(rho) < -NPT_TOL


def spa_pt_2qubit(rho: DensityMatrix) -> DensityMatrix:
    """Structural physical approximation of the partial transpose, two qubits.

    Entry map: diagonal (2 + e_ii)/9; off-diagonal (E12, E13, E14, E23,
    E24, E34) = (e12*, e13, e23, e14, e24, e34*)/9. Completely positive,
    so the output is always a valid state.
    """
    if rho.d != 2:
        raise DimensionUnsupported(f"SPA-PT entry map is defined for d=2, got d={rho.d}")
    e = rho.mat
    m = np.zeros((4, 4), dtype=np.complex128)
    for i in range(4):
        m[i, i] = (2.0 + e[i, i]) / 9.0
    m[0, 1] = np.conjugate(e[0, 1]) / 9.0
    m[0, 2] = e[0, 2] / 9.0
    m[0, 3] = e[1, 2] / 9.0
    m[1, 2] = e[0, 3] / 9.0
    m[1, 3] = e[1, 3] / 9.0
    m[2, 3] = np.conjugate(e[2, 3]) / 9.0
    for i in range(4):
        for j in range(i):
            m[i, j] = np.conjugate(m[j, i])
    return DensityMatrix(m, 2)


def x_opt(filt: FilterOperator, *, unit_trace: bool = False) -> np.ndarray:
    """Rank-one operator (A x I) P(phi2+) (A^dag x I) for the diag(a, 1) filter.

    Nonzero entries a^2/2, a/2, a/2, 1/2 at the four |00>/|11> corners.
    With ``unit_trace`` the operator is scaled by 2/(1 + a^2) so its trace
    is one, the normalization under which the SPA trace identity and the
    equivalence of the two LOCC-value routes are exact.
    """
    ai = tensor(filt.matrix, np.eye(2, dtype=np.complex128))
    v = ai @ phi_plus(2).vec
    x = np.outer(v, v.conj())
    if unit_trace:
        x = x / np.trace(x).real
    return x


def spa_trace_identity(x: np.ndarray, rho: DensityMatrix) -> float:
    """9 Tr(X rho~) - 2 with rho~ the SPA-PT of rho.

    Equals Tr(X rho^Gamma) exactly when Tr(X) = 1 (build X with
    ``x_opt(..., unit_trace=True)``); for general X the two sides differ
    by 2 Tr(X) - 2 because 9 rho~ = rho^Gamma + 2 I.
    """
    if hermiticity_defect(x) > 1e-10:
        raise ValueError("X must be Hermitian")
    spa = spa_pt_2qubit(rho)
    return 9.0 * trace_product(x, spa.mat).real - 2.0


def f_opt_locc_pt(rho: DensityMatrix, filt: FilterOperator, *, unit_trace: bool = False) -> float:
    """Filtered LOCC singlet-fraction value via the partial transpose:
    1/2 - Re Tr(X rho^Gamma)."""
    if rho.d != 2:
        raise DimensionUnsupported("filtered LOCC value is defined for d=2")
    x = x_opt(filt, unit_trace=unit_trace)
    return 0.5 - trace_product(x, partial_transpose(rho)).real


def f_opt_locc_spa(rho: DensityMatrix, filt: FilterOperator, *, unit_trace: bool = False) -> float:
    """Filtered LOCC singlet-fraction value via the SPA-PT:
    5/2 - 9 Re Tr(X rho~).

    With ``unit_trace`` this agrees with :func:`f_opt_locc_pt` to machine
    precision for every filter; with the literal (unnormalized) X the two
    routes differ by 1 - a^2.
    """
    if rho.d != 2:
        raise DimensionUnsupported("filtered LOCC value is defined for d=2")
    x = x_opt(filt, unit_trace=unit_trace)
    spa = spa_pt_2qubit(rho)
    return 2.5 - 9.0 * trace_product(x, spa.mat).real


def sigma_spa_threshold(re_f: float, e: float) -> float:
    """Smallest filter parameter for which the SPA route value drops to <= 1/2
    on the sigma family: (-Re f + sqrt(Re(f)^2 - 2e + 4)) / 2."""
    disc = re_f * re_f - 2.0 * e + 4.0
    if disc < 0.0:
        raise ValueError("threshold undefined: negative discriminant")
    return (-re_f + math.sqrt(disc)) / 2.0


def optimize_filter(rho: DensityMatrix) -> tuple[float, float]:
    """Maximize f_opt_locc_pt over the filter parameter a in [0, 1].

    The value is the concave quadratic
    1/2 - (a^2 rho_00 + 2a Re rho_12 + rho_33)/2 (Verstraete & Verschelde,
    PRL 90, 097901 (2003)), so a* = clip(-Re rho_12 / rho_00, 0, 1); when
    rho_00 = 0 it is linear and a* = 1 unless Re rho_12 > 0. Returns (a*, f*).
    """
    if rho.d != 2:
        raise DimensionUnsupported("filter optimization is defined for d=2")
    r00, re12 = float(rho.mat[0, 0].real), float(rho.mat[1, 2].real)
    a_star = min(1.0, max(0.0, -re12 / r00)) if r00 > 0.0 else float(re12 <= 0.0)
    return a_star, f_opt_locc_pt(rho, FilterOperator(a_star))


def singlet_fraction_basis(
    rho: DensityMatrix, basis: list[MaximallyEntangledVector]
) -> float:
    """Max overlap <B|rho|B> over the supplied maximally entangled set.

    A lower bound on the fully entangled fraction.
    """
    if not basis:
        raise ValueError("basis is empty")
    for b in basis:
        if b.vec.size != rho.dim:
            raise DimensionMismatch(
                f"basis vector of length {b.vec.size} does not match state dim {rho.dim}"
            )
    vecs = np.array([b.vec for b in basis])
    return float(np.einsum("ki,ij,kj->k", vecs.conj(), rho.mat, vecs).real.max())


_MAGIC = np.array(
    [
        [1, 0, 0, 1],
        [1j, 0, 0, -1j],
        [0, 1j, 1j, 0],
        [0, 1, -1, 0],
    ],
    dtype=np.complex128,
).T / math.sqrt(2.0)


def fef_2qubit(rho: DensityMatrix) -> float:
    """Exact fully entangled fraction of a two-qubit state.

    In the magic basis the maximally entangled states are exactly the real
    unit vectors (up to phase), so the maximum overlap is the top
    eigenvalue of the real part of rho in that basis.
    """
    if rho.d != 2:
        raise DimensionUnsupported("exact fully entangled fraction is defined for d=2")
    m = _MAGIC.conj().T @ rho.mat @ _MAGIC
    return float(hermitian_eigen(m.real.astype(np.complex128))[-1])


def max_eigenvalue(rho: DensityMatrix) -> float:
    return float(rho.spectrum[-1])


def fidelity_from_fraction(fraction: float, d: int) -> float:
    """Teleportation fidelity (d F + 1) / (d + 1) from a singlet fraction F."""
    if not -1e-12 <= fraction <= 1.0 + 1e-12:
        raise ValueError(f"singlet fraction {fraction!r} outside [0, 1]")
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    return (d * fraction + 1.0) / (d + 1.0)


@dataclass(frozen=True)
class DemboDecomposition:
    """Bordered block split [[R_sub, b], [b^dag, c]] of a Hermitian matrix.

    ``eta_low`` and ``eta_high`` bound the spectrum of R_sub from below
    and above.
    """

    r_sub: np.ndarray
    b: np.ndarray
    c: float
    eta_low: float
    eta_high: float

    @classmethod
    def from_matrix(
        cls,
        mat: np.ndarray,
        *,
        eta_low: float | None = None,
        eta_high: float | None = None,
    ) -> "DemboDecomposition":
        """Split off the last row/column; None eta bounds are computed
        exactly by eigensolving R_sub."""
        m = np.asarray(mat, dtype=np.complex128)
        n = m.shape[0]
        if n < 2:
            raise ValueError("Dembo split needs dim >= 2")
        r_sub = np.ascontiguousarray(m[: n - 1, : n - 1])
        b = np.ascontiguousarray(m[: n - 1, n - 1])
        c = float(m[n - 1, n - 1].real)
        if eta_low is None or eta_high is None:
            eig = hermitian_eigen(r_sub)
            if eta_low is None:
                eta_low = float(eig[0])
            if eta_high is None:
                eta_high = float(eig[-1])
        return cls(r_sub, b, c, float(eta_low), float(eta_high))

    def reassemble(self) -> np.ndarray:
        n = self.r_sub.shape[0] + 1
        m = np.zeros((n, n), dtype=np.complex128)
        m[: n - 1, : n - 1] = self.r_sub
        m[: n - 1, n - 1] = self.b
        m[n - 1, : n - 1] = self.b.conj()
        m[n - 1, n - 1] = self.c
        return m


def dembo_bounds(
    rho: DensityMatrix,
    variant: str = "paper",
    *,
    eta_low: float | None = None,
    eta_high: float | None = None,
) -> tuple[float, float]:
    """Two-sided bounds on the largest eigenvalue from the bordered split.

    lower = (c + eta_low)/2 + sqrt((c - eta_low)^2/4 + b^dag b); the upper
    bound uses eta_high with denominator 2 under the square root for
    variant "paper" and 4 for variant "quarter". The quarter variant is
    the classical tight form (the top eigenvalue of the 2x2 compression
    [[eta, |b|], [|b|, c]]); the paper variant is looser but is the one
    whose printed values this toolkit reproduces. None eta bounds are
    computed exactly; pass explicit values to replay quoted numbers.
    """
    if variant not in {"paper", "quarter"}:
        raise ValueError(f"variant must be 'paper' or 'quarter', got {variant!r}")
    dec = DemboDecomposition.from_matrix(rho.mat, eta_low=eta_low, eta_high=eta_high)
    lower, up_paper, up_quarter = _dembo_all(dec)
    return lower, up_paper if variant == "paper" else up_quarter


def _dembo_all(dec: DemboDecomposition) -> tuple[float, float, float]:
    """(lower, paper upper, quarter upper) from one split."""
    btb = float(np.vdot(dec.b, dec.b).real)
    lower = (dec.c + dec.eta_low) / 2.0 + math.sqrt((dec.c - dec.eta_low) ** 2 / 4.0 + btb)
    mid, gap2 = (dec.c + dec.eta_high) / 2.0, (dec.c - dec.eta_high) ** 2
    return lower, mid + math.sqrt(gap2 / 2.0 + btb), mid + math.sqrt(gap2 / 4.0 + btb)


class Verdict(str, Enum):
    USEFUL_BY_LAMBDA_MAX = "UsefulByLambdaMax"
    USEFUL_BY_DEMBO = "UsefulByDembo"
    USEFUL_BY_SINGLET_FRACTION = "UsefulBySingletFraction"
    SEPARABLE_BY_THEOREM2 = "SeparableByTheorem2"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CriterionReport:
    """Per-state verdict bundle; all bounds evaluated with exact eta."""

    d: int
    is_npt: bool
    lambda_max: float
    singlet_fraction_lower: float
    f_opt_locc: float | None
    dembo_lower: float
    dembo_upper_paper: float
    dembo_upper_quarter: float
    fidelity_upper: float
    verdict: Verdict
    dembo_variant: str


def _singlet_fraction_lower(rho: DensityMatrix) -> float:
    if rho.d == 2:
        return fef_2qubit(rho)
    if rho.d == 3:
        return singlet_fraction_basis(rho, qutrit_me_basis())
    v = phi_plus(rho.d).vec
    return float(np.vdot(v, rho.mat @ v).real)


def verdict(rho: DensityMatrix, dembo_variant: str = "paper") -> CriterionReport:
    """Classify a state by the weakest criterion that decides it.

    NPT with lam_max > 1/d is useful outright; otherwise an NPT state is
    useful when the selected Dembo upper bound clears 1/d, or when the
    singlet-fraction lower bound does. A state is reported separable only
    when it is confidently PPT and lam_max <= 1/d; everything else is
    inconclusive.
    """
    d = rho.d
    lam_max = max_eigenvalue(rho)
    pt_min = _pt_min(rho)
    npt = pt_min < -NPT_TOL
    ppt_confident = pt_min > NPT_TOL

    lower, up_paper, up_quarter = _dembo_all(DemboDecomposition.from_matrix(rho.mat))
    up_selected = up_paper if dembo_variant == "paper" else up_quarter

    frac = _singlet_fraction_lower(rho)
    f_opt = optimize_filter(rho)[1] if d == 2 else None
    threshold = 1.0 / d

    if npt and lam_max > threshold:
        v = Verdict.USEFUL_BY_LAMBDA_MAX
    elif npt and up_selected > threshold:
        v = Verdict.USEFUL_BY_DEMBO
    elif frac > threshold:
        v = Verdict.USEFUL_BY_SINGLET_FRACTION
    elif lam_max <= threshold and ppt_confident:
        v = Verdict.SEPARABLE_BY_THEOREM2
    else:
        v = Verdict.INCONCLUSIVE

    return CriterionReport(
        d=d,
        is_npt=npt,
        lambda_max=lam_max,
        singlet_fraction_lower=frac,
        f_opt_locc=f_opt,
        dembo_lower=lower,
        dembo_upper_paper=up_paper,
        dembo_upper_quarter=up_quarter,
        fidelity_upper=fidelity_from_fraction(min(lam_max, 1.0), d),
        verdict=v,
        dembo_variant=dembo_variant,
    )
