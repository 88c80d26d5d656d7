"""Teleportation-usefulness criteria for bipartite mixed states.

Covers partial transposition and its structural physical approximation
(SPA, at every d), singlet-fraction estimates along three routes (filtered
LOCC value, basis overlap, exact two-qubit fully entangled fraction), the
maximum-eigenvalue criterion, teleportation-fidelity bounds, and two-sided
Dembo eigenvalue bounds from a bordered block split.

Every criterion also takes a stack of states (a (k, n, n) ``mat``) or a
vector of filter parameters, and gives per member what that member gives.
``QUANTITIES`` is the one table of what a verdict or a sweep reads: each
computes only the names it asks for, and a step several share once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import linalg
from .linalg import DimensionMismatch, hermiticity_defect, trace_product
from .states import DensityMatrix, MaximallyEntangledVector, _check_local_dim, phi_plus, qutrit_me_basis

__all__ = [
    "DimensionUnsupported",
    "FilterOperator",
    "DemboDecomposition",
    "CriterionReport",
    "Verdict",
    "partial_transpose",
    "is_npt",
    "spa_pt",
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
    "DEMBO_VARIANTS",
    "verdict",
]

NPT_TOL = 1e-10
DEMBO_VARIANTS = ("paper", "quarter")  # a split's upper bounds, as dembo_bounds, verdict and the CLI name them


class DimensionUnsupported(ValueError):
    """Operation is only defined for a specific local dimension."""


def _py(x):
    """One state's value as a Python scalar; a stack's values as their array."""
    a = np.asarray(x)
    return a.item() if a.ndim == 0 else a


def _vdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.vdot over the last axis, member by member, by the same BLAS dot; a numpy scalar for one pair."""
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0][()]


def _check_variant(variant: str) -> None:
    if variant not in DEMBO_VARIANTS:
        raise ValueError(f"variant must be {' or '.join(map(repr, DEMBO_VARIANTS))}, got {variant!r}")


@dataclass(frozen=True)
class FilterOperator:
    """Local filter diag(a, 1) on the first qubit, 0 <= a <= 1; an array
    ``a`` holds one filter per entry."""

    a: float | np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a)
        if not ((0.0 <= a) & (a <= 1.0)).all():  # NaN fails; an empty vector passes
            raise ValueError(f"filter parameter a = {self.a!r} outside [0, 1]")


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """rho^Gamma: transpose the indices of the second subsystem only.

    Hermitian and trace-preserving but possibly non-PSD; a negative
    eigenvalue witnesses entanglement. The first subsystem's partial
    transpose is this one's full transpose, so it has the same spectrum.
    """
    d = rho.d
    r = rho.mat.reshape(rho.mat.shape[:-2] + (d, d, d, d))
    return np.ascontiguousarray(r.swapaxes(-3, -1).reshape(rho.mat.shape))


def _pt_min(rho: DensityMatrix) -> np.ndarray:
    # rho^Gamma permutes the entries of rho, so it is as Hermitian as rho: no second check
    return linalg._eigvalsh(partial_transpose(rho))[..., 0][()]


def is_npt(rho: DensityMatrix) -> bool:
    """True iff the partial transpose has an eigenvalue below -1e-10."""
    return _py(_pt_min(rho) < -NPT_TOL)


def spa_pt(rho: DensityMatrix) -> DensityMatrix:
    """Structural physical approximation of the partial transpose:
    (rho^Gamma + d I) / (d^3 + 1) (Horodecki & Ekert, PRL 89, 127902 (2002)).

    The Choi matrix of id x T has smallest eigenvalue -d, so adding d Tr(.) I
    makes the map completely positive and its output a state; d^3 + 1 is
    the trace of rho^Gamma + d I. Off-diagonal entries are rho^Gamma's, divided.
    """
    d = rho.d
    m = partial_transpose(rho)
    np.einsum("...ii->...i", m)[...] += d  # a writable view of each diagonal
    m /= d**3 + 1
    return DensityMatrix(m, d)


spa_pt_2qubit = spa_pt  # the benchmark traces the map as criteria.spa_pt_2qubit


# the |00> and |11> amplitude of phi_2+, as phi_plus(2) holds it
_PHI2_AMP = 1.0 / math.sqrt(2.0)


def x_opt(filt: FilterOperator, *, unit_trace: bool = False) -> np.ndarray:
    """Rank-one operator (A x I) P(phi2+) (A^dag x I) for the diag(a, 1) filter.

    v v^dag with v = (a|00> + |11>)/sqrt(2): nonzero entries a^2/2, a/2,
    a/2, 1/2 at the four |00>/|11> corners; a vector of filter parameters
    gives a (k, 4, 4) stack. With ``unit_trace`` the operator is scaled by
    2/(1 + a^2) so its trace is one, the normalization under which the SPA
    trace identity 9 Tr(X rho~) - 2 = Tr(X rho^Gamma) and the two routes agree.
    """
    a = np.asarray(filt.a, dtype=np.float64)
    v0 = a * _PHI2_AMP
    x = np.zeros(a.shape + (4, 4), dtype=np.complex128)
    x[..., 0, 0] = v0 * v0
    x[..., 0, 3] = x[..., 3, 0] = v0 * _PHI2_AMP
    x[..., 3, 3] = _PHI2_AMP * _PHI2_AMP
    if unit_trace:
        x = x / (x[..., 0, 0].real + x[..., 3, 3].real)[..., None, None]
    return x


def spa_trace_identity(x: np.ndarray, rho: DensityMatrix) -> float | np.ndarray:
    """(d^3 + 1) Tr(X rho~) - d, rho~ the SPA-PT of rho; 9 Tr(X rho~) - 2 at d = 2.

    Equals Tr(X rho^Gamma) exactly when Tr(X) = 1 (at d = 2 build X with
    ``x_opt(..., unit_trace=True)``); for general X the two sides differ
    by d Tr(X) - d because (d^3 + 1) rho~ = rho^Gamma + d I; a stack gives one value per member.
    """
    if not np.max(hermiticity_defect(x), initial=0.0) <= linalg.HERMITIAN_TOL:  # NaN fails too
        raise ValueError("X must be Hermitian")
    return (rho.d**3 + 1) * trace_product(x, spa_pt(rho).mat).real - rho.d


def f_opt_locc_pt(rho: DensityMatrix, filt: FilterOperator, *, unit_trace: bool = False) -> float:
    """Filtered LOCC singlet-fraction value via the partial transpose:
    1/2 - Re Tr(X rho^Gamma)."""
    if rho.d != 2:
        raise DimensionUnsupported("filtered LOCC value is defined for d=2")
    x = x_opt(filt, unit_trace=unit_trace)
    return _py(0.5 - trace_product(x, partial_transpose(rho)).real)


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
    return _py(2.5 - 9.0 * trace_product(x, spa_pt(rho).mat).real)


def sigma_spa_threshold(re_f: float, e: float) -> float:
    """Smallest filter parameter for which the SPA route value drops to <= 1/2
    on the sigma family: (-Re f + sqrt(Re(f)^2 - 2e + 4)) / 2."""
    disc = re_f * re_f - 2.0 * e + 4.0
    if not 0.0 <= disc < math.inf:  # NaN and inf fail as well
        raise ValueError(f"threshold undefined: discriminant {disc!r} is negative or not finite")
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
    r00, re12 = rho.mat[..., 0, 0].real, rho.mat[..., 1, 2].real
    linear = r00 <= 0.0
    ratio = -re12 / np.where(linear, 1.0, r00)
    a_star = np.where(linear, re12 <= 0.0, np.where(ratio > 0.0, np.minimum(ratio, 1.0), 0.0))
    return _py(a_star), f_opt_locc_pt(rho, FilterOperator(a_star))


@functools.lru_cache(maxsize=16)  # keyed by the vectors' identity; they are immutable
def _support(basis: tuple[MaximallyEntangledVector, ...]) -> tuple:
    """(the vectors' length, then rows, cols, conj amplitudes, amplitudes of
    each vector's support: its nonzero indices, padded with zero-amplitude
    ones to the widest, ascending); vectors of mixed lengths raise."""
    sizes = {b.vec.size for b in basis}
    if len(sizes) != 1:
        raise DimensionMismatch(f"basis vectors have mixed lengths {sorted(sizes)}")
    vecs = np.array([b.vec for b in basis])
    width = int(np.count_nonzero(vecs, axis=1).max())
    idx = np.sort(np.argsort(vecs == 0, axis=1, kind="stable")[:, :width], axis=1)
    amps = np.take_along_axis(vecs, idx, axis=1)
    return vecs.shape[1], idx[:, :, None], idx[:, None, :], amps.conj(), amps


def singlet_fraction_basis(rho: DensityMatrix, basis: list[MaximallyEntangledVector]) -> float:
    """Max overlap <B|rho|B> over the supplied maximally entangled set.

    A lower bound on the fully entangled fraction. Each overlap is summed
    over its vector's support only (3 of 9 indices for the qutrit basis),
    with the same bits as the dense contraction: einsum adds the (i, j)
    terms in index order, and the terms it skips are exact zeros.
    """
    if not basis:
        raise ValueError("basis is empty")
    n, rows, cols, conj_amps, amps = _support(tuple(basis))
    if n != rho.dim:
        raise DimensionMismatch(f"basis vector of length {n} does not match state dim {rho.dim}")
    return _py(np.einsum("ki,...kij,kj->...k", conj_amps, rho.mat[..., rows, cols], amps).real.max(axis=-1))


_MAGIC = np.array(
    [[1, 0, 0, 1], [1j, 0, 0, -1j], [0, 1j, 1j, 0], [0, 1, -1, 0]], dtype=np.complex128
).T / math.sqrt(2.0)
_MAGIC_H = _MAGIC.conj().T  # a transposed view: a contiguous copy could take another BLAS path and round apart


def fef_2qubit(rho: DensityMatrix) -> float:
    """Exact fully entangled fraction of a two-qubit state.

    In the magic basis the maximally entangled states are exactly the real
    unit vectors (up to phase), so the maximum overlap is the top
    eigenvalue of the real part of rho in that basis. That real part is
    symmetric only up to rounding, so it is symmetrised, not checked again.
    """
    if rho.d != 2:
        raise DimensionUnsupported("exact fully entangled fraction is defined for d=2")
    r = (_MAGIC_H @ rho.mat @ _MAGIC).real
    return _py(linalg._eigvalsh((0.5 * (r + r.swapaxes(-1, -2))).astype(np.complex128))[..., -1])


def max_eigenvalue(rho: DensityMatrix) -> float:
    return _py(rho.spectrum[..., -1])


def fidelity_from_fraction(fraction: float, d: int) -> float:
    """Teleportation fidelity (d F + 1) / (d + 1) from a singlet fraction F."""
    f = np.asarray(fraction)
    if not ((-1e-12 <= f) & (f <= 1.0 + 1e-12)).all():  # NaN fails; an empty stack passes
        raise ValueError(f"singlet fraction {fraction!r} outside [0, 1]")
    _check_local_dim(d)
    return _py((d * f + 1.0) / (d + 1.0))


@dataclass(frozen=True)
class DemboDecomposition:
    """Bordered block split [[R_sub, b], [b^dag, c]] of a Hermitian matrix,
    with the two-sided bounds on its largest eigenvalue that it gives.

    ``eta_low`` and ``eta_high`` are the extreme eigenvalues of R_sub;
    ``r_sub`` is a read-only view of the matrix. The bounds are

    lower = (c + eta_low)/2 + sqrt((c - eta_low)^2/4 + b^dag b),
    upper_paper = (c + eta_high)/2 + sqrt((c - eta_high)^2/2 + b^dag b),

    and ``upper_quarter`` the same with 4 for 2 under the square root: the
    classical tight form, the top eigenvalue of the 2x2 compression
    [[eta, |b|], [|b|, c]]. The paper variant is looser but is the one
    whose printed values this toolkit reproduces. For one matrix the
    scalars are numpy floats; a stack splits member by member, and they
    are then arrays. The matrix is not checked for Hermiticity: pass a
    validated state's ``mat``, whose principal block R_sub is then as
    Hermitian as the state.
    """

    r_sub: np.ndarray
    b: np.ndarray
    c: float
    eta_low: float
    eta_high: float
    lower: float
    upper_paper: float
    upper_quarter: float

    @classmethod
    def from_matrix(cls, mat: np.ndarray, *, eta_high: float | None = None) -> "DemboDecomposition":
        """Split off the last row/column and bound the top eigenvalue, in one
        eigensolve of R_sub. A given ``eta_high``, which must be finite,
        replaces the exact one in the upper bounds, to replay a quoted value."""
        m = np.asarray(mat, dtype=np.complex128)
        n = m.shape[-1]
        if n < 2:
            raise ValueError("Dembo split needs dim >= 2")
        if not (eta_high is None or np.isfinite(eta_high).all()):
            raise ValueError(f"eta_high must be finite, got {eta_high!r}")
        # eigvalsh solves a strided R_sub with a copy's bits; a strided b would move the bounds an ulp
        r_sub = m[..., : n - 1, : n - 1]
        r_sub.setflags(write=False)
        b = np.ascontiguousarray(m[..., : n - 1, n - 1])
        eig = linalg._eigvalsh(r_sub)
        # [()] unwraps one matrix's 0-d arrays to numpy floats, as the arithmetic below returns them
        eta_low, eta_high = eig[..., 0][()], eig[..., -1][()] if eta_high is None else eta_high
        c = m[..., n - 1, n - 1].real[()]
        btb = _vdot(b, b).real
        # libm pow, like Python's float **; ndarray ** 2 would multiply instead
        low2, gap2 = np.float_power((c - eta_low, c - eta_high), 2)
        mid = (c + eta_high) / 2.0
        return cls(r_sub, b, c, eta_low, eta_high, (c + eta_low) / 2.0 + np.sqrt(low2 / 4.0 + btb),
                   mid + np.sqrt(gap2 / 2.0 + btb), mid + np.sqrt(gap2 / 4.0 + btb))


def dembo_bounds(rho: DensityMatrix, variant: str = "paper", *, eta_high: float | None = None) -> tuple[float, float]:
    """(lower, upper) bound on the largest eigenvalue: the ``lower`` and the
    ``upper_<variant>`` of the state's :class:`DemboDecomposition`. The
    exact eta_high is used unless one is given, to replay a quoted number."""
    _check_variant(variant)
    dec = DemboDecomposition.from_matrix(rho.mat, eta_high=eta_high)
    return _py(dec.lower), _py(getattr(dec, "upper_" + variant))


class Verdict(str, Enum):
    """The labels of ``verdict``, in the order it tries their rules."""

    USEFUL_BY_LAMBDA_MAX = "UsefulByLambdaMax"
    USEFUL_BY_DEMBO = "UsefulByDembo"
    USEFUL_BY_SINGLET_FRACTION = "UsefulBySingletFraction"
    SEPARABLE_BY_THEOREM2 = "SeparableByTheorem2"
    INCONCLUSIVE = "Inconclusive"


_RULE_VERDICTS = tuple(Verdict)


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


def _singlet_fraction_lower(rho: DensityMatrix) -> float | np.ndarray:
    if rho.d == 2:
        return fef_2qubit(rho)
    if rho.d == 3:
        return singlet_fraction_basis(rho, qutrit_me_basis())
    v = phi_plus(rho.d).vec
    return _vdot(v, rho.mat @ v).real


def _first_rule(s: _Memo, rho: DensityMatrix) -> list[Verdict]:
    """Each member's verdict: the first of :func:`verdict`'s rules that fires."""
    npt, lam_max, threshold = s.get("is_npt"), s.get("lambda_max"), 1.0 / rho.d
    first = np.array((
        npt & (lam_max > threshold),
        npt & (s.get("dembo_upper_" + s.dembo_variant) > threshold),
        s.get("singlet_fraction_lower") > threshold,
        (lam_max <= threshold) & (s.get("pt_min") > NPT_TOL),
        npt | True,  # inconclusive: the rule that always fires
    )).argmax(axis=0)
    return [_RULE_VERDICTS[r] for r in first.reshape(-1).tolist()]


# name -> (its value, as its kernel returns it, from the stack's _Memo and the stack; the families
# whose sweeps may ask for it: None for every family, () for none). Kernels are called through
# their module globals, so a rebound module attribute is what runs.
QUANTITIES = {
    "pt_min": (lambda s, rho: _pt_min(rho), ()),
    "dembo": (lambda s, rho: DemboDecomposition.from_matrix(rho.mat), ()),
    "is_npt": (lambda s, rho: s.get("pt_min") < -NPT_TOL, None),
    # [()] unwraps one state's 0-d array to a numpy scalar, on which every operator is a full ufunc call
    "lambda_max": (lambda s, rho: rho.spectrum[..., -1][()], None),
    "singlet_fraction_lower": (lambda s, rho: _singlet_fraction_lower(rho), None),
    "f_opt_locc": (lambda s, rho: optimize_filter(rho)[1] if rho.d == 2 else [None] * np.size(s.get("lambda_max")), ()),
    "dembo_lower": (lambda s, rho: s.get("dembo").lower, None),
    "dembo_upper_paper": (lambda s, rho: s.get("dembo").upper_paper, None),
    "dembo_upper_quarter": (lambda s, rho: s.get("dembo").upper_quarter, None),
    "fidelity_upper": (lambda s, rho: fidelity_from_fraction(np.minimum(s.get("lambda_max"), 1.0), rho.d), None),
    "verdict": (_first_rule, None),
    "f_opt_spa": (lambda s, rho: f_opt_locc_spa(rho, FilterOperator(s.params)), ("sigma",)),
    "f_opt_pt": (lambda s, rho: f_opt_locc_pt(rho, FilterOperator(s.params)), ("sigma",)),
}

_REPORT_FIELDS = [f.name for f in fields(CriterionReport)][1:-1]  # between d and dembo_variant


class _Memo:
    """The quantities of one stack asked for so far, each computed on first use."""

    __slots__ = ("rho", "dembo_variant", "params", "values")

    def get(self, name: str):
        if name not in self.values:
            self.values[name] = QUANTITIES[name][0](self, self.rho)
        return self.values[name]


def _columns(rho: DensityMatrix, names, dembo_variant: str, params: np.ndarray | None = None) -> list[list]:
    """The named quantities of every member, one Python list per name; ``params`` feed the filter's."""
    _check_variant(dembo_variant)
    memo = _Memo()  # no __init__: a Python one would be called from C, which costs more than these stores
    memo.rho, memo.dembo_variant, memo.params, memo.values = rho, dembo_variant, params, {}
    # a value is a list, an array or one state's scalar; float() and np.asarray's tolist() beat a numpy scalar's own
    return [[float(v)] if isinstance(v, float) else v if type(v) is list else np.asarray(v).ravel().tolist()
            for v in map(memo.get, names)]


def verdict(rho: DensityMatrix, dembo_variant: str = "paper") -> CriterionReport | list[CriterionReport]:
    """Classify a state by the weakest criterion that decides it.

    NPT with lam_max > 1/d is useful outright; otherwise an NPT state is
    useful when the selected Dembo upper bound clears 1/d, or when the
    singlet-fraction lower bound does. Confidently PPT with lam_max <= 1/d
    is SeparableByTheorem2: not useful, even after LOCC (Rains, PRA 60, 179
    (1999)), but not certified separable, since at d >= 3 a PPT state can
    be entangled (P. Horodecki, PLA 232, 333 (1997)). Everything else is
    inconclusive. ``fidelity_upper`` bounds the standard protocol after
    local unitaries, not after one-way LOCC. A stack of states gives a
    list with one report per member, each equal to the report of that
    member alone. The reports are the rows of the columns a sweep writes,
    so both share one path.
    """
    columns = _columns(rho, _REPORT_FIELDS, dembo_variant)
    reports = [CriterionReport(rho.d, *row, dembo_variant) for row in zip(*columns)]
    return reports if rho.mat.ndim == 3 else reports[0]
