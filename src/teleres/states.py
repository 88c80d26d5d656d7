"""Validated density matrices and a catalog of named bipartite states.

Basis ordering is subsystem-A-major throughout: |i_A i_B> maps to index
i_A * d + i_B.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

from . import linalg
from .linalg import hermitian_eigen

__all__ = [
    "DensityMatrix",
    "MaximallyEntangledVector",
    "NotAState",
    "ParseError",
    "phi_plus",
    "sigma_family",
    "rho1",
    "rho2",
    "rho3",
    "rho_alpha",
    "noisy_singlet",
    "qutrit_me_basis",
    "load_state",
    "save_state",
]

TRACE_TOL = 1e-12
PSD_TOL = 1e-10
THEOREM_BOUND_TOL = 1e-10

# the printed parameter interval of rho2 overshoots exact positivity by
# ~1.2e-4 at its top end; this floor admits the full printed interval
RHO2_PSD_TOL = 2e-4


class NotAState(ValueError):
    """Matrix violates a density-matrix invariant; the message names it."""


class ParseError(ValueError):
    """State file is malformed."""


def _checked_matrix(mat: np.ndarray, d: int | None) -> tuple[np.ndarray, int]:
    """The d^2 x d^2 complex matrix and its local dimension, once shape,
    finiteness, Hermiticity and unit trace hold; the spectrum is checked by
    the caller."""
    m = linalg.as_complex_matrix(mat)
    n = m.shape[0]
    if d is None:
        d = math.isqrt(n)
    if d < 2 or d * d != n:
        raise NotAState(f"matrix of dim {n} is not a d x d bipartite state (d={d})")
    if not np.isfinite(m).all():
        raise NotAState("matrix has a non-finite entry (NaN or inf)")

    defect = linalg.hermiticity_defect(m)
    if defect > linalg.HERMITIAN_TOL:
        raise NotAState(f"not Hermitian: defect {defect:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotAState(f"trace is {tr.real:.15f}, not 1")
    return m, int(d)


class DensityMatrix:
    """A d x d bipartite state: Hermitian, unit trace, PSD within tolerance.

    ``mat`` is the d^2 x d^2 matrix, ``d`` the local dimension and
    ``spectrum`` the ascending eigenvalues computed at validation time.
    """

    __slots__ = ("mat", "d", "spectrum")

    def __init__(self, mat: np.ndarray, d: int | None = None, *, psd_tol: float = PSD_TOL):
        m, d = _checked_matrix(mat, d)
        self._accept(m, d, hermitian_eigen(m), psd_tol)

    @classmethod
    def _with_spectrum(cls, mat: np.ndarray, d: int, spectrum: np.ndarray) -> DensityMatrix:
        """A state checked exactly as the constructor checks it, against an
        ascending ``spectrum`` of ``mat`` that the caller computed.

        The audit oracle passes a spectrum from its own eigenvalue route
        here, so that it never runs the eigensolver it audits.
        """
        m, d = _checked_matrix(mat, d)
        state = cls.__new__(cls)
        state._accept(m, d, spectrum, PSD_TOL)
        return state

    def _accept(self, m: np.ndarray, d: int, spectrum: np.ndarray, psd_tol: float) -> None:
        lam_min = float(spectrum[0])
        lam_max = float(spectrum[-1])
        if lam_min < -psd_tol:
            raise NotAState(f"not positive semidefinite: min eigenvalue {lam_min:.3e}")
        if lam_max > 1.0 + THEOREM_BOUND_TOL:
            raise NotAState(f"max eigenvalue {lam_max:.12f} exceeds 1")
        if lam_max < 1.0 / (d * d) - THEOREM_BOUND_TOL:
            raise NotAState(f"max eigenvalue {lam_max:.12f} below 1/d^2")

        m.setflags(write=False)
        self.mat = m
        self.d = d
        self.spectrum = spectrum

    @property
    def dim(self) -> int:
        return self.d * self.d

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DensityMatrix(d={self.d}, lam_max={self.spectrum[-1]:.6f})"


class MaximallyEntangledVector:
    """Unit vector in C^(d^2) whose one-sided reductions are both I_d / d."""

    __slots__ = ("vec", "d")

    def __init__(self, vec: np.ndarray):
        v = np.ascontiguousarray(vec, dtype=np.complex128)
        if v.ndim != 1:
            raise NotAState("expected a 1-D amplitude vector")
        d = math.isqrt(v.size)
        if d < 2 or d * d != v.size:
            raise NotAState(f"vector of length {v.size} is not bipartite d x d")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-12:
            raise NotAState(f"norm is {norm:.15f}, not 1")
        psi = v.reshape(d, d)
        red_a = psi @ psi.conj().T
        red_b = psi.T @ psi.conj()
        eye = np.eye(d) / d
        if np.abs(red_a - eye).max() > 1e-10 or np.abs(red_b - eye).max() > 1e-10:
            raise NotAState("one-sided reduction is not maximally mixed")
        v.setflags(write=False)
        self.vec = v
        self.d = d

    def projector(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())


def phi_plus(d: int) -> MaximallyEntangledVector:
    """(1/sqrt(d)) sum_i |ii>."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return MaximallyEntangledVector(v)


def sigma_family(b: float, d: float, e: float, f: complex) -> DensityMatrix:
    """Two-qubit state with support on |01>, |10>, |11>.

    Diagonal (0, b, d, e) with b + d + e = 1 and a single coherence f
    between |01> and |10>; positivity requires |f|^2 <= b*d.
    """
    if min(b, d, e) < -1e-12:
        raise NotAState("diagonal weights must be nonnegative")
    if abs((b + d + e) - 1.0) > TRACE_TOL:
        raise NotAState(f"b+d+e = {b + d + e!r}, not 1")
    if abs(f) ** 2 > b * d + 1e-12:
        raise NotAState(f"|f|^2 = {abs(f) ** 2:.6g} exceeds b*d = {b * d:.6g}")
    m = np.zeros((4, 4), dtype=np.complex128)
    m[1, 1] = b
    m[1, 2] = f
    m[2, 1] = np.conjugate(f)
    m[2, 2] = d
    m[3, 3] = e
    return DensityMatrix(m, 2)


def rho1() -> DensityMatrix:
    """Two-qubit state with singlet fraction exactly 1/2 but lam_max = 2 - sqrt(2)."""
    s2 = math.sqrt(2.0)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[1, 1] = (3.0 - 2.0 * s2) / 2.0
    m[1, 2] = m[2, 1] = (1.0 - s2) / 2.0
    m[2, 2] = 0.5
    m[3, 3] = s2 - 1.0
    return DensityMatrix(m, 2)


def rho2(a: float) -> DensityMatrix:
    """Two-qutrit family on 0.35 <= a <= 0.369 with -0.22 couplings.

    The printed interval slightly overshoots exact positivity near its top
    end (min eigenvalue ~ -1.2e-4 at a = 0.369), so the PSD floor is
    relaxed to RHO2_PSD_TOL for this family.
    """
    if not 0.35 <= a <= 0.369:
        raise ValueError(f"a = {a!r} outside [0.35, 0.369]")
    m = np.zeros((9, 9), dtype=np.complex128)
    m[0, 0] = (1.0 - a) / 2.0
    m[4, 4] = 0.5 - a
    m[5, 5] = a
    m[8, 8] = a / 2.0
    m[0, 8] = m[8, 0] = -0.22
    m[4, 5] = m[5, 4] = -0.22
    return DensityMatrix(m, 3, psd_tol=RHO2_PSD_TOL)


def rho3(a: float) -> DensityMatrix:
    """Two-qutrit family on 0.5 <= a <= 0.65 with 0.015 corner couplings."""
    if not 0.5 <= a <= 0.65:
        raise ValueError(f"a = {a!r} outside [0.5, 0.65]")
    m = np.zeros((9, 9), dtype=np.complex128)
    m[0, 0] = a / 2.0
    m[1, 1] = a / 2.0
    m[7, 7] = (1.0 - a) / 2.0
    m[8, 8] = (1.0 - a) / 2.0
    m[0, 8] = m[8, 0] = 0.015
    return DensityMatrix(m, 3)


def rho_alpha(alpha: float) -> DensityMatrix:
    """Two-qutrit mixture 2/7 P(phi3+) + alpha/7 s+ + (5-alpha)/7 s-, 4 < alpha <= 5.

    s+ and s- are the uniform mixtures of {|01>,|12>,|20>} and
    {|10>,|21>,|02>} respectively.
    """
    if not 4.0 < alpha <= 5.0:
        raise ValueError(f"alpha = {alpha!r} outside (4, 5]")
    m = (2.0 / 7.0) * phi_plus(3).projector()
    plus = [(0, 1), (1, 2), (2, 0)]
    minus = [(1, 0), (2, 1), (0, 2)]
    for i, j in plus:
        m[3 * i + j, 3 * i + j] += alpha / 21.0
    for i, j in minus:
        m[3 * i + j, 3 * i + j] += (5.0 - alpha) / 21.0
    return DensityMatrix(m, 3)


def noisy_singlet(p: float, d: int) -> DensityMatrix:
    """Isotropic mixture p P(phi_d+) + (1 - p) I / d^2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p!r} outside [0, 1]")
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    m = p * phi_plus(d).projector() + (1.0 - p) * np.eye(d * d, dtype=np.complex128) / (d * d)
    return DensityMatrix(m, d)


_QUTRIT_TRIPLES = (
    ((0, 0), (2, 2), (1, 1)),
    ((0, 1), (2, 0), (1, 2)),
    ((0, 2), (2, 1), (1, 0)),
    ((1, 1), (0, 0), (2, 2)),
    ((1, 2), (0, 1), (2, 0)),
    ((1, 0), (0, 2), (2, 1)),
    ((1, 1), (2, 2), (0, 0)),
    ((2, 0), (1, 2), (0, 1)),
    ((2, 1), (1, 0), (0, 2)),
)


@functools.cache
def qutrit_me_basis() -> tuple[MaximallyEntangledVector, ...]:
    """The nine-vector maximally entangled basis of C^9 with phase -e^{i pi/3},
    built and validated once, on first use, and shared by every caller."""
    phase = -np.exp(1j * np.pi / 3.0)
    out = []
    for k1, k2, k3 in _QUTRIT_TRIPLES:
        v = np.zeros(9, dtype=np.complex128)
        v[3 * k1[0] + k1[1]] += 1.0
        v[3 * k2[0] + k2[1]] += 1.0
        v[3 * k3[0] + k3[1]] += phase
        out.append(MaximallyEntangledVector(v / math.sqrt(3.0)))
    return tuple(out)


def save_state(rho: DensityMatrix, path: str | os.PathLike) -> None:
    """Write the density-matrix document: {"d": int, "entries": [[re, im], ...]}."""
    flat = rho.mat.ravel()
    doc = {"d": rho.d, "entries": [[z.real, z.imag] for z in flat]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_state(path: str | os.PathLike, *, psd_tol: float = RHO2_PSD_TOL) -> DensityMatrix:
    """Parse and validate a density-matrix document.

    Raises :class:`ParseError` for malformed documents and
    :class:`NotAState` when validation fails. The PSD floor matches the
    loosest bundled family so every catalog state round-trips.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc

    if not isinstance(doc, dict) or "d" not in doc or "entries" not in doc:
        raise ParseError('document must be {"d": int, "entries": [[re, im], ...]}')
    d = doc["d"]
    entries = doc["entries"]
    if not isinstance(d, int) or d < 2:
        raise ParseError(f'"d" must be an integer >= 2, got {d!r}')
    if not isinstance(entries, list) or len(entries) != d ** 4:
        raise ParseError(f'"entries" must have length d^4 = {d ** 4}, got {len(entries)}')
    try:
        pairs = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"entries must be [re, im] number pairs: {exc}") from exc
    if pairs.shape != (d ** 4, 2):
        raise ParseError(f"entries must be [re, im] pairs, got shape {pairs.shape}")
    mat = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d * d, d * d)
    return DensityMatrix(mat, d, psd_tol=psd_tol)
