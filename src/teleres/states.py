"""Validated density matrices and a catalog of named bipartite states.

Basis ordering is subsystem-A-major throughout: |i_A i_B> maps to index
i_A * d + i_B.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
from typing import Callable, NamedTuple

import numpy as np

from . import linalg

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
    "Family",
    "FAMILIES",
    "qutrit_me_basis",
    "load_state",
    "save_state",
]

TRACE_TOL = 1e-12
# no entry of a state has modulus above 1; a part above this bound is
# rejected before any arithmetic could overflow on it
ENTRY_BOUND = 2.0
PSD_TOL = 1e-10
THEOREM_BOUND_TOL = 1e-10
_BLOCK_ENTRIES = 2**12  # validation's block: 64 KiB, so its temporaries stay below glibc's mmap threshold

# the printed parameter interval of rho2 overshoots exact positivity by
# ~1.2e-4 at its top end; this floor admits the full printed interval
RHO2_PSD_TOL = 2e-4


class NotAState(ValueError):
    """Matrix violates a density-matrix invariant; the message names it."""


class ParseError(ValueError):
    """State file is malformed."""


class DensityMatrix:
    """A d x d bipartite state: Hermitian, unit trace, PSD within tolerance.

    ``mat`` is the d^2 x d^2 matrix, ``d`` the local dimension and
    ``spectrum`` the ascending eigenvalues computed at validation time.
    A (k, n, n) ``mat`` is a stack of k states of one family, validated in
    one pass; ``spectrum`` is then (k, n), and every criterion taking a
    state takes the stack and gives one value per member. A C-contiguous
    complex128 ``mat`` is kept, not copied, and made read-only in the
    caller's hands too; any other input is copied. ``spectrum`` is
    read-only as well, so a state shared by every caller cannot change.
    """

    __slots__ = ("mat", "d", "spectrum")

    def __init__(self, mat: np.ndarray, d: int | None = None, *, psd_tol: float = PSD_TOL):
        self._validate(mat, d, None, psd_tol)

    @classmethod
    def _with_spectrum(cls, mat: np.ndarray, d: int, spectrum: np.ndarray) -> DensityMatrix:
        """A state checked exactly as the constructor checks it, against an
        ascending ``spectrum`` of ``mat`` that the caller computed.

        The audit oracle passes a spectrum from its own eigenvalue route
        here, so that it never runs the eigensolver it audits.
        """
        state = cls.__new__(cls)
        state._validate(mat, d, spectrum, PSD_TOL)
        return state

    def _validate(self, mat, d: int | None, spectrum: np.ndarray | None, psd_tol: float) -> None:
        """Check shape, entry size, Hermiticity, trace and spectrum of all
        members at once; the error is the first failing member's first
        failing check. No member from the first unbounded one onward is
        checked further; the members before it are validated alone first.

        This is the package's one Hermiticity gate: the spectrum is solved
        from the symmetrised stack, or from the stack itself when every
        member is exactly Hermitian, and criteria solve matrices derived
        from a validated state without checking them again.
        """
        m = linalg.as_complex_matrix(mat)
        n = m.shape[-1]
        if d is None:
            d = math.isqrt(n)
        if d < 2 or d * d != n:
            raise NotAState(f"matrix of dim {n} is not a d x d bipartite state (d={d})")
        # one state is a stack of one; every quantity is per member, taken one block at a time
        stack = m.reshape(-1, n, n)
        defect = np.empty(len(stack))
        step = max(1, _BLOCK_ENTRIES // (n * n))
        for s in range(0, len(stack), step):
            block = stack[s : s + step]
            big = np.maximum.reduce(np.abs(block.view(np.float64)), axis=(1, 2))
            if not big.max() <= ENTRY_BOUND:  # NaN, inf or too large: no arithmetic on this member or after it
                j = s + int(np.argmin(big <= ENTRY_BOUND))
                self._validate(stack[:j], d, None if spectrum is None else spectrum.reshape(-1, n)[:j], psd_tol)
                raise NotAState("matrix has a non-finite entry (NaN or inf)" if not math.isfinite(big[j - s])
                                else f"an entry has a part of {big[j - s]:.3e}; a state's entries are at most 1")
            np.maximum.reduce(np.abs(block - block.conj().swapaxes(1, 2)), axis=(1, 2), out=defect[s : s + step])
        tr = stack.trace(axis1=1, axis2=2)
        if spectrum is None:
            # eigvalsh reads one triangle only; symmetrise so both halves count.
            # With no defect in any member, 0.5 * (a + a^H) is a itself, bit for bit
            hermitian = stack if not defect.any() else 0.5 * (stack + stack.conj().swapaxes(1, 2))
            spectrum = linalg._eigvalsh(hermitian.reshape(m.shape))
        lam = spectrum.reshape(-1, n)
        failed = np.array((
            defect > linalg.HERMITIAN_TOL,
            abs(tr - 1.0) > TRACE_TOL,
            lam[:, 0] < -psd_tol,
            lam[:, -1] > 1.0 + THEOREM_BOUND_TOL,
            lam[:, -1] < 1.0 / (d * d) - THEOREM_BOUND_TOL,
        ))
        if failed.any():
            i = int(failed.any(axis=0).argmax())
            raise NotAState((
                f"not Hermitian: defect {defect[i]:.3e}",
                f"trace is {tr[i].real:.15f}, not 1",
                f"not positive semidefinite: min eigenvalue {lam[i, 0]:.3e}",
                f"max eigenvalue {lam[i, -1]:.12f} exceeds 1",
                f"max eigenvalue {lam[i, -1]:.12f} below 1/d^2",
            )[int(failed[:, i].argmax())])

        m.setflags(write=False)
        spectrum.setflags(write=False)
        self.mat = m
        self.d = int(d)
        self.spectrum = spectrum

    @property
    def dim(self) -> int:
        return self.d * self.d

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DensityMatrix(d={self.d}, lam_max={np.array2string(self.spectrum[..., -1], precision=6)})"


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
        if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
            raise NotAState(f"norm is {norm:.15f}, not 1")
        psi = v.reshape(d, d)
        red_a = psi @ psi.conj().T
        red_b = psi.T @ psi.conj()
        eye = np.eye(d) / d
        if np.abs(red_a - eye).max() > 1e-10 or np.abs(red_b - eye).max() > 1e-10:
            raise NotAState("one-sided reduction is not maximally mixed")
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value=None):  # also __delattr__: cached instances are shared
        raise AttributeError(f"MaximallyEntangledVector is immutable, cannot change {name!r}")

    __delattr__ = __setattr__

    def projector(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())


def _check_local_dim(d) -> None:
    """Raise ValueError unless ``d`` is a Python or numpy integer of at least 2."""
    if not isinstance(d, (int, np.integer)):
        raise ValueError(f"local dimension must be an integer, got {d!r}")
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")


def phi_plus(d: int) -> MaximallyEntangledVector:
    """(1/sqrt(d)) sum_i |ii>, built and validated once per d and shared by every caller."""
    _check_local_dim(d)
    return _phi_plus(operator.index(d))


@functools.cache  # keyed on a Python int: a numpy integer would key apart from its equal int
def _phi_plus(d: int) -> MaximallyEntangledVector:
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return MaximallyEntangledVector(v)


def sigma_family(b: float, d: float, e: float, f: complex) -> DensityMatrix:
    """Two-qubit state with support on |01>, |10>, |11>.

    Diagonal (0, b, d, e) with b + d + e = 1 and a single coherence f
    between |01> and |10>; positivity requires |f|^2 <= b*d. ``DensityMatrix``
    checks the trace and positivity, as it does for every state.
    """
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
    return sigma_family((3.0 - 2.0 * s2) / 2.0, 0.5, s2 - 1.0, (1.0 - s2) / 2.0)


def _family_params(name: str, value, family: str) -> np.ndarray:
    """The parameter, or array of parameters, of a family, once each lies in its
    interval; the error names the first one that does not. Sweep specs check here too."""
    lo, hi, open_lo = FAMILIES[family].interval
    p = np.asarray(value, dtype=np.float64)
    ok = ((p > lo) if open_lo else (p >= lo)) & (p <= hi)
    if not ok.all():
        bad = value if p.ndim == 0 else float(p.ravel()[np.argmin(ok.ravel())])
        raise ValueError(f"{name} = {bad!r} outside {'(' if open_lo else '['}{lo}, {hi}] of {family}")
    return p


def rho2(a: float | np.ndarray) -> DensityMatrix:
    """Two-qutrit family on 0.35 <= a <= 0.369 with -0.22 couplings.

    The printed interval slightly overshoots exact positivity near its top
    end (min eigenvalue ~ -1.2e-4 at a = 0.369), so the PSD floor is
    relaxed to RHO2_PSD_TOL for this family. An array of parameters gives
    the stack of their states, as do the other sweep families.
    """
    a = _family_params("a", a, "rho2")
    m = np.zeros(a.shape + (9, 9), dtype=np.complex128)
    m[..., 0, 0] = (1.0 - a) / 2.0
    m[..., 4, 4] = 0.5 - a
    m[..., 5, 5] = a
    m[..., 8, 8] = a / 2.0
    m[..., 0, 8] = m[..., 8, 0] = -0.22
    m[..., 4, 5] = m[..., 5, 4] = -0.22
    return DensityMatrix(m, 3, psd_tol=RHO2_PSD_TOL)


def rho3(a: float | np.ndarray) -> DensityMatrix:
    """Two-qutrit family on 0.5 <= a <= 0.65 with 0.015 corner couplings."""
    a = _family_params("a", a, "rho3")
    m = np.zeros(a.shape + (9, 9), dtype=np.complex128)
    m[..., 0, 0] = a / 2.0
    m[..., 1, 1] = a / 2.0
    m[..., 7, 7] = (1.0 - a) / 2.0
    m[..., 8, 8] = (1.0 - a) / 2.0
    m[..., 0, 8] = m[..., 8, 0] = 0.015
    return DensityMatrix(m, 3)


def rho_alpha(alpha: float | np.ndarray) -> DensityMatrix:
    """Two-qutrit mixture 2/7 P(phi3+) + alpha/7 s+ + (5-alpha)/7 s-, 4 < alpha <= 5.

    s+ and s- are the uniform mixtures of {|01>,|12>,|20>} and
    {|10>,|21>,|02>} respectively.
    """
    alpha = _family_params("alpha", alpha, "rho_alpha")
    m = np.tile((2.0 / 7.0) * phi_plus(3).projector(), alpha.shape + (1, 1))
    plus, minus = [1, 5, 6], [3, 7, 2]  # |01>, |12>, |20> and |10>, |21>, |02>
    m[..., plus, plus] += (alpha / 21.0)[..., None]
    m[..., minus, minus] += ((5.0 - alpha) / 21.0)[..., None]
    return DensityMatrix(m, 3)


def noisy_singlet(p: float | np.ndarray, d: int) -> DensityMatrix:
    """Isotropic mixture p P(phi_d+) + (1 - p) I / d^2."""
    p = _family_params("p", p, "noisy_singlet")
    m = p[..., None, None] * phi_plus(d).projector()  # complex division below: it rounds as (1 - p) I / d^2
    np.einsum("...ii->...i", m)[...] += ((1.0 - p).astype(np.complex128) / (d * d))[..., None]
    return DensityMatrix(m, d)


class Family(NamedTuple):
    """A swept family: ``build(params, d)`` is the validated stack of its
    states at a parameter vector (sigma's: its one state), ``d`` its local
    dimension (None: the caller's), ``interval`` its parameter range as (lo, hi, open at lo)."""

    build: Callable[[np.ndarray, int], DensityMatrix]
    d: int | None
    interval: tuple[float, float, bool]


@functools.cache
def _sigma1() -> DensityMatrix:
    """The paper's sigma_1, built and validated once, on first use, and shared by every caller."""
    return sigma_family(0.2, 0.4, 0.4, 0.25 + 0.1j)


# the one registry of swept families; sigma sweeps the diag(a, 1) filter over one state, the paper's sigma_1
FAMILIES = {
    "sigma": Family(lambda _a, _d: _sigma1(), 2, (0.0, 1.0, False)),
    "rho2": Family(lambda a, _d: rho2(a), 3, (0.35, 0.369, False)),
    "rho3": Family(lambda a, _d: rho3(a), 3, (0.5, 0.65, False)),
    "rho_alpha": Family(lambda alpha, _d: rho_alpha(alpha), 3, (4, 5, True)),
    "noisy_singlet": Family(lambda p, d: noisy_singlet(p, d), None, (0, 1, False)),
}


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
    if rho.mat.ndim != 2:
        raise linalg.DimensionMismatch(f"save_state takes one state, got a stack of {len(rho.mat)}")
    doc = {"d": rho.d, "entries": [[z.real, z.imag] for z in rho.mat.ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_state(path: str | os.PathLike) -> DensityMatrix:
    """Parse and validate a density-matrix document.

    Raises :class:`ParseError` for malformed documents and
    :class:`NotAState` when validation fails. The PSD floor is
    ``RHO2_PSD_TOL``, the loosest bundled family's, so every catalog
    state round-trips.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, an int over 4300 digits, deep nesting
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc

    if not isinstance(doc, dict) or "d" not in doc or "entries" not in doc:
        raise ParseError('document must be {"d": int, "entries": [[re, im], ...]}')
    d = doc["d"]
    entries = doc["entries"]
    if not isinstance(d, int) or d < 2:
        raise ParseError(f'"d" must be an integer >= 2, got {d!r}')
    if not isinstance(entries, list):
        raise ParseError(f'"entries" must be a list, got {type(entries).__name__}')
    if len(entries) != d ** 4:
        raise ParseError(f'"entries" must have length d^4 = {d}^4, got {len(entries)}')
    try:
        pairs = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
        raise ParseError(f"entries must be [re, im] number pairs: {exc}") from exc
    if pairs.shape != (d ** 4, 2):
        raise ParseError(f"entries must be [re, im] pairs, got shape {pairs.shape}")
    # numpy also parses strings ("0.25") and JSON booleans as numbers; only a
    # JSON number is one. type(), not isinstance: a bool is an int
    if not {type(x) for entry in entries for x in entry} <= {int, float}:
        bad = next(x for entry in entries for x in entry if type(x) not in (int, float))
        raise ParseError(f"entries must be [re, im] number pairs, got {json.dumps(bad)}")
    mat = pairs.view(np.complex128).reshape(d * d, d * d)  # (re, im) pairs, no arithmetic on inf
    return DensityMatrix(mat, d, psd_tol=RHO2_PSD_TOL)
