"""Brute-force verifiers that audit the criteria against first principles.

Everything here is deliberately independent of the package's own
eigensolver: the package runs LAPACK's Hermitian driver (zheevd), while
every spectrum here comes from the general eigenvalue driver (zgeev), so
the audit and the artifact form a dual route. The harness's streams are
counter-based (Philox) and derived from (seed, trial index), so results do
not depend on execution order; the sampler reads one SFC64 stream per seed.

A harness check takes the trials' streams, each valid only until the next
is drawn, and returns one signed margin per trial; it solves all matrices
of one shape in one zgeev call and checks each shape's states as one stack.

Haar unitaries are the phase-fixed Q of a complex Gaussian G (Mezzadri, Notices AMS 54, 592 (2007)), by
CGS2 in place with no QR call; the sampler orthonormalises G's rows instead: (Q of G^T)^T, Haar too.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from . import criteria, linalg
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
    "SEED_MAX",
]

SEED_MAX = 2**64 - 1  # a seed keys the harness's uint64 Philox streams and seeds the sampler's SFC64


def _check_seed(seed: int) -> None:
    if not 0 <= operator.index(seed) <= SEED_MAX:
        raise ValueError(f"seed must be in [0, 2**64 - 1], got {seed}")


@dataclass(frozen=True)
class SamplingBudget:
    """Number of Haar unitaries W = U_A U_B^T to sample, plus the seed of the sampler's SFC64 stream."""

    n_unitaries: int
    seed: int = 0

    def __post_init__(self):
        if operator.index(self.n_unitaries) < 1:
            raise ValueError(f"n_unitaries must be >= 1, got {self.n_unitaries}")
        _check_seed(self.seed)


def _rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(seed))  # the sampler reads one stream in order: no key, so SFC64


def _cgs2(q: np.ndarray, s: np.ndarray) -> None:
    """In place, CGS2 on the rows of q = G laid out (row, column, *stack): M of G = LM, L's diagonal positive."""
    for j in range(len(q)):  # Gram-Schmidt, each vector twice; s is scratch, q's shape plus two vectors
        v, p, pv, c, t = q[j], q[:j], s[:j], s[-2], s[-1]
        for _ in range(2 if j else 0):  # v -= (p * (p.conj() * v).sum(1)[:, None]).sum(0), through out=
            np.multiply(p, np.multiply(np.conjugate(p, out=pv), v, out=pv).sum(1, out=c[:j])[:, None], out=pv)
            v -= pv.sum(0, out=t)
        norm2 = np.multiply(np.conjugate(v, out=t), v, out=t).real.sum(0, out=c.real[0, ...])
        v *= np.divide(1, np.sqrt(norm2, out=norm2), out=norm2)  # = v / |v| bit for bit, at a third of the cost


def _haar_q(g: np.ndarray) -> np.ndarray:
    """Q of each matrix of a (..., d, d) stack: ``_cgs2`` on a copy of its transpose; g is untouched."""
    q = np.moveaxis(g, (-1, -2), (0, 1)).copy()  # G^T, stack innermost: q[j, i] holds entry (i, j) of every matrix
    _cgs2(q, np.empty((len(q) + 2, *q.shape[1:]), q.dtype))
    return np.moveaxis(q, (0, 1), (-1, -2))  # a view in g's axis order


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from a complex Gaussian matrix."""
    return _haar_q(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def _spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix by the general QR route."""
    return np.sort(np.linalg.eigvals(mat).real)


def _density_draw(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """The matrix of a random state, unvalidated: GG^dag / Tr."""
    n = d * d
    cols = n if rank is None else max(1, min(rank, n))
    g = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)  # exact Hermitian symmetry, not just within tolerance
    m /= np.trace(m).real
    return m


def _validated(m: np.ndarray) -> DensityMatrix:
    """A state, or a (k, n, n) stack of states, checked on its own zgeev spectrum."""
    return DensityMatrix._with_spectrum(m, math.isqrt(m.shape[-1]), _spectrum(m))


def random_density_matrix(d: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Generic full-rank state GG^dag / Tr, or a rank-limited projector mixture."""
    return _validated(_density_draw(d, rng, rank))


def sampled_singlet_fraction(rho: DensityMatrix, budget: SamplingBudget) -> float:
    """Max overlap of rho with (W x I)|phi_d+> over sampled Haar unitaries W.

    A local pair enters only through W = U_A U_B^T, since (U_A x U_B)|phi_d+> =
    (W x I)|phi_d+> is W's rows over sqrt(d), and W is Haar when U_A and U_B are
    independent and Haar. Each sample is one Haar W, the rows of a complex Gaussian G
    orthonormalised: W^T is the phase-fixed Q of the Gaussian G^T, so Haar, and so is
    W. G comes from one SFC64 stream laid out (take, d, d, 2), (re, im) last; sample k
    is the same for every budget that reaches it. The identity pair is evaluated first,
    so the result is a lower bound on the FEF, monotone in the budget for a fixed seed.
    """
    if rho.mat.ndim != 2:
        raise linalg.DimensionMismatch(f"sampled_singlet_fraction takes one state, got a stack of {len(rho.mat)}")
    d = rho.d
    psi = phi_plus(d).vec
    best = float(np.vdot(psi, rho.mat @ psi).real)
    rng = _sample_rng(budget.seed)
    block = max(1, _SAMPLE_ENTRIES // (d * d))
    if (ws := getattr(_workspace, "buf", None)) is None or ws.size < (2 * d + 2) * d * block:  # once per thread
        ws = _workspace.buf = np.empty(3 * max(_SAMPLE_ENTRIES, d * d), np.complex128)
    for take in (min(block, budget.n_unitaries - first) for first in range(0, budget.n_unitaries, block)):
        q, s = np.split(ws[:(2 * d + 2) * d * take].reshape(2 * d + 2, d, take), [d])  # s: draw, scratch, rho @ w
        z = rng.standard_normal(out=s[:d].view(np.float64).reshape(take, d, d, 2))
        np.copyto(q, np.moveaxis(z.view(np.complex128)[..., 0], 0, -1))  # q[i] is row i, samples innermost
        _cgs2(q, s)
        w, y = q.reshape(d * d, take), np.matmul(rho.mat, q.reshape(d * d, take), out=s[:d].reshape(d * d, take))
        np.add(np.multiply(y.real, w.real, out=y.real), np.multiply(y.imag, w.imag, out=y.imag), out=y.real)
        best = max(best, float(y.real.sum(0, out=s[-1].real[0]).max()) / d)  # max(x) / d = max(x / d)
    return best


_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4))
    from the spectrum of rho (sy x sy) rho* (sy x sy), descending."""
    if rho.mat.ndim != 2:
        raise linalg.DimensionMismatch(f"wootters_concurrence takes one state, got a stack of {len(rho.mat)}")
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


# A margin >= 0 means the inequality held with the stated slack to spare. Draws
# and per-trial arithmetic stay per trial, so a margin is its trial's alone.

_CHUNK = 256  # trials per check call, so that a check's stacks stay small
_SAMPLE_ENTRIES = 2**16  # complex entries per block of sampled_singlet_fraction; a workspace is three blocks
_workspace = threading.local()  # each thread's own sampler workspace, kept between its calls


def _per_shape(mats: list[np.ndarray], fn) -> np.ndarray:
    """fn over the stack of each shape among ``mats``, its rows back in ``mats`` order."""
    rows = {}
    shapes = [m.shape for m in mats]
    for shape in dict.fromkeys(shapes):
        idx = [i for i, s in enumerate(shapes) if s == shape]
        rows.update(zip(idx, fn(np.stack([mats[i] for i in idx]))))
    return np.array([rows[i] for i in range(len(mats))])


def _extremes(stack: np.ndarray) -> np.ndarray:
    """(lowest, highest) eigenvalue of each Hermitian matrix in ``stack``."""
    return _spectrum(stack)[..., [0, -1]]


def _check_trace_sandwich(streams) -> np.ndarray:
    mats, traces = [], []
    for rng in streams:
        dim = int(rng.integers(2, 10))
        a = random_hermitian(dim, rng)
        b = random_psd(dim, rng)
        mats.append(a)
        traces.append((np.einsum("ij,ji->", a, b).real, np.trace(b).real))
    lo, hi = _per_shape(mats, _extremes).T
    tr_ab, tr_b = np.array(traces).T
    return np.minimum(tr_ab - lo * tr_b + 1e-9, hi * tr_b - tr_ab + 1e-9)


def _check_weyl(streams) -> np.ndarray:
    mats = []
    for rng in streams:
        dim = int(rng.integers(2, 10))
        a = random_hermitian(dim, rng)
        b = random_hermitian(dim, rng)
        mats.append(np.stack((a, b, a + b)))
    (_, a_hi), (b_lo, b_hi), (_, s_hi) = _per_shape(mats, _extremes).transpose(1, 2, 0)
    return np.minimum(s_hi - (a_hi + b_lo) + 1e-9, (a_hi + b_hi) - s_hi + 1e-9)


def _state_check(margin, d: int | None = None):
    """The check of ``margin`` on each trial's random state, of local dimension
    ``d`` or, if None, 2 or 3 as first drawn; validated one stack per d."""
    def check(streams) -> np.ndarray:
        mats = [_density_draw(int(rng.integers(2, 4)) if d is None else d, rng) for rng in streams]
        return _per_shape(mats, lambda m: margin(_validated(m)))
    return check


def _lambda_max_range(rho: DensityMatrix) -> np.ndarray:
    lam = rho.spectrum[:, -1]
    return np.minimum(lam - 1.0 / (rho.d * rho.d) + 1e-10, 1.0 - lam + 1e-10)


def _fef_below_lambda_max(rho: DensityMatrix) -> np.ndarray:
    return rho.spectrum[:, -1] - criteria.fef_2qubit(rho) + 1e-9


def _basis_below_lambda_max(rho: DensityMatrix) -> np.ndarray:
    return rho.spectrum[:, -1] - criteria.singlet_fraction_basis(rho, qutrit_me_basis()) + 1e-9


def _dembo_quarter_sandwich(rho: DensityMatrix) -> np.ndarray:
    lam, dec = rho.spectrum[:, -1], criteria.DemboDecomposition.from_matrix(rho.mat)
    return np.minimum(np.minimum(lam - dec.lower + 1e-9, dec.upper_quarter - lam + 1e-9),
                      dec.upper_paper - dec.upper_quarter + 1e-9)


DEFAULT_CHECKS = (
    ("trace_sandwich", _check_trace_sandwich),
    ("weyl_extremes", _check_weyl),
    ("lambda_max_range", _state_check(_lambda_max_range)),
    ("fef_below_lambda_max_d2", _state_check(_fef_below_lambda_max, 2)),
    ("basis_bound_below_lambda_max_d3", _state_check(_basis_below_lambda_max, 3)),
    ("dembo_quarter_sandwich", _state_check(_dembo_quarter_sandwich)),
)


def inequality_harness(trials: int, seed: int, checks=None) -> HarnessReport:
    """Run every registered inequality check over seeded random instances.

    A check is ``fn(streams) -> margins``, called on batches of at most
    ``_CHUNK`` trials: ``streams`` yields each trial's Generator in trial
    order, keyed (seed, check index * trials + trial) as ``_rng`` keys it.
    They are one Philox re-keyed in place, so each is valid only until the
    next is drawn. A violation is a margin that is not >= 0, NaN included,
    and the worst trial is the first NaN or else the first smallest margin.
    ``checks`` overrides the default registry.
    """
    if operator.index(trials) < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_seed(seed)
    rng = _rng(seed, 0)
    fresh = rng.bit_generator.state  # zero counter, empty buffer

    def streams(first: int, count: int):
        for index in range(first, first + count):
            fresh["state"]["key"] = np.array([seed, index], dtype=np.uint64)
            rng.bit_generator.state = fresh
            yield rng

    results = []
    for ci, (name, fn) in enumerate(DEFAULT_CHECKS if checks is None else checks):
        slacks = np.hstack([
            np.asarray(fn(streams(ci * trials + t, min(_CHUNK, trials - t))), dtype=np.float64)
            for t in range(0, trials, _CHUNK)
        ])
        if slacks.shape != (trials,):
            raise ValueError(f"check {name!r} gave {slacks.size} margins for {trials} trials")
        worst_trial = int(np.argmin(slacks))  # the first NaN if there is one
        violations = int(np.count_nonzero(~(slacks >= 0.0)))
        results.append(CheckResult(name, trials, violations, float(slacks[worst_trial]), worst_trial))
    return HarnessReport(seed=seed, trials=trials, checks=results)
