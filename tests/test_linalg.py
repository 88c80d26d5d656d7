import warnings

import numpy as np
import pytest

from teleres import rho1
from teleres.linalg import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    hermitian_eigen,
    hermiticity_defect,
    trace_product,
)
from teleres.oracle import _rng, haar_unitary, random_hermitian, random_psd


def test_identity_spectrum():
    np.testing.assert_allclose(hermitian_eigen(np.eye(4, dtype=complex)), np.ones(4))


def test_rho1_spectrum():
    np.testing.assert_allclose(hermitian_eigen(rho1().mat), [0.0, 0.0, 0.4142, 0.5858], atol=5e-4)


def test_known_spectrum_recovery(rng):
    # build H = Q diag(lam) Q^dag from a known spectrum and recover it
    for n in (2, 3, 7, 16):
        lam = np.sort(rng.uniform(-3, 3, n))
        q = haar_unitary(n, rng)
        h = (q * lam) @ q.conj().T
        got = hermitian_eigen(h)
        np.testing.assert_allclose(got, lam, atol=1e-10 * max(1.0, np.abs(lam).max()))


@pytest.mark.parametrize("n", [2, 3, 5, 9, 12, 16])
def test_residual_and_orthonormality(n, rng):
    h = random_hermitian(n, rng)
    w = hermitian_eigen(h)
    assert np.all(np.diff(w) >= 0)
    # the spectrum carries the unitary invariants Tr H and ||H||_F^2
    scale = np.linalg.norm(h)
    assert abs(w.sum() - np.trace(h).real) <= 1e-10 * scale
    assert abs(np.sum(w**2) - scale**2) <= 1e-10 * scale**2


def test_matches_lapack(rng):
    for n in range(2, 17):
        h = random_hermitian(n, rng)
        got = hermitian_eigen(h)
        ref = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(got, ref, atol=1e-12 * max(1.0, np.linalg.norm(h)))


def test_deterministic_across_runs(rng):
    h = random_hermitian(9, rng)
    assert np.array_equal(hermitian_eigen(h), hermitian_eigen(h))


def test_degenerate_ties_keep_diagonal_order():
    h = np.diag([3.0, 1.0, 1.0, 2.0]).astype(complex)
    np.testing.assert_allclose(hermitian_eigen(h), [1.0, 1.0, 2.0, 3.0])


def test_spectrum_invariant_under_unitary_conjugation(rng):
    for n in (4, 9):
        h = random_hermitian(n, rng)
        u = haar_unitary(n, rng)
        a = hermitian_eigen(h)
        b = hermitian_eigen(u @ h @ u.conj().T)
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_not_hermitian_raises():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NotHermitian):
        hermitian_eigen(m)
    # a non-finite entry has no finite Hermiticity defect and must not reach LAPACK
    for bad in (np.nan, np.inf):
        with pytest.raises(NotHermitian):
            hermitian_eigen(np.array([[0, bad], [bad, 0]], dtype=complex))


def test_entries_near_the_float_maximum_do_not_overflow():
    # halved before the sum: a Hermitian matrix with entries of 1e308 keeps its
    # spectrum, and an anti-Hermitian one reads an infinite defect, not NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(hermitian_eigen(np.diag([1e308, 1e308]).astype(complex)), [1e308, 1e308])
        skew = np.array([[0, 1e308], [-1e308, 0]], dtype=complex)
        assert hermiticity_defect(skew) == np.inf
        with pytest.raises(NotHermitian, match="defect inf"):
            hermitian_eigen(skew)


def test_lapack_failure_raises_no_convergence(monkeypatch, rng):
    def failing_eigvalsh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    with pytest.raises(NoConvergence):
        hermitian_eigen(random_hermitian(5, rng))


def test_zero_matrix():
    np.testing.assert_allclose(hermitian_eigen(np.zeros((3, 3), dtype=complex)), 0.0)


def test_trace_product_unit_trace(rng):
    rho = random_psd(4, rng)
    rho /= np.trace(rho).real
    assert trace_product(np.eye(4), rho) == pytest.approx(1.0)


def test_trace_product_matches_matmul(rng):
    a = random_hermitian(6, rng)
    b = random_psd(6, rng)
    assert trace_product(a, b) == pytest.approx(np.trace(a @ b), abs=1e-12)


def test_trace_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        trace_product(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch, match=r"got shape \(2, 3\)"):
        trace_product(np.ones((2, 3)), np.eye(2))


def test_trace_sandwich_1000_trials():
    # lam_min(A) Tr B <= Re Tr(AB) <= lam_max(A) Tr B for Hermitian A, PSD B
    for t in range(1000):
        gen = _rng(101, t)
        n = int(gen.integers(2, 10))
        a = random_hermitian(n, gen)
        b = random_psd(n, gen)
        w = hermitian_eigen(a)
        tr_ab = trace_product(a, b).real
        tr_b = np.trace(b).real
        assert w[0] * tr_b - 1e-9 <= tr_ab <= w[-1] * tr_b + 1e-9


def test_weyl_extreme_eigenvalues_1000_trials():
    for t in range(1000):
        gen = _rng(102, t)
        n = int(gen.integers(2, 10))
        a = random_hermitian(n, gen)
        b = random_hermitian(n, gen)
        wa = hermitian_eigen(a)
        wb = hermitian_eigen(b)
        ws = hermitian_eigen(a + b)
        assert wa[-1] + wb[0] <= ws[-1] + 1e-9
        assert ws[-1] <= wa[-1] + wb[-1] + 1e-9

