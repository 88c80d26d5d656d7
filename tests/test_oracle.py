import numpy as np
import pytest

from teleres import (
    DensityMatrix,
    SamplingBudget,
    fef_2qubit,
    inequality_harness,
    is_npt,
    noisy_singlet,
    phi_plus,
    qutrit_me_basis,
    rho1,
    rho2,
    sampled_singlet_fraction,
    sigma_family,
    singlet_fraction_basis,
    wootters_concurrence,
)
from teleres import linalg, states
from teleres.criteria import DimensionUnsupported
from teleres.oracle import _haar_q, _rng, haar_unitary, random_density_matrix
from conftest import random_state


def test_budget_validation():
    with pytest.raises(ValueError):
        SamplingBudget(0)
    assert SamplingBudget(5, seed=1).n_unitaries == 5


def test_haar_unitary_is_unitary_and_deterministic():
    for d in (2, 3, 5):
        u = haar_unitary(d, _rng(1, 0))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)
        v = haar_unitary(d, _rng(1, 0))
        np.testing.assert_array_equal(u, v)


def _qr_haar(g):
    """Reference Haar route: LAPACK QR, then each column times the phase of R's diagonal."""
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


def _qr_sampled_singlet_fraction(rho, budget):
    """The sampler on the reference route, drawing the same stream."""
    d = rho.d
    psi = phi_plus(d).vec
    best = float(np.vdot(psi, rho.mat @ psi).real)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(budget.seed)))
    remaining = budget.n_unitaries
    while remaining > 0:
        take = min(8192, remaining)
        z = rng.standard_normal((take, 2, d, d, 2))
        u = _qr_haar(z[..., 0] + 1j * z[..., 1])
        vs = np.einsum("kij,kaj->kia", u[:, 0], u[:, 1]).reshape(take, d * d) / np.sqrt(d)
        best = max(best, float(np.einsum("ki,ij,kj->k", vs.conj(), rho.mat, vs).real.max()))
        remaining -= take
    return best


def test_haar_helper_matches_phase_fixed_qr():
    rng = np.random.default_rng(2024)
    for d in (2, 3, 4, 5):
        g = rng.standard_normal((500, 2, d, d)) + 1j * rng.standard_normal((500, 2, d, d))
        q = _haar_q(g.copy())
        np.testing.assert_allclose(q, _qr_haar(g), rtol=0, atol=1e-12)
        gram = np.swapaxes(q, -1, -2).conj() @ q
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(d), gram.shape), rtol=0, atol=1e-12)
        rng_a, rng_b = _rng(5, d), _rng(5, d)
        g1 = rng_b.standard_normal((d, d)) + 1j * rng_b.standard_normal((d, d))
        np.testing.assert_allclose(haar_unitary(d, rng_a), _qr_haar(g1), rtol=0, atol=1e-12)


def test_haar_helper_stays_unitary_on_ill_conditioned_input():
    # condition number 1e8: one Gram-Schmidt pass alone loses orthogonality
    rng = np.random.default_rng(7)
    for d in (3, 4, 5):
        u, v = (_qr_haar(rng.standard_normal((200, d, d)) + 1j * rng.standard_normal((200, d, d))) for _ in range(2))
        g = (u * np.logspace(0, -8, d)) @ np.swapaxes(v, -1, -2).conj()
        q = _haar_q(g)
        gram = np.swapaxes(q, -1, -2).conj() @ q
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(d), gram.shape), rtol=0, atol=1e-12)


def test_sampled_matches_qr_reference_sampler():
    # budget 10 000 crosses the 8192-pair chunk
    for d in (2, 3, 4):
        rho = random_density_matrix(d, _rng(31, d))
        for n in (1, 4096, 10_000):
            budget = SamplingBudget(n, seed=17 + d)
            got = sampled_singlet_fraction(rho, budget)
            assert got == pytest.approx(_qr_sampled_singlet_fraction(rho, budget), rel=0, abs=1e-12)


def test_random_density_matrix_validates_without_package_kernel(monkeypatch):
    def package_kernel(*args, **kwargs):
        raise AssertionError("the oracle ran the eigensolver it audits")

    monkeypatch.setattr(linalg, "hermitian_eigen", package_kernel)
    monkeypatch.setattr(states, "hermitian_eigen", package_kernel)
    for d, rank in ((2, None), (3, None), (3, 1)):
        rho = random_density_matrix(d, _rng(7, d), rank=rank)
        assert isinstance(rho, DensityMatrix) and rho.d == d
        np.testing.assert_array_equal(rho.spectrum, np.sort(np.linalg.eigvals(rho.mat).real))
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
        assert rho.spectrum[0] >= -1e-10
        assert 1.0 / d**2 - 1e-10 <= rho.spectrum[-1] <= 1.0 + 1e-10
        assert not rho.mat.flags.writeable


def test_sampled_bell_state_hits_one_immediately():
    rho = DensityMatrix(phi_plus(2).projector(), 2)
    # the identity pair is always evaluated, so even budget 1 returns 1
    assert sampled_singlet_fraction(rho, SamplingBudget(1, seed=0)) == pytest.approx(1.0, abs=1e-12)


def test_sampled_is_deterministic():
    r = rho1()
    a = sampled_singlet_fraction(r, SamplingBudget(3000, seed=5))
    b = sampled_singlet_fraction(r, SamplingBudget(3000, seed=5))
    assert a == b


def test_sampled_monotone_in_prefix_budgets():
    r = rho1()
    values = [
        sampled_singlet_fraction(r, SamplingBudget(n, seed=3))
        for n in (100, 500, 5000, 9000, 20000)
    ]
    assert all(x <= y for x, y in zip(values, values[1:]))


def test_sampled_rho1_converges_to_half():
    got = sampled_singlet_fraction(rho1(), SamplingBudget(100_000, seed=7))
    assert got <= 0.5 + 1e-9
    assert got == pytest.approx(0.5, abs=2e-3)


def test_sampled_rho2_reaches_basis_bound():
    basis_value = singlet_fraction_basis(rho2(0.35), qutrit_me_basis())
    got = sampled_singlet_fraction(rho2(0.35), SamplingBudget(100_000, seed=11))
    assert got >= basis_value - 2e-3


def test_fef_dominates_and_matches_sampled_max():
    # exact value is an upper bound everywhere; at 1e4 samples random
    # states agree to ~1e-2, at 1e5 to 2e-3
    for i in range(200):
        rho = random_density_matrix(2, _rng(99, i))
        fef = fef_2qubit(rho)
        samp = sampled_singlet_fraction(rho, SamplingBudget(10_000, seed=1000 + i))
        assert fef >= samp - 1e-9
        assert fef - samp <= 1e-2
    for i in range(25):
        rho = random_density_matrix(2, _rng(99, i))
        samp = sampled_singlet_fraction(rho, SamplingBudget(100_000, seed=1000 + i))
        assert fef_2qubit(rho) - samp <= 2e-3


# ---- concurrence ----

def test_concurrence_examples():
    assert wootters_concurrence(sigma_family(0.2, 0.4, 0.4, 0.25 + 0.1j)) == pytest.approx(
        2 * abs(0.25 + 0.1j), abs=1e-9
    )
    bell = DensityMatrix(phi_plus(2).projector(), 2)
    assert wootters_concurrence(bell) == pytest.approx(1.0, abs=1e-9)
    m = np.zeros((4, 4), complex)
    m[0, 0] = 1.0
    assert wootters_concurrence(DensityMatrix(m, 2)) == pytest.approx(0.0, abs=1e-9)


def test_concurrence_rejects_qutrits():
    with pytest.raises(DimensionUnsupported):
        wootters_concurrence(noisy_singlet(0.5, 3))


def test_concurrence_positive_iff_npt():
    # Peres-Horodecki is exact in 2x2; exclude borderline cases
    checked = 0
    for i in range(500):
        rho = random_state(2, i, seed=55)
        c = wootters_concurrence(rho)
        npt = is_npt(rho)
        if c < 1e-9 and not npt:
            continue  # borderline-free separable; consistent
        if abs(c) < 1e-9:
            continue  # margin excluded
        assert npt == (c > 0)
        checked += 1
    assert checked > 100


# ---- harness ----

def test_harness_zero_violations():
    report = inequality_harness(300, seed=42)
    assert report.total_violations == 0
    assert {c.name for c in report.checks} == {
        "trace_sandwich",
        "weyl_extremes",
        "lambda_max_range",
        "fef_below_lambda_max_d2",
        "basis_bound_below_lambda_max_d3",
        "dembo_quarter_sandwich",
    }
    for c in report.checks:
        assert c.worst_slack >= 0.0
        assert 0 <= c.worst_trial < 300


def test_seeds_outside_uint64_are_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64 - 1\]"):
            SamplingBudget(1, seed=seed)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64 - 1\]"):
            inequality_harness(1, seed)
    assert SamplingBudget(1, seed=2**64 - 1).seed == 2**64 - 1
    assert inequality_harness(1, 2**64 - 1).total_violations == 0


def test_harness_deterministic():
    a = inequality_harness(50, seed=9)
    b = inequality_harness(50, seed=9)
    assert a == b


def test_harness_rejects_zero_trials():
    with pytest.raises(ValueError):
        inequality_harness(0, seed=1)


def test_harness_reports_injected_failure():
    def bad(rng):
        return -1.0

    report = inequality_harness(10, seed=4, checks=[("always_bad", bad)])
    assert report.total_violations == 10
    assert report.checks[0].name == "always_bad"
    assert report.checks[0].worst_slack == -1.0


def test_weyl_degenerate_equality():
    # A = B = I: both Weyl bounds collapse to equality
    w = np.ones(4)
    assert w[-1] + w[0] == pytest.approx(2.0)
    s = np.linalg.eigvalsh(2 * np.eye(4))
    assert s[-1] == pytest.approx(w[-1] + w[-1]) == pytest.approx(w[-1] + w[0])
