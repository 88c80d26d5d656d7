import json
import math
import re

import numpy as np
import pytest

from teleres import (
    DensityMatrix,
    FilterOperator,
    MaximallyEntangledVector,
    Verdict,
    dembo_bounds,
    f_opt_locc_pt,
    f_opt_locc_spa,
    fef_2qubit,
    fidelity_from_fraction,
    is_npt,
    max_eigenvalue,
    noisy_singlet,
    optimize_filter,
    partial_transpose,
    phi_plus,
    qutrit_me_basis,
    rho1,
    rho2,
    rho3,
    rho_alpha,
    sigma_family,
    sigma_spa_threshold,
    singlet_fraction_basis,
    spa_pt,
    spa_pt_2qubit,
    spa_trace_identity,
    verdict,
    x_opt,
)
from teleres import criteria, linalg
from teleres.criteria import DemboDecomposition, DimensionUnsupported
from teleres.linalg import DimensionMismatch, hermitian_eigen, trace_product
from teleres.oracle import _rng, haar_unitary, random_density_matrix
from teleres.states import FAMILIES
from conftest import near_hermitian_2qubit, random_state

S2 = math.sqrt(2.0)


def sigma1() -> DensityMatrix:
    return sigma_family(0.2, 0.4, 0.4, 0.25 + 0.1j)


def bell_phi() -> DensityMatrix:
    return DensityMatrix(phi_plus(2).projector(), 2)


def bell_singlet() -> DensityMatrix:
    psi = np.array([0, 1, -1, 0], complex) / S2
    return DensityMatrix(np.outer(psi, psi.conj()), 2)


# ---- partial transpose ----

def test_pt_of_product_state_stays_positive(rng):
    for _ in range(10):
        ga = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ra = ga @ ga.conj().T
        rb = gb @ gb.conj().T
        ra /= np.trace(ra).real
        rb /= np.trace(rb).real
        rho = DensityMatrix(np.kron(ra, rb), 2)
        pt = partial_transpose(rho)
        np.testing.assert_allclose(pt, np.kron(ra, rb.T), atol=1e-14)
        assert hermitian_eigen(pt)[0] >= -1e-12


def test_pt_is_involution():
    for i in range(100):
        rho = random_state(2 if i % 2 else 3, i, seed=21)
        pt = partial_transpose(rho)
        d = rho.d
        again = pt.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(rho.dim, rho.dim)
        np.testing.assert_allclose(again, rho.mat, atol=1e-15)


def test_pt_first_is_transpose_of_second():
    rho = random_state(3, 0, seed=22)
    first = rho.mat.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)  # rho^{T_A}, built by reshape
    np.testing.assert_array_equal(first, partial_transpose(rho).T)


def test_pt_owns_its_memory():
    # spa_pt's DensityMatrix keeps an array that owns its memory, and copies any other
    assert partial_transpose(rho1()).flags.owndata
    assert partial_transpose(rho3(np.array([0.5, 0.6]))).flags.owndata


def test_rho1_is_npt():
    assert hermitian_eigen(partial_transpose(rho1()))[0] < -1e-3
    assert is_npt(rho1())


def test_is_npt_examples():
    assert is_npt(noisy_singlet(1.0, 2))
    assert is_npt(rho2(0.36))
    assert not is_npt(noisy_singlet(0.0, 3))


@pytest.mark.parametrize("d", [2, 3])
def test_noisy_singlet_npt_flip_by_bisection(d):
    lo, hi = 0.0, 1.0  # not NPT at 0, NPT at 1
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if is_npt(noisy_singlet(mid, d)):
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(1 / (d + 1), abs=1e-3)


# ---- SPA of the partial transpose ----

def test_spa_sigma_family_pattern():
    b, d, e, f = 0.3, 0.3, 0.4, 0.1 + 0.2j
    st = spa_pt(sigma_family(b, d, e, f)).mat
    expect = np.diag([2 / 9, (2 + b) / 9, (2 + d) / 9, (2 + e) / 9]).astype(complex)
    expect[0, 3] = f / 9
    expect[3, 0] = np.conj(f) / 9
    np.testing.assert_allclose(st, expect, atol=1e-15)


def test_spa_sigma1_example():
    st = spa_pt(sigma1()).mat
    assert st[0, 3] == pytest.approx((0.25 + 0.1j) / 9)
    np.testing.assert_allclose(np.diagonal(st).real * 9, [2.0, 2.2, 2.4, 2.4], atol=1e-15)


def test_spa_fixes_maximally_mixed():
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4, 2)
    np.testing.assert_allclose(spa_pt(rho).mat, rho.mat, atol=1e-15)


def test_spa_outputs_are_states_and_map_is_affine_pt():
    # at d = 2 the map is 9 rho~ = rho^Gamma + 2I
    for i in range(200):
        rho = random_state(2, i, seed=23)
        st = spa_pt(rho)  # constructor validates
        np.testing.assert_allclose(
            9 * st.mat, partial_transpose(rho) + 2 * np.eye(4), atol=1e-13
        )


def _spa_entry_map(rho: DensityMatrix) -> np.ndarray:
    """The two-qubit SPA-PT written out entry by entry, kept as a reference:
    diagonal (2 + e_ii)/9; off-diagonal (E12, E13, E14, E23, E24, E34) =
    (e12*, e13, e23, e14, e24, e34*)/9."""
    e = rho.mat
    m = np.zeros(e.shape, dtype=np.complex128)
    diag = np.arange(4)
    m[..., diag, diag] = (2.0 + e[..., diag, diag]) / 9.0
    rows, cols = (0, 0, 0, 1, 1, 2), (1, 2, 3, 2, 3, 3)  # E12 ... E34, 0-based
    src = e[..., (0, 0, 1, 0, 1, 2), (1, 2, 2, 3, 3, 3)]  # e12, e13, e23, e14, e24, e34
    upper = np.where([True, False, False, False, False, True], src.conj(), src) / 9.0
    m[..., rows, cols] = upper
    m[..., cols, rows] = upper.conj()
    return m


def test_spa_equals_entry_map_at_d2():
    # equal values; the bytes may differ in the sign of a zero imaginary
    # part, where the entry map conjugates an exact zero
    states = [random_density_matrix(2, _rng(24, i), rank=1 + i % 4) for i in range(400)]
    for rho in (*states, sigma1(), rho1()):
        assert np.array_equal(spa_pt(rho).mat, _spa_entry_map(rho))
    stack = DensityMatrix(np.stack([rho.mat for rho in states]), 2)
    assert np.array_equal(spa_pt(stack).mat, _spa_entry_map(stack))


def test_spa_pt_2qubit_is_spa_pt():
    assert spa_pt_2qubit is spa_pt is criteria.spa_pt_2qubit


def test_spa_readers_solve_nothing_and_spa_pt_still_validates(monkeypatch):
    # the filter value and the SPA identity read the SPA matrix of a validated state without
    # validating it again; spa_pt alone wraps it in a state, with its one eigensolve
    solves = []
    lapack = linalg._eigvalsh
    monkeypatch.setattr(linalg, "_eigvalsh", lambda m: solves.append(np.shape(m)) or lapack(m))
    one, stack, qutrits = sigma1(), noisy_singlet(np.array([0.2, 0.9]), 2), rho3(np.array([0.5, 0.6]))
    solves.clear()
    for rho in (one, stack):
        f_opt_locc_spa(rho, FilterOperator(0.9))
        f_opt_locc_spa(rho, FilterOperator(np.array([0.5, 1.0])), unit_trace=True)
        spa_trace_identity(x_opt(FilterOperator(0.9), unit_trace=True), rho)
    spa_trace_identity(np.eye(9) / 9, qutrits)
    assert solves == []
    st = spa_pt(stack)
    assert solves == [(2, 4, 4)] and isinstance(st, DensityMatrix) and st.spectrum.shape == (2, 4)
    assert f_opt_locc_spa(stack, FilterOperator(0.9)).tolist() == [
        2.5 - 9.0 * trace_product(x_opt(FilterOperator(0.9)), m).real for m in st.mat]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_spa_is_a_state_and_affine_pt_at_every_d(d):
    n = d * d
    for i in range(2 * n):  # every rank 1 .. n, twice
        rho = random_density_matrix(d, _rng(25 + d, i), rank=1 + i % n)
        st = spa_pt(rho)
        assert st.d == d and st.spectrum[0] >= 0.0
        assert np.array_equal(st.mat, (partial_transpose(rho) + d * np.eye(n)) / (d**3 + 1))
    for rho in (noisy_singlet(0.5, d), *((rho2(0.36), rho3(0.6)) if d == 3 else ())):
        assert spa_pt(rho).spectrum[0] >= 0.0


def _spa_choi(d: int) -> np.ndarray:
    """Choi matrix sum_ij E_ij x SPA(E_ij) of the map, from its values on the
    states E_ii, P+ and Py (projectors on (|i> + |j>)/sqrt2 and
    (|i> + i|j>)/sqrt2), since E_ij = P+ + i Py - (1 + i)(E_ii + E_jj)/2 and
    E_ji = P+ - i Py - (1 - i)(E_ii + E_jj)/2."""
    n = d * d
    eye = np.eye(n, dtype=complex)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    vecs = [*eye, *((eye[i] + eye[j]) / S2 for i, j in pairs), *((eye[i] + 1j * eye[j]) / S2 for i, j in pairs)]
    out = spa_pt(DensityMatrix(np.stack([np.outer(v, v.conj()) for v in vecs]), d)).mat
    diag, plus, y = out[:n], out[n : n + len(pairs)], out[n + len(pairs) :]
    image = np.empty((n, n, n, n), complex)
    image[range(n), range(n)] = diag
    for k, (i, j) in enumerate(pairs):
        image[i, j] = plus[k] + 1j * y[k] - (1 + 1j) / 2 * (diag[i] + diag[j])
        image[j, i] = plus[k] - 1j * y[k] - (1 - 1j) / 2 * (diag[i] + diag[j])
    return image.transpose(0, 2, 1, 3).reshape(n * n, n * n)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_spa_is_completely_positive_on_the_boundary(d):
    # smallest Choi eigenvalue 0: completely positive, and d is the least
    # weight of the identity that makes it so
    choi = _spa_choi(d)
    assert np.abs(choi - choi.conj().T).max() < 1e-15
    assert abs(np.linalg.eigvalsh(choi)[0]) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_identity_holds_for_unit_trace_x_at_every_d(d):
    n = d * d
    for i in range(20):
        gen = _rng(36 + d, i)
        rho = random_density_matrix(d, gen, rank=1 + i % n)
        a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        x = a + a.conj().T
        x[range(n), range(n)] -= (np.trace(x).real - 1.0) / n  # Tr X = 1
        rhs = trace_product(x, partial_transpose(rho)).real
        assert abs(spa_trace_identity(x, rho) - rhs) < 1e-12
        # for general X the sides differ by d Tr X - d
        assert abs(spa_trace_identity(3 * x, rho) - 3 * rhs - 2 * d) < 1e-12


# ---- filter and X operator ----

def test_filter_range():
    with pytest.raises(ValueError):
        FilterOperator(-0.1)
    with pytest.raises(ValueError):
        FilterOperator(1.1)


def test_filter_keeps_a_read_only_copy_of_an_array_parameter():
    a = np.array([0.5, 0.7])
    flt = FilterOperator(a)
    a[0] = 5.0  # after the range check: the filter must not see it
    assert f_opt_locc_pt(rho1(), flt).tolist() == f_opt_locc_pt(rho1(), FilterOperator(np.array([0.5, 0.7]))).tolist()
    assert f_opt_locc_pt(rho1(), flt).max() <= 0.5
    for given in (np.array([0.5, 0.7]), np.array(0.5), [0.5, 0.7], (0, 1)):
        kept = FilterOperator(given).a
        assert kept is not given and kept.dtype == np.float64 and not kept.flags.writeable
        np.testing.assert_array_equal(kept, given)
    for scalar in (0.5, np.float64(0.5), 1):
        assert FilterOperator(scalar).a is scalar


def test_x_opt_identity_filter_is_bell_projector():
    np.testing.assert_allclose(x_opt(FilterOperator(1.0)), phi_plus(2).projector(), atol=1e-15)


def test_x_opt_corner_values():
    x = x_opt(FilterOperator(0.78))
    assert x[0, 0] == pytest.approx(0.3042)
    assert x[0, 3] == pytest.approx(0.39)
    assert x[3, 3] == pytest.approx(0.5)


def test_x_opt_is_rank_one():
    for a in (0.1, 0.5, 1.0):
        w = hermitian_eigen(x_opt(FilterOperator(a)))
        assert np.sum(w > 1e-12) == 1


def test_x_opt_unit_trace():
    for a in (0.0, 0.3, 1.0):
        x = x_opt(FilterOperator(a), unit_trace=True)
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-14)


# ---- SPA trace identity ----

def test_identity_holds_for_unit_trace_x_500_pairs():
    for i in range(500):
        gen = _rng(31, i)
        rho = random_density_matrix(2, gen)
        flt = FilterOperator(float(gen.uniform(0, 1)))
        x = x_opt(flt, unit_trace=True)
        lhs = spa_trace_identity(x, rho)
        rhs = trace_product(x, partial_transpose(rho)).real
        assert abs(lhs - rhs) < 1e-9


def test_identity_raw_form_on_sigma1_matches_quoted_combination():
    # with the literal (unnormalized) X: 9 Tr(X sigma~) - 2 = a^2 + 0.25a - 0.8
    sig = sigma1()
    for a in np.linspace(0.0, 1.0, 9):
        got = spa_trace_identity(x_opt(FilterOperator(float(a))), sig)
        assert got == pytest.approx(a * a + 0.25 * a - 0.8, abs=1e-12)


def test_identity_at_bell_state_identity_filter():
    # Tr X = 1 at a = 1, so both sides agree; the common value is +1/2
    rho = bell_phi()
    x = x_opt(FilterOperator(1.0))
    lhs = spa_trace_identity(x, rho)
    rhs = trace_product(x, partial_transpose(rho)).real
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert lhs == pytest.approx(0.5, abs=1e-12)


def test_identity_rejects_non_hermitian_x():
    x = np.zeros((4, 4), complex)
    x[0, 1] = 1.0
    with pytest.raises(ValueError):
        spa_trace_identity(x, rho1())


@pytest.mark.parametrize("unit_trace", [False, True])
def test_identity_on_a_stack_of_x_equals_each_member(unit_trace):
    a = np.array([0.0, 0.5, 0.78, 1.0])
    for rho in (sigma1(), random_density_matrix(2, _rng(37, 0))):
        got = spa_trace_identity(x_opt(FilterOperator(a), unit_trace=unit_trace), rho)
        want = [spa_trace_identity(x_opt(FilterOperator(float(ai)), unit_trace=unit_trace), rho) for ai in a]
        assert got.shape == a.shape
        np.testing.assert_array_equal(got, want)


def test_identity_rejects_a_stack_with_one_non_hermitian_x():
    x = x_opt(FilterOperator(np.array([0.5, 1.0])))
    x[1, 0, 3] += 1e-6
    with pytest.raises(ValueError, match="X must be Hermitian"):
        spa_trace_identity(x, rho1())
    x[1, 0, 3] = np.nan
    with pytest.raises(ValueError, match="X must be Hermitian"):
        spa_trace_identity(x, rho1())


# ---- LOCC filtered values ----

def test_figure_curve_matches_quadratic():
    sig = sigma1()
    for a in np.linspace(0.78, 1.0, 50):
        got = f_opt_locc_spa(sig, FilterOperator(float(a)))
        assert got == pytest.approx((2.6 - 2 * a * a - 0.5 * a) / 2, abs=1e-12)


def test_pt_and_spa_routes_agree_with_unit_trace():
    for i in range(500):
        gen = _rng(32, i)
        rho = random_density_matrix(2, gen)
        flt = FilterOperator(float(gen.uniform(0, 1)))
        fpt = f_opt_locc_pt(rho, flt, unit_trace=True)
        fspa = f_opt_locc_spa(rho, flt, unit_trace=True)
        assert abs(fpt - fspa) < 1e-9


def test_raw_route_gap_is_one_minus_a_squared():
    # the literal (trace (1+a^2)/2) X makes the SPA route exceed the PT
    # route by exactly 1 - a^2; pinned as the documented discrepancy
    for i in range(50):
        gen = _rng(33, i)
        rho = random_density_matrix(2, gen)
        a = float(gen.uniform(0, 1))
        flt = FilterOperator(a)
        gap = f_opt_locc_spa(rho, flt) - f_opt_locc_pt(rho, flt)
        assert gap == pytest.approx(1 - a * a, abs=1e-10)


def test_ppt_states_never_clear_half_via_pt_route():
    # separable mixture of products: PT stays PSD, so Tr(X rho^G) >= 0
    for i in range(50):
        gen = _rng(34, i)
        m = np.zeros((4, 4), complex)
        for _ in range(3):
            ga = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
            gb = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
            m += np.kron(ga @ ga.conj().T, gb @ gb.conj().T)
        rho = DensityMatrix(m / np.trace(m).real, 2)
        flt = FilterOperator(float(gen.uniform(0, 1)))
        assert f_opt_locc_pt(rho, flt) <= 0.5 + 1e-12


def test_spa_route_threshold_at_two_ninths():
    sig = sigma1()
    for a in np.linspace(0, 1, 21):
        flt = FilterOperator(float(a))
        t = trace_product(x_opt(flt), spa_pt(sig).mat).real
        val = f_opt_locc_spa(sig, flt)
        assert (val <= 0.5) == (t >= 2 / 9 - 1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.1 + 1j, "x", [0.25, 0.4]])
def test_sigma_threshold_rejects_non_finite(bad):
    for args in ((bad, 0.4), (0.25, bad), (bad, bad)):
        with pytest.raises(ValueError, match="not finite"):
            sigma_spa_threshold(*args)


def test_sigma_threshold_formula():
    assert sigma_spa_threshold(0.25, 0.4) == pytest.approx(0.7781, abs=1e-4)
    # value <= 1/2 exactly above the threshold, over random family members
    gen = _rng(35, 0)
    for _ in range(25):
        b, d = gen.uniform(0.05, 0.45, 2)
        e = 1 - b - d
        f = complex(gen.uniform(0, math.sqrt(b * d)))
        rho = sigma_family(b, d, e, f)
        thr = sigma_spa_threshold(f.real, e)
        for a in np.linspace(0, 1, 21):
            val = f_opt_locc_spa(rho, FilterOperator(float(a)))
            if a >= min(thr, 1.0) + 1e-12:
                assert val <= 0.5 + 1e-12
            elif a < min(thr, 1.0) - 1e-12:
                assert val > 0.5 - 1e-12


# ---- filter optimization ----

def test_optimize_filter_singlet_reaches_one():
    a_star, f_star = optimize_filter(bell_singlet())
    assert a_star == pytest.approx(1.0, abs=1e-7)
    assert f_star == pytest.approx(1.0, abs=1e-9)


def test_optimize_filter_sigma1_clips_to_zero():
    a_star, _ = optimize_filter(sigma1())
    assert a_star == pytest.approx(0.0, abs=1e-7)


def test_optimize_filter_rho1_saturates_at_half():
    # within the diag(a, 1) family the PT value for this state peaks at
    # exactly 1/2 (at a = 1); the family cannot push it beyond
    a_star, f_star = optimize_filter(rho1())
    assert a_star == pytest.approx(1.0, abs=1e-7)
    assert f_star == pytest.approx(0.5, abs=1e-9)


def test_optimize_filter_dominates_grid():
    for i in range(500):
        rho = random_state(2, i, seed=36)
        _, f_star = optimize_filter(rho)
        for a in (0.0, 0.5, 1.0):
            assert f_star >= f_opt_locc_pt(rho, FilterOperator(a)) - 1e-10


def test_optimize_filter_closed_form_is_the_pt_value_and_beats_a_fine_grid():
    grid = np.linspace(0.0, 1.0, 1001)
    for rank in (1, 2, 3, 4):
        for i in range(2):
            rho = random_density_matrix(2, _rng(61, 100 * rank + i), rank=rank)
            a_star, f_star = optimize_filter(rho)
            assert f_star == f_opt_locc_pt(rho, FilterOperator(a_star))
            for a in grid:
                assert f_star >= f_opt_locc_pt(rho, FilterOperator(float(a))) - 1e-15


def test_optimize_filter_flat_value_takes_identity_filter():
    # rho_00 = Re rho_12 = 0: the PT value does not depend on a; a* = 1
    rho = DensityMatrix(np.diag([0.0, 0.3, 0.3, 0.4]).astype(complex), 2)
    a_star, f_star = optimize_filter(rho)
    assert a_star == 1.0
    assert f_star == f_opt_locc_pt(rho, FilterOperator(1.0))


# ---- singlet fraction ----

def test_basis_fraction_rho2_formula():
    basis = qutrit_me_basis()
    for a in np.linspace(0.35, 0.369, 5):
        rho = rho2(float(a))
        got = singlet_fraction_basis(rho, basis)
        assert got == pytest.approx((1.22 - a) / 3, abs=1e-12)
        # the stacked overlaps against a per-vector loop, up to summation order
        loop = max(float(np.vdot(b.vec, rho.mat @ b.vec).real) for b in basis)
        assert got == pytest.approx(loop, abs=1e-15)


def test_basis_fraction_phi3():
    rho = DensityMatrix(phi_plus(3).projector(), 3)
    # the basis carries phases, so the best overlap is 1/3, not 1
    assert singlet_fraction_basis(rho, qutrit_me_basis()) == pytest.approx(1 / 3, abs=1e-12)


def test_basis_fraction_maximally_mixed():
    rho = noisy_singlet(0.0, 3)
    assert singlet_fraction_basis(rho, qutrit_me_basis()) == pytest.approx(1 / 9, abs=1e-14)


def test_basis_fraction_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="length 9 does not match state dim 4"):
        singlet_fraction_basis(rho1(), qutrit_me_basis())


def test_basis_fraction_rejects_vectors_of_mixed_lengths():
    # the length is checked once per basis, so a basis whose first vector fits must still fail
    basis = [*qutrit_me_basis(), phi_plus(2)]
    for rho in (noisy_singlet(0.5, 3), rho1()):
        with pytest.raises(DimensionMismatch, match=r"mixed lengths \[4, 9\]"):
            singlet_fraction_basis(rho, basis)


def test_basis_fraction_empty_basis():
    with pytest.raises(ValueError, match="basis is empty"):
        singlet_fraction_basis(noisy_singlet(0.5, 3), [])


def _dense_basis_fraction(rho, basis):
    # the full d^2 x d^2 contraction, zero amplitudes included: the support path must give its exact bits
    vecs = np.array([b.vec for b in basis])
    return np.einsum("ki,...ij,kj->...k", vecs.conj(), rho.mat, vecs).real.max(-1)


def _mixed_width_basis():
    # supports of width 3 (phi+ and the qutrit basis), 5 (a rotation of two local levels) and 9 (Haar)
    rot = np.eye(3, dtype=complex)
    rot[:2, :2] = [[0.6, 0.8j], [0.8j, 0.6]]
    dense = haar_unitary(3, _rng(20, 0))
    return [phi_plus(3)] + [MaximallyEntangledVector(np.kron(u, np.eye(3)) @ phi_plus(3).vec)
                            for u in (rot, dense)] + list(qutrit_me_basis())


def _random_d3_states():
    rng = _rng(20, 1)
    return [random_density_matrix(3, rng, rank) for rank in [None, *range(1, 10)] for _ in range(4)]


def test_mixed_width_basis_has_the_intended_supports():
    widths = sorted({int(np.count_nonzero(b.vec)) for b in _mixed_width_basis()})
    assert widths == [3, 5, 9]


@pytest.mark.parametrize("basis", [qutrit_me_basis(), _mixed_width_basis()], ids=["qutrit", "mixed"])
def test_basis_fraction_on_supports_is_the_dense_contraction_bit_for_bit(basis):
    states = _random_d3_states()
    for rho in states:
        assert singlet_fraction_basis(rho, basis) == _dense_basis_fraction(rho, basis)
    stack = DensityMatrix(np.array([rho.mat for rho in states]), 3)
    np.testing.assert_array_equal(singlet_fraction_basis(stack, basis), _dense_basis_fraction(stack, basis))
    for name, family in FAMILIES.items():
        if family.d not in (3, None):
            continue
        lo, hi, open_lo = family.interval
        params = np.linspace(lo, hi, 201)[1:] if open_lo else np.linspace(lo, hi, 200)
        rho = family.build(params, 3)
        np.testing.assert_array_equal(singlet_fraction_basis(rho, basis), _dense_basis_fraction(rho, basis),
                                      err_msg=name)


def test_basis_fraction_list_basis_matches_tuple():
    basis = _mixed_width_basis()
    states = _random_d3_states()
    stack = DensityMatrix(np.array([rho.mat for rho in states]), 3)
    np.testing.assert_array_equal(singlet_fraction_basis(stack, basis), singlet_fraction_basis(stack, tuple(basis)))
    assert singlet_fraction_basis(states[0], list(qutrit_me_basis())) == singlet_fraction_basis(
        states[0], qutrit_me_basis())


def test_basis_support_is_derived_once_per_basis():
    criteria._support.cache_clear()
    rho = noisy_singlet(0.5, 3)
    for basis in (qutrit_me_basis(), list(qutrit_me_basis()), qutrit_me_basis()):
        singlet_fraction_basis(rho, basis)
    info = criteria._support.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_fef_examples():
    assert fef_2qubit(rho1()) == pytest.approx(0.5, abs=1e-9)
    assert fef_2qubit(bell_phi()) == pytest.approx(1.0, abs=1e-12)
    assert fef_2qubit(bell_singlet()) == pytest.approx(1.0, abs=1e-12)
    assert fef_2qubit(noisy_singlet(0.0, 2)) == pytest.approx(0.25, abs=1e-12)
    # closed form for the sigma family: (b + d)/2 + |f|
    assert fef_2qubit(sigma1()) == pytest.approx(0.3 + abs(0.25 + 0.1j), abs=1e-12)


def _fef_checked(rho):
    """The exact FEF through the checked eigensolver, as it was computed
    before validation became its only Hermiticity gate."""
    m = criteria._MAGIC.conj().T @ rho.mat @ criteria._MAGIC
    return hermitian_eigen(m.real.astype(np.complex128))[..., -1]


def test_fef_of_a_near_hermitian_state_is_symmetrised_not_rejected():
    rho = DensityMatrix(near_hermitian_2qubit(), 2)
    with pytest.raises(linalg.NotHermitian, match="1.485e-10"):
        _fef_checked(rho)
    assert fef_2qubit(rho) == pytest.approx(0.25, abs=1e-12)
    assert verdict(rho).singlet_fraction_lower == fef_2qubit(rho)


def test_fef_equals_the_checked_route():
    catalog = [rho1(), sigma1(), bell_phi(), bell_singlet(), *(noisy_singlet(p, 2) for p in (0.0, 0.3, 1.0))]
    singles = catalog + [random_state(2, i, seed=41) for i in range(200)]
    for rho in singles:
        assert fef_2qubit(rho) == _fef_checked(rho)
    stack = DensityMatrix(np.stack([rho.mat for rho in singles]), 2)
    assert np.array_equal(fef_2qubit(stack), _fef_checked(stack))
    family = noisy_singlet(np.linspace(0.0, 1.0, 50), 2)
    assert np.array_equal(fef_2qubit(family), _fef_checked(family))


def test_fef_rejects_qutrits():
    with pytest.raises(DimensionUnsupported):
        fef_2qubit(noisy_singlet(0.5, 3))


@pytest.mark.parametrize("value, message", [
    (lambda rho: f_opt_locc_pt(rho, FilterOperator(0.5)), "filtered LOCC value is defined for d=2"),
    (lambda rho: f_opt_locc_spa(rho, FilterOperator(0.5)), "filtered LOCC value is defined for d=2"),
    (optimize_filter, "filter optimization is defined for d=2"),
], ids=["f_opt_locc_pt", "f_opt_locc_spa", "optimize_filter"])
def test_filter_values_reject_qutrits(value, message):
    with pytest.raises(DimensionUnsupported, match=f"^{message}$"):
        value(noisy_singlet(0.5, 3))


def test_lambda_max_dominates_singlet_fraction():
    basis = qutrit_me_basis()
    for i in range(100):
        rho2q = random_state(2, i, seed=37)
        assert max_eigenvalue(rho2q) >= fef_2qubit(rho2q) - 1e-9
        rho3q = random_state(3, i, seed=38)
        assert max_eigenvalue(rho3q) >= singlet_fraction_basis(rho3q, basis) - 1e-9


def test_max_eigenvalue_examples():
    assert max_eigenvalue(rho1()) == pytest.approx(0.5858, abs=5e-5)
    assert max_eigenvalue(noisy_singlet(0.0, 3)) == pytest.approx(1 / 9, abs=1e-14)


# ---- fidelity ----

def test_fidelity_from_fraction():
    assert fidelity_from_fraction(1.0, 2) == pytest.approx(1.0)
    for d in (2, 3, 4):
        assert fidelity_from_fraction(1 / d, d) == pytest.approx(2 / (d + 1))
    assert fidelity_from_fraction(max_eigenvalue(rho1()), 2) == pytest.approx(0.7239, abs=1e-4)
    with pytest.raises(ValueError):
        fidelity_from_fraction(1.2, 2)
    with pytest.raises(ValueError):
        fidelity_from_fraction(-0.1, 2)
    with pytest.raises(ValueError, match="local dimension must be >= 2, got 1"):
        fidelity_from_fraction(0.5, 1)
    for d in (2.5, "3"):
        with pytest.raises(ValueError, match=re.escape(f"local dimension must be an integer, got {d!r}")):
            fidelity_from_fraction(0.5, d)
    assert fidelity_from_fraction(0.5, np.int64(3)) == fidelity_from_fraction(0.5, 3)


# ---- Dembo bounds ----

def test_dembo_split_blocks_and_exact_eta():
    # R_sub of an exactly Hermitian state is solved unchecked, and gives
    # every bit the checked (symmetrising) route gives
    rho = random_state(3, 0, seed=39)
    dec = DemboDecomposition.from_matrix(rho.mat)
    np.testing.assert_array_equal(dec.r_sub, rho.mat[:8, :8])
    np.testing.assert_array_equal(dec.b, rho.mat[:8, 8])
    assert dec.c == rho.mat[8, 8].real
    assert (dec.eta_low, dec.eta_high) == tuple(hermitian_eigen(dec.r_sub)[[0, -1]])


def test_dembo_split_blocks_are_read_only():
    for mat in (rho1().mat, random_state(3, 0, seed=39).mat.copy(), rho3(np.array([0.5, 0.6])).mat):
        dec = DemboDecomposition.from_matrix(mat)
        with pytest.raises(ValueError, match="read-only"):
            dec.r_sub[..., 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            dec.b[..., 0] = 1.0


def _dembo_formulas(mat, eta_high=None):
    """(lower, upper_paper, upper_quarter) of one matrix, in Python floats, from R_sub's full spectrum."""
    lo, hi = (float(x) for x in hermitian_eigen(mat[:-1, :-1])[[0, -1]])
    hi = hi if eta_high is None else eta_high
    c, b = float(mat[-1, -1].real), np.ascontiguousarray(mat[:-1, -1])
    btb = float(np.vdot(b, b).real)
    return ((c + lo) / 2 + math.sqrt((c - lo) ** 2 / 4 + btb),
            (c + hi) / 2 + math.sqrt((c - hi) ** 2 / 2 + btb),
            (c + hi) / 2 + math.sqrt((c - hi) ** 2 / 4 + btb))


@pytest.mark.parametrize("d", [2, 3])
def test_dembo_split_bounds_equal_dembo_bounds_bit_for_bit(d):
    singles = [random_state(d, i, seed=41) for i in range(20)] + ([rho3(0.65), rho_alpha(4.5)] if d == 3 else [])
    stack = DensityMatrix(np.stack([r.mat for r in singles]), d)
    for eta_high in (None, 0.3):
        for rho in (*singles, stack):
            dec = DemboDecomposition.from_matrix(rho.mat, eta_high=eta_high)
            lower, upper_p = dembo_bounds(rho, "paper", eta_high=eta_high)
            _, upper_q = dembo_bounds(rho, "quarter", eta_high=eta_high)
            assert np.array_equal(dec.lower, lower) and np.array_equal(dec.upper_paper, upper_p)
            assert np.array_equal(dec.upper_quarter, upper_q)
        # and every member's bounds are the docstring's formulas in Python floats, bit for bit
        dec = DemboDecomposition.from_matrix(stack.mat, eta_high=eta_high)
        want = np.array([_dembo_formulas(r.mat, eta_high) for r in singles]).T
        np.testing.assert_array_equal([dec.lower, dec.upper_paper, dec.upper_quarter], want)


def test_dembo_quoted_eta_on_rho3_gives_the_exact_split_bits():
    # R_sub of rho3(0.65) is diagonal with top entry 0.65 / 2, the double nearest 0.325
    exact = DemboDecomposition.from_matrix(rho3(0.65).mat)
    quoted = DemboDecomposition.from_matrix(rho3(0.65).mat, eta_high=0.325)
    assert exact.eta_high == 0.325
    for name in ("eta_low", "lower", "upper_paper", "upper_quarter"):
        assert getattr(quoted, name) == getattr(exact, name), name


def test_dembo_rho3_reproduces_quoted_number():
    lower, upper = dembo_bounds(rho3(0.65), "paper", eta_high=0.325)
    assert upper == pytest.approx(0.357, abs=1e-3)
    assert upper == pytest.approx(0.25 + math.sqrt(0.011475), abs=1e-12)
    # at a = 0.65 the exact eta equals the quoted 0.325, so exact mode agrees
    _, upper_exact = dembo_bounds(rho3(0.65), "paper")
    assert upper_exact == pytest.approx(upper, abs=1e-12)


def test_dembo_quarter_is_exact_for_arrow_states():
    for a in (0.5, 0.55, 0.65):
        _, upper = dembo_bounds(rho3(a), "quarter")
        assert upper == pytest.approx(max_eigenvalue(rho3(a)), abs=1e-12)


def test_dembo_rho_alpha_documented_discrepancy():
    rho = rho_alpha(4.5)
    _, up_paper = dembo_bounds(rho, "paper", eta_high=5 / 21)
    _, up_quarter = dembo_bounds(rho, "quarter", eta_high=5 / 21)
    assert up_paper == pytest.approx(0.3350, abs=1e-4)
    assert up_quarter == pytest.approx(0.3191, abs=1e-4)
    # the quoted 0.3135 is reproduced by neither variant
    assert abs(up_paper - 0.3135) > 1e-2
    assert abs(up_quarter - 0.3135) > 5e-3


def test_dembo_sandwich_random_states():
    for i in range(1000):
        d = 2 if i % 2 else 3
        rho = random_state(d, i, seed=40)
        lam = max_eigenvalue(rho)
        lower, upper_q = dembo_bounds(rho, "quarter")
        _, upper_p = dembo_bounds(rho, "paper")
        assert lower - 1e-9 <= lam <= upper_q + 1e-9
        assert upper_q <= upper_p + 1e-12


def test_dembo_diagonal_matrix():
    rho = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), 2)
    lower, upper_q = dembo_bounds(rho, "quarter")
    _, upper_p = dembo_bounds(rho, "paper")
    # b = 0: quarter collapses to max(c, eta); paper stays strictly looser
    assert upper_q == pytest.approx(max(0.4, 0.3), abs=1e-15)
    assert upper_p == pytest.approx(0.35 + 0.1 / S2, abs=1e-15)
    assert lower == pytest.approx(max(0.4, 0.1), abs=1e-15)


def test_dembo_split_rejects_a_1x1_matrix():
    # and, as every routine does, a matrix that is not square
    for mat, error, match in ((np.ones((1, 1)), ValueError, "Dembo split needs dim >= 2"),
                              (np.zeros((3, 4)), DimensionMismatch, r"square matrix .* shape \(3, 4\)"),
                              (np.zeros(4), DimensionMismatch, r"square matrix .* shape \(4,\)")):
        with pytest.raises(error, match=match):
            DemboDecomposition.from_matrix(mat)


def test_dembo_rejects_unknown_variant():
    with pytest.raises(ValueError):
        dembo_bounds(rho1(), "half")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x"])
def test_dembo_rejects_non_finite_eta(bad):
    stack = DensityMatrix(np.stack([rho3(0.5).mat, rho3(0.65).mat]), 3)
    for rho in (rho3(0.65), stack):
        with pytest.raises(ValueError, match="finite"):
            dembo_bounds(rho, "paper", eta_high=bad)
    with pytest.raises(ValueError, match="finite"):
        DemboDecomposition.from_matrix(stack.mat, eta_high=np.array([0.325, bad]))


# ---- verdicts ----

@pytest.mark.parametrize("v", list(Verdict), ids=[v.value for v in Verdict])
def test_verdict_prints_as_its_label(v):
    # the label is what analyze prints and a sweep's verdict column holds, on every Python
    assert str(v) == format(v) == f"{v}" == "{}".format(v) == v.value
    assert json.dumps({"v": v}) == json.dumps({"v": v.value})

def test_verdict_rho1():
    rep = verdict(rho1())
    assert rep.verdict is Verdict.USEFUL_BY_LAMBDA_MAX
    assert rep.is_npt
    assert rep.lambda_max == pytest.approx(0.5858, abs=5e-5)
    assert rep.f_opt_locc == pytest.approx(0.5, abs=1e-8)


def test_verdict_rho2():
    rep = verdict(rho2(0.36))
    assert rep.verdict is Verdict.USEFUL_BY_LAMBDA_MAX


def test_verdict_rho3_dembo_detects_at_top_of_range():
    rep = verdict(rho3(0.65))
    assert rep.verdict is Verdict.USEFUL_BY_DEMBO
    assert rep.lambda_max <= 1 / 3
    assert rep.dembo_upper_paper > 1 / 3
    # with exact eta the paper-variant bound stays below 1/3 lower in the
    # family, so the criterion cannot fire there
    assert verdict(rho3(0.55)).verdict is Verdict.INCONCLUSIVE


def test_verdict_rho3_quarter_variant_cannot_fire():
    rep = verdict(rho3(0.65), "quarter")
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.dembo_upper_quarter <= 1 / 3


def test_verdict_maximally_mixed():
    for d in (2, 3):
        rep = verdict(noisy_singlet(0.0, d))
        assert rep.verdict is Verdict.SEPARABLE_BY_THEOREM2
        assert not rep.is_npt


def test_verdict_product_state_is_inconclusive():
    # |00><00| is separable with lam_max = 1 > 1/d: the max-eigenvalue
    # "only if" direction would misfire, so the guarded logic stays silent
    m = np.zeros((4, 4), complex)
    m[0, 0] = 1.0
    rep = verdict(DensityMatrix(m, 2))
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_verdict_singlet_fraction_branch():
    # PPT-impossible region: F > 1/d certifies usefulness even though the
    # lambda_max branch already fires for most such states; build one where
    # lambda_max stays at the threshold but F clears it
    rep = verdict(bell_phi())
    assert rep.verdict is Verdict.USEFUL_BY_LAMBDA_MAX
    assert rep.singlet_fraction_lower == pytest.approx(1.0, abs=1e-9)


def test_report_invariants_on_random_states():
    for i in range(50):
        d = 2 if i % 2 else 3
        rep = verdict(random_state(d, i, seed=41))
        assert rep.dembo_lower <= rep.lambda_max + 1e-9
        assert rep.lambda_max <= rep.dembo_upper_quarter + 1e-9
        assert rep.dembo_upper_quarter <= rep.dembo_upper_paper + 1e-12
        assert rep.fidelity_upper == pytest.approx(
            (rep.d * min(rep.lambda_max, 1.0) + 1) / (rep.d + 1), abs=1e-12
        )
        assert rep.singlet_fraction_lower <= rep.lambda_max + 1e-9


def test_verdict_eigensolves_each_matrix_once(monkeypatch):
    # d = 2: partial transpose, R_sub, magic-basis FEF; d >= 3: partial
    # transpose, R_sub (lambda_max comes from the validated spectrum)
    sizes = []
    checked = []
    lapack = linalg._eigvalsh

    def counting(mat):
        sizes.append(len(mat))
        return lapack(mat)

    def counting_checked(mat):
        checked.append(len(mat))
        return hermitian_eigen(mat)

    monkeypatch.setattr(linalg, "_eigvalsh", counting)
    monkeypatch.setattr(linalg, "hermitian_eigen", counting_checked)
    for rho, expected in ((rho1(), [3, 4, 4]), (rho3(0.65), [8, 9]), (noisy_singlet(0.9, 4), [15, 16])):
        sizes.clear()
        verdict(rho)
        assert sorted(sizes) == expected
    # validation is the one Hermiticity gate: even the FEF's magic-basis real
    # part, symmetric only up to rounding, is symmetrised rather than checked
    assert checked == []
    assert not hasattr(criteria, "hermitian_eigen")


def test_verdict_rejects_unknown_dembo_variant():
    with pytest.raises(ValueError, match="variant must be 'paper' or 'quarter', got 'half'"):
        verdict(rho3(0.65), "half")
    with pytest.raises(ValueError, match="variant must be 'paper' or 'quarter', got 'half'"):
        dembo_bounds(rho3(0.65), "half")


def test_verdict_d4_uses_phi_plus_overlap():
    rep = verdict(noisy_singlet(0.9, 4))
    assert rep.d == 4
    assert rep.verdict is Verdict.USEFUL_BY_LAMBDA_MAX
    assert rep.singlet_fraction_lower == pytest.approx(0.9 + 0.1 / 16, abs=1e-12)
