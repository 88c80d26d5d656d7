import json
import math

import numpy as np
import pytest

from teleres import (
    DensityMatrix,
    NotAState,
    ParseError,
    load_state,
    noisy_singlet,
    phi_plus,
    qutrit_me_basis,
    rho1,
    rho2,
    rho3,
    rho_alpha,
    save_state,
    sigma_family,
)
from teleres.oracle import wootters_concurrence
from conftest import partial_trace, random_state

S2 = math.sqrt(2.0)


# ---- DensityMatrix validation ----

def test_validation_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.1
    with pytest.raises(NotAState, match="Hermitian"):
        DensityMatrix(m, 2)


def test_validation_rejects_bad_trace():
    with pytest.raises(NotAState, match="trace"):
        DensityMatrix(np.eye(4, dtype=complex), 2)


def test_validation_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(NotAState, match="positive semidefinite"):
        DensityMatrix(m, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_validation_rejects_non_finite_entry(bad):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = bad
    with pytest.raises(NotAState, match="non-finite"):
        DensityMatrix(m, 2)


def test_validation_rejects_non_square_dimension():
    with pytest.raises(NotAState):
        DensityMatrix(np.eye(6, dtype=complex) / 6, None)


def test_spectrum_is_cached_ascending():
    rho = random_state(2, 0)
    assert np.all(np.diff(rho.spectrum) >= 0)
    assert rho.spectrum[-1] <= 1 + 1e-10
    assert rho.spectrum[-1] >= 1 / rho.dim - 1e-10


# ---- phi_plus ----

def test_phi_plus_d2():
    v = phi_plus(2).vec
    np.testing.assert_allclose(v, np.array([1, 0, 0, 1]) / S2)


def test_phi_plus_d3_support():
    v = phi_plus(3).vec
    nz = np.nonzero(v)[0]
    np.testing.assert_array_equal(nz, [0, 4, 8])
    np.testing.assert_allclose(v[nz], 1 / math.sqrt(3))


def test_phi_plus_reductions_maximally_mixed():
    proj = phi_plus(3).projector()
    np.testing.assert_allclose(partial_trace(proj, 3, "first"), np.eye(3) / 3, atol=1e-12)
    np.testing.assert_allclose(partial_trace(proj, 3, "second"), np.eye(3) / 3, atol=1e-12)


def test_phi_plus_rejects_small_d():
    with pytest.raises(ValueError):
        phi_plus(1)


# ---- sigma family ----

def test_sigma_example_entries():
    m = sigma_family(0.2, 0.4, 0.4, 0.25 + 0.1j).mat
    expect = np.zeros((4, 4), complex)
    expect[1, 1] = 0.2
    expect[1, 2] = 0.25 + 0.1j
    expect[2, 1] = 0.25 - 0.1j
    expect[2, 2] = 0.4
    expect[3, 3] = 0.4
    np.testing.assert_allclose(m, expect)


def test_sigma_zero_coherence_is_separable_diagonal():
    rho = sigma_family(0.3, 0.3, 0.4, 0.0)
    assert np.count_nonzero(rho.mat - np.diag(np.diagonal(rho.mat))) == 0
    assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_sigma_pure_bell_state():
    rho = sigma_family(0.5, 0.5, 0.0, 0.5)
    psi = np.array([0, 1, 1, 0], complex) / S2
    np.testing.assert_allclose(rho.mat, np.outer(psi, psi.conj()), atol=1e-15)
    assert rho.spectrum[-1] == pytest.approx(1.0, abs=1e-12)


def test_sigma_concurrence_equals_2f(rng):
    for _ in range(50):
        b, d = rng.uniform(0.05, 0.5, 2)
        e = 1.0 - b - d
        fmax = math.sqrt(b * d)
        f = rng.uniform(0, fmax) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho = sigma_family(b, d, e, f)
        assert wootters_concurrence(rho) == pytest.approx(2 * abs(f), abs=1e-9)


def test_sigma_rejects_invalid():
    with pytest.raises(NotAState):
        sigma_family(0.5, 0.4, 0.2, 0.0)  # sums to 1.1
    with pytest.raises(NotAState):
        sigma_family(0.2, 0.2, 0.6, 0.5)  # |f|^2 > b*d
    with pytest.raises(NotAState):
        sigma_family(-0.1, 0.5, 0.6, 0.0)


# ---- rho1 ----

def test_rho1_entries_and_trace():
    m = rho1().mat
    assert m[1, 1] == pytest.approx((3 - 2 * S2) / 2)
    assert m[1, 2] == pytest.approx((1 - S2) / 2)
    assert m[3, 3] == pytest.approx(S2 - 1)
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)


def test_rho1_lambda_max_closed_form():
    assert rho1().spectrum[-1] == pytest.approx(2 - S2, abs=1e-12)


# ---- rho2 ----

@pytest.mark.parametrize("a", [0.35, 0.36, 0.369])
def test_rho2_trace_and_closed_form_lambda_max(a):
    rho = rho2(a)
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-15)
    closed = 0.25 + 0.5 * math.sqrt(0.4436 - 2 * a + 4 * a * a)
    assert rho.spectrum[-1] == pytest.approx(closed, abs=1e-12)


def test_rho2_couplings():
    m = rho2(0.36).mat
    assert m[0, 8] == pytest.approx(-0.22)
    assert m[4, 5] == pytest.approx(-0.22)


def test_rho2_printed_interval_top_is_marginally_nonpositive():
    # the family floor admits the printed interval; exact positivity ends
    # near a = 0.36874
    assert rho2(0.369).spectrum[0] == pytest.approx(-1.22e-4, abs=2e-6)
    assert rho2(0.368).spectrum[0] >= -1e-10


def test_rho2_range_check():
    with pytest.raises(ValueError):
        rho2(0.34)
    with pytest.raises(ValueError):
        rho2(0.37)


# ---- rho3 ----

def test_rho3_nonzero_spectrum_at_half():
    spec = rho3(0.5).spectrum
    nonzero = spec[np.abs(spec) > 1e-12]
    np.testing.assert_allclose(sorted(nonzero), [0.235, 0.25, 0.25, 0.265], atol=1e-12)


@pytest.mark.parametrize("a", np.linspace(0.5, 0.65, 7))
def test_rho3_closed_form_lambda_max(a):
    closed = 0.125 * (2 + math.sqrt(16 * a * a - 16 * a + 4.0144))
    assert rho3(float(a)).spectrum[-1] == pytest.approx(closed, abs=1e-12)
    assert np.trace(rho3(float(a)).mat).real == pytest.approx(1.0, abs=1e-15)


def test_rho3_range_check():
    with pytest.raises(ValueError):
        rho3(0.49)
    with pytest.raises(ValueError):
        rho3(0.66)


# ---- rho_alpha ----

@pytest.mark.parametrize("alpha", [4.1, 4.5, 5.0])
def test_rho_alpha_diagonal_and_lambda_max(alpha):
    rho = rho_alpha(alpha)
    assert rho.mat[1, 1].real == pytest.approx(alpha / 21)  # |01><01| weight
    assert rho.mat[3, 3].real == pytest.approx((5 - alpha) / 21)  # |10><10| weight
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-14)
    assert rho.spectrum[-1] == pytest.approx(2 / 7, abs=1e-10)


def test_rho_alpha_range_check():
    with pytest.raises(ValueError):
        rho_alpha(4.0)
    with pytest.raises(ValueError):
        rho_alpha(5.01)
    rho_alpha(5.0)


# ---- noisy singlet ----

def test_noisy_singlet_maximally_mixed_at_p0():
    for d in (2, 3):
        rho = noisy_singlet(0.0, d)
        assert rho.spectrum[-1] == pytest.approx(1 / d ** 2, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_noisy_singlet_lambda_max_formula(d):
    for p in np.linspace(0, 1, 11):
        rho = noisy_singlet(float(p), d)
        assert rho.spectrum[-1] == pytest.approx(p + (1 - p) / d ** 2, abs=1e-10)


def test_noisy_singlet_range_check():
    with pytest.raises(ValueError):
        noisy_singlet(-0.1, 2)
    with pytest.raises(ValueError):
        noisy_singlet(1.1, 2)
    with pytest.raises(ValueError):
        noisy_singlet(0.5, 1)


# ---- qutrit maximally entangled basis ----

def test_qutrit_basis_orthonormal():
    basis = qutrit_me_basis()
    assert len(basis) == 9
    assert isinstance(basis, tuple) and qutrit_me_basis() is basis  # built once, shared
    for i in range(9):
        for j in range(9):
            ip = np.vdot(basis[i].vec, basis[j].vec)
            assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-12


def test_qutrit_basis_reductions_maximally_mixed():
    for b in qutrit_me_basis():
        proj = b.projector()
        np.testing.assert_allclose(partial_trace(proj, 3, "first"), np.eye(3) / 3, atol=1e-12)
        np.testing.assert_allclose(partial_trace(proj, 3, "second"), np.eye(3) / 3, atol=1e-12)


def test_qutrit_basis_rho2_overlap():
    basis = qutrit_me_basis()
    for a in (0.35, 0.369):
        rho = rho2(a)
        overlaps = [float(np.vdot(b.vec, rho.mat @ b.vec).real) for b in basis]
        assert max(overlaps) == pytest.approx((1.22 - a) / 3, abs=1e-12)
        assert overlaps[6] == pytest.approx((1.22 - a) / 3, abs=1e-12)


# ---- file format ----

def test_state_file_round_trip(tmp_path):
    for rho in (rho1(), rho2(0.369), rho_alpha(4.5), noisy_singlet(0.3, 2)):
        path = tmp_path / "state.json"
        save_state(rho, path)
        back = load_state(path)
        assert back.d == rho.d
        np.testing.assert_allclose(back.mat, rho.mat, atol=1e-15)


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_state(p)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_state(tmp_path / "nope.json")


def test_load_rejects_wrong_schema(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"d": 2, "entries": [[1.0, 0.0]] * 3}))
    with pytest.raises(ParseError, match="length"):
        load_state(p)
    p.write_text(json.dumps({"d": "two", "entries": []}))
    with pytest.raises(ParseError):
        load_state(p)
    p.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ParseError):
        load_state(p)
    p.write_text(json.dumps({"d": 2, "entries": [["x", 0.0]] * 16}))
    with pytest.raises(ParseError):
        load_state(p)


def test_load_rejects_invalid_state(tmp_path):
    # diag(0.6, 0.5, -0.1, 0): unit trace but not PSD
    p = tmp_path / "doc.json"
    diag = {0: 0.6, 5: 0.5, 10: -0.1}
    doc = {"d": 2, "entries": [[diag.get(i, 0.0), 0.0] for i in range(16)]}
    p.write_text(json.dumps(doc))
    with pytest.raises(NotAState, match="positive semidefinite"):
        load_state(p)


def test_every_catalog_state_validates():
    # constructors only return validated DensityMatrix instances
    states = [
        rho1(),
        rho3(0.6),
        rho_alpha(4.2),
        noisy_singlet(0.7, 3),
        sigma_family(0.25, 0.35, 0.4, 0.2j),
        rho2(0.36),
    ]
    for rho in states:
        assert isinstance(rho, DensityMatrix)
        assert abs(np.trace(rho.mat) - 1) < 1e-12
