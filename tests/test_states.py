import json
import math
import re

import numpy as np
import pytest

from teleres import (
    FAMILIES,
    DensityMatrix,
    DimensionMismatch,
    MaximallyEntangledVector,
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
from teleres.cli import EXIT_VALIDATION, main
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


def test_validation_rejects_a_top_eigenvalue_below_one_over_d_squared():
    # no state of trace 1 has one, so the caller's spectrum supplies it
    with pytest.raises(NotAState, match=re.escape("max eigenvalue 0.200000000000 below 1/d^2")):
        DensityMatrix._with_spectrum(np.eye(4) / 4, 2, np.array([0.1, 0.1, 0.1, 0.2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_validation_rejects_non_finite_entry(bad):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = bad
    with pytest.raises(NotAState, match="non-finite"):
        DensityMatrix(m, 2)


@pytest.mark.parametrize("big", [1.7e308, 9e307, 2.5])
def test_validation_rejects_an_entry_beyond_the_bound(big):
    # Hermitian with trace 1: unbounded, the symmetrisation before the
    # eigensolve overflows and LAPACK gets inf
    message = re.escape(f"an entry has a part of {big:.3e}; a state's entries are at most 1")
    with pytest.raises(NotAState, match=message):
        DensityMatrix(np.diag([big, -big, 0.5, 0.5]).astype(complex), 2)
    m = np.eye(4, dtype=complex) / 4
    m[0, 1], m[1, 0] = 1j * big, -1j * big
    with pytest.raises(NotAState, match=message):
        DensityMatrix(m, 2)


def test_entry_bound_names_the_first_failing_member():
    good = rho3(0.6).mat
    bad = np.diag([1.7e308, -1.7e308, *[1.0 / 7] * 7]).astype(complex)
    with pytest.raises(NotAState, match="at most 1"):
        DensityMatrix(np.array([good, bad, good]), 3)
    nan = good.copy()
    nan[0, 0] = np.nan
    with pytest.raises(NotAState, match="non-finite"):
        DensityMatrix(np.array([good, nan, bad]), 3)
    # below the bound, an entry too large for a state fails its usual check
    with pytest.raises(NotAState, match="positive semidefinite"):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), 2)


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


@pytest.mark.parametrize("vec, message", [
    (np.eye(2), "expected a 1-D amplitude vector"),
    (np.ones(6) / math.sqrt(6), "vector of length 6 is not bipartite d x d"),
    (2 * phi_plus(2).vec, "norm is 2.000000000000000, not 1"),
    (np.array([1.0, 0.0, 0.0, 0.0]), "one-sided reduction is not maximally mixed"),  # |00>
    (np.full(4, np.nan), "norm is nan, not 1"),
], ids=["2d", "length_6", "norm_2", "product", "nan"])
def test_maximally_entangled_vector_rejects(vec, message):
    with pytest.raises(NotAState, match=f"^{re.escape(message)}$"):
        MaximallyEntangledVector(vec)


def test_phi_plus_reductions_maximally_mixed():
    proj = phi_plus(3).projector()
    np.testing.assert_allclose(partial_trace(proj, 3, "first"), np.eye(3) / 3, atol=1e-12)
    np.testing.assert_allclose(partial_trace(proj, 3, "second"), np.eye(3) / 3, atol=1e-12)


def test_phi_plus_rejects_small_d():
    with pytest.raises(ValueError):
        phi_plus(1)


@pytest.mark.parametrize("d", [2.5, "3"])
def test_a_local_dimension_that_is_not_an_integer_is_named(d):
    message = re.escape(f"local dimension must be an integer, got {d!r}")
    with pytest.raises(ValueError, match=message):
        phi_plus(d)
    with pytest.raises(ValueError, match=message):
        noisy_singlet(0.5, d)


def test_a_numpy_integer_is_a_local_dimension():
    assert phi_plus(np.int64(3)).vec.tobytes() == phi_plus(3).vec.tobytes()
    assert noisy_singlet(0.5, np.int64(3)).mat.tobytes() == noisy_singlet(0.5, 3).mat.tobytes()


def test_a_numpy_integer_shares_the_cached_phi_plus():
    assert phi_plus(np.int64(3)) is phi_plus(3)
    assert noisy_singlet(0.5, np.int64(3)).mat.tobytes() == noisy_singlet(0.5, 3).mat.tobytes()


def test_phi_plus_is_built_once_per_d_and_errors_are_not_cached():
    assert phi_plus(3) is phi_plus(3)
    assert phi_plus(2) is not phi_plus(3)
    for _ in range(3):
        with pytest.raises(ValueError):
            phi_plus(1)


def test_maximally_entangled_vector_is_immutable():
    # phi_plus and qutrit_me_basis share their instances with every caller
    for shared in (phi_plus(2), qutrit_me_basis()[4]):
        vec, d = shared.vec, shared.d
        for name, value in (("vec", np.zeros(4)), ("d", 5), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(shared, name, value)
        for name in ("vec", "d"):
            with pytest.raises(AttributeError):
                delattr(shared, name)
        with pytest.raises(ValueError):
            shared.vec[0] = 0.0
        assert shared.vec is vec and shared.d == d
    np.testing.assert_array_equal(phi_plus(2).vec, np.array([1, 0, 0, 1]) / S2)


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


def test_the_shared_sigma1_is_read_only():
    # FAMILIES["sigma"] builds and validates the paper's sigma_1 once, and every caller shares it
    sig = FAMILIES["sigma"].build(None, 2)
    assert sig is FAMILIES["sigma"].build(np.array([0.5, 1.0]), 2)
    assert np.array_equal(sig.mat, sigma_family(0.2, 0.4, 0.4, 0.25 + 0.1j).mat)
    with pytest.raises(ValueError, match="read-only"):
        sig.mat[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sig.spectrum[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        rho3(np.array([0.5, 0.6])).spectrum[1, -1] = 0.0


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
    # DensityMatrix is the one gate, so each message is the one any state gets
    with pytest.raises(NotAState, match=re.escape("trace is 1.100000000000000, not 1")):
        sigma_family(0.5, 0.4, 0.2, 0.0)  # sums to 1.1
    with pytest.raises(NotAState, match=re.escape("not positive semidefinite: min eigenvalue -3.000e-01")):
        sigma_family(0.2, 0.2, 0.6, 0.5)  # |f|^2 > b*d
    with pytest.raises(NotAState, match=re.escape("not positive semidefinite: min eigenvalue -1.000e-01")):
        sigma_family(-0.1, 0.5, 0.6, 0.0)
    with pytest.raises(NotAState, match=re.escape("matrix has a non-finite entry (NaN or inf)")):
        sigma_family(math.nan, 0.5, 0.5, 0.0)


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


def test_save_state_rejects_a_stack(tmp_path):
    # the document holds one state: a stack's entries would not load back
    path = tmp_path / "stack.json"
    with pytest.raises(DimensionMismatch, match="save_state takes one state, got a stack of 2"):
        save_state(rho3(np.array([0.5, 0.6])), path)
    assert not path.exists()


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
    p.write_text(json.dumps({"d": 2, "entries": [[0.25, 0.0, 0.0]] * 16}))  # [re, im, x] triples
    with pytest.raises(ParseError, match=re.escape("got shape (16, 3)")):
        load_state(p)


@pytest.mark.parametrize("part", ["0.25", True, False, None], ids=["string", "true", "false", "null"])
def test_load_rejects_parts_that_are_not_json_numbers(tmp_path, part):
    # the maximally mixed qubit pair with one part spelled another way: the
    # string as a diagonal entry's real part, the rest as an imaginary part
    # of 0.0; numpy would read "0.25" and false as the numbers they spell
    doc = {"d": 2, "entries": [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]}
    k, re_im = (5, 0) if isinstance(part, str) else (1, 1)
    doc["entries"][k][re_im] = part
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=f"number pairs, got {re.escape(json.dumps(part))}$"):
        load_state(p)


def test_load_accepts_integer_parts(tmp_path):
    # |00><00| written with JSON integers
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"d": 2, "entries": [[1, 0]] + [[0, 0]] * 15}))
    assert load_state(p).mat[0, 0] == 1.0


def test_load_rejects_invalid_state(tmp_path):
    # diag(0.6, 0.5, -0.1, 0): unit trace but not PSD
    p = tmp_path / "doc.json"
    diag = {0: 0.6, 5: 0.5, 10: -0.1}
    doc = {"d": 2, "entries": [[diag.get(i, 0.0), 0.0] for i in range(16)]}
    p.write_text(json.dumps(doc))
    with pytest.raises(NotAState, match="positive semidefinite"):
        load_state(p)


def test_load_rejects_a_top_eigenvalue_above_one(tmp_path, capsys):
    # diag(1.0001, -0.0001, 0, 0): unit trace, and PSD within the loader's floor of 2e-4
    p = tmp_path / "doc.json"
    diag = {0: 1.0001, 5: -0.0001}
    p.write_text(json.dumps({"d": 2, "entries": [[diag.get(i, 0.0), 0.0] for i in range(16)]}))
    with pytest.raises(NotAState, match=re.escape("max eigenvalue 1.000100000000 exceeds 1")):
        load_state(p)
    assert main(["analyze", str(p)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: max eigenvalue 1.000100000000 exceeds 1\n"


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


def test_a_complex128_matrix_is_kept_read_only_and_any_other_is_copied():
    m = rho1().mat.copy()
    assert DensityMatrix(m).mat is m
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 1
    real = np.eye(4) / 4
    rho = DensityMatrix(real)
    assert not np.shares_memory(rho.mat, real) and not rho.mat.flags.writeable
    real[0, 0] = 1  # the caller's array stays writable
