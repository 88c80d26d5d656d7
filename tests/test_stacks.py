"""A (k, n, n) stack of states runs the same code as one state.

Every criterion that takes a state also takes a stack and must give, for
each member, exactly (==) what it gives for that member alone; the CLI
classifies a whole family as one stack.
"""

import importlib
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from teleres import (
    DensityMatrix,
    FilterOperator,
    NotAState,
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
    rho2,
    rho3,
    rho_alpha,
    sigma_family,
    singlet_fraction_basis,
    spa_pt,
    verdict,
    x_opt,
)
from teleres import cli, criteria, linalg, states
from teleres.criteria import DemboDecomposition
from teleres.linalg import NotHermitian, hermitian_eigen, hermiticity_defect, trace_product
from teleres.oracle import _rng, random_density_matrix
from conftest import sweep_quantities

ROOT = Path(__file__).resolve().parents[1]

FAMILIES = (
    ("rho2", rho2, np.linspace(0.35, 0.369, 40)),
    ("rho3", rho3, np.linspace(0.5, 0.65, 40)),
    ("rho_alpha", rho_alpha, np.linspace(4.01, 5.0, 40)),
    ("noisy_singlet_d2", lambda p: noisy_singlet(p, 2), np.linspace(0.0, 1.0, 40)),
    ("noisy_singlet_d3", lambda p: noisy_singlet(p, 3), np.linspace(0.0, 1.0, 40)),
    ("noisy_singlet_d4", lambda p: noisy_singlet(p, 4), np.linspace(0.0, 1.0, 40)),
)


def _ranked_stack(d):
    """Seeded random states of every rank 1..d^2, validated by the package
    one by one, and the same states as one stack."""
    singles = [
        DensityMatrix(np.array(random_density_matrix(d, _rng(808, 97 * d + 7 * rank + i), rank=rank).mat), d)
        for rank in range(1, d * d + 1)
        for i in range(2)
    ]
    return DensityMatrix(np.stack([s.mat for s in singles]), d), singles


# ---- states ----

@pytest.mark.parametrize("name,build,params", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_family_stack_equals_members(name, build, params):
    stack = build(params)
    assert stack.mat.shape == (len(params), stack.dim, stack.dim)
    assert stack.spectrum.shape == (len(params), stack.dim)
    assert not stack.mat.flags.writeable
    for i, p in enumerate(params):
        one = build(float(p))
        assert one.mat.shape == (one.dim, one.dim)
        assert np.array_equal(stack.mat[i], one.mat)
        assert np.array_equal(stack.spectrum[i], one.spectrum)


def test_family_stack_range_check_names_first_bad_parameter():
    with pytest.raises(ValueError, match=r"a = 0\.7 outside \[0\.5, 0\.65\]"):
        rho3(np.array([0.5, 0.7, 0.8]))
    with pytest.raises(ValueError, match=r"alpha = 4\.0 outside \(4, 5\]"):
        rho_alpha(np.array([4.5, 4.0]))
    with pytest.raises(ValueError, match=r"p = nan outside \[0, 1\]"):
        noisy_singlet(np.array([0.5, np.nan]), 3)
    # a complex or non-numeric parameter lies in no interval, a real part in range or not
    with pytest.raises(ValueError, match=r"a = \(0\.36\+0j\) outside \[0\.35, 0\.369\]"):
        rho2(0.36 + 0j)
    with pytest.raises(ValueError, match=r"a = '0\.36' outside \[0\.35, 0\.369\]"):
        rho2("0.36")
    with pytest.raises(ValueError, match=r"alpha = \(4\.5\+0j\) outside \(4, 5\]"):
        rho_alpha(np.array([4.5, 4.6 + 0.1j]))


def test_rho2_stack_keeps_its_relaxed_psd_floor():
    # the top of the printed interval is marginally non-PSD; the stack
    # admits it exactly as the single-state builder does
    stack = rho2(np.array([0.35, 0.369]))
    assert stack.spectrum[1, 0] < -1e-4
    with pytest.raises(NotAState, match="positive semidefinite"):
        DensityMatrix(np.array(stack.mat), 3)


def _blocked_stack(d):
    """Seeded, exactly Hermitian random states filling two validation blocks
    and part of a third."""
    step = states._BLOCK_ENTRIES // d**4
    mats = np.stack([np.array(random_density_matrix(d, _rng(717, 31 * d + i)).mat) for i in range(2 * step + step // 2)])
    return 0.5 * (mats + mats.conj().swapaxes(1, 2))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_blocked_validation_gives_each_member_its_own_spectrum(d):
    mats = _blocked_stack(d)
    stack = DensityMatrix(mats, d)
    for i, mat in enumerate(mats):
        assert np.array_equal(stack.spectrum[i], DensityMatrix(mat, d).spectrum)


def _break(mat, bad):
    if bad == "nan":
        mat[2, 1] = np.nan
    elif bad == "big":
        mat[0, 0] = 2.5
    elif bad == "defect":
        mat[0, 1] += 2e-10
    elif bad == "trace":
        mat[1, 1] += 1e-9
    else:
        mat[...] = np.diag([1.2, -0.2] + [0.0] * (len(mat) - 2))


# the messages each bad member raised before validation went block by block
_BAD_MESSAGES = {
    "nan": r"matrix has a non-finite entry \(NaN or inf\)",
    "big": r"an entry has a part of 2\.500e\+00; a state's entries are at most 1",
    "defect": r"not Hermitian: defect 2\.000e-10",
    "trace": r"trace is 1\.00000000100000\d, not 1",
    "negative": r"not positive semidefinite: min eigenvalue -2\.000e-01",
}


@pytest.mark.parametrize("bad", list(_BAD_MESSAGES))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_bad_member_in_the_last_block_raises_its_own_message(d, bad):
    mats = _blocked_stack(d)
    _break(mats[-2], bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAState) as alone:
            DensityMatrix(mats[-2], d)
        with pytest.raises(NotAState) as stacked:
            DensityMatrix(mats, d)
    assert re.fullmatch(_BAD_MESSAGES[bad], str(alone.value))
    assert str(stacked.value) == str(alone.value)


def test_validation_and_the_dembo_split_make_no_stack_sized_temporary():
    mats = np.array(noisy_singlet(np.linspace(0.0, 1.0, 200), 3).mat)
    writable = np.array(mats)
    DensityMatrix(mats, 3)
    tracemalloc.start()
    try:
        DensityMatrix(mats, 3)
        validate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dec = DemboDecomposition.from_matrix(writable)
        dembo_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert validate_peak < mats.nbytes
    # R_sub is a read-only view of the matrix, even of a writable one, not a copy
    assert dembo_peak < dec.r_sub.size * dec.r_sub.itemsize
    assert np.shares_memory(dec.r_sub, writable) and not dec.r_sub.flags.writeable and writable.flags.writeable
    assert dec.b.flags.c_contiguous
    eig = linalg._eigvalsh(np.ascontiguousarray(dec.r_sub))
    assert np.array_equal(dec.eta_low, eig[:, 0]) and np.array_equal(dec.eta_high, eig[:, -1])


def test_noisy_singlet_builds_its_stack_in_place():
    p = np.linspace(0.0, 1.0, 200)
    noisy_singlet(p, 3)
    tracemalloc.start()
    try:
        stack = noisy_singlet(p, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * stack.mat.nbytes


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("p", [0.37, np.linspace(0.0, 1.0, 41)], ids=["scalar", "array"])
def test_noisy_singlet_bytes_equal_the_broadcast_expression(d, p):
    pp = np.asarray(p)[..., None, None]
    want = pp * phi_plus(d).projector() + (1.0 - pp) * np.eye(d * d, dtype=np.complex128) / (d * d)
    assert noisy_singlet(p, d).mat.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [4.3, np.linspace(4.01, 5.0, 41)], ids=["scalar", "array"])
def test_rho_alpha_bytes_equal_the_broadcast_expression(alpha):
    a = np.asarray(alpha)
    want = np.zeros(a.shape + (9, 9), dtype=np.complex128) + (2.0 / 7.0) * phi_plus(3).projector()
    plus, minus = [1, 5, 6], [3, 7, 2]
    want[..., plus, plus] += (a / 21.0)[..., None]
    want[..., minus, minus] += ((5.0 - a) / 21.0)[..., None]
    assert rho_alpha(alpha).mat.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, j, size, bad", [
    (2, 5, 40, "nan"),  # in the first block of 256 members
    (4, 37, 40, "big"),  # in the third block of 16
    (3, 0, 1, "nan"),  # the one member of a stack of one
], ids=["first_block", "later_block", "stack_of_one"])
def test_no_member_from_the_first_unbounded_one_onward_is_solved(monkeypatch, d, j, size, bad):
    mats = _blocked_stack(d)[:size].copy()
    _break(mats[j], bad)
    mats[j + 1 :, 0, 0] = np.inf  # every later member is unbounded too
    solved = []
    lapack = linalg._eigvalsh
    monkeypatch.setattr(linalg, "_eigvalsh", lambda m: solved.append(m.shape) or lapack(m))
    with pytest.raises(NotAState, match=_BAD_MESSAGES[bad]):
        DensityMatrix(mats, d)
    assert solved == [(j, d * d, d * d)]


def _scalar_message(mat, d):
    with pytest.raises(NotAState) as info:
        DensityMatrix(mat, d)
    return str(info.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "non_psd", "trace", "non_hermitian"])
def test_stack_with_one_bad_member_raises_its_scalar_message(bad):
    mats = np.array(noisy_singlet(np.linspace(0.1, 0.9, 6), 3).mat)
    broken = mats[3].copy()
    if bad == "nan":
        broken[2, 5] = np.nan
    elif bad == "inf":
        broken[0, 0] = np.inf
    elif bad == "non_psd":
        broken[0, 0] += 0.3
        broken[1, 1] -= 0.3
    elif bad == "trace":
        broken[4, 4] += 1e-6
    else:
        broken[0, 1] += 1e-6
    mats[3] = broken
    expected = _scalar_message(broken, 3)
    with pytest.raises(NotAState) as info:
        DensityMatrix(mats, 3)
    assert str(info.value) == expected


def test_stack_error_names_first_bad_member_across_checks():
    # member 1 fails only its spectrum check, member 3 an earlier check
    mats = np.array(noisy_singlet(np.linspace(0.1, 0.9, 5), 3).mat)
    mats[1, 0, 0] += 0.3
    mats[1, 1, 1] -= 0.3
    mats[3, 2, 2] = np.nan
    with pytest.raises(NotAState) as info:
        DensityMatrix(mats, 3)
    assert str(info.value) == _scalar_message(mats[1], 3)


# ---- linalg ----

def test_linalg_stack_is_member_by_member(rng):
    g = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    h = g + g.conj().swapaxes(-1, -2)
    stacked = hermitian_eigen(h)
    assert stacked.shape == (5, 6)
    for i in range(5):
        assert np.array_equal(stacked[i], hermitian_eigen(h[i]))
        assert trace_product(h, g)[i] == trace_product(h[i], g[i])
        assert trace_product(h[0], g)[i] == trace_product(h[0], g[i])
    assert isinstance(hermiticity_defect(h[0]), float)
    assert isinstance(trace_product(h[0], g[0]), complex)


def test_hermiticity_defect_per_member_without_warnings():
    h = np.zeros((3, 2, 2), dtype=complex)
    h[1, 0, 1] = 1e-3
    h[2, 0, 0] = np.inf
    h[2, 1, 1] = -np.inf
    np.testing.assert_array_equal(hermiticity_defect(h), [0.0, 1e-3, np.inf])
    with pytest.raises(NotHermitian, match="1.000e-03"):
        hermitian_eigen(h[:2])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_exactly_hermitian_stack_is_solved_without_a_symmetrised_copy(monkeypatch, d):
    stack = np.stack([np.array(random_density_matrix(d, _rng(909, 10 * d + i)).mat) for i in range(6)])
    stack = 0.5 * (stack + stack.conj().swapaxes(1, 2))  # exactly Hermitian
    assert not hermiticity_defect(stack).any()
    solved = []
    lapack = linalg._eigvalsh
    monkeypatch.setattr(linalg, "_eigvalsh", lambda m: solved.append(m) or lapack(m))
    rho = DensityMatrix(stack, d)
    assert np.shares_memory(solved[0], rho.mat)
    assert np.array_equal(rho.spectrum, lapack(0.5 * (stack + stack.conj().swapaxes(1, 2))))


def test_a_member_with_a_defect_gets_the_symmetrised_solve(monkeypatch):
    stack = np.stack([np.array(noisy_singlet(p, 2).mat) for p in (0.2, 0.5, 0.9)])
    stack[1, 0, 3] += 1e-12  # within HERMITIAN_TOL, so the member is still a state
    solved = []
    lapack = linalg._eigvalsh
    monkeypatch.setattr(linalg, "_eigvalsh", lambda m: solved.append(m) or lapack(m))
    DensityMatrix(stack, 2)
    assert not np.shares_memory(solved[0], stack)
    assert np.array_equal(solved[0], 0.5 * (stack + stack.conj().swapaxes(1, 2)))


# ---- criteria ----

@pytest.mark.parametrize("name,build,params", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_family_verdicts_equal_single_state_verdicts(name, build, params):
    stack = build(params)
    for variant in ("paper", "quarter"):
        reports = verdict(stack, variant)
        assert len(reports) == len(params)
        for report, p in zip(reports, params):
            assert report == verdict(build(float(p)), variant)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_verdicts_of_every_rank_equal_single_state_verdicts(d):
    stack, singles = _ranked_stack(d)
    for variant in ("paper", "quarter"):
        for report, one in zip(verdict(stack, variant), singles):
            assert report == verdict(one, variant)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_criteria_equal_single_state_values(d):
    stack, singles = _ranked_stack(d)
    pt = partial_transpose(stack)
    npt = is_npt(stack)
    lam = max_eigenvalue(stack)
    lower, upper = dembo_bounds(stack, "quarter")
    spa = spa_pt(stack)
    for i, one in enumerate(singles):
        assert np.array_equal(pt[i], partial_transpose(one))
        assert npt[i] == is_npt(one)
        assert lam[i] == max_eigenvalue(one)
        assert (lower[i], upper[i]) == dembo_bounds(one, "quarter")
        assert np.array_equal(spa.mat[i], spa_pt(one).mat)
    if d == 2:
        fef = fef_2qubit(stack)
        a_star, f_star = optimize_filter(stack)
        for i, one in enumerate(singles):
            assert fef[i] == fef_2qubit(one)
            assert (a_star[i], f_star[i]) == optimize_filter(one)
    if d == 3:
        frac = singlet_fraction_basis(stack, qutrit_me_basis())
        for i, one in enumerate(singles):
            assert frac[i] == singlet_fraction_basis(one, qutrit_me_basis())


@pytest.mark.parametrize("name,build,params", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_an_empty_stack_gives_no_reports(name, build, params):
    assert verdict(build(np.array([])), "quarter") == []


def test_range_checks_pass_an_empty_vector_and_fail_nan():
    assert FilterOperator(np.array([])).a.size == 0
    assert fidelity_from_fraction(np.array([]), 3).shape == (0,)
    for bad in (np.nan, np.array([0.5, np.nan]), 0.5 + 0.3j, np.array([0.5, 0.2 + 0.9j]), "0.5"):
        with pytest.raises(ValueError, match="outside"):
            FilterOperator(bad)
        with pytest.raises(ValueError, match="outside"):
            fidelity_from_fraction(bad, 3)


def test_filter_routes_take_a_vector_of_filter_parameters():
    sig = sigma_family(0.2, 0.4, 0.4, 0.25 + 0.1j)
    a = np.linspace(0.0, 1.0, 33)
    for unit_trace in (False, True):
        x = x_opt(FilterOperator(a), unit_trace=unit_trace)
        spa = f_opt_locc_spa(sig, FilterOperator(a), unit_trace=unit_trace)
        pt = f_opt_locc_pt(sig, FilterOperator(a), unit_trace=unit_trace)
        assert x.shape == (33, 4, 4) and spa.shape == pt.shape == (33,)
        for i, ai in enumerate(a.tolist()):
            flt = FilterOperator(ai)
            assert np.array_equal(x[i], x_opt(flt, unit_trace=unit_trace))
            assert spa[i] == f_opt_locc_spa(sig, flt, unit_trace=unit_trace)
            assert pt[i] == f_opt_locc_pt(sig, flt, unit_trace=unit_trace)
    with pytest.raises(ValueError, match="outside"):
        FilterOperator(np.array([0.5, 1.5]))


def test_x_opt_closed_form_matches_filtered_projector():
    # (A x I)|phi2+> with A = diag(a, 1), built the long way
    for a in (0.0, 0.3, 0.78, 1.0):
        v = np.kron(np.diag([a, 1.0]), np.eye(2)) @ np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(x_opt(FilterOperator(a)), np.outer(v, v), atol=1e-16)


# ---- cli ----

def test_sweep_eigensolves_a_whole_family_a_constant_number_of_times(tmp_path, monkeypatch):
    sizes = []
    lapack = linalg._eigvalsh

    def counting(mat):
        sizes.append(np.shape(mat))
        return lapack(mat)

    monkeypatch.setattr(linalg, "_eigvalsh", counting)
    quantities = sweep_quantities("rho3")
    for steps in (20, 200):
        sizes.clear()
        argv = ["sweep", "--family", "rho3", "--from", "0.5", "--to", "0.65", "--steps", str(steps),
                "--quantities", quantities, "-o", str(tmp_path / "rho3.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        # the state stack, its partial transposes and its R_sub blocks
        assert sorted(sizes) == [(steps, 8, 8), (steps, 9, 9), (steps, 9, 9)]


def _cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-12)
    except ValueError:
        return False


def test_catalog_csvs_match_golden_files(tmp_path, monkeypatch):
    # the argv lists of the benchmark's catalog workload; its directory is only read
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT))
    targets = importlib.import_module("perfbench.workloads").CATALOG_TARGETS
    assert len(targets) == 13
    for stem, _, args in targets:
        out = tmp_path / f"{stem}.csv"
        assert cli.main([*args, "-o", str(out)]) == cli.EXIT_OK, stem
        got = out.read_text(encoding="utf-8").splitlines()
        want = (ROOT / "perfbench" / "golden" / f"{stem}.csv").read_text(encoding="utf-8").splitlines()
        assert len(got) == len(want), stem
        for line, (g_row, w_row) in enumerate(zip(got, want), 1):
            g_cells, w_cells = g_row.split(","), w_row.split(",")
            assert len(g_cells) == len(w_cells), (stem, line)
            for g, w in zip(g_cells, w_cells):
                assert _cells_match(g, w), (stem, line, g, w)


# (family, --from, --to, extra flags) of the benchmark's catalog sweeps
SWEEPS = (
    ("rho2", "0.35", "0.369", []),
    ("rho3", "0.5", "0.65", []),
    ("rho_alpha", "4.01", "5", []),
    ("noisy_singlet", "0", "1", ["--dim", "2"]),
    ("noisy_singlet", "0", "1", ["--dim", "3"]),
    ("sigma", "0", "1", []),
)


@pytest.mark.parametrize("entries", [1, 7 * 81])
@pytest.mark.parametrize("dembo", ["paper", "quarter"])
def test_blocked_sweep_is_byte_identical_to_one_block(tmp_path, monkeypatch, dembo, entries):
    # 7 * 81 entries: blocks of 7 states at d = 3 and of 35 at d = 2, so
    # 200 steps end on a short block; 1 entry: a block of one state each
    write = cli._write_csv
    sizes = []

    def counting(path, header, blocks):
        write(path, header, (sizes.append(len(block[0])) or block for block in blocks))

    for family, lo, hi, extra in SWEEPS:
        argv = ["sweep", "--family", family, "--from", lo, "--to", hi, "--steps", "200",
                "--quantities", sweep_quantities(family),
                "--dembo", dembo, *extra]
        one, blocked = tmp_path / "one.csv", tmp_path / "blocked.csv"
        assert cli.main([*argv, "-o", str(one)]) == cli.EXIT_OK
        sizes.clear()
        with monkeypatch.context() as m:
            m.setattr(cli, "SWEEP_BLOCK_ENTRIES", entries)
            m.setattr(cli, "_write_csv", counting)
            assert cli.main([*argv, "-o", str(blocked)]) == cli.EXIT_OK
        assert sum(sizes) == 200 and len(sizes) > 1
        assert sizes[-1] < sizes[0] if entries > 1 else set(sizes) == {1}
        assert blocked.read_bytes() == one.read_bytes(), (family, extra)


@pytest.mark.parametrize("argv", [
    ["--family", "rho3", "--from", "0.5", "--to", "0.65", "--steps", "20000"],
    ["--family", "noisy_singlet", "--dim", str(cli.MAX_DIM), "--from", "0", "--to", "1", "--steps", "400"],
], ids=["rho3_20k_steps", "noisy_singlet_d8_400_steps"])
def test_sweep_memory_is_bounded_by_the_block(tmp_path, argv):
    # holding every state at once peaks at about 92 MB traced on both
    tracemalloc.start()
    try:
        code = cli.main(["sweep", *argv, "--quantities", sweep_quantities(argv[1]),
                         "-o", str(tmp_path / "out.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak < 40e6


@pytest.mark.parametrize("dembo", ["paper", "quarter"])
def test_each_name_alone_writes_its_column_of_the_full_sweep(tmp_path, dembo):
    for family, lo, hi, extra in SWEEPS:
        argv = ["sweep", "--family", family, "--from", lo, "--to", hi, "--steps", "50", "--dembo", dembo, *extra]
        names = sweep_quantities(family).split(",")
        full = tmp_path / "full.csv"
        assert cli.main([*argv, "--quantities", ",".join(names), "-o", str(full)]) == cli.EXIT_OK
        rows = [line.split(",") for line in full.read_text().splitlines()]
        for i, name in enumerate(names, 1):
            alone = tmp_path / f"{name}.csv"
            assert cli.main([*argv, "--quantities", name, "-o", str(alone)]) == cli.EXIT_OK
            want = "".join(f"{row[0]},{row[i]}\n" for row in rows)
            assert alone.read_text() == want, (family, extra, name)


@pytest.mark.parametrize("family, quantities, solved", [
    pytest.param("rho3", "lambda_max", [(7, 9, 9)], id="lambda_max-solved0"),  # validation's solve only
    pytest.param("rho3", "is_npt", [(7, 9, 9), (7, 9, 9)], id="is_npt-solved1"),  # and the partial transposes
    pytest.param("rho3", "dembo_upper_quarter,lambda_max", [(7, 8, 8), (7, 9, 9)],
                 id="dembo_upper_quarter,lambda_max-solved2"),  # and the R_sub blocks
    pytest.param("rho3", "singlet_fraction_lower", [(7, 9, 9)],
                 id="singlet_fraction_lower-solved3"),  # the qutrit basis overlap solves nothing
    # at d = 2 the singlet fraction is the FEF, one magic-basis solve more
    pytest.param("noisy_singlet", "singlet_fraction_lower", [(7, 4, 4), (7, 4, 4)], id="d2-singlet_fraction_lower"),
    pytest.param("noisy_singlet", sweep_quantities("noisy_singlet"), [(7, 3, 3), (7, 4, 4), (7, 4, 4), (7, 4, 4)],
                 id="d2-report"),
])
def test_a_sweep_solves_only_what_its_quantities_need(tmp_path, monkeypatch, family, quantities, solved):
    sizes = []
    lapack = linalg._eigvalsh
    monkeypatch.setattr(linalg, "_eigvalsh", lambda m: sizes.append(np.shape(m)) or lapack(m))
    fixed_d, (lo, hi, _) = states.FAMILIES[family].d, states.FAMILIES[family].interval
    extra = [] if fixed_d else ["--dim", "2"]
    monkeypatch.setattr(cli, "SWEEP_BLOCK_ENTRIES", 7 * (fixed_d or 2) ** 4)  # 3 blocks of 7 states
    argv = ["sweep", "--family", family, "--from", str(lo), "--to", str(hi), *extra, "--steps", "21",
            "--quantities", quantities, "-o", str(tmp_path / "out.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    assert sorted(sizes) == sorted(solved * 3)


def test_a_sigma_sweep_builds_sigma1_once(tmp_path, monkeypatch):
    # sigma_1 is validated once per process, and the SPA filter value solves nothing
    states._sigma1.cache_clear()
    sizes = []
    lapack = linalg._eigvalsh
    monkeypatch.setattr(linalg, "_eigvalsh", lambda m: sizes.append(np.shape(m)) or lapack(m))
    monkeypatch.setattr(cli, "SWEEP_BLOCK_ENTRIES", 7 * 2**4)  # 3 blocks of 7 states
    argv = ["sweep", "--family", "sigma", "--from", "0", "--to", "1", "--steps", "21",
            "--quantities", "f_opt_spa,lambda_max", "-o", str(tmp_path / "out.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    assert sizes == [(4, 4)]


def test_no_sweep_runs_the_filter_optimum(tmp_path, monkeypatch):
    def refuse(rho):
        raise AssertionError("optimize_filter ran")

    monkeypatch.setattr(criteria, "optimize_filter", refuse)
    for family, lo, hi, extra in SWEEPS:
        argv = ["sweep", "--family", family, "--from", lo, "--to", hi, "--steps", "5",
                "--quantities", sweep_quantities(family), *extra, "-o", str(tmp_path / "out.csv")]
        assert cli.main(argv) == cli.EXIT_OK
    with pytest.raises(AssertionError, match="optimize_filter ran"):
        verdict(noisy_singlet(0.5, 2))


def test_a_failing_block_leaves_no_partial_csv(tmp_path, monkeypatch, capsys):
    rho3_family = states.FAMILIES["rho3"]
    built = []

    def build(a, d):
        built.append(len(a))
        if len(built) == 2:
            raise NotAState("injected failure in the second block")
        return rho3_family.build(a, d)

    monkeypatch.setitem(states.FAMILIES, "rho3", rho3_family._replace(build=build))
    monkeypatch.setattr(cli, "SWEEP_BLOCK_ENTRIES", 7 * 81)
    out = tmp_path / "rho3.csv"
    code = cli.main(["sweep", "--family", "rho3", "--from", "0.5", "--to", "0.65", "--steps", "20",
                     "--quantities", "lambda_max,verdict", "-o", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert built == [7, 7]
    assert capsys.readouterr().err == "error: injected failure in the second block\n"
    assert not out.exists()


def test_one_registry_feeds_parser_spec_sweep_and_builders(tmp_path, monkeypatch, capsys):
    narrowed = states.FAMILIES["rho3"]._replace(interval=(0.5, 0.6, False))
    base = ["sweep", "--from", "0.5", "--steps", "5", "--quantities", "lambda_max,verdict"]
    low, ref = tmp_path / "low.csv", tmp_path / "ref.csv"
    try:
        with monkeypatch.context() as m:
            m.setitem(states.FAMILIES, "rho3_low", narrowed)
            m.setitem(states.FAMILIES, "rho3", narrowed)
            cli._build_parser.cache_clear()
            # argparse choices and the sweep take the new entry
            assert cli.main([*base, "--family", "rho3_low", "--to", "0.6", "-o", str(low)]) == cli.EXIT_OK
            assert cli.main([*base, "--family", "rho3", "--to", "0.6", "-o", str(ref)]) == cli.EXIT_OK
            assert low.read_bytes() == ref.read_bytes()
            # SweepSpec.validate and the builder take its interval
            assert cli.main([*base, "--family", "rho3_low", "--to", "0.65", "-o", str(low)]) == cli.EXIT_USAGE
            assert "outside [0.5, 0.6] of rho3_low" in capsys.readouterr().err
            with pytest.raises(ValueError, match=r"a = 0.62 outside \[0.5, 0.6\]"):
                rho3(0.62)
    finally:
        cli._build_parser.cache_clear()
    assert cli.main([*base, "--family", "rho3_low", "--to", "0.6", "-o", str(low)]) == cli.EXIT_USAGE
    capsys.readouterr()
