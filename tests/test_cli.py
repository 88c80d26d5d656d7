import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from teleres import NotAState, cli, criteria, linalg, noisy_singlet, oracle, rho1, rho3, save_state, states, verdict
from teleres.criteria import CriterionReport, Verdict
from teleres.cli import (
    EXIT_AUDIT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    REPRODUCE_TARGETS,
    SweepSpec,
    InvalidSpec,
    cmd_audit,
    cmd_sweep,
    main,
)
from conftest import near_hermitian_2qubit, random_state, sweep_quantities


def _write(tmp_path, name, rho):
    path = tmp_path / name
    save_state(rho, path)
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---- analyze ----

def test_analyze_rho1(tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, "rho1.json", rho1())])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "UsefulByLambdaMax" in out
    assert "0.5858" in out


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_analyze_near_hermitian_two_qubit_state(tmp_path, capsys, extra):
    # the state passes validation; its magic-basis real part, symmetric only
    # up to rounding, must not be checked again and end in a traceback
    mat = near_hermitian_2qubit()
    path = tmp_path / "near_hermitian.json"
    path.write_text(json.dumps({"d": 2, "entries": [[z.real, z.imag] for z in mat.ravel()]}))
    assert main(["analyze", str(path), *extra]) == EXIT_OK
    assert "SeparableByTheorem2" in capsys.readouterr().out


def test_analyze_maximally_mixed_d3(tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, "mix.json", noisy_singlet(0.0, 3))])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "SeparableByTheorem2" in out


def test_analyze_rho3_dembo_variants(tmp_path, capsys):
    path = _write(tmp_path, "rho3.json", rho3(0.65))
    assert main(["analyze", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "UsefulByDembo" in out
    assert "0.3571" in out and "0.3265" in out  # both variants printed
    assert main(["analyze", path, "--dembo", "quarter"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Inconclusive" in out  # quarter bound stays below 1/3


def test_analyze_json_full_precision(tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, "rho1.json", rho1()), "--json"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "UsefulByLambdaMax"
    assert doc["lambda_max"] == pytest.approx(2 - math.sqrt(2), abs=1e-12)
    assert doc["is_npt"] is True


_JSON_STATES = {2: rho1, 3: lambda: rho3(0.65), 4: lambda: noisy_singlet(0.9, 4)}


@pytest.mark.parametrize("dembo", ["paper", "quarter"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_analyze_json_is_the_indent_2_document(tmp_path, capsys, d, dembo):
    # f_opt_locc is a float at d = 2 and null at d = 3 and 4
    for i, rho in enumerate((_JSON_STATES[d](), random_state(d, d, seed=78))):
        assert main(["analyze", _write(tmp_path, f"s{i}.json", rho), "--json", "--dembo", dembo]) == EXIT_OK
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert list(doc) == [f.name for f in dataclasses.fields(CriterionReport)]
        assert (doc["f_opt_locc"] is None) == (d != 2)


@pytest.mark.parametrize("dembo", ["paper", "quarter"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_single_state_report_holds_python_scalars(d, dembo):
    # json.dumps rejects numpy.bool_, and writes a numpy float only by luck of its base class
    for rho in (_JSON_STATES[d](), random_state(d, d, seed=78)):
        rep = verdict(rho, dembo)
        for f in dataclasses.fields(rep):
            assert type(getattr(rep, f.name)) in (bool, int, float, str, type(None), Verdict), f.name


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["analyze", str(bad)]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_analyze_invalid_state_exit_2(tmp_path, capsys):
    doc = {"d": 2, "entries": [[1.0 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]}
    bad = tmp_path / "notastate.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(bad)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "trace" in err

    # json.dumps writes NaN and Infinity, which json.load reads back
    for value in (float("nan"), float("inf")):
        doc = {"d": 2, "entries": [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]}
        doc["entries"][1] = [value, 0.0]
        bad.write_text(json.dumps(doc))
        assert main(["analyze", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert err.count("\n") == 1


def test_analyze_missing_file_exit_2(tmp_path):
    assert main(["analyze", str(tmp_path / "ghost.json")]) == EXIT_VALIDATION


def test_analyze_agrees_with_library_calls(tmp_path, capsys):
    for i in range(5):
        rho = random_state(2 if i % 2 else 3, i, seed=77)
        path = _write(tmp_path, f"s{i}.json", rho)
        assert main(["analyze", path, "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        rep = verdict(rho)
        assert doc["verdict"] == rep.verdict.value
        assert doc["lambda_max"] == pytest.approx(rep.lambda_max, abs=1e-12)
        assert doc["dembo_upper_paper"] == pytest.approx(rep.dembo_upper_paper, abs=1e-12)
        assert doc["singlet_fraction_lower"] == pytest.approx(
            rep.singlet_fraction_lower, abs=1e-12
        )


# ---- reproduce ----

def test_reproduce_fig1(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["reproduce", "fig1", "-o", str(out)]) == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["a", "f_opt"]
    assert len(rows) == 200
    a0, f0 = (float(v) for v in rows[0])
    assert a0 == pytest.approx(0.78)
    assert f0 == pytest.approx((2.6 - 2 * 0.78 ** 2 - 0.5 * 0.78) / 2, abs=1e-9)
    assert all(float(r[1]) <= 0.5 + 1e-12 for r in rows)


def test_reproduce_fig2_fig3(tmp_path):
    out2 = tmp_path / "fig2.csv"
    out3 = tmp_path / "fig3.csv"
    assert main(["reproduce", "fig2", "-o", str(out2)]) == EXIT_OK
    assert main(["reproduce", "fig3", "-o", str(out3)]) == EXIT_OK
    h2, r2 = _read_csv(out2)
    h3, r3 = _read_csv(out3)
    assert h2 == ["a", "singlet_fraction"] and h3 == ["a", "lambda_max"]
    assert float(r2[-1][1]) == pytest.approx(0.28367, abs=1e-4)
    assert all(float(r[1]) < 1 / 3 for r in r2)
    assert all(float(r[1]) > 1 / 3 for r in r3)
    assert float(r3[0][1]) == pytest.approx(0.25 + 0.5 * math.sqrt(0.4436 - 0.7 + 0.49), abs=1e-9)


@pytest.mark.parametrize("target", ["ex_sigma1", "ex_rho1", "ex_rho3"])
def test_reproduce_examples_all_reproduced(tmp_path, target):
    out = tmp_path / f"{target}.csv"
    assert main(["reproduce", target, "-o", str(out)]) == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["quantity", "expected", "computed", "abs_diff", "reproduced"]
    assert rows and all(r[4] == "yes" for r in rows)


def test_reproduce_rho_alpha_flags_discrepancy(tmp_path):
    out = tmp_path / "ex_rho_alpha.csv"
    assert main(["reproduce", "ex_rho_alpha", "-o", str(out)]) == EXIT_OK
    _, rows = _read_csv(out)
    by_name = {r[0]: r for r in rows}
    assert by_name["lambda_max"][4] == "yes"
    assert by_name["dembo_upper_paper_vs_quoted"][4] == "NO"
    assert by_name["dembo_upper_quarter_vs_quoted"][4] == "NO"
    assert float(by_name["dembo_upper_paper"][2]) == pytest.approx(0.3350, abs=1e-4)
    assert float(by_name["dembo_upper_quarter"][2]) == pytest.approx(0.3191, abs=1e-4)


@pytest.mark.parametrize("target, solves", [("ex_rho3", [9, 8, 8]), ("ex_rho_alpha", [9, 8])])
def test_worked_examples_split_each_state_once_per_eta(tmp_path, monkeypatch, target, solves):
    # the state's validation, then one R_sub solve per split: ex_rho3 splits with the exact and the
    # quoted eta, ex_rho_alpha with the quoted one only, and each split gives both upper variants
    sizes = []
    lapack = linalg._eigvalsh
    monkeypatch.setattr(linalg, "_eigvalsh", lambda m: sizes.append(m.shape[-1]) or lapack(m))
    assert main(["reproduce", target, "-o", str(tmp_path / "out.csv")]) == EXIT_OK
    assert sizes == solves


def test_reproduce_bit_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["reproduce", "fig1", "-o", str(a)]) == EXIT_OK
    assert main(["reproduce", "fig1", "-o", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_csv_columns_format_by_type(tmp_path):
    # each column holds one type: floats to 12 significant digits, bools as
    # true/false, anything else by str; arrays and lists alike
    path = tmp_path / "t.csv"
    columns = [np.array([0.1, 1 / 3]), [True, False], np.array([False, True]), ["a", "NO"], [1e-20, 2.0]]
    cli._write_csv(str(path), ["x", "flag", "npt", "name", "v"], [columns])
    assert path.read_bytes() == b"x,flag,npt,name,v\n0.1,true,false,a,1e-20\n0.333333333333,false,true,NO,2\n"


def test_reproduce_unknown_target_usage_error(tmp_path, capsys):
    assert main(["reproduce", "fig9", "-o", str(tmp_path / "x.csv")]) == EXIT_USAGE
    capsys.readouterr()


def test_reproduce_an_unknown_target_leaves_an_existing_file_unchanged(tmp_path):
    path = tmp_path / "old.csv"
    path.write_bytes(b"old content\n")
    for target in ("fig4", ["fig1"]):  # a list is not hashed: it is named like any unknown target
        with pytest.raises(InvalidSpec, match=re.escape(f"unknown reproduce target {target!r}")):
            cli.cmd_reproduce(target, str(path))
        assert path.read_bytes() == b"old content\n"


@pytest.mark.parametrize("target, header, argv", [
    ("fig1", b"a,f_opt", ["--family", "sigma", "--from", "0.78", "--to", "1", "--quantities", "f_opt_spa"]),
    ("fig2", b"a,singlet_fraction",
     ["--family", "rho2", "--from", "0.35", "--to", "0.369", "--quantities", "singlet_fraction_lower"]),
    ("fig3", b"a,lambda_max", ["--family", "rho2", "--from", "0.35", "--to", "0.369", "--quantities", "lambda_max"]),
])
def test_each_figure_is_its_sweep_under_the_paper_header(tmp_path, monkeypatch, target, header, argv):
    # 7 * 81 entries: blocks of 7 states at d = 3 and of 35 at d = 2
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--steps", "200", "-o", str(sweep)]) == EXIT_OK
    rows = sweep.read_bytes().split(b"\n", 1)[1]
    for entries in (cli.SWEEP_BLOCK_ENTRIES, 7 * 81):
        monkeypatch.setattr(cli, "SWEEP_BLOCK_ENTRIES", entries)
        figure = tmp_path / f"{target}_{entries}.csv"
        assert main(["reproduce", target, "-o", str(figure)]) == EXIT_OK
        assert figure.read_bytes() == header + b"\n" + rows


def test_all_reproduce_targets_complete_under_ten_seconds(tmp_path):
    start = time.perf_counter()
    for target in REPRODUCE_TARGETS:
        assert main(["reproduce", target, "-o", str(tmp_path / f"{target}.csv")]) == EXIT_OK
    assert time.perf_counter() - start < 10.0


# ---- sweep ----

def test_sweep_rho3(tmp_path):
    out = tmp_path / "rho3.csv"
    code = main([
        "sweep", "--family", "rho3", "--from", "0.5", "--to", "0.65",
        "--steps", "16", "--quantities", "lambda_max,dembo_upper_paper", "-o", str(out),
    ])
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["param", "lambda_max", "dembo_upper_paper"]
    assert len(rows) == 16
    lam = [float(r[1]) for r in rows]
    dem = [float(r[2]) for r in rows]
    assert all(v <= 1 / 3 + 1e-12 for v in lam)
    # the exact-eta bound clears 1/3 only near the top of the interval
    assert dem[-1] > 1 / 3
    assert dem[0] == pytest.approx(0.265, abs=1e-9)


def test_sweep_noisy_singlet_npt_flip(tmp_path):
    out = tmp_path / "noisy.csv"
    code = main([
        "sweep", "--family", "noisy_singlet", "--from", "0", "--to", "1",
        "--steps", "101", "--quantities", "is_npt,lambda_max", "-o", str(out),
    ])
    assert code == EXIT_OK
    _, rows = _read_csv(out)
    flips = [i for i, (a, b) in enumerate(zip(rows, rows[1:])) if a[1] != b[1]]
    assert len(flips) == 1
    p_before = float(rows[flips[0]][0])
    assert p_before == pytest.approx(0.25, abs=5e-3)


def test_sweep_sigma_filter_curve(tmp_path):
    out = tmp_path / "sigma.csv"
    code = main([
        "sweep", "--family", "sigma", "--from", "0.78", "--to", "1.0",
        "--steps", "12", "--quantities", "f_opt_spa,f_opt_pt", "-o", str(out),
    ])
    assert code == EXIT_OK
    _, rows = _read_csv(out)
    for r in rows:
        a = float(r[0])
        assert float(r[1]) == pytest.approx((2.6 - 2 * a * a - 0.5 * a) / 2, abs=1e-9)
        assert float(r[2]) == pytest.approx(0.3 - 0.25 * a, abs=1e-9)


def test_sweep_empty_quantities_is_usage_error(tmp_path, capsys):
    code = main([
        "sweep", "--family", "rho3", "--from", "0.5", "--to", "0.65",
        "--steps", "4", "--quantities", "", "-o", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_USAGE
    assert "invalid sweep spec" in capsys.readouterr().err


def test_sweep_out_of_validity_range(tmp_path, capsys):
    code = main([
        "sweep", "--family", "rho2", "--from", "0.1", "--to", "0.369",
        "--steps", "4", "--quantities", "lambda_max", "-o", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_sweep_bad_steps_and_order(tmp_path, capsys):
    base = ["sweep", "--family", "rho3", "--quantities", "lambda_max", "-o", str(tmp_path / "x.csv")]
    assert main(base + ["--from", "0.5", "--to", "0.65", "--steps", "1"]) == EXIT_USAGE
    assert main(base + ["--from", "0.65", "--to", "0.5", "--steps", "4"]) == EXIT_USAGE
    assert main(base + ["--from", "0.5", "--to", "0.65", "--steps", "1000001"]) == EXIT_USAGE
    # rho_alpha's interval is (4, 5]: its open end and any overshoot are usage errors
    alpha = ["sweep", "--family", "rho_alpha", "--steps", "3", "--quantities", "lambda_max",
             "-o", str(tmp_path / "a.csv")]
    capsys.readouterr()
    for lo, hi in (("4", "5"), ("4.5", "5.0000000000001")):
        assert main(alpha + ["--from", lo, "--to", hi]) == EXIT_USAGE
        assert "error: invalid sweep spec" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def test_sweep_unknown_quantity(tmp_path):
    code = main([
        "sweep", "--family", "rho3", "--from", "0.5", "--to", "0.65",
        "--steps", "4", "--quantities", "lambda_max,banana", "-o", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_USAGE


def test_sweep_spec_validation_direct():
    spec = SweepSpec("rho3", 0.5, 0.65, 4, ())
    with pytest.raises(InvalidSpec):
        spec.validate()
    with pytest.raises(InvalidSpec, match="^unknown family 'nope'$"):
        SweepSpec("nope", 0.5, 0.65, 4, ("lambda_max",)).validate()


# the names each family's sweep accepted before the quantity table: the report
# fields but f_opt_locc for every family, and the two filter values for sigma
_REPORT_NAMES = ("lambda_max", "is_npt", "dembo_lower", "dembo_upper_paper", "dembo_upper_quarter",
                 "singlet_fraction_lower", "fidelity_upper", "verdict")
_SIGMA_NAMES = ("f_opt_spa", "f_opt_pt")


@pytest.mark.parametrize("family", list(states.FAMILIES))
def test_every_family_accepts_exactly_the_names_it_accepted(family):
    lo, hi, _ = states.FAMILIES[family].interval
    names = dict.fromkeys([*criteria.QUANTITIES, "f_opt_locc", "pt_min", "dembo", "bogus", ""])
    for name in names:
        spec = SweepSpec(family, lo + 0.25 * (hi - lo), hi, 3, (name,))
        if name in _REPORT_NAMES or (family == "sigma" and name in _SIGMA_NAMES):
            spec.validate()
        else:
            with pytest.raises(InvalidSpec) as exc:
                spec.validate()
            assert str(exc.value) == f"unknown quantity {name!r} for family {family!r}"
    assert {q for q, (_, sweeps) in criteria.QUANTITIES.items() if sweeps is None} == set(_REPORT_NAMES)


@pytest.mark.parametrize("steps, dim, message", [
    (3, 0, "need 2 <= dim <= 8, got 0"),
    (3, 1, "need 2 <= dim <= 8, got 1"),
    (3, 40, "need 2 <= dim <= 8, got 40"),
    (3, 2.5, "steps and dim must be integers, got 3 and 2.5"),
    (2.5, None, "steps and dim must be integers, got 2.5 and None"),
    ("3", 3, "steps and dim must be integers, got '3' and 3"),
])
def test_sweep_spec_checks_dim_and_integer_steps(tmp_path, steps, dim, message):
    # cmd_sweep is public: a spec that argparse would have refused still gets a named error
    out = tmp_path / "x.csv"
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        cmd_sweep(SweepSpec("noisy_singlet", 0.0, 1.0, steps, ("lambda_max",), dim), str(out))
    assert not out.exists()
    # numpy ints and floats are integers and real numbers too
    spec = SweepSpec("noisy_singlet", np.int64(0), np.float64(1.0), np.int64(3), ("lambda_max",),
                     np.int64(cli.MAX_DIM))
    assert cmd_sweep(spec, str(out)) == EXIT_OK
    assert out.read_text().count("\n") == 4


@pytest.mark.parametrize("lo, hi", [("0.5", 0.65), (None, 0.65), (0.5 + 0j, 0.65), ("0.5", "0.65")],
                         ids=["str", "none", "complex", "str_pair"])
def test_sweep_spec_rejects_a_range_end_that_is_not_real(tmp_path, lo, hi):
    # ("0.5", "0.65") compares as strings, and would reach np.linspace
    path = tmp_path / "old.csv"
    path.write_bytes(b"old content\n")
    message = f"lo and hi must be real numbers, got {lo!r} and {hi!r}"
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        cmd_sweep(SweepSpec("rho3", lo, hi, 3, ("lambda_max",)), str(path))
    assert path.read_bytes() == b"old content\n"


@pytest.mark.parametrize("family, quantities, message", [
    (["rho3"], ("lambda_max",), "unknown family ['rho3']"),
    ("rho3", (["lambda_max"],), "unknown quantity ['lambda_max'] for family 'rho3'"),
    ("rho3", "lambda_max", "quantities must be a non-empty sequence of names, got 'lambda_max'"),
], ids=["family_list", "quantity_list", "quantities_string"])
def test_sweep_spec_names_a_bad_family_or_quantity(tmp_path, family, quantities, message):
    # a list used to raise a bare TypeError, and one string was read letter by letter
    path = tmp_path / "old.csv"
    path.write_bytes(b"old content\n")
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        cmd_sweep(SweepSpec(family, 0.5, 0.65, 3, quantities), str(path))
    assert path.read_bytes() == b"old content\n"


def test_sweep_bit_identical(tmp_path):
    args = [
        "sweep", "--family", "rho2", "--from", "0.35", "--to", "0.369",
        "--steps", "9", "--quantities", "lambda_max,singlet_fraction_lower,verdict",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["-o", str(a)]) == EXIT_OK
    assert main(args + ["-o", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("family", ["sigma", "rho2", "rho3", "rho_alpha"])
def test_dim_on_a_fixed_dimension_family_is_usage_error(tmp_path, capsys, family):
    lo, hi, _ = states.FAMILIES[family].interval
    out = tmp_path / "x.csv"
    code = main(["sweep", "--family", family, "--from", repr(lo + 0.25 * (hi - lo)), "--to", repr(hi),
                 "--steps", "3", "--quantities", "lambda_max", "--dim", "3", "-o", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: invalid sweep spec: --dim") and err.count("\n") == 1
    assert not out.exists()


def test_noisy_singlet_dim_defaults_to_3(tmp_path):
    args = ["sweep", "--family", "noisy_singlet", "--from", "0", "--to", "1", "--steps", "5",
            "--quantities", "lambda_max,verdict"]
    default, three = tmp_path / "default.csv", tmp_path / "three.csv"
    assert main([*args, "-o", str(default)]) == EXIT_OK
    assert main([*args, "--dim", "3", "-o", str(three)]) == EXIT_OK
    assert default.read_bytes() == three.read_bytes()


# ---- the CSV writer ----

def _sweep_rho3(steps: int, out) -> list[str]:
    return ["sweep", "--family", "rho3", "--from", "0.5", "--to", "0.65", "--steps", str(steps),
            "--quantities", sweep_quantities("rho3"), "-o", str(out)]


@pytest.mark.parametrize("first, second", [(200, 3), (3, 200)], ids=["shrink", "grow"])
def test_overwrite_equals_a_fresh_write(tmp_path, first, second):
    reused, fresh = tmp_path / "reused.csv", tmp_path / "fresh.csv"
    assert main(_sweep_rho3(first, reused)) == EXIT_OK
    assert main(_sweep_rho3(second, reused)) == EXIT_OK
    assert main(_sweep_rho3(second, fresh)) == EXIT_OK
    assert reused.read_bytes() == fresh.read_bytes()
    assert reused.read_text().count("\n") == second + 1


def test_output_through_a_symlink_rewrites_the_target(tmp_path):
    target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "fresh.csv"
    target.write_text("old content, longer than the new file\n" * 100)
    link.symlink_to(target)
    assert main(["reproduce", "ex_rho1", "-o", str(link)]) == EXIT_OK
    assert main(["reproduce", "ex_rho1", "-o", str(fresh)]) == EXIT_OK
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh.read_bytes()


def test_output_to_dev_null(capsys):
    assert main(["reproduce", "fig1", "-o", os.devnull]) == EXIT_OK
    assert main(_sweep_rho3(3, os.devnull)) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_a_failing_block_removes_an_existing_file(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("old content\n")

    def blocks():
        yield [np.array([0.5, 0.6]), [True, False]]
        raise NotAState("injected failure in the second block")

    with pytest.raises(NotAState, match="injected"):
        cli._write_csv(str(path), ["param", "is_npt"], blocks())
    assert not path.exists()


def _failing_blocks():
    yield [np.array([0.5, 0.6]), [True, False]]
    raise NotAState("injected failure in the second block")


def test_a_failing_block_through_a_symlink_empties_the_target_and_keeps_the_link(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old content\n" * 5000)
    link.symlink_to(target)
    with pytest.raises(NotAState, match="injected"):
        cli._write_csv(str(link), ["param", "is_npt"], _failing_blocks())
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == b""
    with pytest.raises(NotAState, match="injected"):
        cli._write_csv(os.devnull, ["param", "is_npt"], _failing_blocks())
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(not os.path.islink("/dev/stdout"), reason="/dev/stdout is not a link here")
def test_a_failing_block_through_dev_stdout_empties_the_redirected_file(tmp_path):
    out = tmp_path / "stdout.csv"
    out.write_text("old content\n" * 5000)
    code = (
        "import numpy as np\n"
        "from teleres import NotAState, cli\n"
        "def blocks():\n"
        "    yield [np.array([0.5, 0.6]), [True, False]]\n"
        "    raise NotAState('injected failure in the second block')\n"
        "cli._write_csv('/dev/stdout', ['param', 'is_npt'], blocks())\n"
    )
    with open(out, "wb") as fh:
        proc = subprocess.run([sys.executable, "-c", code], stdout=fh, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1 and "injected" in proc.stderr
    assert out.read_bytes() == b""


def test_usage_errors_leave_an_existing_file_unchanged(tmp_path, capsys):
    path = tmp_path / "old.csv"
    old = b"old content\n" * 50
    path.write_bytes(old)
    base = ["sweep", "--quantities", "lambda_max", "-o", str(path), "--steps", "3"]
    for argv in (
        [*base, "--family", "rho3", "--from", "0.5", "--to", "0.65", "--dim", "5"],  # --dim on a fixed family
        [*base, "--family", "rho3", "--from", "0.65", "--to", "0.5"],  # lo > hi
        [*base, "--family", "rho2", "--from", "0.1", "--to", "0.369"],  # outside the interval
        [*base, "--family", "noisy_singlet", "--from", "0", "--to", "1", "--dim", "9"],  # over MAX_DIM
    ):
        assert main(argv) == EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith(("error: invalid sweep spec", "usage:"))
        assert path.read_bytes() == old


@pytest.mark.parametrize("family", ["sigma", "rho3"])
def test_a_bad_dembo_variant_leaves_an_existing_file_unchanged(tmp_path, family):
    path = tmp_path / "old.csv"
    path.write_bytes(b"old content\n")
    lo, hi, _ = states.FAMILIES[family].interval
    with pytest.raises(ValueError, match="variant must be 'paper' or 'quarter', got 'half'"):
        cmd_sweep(SweepSpec(family, lo + 0.25 * (hi - lo), hi, 3, ("lambda_max",)), str(path), "half")
    assert path.read_bytes() == b"old content\n"


def test_writer_never_truncates_on_open(tmp_path, monkeypatch):
    flags = []
    real_open = os.open

    def recording(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", recording)
    path = tmp_path / "out.csv"
    path.write_text("old content\n" * 1000)
    assert main(["reproduce", "fig1", "-o", str(path)]) == EXIT_OK
    assert main(_sweep_rho3(3, path)) == EXIT_OK
    assert len(flags) == 2
    assert all(f & os.O_TRUNC == 0 and f & os.O_CREAT and f & os.O_WRONLY for f in flags)
    assert path.read_text().count("\n") == 4


# ---- audit ----

def test_audit_passes(capsys):
    assert main(["audit", "--trials", "50", "--seed", "42"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "audit passed" in out


# `teleres audit --trials 1000 --seed 42` stdout, byte for byte: the harness draws from its own keyed
# Philox streams, so no other stream in the oracle may move a margin
_AUDIT_1000_SEED_42 = """\
trace_sandwich: ok (1000 trials, 0 violations, worst slack 2.675e-01 at trial 746)
weyl_extremes: ok (1000 trials, 0 violations, worst slack 4.646e-03 at trial 854)
lambda_max_range: ok (1000 trials, 0 violations, worst slack 1.497e-01 at trial 922)
fef_below_lambda_max_d2: ok (1000 trials, 0 violations, worst slack 7.145e-04 at trial 466)
basis_bound_below_lambda_max_d3: ok (1000 trials, 0 violations, worst slack 6.466e-02 at trial 397)
dembo_quarter_sandwich: ok (1000 trials, 0 violations, worst slack 3.945e-06 at trial 638)
audit passed: 6 checks x 1000 trials, seed=42
"""


def test_audit_output_is_pinned(capsys):
    assert main(["audit", "--trials", "1000", "--seed", "42"]) == EXIT_OK
    assert capsys.readouterr().out == _AUDIT_1000_SEED_42


def test_audit_zero_trials_usage_error(tmp_path, capsys):
    sweep = ["sweep", "--family", "noisy_singlet", "--from", "0", "--to", "1", "--steps", "3",
             "--quantities", "lambda_max"]
    out = ["-o", str(tmp_path / "out.csv")]
    unwritable = ["-o", str(tmp_path / "missing_dir" / "x.csv")]
    for argv, message in (
        (["audit", "--trials", "0", "--seed", "1"], "error: argument"),
        (["audit", "--trials", "2", "--seed", "-1"], "error: argument"),
        (["audit", "--trials", "1", "--seed", str(2**64)], "error: argument"),
        ([*sweep, *out, "--dim", "1"], "error: argument"),
        (["reproduce", "fig1", *unwritable], "error: cannot write"),
        ([*sweep, *unwritable], "error: cannot write"),
    ):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_audit_injected_violation_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_CHECKS", (("always_bad", lambda streams: [-2.0 for _ in streams]),))
    code = cmd_audit(5, 1)
    captured = capsys.readouterr()
    assert code == EXIT_AUDIT
    assert "VIOLATED" in captured.out
    assert "always_bad" in captured.out
    assert "seed=1" in captured.err


def test_audit_nan_margin_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_CHECKS", (("nan", lambda streams: [float("nan") for _ in streams]),))
    code = cmd_audit(3, 1)
    captured = capsys.readouterr()
    assert code == EXIT_AUDIT
    assert "nan: VIOLATED (3 trials, 3 violations, worst slack nan at trial 0)" in captured.out
    assert "audit passed" not in captured.out
    assert "audit FAILED: 3 violation(s)" in captured.err


# ---- argv plumbing ----

def test_cached_parser_matches_a_fresh_one(tmp_path, capsys):
    path = _write(tmp_path, "rho1.json", rho1())
    calls = (["analyze", path, "--json"], ["audit", "--trials", "0"], ["analyze", path])

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    parser = cli._build_parser()
    cached = [run(argv) for argv in calls]
    assert cli._build_parser() is parser
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in cached] == [EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert cached == fresh


def test_dim_and_trials_are_bounded_above(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out.csv"
    # past a missing cap the audit would run a million trials; fail at once instead
    monkeypatch.setattr(cli, "cmd_audit", lambda trials, seed: pytest.fail(f"audit ran {trials} trials"))
    sweep = ["sweep", "--family", "noisy_singlet", "--from", "0", "--to", "1", "--steps", "3",
             "--quantities", "lambda_max,verdict", "-o", str(out)]
    for argv, bound in (
        ([*sweep, "--dim", str(cli.MAX_DIM + 1)], f"in [2, {cli.MAX_DIM}]"),
        (["audit", "--trials", str(cli.MAX_TRIALS + 1)], f"in [1, {cli.MAX_TRIALS}]"),
    ):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: argument" in err and bound in err
    assert not out.exists()
    assert main([*sweep, "--dim", str(cli.MAX_DIM)]) == EXIT_OK
    assert out.read_text().count("\n") == 4


def _argv(rng, paths: dict) -> list[str]:
    """A random argv: a subcommand (or none, or an unknown one) whose flag
    values are mostly valid and otherwise malformed, with flags now and then
    left out or given twice."""

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def draw(valid, invalid):
        return pick(valid) if rng.random() < 0.8 else pick(invalid)

    floats = ["-0.1", "nan", "inf", "-inf", "1e400", "1e308", "x", ""]
    ints = ["0", "-1", "1.5", "1e3", "x", "", "9" * 5000, str(2**64)]
    out = draw([paths["out"]], [paths["dir"], paths["missing"], ""])
    command = draw(["analyze", "reproduce", "sweep", "audit"], ["bogus", "-h", None])
    if command == "analyze":
        flags = [[draw([paths["state"]], [paths["garbage"], paths["dir"], paths["missing"], ""])],
                 ["--json"], ["--dembo", draw(["paper", "quarter"], ["half", ""])]]
    elif command == "reproduce":
        flags = [[draw(REPRODUCE_TARGETS, ["fig4", ""])], ["-o", out]]
    elif command == "sweep":
        family = draw(list(states.FAMILIES), ["rho9", ""])
        lo, hi, _ = states.FAMILIES[family].interval if family in states.FAMILIES else (0.0, 1.0, False)
        low, mid, high = (repr(lo + f * (hi - lo)) for f in (0.1, 0.5, 0.9))
        quantities = ["lambda_max", "lambda_max,verdict,is_npt", "f_opt_pt,f_opt_spa", sweep_quantities("rho3")]
        flags = [["--family", family], ["--from", draw([low, mid], floats)], ["--to", draw([mid, high], floats)],
                 ["--steps", draw(["2", "3", "5"], ints)],
                 ["--quantities", draw(quantities, [",", " ", "", "bogus"])], ["-o", out],
                 ["--dembo", draw(["paper", "quarter"], ["half"])],
                 ["--dim", draw(["2", "3", "4"], [str(cli.MAX_DIM + 1), "1", "x"])]]
    elif command == "audit":
        # huge counts are left to test_dim_and_trials_are_bounded_above, so
        # that a missing cap fails there instead of running here
        flags = [["--trials", draw(["1", "2", "3"], ints[:-1])],
                 ["--seed", draw(["0", "7"], ints)]]
    else:
        flags = [["--json"], ["-o", out]]
    argv = [] if command is None else [command]
    for i in rng.permutation(len(flags)):
        argv += flags[i] * int(rng.choice([1] * 10 + [0, 2]))  # now and then missing or twice
    if rng.random() < 0.05:
        argv.append(pick(["--bogus", "-x", "extra"]))
    return argv


@pytest.mark.parametrize("seed", [0, 1])
def test_argv_property_exit_code_and_no_traceback(tmp_path, capsys, seed):
    state = _write(tmp_path, "state.json", rho3(0.6))
    garbage = tmp_path / "garbage.json"
    garbage.write_text('{"d": 2, "entries": [[1e308, 0]]}')
    paths = {"state": state, "garbage": str(garbage), "dir": str(tmp_path), "out": str(tmp_path / "out.csv"),
             "missing": str(tmp_path / "missing_dir" / "out.csv")}
    rng = np.random.default_rng([20261018, seed])
    seen = set()
    for case in range(200):
        argv = _argv(rng, paths)
        code = main(argv)
        captured = capsys.readouterr()
        what = f"seed {seed} case {case}: {[a[:40] for a in argv]}"
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_AUDIT), what
        assert "Traceback" not in captured.err, what
        assert code == EXIT_OK or "error:" in captured.err, what
        seen.add(code)
    assert {EXIT_OK, EXIT_USAGE, EXIT_VALIDATION} <= seen


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sweep", "-h"], ["audit", "--help"]])
def test_help_returns_ok_and_prints_usage_to_stdout(capsys, argv):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: teleres {' '.join(argv[:-1])}".rstrip())
    assert captured.err == ""


def test_no_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "teleres", "audit", "--trials", "2", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "audit passed" in proc.stdout
