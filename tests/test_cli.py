import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from teleres import noisy_singlet, rho1, rho3, save_state, verdict
from teleres.cli import (
    EXIT_AUDIT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    REPRODUCE_TARGETS,
    SweepSpec,
    InvalidSpec,
    cmd_audit,
    main,
)
from conftest import random_state


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


def test_reproduce_bit_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["reproduce", "fig1", "-o", str(a)]) == EXIT_OK
    assert main(["reproduce", "fig1", "-o", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_unknown_target_usage_error(tmp_path, capsys):
    assert main(["reproduce", "fig9", "-o", str(tmp_path / "x.csv")]) == EXIT_USAGE
    capsys.readouterr()


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


def test_sweep_bad_steps_and_order(tmp_path):
    base = ["sweep", "--family", "rho3", "--quantities", "lambda_max", "-o", str(tmp_path / "x.csv")]
    assert main(base + ["--from", "0.5", "--to", "0.65", "--steps", "1"]) == EXIT_USAGE
    assert main(base + ["--from", "0.65", "--to", "0.5", "--steps", "4"]) == EXIT_USAGE
    assert main(base + ["--from", "0.5", "--to", "0.65", "--steps", "1000001"]) == EXIT_USAGE


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


# ---- audit ----

def test_audit_passes(capsys):
    assert main(["audit", "--trials", "50", "--seed", "42"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "audit passed" in out


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


def test_audit_injected_violation_exit_3(capsys):
    code = cmd_audit(5, 1, checks=[("always_bad", lambda rng: -2.0)])
    captured = capsys.readouterr()
    assert code == EXIT_AUDIT
    assert "VIOLATED" in captured.out
    assert "always_bad" in captured.out
    assert "seed=1" in captured.err


# ---- argv plumbing ----

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
