"""Command-line front end.

Subcommands: ``analyze`` a state file, ``reproduce`` the bundled reference
curves and worked examples as CSV, ``sweep`` a state family, and ``audit``
the inequality harness. Exit codes: 0 success, 1 usage error or
unwritable output, 2 parse or validation failure, 3 audit violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import criteria, oracle, states
from .criteria import (
    FilterOperator,
    dembo_bounds,
    f_opt_locc_pt,
    f_opt_locc_spa,
    fef_2qubit,
    max_eigenvalue,
    sigma_spa_threshold,
    singlet_fraction_basis,
    spa_pt_2qubit,
    verdict,
    x_opt,
)
from .linalg import trace_product
from .states import (
    NotAState,
    ParseError,
    load_state,
    qutrit_me_basis,
    rho1,
    rho2,
    rho3,
    rho_alpha,
    noisy_singlet,
    sigma_family,
)

__all__ = ["main", "entry", "SweepSpec", "InvalidSpec", "cmd_analyze", "cmd_reproduce", "cmd_sweep", "cmd_audit"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_AUDIT = 3

MAX_STEPS = 1_000_000

REPRODUCE_TARGETS = ("fig1", "fig2", "fig3", "ex_sigma1", "ex_rho1", "ex_rho3", "ex_rho_alpha")

_FAMILY_RANGES = {
    "sigma": (0.0, 1.0),
    "rho2": (0.35, 0.369),
    "rho3": (0.5, 0.65),
    "rho_alpha": (4.0, 5.0),
    "noisy_singlet": (0.0, 1.0),
}

_REPORT_QUANTITIES = (
    "lambda_max",
    "is_npt",
    "dembo_lower",
    "dembo_upper_paper",
    "dembo_upper_quarter",
    "singlet_fraction_lower",
    "fidelity_upper",
    "verdict",
)
_SIGMA_QUANTITIES = ("f_opt_spa", "f_opt_pt")


class InvalidSpec(ValueError):
    """Sweep specification violates a constraint."""


@dataclass(frozen=True)
class SweepSpec:
    family: str
    lo: float
    hi: float
    steps: int
    quantities: tuple[str, ...]

    def validate(self) -> None:
        if self.family not in _FAMILY_RANGES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        if not self.lo < self.hi:
            raise InvalidSpec(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not 2 <= self.steps <= MAX_STEPS:
            raise InvalidSpec(f"need 2 <= steps <= {MAX_STEPS}, got {self.steps}")
        vlo, vhi = _FAMILY_RANGES[self.family]
        if self.lo < vlo - 1e-12 or self.hi > vhi + 1e-12:
            raise InvalidSpec(
                f"range [{self.lo}, {self.hi}] outside validity [{vlo}, {vhi}] of {self.family}"
            )
        if not self.quantities:
            raise InvalidSpec("quantity list is empty")
        allowed = set(_REPORT_QUANTITIES)
        if self.family == "sigma":
            allowed |= set(_SIGMA_QUANTITIES)
        for q in self.quantities:
            if q not in allowed:
                raise InvalidSpec(f"unknown quantity {q!r} for family {self.family!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _sigma1() -> states.DensityMatrix:
    return sigma_family(0.2, 0.4, 0.4, 0.25 + 0.1j)


def cmd_analyze(path: str, dembo_variant: str = "paper", as_json: bool = False) -> int:
    rho = load_state(path)
    report = verdict(rho, dembo_variant)
    if as_json:
        doc = dataclasses.asdict(report)
        doc["verdict"] = report.verdict.value
        print(json.dumps(doc, indent=2))
        return EXIT_OK

    def g4(x: float) -> str:
        return format(x, ".4g")

    print(f"state: d={report.d} ({rho.dim}x{rho.dim})")
    print(f"npt: {'yes' if report.is_npt else 'no'}")
    print(f"lambda_max: {g4(report.lambda_max)}")
    print(
        "dembo lower / upper(paper) / upper(quarter): "
        f"{g4(report.dembo_lower)} / {g4(report.dembo_upper_paper)} / {g4(report.dembo_upper_quarter)}"
    )
    print(f"singlet fraction lower bound: {g4(report.singlet_fraction_lower)}")
    if report.f_opt_locc is not None:
        print(f"filtered LOCC value (best diag filter): {g4(report.f_opt_locc)}")
    print(f"teleportation fidelity upper bound: {g4(report.fidelity_upper)}")
    print(f"verdict: {report.verdict.value} (dembo variant: {report.dembo_variant})")
    return EXIT_OK


def _reproduce_rows(target: str) -> tuple[list[str], list[list]]:
    if target == "fig1":
        sig = _sigma1()
        rows = []
        for a in np.linspace(0.78, 1.0, 200):
            rows.append([float(a), f_opt_locc_spa(sig, FilterOperator(float(a)))])
        return ["a", "f_opt"], rows

    if target == "fig2":
        basis = qutrit_me_basis()
        rows = []
        for a in np.linspace(0.35, 0.369, 200):
            rows.append([float(a), singlet_fraction_basis(rho2(float(a)), basis)])
        return ["a", "singlet_fraction"], rows

    if target == "fig3":
        rows = []
        for a in np.linspace(0.35, 0.369, 200):
            rows.append([float(a), max_eigenvalue(rho2(float(a)))])
        return ["a", "lambda_max"], rows

    header = ["quantity", "expected", "computed", "abs_diff", "reproduced"]

    def row(name: str, expected: float, computed: float, tol: float = 1e-3) -> list:
        diff = abs(expected - computed)
        return [name, expected, computed, diff, "yes" if diff <= tol else "NO"]

    if target == "ex_sigma1":
        sig = _sigma1()
        spa = spa_pt_2qubit(sig)
        rows = [
            row("trace_xopt_spa_a1_x18", 4.9, 18.0 * trace_product(x_opt(FilterOperator(1.0)), spa.mat).real),
            row("f_opt_spa_a0.78", 0.4966, f_opt_locc_spa(sig, FilterOperator(0.78)), 1e-4),
            row("f_opt_spa_a1", 0.05, f_opt_locc_spa(sig, FilterOperator(1.0)), 1e-4),
            row("filter_threshold", 0.7781, sigma_spa_threshold(0.25, 0.4), 1e-4),
            row("concurrence", 2.0 * abs(0.25 + 0.1j), oracle.wootters_concurrence(sig), 1e-9),
        ]
        return header, rows

    if target == "ex_rho1":
        r = rho1()
        spec = r.spectrum
        rows = [
            row("eigenvalue_1", 0.0, float(spec[0]), 5e-4),
            row("eigenvalue_2", 0.0, float(spec[1]), 5e-4),
            row("eigenvalue_3", 0.4142, float(spec[2]), 5e-4),
            row("eigenvalue_4", 0.5858, float(spec[3]), 5e-4),
            row("lambda_max", 2.0 - math.sqrt(2.0), max_eigenvalue(r), 1e-9),
            row("singlet_fraction", 0.5, fef_2qubit(r), 1e-6),
            row("fidelity_upper", 0.7239, criteria.fidelity_from_fraction(max_eigenvalue(r), 2), 1e-4),
        ]
        return header, rows

    if target == "ex_rho3":
        r = rho3(0.65)
        dec = criteria.DemboDecomposition.from_matrix(r.mat)
        _, up_paper = dembo_bounds(r, "paper", eta_high=0.325)
        _, up_quarter = dembo_bounds(r, "quarter", eta_high=0.325)
        rows = [
            row("corner_c", 0.1750, dec.c, 1e-12),
            row("btb", 0.015 ** 2, float(np.vdot(dec.b, dec.b).real), 1e-12),
            row("eta8_exact", 0.325, dec.eta_high, 1e-12),
            row("dembo_upper_paper", 0.357, up_paper, 1e-3),
            row("dembo_upper_quarter", 0.3265, up_quarter, 1e-3),
            row("lambda_max", 0.3265, max_eigenvalue(r), 1e-3),
        ]
        return header, rows

    if target == "ex_rho_alpha":
        r = rho_alpha(5.0)
        _, up_paper = dembo_bounds(r, "paper", eta_high=5.0 / 21.0)
        _, up_quarter = dembo_bounds(r, "quarter", eta_high=5.0 / 21.0)
        # 0.3135 is the quoted value; neither variant reproduces it
        rows = [
            row("lambda_max", 2.0 / 7.0, max_eigenvalue(r), 1e-10),
            row("dembo_upper_paper_vs_quoted", 0.3135, up_paper),
            row("dembo_upper_quarter_vs_quoted", 0.3135, up_quarter),
            row("dembo_upper_paper", 0.3350, up_paper, 1e-4),
            row("dembo_upper_quarter", 0.3191, up_quarter, 1e-4),
        ]
        return header, rows

    raise InvalidSpec(f"unknown reproduce target {target!r}")


def cmd_reproduce(target: str, out_path: str) -> int:
    header, rows = _reproduce_rows(target)
    _write_csv(out_path, header, rows)
    return EXIT_OK


def _sweep_state(family: str, value: float, dim: int):
    if family == "rho2":
        return rho2(value)
    if family == "rho3":
        return rho3(value)
    if family == "rho_alpha":
        return rho_alpha(value)
    if family == "noisy_singlet":
        return noisy_singlet(value, dim)
    raise InvalidSpec(f"family {family!r} has no state constructor")


def cmd_sweep(spec: SweepSpec, out_path: str, dembo_variant: str = "paper", dim: int = 3) -> int:
    spec.validate()
    params = np.linspace(spec.lo, spec.hi, spec.steps)
    header = ["param", *spec.quantities]
    rows: list[list] = []
    if spec.family == "sigma":
        sig = _sigma1()
        base = verdict(sig, dembo_variant)
        for a in params:
            flt = FilterOperator(float(a))
            values: list = [float(a)]
            for q in spec.quantities:
                if q == "f_opt_spa":
                    values.append(f_opt_locc_spa(sig, flt))
                elif q == "f_opt_pt":
                    values.append(f_opt_locc_pt(sig, flt))
                elif q == "verdict":
                    values.append(base.verdict.value)
                else:
                    values.append(getattr(base, q))
            rows.append(values)
    else:
        for p in params:
            rho = _sweep_state(spec.family, float(p), dim)
            report = verdict(rho, dembo_variant)
            values = [float(p)]
            for q in spec.quantities:
                if q == "verdict":
                    values.append(report.verdict.value)
                else:
                    values.append(getattr(report, q))
            rows.append(values)
    _write_csv(out_path, header, rows)
    return EXIT_OK


def cmd_audit(trials: int, seed: int, checks=None) -> int:
    report = oracle.inequality_harness(trials, seed, checks)
    for c in report.checks:
        status = "ok" if c.violations == 0 else "VIOLATED"
        print(
            f"{c.name}: {status} ({c.trials} trials, {c.violations} violations, "
            f"worst slack {c.worst_slack:.3e} at trial {c.worst_trial})"
        )
    if report.total_violations:
        print(
            f"audit FAILED: {report.total_violations} violation(s); "
            f"rerun instances with seed={report.seed}",
            file=sys.stderr,
        )
        return EXIT_AUDIT
    print(f"audit passed: {len(report.checks)} checks x {report.trials} trials, seed={report.seed}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _int_at_least(low: int, high: float = math.inf):
    """argparse type: an integer in [low, high]; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid" message
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="teleres", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a density-matrix file")
    p_an.add_argument("file")
    p_an.add_argument("--dembo", choices=("paper", "quarter"), default="paper")
    p_an.add_argument("--json", action="store_true", help="full-precision machine output")

    p_re = sub.add_parser("reproduce", help="emit a bundled reference curve or example as CSV")
    p_re.add_argument("target", choices=REPRODUCE_TARGETS)
    p_re.add_argument("-o", "--output", required=True)

    p_sw = sub.add_parser("sweep", help="sweep a state family and emit CSV")
    p_sw.add_argument("--family", required=True, choices=tuple(_FAMILY_RANGES))
    p_sw.add_argument("--from", dest="lo", type=float, required=True)
    p_sw.add_argument("--to", dest="hi", type=float, required=True)
    p_sw.add_argument("--steps", type=int, required=True)
    p_sw.add_argument("--quantities", required=True, help="comma-separated list")
    p_sw.add_argument("-o", "--output", required=True)
    p_sw.add_argument("--dembo", choices=("paper", "quarter"), default="paper")
    p_sw.add_argument("--dim", type=_int_at_least(2), default=3, help="local dimension for noisy_singlet")

    p_au = sub.add_parser("audit", help="run the inequality harness")
    p_au.add_argument("--trials", type=_int_at_least(1), required=True)
    p_au.add_argument("--seed", type=_int_at_least(0, 2**64 - 1), default=0)  # a uint64 Philox key

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "analyze":
            return cmd_analyze(args.file, args.dembo, args.json)
        if args.command == "reproduce":
            return cmd_reproduce(args.target, args.output)
        if args.command == "sweep":
            spec = SweepSpec(
                family=args.family,
                lo=args.lo,
                hi=args.hi,
                steps=args.steps,
                quantities=tuple(q.strip() for q in args.quantities.split(",") if q.strip()),
            )
            return cmd_sweep(spec, args.output, args.dembo, args.dim)
        if args.command == "audit":
            return cmd_audit(args.trials, args.seed)
    except InvalidSpec as exc:
        print(f"error: invalid sweep spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, NotAState) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # reproduce and sweep write args.output; analyze and audit only print
        target = getattr(args, "output", "stdout")
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


def entry() -> None:  # console-script hook
    raise SystemExit(main())
