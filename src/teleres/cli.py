"""Command-line front end.

Subcommands: ``analyze`` a state file, ``reproduce`` the bundled reference
curves and worked examples as CSV, ``sweep`` a state family, and ``audit``
the inequality harness. Exit codes: 0 success, 1 usage error or
unwritable output, 2 parse or validation failure, 3 audit violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import operator
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from . import criteria, oracle, states
from .criteria import FilterOperator, f_opt_locc_spa, fef_2qubit, max_eigenvalue, sigma_spa_threshold, verdict, x_opt
from .linalg import trace_product
from .states import NotAState, ParseError, load_state, rho1, rho3, rho_alpha

__all__ = ["main", "entry", "SweepSpec", "InvalidSpec", "cmd_analyze", "cmd_reproduce", "cmd_sweep", "cmd_audit"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_AUDIT = 3

MAX_STEPS = 1_000_000
MAX_TRIALS = 1_000_000
MAX_DIM = 8

# matrix entries per sweep block: 16,384 states at d = 2, 3,236 at d = 3 and
# 64 at d = 8, so a sweep's memory is bounded whatever --steps and --dim are
SWEEP_BLOCK_ENTRIES = 2**18


class InvalidSpec(ValueError):
    """Sweep specification violates a constraint."""


@dataclass(frozen=True)
class SweepSpec:
    family: str
    lo: float
    hi: float
    steps: int
    quantities: tuple[str, ...]
    dim: int | None = None  # the local dimension of a family without a fixed one

    def validate(self) -> None:
        if not isinstance(self.family, str) or self.family not in states.FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        fixed_d = states.FAMILIES[self.family].d
        if self.dim is not None and fixed_d is not None:
            raise InvalidSpec(f"--dim does not apply to {self.family}, whose local dimension is {fixed_d}")
        try:
            steps, dim = operator.index(self.steps), self.dim if self.dim is None else operator.index(self.dim)
        except TypeError:
            raise InvalidSpec(f"steps and dim must be integers, got {self.steps!r} and {self.dim!r}") from None
        if dim is not None and not 2 <= dim <= MAX_DIM:
            raise InvalidSpec(f"need 2 <= dim <= {MAX_DIM}, got {dim}")
        if not (isinstance(self.lo, numbers.Real) and isinstance(self.hi, numbers.Real)):
            raise InvalidSpec(f"lo and hi must be real numbers, got {self.lo!r} and {self.hi!r}")
        if not self.lo < self.hi:
            raise InvalidSpec(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not 2 <= steps <= MAX_STEPS:
            raise InvalidSpec(f"need 2 <= steps <= {MAX_STEPS}, got {self.steps}")
        try:
            states._family_params("range end", (self.lo, self.hi), self.family)
        except ValueError as exc:
            raise InvalidSpec(str(exc)) from None
        if isinstance(self.quantities, str) or not self.quantities:
            raise InvalidSpec(f"quantities must be a non-empty sequence of names, got {self.quantities!r}")
        for q in self.quantities:
            sweeps = criteria.QUANTITIES[q][1] if isinstance(q, str) and q in criteria.QUANTITIES else ()
            if not (sweeps is None or self.family in sweeps):
                raise InvalidSpec(f"unknown quantity {q!r} for family {self.family!r}")


# the paper's figures, each one quantity of a family over 200 steps: (its sweep, the paper's CSV header)
FIGURES = {
    "fig1": (SweepSpec("sigma", 0.78, 1.0, 200, ("f_opt_spa",)), ["a", "f_opt"]),
    "fig2": (SweepSpec("rho2", 0.35, 0.369, 200, ("singlet_fraction_lower",)), ["a", "singlet_fraction"]),
    "fig3": (SweepSpec("rho2", 0.35, 0.369, 200, ("lambda_max",)), ["a", "lambda_max"]),
}

REPRODUCE_TARGETS = (*FIGURES, "ex_sigma1", "ex_rho1", "ex_rho3", "ex_rho_alpha")


def _write_csv(path: str, header: list[str], blocks) -> None:
    """Write ``header``, then the rows of each block in turn; a block is a
    list of columns (arrays or lists), and each is written before the next
    is drawn. A column of one value beside longer ones holds that value on
    every row of its block.

    Each block's rows are formatted by one ``str.format`` template, built
    from the type of each column's first value in that block: true/false
    for bools, 12 significant digits for floats, str for anything else; a
    one-value column is formatted into the template once, not on every row.

    The file is opened without truncating it and written over in place: a
    truncate frees the old blocks and the rewrite allocates new ones, which
    on ext4 costs several times as much as writing over them. When ``path``
    names the regular file that stdout or stderr writes to (``-o
    /dev/stdout >> log``), the rows go through that stream's own open file,
    at its offset and in its append mode. One rule then settles what is
    left, for a regular file only; a device or a FIFO (``/dev/null``, a
    terminal, a pipe) is never cut. On success the file is cut at the end
    of the write, which for a stream's file opened for appending is already
    the end of the file. On failure it is cut back to where the write began,
    0 or the stream's file's old length, and then removed, unless ``path``
    reached it through a link or it is a stream's file; the exception
    propagates. A run killed part way leaves the new rows written so far,
    followed by the old file's tail where the old file was longer.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    st = os.fstat(fd)
    regular = stat.S_ISREG(st.st_mode)
    std = None  # the standard stream that writes to this file, stdout before stderr
    for s in (2, 1) if regular else ():
        try:
            if s != fd and os.path.samestat(st, os.fstat(s)):
                std = s
        except OSError:  # no such stream
            pass
    if std:  # fd now shares the stream's open file: its offset and its append mode
        os.dup2(std, fd)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        try:
            fh.write(",".join(header) + "\n")
            for block in blocks:
                columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
                rows = max(map(len, columns))
                cells, varying = [], []
                for c in columns:
                    fmt = "{:.12g}" if isinstance(c[0], float) else "{}"
                    text = map(("false", "true").__getitem__, c) if isinstance(c[0], bool) else c
                    if len(c) == 1 < rows:  # one value for every row: into the template, escaped for format
                        cells.append(fmt.format(*text).replace("{", "{{").replace("}", "}}"))
                    else:
                        cells.append(fmt)
                        varying.append(text)
                fh.write("".join(map((",".join(cells) + "\n").format, *varying)))
            if regular:
                fh.truncate()  # drop the old file's tail; an appending stream's file already ends here
        except BaseException:
            fh.close()
            if regular:  # never a device or a FIFO
                os.truncate(path, st.st_size if std else 0)
                if not (std or os.path.islink(path)):
                    os.remove(path)
            raise


def cmd_analyze(path: str, dembo_variant: str = "paper", as_json: bool = False) -> int:
    rho = load_state(path)
    report = verdict(rho, dembo_variant)
    if as_json:
        print(json.dumps(vars(report), indent=2))
        return EXIT_OK
    print(f"state: d={report.d} ({rho.dim}x{rho.dim})")
    print(f"npt: {'yes' if report.is_npt else 'no'}")
    print(f"lambda_max: {report.lambda_max:.4g}")
    print(
        "dembo lower / upper(paper) / upper(quarter): "
        f"{report.dembo_lower:.4g} / {report.dembo_upper_paper:.4g} / {report.dembo_upper_quarter:.4g}"
    )
    print(f"singlet fraction lower bound: {report.singlet_fraction_lower:.4g}")
    if report.f_opt_locc is not None:
        print(f"filtered LOCC value (best diag filter): {report.f_opt_locc:.4g}")
    print(f"teleportation fidelity upper bound: {report.fidelity_upper:.4g}")
    print(f"verdict: {report.verdict} (dembo variant: {report.dembo_variant})")
    return EXIT_OK


def _reproduce_columns(target: str) -> tuple[list[str], list]:
    """A worked example's CSV header and columns: each quoted value beside the computed one."""
    header = ["quantity", "expected", "computed", "abs_diff", "reproduced"]

    def row(name: str, expected: float, computed: float, tol: float = 1e-3) -> list:
        diff = abs(expected - computed)
        return [name, expected, computed, diff, "yes" if diff <= tol else "NO"]

    if target == "ex_sigma1":
        sig = states.FAMILIES["sigma"].build(None, 2)
        f_078, f_1 = f_opt_locc_spa(sig, FilterOperator(np.array([0.78, 1.0]))).tolist()
        spa = criteria._spa_matrix(sig)  # derived from a validated state: not validated again
        rows = [
            row("trace_xopt_spa_a1_x18", 4.9, 18.0 * trace_product(x_opt(FilterOperator(1.0)), spa).real),
            row("f_opt_spa_a0.78", 0.4966, f_078, 1e-4),
            row("f_opt_spa_a1", 0.05, f_1, 1e-4),
            row("filter_threshold", 0.7781, sigma_spa_threshold(0.25, 0.4), 1e-4),
            row("concurrence", 2.0 * abs(0.25 + 0.1j), oracle.wootters_concurrence(sig), 1e-9),
        ]
    elif target == "ex_rho1":
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
    elif target == "ex_rho3":
        r = rho3(0.65)
        dec = criteria.DemboDecomposition.from_matrix(r.mat)
        quoted = criteria.DemboDecomposition.from_matrix(r.mat, eta_high=0.325)  # the paper's eta
        rows = [
            row("corner_c", 0.1750, dec.c, 1e-12),
            row("btb", 0.015 ** 2, float(np.vdot(dec.b, dec.b).real), 1e-12),
            row("eta8_exact", 0.325, dec.eta_high, 1e-12),
            row("dembo_upper_paper", 0.357, quoted.upper_paper, 1e-3),
            row("dembo_upper_quarter", 0.3265, quoted.upper_quarter, 1e-3),
            row("lambda_max", 0.3265, max_eigenvalue(r), 1e-3),
        ]
    elif target == "ex_rho_alpha":
        r = rho_alpha(5.0)
        dec = criteria.DemboDecomposition.from_matrix(r.mat, eta_high=5.0 / 21.0)
        # 0.3135 is the quoted value; neither variant reproduces it
        rows = [
            row("lambda_max", 2.0 / 7.0, max_eigenvalue(r), 1e-10),
            row("dembo_upper_paper_vs_quoted", 0.3135, dec.upper_paper),
            row("dembo_upper_quarter_vs_quoted", 0.3135, dec.upper_quarter),
            row("dembo_upper_paper", 0.3350, dec.upper_paper, 1e-4),
            row("dembo_upper_quarter", 0.3191, dec.upper_quarter, 1e-4),
        ]
    else:
        raise InvalidSpec(f"unknown reproduce target {target!r}")
    return header, list(zip(*rows))


def _sweep_blocks(spec: SweepSpec, dembo_variant: str):
    """Validate ``spec`` and ``dembo_variant``, then return the generator of
    the curve's blocks; callers open the output after this call, so a bad
    spec or variant leaves an existing file as it was.

    A block holds at most ``SWEEP_BLOCK_ENTRIES`` matrix entries. Its states
    are built as one stack, only the asked quantities are computed, and the
    block is written before the next is built. Every member's values are
    those it has alone, so the file does not depend on the block size.
    """
    spec.validate()
    criteria._check_variant(dembo_variant)
    family = states.FAMILIES[spec.family]
    d = family.d or (3 if spec.dim is None else spec.dim)
    size = max(1, SWEEP_BLOCK_ENTRIES // d**4)
    params = np.linspace(spec.lo, spec.hi, spec.steps)

    blocks = (params[i : i + size] for i in range(0, spec.steps, size))
    return ([p, *criteria._columns(family.build(p, d), spec.quantities, dembo_variant, p)] for p in blocks)


def cmd_reproduce(target: str, out_path: str) -> int:
    """Write a paper figure or worked example as CSV. A figure is the sweep
    ``FIGURES`` names for it, under the paper's header."""
    if isinstance(target, str) and target in FIGURES:  # any other target is named unknown below
        spec, header = FIGURES[target]
        _write_csv(out_path, header, _sweep_blocks(spec, "paper"))
    else:
        header, columns = _reproduce_columns(target)
        _write_csv(out_path, header, [columns])
    return EXIT_OK


def cmd_sweep(spec: SweepSpec, out_path: str, dembo_variant: str = "paper") -> int:
    """Write the curve of ``spec`` as CSV, one block at a time (see ``_sweep_blocks``)."""
    _write_csv(out_path, ["param", *spec.quantities], _sweep_blocks(spec, dembo_variant))
    return EXIT_OK


def cmd_audit(trials: int, seed: int) -> int:
    report = oracle.inequality_harness(trials, seed)
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


def _int_in(low: int, high: int):
    """argparse type: an integer in [low, high]; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}], got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid" message
    return parse


@functools.cache  # built once per process; parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="teleres", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a density-matrix file")
    p_an.add_argument("file")
    p_an.add_argument("--dembo", choices=criteria.DEMBO_VARIANTS, default="paper")
    p_an.add_argument("--json", action="store_true", help="full-precision machine output")
    p_an.set_defaults(run=lambda a: cmd_analyze(a.file, a.dembo, a.json))

    p_re = sub.add_parser("reproduce", help="emit a bundled reference curve or example as CSV")
    p_re.add_argument("target", choices=REPRODUCE_TARGETS)
    p_re.add_argument("-o", "--output", required=True)
    p_re.set_defaults(run=lambda a: cmd_reproduce(a.target, a.output))

    p_sw = sub.add_parser("sweep", help="sweep a state family and emit CSV")
    p_sw.add_argument("--family", required=True, choices=tuple(states.FAMILIES))
    p_sw.add_argument("--from", dest="lo", type=float, required=True)
    p_sw.add_argument("--to", dest="hi", type=float, required=True)
    p_sw.add_argument("--steps", type=int, required=True)
    p_sw.add_argument("--quantities", required=True, help="comma-separated list")
    p_sw.add_argument("-o", "--output", required=True)
    p_sw.add_argument("--dembo", choices=criteria.DEMBO_VARIANTS, default="paper")
    p_sw.add_argument("--dim", type=_int_in(2, MAX_DIM),
                      help=f"local dimension for noisy_singlet (default 3), at most {MAX_DIM}")
    p_sw.set_defaults(run=lambda a: cmd_sweep(
        SweepSpec(a.family, a.lo, a.hi, a.steps, tuple(q.strip() for q in a.quantities.split(",") if q.strip()), a.dim),
        a.output, a.dembo))

    p_au = sub.add_parser("audit", help="run the inequality harness")
    p_au.add_argument("--trials", type=_int_in(1, MAX_TRIALS), required=True)
    p_au.add_argument("--seed", type=_int_in(0, oracle.SEED_MAX), default=0)
    p_au.set_defaults(run=lambda a: cmd_audit(a.trials, a.seed))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:  # argparse exits only after printing -h; every usage error raises _UsageError
        return EXIT_OK

    try:
        return args.run(args)
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


def entry() -> None:  # console-script hook
    raise SystemExit(main())
