"""The three benchmark workloads: their inputs, operations and correctness gates.

Every workload drives teleres through its public API only (``teleres.cli``,
``teleres.oracle``, ``teleres.states``) and calls through the module
attribute each time, so the traced run can rebind it. Why each workload is
in the benchmark:

analyze
    The one-state path users run: ``teleres analyze FILE --json``, in
    process, over full-rank random states GG^dag/Tr at d = 2, 3, 4 plus the
    catalog states (rho1, sigma_1, points of rho2, rho3, rho_alpha and
    noisy_singlet). The eigensolve at n = 4, 9, 16, the partial transpose,
    the double Dembo split and the d = 2 filter search do most of the work.
    Full-rank states give a mix of verdicts, so every branch of ``verdict``
    runs.
catalog
    Every ``reproduce`` target and a 200-step ``sweep`` of every family,
    written as CSV: states built in bulk from structured, sparse families,
    mostly d = 3 verdicts, CSV formatting and writes. This is where batched
    state stacks would act. The d = 2 filter search runs only in the
    noisy_singlet --dim 2 sweep (200 verdicts at d = 2); the sigma sweep
    calls ``verdict`` once.
audit
    The oracle layer: ``inequality_harness`` plus ``sampled_singlet_fraction``
    at a fixed budget on generated d = 2 and d = 3 states. LAPACK spectra,
    random-state generation (validated through ``states``) and Haar QR
    sampling; no ``verdict`` and no CLI run, so the filter search and the
    Dembo split inside ``verdict`` are bypassed here.

Each workload is a sequence of rounds. A round holds a fixed number of
operations of each latency class (one each, except in catalog), so every
class keeps its share of the samples and the median and 90th percentile of
a run fall inside one class, not on the gap between two.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from teleres import cli, oracle, states

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# tolerances of the gates; the package's own tolerances are not reused
EIG_TOL = 1e-9
BOUND_SLACK = 1e-9
AMBIGUOUS_PT = 1e-8
CSV_RTOL = 1e-9
CSV_ATOL = 1e-12


class OpFailed(RuntimeError):
    """An operation returned a non-zero exit code."""


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``kind`` is its latency class and ``d`` the local dimension of its
    states (0 when mixed). ``units`` is the work it counts towards
    ``ops_per_s``. ``check`` returns None when the output is correct, else
    the reason; ``output`` returns the bytes the operation wrote.
    """

    kind: str
    d: int
    units: int
    run: Callable[[], object]
    check: Callable[[object], str | None]
    output: Callable[[object], bytes] = lambda out: b""
    golden: bytes | None = None


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank state GG^dag / Tr with complex Gaussian G."""
    n = d * d
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def partial_transpose(m: np.ndarray, d: int) -> np.ndarray:
    return m.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


_MAGIC = np.array(
    [[1, 0, 0, 1], [1j, 0, 0, -1j], [0, 1j, 1j, 0], [0, 1, -1, 0]], dtype=np.complex128
).T / math.sqrt(2.0)


def fef_2qubit(m: np.ndarray) -> float:
    """Exact two-qubit fully entangled fraction: top eigenvalue of Re(M^dag rho M)."""
    return float(np.linalg.eigvalsh((_MAGIC.conj().T @ m @ _MAGIC).real)[-1])


def write_state(path: Path, m: np.ndarray, d: int) -> None:
    doc = {"d": d, "entries": [[float(z.real), float(z.imag)] for z in m.ravel()]}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def run_cli(argv: list[str]) -> str:
    """``cli.main`` in process; returns what it printed to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"teleres {' '.join(argv)} exited {code}")
    return buf.getvalue()


# --- analyze ------------------------------------------------------------------


def check_analyze(text: str, d: int, lam_ref: float, pt_min_ref: float) -> str | None:
    """Gate one ``analyze --json`` document against numpy references."""
    doc = json.loads(text)
    lam = doc["lambda_max"]
    if abs(lam - lam_ref) > EIG_TOL:
        return f"lambda_max {lam!r} differs from eigvalsh {lam_ref!r}"
    if doc["d"] != d:
        return f"d {doc['d']!r} != {d}"
    decided = abs(pt_min_ref) > AMBIGUOUS_PT
    npt = pt_min_ref < 0.0
    if decided and doc["is_npt"] != npt:
        return f"is_npt {doc['is_npt']!r} but partial-transpose minimum is {pt_min_ref!r}"
    fid = (d * lam + 1.0) / (d + 1.0)
    if abs(doc["fidelity_upper"] - fid) > BOUND_SLACK:
        return f"fidelity_upper {doc['fidelity_upper']!r} != (d lam + 1)/(d + 1) = {fid!r}"
    lower, up_q, up_p = doc["dembo_lower"], doc["dembo_upper_quarter"], doc["dembo_upper_paper"]
    if not (lower <= lam + BOUND_SLACK and lam <= up_q + BOUND_SLACK and up_q <= up_p + BOUND_SLACK):
        return f"Dembo order broken: {lower!r} <= {lam!r} <= {up_q!r} <= {up_p!r}"
    frac = doc["singlet_fraction_lower"]
    if frac > lam + BOUND_SLACK:
        return f"singlet_fraction_lower {frac!r} exceeds lambda_max {lam!r}"
    if decided:
        threshold = 1.0 / d
        if npt and lam > threshold:
            want = "UsefulByLambdaMax"
        elif npt and up_p > threshold:
            want = "UsefulByDembo"
        elif frac > threshold:
            want = "UsefulBySingletFraction"
        elif lam <= threshold and not npt:
            want = "SeparableByTheorem2"
        else:
            want = "Inconclusive"
        if doc["verdict"] != want:
            return f"verdict {doc['verdict']!r}, rules give {want!r}"
    return None


class Analyze:
    name = "analyze"
    unit = "states"
    # 33 states per local dimension, at most 4 of them catalog states: the
    # sparse catalog states are cheap, and as a minority of an odd-sized
    # class they leave every median inside the band of the random states
    per_class = 33
    pass_rounds = per_class  # one traced pass classifies every state once

    def __init__(self, work: Path, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.classes: dict[int, list[tuple[Path, float, float]]] = {}
        for d, mats in self._states(rng).items():
            entries = []
            for i, m in enumerate(mats):
                path = work / f"state_d{d}_{i:02d}.json"
                write_state(path, m, d)
                lam = float(np.linalg.eigvalsh(m)[-1])
                pt_min = float(np.linalg.eigvalsh(partial_transpose(m, d))[0])
                entries.append((path, lam, pt_min))
            self.classes[d] = entries
        self.ops = {d: [self._op(d, entry) for entry in entries] for d, entries in self.classes.items()}

    def _states(self, rng: np.random.Generator) -> dict[int, list[np.ndarray]]:
        def noisy(d):
            return states.noisy_singlet(float(rng.uniform(0.0, 1.0)), d)

        catalog = {
            2: [states.rho1(), states.sigma_family(0.2, 0.4, 0.4, 0.25 + 0.1j), noisy(2)],
            3: [
                states.rho2(float(rng.uniform(0.35, 0.369))),
                states.rho3(float(rng.uniform(0.5, 0.65))),
                states.rho_alpha(float(rng.uniform(4.01, 5.0))),
                noisy(3),
            ],
            4: [noisy(4)],
        }
        out = {}
        for d, rhos in catalog.items():
            mats = [np.array(rho.mat) for rho in rhos]
            mats += [random_state(rng, d) for _ in range(self.per_class - len(mats))]
            out[d] = [mats[i] for i in rng.permutation(len(mats))]
        return out

    def _op(self, d: int, entry: tuple[Path, float, float]) -> Op:
        path, lam, pt_min = entry
        argv = ["analyze", str(path), "--json"]
        return Op(
            kind=f"d{d}",
            d=d,
            units=1,
            run=lambda: run_cli(argv),
            check=lambda text: check_analyze(text, d, lam, pt_min),
            output=lambda text: text.encode(),
        )

    def round(self, r: int) -> list[Op]:
        return [ops[r % len(ops)] for ops in self.ops.values()]

    def setup_op(self) -> tuple[list[str], Callable[[str], str | None]]:
        """Python statements run in a fresh interpreter, and the gate on their stdout."""
        d = 3
        path, lam, pt_min = self.classes[d][0]
        code = f"raise SystemExit(teleres.cli.main(['analyze', {str(path)!r}, '--json']))"
        return [code], lambda text: check_analyze(text, d, lam, pt_min)


# --- catalog ------------------------------------------------------------------

REPORT_QUANTITIES = (
    "lambda_max,is_npt,dembo_lower,dembo_upper_paper,dembo_upper_quarter,"
    "singlet_fraction_lower,fidelity_upper,verdict"
)

# (golden file stem, local dimension, CLI arguments before "-o")
CATALOG_TARGETS: tuple[tuple[str, int, list[str]], ...] = (
    ("reproduce_fig1", 2, ["reproduce", "fig1"]),
    ("reproduce_fig2", 3, ["reproduce", "fig2"]),
    ("reproduce_fig3", 3, ["reproduce", "fig3"]),
    ("reproduce_ex_sigma1", 2, ["reproduce", "ex_sigma1"]),
    ("reproduce_ex_rho1", 2, ["reproduce", "ex_rho1"]),
    ("reproduce_ex_rho3", 3, ["reproduce", "ex_rho3"]),
    ("reproduce_ex_rho_alpha", 3, ["reproduce", "ex_rho_alpha"]),
    ("sweep_sigma", 2, ["sweep", "--family", "sigma", "--from", "0", "--to", "1", "--steps", "200",
                        "--quantities", REPORT_QUANTITIES + ",f_opt_spa,f_opt_pt"]),
    ("sweep_rho2", 3, ["sweep", "--family", "rho2", "--from", "0.35", "--to", "0.369", "--steps", "200",
                       "--quantities", REPORT_QUANTITIES]),
    ("sweep_rho3", 3, ["sweep", "--family", "rho3", "--from", "0.5", "--to", "0.65", "--steps", "200",
                       "--quantities", REPORT_QUANTITIES]),
    ("sweep_rho_alpha", 3, ["sweep", "--family", "rho_alpha", "--from", "4.01", "--to", "5", "--steps", "200",
                            "--quantities", REPORT_QUANTITIES]),
    ("sweep_noisy_singlet_d2", 2, ["sweep", "--family", "noisy_singlet", "--dim", "2", "--from", "0", "--to", "1",
                                   "--steps", "200", "--quantities", REPORT_QUANTITIES]),
    ("sweep_noisy_singlet_d3", 3, ["sweep", "--family", "noisy_singlet", "--dim", "3", "--from", "0", "--to", "1",
                                   "--steps", "200", "--quantities", REPORT_QUANTITIES]),
)


def compare_csv(text: str, golden: str) -> str | None:
    """Text cells must match exactly, numeric cells within CSV_RTOL / CSV_ATOL.

    Bytes are not compared: a different eigensolver may change the last
    printed digit of a value that is zero up to rounding.
    """
    got, want = text.splitlines(), golden.splitlines()
    if len(got) != len(want):
        return f"{len(got)} lines, golden has {len(want)}"
    for line, (g_row, w_row) in enumerate(zip(got, want), 1):
        g_cells, w_cells = g_row.split(","), w_row.split(",")
        if len(g_cells) != len(w_cells):
            return f"line {line}: {len(g_cells)} cells, golden has {len(w_cells)}"
        for g, w in zip(g_cells, w_cells):
            if g == w:
                continue
            try:
                close = math.isclose(float(g), float(w), rel_tol=CSV_RTOL, abs_tol=CSV_ATOL)
            except ValueError:
                close = False
            if not close:
                return f"line {line}: {g!r}, golden {w!r}"
    return None


class Catalog:
    name = "catalog"
    unit = "CSV rows"
    pass_rounds = 1  # one round writes every CSV
    # A round writes each sweep once and each reproduce target three times.
    # The reproduce targets are the cheap operations: tripled, 21 of the 27
    # operations of a round, they put the median inside one class (fig3)
    # with three times the samples, which keeps it steady from run to run.
    reproduce_repeats = 3

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.golden = {stem: (GOLDEN_DIR / f"{stem}.csv").read_bytes() for stem, _, _ in CATALOG_TARGETS}
        ops = []
        for stem, d, args in CATALOG_TARGETS:
            ops += [self._op(stem, d, args)] * (self.reproduce_repeats if args[0] == "reproduce" else 1)
        self.ops = [ops[i] for i in np.random.default_rng([seed, 2]).permutation(len(ops))]

    def _op(self, stem: str, d: int, args: list[str]) -> Op:
        path = self.work / f"{stem}.csv"
        argv = [*args, "-o", str(path)]
        golden = self.golden[stem]
        rows = golden.count(b"\n") - 1

        def run():
            run_cli(argv)
            return path

        return Op(
            kind=stem,
            d=d,
            units=rows,
            run=run,
            check=lambda p: compare_csv(p.read_text(encoding="utf-8"), golden.decode()),
            output=lambda p: p.read_bytes(),
            golden=golden,
        )

    def round(self, r: int) -> list[Op]:
        return self.ops

    def setup_op(self) -> tuple[list[str], Callable[[str], str | None]]:
        # the 200-step rho3 sweep: the size batched state stacks are aimed at
        stem, args = "sweep_rho3", next(a for s, _, a in CATALOG_TARGETS if s == "sweep_rho3")
        path = self.work / f"setup_{stem}.csv"
        code = f"raise SystemExit(teleres.cli.main({[*args, '-o', str(path)]!r}))"
        golden = self.golden[stem].decode()
        return [code], lambda _: compare_csv(path.read_text(encoding="utf-8"), golden)


# --- audit --------------------------------------------------------------------

HARNESS_TRIALS = 2  # per operation; each trial runs all registered checks
HAAR_PAIRS = 4096  # local-unitary pairs per sampled_singlet_fraction call


def check_harness(report, trials: int) -> str | None:
    if report.total_violations != 0:
        return f"{report.total_violations} inequality violations"
    if report.trials != trials or not report.checks:
        return f"harness ran {report.trials} trials over {len(report.checks)} checks"
    return None


def check_sampled(value: float, d: int, lam: float, fef: float, overlap: float) -> str | None:
    if value > lam + BOUND_SLACK:
        return f"sampled fraction {value!r} exceeds lambda_max {lam!r}"
    if d == 2 and value > fef + BOUND_SLACK:
        return f"sampled fraction {value!r} exceeds the exact FEF {fef!r}"
    if value < overlap - BOUND_SLACK:
        return f"sampled fraction {value!r} below the identity-pair overlap {overlap!r}"
    return None


class Audit:
    name = "audit"
    unit = "harness trials"
    per_class = 8
    pass_rounds = 10  # one traced pass: 20 harness trials and 20 sampled calls

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        self.classes: dict[int, list[tuple[object, float, float, float]]] = {}
        for d in (2, 3):
            entries = []
            for _ in range(self.per_class):
                m = random_state(rng, d)
                phi = np.eye(d).ravel() / math.sqrt(d)
                overlap = float(np.vdot(phi, m @ phi).real)
                fef = fef_2qubit(m) if d == 2 else math.nan
                entries.append((states.DensityMatrix(m, d), float(np.linalg.eigvalsh(m)[-1]), fef, overlap))
            self.classes[d] = entries

    def _harness_seed(self, r: int) -> int:
        return self.seed * 1_000_003 + r

    def round(self, r: int) -> list[Op]:
        seed = self._harness_seed(r)
        ops = [
            Op(
                kind="harness",
                d=0,
                units=HARNESS_TRIALS,
                run=lambda: oracle.inequality_harness(HARNESS_TRIALS, seed),
                check=lambda rep: check_harness(rep, HARNESS_TRIALS),
            )
        ]
        for d, entries in self.classes.items():
            rho, lam, fef, overlap = entries[r % len(entries)]
            budget = oracle.SamplingBudget(HAAR_PAIRS, seed=r)
            ops.append(
                Op(
                    kind=f"sampled_d{d}",
                    d=d,
                    units=0,
                    run=lambda rho=rho, budget=budget: oracle.sampled_singlet_fraction(rho, budget),
                    check=lambda v, d=d, lam=lam, fef=fef, ov=overlap: check_sampled(v, d, lam, fef, ov),
                )
            )
        return ops

    def setup_op(self) -> tuple[list[str], Callable[[str], str | None]]:
        seed = self._harness_seed(0)
        code = [
            "import teleres.oracle",
            f"report = teleres.oracle.inequality_harness({HARNESS_TRIALS}, {seed})",
            "raise SystemExit(3 if report.total_violations else 0)",
        ]
        return code, lambda _: None


WORKLOADS = {w.name: w for w in (Analyze, Catalog, Audit)}
