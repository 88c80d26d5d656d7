#!/usr/bin/env python3
"""The teleres benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; teleres is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of a separately traced run. Every
operation's output is checked, a table of every metric with its unit is
printed, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Inputs come from
``--seed``. Run results, span files and scratch inputs go under
``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported; inherited by the
# fresh interpreters that measure set-up time
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 7
CALIBRATION_MS = 2.7  # kernel time on the reference machine: 2 cores, Python 3.11.7, numpy 2.4.6
CALIBRATION_WINDOW = 6
MIN_SAMPLES = 100  # so that at least 10 samples lie beyond the 90th percentile
SUBPROCESS_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "d2_ms": "ms",
    "d3_ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("analyze", "catalog", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "absent" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "absent"


def machine_facts() -> dict:
    import teleres

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "kernel_backend": getattr(teleres, "KERNEL_BACKEND", "absent"),
    }


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, kind: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{kind}: {error}")
        return error is None


def execute(op, tally: Tally):
    """Run one operation, gate its output; returns (ok, elapsed ns, output)."""
    start = time.perf_counter_ns()
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        tally.record(op.kind, f"{type(exc).__name__}: {exc}")
        return False, 0, None
    elapsed = time.perf_counter_ns() - start
    try:
        error = op.check(out)
    except Exception as exc:  # malformed output fails the gate
        error = f"gate raised {type(exc).__name__}: {exc}"
    return tally.record(op.kind, error), elapsed, out


class Calibrator:
    """Machine speed, from a fixed kernel timed between operations.

    On a shared host the same operation runs up to 1.6x faster or slower
    for seconds at a time, as neighbours load the machine. Each timing is
    therefore scaled by CALIBRATION_MS over the kernel's time around it, the
    median of the CALIBRATION_WINDOW kernel runs nearest to it: the reported
    values are milliseconds at the speed the reference machine runs the
    kernel at. The raw timings are reported beside them.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.samples_ns: list[int] = []

    def _kernel(self) -> complex:
        # interpreter-bound complex arithmetic plus small numpy calls, the
        # same mix as the package's own hot loops
        acc, z = 0j, 0.3 + 0.1j
        for i in range(3000):
            acc = acc * 0.5 + z * (i & 7) - acc.conjugate() * 0.25
        x = self._mat
        for _ in range(300):
            x = np.tanh(x @ self._mat * 0.1)
        return acc + x[0, 0]

    def tick(self) -> None:
        start = time.perf_counter_ns()
        self._kernel()
        self.samples_ns.append(time.perf_counter_ns() - start)

    def scale(self, i: int) -> float:
        """Factor for the timing taken between ticks i and i + 1."""
        half = CALIBRATION_WINDOW // 2
        window = self.samples_ns[max(0, i + 1 - half): i + 1 + half]
        return CALIBRATION_MS * 1e6 / statistics.median(window)


def measure_setup(workload, tally: Tally, cal: Calibrator) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import teleres and teleres.cli and do one operation.

    Returns the calibrated and the raw wall times in seconds.
    """
    lines, check = workload.setup_op()
    code = "\n".join(["import teleres", "import teleres.cli", *lines])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    raw = []
    first = len(cal.samples_ns)
    cal.tick()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            proc = None
        elapsed = time.perf_counter() - start
        cal.tick()
        if proc is None:
            error = f"no exit within {SUBPROCESS_TIMEOUT_S} s"
        elif proc.returncode != 0:
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        else:
            try:
                error = check(proc.stdout)
            except Exception as exc:  # malformed output fails the gate
                error = f"gate raised {type(exc).__name__}: {exc}"
        raw.append(elapsed if tally.record("setup", error) else None)
    calibrated = [t * cal.scale(first + i) for i, t in enumerate(raw) if t is not None]
    return calibrated, [t for t in raw if t is not None]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else math.nan


def latency_metrics(samples: list[tuple[str, int, int, float]]) -> tuple[dict, dict]:
    """ops_per_s, p50, p90 and per-dimension latency from (kind, d, units, ms) samples."""
    lat = [ms for _, _, _, ms in samples]
    by_kind: dict[str, list[float]] = {}
    for kind, _, _, ms in samples:
        by_kind.setdefault(kind, []).append(ms)
    dim_of = {kind: d for kind, d, _, _ in samples}
    kind_p50 = {k: statistics.median(v) for k, v in by_kind.items()}
    unit_ms = sum(ms for _, _, units, ms in samples if units)
    metrics = {
        "ops_per_s": sum(units for _, _, units, _ in samples) / (unit_ms / 1e3),
        "p50_ms": statistics.median(lat),
        "p90_ms": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else math.nan,
        # geometric mean over the operation kinds at that dimension of each kind's median
        "d2_ms": geomean([p for k, p in kind_p50.items() if dim_of[k] == 2]),
        "d3_ms": geomean([p for k, p in kind_p50.items() if dim_of[k] == 3]),
    }
    return metrics, kind_p50


def timed_run(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced closed loop over whole rounds; returns (metrics, extras)."""
    cal = Calibrator()
    setup, setup_raw = measure_setup(workload, tally, cal)
    for op in workload.round(0):  # warm-up: imports, caches and lazy set-up
        execute(op, tally)

    timed: list[tuple[str, int, int, int, int]] = []  # (kind, d, units, ns, calibration tick)
    start = time.perf_counter()
    r = 0
    cal.tick()
    executed = 0
    while time.perf_counter() - start < seconds or executed < MIN_SAMPLES:
        for op in workload.round(r):
            ok, ns, _ = execute(op, tally)
            executed += 1
            if ok:
                timed.append((op.kind, op.d, op.units, ns, len(cal.samples_ns) - 1))
            cal.tick()
        r += 1
    wall = time.perf_counter() - start

    if not timed or not setup:
        return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}, {}
    calibrated = [(k, d, u, ns / 1e6 * cal.scale(i)) for k, d, u, ns, i in timed]
    raw, raw_kind_p50 = latency_metrics([(k, d, u, ns / 1e6) for k, d, u, ns, _ in timed])
    metrics, kind_p50 = latency_metrics(calibrated)
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw["setup_s"] = statistics.median(setup_raw)
    extras = {
        "samples": len(calibrated),
        "p90_samples_beyond": sum(ms > metrics["p90_ms"] for *_, ms in calibrated),
        "rounds": r,
        "wall_s": wall,
        "ops_per_s_counts": workload.unit,
        "calibration_median_ms": statistics.median(cal.samples_ns) / 1e6,
        "raw": raw,
        "kind_p50_ms": kind_p50,
        "raw_kind_p50_ms": raw_kind_p50,
        "kind_n": dict(Counter(k for k, _, _, _, _ in timed)),
    }
    return metrics, extras


def traced_run(workload, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, dict, list[str]]:
    """Alternate untraced and traced passes of the same fixed work.

    A pass is rounds 0 .. pass_rounds-1, so counts repeat exactly from pass
    to pass; times are medians over the traced passes.
    """
    cal = Calibrator()

    def one_pass():
        """Returns the pass's op timings as (ns, calibration tick), bytes written, identical CSVs."""
        timings, written, identical = [], 0, {}
        cal.tick()
        for r in range(workload.pass_rounds):
            for op in workload.round(r):
                _, ns, out = execute(op, tally)
                timings.append((ns, len(cal.samples_ns) - 1))
                cal.tick()
                data = op.output(out) if out is not None else b""
                written += len(data)
                if op.golden is not None:
                    identical[op.kind] = identical.get(op.kind, True) and data == op.golden
        return timings, written, sum(identical.values())

    def pass_ms(timings):
        return sum(ns * cal.scale(i) for ns, i in timings) / 1e6

    tracer = tracing.Tracer()
    one_pass()  # warm-up
    plain, traced, per_pass, passes = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(one_pass()[0])
        tracer.install()
        try:
            timings, written, identical = one_pass()
        finally:
            tracer.uninstall()
        spans = tracer.take()
        stats = tracing.span_stats(spans)
        stats["cli.bytes_written"] = float(written)
        stats["cli.csv_identical_files"] = float(identical)
        traced.append(timings)
        per_pass.append(stats)
        passes.append(spans)
    tracing.write_spans(spans_path, passes)

    plain_ms = [pass_ms(t) for t in plain]
    traced_ms = [pass_ms(t) for t in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace_overhead_frac"] = statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0
    absent = sorted(tracing.absent_metrics(tracer.absent_spans))
    for name in absent:
        metrics.pop(name, None)
    extras = {"passes": len(traced), "pass_rounds": workload.pass_rounds,
              "calibrated_plain_pass_ms": plain_ms, "calibrated_traced_pass_ms": traced_ms,
              "spans_file": str(spans_path.relative_to(ROOT)), "absent": absent}
    return metrics, extras, absent


def metric_units(trace_on: bool) -> dict[str, str]:
    if not trace_on:
        return END_TO_END_UNITS
    units = {name: unit for name, (_, _, unit) in tracing.SPAN_METRICS.items()}
    units.update(tracing.OTHER_METRICS)
    return units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "teleres" / "__init__.py").is_file():
        print(f"error: no teleres sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports teleres, so only once src/ is on the path

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"inputs-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        facts = machine_facts()
        tally = Tally()
        if args.trace:
            metrics, extras, absent = traced_run(workload, args.seconds, tally, OUT_DIR / f"spans-{tag}.jsonl")
        else:
            metrics, extras = timed_run(workload, args.seconds, tally)
            absent = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = metric_units(bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, one closed-loop client")
    print("facts " + json.dumps(facts))
    for name in units:
        if name in metrics:
            print(f"  {name:<52} {metrics[name]:>14.6g} {units[name]}")
    for name in absent:
        print(f"  {name:<52} {'absent':>14}")
    print(f"  {'error_rate':<52} {tally.failed / max(tally.attempted, 1):>14.6g} "
          f"({tally.failed} failed of {tally.attempted})")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    print("extras " + json.dumps(extras))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps({**result, "facts": facts, "extras": extras}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
