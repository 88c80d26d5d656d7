#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and requires a
clean result line. Then shows that each correctness gate marks an operation
failed when its output is perturbed: a reported lambda_max, a golden CSV
cell, a sampled singlet fraction and a harness report. Exits non-zero on the
first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (sets the BLAS thread pins before numpy loads)
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def tiny_runs() -> None:
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
                 "--seconds", "0.01", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expected = set(run.metric_units(trace == "1"))
            assert set(result["metrics"]) == expected, sorted(expected ^ set(result["metrics"]))
            print(f"ok   {name} --trace {trace}: {result['attempted']} operations, none failed")


def failed_when(op: Op, perturb) -> bool:
    """True when the runner counts ``op`` as failed once its output is perturbed."""
    tally = run.Tally()
    ok, _, _ = run.execute(op, tally)
    assert ok and tally.failed == 0, f"{op.kind} failed before perturbation: {tally.reasons}"
    bad = Op(op.kind, op.d, op.units, run=lambda: perturb(op.run()), check=op.check)
    run.execute(bad, tally)
    return tally.failed == 1


def gate_checks(work: Path) -> None:
    analyze = workloads.Analyze(work, seed=0)
    for op in analyze.round(0):
        def bump_lambda(text):
            doc = json.loads(text)
            doc["lambda_max"] += 1e-7
            return json.dumps(doc)

        assert failed_when(op, bump_lambda), f"perturbed lambda_max passed the {op.kind} gate"
    print("ok   analyze: a lambda_max off by 1e-7 fails the gate at d = 2, 3, 4")

    catalog = workloads.Catalog(work, seed=0)
    ops = {op.kind: op for op in catalog.round(0)}
    op = ops["reproduce_ex_rho1"]

    def rewrite(path, old, new):
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        return path

    assert failed_when(op, lambda p: rewrite(p, "0.414213562373", "0.414213662373")), "numeric cell passed"
    assert failed_when(op, lambda p: rewrite(p, "yes", "NO")), "text cell passed"
    # a last-digit change of a value that is zero up to rounding is tolerated
    p = rewrite(op.run(), "-1.2490009027e-16", "-1.11022302463e-16")
    assert op.check(p) is None and op.output(p) != op.golden
    print("ok   catalog: a changed numeric or text cell fails the gate; rounding noise near 0 does not")

    audit = workloads.Audit(work, seed=0)
    harness, *sampled = audit.round(0)
    for op in sampled:
        assert failed_when(op, lambda v: v + 1.0), f"{op.kind}: inflated sample passed"

    class Violated:
        trials = workloads.HARNESS_TRIALS
        checks = ["one"]
        total_violations = 1

    assert failed_when(harness, lambda rep: Violated()), "harness violation passed"
    print("ok   audit: an inflated sampled fraction or a harness violation fails the gate")


def main() -> int:
    tiny_runs()
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        gate_checks(Path(tmp))
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
