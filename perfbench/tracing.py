"""Spans for the traced run, recorded from the benchmark's side.

``Tracer.install`` rebinds module attributes of teleres (and the
``__init__`` of ``states.DensityMatrix``) to wrappers that record one span
per call: name, start, end and the id of the enclosing span. Every module
of the package that holds the original object gets the wrapper, so
``from .linalg import hermitian_eigen`` bindings are traced as well.
``uninstall`` puts the originals back. A target that no longer exists is
skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name); a span name of None means
# "linalg.hermitian_eigen.n<size>", taken from the argument
FUNCTION_TARGETS: tuple[tuple[str, str, str | None], ...] = (
    ("teleres.linalg", "hermitian_eigen", None),
    ("teleres.states", "load_state", "states.load_state"),
    ("teleres.states", "sigma_family", "states.catalog"),
    ("teleres.states", "rho1", "states.catalog"),
    ("teleres.states", "rho2", "states.catalog"),
    ("teleres.states", "rho3", "states.catalog"),
    ("teleres.states", "rho_alpha", "states.catalog"),
    ("teleres.states", "noisy_singlet", "states.catalog"),
    ("teleres.states", "qutrit_me_basis", "states.catalog"),
    ("teleres.criteria", "verdict", "criteria.verdict"),
    ("teleres.criteria", "partial_transpose", "criteria.partial_transpose"),
    ("teleres.criteria", "dembo_bounds", "criteria.dembo_bounds"),
    ("teleres.criteria", "optimize_filter", "criteria.optimize_filter"),
    ("teleres.criteria", "fef_2qubit", "criteria.fef_2qubit"),
    ("teleres.criteria", "singlet_fraction_basis", "criteria.singlet_fraction_basis"),
    ("teleres.criteria", "f_opt_locc_spa", "criteria.f_opt_locc_spa"),
    ("teleres.criteria", "spa_pt_2qubit", "criteria.spa_pt_2qubit"),
    ("teleres.oracle", "inequality_harness", "oracle.inequality_harness"),
    ("teleres.oracle", "random_density_matrix", "oracle.random_density_matrix"),
    ("teleres.oracle", "sampled_singlet_fraction", "oracle.sampled_singlet_fraction"),
    ("teleres.cli", "main", "cli.main"),
)

EIGEN_SIZES = (3, 4, 8, 9, 15, 16)
CHECK_NAMES = (
    "trace_sandwich",
    "weyl_extremes",
    "lambda_max_range",
    "fef_below_lambda_max_d2",
    "basis_bound_below_lambda_max_d3",
    "dembo_quarter_sandwich",
)

# per-layer metric name -> (span name, statistic, unit); the statistic is
# "calls", "busy_ms" (time covered by the outermost spans of that name) or
# "self_ms" (duration minus the time covered by child spans)
SPAN_METRICS: dict[str, tuple[str, str, str]] = {}
for _n in EIGEN_SIZES:
    for _stat, _unit in (("calls", "count"), ("busy_ms", "ms")):
        SPAN_METRICS[f"linalg.hermitian_eigen.n{_n}.{_stat}"] = (f"linalg.hermitian_eigen.n{_n}", _stat, _unit)
for _span, _stat, _unit in (
    ("states.DensityMatrix", "calls", "count"),
    ("states.DensityMatrix", "self_ms", "ms"),
    ("states.load_state", "self_ms", "ms"),
    ("states.catalog", "busy_ms", "ms"),
    ("criteria.verdict", "calls", "count"),
    ("criteria.verdict", "self_ms", "ms"),
    ("criteria.partial_transpose", "busy_ms", "ms"),
    ("criteria.dembo_bounds", "calls", "count"),
    ("criteria.dembo_bounds", "busy_ms", "ms"),
    ("criteria.optimize_filter", "busy_ms", "ms"),
    ("criteria.fef_2qubit", "busy_ms", "ms"),
    ("criteria.singlet_fraction_basis", "busy_ms", "ms"),
    ("criteria.f_opt_locc_spa", "busy_ms", "ms"),
    ("criteria.spa_pt_2qubit", "calls", "count"),
    ("oracle.inequality_harness", "self_ms", "ms"),
    *((f"oracle.check.{c}", "busy_ms", "ms") for c in CHECK_NAMES),
    ("oracle.random_density_matrix", "busy_ms", "ms"),
    ("oracle.sampled_singlet_fraction", "busy_ms", "ms"),
    ("cli.main", "self_ms", "ms"),
):
    SPAN_METRICS[f"{_span}.{_stat}"] = (_span, _stat, _unit)

# metrics computed from spans as a whole or from the outputs
OTHER_METRICS = {
    "linalg.hermitian_eigen.per_verdict": "calls/verdict",
    "cli.bytes_written": "bytes",
    "cli.csv_identical_files": "count",
    "trace_overhead_frac": "frac",
}


def _eigen_name(args, kwargs) -> str:
    mat = args[0] if args else kwargs["mat"]
    return f"linalg.hermitian_eigen.n{len(mat)}"


class Tracer:
    """Records spans as (id, parent id, name, start ns, end ns)."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[int] = [-1]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.absent_spans: set[str] = set()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((sid, parent, span, start, time.perf_counter_ns()))
                self._stack.pop()

        return traced

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "teleres" or mod_name.startswith("teleres.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for mod_name, attr, span in FUNCTION_TARGETS:
            mod = sys.modules.get(mod_name)
            original = getattr(mod, attr, None)
            if original is None:
                self.absent_spans.add(span or "linalg.hermitian_eigen")
                continue
            self._rebind_everywhere(original, self.wrap(original, span or _eigen_name))

        states = sys.modules.get("teleres.states")
        cls = getattr(states, "DensityMatrix", None)
        if cls is None:
            self.absent_spans.add("states.DensityMatrix")
        else:
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self.wrap(cls.__init__, "states.DensityMatrix")

        oracle = sys.modules.get("teleres.oracle")
        checks = getattr(oracle, "DEFAULT_CHECKS", None)
        if checks is None:
            self.absent_spans.update(f"oracle.check.{c}" for c in CHECK_NAMES)
        else:
            self._patches.append((oracle, "DEFAULT_CHECKS", checks))
            oracle.DEFAULT_CHECKS = tuple((n, self.wrap(fn, f"oracle.check.{n}")) for n, fn in checks)
            self.absent_spans.update(f"oracle.check.{c}" for c in set(CHECK_NAMES) - {n for n, _ in checks})

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[tuple[int, int, str, int, int]]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def span_stats(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans alone."""
    by_id = {s[0]: s for s in spans}
    child_ns: Counter = Counter()
    for sid, parent, name, start, end in spans:
        child_ns[parent] += end - start

    def ancestors(sid):
        parent = by_id[sid][1]
        while parent in by_id:
            yield by_id[parent][2]
            parent = by_id[parent][1]

    calls: Counter = Counter()
    busy_ns: Counter = Counter()
    self_ns: Counter = Counter()
    eigen_in_verdict = 0
    for sid, parent, name, start, end in spans:
        calls[name] += 1
        self_ns[name] += end - start - child_ns[sid]
        above = list(ancestors(sid))
        if name not in above:
            busy_ns[name] += end - start
        if name.startswith("linalg.hermitian_eigen.") and "criteria.verdict" in above:
            eigen_in_verdict += 1

    stats = defaultdict(float)
    for metric, (span, stat, _) in SPAN_METRICS.items():
        if stat == "calls":
            stats[metric] = float(calls[span])
        else:
            stats[metric] = (busy_ns if stat == "busy_ms" else self_ns)[span] / 1e6
    verdicts = calls["criteria.verdict"]
    stats["linalg.hermitian_eigen.per_verdict"] = eigen_in_verdict / verdicts if verdicts else 0.0
    return stats


def absent_metrics(absent_spans: set[str]) -> set[str]:
    """Metrics that cannot be measured because their target no longer exists."""

    def gone(span: str) -> bool:
        return any(span == a or span.startswith(a + ".") for a in absent_spans)

    out = {m for m, (span, _, _) in SPAN_METRICS.items() if gone(span)}
    if gone("linalg.hermitian_eigen") or gone("criteria.verdict"):
        out.add("linalg.hermitian_eigen.per_verdict")
    return out


def write_spans(path: Path, passes: list[list[tuple[int, int, str, int, int]]]) -> None:
    """One JSON line per span: pass index, id, parent id, name, start and end in ns."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, spans in enumerate(passes):
            for sid, parent, name, start, end in spans:
                fh.write(json.dumps({"pass": i, "id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
