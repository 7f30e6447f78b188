"""The regression sentinel: diff two bench snapshots, gate CI.

For every case present in both snapshots the sentinel compares median
wall-clock with a noise-aware threshold::

    regression  iff  new_median - base_median > max(rel_tol * base_median,
                                                    k * max(base_mad, new_mad))

``rel_tol`` absorbs run-to-run jitter the MAD underestimates on tiny
repeat counts; ``k * MAD`` widens the gate when a snapshot admits (via
its own spread) that its central estimate is soft.  Improvements are
reported, never fatal.

Wall-clock gating only applies when the two machine fingerprints match
— a laptop baseline must not fail a CI runner for being a slower
computer.  Three families gate regardless of machine:

* ``cycles_per_sample`` — deterministic; any increase beyond a strict
  tolerance is an architectural regression, not noise;
* overhead ``ratio``s — relative measures taken on one machine, checked
  against their recorded ``budget`` (the telemetry budget pins the
  documented <5% claim);
* the paired sweeps' ``ratio`` (candidate speedup over its baseline).

The serve records and the four sweep records go through one table,
:data:`RECORD_GATES`: per snapshot key it lists the shape keys that
must match and the gated metrics, each with a direction, a band and a
portable-or-same-machine flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .fleet import SWEEPS, gate_keys
from .snapshot import fingerprints_match

#: Default relative slowdown tolerated before a wall-clock regression.
DEFAULT_REL_TOL = 0.10

#: Default MAD multiplier in the threshold.
DEFAULT_K = 4.0

#: Deterministic cycle counts get a much tighter relative gate.
CYCLES_REL_TOL = 0.01

#: Serve-path throughput band: loopback sockets + thread scheduling are
#: far noisier than numpy loops, so the gate is wider than rel_tol.  The
#: same band holds the sweeps' paired ratios and absolute rates, which
#: still move with cache pressure and core count.
RECORD_REL_TOL = 0.25

#: Serve p99 action latency may double before the sentinel calls it a
#: regression (tail latency on a busy CI host is the noisiest number
#: the observatory records).
SERVE_P99_REL_TOL = 1.00

_NOT_GATED = "different machine fingerprint; wall-clock not gated"


@dataclass(frozen=True)
class Metric:
    """One gated number of a snapshot record.

    ``path`` walks from the record (serve) or from a sweep point into
    the value.  ``portable`` metrics are same-process ratios that gate
    across machine fingerprints; the rest are wall-clock and gate only
    on a matching fingerprint (or ``--absolute``).  A regression is a
    move in the wrong direction by more than ``band``: below
    ``base * (1 - band)`` when higher is better, above
    ``base * (1 + band)`` when lower is better.
    """

    name: str
    path: tuple[str, ...]
    higher_is_better: bool
    band: float
    portable: bool


_SERVE_SHAPE = (
    "engine", "lanes", "concurrency", "sessions", "transitions_per_session", "chaos",
)
_SERVE_METRICS = (
    Metric("sessions_per_sec", ("sessions_per_sec",), True, RECORD_REL_TOL, False),
    Metric("transitions_per_sec", ("transitions_per_sec",), True, RECORD_REL_TOL, False),
    Metric("act_p99", ("act_latency_ms", "p99"), False, SERVE_P99_REL_TOL, False),
)
_SWEEP_SHAPE = ("candidate", "baseline", "axis", "lanes", "kernel", "quick")
_SWEEP_METRICS = (
    Metric("speedup", ("ratio",), True, RECORD_REL_TOL, True),
    Metric("updates_per_sec", ("candidate", "updates_per_sec"), True, RECORD_REL_TOL, False),
)

#: Snapshot key -> (finding label, shape keys, metrics, is a sweep).
#: Records whose shape keys differ are different experiments and are
#: skipped; a sweep's metrics are read at the gated points of its
#: common keys (:func:`repro.perf.fleet.gate_keys`).
RECORD_GATES = {
    "serve_throughput": ("serve", _SERVE_SHAPE, _SERVE_METRICS, False),
    "degraded_throughput": ("degraded", _SERVE_SHAPE, _SERVE_METRICS, False),
    **{
        key: (key.split("_")[0], _SWEEP_SHAPE, _SWEEP_METRICS, True)
        for key in SWEEPS
    },
}


@dataclass
class Finding:
    """One sentinel verdict line."""

    kind: str  # "time" | "cycles" | "ratio" | "budget" | "info"
    case: str
    verdict: str  # "ok" | "regression" | "improvement" | "skipped"
    detail: str

    @property
    def failed(self) -> bool:
        return self.verdict == "regression"


@dataclass
class CompareResult:
    """Everything the CLI renders; ``ok`` drives the exit code."""

    base_source: str
    new_source: str
    same_machine: bool
    findings: list[Finding] = field(default_factory=list)

    @property
    def regressions(self) -> list[Finding]:
        return [f for f in self.findings if f.failed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _median_mad(case: dict) -> tuple[Optional[float], float]:
    sec = case.get("seconds")
    if not isinstance(sec, dict) or sec.get("median") is None:
        return None, 0.0
    return float(sec["median"]), float(sec.get("mad") or 0.0)


def compare_snapshots(
    base: dict,
    new: dict,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    k: float = DEFAULT_K,
    force_absolute: bool = False,
) -> CompareResult:
    """Run the sentinel over two loaded snapshots."""
    if rel_tol < 0 or k < 0:
        raise ValueError("rel_tol and k must be non-negative")
    same_machine = fingerprints_match(base.get("machine"), new.get("machine"))
    gate_time = same_machine or force_absolute
    result = CompareResult(
        base_source=base.get("source", "?"),
        new_source=new.get("source", "?"),
        same_machine=same_machine,
    )
    findings = result.findings

    base_cases = base.get("cases", {})
    new_cases = new.get("cases", {})
    shared = sorted(set(base_cases) & set(new_cases))
    for name in sorted(set(base_cases) - set(new_cases)):
        findings.append(Finding("info", name, "skipped", "case missing from new snapshot"))
    for name in sorted(set(new_cases) - set(base_cases)):
        findings.append(Finding("info", name, "skipped", "case new in this snapshot"))

    for name in shared:
        b, n = base_cases[name], new_cases[name]

        # Wall-clock medians (machine-bound).
        b_med, b_mad = _median_mad(b)
        n_med, n_mad = _median_mad(n)
        if b_med is not None and n_med is not None and not gate_time:
            findings.append(
                Finding("time", name, "skipped", f"{_NOT_GATED} (use --absolute to force)")
            )
        elif b_med is not None and n_med is not None:
            delta = n_med - b_med
            threshold = max(rel_tol * b_med, k * max(b_mad, n_mad))
            pct = 100.0 * delta / b_med if b_med else 0.0
            detail = (
                f"median {b_med:.6g}s -> {n_med:.6g}s "
                f"({pct:+.1f}%, threshold ±{100.0 * threshold / b_med:.1f}%)"
            )
            verdict = _verdict(delta > threshold, -delta > threshold)
            findings.append(Finding("time", name, verdict, detail))

        # Cycle counts (deterministic, machine-independent).
        b_cps, n_cps = b.get("cycles_per_sample"), n.get("cycles_per_sample")
        if b_cps is not None and n_cps is not None:
            verdict = _verdict(
                n_cps > b_cps * (1.0 + CYCLES_REL_TOL),
                n_cps < b_cps * (1.0 - CYCLES_REL_TOL),
            )
            detail = f"cycles/sample {b_cps:.6g} -> {n_cps:.6g}"
            findings.append(Finding("cycles", name, verdict, detail))

    for key in RECORD_GATES:
        _compare_record(key, base.get(key), new.get(key), gate_time, findings)

    # Overhead budgets (relative; machine-independent).
    new_over = new.get("overheads", {})
    base_over = base.get("overheads", {})
    for name in sorted(set(new_over) | set(base_over)):
        entry = new_over.get(name)
        if entry is None:
            findings.append(
                Finding("budget", name, "skipped", "overhead not measured in new snapshot")
            )
            continue
        ratio = entry.get("ratio")
        budget = entry.get("budget")
        if budget is None and name in base_over:
            budget = base_over[name].get("budget")
        if ratio is None:
            findings.append(Finding("budget", name, "skipped", "no ratio recorded"))
            continue
        b_ratio = (base_over.get(name) or {}).get("ratio")
        trend = f" (baseline {b_ratio:.4g})" if b_ratio is not None else ""
        if budget is None:
            verdict, detail = "ok", f"ratio {ratio:.4g}{trend}; informational"
        elif ratio > budget:
            verdict, detail = "regression", f"ratio {ratio:.4g} exceeds budget {budget:.4g}{trend}"
        else:
            verdict, detail = "ok", f"ratio {ratio:.4g} within budget {budget:.4g}{trend}"
        findings.append(Finding("budget", name, verdict, detail))

    return result


def _compare_record(
    key: str,
    base: Optional[dict],
    new: Optional[dict],
    gate_time: bool,
    findings: list,
) -> None:
    """Sentinel findings for one snapshot record, driven by
    :data:`RECORD_GATES`."""
    label, shape, metrics, sweep = RECORD_GATES[key]
    if base is None and new is None:
        return
    if base is None or new is None:
        where = "new in" if base is None else "missing from"
        findings.append(
            Finding("info", label, "skipped", f"{label} record {where} this snapshot")
        )
        return
    differ = ", ".join(k for k in shape if base.get(k) != new.get(k))
    if differ:
        detail = f"{label} record shapes differ ({differ}); not comparable"
        findings.append(Finding("time", label, "skipped", detail))
        return
    if sweep:
        new_points = new.get("points") or {}
        common = [k for k in base.get("points") or {} if k in new_points]
        keys = gate_keys(base.get("axis"), common)
        if not keys:
            findings.append(
                Finding("time", label, "skipped", f"no common {base.get('axis')} points")
            )
            return
        pairs = [
            (f"@{base.get('axis')}={k}", base["points"][k], new["points"][k])
            for k in keys
        ]
    else:
        pairs = [("", base, new)]
    for metric in metrics:
        for where, b_rec, n_rec in pairs:
            _gate_metric(label, metric, where, b_rec, n_rec, gate_time, findings)


def _dig(record: Optional[dict], path: tuple[str, ...]):
    for step in path:
        if not isinstance(record, dict):
            return None
        record = record.get(step)
    return record


def _gate_metric(label, metric, where, b_rec, n_rec, gate_time, findings) -> None:
    b, n = _dig(b_rec, metric.path), _dig(n_rec, metric.path)
    if not isinstance(b, (int, float)) or not isinstance(n, (int, float)) or b <= 0:
        return
    case = f"{label}.{metric.name}{where}"
    kind = "ratio" if metric.portable else "time"
    if not (metric.portable or gate_time):
        findings.append(Finding(kind, case, "skipped", _NOT_GATED))
        return
    limit = "floor -" if metric.higher_is_better else "ceiling +"
    detail = (
        f"{b:.4g} -> {n:.4g} "
        f"({100.0 * (n - b) / b:+.1f}%, {limit}{100 * metric.band:.0f}%)"
    )
    if metric.higher_is_better:
        verdict = _verdict(n < b * (1.0 - metric.band), n > b * (1.0 + metric.band))
    else:
        verdict = _verdict(n > b * (1.0 + metric.band), n * (1.0 + metric.band) < b)
    findings.append(Finding(kind, case, verdict, detail))


def _verdict(worse: bool, better: bool) -> str:
    return "regression" if worse else "improvement" if better else "ok"


def render_comparison(result: CompareResult) -> str:
    """Human-readable sentinel report."""
    out = ["== perf sentinel =="]
    out.append(f"base: {result.base_source}   new: {result.new_source}")
    out.append(
        "machine fingerprints match — wall-clock gated"
        if result.same_machine
        else "machine fingerprints differ — wall-clock informational only"
    )
    width = max((len(f.case) for f in result.findings), default=4)
    mark = {"ok": " ok ", "regression": "FAIL", "improvement": "GAIN", "skipped": "skip"}
    for f in result.findings:
        out.append(f"[{mark[f.verdict]}] {f.kind:7s} {f.case.ljust(width)}  {f.detail}")
    n_fail = len(result.regressions)
    out.append(
        "sentinel: PASS (no regressions)"
        if result.ok
        else f"sentinel: FAIL ({n_fail} regression{'s' if n_fail != 1 else ''})"
    )
    return "\n".join(out)
