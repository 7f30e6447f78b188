"""Schema-versioned ``BENCH_<n>.json`` performance snapshots.

A snapshot is the unit of the repo's bench trajectory: one
machine-readable record of how fast every engine ran at one commit,
comparable against its neighbours by :mod:`repro.perf.compare`.
``BENCH_0.json`` at the repo root is the committed baseline; the
harness (``python -m repro.perf run``), the pytest-benchmark suite
(``benchmarks/conftest.py``) and the experiments runner
(``--telemetry DIR``) all emit the same schema so every measurement
feeds one trajectory.

Schema (``qtaccel-bench/2``)::

    {
      "schema": "qtaccel-bench/2",
      "source": "harness" | "pytest-benchmark" | "experiment:<id>",
      "machine": {platform, python, numpy, cpu_count, ...},
      "config": {"repeats": .., "warmup": .., "quick": ..},
      "cases": {"<name>": {"seconds": {median, mad, ci, ...},
                            "samples_per_sec": ..,
                            "cycles_per_sample": ..,       # cycle-accurate
                            "modelled_msps_at_189mhz": ..}},  # cases only
      "overheads": {"<variant>": {"baseline", "ratio", "budget"}},
      "stage_attribution": {"sample_every", "sampled_cycles",
                             "seconds", "fractions"},
      "fleet_throughput": <sweep>,     # optional paired sweeps, one
      "rule_throughput": <sweep>,      # record schema for all four
      "sharded_throughput": <sweep>,   # (see repro.perf.fleet):
      "native_throughput": <sweep>,    # {candidate, baseline, axis,
                                       #  points: {key: {candidate,
                                       #  baseline, ratio, ratio_mad}}}
      "serve_throughput": {"engine", "lanes", "concurrency", # optional
                            "sessions_per_sec", "transitions_per_sec",
                            "act_latency_ms": {"p50", "p99", ...}},
      "degraded_throughput": {...same shape, "chaos": true,   # optional
                               "hangs", "restarts"}  # serve bench re-run
                               # through a hung-worker recovery
    }

``qtaccel-bench/1`` snapshots (``BENCH_0..3.json``) differ only in the
sweep records, which had one layout per sweep; :func:`load_snapshot`
upgrades them in memory, so old files stay readable and comparable.

Cases run on engines with no cycle notion (functional, the fleets)
**omit** ``cycles_per_sample``/``modelled_msps_at_189mhz``; snapshots
written before schema revision 1.1 carried explicit nulls instead, and
:mod:`repro.perf.compare` accepts both spellings.

Absolute ``seconds`` are only comparable between snapshots whose
machine fingerprints match; ``cycles_per_sample`` (deterministic) and
the overhead ``ratio``s (same-machine relative measures) compare
across any pair — the sentinel enforces exactly that split.
"""

from __future__ import annotations

import json
import os
import platform
import re
from pathlib import Path
from typing import Optional

#: Current snapshot schema identifier; bump on breaking layout changes.
SCHEMA = "qtaccel-bench/2"

#: The previous schema, which :func:`load_snapshot` still reads.
SCHEMA_V1 = "qtaccel-bench/1"

#: Optional per-benchmark records a snapshot may carry.
RECORD_KEYS = (
    "fleet_throughput",
    "rule_throughput",
    "sharded_throughput",
    "native_throughput",
    "serve_throughput",
    "degraded_throughput",
)

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def machine_fingerprint() -> dict:
    """Where this snapshot was measured (for comparability checks)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
    }


def fingerprints_match(a: Optional[dict], b: Optional[dict]) -> bool:
    """Are two snapshots' timings directly comparable?

    Anything that moves the interpreter's speed — machine, Python
    version/implementation, numpy — must agree; ``platform`` string
    noise (kernel patch level) is ignored on purpose.
    """
    if not a or not b:
        return False
    keys = ("machine", "python", "implementation", "numpy", "cpu_count")
    return all(a.get(k) == b.get(k) for k in keys)


def build_snapshot(
    results,
    *,
    source: str = "harness",
    config: Optional[dict] = None,
    overheads: Optional[dict] = None,
    stage_attribution: Optional[dict] = None,
    **records: Optional[dict],
) -> dict:
    """Assemble a schema-versioned snapshot from harness results.

    ``records`` are the optional per-benchmark records, keyed by
    :data:`RECORD_KEYS` (``None`` values are left out).
    """
    unknown = sorted(set(records) - set(RECORD_KEYS))
    if unknown:
        raise TypeError(f"unknown snapshot records: {', '.join(unknown)}")
    snap = {
        "schema": SCHEMA,
        "source": source,
        "machine": machine_fingerprint(),
        "config": config or {},
        "cases": {name: res.summary() for name, res in sorted(results.items())},
        "overheads": overheads or {},
        "stage_attribution": stage_attribution,
    }
    snap.update((key, rec) for key, rec in records.items() if rec is not None)
    return snap


def snapshot_from_profile(profile: dict, *, source: str = "experiment") -> dict:
    """Derive a snapshot from a telemetry profile's deterministic facts.

    An experiment run under ``--telemetry`` has no repeat timings, but
    its cycle counts are exact; the snapshot carries cycles/sample and
    the modelled MS/s per attached pipeline (plus the device-model join
    when the profile recorded one), with ``seconds`` null so the
    sentinel knows not to gate wall-clock on it.
    """
    from .bench import PAPER_CLOCK_MHZ

    cases: dict = {}
    for name, pipe in sorted(profile.get("pipes", {}).items()):
        stats = pipe.get("stats", {})
        retired = stats.get("retired", 0)
        cycles = stats.get("cycles", 0)
        cps = (cycles / retired) if retired else None
        entry = {
            "title": f"profiled pipeline {name}",
            "workload_samples": retired,
            "seconds": None,
            "samples_per_sec": None,
        }
        if cps:
            entry["cycles_per_sample"] = cps
            entry["modelled_msps_at_189mhz"] = PAPER_CLOCK_MHZ / cps
        cases[name] = entry
    snap = {
        "schema": SCHEMA,
        "source": source,
        "machine": machine_fingerprint(),
        "config": {},
        "cases": cases,
        "overheads": {},
        "stage_attribution": None,
    }
    device = profile.get("device")
    if device:
        snap["device"] = device
    return snap


def snapshot_from_pytest_benchmarks(benchmarks, *, source: str = "pytest-benchmark") -> dict:
    """Build a snapshot from pytest-benchmark's per-test records.

    Accepts the session's benchmark fixtures; tests that only ran for
    their side effects (``--benchmark-disable``) contribute their
    ``extra_info`` (cycles/sample, modelled MS/s) with null timings.
    """
    cases: dict = {}
    for bm in benchmarks:
        name = getattr(bm, "name", None) or getattr(bm, "fullname", "benchmark")
        entry: dict = {
            "title": getattr(bm, "fullname", name),
            "workload_samples": None,
            "seconds": None,
            "samples_per_sec": None,
        }
        # ``bm`` is pytest-benchmark's Metadata; ``bm.stats`` is its Stats
        # (older layouts nest one level deeper, hence the second hop).
        inner = getattr(bm, "stats", None)
        if inner is not None and not hasattr(inner, "data"):
            inner = getattr(inner, "stats", None)
        if inner is not None and getattr(inner, "data", None):
            entry["seconds"] = {
                "repeats": len(inner.data),
                "median": inner.median,
                "mad": None,
                "mean": inner.mean,
                "min": inner.min,
                "max": inner.max,
                "ci": None,
                "ci_confidence": None,
            }
        extra = dict(getattr(bm, "extra_info", {}) or {})
        if "cycles_per_sample" in extra:
            entry["cycles_per_sample"] = extra["cycles_per_sample"]
        if "modelled_msps_at_189MHz" in extra:
            entry["modelled_msps_at_189mhz"] = extra["modelled_msps_at_189MHz"]
        if extra:
            entry["extra_info"] = extra
        if entry["seconds"] is None and not extra:
            continue  # nothing measurable from this test
        cases[_case_key(name)] = entry
    return {
        "schema": SCHEMA,
        "source": source,
        "machine": machine_fingerprint(),
        "config": {},
        "cases": cases,
        "overheads": {},
        "stage_attribution": None,
    }


def _case_key(name: str) -> str:
    """pytest node name -> stable snapshot case key."""
    return re.sub(r"[^A-Za-z0-9_.\[\]=-]", "_", name)


# ---------------------------------------------------------------------- #
# I/O
# ---------------------------------------------------------------------- #


def write_snapshot(snapshot: dict, path) -> Path:
    """Serialise ``snapshot`` (validating its schema tag) to ``path``."""
    if snapshot.get("schema") != SCHEMA:
        raise ValueError(
            f"snapshot schema {snapshot.get('schema')!r} != {SCHEMA!r}"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_snapshot(path) -> dict:
    """Read and validate one snapshot, upgrading a ``qtaccel-bench/1``
    file's sweep records to the current schema."""
    with open(path) as fh:
        data = json.load(fh)
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema not in (SCHEMA, SCHEMA_V1):
        raise ValueError(f"{path}: not a {SCHEMA} snapshot (schema={schema!r})")
    if not isinstance(data.get("cases"), dict):
        raise ValueError(f"{path}: snapshot has no 'cases' mapping")
    if schema == SCHEMA_V1:
        from .fleet import SWEEPS, upgrade_record

        for key in SWEEPS:
            if key in data:
                data[key] = upgrade_record(key, data[key])
        data["schema"] = SCHEMA
    return data


def next_bench_path(directory) -> Path:
    """The next free ``BENCH_<n>.json`` in ``directory`` (n = max + 1)."""
    directory = Path(directory)
    highest = -1
    if directory.is_dir():
        for entry in directory.iterdir():
            m = _BENCH_RE.match(entry.name)
            if m:
                highest = max(highest, int(m.group(1)))
    return directory / f"BENCH_{highest + 1}.json"
