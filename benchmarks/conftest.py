"""Shared fixtures and reporting helpers for the benchmark harness.

Every module regenerates one paper artifact (see DESIGN.md's experiment
index): the benchmark measures the real computation behind it, and the
artifact's rows are attached to the benchmark's ``extra_info`` and
printed once at the end of the session, so
``pytest benchmarks/ --benchmark-only`` reproduces the paper's tables
and figures as a side effect of timing them.

Timed sessions also feed the repo's bench trajectory: at session end
every benchmark's stats + ``extra_info`` are folded into a
``BENCH_<n>.json`` snapshot (the same schema as
``python -m repro.perf run``) under ``$QTACCEL_BENCH_DIR`` (default
``benchmarks/_artifacts``), comparable with the perf sentinel.
"""

from __future__ import annotations

import os

import pytest

_printed: set[str] = set()


def pytest_sessionfinish(session, exitstatus):
    """Emit the timed benchmarks as one perf snapshot.

    Quiet no-op when nothing was timed (``--benchmark-disable`` runs
    keep their artifacts elsewhere — see test_bench_throughput's
    telemetry test).
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    from repro.perf.snapshot import (
        next_bench_path,
        snapshot_from_pytest_benchmarks,
        write_snapshot,
    )

    snapshot = snapshot_from_pytest_benchmarks(bench_session.benchmarks)
    if not snapshot["cases"]:
        return
    out_dir = os.environ.get("QTACCEL_BENCH_DIR", "benchmarks/_artifacts")
    path = write_snapshot(snapshot, next_bench_path(out_dir))
    print(f"\n[bench snapshot: {path}]")


def emit_once(exp_id: str, text: str) -> None:
    """Print a regenerated artifact exactly once per session."""
    if exp_id not in _printed:
        _printed.add(exp_id)
        print()
        print(text)


@pytest.fixture(scope="session")
def grid16_mdp():
    from repro.envs.gridworld import GridWorld

    return GridWorld.empty(16, 8).to_mdp()


@pytest.fixture(scope="session")
def grid64_mdp():
    from repro.envs.gridworld import GridWorld

    return GridWorld.empty(64, 8).to_mdp()
