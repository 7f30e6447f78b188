"""Compute workloads: ``fleet_train`` (native fused kernel, layer L0) and
``pipeline_sim`` (the cycle-accurate ``core.pipeline``).

Run by ``run.py`` as a fresh process per set-up sample::

    python3 perfbench/compute.py --workload fleet_train --seed 1 \\
        --seconds 10 --mode probe|measure|trace

The process builds its engine, runs one chunk, and reports ``ready``
(set-up ends there).  ``probe`` exits at that point; ``measure`` then
drives chunked ``run()`` calls for ``--seconds`` and checks the result;
``trace`` first makes that untraced pass, then repeats it on a fresh
engine with a span around every ``run()`` call and reports per-layer
numbers plus the traced/untraced ratio.  Messages go to stdout as JSON
lines (see ``common.emit``).
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from common import COST_QUANTILE, Spans, emit, peak_rss_mb, percentile, run_context

FLEET_LANES = 4096
FLEET_SIDE, FLEET_ACTIONS = 16, 8  # 256 states x 8 actions per lane
FLEET_CHUNK = 64  # lock-step steps per run() call

PIPE_SIDE, PIPE_ACTIONS = 8, 4  # |S| = 64, the Fig. 6 size
PIPE_CHUNK = 100  # samples per run() call

#: Cycles a drained pipeline spends filling and emptying per run() call.
PIPE_FILL_CYCLES = 3


def build(workload: str, seed: int):
    """Construct the engine under test from the seed (no timing here)."""
    from repro.core.config import QTAccelConfig
    from repro.core.engine import make_engine
    from repro.envs.gridworld import GridWorld

    if workload == "fleet_train":
        mdp = GridWorld.empty(FLEET_SIDE, FLEET_ACTIONS).to_mdp()
        config = QTAccelConfig.qlearning(seed=seed)
        engine = make_engine(
            config, engine="native", mdps=mdp, num_agents=FLEET_LANES
        )
        return engine, FLEET_CHUNK, (config, mdp)
    mdp = GridWorld.empty(PIPE_SIDE, PIPE_ACTIONS).to_mdp()
    config = QTAccelConfig.sarsa(seed=seed)
    engine = make_engine(config, engine="pipeline", mdp=mdp)
    return engine, PIPE_CHUNK, (config, mdp)


def drive(engine, chunk: int, seconds: float, spans: Spans | None, name: str):
    """Chunked ``run()`` calls for ``seconds``; returns per-call ns."""
    durations = []
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    run = engine.run
    while True:
        if spans is None:
            start = time.perf_counter_ns()
            run(chunk)
            end = time.perf_counter_ns()
        else:
            spans.call(name, run, chunk)
            _, _, start, end, _, _ = spans.rows[-1]
        durations.append(end - start)
        if end >= deadline:
            return durations


# --------------------------------------------------------------------- #
# Correctness checks (each returns {check name: passed})
# --------------------------------------------------------------------- #


def _lane_equal(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    return all(
        a[k] == b[k] if isinstance(a[k], dict) else np.array_equal(a[k], b[k])
        for k in a
    )


def check_fleet(engine, steps: int, inputs) -> dict:
    """Lanes {0, K/2, K-1} against a vectorized fleet with the same salts."""
    from repro.core.engine import make_engine

    config, mdp = inputs
    lanes = [0, engine.K // 2, engine.K - 1]
    ref = make_engine(
        config, engine="vectorized", mdps=mdp, num_agents=len(lanes), salts=lanes
    )
    ref.run(steps)
    got = [engine.lane_state(k) for k in lanes]
    want = [ref.lane_state(i) for i in range(len(lanes))]
    ok = all(_lane_equal(g, w) for g, w in zip(got, want))
    # Negative self-test: the same comparison must fire on a table with
    # one corrupted word.
    bad = {**got[1], "q": got[1]["q"].copy()}
    bad["q"][0] += 1
    fires = not _lane_equal(bad, want[1])
    return {"lanes_match_vectorized": ok, "selftest_fires": fires}


def check_pipeline(engine, samples: int, calls: int, inputs) -> dict:
    """Tables against ``FunctionalSimulator(behavior_lag=True)`` plus the
    paper's timing invariant: every drained run() of n samples takes
    n + 3 cycles with zero stalls."""
    from repro.core.functional import FunctionalSimulator

    config, mdp = inputs
    ref = FunctionalSimulator(mdp, config, behavior_lag=True)
    ref.run(samples)
    got = {k: np.asarray(v["data"]) for k, v in engine.tables.state_dict().items()}
    want = {k: np.asarray(v["data"]) for k, v in ref.tables.state_dict().items()}
    stats = engine.stats

    def tables_ok(g):
        return set(g) == set(want) and all(np.array_equal(g[k], want[k]) for k in g)

    def timing_ok(cycles, stalls):
        return cycles == samples + PIPE_FILL_CYCLES * calls and stalls == 0

    bad = dict(got, q=got["q"].copy())
    bad["q"][0] += 1
    return {
        "tables_match_functional": tables_ok(got),
        "cycles_eq_samples_plus_3_per_run": timing_ok(
            stats.cycles, stats.stall_cycles
        ) and stats.retired == samples,
        "selftest_fires": not tables_ok(bad)
        and not timing_ok(stats.cycles + 1, stats.stall_cycles),
    }


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #


def call_metrics(durations, items_per_call: int) -> tuple[dict, dict]:
    """End-to-end numbers shared by both compute workloads; each ~2-12 ms
    ``run()`` call is one window of ``cost_us_per_item``."""
    ms = [d / 1e6 for d in durations]
    e2e = {
        "cost_us_per_item": percentile(durations, COST_QUANTILE) / items_per_call / 1e3
    }
    named = {
        "items_per_s": (len(durations) * items_per_call * 1e9 / sum(durations), "1/s"),
        "run_call_p50_ms": (percentile(ms, 0.5), "ms", len(ms)),
        "run_call_p99_ms": (percentile(ms, 0.99), "ms", len(ms)),
    }
    return e2e, named


def fleet_metrics(engine, chunk: int, durations, spans) -> tuple[dict, dict, dict]:
    e2e, named = call_metrics(durations, chunk * engine.K)
    named = {"fleet_updates_per_s": named.pop("items_per_s"), **named}
    layers = {}
    if spans is not None:
        # Bytes are computed from array dtypes, not measured: the words
        # one Q-learning update reads and writes, per table.
        arrays = {
            "q": engine.q, "qmax": engine.qmax, "qmax_action": engine.qmax_action,
        }
        item = {k: v.dtype.itemsize for k, v in arrays.items()}
        per_update = (
            2 * item["q"]  # read Q(s,a), write Q(s,a)
            + 2 * item["qmax"] + 2 * item["qmax_action"]  # read s', write s
            + engine._next_flat.dtype.itemsize  # env next state, reward,
            + engine._rewards_flat.dtype.itemsize  # terminal flag of s'
            + engine._terminal_i64.dtype.itemsize
        )
        layers = {
            "native.run_calls": len(durations),
            "native.run_ms_p50": named["run_call_p50_ms"][0],
            "native.ns_per_update": sum(durations) / (len(durations) * chunk * engine.K),
            "native.table_bytes": sum(v.nbytes for v in arrays.values()),
            "native.bytes_per_update": per_update,
        }
    return e2e, named, layers


def pipeline_metrics(engine, chunk: int, durations, spans) -> tuple[dict, dict, dict]:
    stats = engine.stats
    e2e, named = call_metrics(durations, chunk)
    named = {
        "sim_samples_per_s": named.pop("items_per_s"),
        "sim_cycles_per_sample": (stats.cycles / stats.retired, "cycles"),
        **named,
    }
    layers = {}
    if spans is not None:
        measured_cycles = len(durations) * (chunk + PIPE_FILL_CYCLES)
        layers = {
            "pipeline.host_ns_per_cycle": sum(durations) / measured_cycles,
            "pipeline.cycles": stats.cycles,
            "pipeline.stall_cycles": stats.stall_cycles,
            "pipeline.hazard_stall_cycles": stats.hazard_stall_cycles,
            "pipeline.s2_hold_cycles": stats.s2_hold_cycles,
            "pipeline.explores": stats.explores,
        }
    return e2e, named, layers


def one_pass(args, traced: bool, report_ready: bool):
    """Build, warm one chunk (set-up), then measure for ``--seconds``."""
    engine, chunk, inputs = build(args.workload, args.seed)
    engine.run(chunk)
    if report_ready:
        emit({"event": "ready", "t": time.monotonic()})
    if args.mode == "probe":
        return None
    spans = Spans() if traced else None
    span_name = "native.run" if args.workload == "fleet_train" else "pipeline.run"
    durations = drive(engine, chunk, args.seconds, spans, span_name)
    return engine, chunk, inputs, durations, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fleet_train", "pipeline_sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"))
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    first = one_pass(args, traced=False, report_ready=True)
    if first is None:
        return 0
    fleet = args.workload == "fleet_train"
    metrics = fleet_metrics if fleet else pipeline_metrics
    engine, chunk, inputs, durations, spans = first
    e2e, named, layers = metrics(engine, chunk, durations, spans)
    if args.mode == "trace":
        untraced_ns = sum(durations) / len(durations)
        first = engine = None  # release the untraced engine's tables
        engine, chunk, inputs, durations, spans = one_pass(
            args, traced=True, report_ready=False
        )
        e2e, named, layers = metrics(engine, chunk, durations, spans)
        layers["trace.overhead_ratio"] = (sum(durations) / len(durations)) / untraced_ns
        if args.spans_out:
            from common import write_spans

            write_spans(args.spans_out, spans.rows)

    calls = len(durations) + 1  # + the set-up chunk
    if fleet:
        checks = check_fleet(engine, engine.stats.samples_per_agent, inputs)
        context = {"kernel_tier": engine.kernel_tier}
    else:
        checks = check_pipeline(engine, engine.stats.retired, calls, inputs)
        context = {"kernel_tier": "n/a (pure-Python simulator)"}
    emit(
        {
            "event": "result",
            "e2e": e2e,
            "named": named,
            "layers": layers,
            "checks": checks,
            "attempted": calls,
            "failed": 0,
            "peak_rss_mb": peak_rss_mb(),
            "context": {**context, **run_context()},
        }
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
