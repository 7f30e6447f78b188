"""The repository's benchmark: one command, four workloads, one ledger.

    python3 perfbench/run.py --workload fleet_train --seed 1 --seconds 10 --trace 0

Workloads (each in fresh processes; inputs come from ``--seed``):

* ``fleet_train``  — 4096-lane native fused-kernel fleet (layer L0);
* ``serve_stream`` — open-loop pipelined NDJSON traffic into a gateway
  over the native backend (layers L1-L3), then a rate ladder;
* ``serve_batch``  — closed-loop ``learn_batch`` traffic (L1-L3);
* ``pipeline_sim`` — the cycle-accurate ``core.pipeline``.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
(set-up is measured ``SETUP_REPEATS`` times, each in fresh processes,
and its median reported).  ``--trace 1`` runs the same inputs untraced
and then traced, and reports the per-layer metrics from spans recorded
around the calls into each layer's public functions, plus the
traced/untraced ratio.  Spans are written to ``.bench_build/traces/``.

Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The command exits 1
when any correctness check fails and 2 when the checkout has no ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

sys.path.insert(0, str(HERE))
from common import (  # noqa: E402
    SETUP_REPEATS,
    emit,
    percentile,
    read_message,
    run_context,
    self_times_us,
    windowed_cost_us,
    write_spans,
)

WORKLOADS = ("fleet_train", "serve_stream", "serve_batch", "pipeline_sim")

#: Per-child wall-clock limit (seconds beyond the measured time).
CHILD_GRACE_S = 120
#: Whole-run limits: the first run in a checkout compiles the cc kernel.
BUILD_LIMIT_S = 850
RUN_LIMIT_S = 170

#: What the gated ``cost_us_per_item`` measures on each workload.
COST_MEANING = {
    "fleet_train": "90th-percentile run() call time per Q-update",
    "pipeline_sim": "90th-percentile run() call time per simulated sample",
    "serve_batch": "90th-percentile gateway CPU time per transition "
                   "over 5 ms windows",
    "serve_stream": "90th-percentile gateway CPU time per request "
                    "over 5 ms windows at the fixed rate",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The cc kernel tier caches its compiled .so under the temp dir; keep
    # it (and anything else temporary) inside the checkout.
    env["TMPDIR"] = str(BUILD / "tmp")
    env.pop("QTACCEL_NATIVE_KERNEL", None)
    return env


class Children:
    """Every process this run starts; all are reaped on exit."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def start(self, script: str, *args) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *map(str, args)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=str(ROOT),
        )
        self.procs.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen, timeout: float) -> None:
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
        code = proc.wait(timeout=timeout)
        proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"{proc.args[1]} exited with code {code}")

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if stream and not stream.closed:
                    stream.close()


def warm_build(children: Children) -> None:
    """Compile the cc kernel into the on-disk cache (untimed: users
    compile once per host)."""
    proc = children.start(
        "compute.py", "--workload", "fleet_train", "--seed", 0,
        "--seconds", 0, "--mode", "probe",
    )
    read_message(proc.stdout)
    children.finish(proc, timeout=900)


# --------------------------------------------------------------------- #
# Compute workloads
# --------------------------------------------------------------------- #


def run_compute(children: Children, args) -> dict:
    setups = []
    modes = ["probe"] * (SETUP_REPEATS - 1) + ["measure"] if not args.trace else ["trace"]
    result = None
    spans_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    for mode in modes:
        t0 = time.monotonic()
        proc = children.start(
            "compute.py", "--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--mode", mode, "--spans-out", spans_out,
        )
        setups.append(read_message(proc.stdout)["t"] - t0)
        if mode != "probe":
            result = read_message(proc.stdout)
        children.finish(proc, timeout=args.seconds * 2 + CHILD_GRACE_S)
    result["setups"] = setups
    return result


# --------------------------------------------------------------------- #
# Serving workloads
# --------------------------------------------------------------------- #


def serve_layers(client_rows, server_rows, launcher: dict) -> dict:
    """Per-layer serving metrics from client spans plus launcher spans."""
    self_us = self_times_us(server_rows)
    by_name: dict[str, list] = {}
    for row in server_rows:
        by_name.setdefault(row[1], []).append(row)

    def dur_us(rows):
        return [(r[3] - r[2]) / 1e3 for r in rows]

    def p(values, q):
        return percentile(values, q) if values else 0.0

    layers = {}
    for short, name in (("apply", "lane.apply"), ("query", "lane.query"),
                        ("snapshot", "lane.snapshot")):
        rows = by_name.get(name, [])
        layers[f"lane.{short}_calls"] = len(rows)
        layers[f"lane.{short}_us_p50"] = p(dur_us(rows), 0.5)
    layers["lane.apply_us_p99"] = p(dur_us(by_name.get("lane.apply", [])), 0.99)

    session_rows = [r for r in server_rows if r[1].startswith("session.")]
    layers["session.calls"] = len(session_rows)
    for op in ("learn", "act"):
        layers[f"session.{op}_self_us_p50"] = p(
            [self_us[r[0]] for r in by_name.get(f"session.{op}", [])], 0.5
        )
    batch_rows = by_name.get("session.learn_batch", [])
    batch_ids = {r[0] for r in batch_rows}
    batch_transitions = sum(
        1 for r in by_name.get("lane.apply", []) if r[4] in batch_ids
    )
    layers["session.learn_batch_self_us_per_transition"] = (
        sum(self_us[r[0]] for r in batch_rows) / batch_transitions
        if batch_transitions else 0.0
    )
    layers["session.deadline_aborts"] = launcher["deadline_aborts"]

    # Layer L3: client round trips, matched to the session span of the
    # same request by (session, op, k).
    session_by_key = {tuple(r[5]): r for r in session_rows}
    layers["gateway.requests"] = len(client_rows)
    gateway_self = []
    for op in ("learn", "act", "learn_batch"):
        rows = [r for r in client_rows if r[1] == f"gateway.{op}"]
        rtt = dur_us(rows)
        layers[f"gateway.rtt_us_p50.{op}"] = p(rtt, 0.5)
        layers[f"gateway.rtt_us_p99.{op}"] = p(rtt, 0.99)
        for r, us in zip(rows, rtt):
            inner = session_by_key.get(tuple(r[5]))
            if inner is not None:
                gateway_self.append(us - (inner[3] - inner[2]) / 1e3)
    layers["gateway.self_us_p50"] = p(gateway_self, 0.5)
    return layers


def run_serve(children: Children, args) -> dict:
    client = children.start(
        "loadgen.py", "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds,
    )
    read_message(client.stdout)  # inputs generated
    if args.trace:
        rounds = [(0, {"traced": False, "ladder": False, "check": False}),
                  (1, {"traced": True, "ladder": False, "check": True})]
    else:
        rounds = [(0, None)] * (SETUP_REPEATS - 1) + [
            (0, {"traced": False, "ladder": True, "check": True})
        ]
    setups, measured = [], []
    launcher = None
    for traced, cmd in rounds:
        t0 = time.monotonic()
        gateway = children.start("launcher.py", "--seed", args.seed, "--trace", traced)
        port = read_message(gateway.stdout)["port"]
        emit({"cmd": "setup", "port": port}, client.stdin)
        setups.append(read_message(client.stdout)["t"] - t0)
        if cmd is not None:
            emit({"cmd": "measure", **cmd}, client.stdin)
            measured.append(read_message(client.stdout))
        emit({"cmd": "reset"}, client.stdin)
        read_message(client.stdout)
        gateway.stdin.close()
        launcher = read_message(gateway.stdout)
        children.finish(gateway, timeout=CHILD_GRACE_S)
        if cmd is not None:
            measured[-1]["cost_us"] = windowed_cost_us(
                launcher["cost_samples"], *measured[-1]["window"]
            )
    children.finish(client, timeout=CHILD_GRACE_S)

    result = measured[-1]
    result["e2e"] = {"cost_us_per_item": result["cost_us"]}
    result["setups"] = setups
    result["peak_rss_mb"] = launcher["peak_rss_mb"]
    result["context"] = {"kernel_tier": launcher["kernel_tier"]}
    if args.trace:
        layers = serve_layers(result["spans"], launcher["spans"], launcher)
        layers.update(result.get("loadgen", {}))
        # Gateway CPU per item, traced over untraced: unlike wall-clock
        # latency it does not move with queueing or host preemption.
        layers["gateway.cpu_us_per_item"] = measured[0]["cost_us"]
        layers["trace.overhead_ratio"] = result["cost_us"] / measured[0]["cost_us"]
        layers["gateway.errors"] = result["failed"]
        result["layers"] = layers
        write_spans(
            str(BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"),
            result["spans"] + launcher["spans"],
        )
    return result


# --------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------- #


def report(args, spec: dict, result: dict) -> dict:
    context = {**run_context(), **result.get("context", {})}
    checks = result.get("checks", {})
    correct = bool(checks) and all(checks.values()) and result["failed"] == 0
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in context.items())
    )
    print(f"check  {'PASS' if correct else 'FAIL'}  " + " ".join(
        f"{k}={v}" for k, v in checks.items()))
    print(f"failed_frac  {failed / attempted:.6g}  ({failed} failed / {attempted} attempted)")
    metrics: dict = {}
    if args.trace:
        layers = result.get("layers", {})
        for m in spec["per_layer"]:
            value = layers.get(m["name"], 0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            note = "" if m["name"] in layers else "  (layer not reached)"
            print(f"{m['name']:<45} {value:.6g} {m['unit']}{note}")
        if "native.bytes_per_update" in layers:
            print("# native.table_bytes and native.bytes_per_update are computed "
                  "from array nbytes and dtypes, not measured")
    else:
        e2e = dict(result["e2e"])
        e2e["setup_s"] = statistics.median(result["setups"])
        e2e["peak_rss_mb"] = result["peak_rss_mb"]
        print(f"setup_s  {e2e['setup_s']:.6g} s  (median of {len(result['setups'])}: "
              + ", ".join(f"{s:.4f}" for s in result["setups"]) + ")")
        print(f"peak_rss_mb  {e2e['peak_rss_mb']:.6g} MB")
        for name, entry in result["named"].items():
            value, unit = entry[0], entry[1]
            extra = f"  (n={entry[2]})" if len(entry) > 2 else ""
            print(f"{name}  {value:.6g} {unit}{extra}")
        for rung in result.get("ladder", []):
            print("ladder rate={} learn_p99_ms={:.4g} act_p99_ms={:.4g} "
                  "backlog_end={} sustained={}".format(*rung))
        print(f"cost_us_per_item  {e2e['cost_us_per_item']:.6g} us  "
              f"({COST_MEANING[args.workload]})")
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(
        json.dumps({**out, "context": context, "checks": checks}, indent=1)
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)

    def expire(_signum, _frame):
        raise TimeoutError("benchmark run exceeded its time limit")

    started = time.monotonic()
    signal.signal(signal.SIGALRM, expire)
    signal.alarm(BUILD_LIMIT_S)
    children = Children()
    try:
        warm_build(children)
        signal.alarm(max(1, int(RUN_LIMIT_S - (time.monotonic() - started))))
        if args.workload in ("fleet_train", "pipeline_sim"):
            result = run_compute(children, args)
        else:
            result = run_serve(children, args)
    finally:
        signal.alarm(0)
        children.close()
    out = report(args, spec, result)
    print(json.dumps(out, separators=(",", ":")))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
