"""Shared pieces of the benchmark: spans, percentiles, inputs, messages.

Every benchmark process (the orchestrator ``run.py``, the compute
workers, the gateway launcher and the serving client) imports this
module.  It never imports ``repro`` at module level, so the
orchestrator can detect a checkout without ``src/`` and fail cleanly.

Spans are plain tuples ``(id, name, start_ns, end_ns, parent_id, key)``
held in memory by a :class:`Spans` recorder and written out when a run
ends.  They hold only atomic values (``key`` is a tuple of str/int), so
the garbage collector untracks them and a long run's spans add nothing
to the collection pauses of the process they are recorded in.  ``key``
correlates spans across processes: the client tags its request span
``(session, op, k)`` for the ``k``-th such op of a session, and the
gateway-side proxy tags the matching ``SessionManager`` call the same
way (one connection answers its requests strictly in order).
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import threading
import time

#: Gateway shape shared by both serving workloads.
SERVE_LANES = 64
SERVE_SIDE = 16  # GridWorld.empty(16, 8): 256 states
SERVE_ACTIONS = 8
SERVE_CHECKPOINT_EVERY = 128

#: How many times one run measures its set-up (median reported).
SETUP_REPEATS = 5

#: Quantile of short-window costs that ``cost_us_per_item`` reports.  On a
#: shared 2-vCPU VM the CPU speed swings by ~1.7x between contended and
#: uncontended phases within seconds, and the share of uncontended time
#: varies from run to run, so means, medians and low quantiles moved
#: 15-40% between runs there.  The contended level is the common one and
#: steady: its 90th percentile over short windows repeated within 2-11%
#: (interquartile range over median) in ten-run sets.
COST_QUANTILE = 0.9


def emit(obj: dict, stream=None) -> None:
    """Write one JSON message line and flush (the inter-process channel)."""
    stream = stream if stream is not None else sys.stdout
    stream.write(json.dumps(obj, separators=(",", ":")) + "\n")
    stream.flush()


def read_message(stream) -> dict:
    """Read the next JSON message line; EOF is an error."""
    while True:
        line = stream.readline()
        if not line:
            raise RuntimeError("peer process ended without a reply")
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)


def pin_cpu(role: str) -> None:
    """Keep the gateway and its client on different CPUs when there are
    at least two, so neither run-to-run placement nor migrations decide
    whether they share one."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) >= 2:
        os.sched_setaffinity(0, {allowed[-1] if role == "server" else allowed[0]})


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def windowed_cost_us(samples, start: float, end: float) -> float:
    """A server's CPU time per item, in µs: the ``COST_QUANTILE`` of short
    windows.

    ``samples`` are ``(monotonic_s, process_cpu_ns, items_done)`` taken
    by the server process every few milliseconds.  Each interval between
    consecutive samples inside ``[start, end]`` that completed work is
    one window.
    """
    inside = [s for s in samples if start <= s[0] <= end]
    costs = [
        (c1 - c0) / 1e3 / (n1 - n0)
        for (_, c0, n0), (_, c1, n1) in zip(inside, inside[1:])
        if n1 > n0
    ]
    return percentile(costs, COST_QUANTILE)


class Spans:
    """In-memory span recorder, safe to share between threads."""

    def __init__(self):
        self.rows: list[tuple] = []
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, key=None):
        """Run ``fn(*args)`` inside a span parented under the open one."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.rows.append((sid, name, start, end, parent, key))

    def add(self, name: str, start_ns: int, end_ns: int, key=None) -> None:
        """Record a span timed by the caller (no children)."""
        with self._lock:
            sid = next(self._ids)
        self.rows.append((sid, name, start_ns, end_ns, None, key))


def self_times_us(rows) -> dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    child = {}
    for _sid, _name, start, end, parent, _key in rows:
        if parent is not None:
            child[parent] = child.get(parent, 0) + (end - start)
    return {r[0]: (r[3] - r[2] - child.get(r[0], 0)) / 1e3 for r in rows}


def write_spans(path: str, rows) -> None:
    """Write spans as one JSON document (list of row lists)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(
            {"columns": ["id", "name", "start_ns", "end_ns", "parent", "key"],
             "rows": [list(r) for r in rows]},
            fh,
            separators=(",", ":"),
        )


def run_context() -> dict:
    """What makes two results comparable: host and toolchain."""
    import numpy
    import platform

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def walk_tables(side: int, actions: int):
    """Dense next-state/reward/terminal tables of ``GridWorld.empty``."""
    from repro.envs.gridworld import GridWorld

    mdp = GridWorld.empty(side, actions).to_mdp()
    return (
        mdp.next_state.tolist(),
        mdp.rewards.tolist(),
        mdp.terminal.tolist(),
        [int(s) for s in mdp.start_states],
    )


def random_walks(rng, sessions: int, length: int, side: int, actions: int):
    """Per-session seeded random walks on ``GridWorld.empty(side, actions)``.

    Returns one list of ``(s, a, r, ns, t)`` transitions per session; a
    walk that reaches the goal restarts at a uniformly drawn start state.
    """
    nxt, rew, term, starts = walk_tables(side, actions)
    acts = rng.integers(actions, size=(sessions, length)).tolist()
    restarts = rng.integers(len(starts), size=(sessions, length)).tolist()
    first = rng.integers(len(starts), size=sessions).tolist()
    walks = []
    for i in range(sessions):
        s = starts[first[i]]
        out = []
        row_a, row_r = acts[i], restarts[i]
        for j in range(length):
            a = row_a[j]
            ns = nxt[s][a]
            t = term[ns]
            out.append((s, a, rew[s][a], ns, t))
            s = starts[row_r[j]] if t else ns
        walks.append(out)
    return walks


def replay_table(config, salt: int, ops) -> list[int]:
    """Q table of a one-lane sequential replay of a session's ops.

    ``ops`` is the exact sequence the session sent: ``("learn", s, a, r,
    ns, t)`` and ``("act", s)`` (exploring acts consume one policy draw).
    The reference is the sequential ``FunctionalSimulator`` seeded with
    the session's salt, not the backend under test.
    """
    from repro.core.functional import FunctionalSimulator
    from repro.core.policies import PolicyDraws
    from repro.serve.session import serve_world

    world = serve_world(SERVE_SIDE * SERVE_SIDE, SERVE_ACTIONS)
    sim = FunctionalSimulator(
        world, config, draws=PolicyDraws.from_config(config, salt=salt)
    )
    apply, query = sim.apply_transition, sim.query_action
    for op in ops:
        if op[0] == "learn":
            apply(op[1], op[2], op[3], op[4], op[5])
        else:
            query(op[1], True)
    return [int(v) for v in sim.tables.state_dict()["q"]["data"]]
