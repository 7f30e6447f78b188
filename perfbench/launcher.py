"""Gateway launcher: one serving stack in its own process.

Builds the stack through the public API — ``build_serve_backend(engine=
"native")``, ``SessionManager``, ``Gateway(port=0)`` — so no client work
runs in the server's interpreter.  Prints ``{"event": "listening",
"port": p}`` once bound and serves until its stdin closes; it then shuts
the gateway down and prints one final message with its peak RSS, the
resolved kernel tier, its CPU-cost samples and, when traced, its spans.

With ``--trace 1`` the manager and the backend are wrapped in proxies
that time the calls the gateway makes into ``SessionManager.learn`` /
``learn_batch`` / ``act`` (layer L2) and the calls the manager makes
into the backend lane ops ``apply_transition`` / ``query_action`` /
``lane_state`` (layer L1).  Nothing inside ``src/`` is instrumented.

    python3 perfbench/launcher.py --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
import time

from common import (
    SERVE_ACTIONS,
    SERVE_CHECKPOINT_EVERY,
    SERVE_LANES,
    SERVE_SIDE,
    Spans,
    emit,
    peak_rss_mb,
    pin_cpu,
)

#: Interval of the CPU-cost sampler (see ``common.windowed_cost_us``).
SAMPLE_S = 0.005


async def sample_costs(manager, samples: list) -> None:
    """Record (time, process CPU, items served) every ``SAMPLE_S``."""
    while True:
        samples.append(
            (time.monotonic(), time.process_time_ns(),
             manager.transitions_total + manager.queries_total)
        )
        await asyncio.sleep(SAMPLE_S)


class TracedBackend:
    """Backend proxy: a span around every lane op, the rest forwarded."""

    def __init__(self, backend, spans: Spans):
        self._inner = backend
        self._spans = spans

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def apply_transition(self, *args):
        return self._spans.call("lane.apply", self._inner.apply_transition, *args)

    def query_action(self, *args):
        return self._spans.call("lane.query", self._inner.query_action, *args)

    def lane_state(self, *args):
        return self._spans.call("lane.snapshot", self._inner.lane_state, *args)


class TracedManager:
    """``SessionManager`` proxy: a span around each traffic call.

    Each span's key is ``(session, op, k)`` for the ``k``-th such call on
    that session, which is how the client's round-trip span of the same
    request finds it.
    """

    def __init__(self, manager, spans: Spans):
        self._inner = manager
        self._spans = spans
        self._op_counts: dict[tuple, int] = {}

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _key(self, sid: str, op: str) -> tuple:
        k = self._op_counts.get((sid, op), 0)
        self._op_counts[(sid, op)] = k + 1
        return (sid, op, k)

    def learn(self, sid, *args):
        return self._spans.call(
            "session.learn", self._inner.learn, sid, *args,
            key=self._key(sid, "learn"),
        )

    def learn_batch(self, sid, transitions, deadline=None):
        return self._spans.call(
            "session.learn_batch", self._inner.learn_batch, sid, transitions,
            deadline, key=self._key(sid, "learn_batch"),
        )

    def act(self, sid, *args):
        return self._spans.call(
            "session.act", self._inner.act, sid, *args, key=self._key(sid, "act"),
        )


async def serve(args) -> dict:
    from repro.core.config import QTAccelConfig
    from repro.serve.gateway import Gateway
    from repro.serve.session import SessionManager, build_serve_backend

    config = QTAccelConfig.qlearning(seed=args.seed)
    backend = build_serve_backend(
        config,
        engine="native",
        lanes=SERVE_LANES,
        num_states=SERVE_SIDE * SERVE_SIDE,
        num_actions=SERVE_ACTIONS,
    )
    spans = Spans() if args.trace else None
    lanes = TracedBackend(backend, spans) if spans else backend
    manager = SessionManager(lanes, checkpoint_every=SERVE_CHECKPOINT_EVERY)
    gateway = Gateway(TracedManager(manager, spans) if spans else manager, port=0)
    await gateway.start()
    samples: list = []
    sampler = asyncio.create_task(sample_costs(manager, samples))
    emit({"event": "listening", "port": gateway.port})
    loop = asyncio.get_running_loop()
    # Serve until the parent closes our stdin.
    await loop.run_in_executor(None, sys.stdin.buffer.read)
    sampler.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await sampler
    info = manager.server_info()
    await gateway.close()
    return {
        "event": "closed",
        "peak_rss_mb": peak_rss_mb(),
        "kernel_tier": backend.kernel_tier,
        "deadline_aborts": info["deadline_aborts"],
        "cost_samples": samples,
        "spans": spans.rows if spans else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_cpu("server")
    emit(asyncio.run(serve(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
