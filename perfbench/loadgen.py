"""Serving client for ``serve_stream`` (open loop) and ``serve_batch``
(closed loop), run in a process of its own next to the gateway launcher.

It generates every input from the seed at start-up, then obeys one JSON
command per stdin line from ``run.py``:

* ``{"cmd": "setup", "port": p}`` — connect, ``ping``, open the sessions,
  reply ``{"event": "ready", "t": <monotonic>}`` (set-up ends there);
* ``{"cmd": "measure", "traced": b, "ladder": b, "check": b}`` — run the
  load for ``--seconds`` (then, with ``ladder``, the rate ladder), then
  (``check``) compare every session's full Q table with a one-lane
  sequential replay of exactly the ops it sent;
* ``{"cmd": "reset"}`` — drop the connections (the next set-up opens
  fresh ones on a fresh gateway).

``serve_stream``: one thread, 2 connections, 32 sessions; Poisson
arrivals at a fixed rate, 80% single-transition ``learn`` and 20%
``act(explore=True)`` on a uniformly chosen session, pipelined as NDJSON
with ``seq`` and ``token`` as ``ServeSession`` sends them.  Latency is
timed from when a request was due.  After the fixed-rate phase a ladder
of higher rates finds the highest one the gateway sustains.

``serve_batch``: 2 threads, each with one ``ServeClient`` connection
driving 8 sessions round-robin with ``learn_batch`` of 256 walk
transitions and ``deadline_ms=5000``, each waiting for its reply.
"""

from __future__ import annotations

import argparse
import gc
import json
import select
import socket
import sys
import threading
import time
from collections import deque

import numpy as np

from common import (
    SERVE_ACTIONS,
    SERVE_SIDE,
    Spans,
    emit,
    percentile,
    pin_cpu,
    random_walks,
    replay_table,
)

HOST = "127.0.0.1"

STREAM_SESSIONS = 32
STREAM_CONNS = 2
STREAM_RATE = 4000  # requests/s offered in the fixed-rate phase
LEARN_SHARE = 0.8
#: The rate ladder above STREAM_RATE: coarse rungs 25% apart, tried in
#: order until one misses the latency limit or its backlog keeps growing,
#: then fine rungs 5% apart between the last rung held and the one missed.
COARSE_RUNGS = tuple(round(STREAM_RATE * 1.25**k) for k in range(1, 7))
FINE_RUNGS = 4
LADDER_STEP_S = 1.0
LATENCY_LIMIT_MS = 10.0

BATCH_THREADS = 2
BATCH_SESSIONS_PER_THREAD = 8
BATCH_SIZE = 256
BATCH_DEADLINE_MS = 5000
#: Walk transitions generated per session per measured second; a
#: session that uses them up starts over from the beginning of its walk.
BATCH_POOL_PER_S = 4096


def fine_rungs(rate: int) -> list[int]:
    return [round(rate * 1.05**j) for j in range(1, FINE_RUNGS + 1)]


def _config(seed: int):
    from repro.core.config import QTAccelConfig

    return QTAccelConfig.qlearning(seed=seed)


def check_tables(config, sessions, fetch) -> dict:
    """Every session's full table against its one-lane replay."""
    mismatched = 0
    last = None
    for sess in sessions:
        want = replay_table(config, sess["salt"], sess["ops"])
        got = fetch(sess)
        mismatched += got != want
        last = (got, want)
    # Negative self-test: the same comparison fires on one corrupted word.
    got, want = last
    bad = list(got)
    bad[0] += 1
    return {"tables_match_replay": mismatched == 0, "selftest_fires": bad != want}


# --------------------------------------------------------------------- #
# serve_stream: open loop over raw pipelined NDJSON
# --------------------------------------------------------------------- #


class Conn:
    """One raw NDJSON connection (blocking calls for set-up and checks)."""

    def __init__(self, port: int):
        self.sock = socket.create_connection((HOST, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def call(self, message: dict) -> dict:
        self.sock.setblocking(True)
        self.sock.sendall(json.dumps(message).encode() + b"\n")
        while b"\n" not in self.buf:
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("gateway closed the connection")
            self.buf += data
        line, _, self.buf = self.buf.partition(b"\n")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise RuntimeError(f"gateway refused {message.get('op')}: {reply}")
        return reply

    def close(self) -> None:
        self.sock.close()


class Stream:
    def __init__(self, args):
        rng = np.random.default_rng(args.seed)
        self.config = _config(args.seed)
        self.seconds = args.seconds
        bounds = zip((STREAM_RATE, *COARSE_RUNGS), COARSE_RUNGS)
        rates = [STREAM_RATE, *COARSE_RUNGS] + [
            r for lower, upper in bounds for r in fine_rungs(lower) if r < upper
        ]
        # Every rung's schedule is drawn up front, in this fixed order, so
        # the inputs depend on the seed alone, whichever rungs then run.
        self.phases = {}
        learns = np.zeros(STREAM_SESSIONS, dtype=np.int64)
        for rate in rates:
            span = args.seconds if rate == STREAM_RATE else LADDER_STEP_S
            n = int(rate * span * 1.3) + 64
            due = np.cumsum(rng.exponential(1.0 / rate, size=n))
            n = int(np.searchsorted(due, span))
            sess = rng.integers(STREAM_SESSIONS, size=n)
            learn = rng.random(n) < LEARN_SHARE
            learns += np.bincount(sess[learn], minlength=STREAM_SESSIONS)
            self.phases[rate] = (rate, due[:n].tolist(), sess.tolist(), learn.tolist())
        length = int(learns.max()) + 1
        self.walks = random_walks(rng, STREAM_SESSIONS, length, SERVE_SIDE, SERVE_ACTIONS)
        self.conns: list[Conn] = []

    def setup(self, port: int) -> None:
        self.conns = [Conn(port) for _ in range(STREAM_CONNS)]
        self.conns[0].call({"op": "ping"})
        self.sessions = []
        for i in range(STREAM_SESSIONS):
            conn = i % STREAM_CONNS
            opened = self.conns[conn].call({"op": "open"})
            self.sessions.append(
                {"sid": opened["session"], "token": opened["token"],
                 "salt": opened["salt"], "conn": conn, "seq": 0, "pos": 0,
                 "ops": [], "k": {"learn": 0, "act": 0}}
            )

    def reset(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []

    def frames(self, sess_idx, learn_flags):
        """Encode one phase's requests (seq/token as ServeSession does)."""
        frames, conn_of, meta = [], [], []
        for i, is_learn in zip(sess_idx, learn_flags):
            sess = self.sessions[i]
            walk = self.walks[i]
            sess["seq"] += 1
            msg = {"session": sess["sid"], "token": sess["token"], "seq": sess["seq"]}
            if is_learn:
                s, a, r, ns, t = walk[sess["pos"]]
                sess["pos"] += 1
                msg.update(op="learn", s=s, a=a, r=r, ns=ns, t=t)
                sess["ops"].append(("learn", s, a, r, ns, t))
                op = "learn"
            else:
                s = walk[sess["pos"]][0]
                msg.update(op="act", s=s, explore=True)
                sess["ops"].append(("act", s))
                op = "act"
            frames.append(json.dumps(msg, separators=(",", ":")).encode() + b"\n")
            conn_of.append(sess["conn"])
            meta.append((i, op, sess["k"][op], sess["seq"]))
            sess["k"][op] += 1
        return frames, conn_of, meta

    def open_loop(self, frames, conn_of, due):
        """Send each frame when due, pipelined; record send/receive times."""
        n = len(frames)
        socks = [c.sock for c in self.conns]
        for sock in socks:
            sock.setblocking(False)
        pending = [deque() for _ in socks]
        out = [bytearray() for _ in socks]
        rbuf = [b"" for _ in socks]
        sent_at = [0.0] * n
        recv_at = [0.0] * n
        replies = [b""] * n
        sent = received = 0
        backlog_max = backlog_at_last_send = 0
        clock = time.monotonic
        # A full collection over the pre-generated inputs would stall the
        # generator for milliseconds; nothing here forms cycles.
        gc.collect()
        gc.disable()
        t0 = clock()
        while received < n:
            now = clock() - t0
            j = sent
            while j < n and due[j] <= now:
                c = conn_of[j]
                out[c] += frames[j]
                pending[c].append(j)
                sent_at[j] = now
                j += 1
            if j > sent:
                sent = j
                backlog_max = max(backlog_max, sent - received)
                if sent == n:
                    backlog_at_last_send = sent - received
                for c, sock in enumerate(socks):
                    if out[c]:
                        try:
                            del out[c][: sock.send(out[c])]
                        except BlockingIOError:
                            pass
            wait = max(0.0, due[sent] - (clock() - t0)) if sent < n else 1.0
            writers = [sock for c, sock in enumerate(socks) if out[c]]
            readable, writable, _ = select.select(socks, writers, [], wait)
            for sock in writable:
                c = socks.index(sock)
                try:
                    del out[c][: sock.send(out[c])]
                except BlockingIOError:
                    pass
            for sock in readable:
                c = socks.index(sock)
                data = sock.recv(1 << 20)
                if not data:
                    raise ConnectionError("gateway closed the connection mid-run")
                at = clock() - t0
                lines = (rbuf[c] + data).split(b"\n")
                rbuf[c] = lines.pop()
                for line in lines:
                    i = pending[c].popleft()
                    recv_at[i] = at
                    replies[i] = line
                received += len(lines)
        gc.enable()
        return sent_at, recv_at, replies, backlog_max, backlog_at_last_send

    def run_phase(self, phase, spans):
        rate, due, sess_idx, learn_flags = phase
        frames, conn_of, meta = self.frames(sess_idx, learn_flags)
        sent_at, recv_at, replies, backlog_max, backlog_end = self.open_loop(
            frames, conn_of, due
        )
        failed = 0
        lat = {"learn": [], "act": []}
        for j, (i, op, k, seq) in enumerate(meta):
            reply = json.loads(replies[j])
            if not reply.get("ok") or reply.get("seq") != seq:
                failed += 1
            lat[op].append((recv_at[j] - due[j]) * 1e3)
            if spans is not None:
                spans.add(
                    f"gateway.{op}", int(sent_at[j] * 1e9), int(recv_at[j] * 1e9),
                    key=(self.sessions[i]["sid"], op, k),
                )
        lag_us = [(s - d) * 1e6 for s, d in zip(sent_at, due)]
        sustained = (
            failed == 0
            and percentile(lat["learn"], 0.99) <= LATENCY_LIMIT_MS
            and percentile(lat["act"], 0.99) <= LATENCY_LIMIT_MS
            and backlog_end <= rate * LATENCY_LIMIT_MS / 1e3
        )
        return {
            "rate": rate, "n": len(frames), "failed": failed, "lat": lat,
            "lag_us_p99": percentile(lag_us, 0.99), "backlog_max": backlog_max,
            "backlog_end": backlog_end,
            "sustained": sustained,
        }

    def measure(self, cmd) -> dict:
        spans = Spans() if cmd["traced"] else None
        start = time.monotonic()
        main = self.run_phase(self.phases[STREAM_RATE], spans)
        window = (start, time.monotonic())
        attempted, failed = main["n"], main["failed"]
        max_rps = STREAM_RATE if main["sustained"] else 0
        ladder = []

        def climb(rungs) -> bool:
            nonlocal attempted, failed, max_rps
            for rate in rungs:
                step = self.run_phase(self.phases[rate], None)
                attempted += step["n"]
                failed += step["failed"]
                ladder.append(
                    [rate, percentile(step["lat"]["learn"], 0.99),
                     percentile(step["lat"]["act"], 0.99), step["backlog_end"],
                     step["sustained"]]
                )
                if not step["sustained"]:
                    return False
                max_rps = rate
            return True

        if cmd["ladder"] and main["sustained"] and not climb(COARSE_RUNGS):
            missed = ladder[-1][0]
            climb([r for r in fine_rungs(max_rps) if r < missed])
        lat = main["lat"]
        named = {
            "stream_learn_p50_ms": (percentile(lat["learn"], 0.5), "ms", len(lat["learn"])),
            "stream_learn_p99_ms": (percentile(lat["learn"], 0.99), "ms", len(lat["learn"])),
            "stream_act_p50_ms": (percentile(lat["act"], 0.5), "ms", len(lat["act"])),
            "stream_act_p99_ms": (percentile(lat["act"], 0.99), "ms", len(lat["act"])),
        }
        if cmd["ladder"]:
            named["stream_max_rps"] = (max_rps, "1/s")
        result = {
            "window": window,
            "named": named,
            "ladder": ladder,
            "loadgen": {
                "loadgen.lag_us_p99": main["lag_us_p99"],
                "loadgen.backlog_max": main["backlog_max"],
            },
            "attempted": attempted,
            "failed": failed,
            "spans": spans.rows if spans else [],
        }
        if cmd["check"]:
            result["checks"] = check_tables(
                self.config, self.sessions,
                lambda s: self.conns[s["conn"]].call(
                    {"op": "table", "session": s["sid"], "token": s["token"]}
                )["q"],
            )
        return result


# --------------------------------------------------------------------- #
# serve_batch: closed loop through ServeClient
# --------------------------------------------------------------------- #


class Batch:
    def __init__(self, args):
        rng = np.random.default_rng(args.seed)
        self.config = _config(args.seed)
        self.seconds = args.seconds
        n = BATCH_THREADS * BATCH_SESSIONS_PER_THREAD
        pool = -(-int(BATCH_POOL_PER_S * args.seconds) // BATCH_SIZE) * BATCH_SIZE
        self.walks = random_walks(rng, n, pool, SERVE_SIDE, SERVE_ACTIONS)
        self.clients = []

    def setup(self, port: int) -> None:
        from repro.serve.client import ServeClient

        self.clients = [ServeClient(HOST, port) for _ in range(BATCH_THREADS)]
        self.clients[0].ping()
        self.sessions = []
        for i in range(BATCH_THREADS * BATCH_SESSIONS_PER_THREAD):
            handle = self.clients[i % BATCH_THREADS].open_session()
            self.sessions.append(
                {"handle": handle, "salt": handle.salt, "walk": i, "pos": 0,
                 "ops": [], "k": 0}
            )

    def reset(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []

    def _worker(self, mine, stop_at, spans, out):
        from repro.serve.client import ServeError

        times, failed = [], 0
        while True:
            for sess in mine:
                walk = self.walks[sess["walk"]]
                pos = sess["pos"] % len(walk)
                batch = walk[pos : pos + BATCH_SIZE]
                start = time.perf_counter_ns()
                try:
                    sess["handle"].learn_batch(batch, deadline_ms=BATCH_DEADLINE_MS)
                except ServeError:
                    failed += 1
                else:
                    sess["pos"] += BATCH_SIZE
                    sess["ops"].extend(("learn",) + tuple(t) for t in batch)
                end = time.perf_counter_ns()
                times.append((start, end))
                if spans is not None:
                    spans.add(
                        "gateway.learn_batch", start, end,
                        key=(sess["handle"].sid, "learn_batch", sess["k"]),
                    )
                sess["k"] += 1
                if end >= stop_at:
                    out.append((times, failed))
                    return

    def measure(self, cmd) -> dict:
        spans = Spans() if cmd["traced"] else None
        stop_at = time.perf_counter_ns() + int(self.seconds * 1e9)
        results: list = []
        threads = [
            threading.Thread(
                target=self._worker,
                args=(self.sessions[t::BATCH_THREADS], stop_at, spans, results),
            )
            for t in range(BATCH_THREADS)
        ]
        # Nothing here forms cycles; a full collection over the walk pools
        # would stall a client thread for milliseconds.
        gc.collect()
        gc.disable()
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = (start, time.monotonic())
        gc.enable()
        if len(results) != BATCH_THREADS:
            raise RuntimeError("a batch client thread failed")
        times = [t for ts, _ in results for t in ts]
        failed = sum(f for _, f in results)
        transitions = sum(s["pos"] for s in self.sessions)
        window_s = (max(e for _, e in times) - min(s for s, _ in times)) / 1e9
        ms = [(e - s) / 1e6 for s, e in times]
        named = {
            "batch_transitions_per_s": (transitions / window_s, "1/s"),
            "batch_p50_ms": (percentile(ms, 0.5), "ms", len(ms)),
            "batch_p99_ms": (percentile(ms, 0.99), "ms", len(ms)),
        }
        result = {
            "window": window,
            "named": named,
            "attempted": len(times),
            "failed": failed,
            "spans": spans.rows if spans else [],
        }
        if cmd["check"]:
            result["checks"] = check_tables(
                self.config, self.sessions, lambda s: s["handle"].table()
            )
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("serve_stream", "serve_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    pin_cpu("client")
    load = Stream(args) if args.workload == "serve_stream" else Batch(args)
    emit({"event": "inputs"})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "setup":
            load.setup(cmd["port"])
            emit({"event": "ready", "t": time.monotonic()})
        elif cmd["cmd"] == "measure":
            emit({"event": "result", **load.measure(cmd)})
        elif cmd["cmd"] == "reset":
            load.reset()
            emit({"event": "reset"})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
