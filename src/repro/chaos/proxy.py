"""A byte-level TCP chaos proxy for the serving stack.

:class:`ChaosProxy` sits between clients and a gateway and forwards
NDJSON traffic verbatim until told to misbehave:

* :meth:`sever_all` — abruptly close every live connection (RST-style
  from the client's perspective: reads fail mid-stream);
* :meth:`drop_next_request_mid_frame` — forward only a **prefix** of
  the next client→server frame, cut strictly inside the JSON body so
  the gateway sees an unparseable partial line at EOF, then sever that
  connection.  This is the "connection died halfway through a
  ``learn_batch``" fault: the client cannot know whether the op was
  applied, which is exactly what the ``seq`` exactly-once cache makes
  survivable;
* :meth:`corrupt_next_response` — prepend a garbage line to the next
  server→client delivery, desynchronising the client's stream (its
  response-correlation check must catch this and reconnect);
* :meth:`stall` — freeze all forwarding for a duration (both
  directions), simulating a network brown-out without closing anything.

The proxy is threaded and blocking (one pump thread per direction per
connection) — chaos tooling, not a performance path.  All fault hooks
are thread-safe and may be armed from any thread.
"""

from __future__ import annotations

import socket
import threading

#: Injected where a well-formed NDJSON response should be.
GARBAGE_LINE = b"\x00\xffnot json at all\xfe\x01\n"


class _ProxyConn:
    """One proxied client connection: two sockets + two pump threads."""

    def __init__(self, proxy: "ChaosProxy", client: socket.socket, idx: int):
        self.proxy = proxy
        self.client = client
        self.idx = idx
        self.server = socket.create_connection(
            (proxy.target_host, proxy.target_port), timeout=30.0
        )
        self.alive = True
        self._lock = threading.Lock()
        self.threads = [
            threading.Thread(target=self._pump_c2s, daemon=True),
            threading.Thread(target=self._pump_s2c, daemon=True),
        ]
        for t in self.threads:
            t.start()

    def sever(self) -> None:
        """Hard-close both sides (idempotent)."""
        with self._lock:
            if not self.alive:
                return
            self.alive = False
        for sock in (self.client, self.server):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.proxy._conn_done(self)

    def _pump_c2s(self) -> None:
        """Client→server, frame-aware so faults can cut mid-frame."""
        rfile = self.client.makefile("rb")
        try:
            while self.alive:
                line = rfile.readline()
                if not line:
                    break
                self.proxy._gate.wait()
                if self.proxy._take_drop_mid_frame():
                    # Strictly inside the JSON body: never a complete
                    # object, never the terminating newline — the
                    # gateway's readline sees a partial frame at EOF.
                    cut = max(1, (len(line) - 1) // 2)
                    try:
                        self.server.sendall(line[:cut])
                    except OSError:
                        pass
                    with self.proxy._stats_lock:
                        self.proxy.frames_dropped += 1
                    self.sever()
                    return
                self.server.sendall(line)
        except (OSError, ValueError):
            pass
        finally:
            self.sever()

    def _pump_s2c(self) -> None:
        """Server→client, chunk relay with optional garbage injection."""
        try:
            while self.alive:
                data = self.server.recv(65536)
                if not data:
                    break
                self.proxy._gate.wait()
                if self.proxy._take_corrupt_response():
                    self.client.sendall(GARBAGE_LINE)
                    with self.proxy._stats_lock:
                        self.proxy.garbage_injected += 1
                self.client.sendall(data)
        except (OSError, ValueError):
            pass
        finally:
            self.sever()


class ChaosProxy:
    """Threaded TCP proxy with armable fault injection (see module doc)."""

    def __init__(self, target_port: int, *, target_host: str = "127.0.0.1",
                 host: str = "127.0.0.1", port: int = 0):
        self.target_host = target_host
        self.target_port = target_port
        self.host = host
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self._conns: list[_ProxyConn] = []
        self._conns_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._closing = False
        #: Forwarding gate: cleared during a stall, set otherwise.
        self._gate = threading.Event()
        self._gate.set()
        self._drop_mid_frame = 0
        self._corrupt_response = 0
        self.conns_opened = 0
        self.conns_severed = 0
        self.frames_dropped = 0
        self.garbage_injected = 0
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    # -- fault hooks ---------------------------------------------------- #

    def sever_all(self) -> int:
        """Abruptly close every live proxied connection; returns count."""
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.sever()
        with self._stats_lock:
            self.conns_severed += len(conns)
        return len(conns)

    def drop_next_request_mid_frame(self) -> None:
        """Arm: cut the next client→server frame mid-JSON, then sever."""
        with self._stats_lock:
            self._drop_mid_frame += 1

    def corrupt_next_response(self) -> None:
        """Arm: prepend a garbage line to the next server→client delivery."""
        with self._stats_lock:
            self._corrupt_response += 1

    def stall(self, seconds: float) -> None:
        """Freeze all forwarding for ``seconds`` (returns immediately)."""
        self._gate.clear()
        timer = threading.Timer(seconds, self._gate.set)
        timer.daemon = True
        timer.start()

    # -- internals ------------------------------------------------------ #

    def _take_drop_mid_frame(self) -> bool:
        with self._stats_lock:
            if self._drop_mid_frame > 0:
                self._drop_mid_frame -= 1
                return True
            return False

    def _take_corrupt_response(self) -> bool:
        with self._stats_lock:
            if self._corrupt_response > 0:
                self._corrupt_response -= 1
                return True
            return False

    def _accept_loop(self) -> None:
        idx = 0
        while not self._closing:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            idx += 1
            try:
                conn = _ProxyConn(self, client, idx)
            except OSError:
                try:
                    client.close()
                except OSError:
                    pass
                continue
            with self._conns_lock:
                self._conns.append(conn)
            with self._stats_lock:
                self.conns_opened += 1

    def _conn_done(self, conn: _ProxyConn) -> None:
        with self._conns_lock:
            if conn in self._conns:
                self._conns.remove(conn)

    def stats(self) -> dict:
        with self._stats_lock, self._conns_lock:
            return {
                "conns_opened": self.conns_opened,
                "conns_live": len(self._conns),
                "conns_severed": self.conns_severed,
                "frames_dropped": self.frames_dropped,
                "garbage_injected": self.garbage_injected,
            }

    def close(self) -> None:
        """Stop accepting, sever everything, release the listener."""
        self._closing = True
        self._gate.set()
        try:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does (accept raises, the loop sees _closing).
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # not every platform allows it on a listener
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
        self.sever_all()
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
