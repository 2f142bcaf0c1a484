"""The single-threaded load generator: one process, one selector.

Requests and responses are NDJSON lines on at most a few Unix-socket
connections.  The server answers each connection strictly in request
order, so a connection's outstanding operations form a FIFO queue and
each response line completes the oldest one.  Response bytes are kept
raw inside the timed window; parsing and checking happen afterwards.

Two loops:

* :func:`closed_loop` — each connection sends its next operation as soon
  as the previous one is answered, until the window closes;
* :func:`open_loop` — operations are sent at fixed (seeded Poisson)
  times whatever the state of earlier ones, on the connection with the
  fewest outstanding operations.  Latency counts from the *scheduled*
  send time, so a stall also charges the requests it delays, and the
  generator's own lateness (actual minus scheduled send) is recorded.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from typing import Callable

#: An operation unanswered for this long is failed as a timeout.
OP_TIMEOUT_S = 30.0


class Op:
    """One request line sent to the server and what came back."""

    __slots__ = (
        "kind", "line", "phase", "scheduled", "sent", "done", "raw", "error",
    )

    def __init__(self, kind: str, line: str, phase: str, scheduled: float) -> None:
        self.kind = kind  # "solve" or "mutate"
        self.line = line
        self.phase = phase
        self.scheduled = scheduled
        self.sent = 0.0
        self.done = 0.0
        self.raw: bytes | None = None
        self.error: str | None = None  # connection error or timeout


class _Conn:
    def __init__(self, path: str) -> None:
        self.path = path
        self.pending: deque[Op] = deque()
        self.buf = b""
        self.sock = self._connect()

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(self.path)
        return sock


class Client:
    """Connections to one server plus every operation sent through them."""

    def __init__(self, path: str, connections: int) -> None:
        self._selector = selectors.DefaultSelector()
        self._conns = [_Conn(path) for _ in range(connections)]
        for conn in self._conns:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.ops: list[Op] = []

    def close(self) -> None:
        for conn in self._conns:
            self._selector.unregister(conn.sock)
            conn.sock.close()
        self._selector.close()

    # ------------------------------------------------------------------
    def _send(self, conn: _Conn, op: Op) -> None:
        op.sent = time.perf_counter()
        conn.pending.append(op)
        self.ops.append(op)
        try:
            conn.sock.sendall(op.line.encode() + b"\n")
        except OSError as exc:
            self._fail(conn, f"send: {exc}")

    def _fail(self, conn: _Conn, reason: str) -> None:
        """Fail every outstanding op on ``conn`` and reconnect it."""
        now = time.perf_counter()
        while conn.pending:
            op = conn.pending.popleft()
            op.done, op.error = now, reason
        self._selector.unregister(conn.sock)
        conn.sock.close()
        conn.buf = b""
        conn.sock = conn._connect()
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)

    def _poll(self, timeout: float) -> list[tuple[_Conn, Op]]:
        """Wait up to ``timeout`` s; return the ops completed meanwhile."""
        completed = []
        for key, _ in self._selector.select(max(timeout, 0.0)):
            conn = key.data
            try:
                data = conn.sock.recv(1 << 16)
            except OSError as exc:
                data, reason = b"", f"recv: {exc}"
            else:
                reason = "server closed the connection"
            if not data:
                self._fail(conn, reason)
                continue
            now = time.perf_counter()
            conn.buf += data
            while True:
                cut = conn.buf.find(b"\n")
                if cut < 0:
                    break
                line, conn.buf = conn.buf[:cut], conn.buf[cut + 1:]
                op = conn.pending.popleft()
                op.done, op.raw = now, line
                completed.append((conn, op))
        now = time.perf_counter()
        for conn in self._conns:
            if conn.pending and now - conn.pending[0].sent > OP_TIMEOUT_S:
                self._fail(conn, "timeout")
        return completed

    def _outstanding(self) -> int:
        return sum(len(conn.pending) for conn in self._conns)

    # ------------------------------------------------------------------
    def closed_loop(
        self,
        next_op: Callable[[], tuple[str, str]],
        phase: str,
        *,
        seconds: float | None = None,
        count: int | None = None,
    ) -> tuple[float, int]:
        """Run until ``seconds`` elapse or ``count`` ops were sent.

        Returns ``(window_s, answered)``: the operations answered
        (successfully or not) before the window closed, and the time from
        the start to the last of those answers.
        """
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else float("inf")
        sent = 0

        def send(conn: _Conn) -> None:
            nonlocal sent
            kind, line = next_op()
            self._send(conn, Op(kind, line, phase, time.perf_counter()))
            sent += 1

        for conn in self._conns:
            if count is None or sent < count:
                send(conn)
        answered = 0
        last = start
        while self._outstanding():
            for conn, _ in self._poll(0.5):
                now = time.perf_counter()
                if now <= deadline:
                    answered += 1
                    last = now
                if now < deadline and (count is None or sent < count):
                    send(conn)
            # A failed connection has nothing in flight: restart it.
            now = time.perf_counter()
            for conn in self._conns:
                if not conn.pending and now < deadline and (
                    count is None or sent < count
                ):
                    send(conn)
        return last - start, answered

    def open_loop(
        self, next_op: Callable[[], tuple[str, str]], offsets: list[float], phase: str
    ) -> None:
        """Send one op at each of ``offsets`` (s from now), then drain."""
        start = time.perf_counter()
        due = [start + offset for offset in offsets]
        i = 0
        while i < len(due) or self._outstanding():
            now = time.perf_counter()
            while i < len(due) and due[i] <= now:
                conn = min(self._conns, key=lambda c: len(c.pending))
                kind, line = next_op()
                self._send(conn, Op(kind, line, phase, due[i]))
                i += 1
            wait = due[i] - time.perf_counter() if i < len(due) else 0.5
            self._poll(wait)
