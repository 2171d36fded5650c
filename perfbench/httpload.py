"""The benchmark's own HTTP load generator.

One process, one thread, a fixed set of keep-alive HTTP/1.1 connections
driven by a ``selectors`` loop, at most one request in flight per
connection.  Load is described by :class:`Lane` objects: a lane owns some
connections and either follows an open-loop schedule of due times
(a request is sent when it is due and one of the lane's connections is
free) or runs closed-loop (each connection sends its next request as soon
as the previous answer arrived).  Latency is timed from each request's
due time, so a stall also charges the requests that queued behind it;
``lateness`` is how long the generator itself held a request back: from
when it was due, or when its connection became free if that was later,
until it was sent.
"""

from __future__ import annotations

import selectors
import socket
import time
from typing import Callable, List, Optional, Sequence

perf = time.perf_counter

#: A request unanswered this long counts as failed; its connection is
#: replaced.
TIMEOUT_S = 30.0


class Request:
    __slots__ = ("path", "body", "meta", "due", "sent", "late", "done", "status", "response",
                 "error")

    def __init__(self, path: str, body: bytes, meta: object = None) -> None:
        self.path = path
        self.body = body
        self.meta = meta
        self.due = self.sent = self.late = self.done = 0.0
        self.status = 0
        self.response = b""
        self.error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def latency_s(self) -> float:
        return self.done - self.due


class _Conn:
    def __init__(self, host: str, port: int, sel: selectors.BaseSelector) -> None:
        self.addr = (host, port)
        self.sel = sel
        self.sock: Optional[socket.socket] = None
        self.req: Optional[Request] = None
        self.free_at = 0.0
        self.out = b""
        self.buf = bytearray()
        self.connect()

    def connect(self) -> None:
        sock = socket.create_connection(self.addr, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self.sel.register(sock, selectors.EVENT_READ, self)

    def close(self) -> None:
        if self.sock is not None:
            self.sel.unregister(self.sock)
            self.sock.close()
            self.sock = None

    def send(self, req: Request, now: float) -> None:
        head = (
            f"POST {req.path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(req.body)}\r\n\r\n"
        ).encode()
        req.sent = now
        req.late = now - max(req.due, self.free_at)
        self.req = req
        self.buf.clear()
        self.out = head + req.body
        self._write()

    def _write(self) -> None:
        try:
            n = self.sock.send(self.out)
        except BlockingIOError:
            n = 0
        self.out = self.out[n:]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.out else 0)
        self.sel.modify(self.sock, events, self)

    def on_event(self, mask: int) -> Optional[Request]:
        """Handle readiness; returns the request it completed, if any."""
        if mask & selectors.EVENT_WRITE and self.out:
            self._write()
        if not mask & selectors.EVENT_READ:
            return None
        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return None
        except OSError as exc:
            return self.fail(f"recv: {exc}")
        if not data:
            return self.fail("connection closed")
        self.buf += data
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if len(self.buf) < end + 4 + length:
            return None
        req = self.req
        req.status = int(head[0].split()[1])
        req.response = bytes(self.buf[end + 4:end + 4 + length])
        req.done = self.free_at = perf()
        self.req = None
        self.buf.clear()
        return req

    def fail(self, error: str) -> Request:
        """Fail the in-flight request and replace the connection."""
        req = self.req
        req.error = error
        req.done = self.free_at = perf()
        self.req = None
        self.close()
        self.out = b""
        self.buf.clear()
        self.connect()
        return req


class Lane:
    """A stream of requests over some connections.

    ``make(i)`` builds the ``i``-th request.  With ``dues`` the lane is
    open-loop (request ``i`` is due at ``dues[i]``); without, closed-loop
    until the run's end time.
    """

    def __init__(self, conns: Sequence[int], make: Callable[[int], Request],
                 dues: Optional[Sequence[float]] = None) -> None:
        self.conns = list(conns)
        self.make = make
        self.dues = dues
        self.next = 0
        self.done: List[Request] = []

    def due(self, now: float, t_end: float) -> Optional[float]:
        """Due time of the next request, or ``None`` when the lane is spent."""
        if self.dues is None:
            return now if now < t_end else None
        return self.dues[self.next] if self.next < len(self.dues) else None


class Client:
    """Keep-alive connections to one server, driven from one thread."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.sel = selectors.DefaultSelector()
        self.conns = [_Conn(host, port, self.sel) for _ in range(connections)]

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.sel.close()

    def run(self, lanes: Sequence[Lane], t_end: float) -> None:
        """Serve the lanes until every due request is answered (open-loop)
        or ``t_end`` passes (closed-loop), then wait out in-flight ones."""
        owner = {}
        for lane in lanes:
            for c in lane.conns:
                owner[c] = lane
        while True:
            now = perf()
            wake = now + 1.0
            busy = False
            for c, conn in enumerate(self.conns):
                lane = owner.get(c)
                if conn.req is not None:
                    busy = True
                    if now - conn.req.sent > TIMEOUT_S:
                        lane.done.append(conn.fail("timeout"))
                    continue
                if lane is None:
                    continue
                due = lane.due(now, t_end)
                if due is None:
                    continue
                if due <= now:
                    req = lane.make(lane.next)
                    req.due = due
                    lane.next += 1
                    conn.send(req, now)
                    busy = True
                else:
                    wake = min(wake, due)
            if not busy and all(lane.due(now, t_end) is None for lane in lanes):
                return
            for key, mask in self.sel.select(max(0.0, wake - perf())):
                req = key.data.on_event(mask)
                if req is not None:
                    owner[self.conns.index(key.data)].done.append(req)
