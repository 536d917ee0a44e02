"""The one HTTP front door both serving tiers share.

:class:`Front` owns everything between the listening socket and a
complete request, and between a finished response and the last byte
on the wire.  The single-process :class:`~repro.net.server.NavigationServer`
and the sharded :class:`~repro.net.router.ShardedServer` each plug in
one handler; neither keeps a copy of any of this:

* **one event loop** — a single ``selectors`` thread owns the listener,
  every client socket and (for the router) every upstream socket.  It
  is the only thread that reads or writes a client socket, so an idle
  or silent connection costs a selector entry, never a thread;
* **incremental framing** — bytes are buffered per connection and
  framed with :func:`~repro.net.httpio.find_head` /
  :func:`~repro.net.httpio.parse_head`; the header block is capped and
  a declared body over ``max_body`` is a 413 before any body is read;
* **deadlines** — each request's clock starts at its first byte.  A
  sweep answers ``DeadlineExceeded`` (504) for a request still being
  received, or still waiting to start, when its deadline passes;
* **bounded admission** — once ``queue_limit`` complete requests wait
  to start, the next one is answered ``ServerOverloaded`` (503);
* **keep-alive** — an explicit ``Connection: keep-alive`` is honoured
  (pipelined requests are served in order), idle connections are
  swept after ``keepalive_idle`` seconds, and every response says
  ``Connection: close`` once draining has begun;
* **a fixed pool** of ``workers`` threads runs whatever the owner
  submits; results come back to the loop through one wake-up
  socketpair;
* **telemetry** under the owner's registry and name prefix:
  ``requests``, ``responses{status=N}``, ``disconnects``,
  ``rejections{reason=overloaded}``, ``deadline_expired``,
  ``internal_errors``, ``loop_errors``, the ``queue_depth`` gauge and the
  ``request_ms`` histogram.

The owner's handler runs on the loop thread and must not block: it
either answers at once (:meth:`Front.respond`), submits work to the
pool (:meth:`Front.submit`), or parks the exchange and later
:meth:`Front.claim`\\ s it (the router's upstream queue).
"""

from __future__ import annotations

import math
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, Optional

from ..obs import MetricsRegistry
from .httpio import (
    STATUS_REASONS,
    Request,
    content_length,
    find_head,
    parse_head,
)
from .protocol import (
    BadRequest,
    DeadlineExceeded,
    NetError,
    ServerOverloaded,
    canonical_json,
    error_envelope,
)

__all__ = ["Exchange", "Front", "LATENCY_BUCKETS_MS"]

#: Latency bucket bounds (milliseconds) for the request histogram.
LATENCY_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)

_MAX_HEAD = 16384
_TICK = 0.05  # seconds between deadline/idle sweeps

#: Pool work: the request in, (status, encoded body) out.
Work = Callable[[Request], "tuple[int, bytes]"]


class _Conn:
    """One accepted client connection (touched by the loop thread only)."""

    __slots__ = (
        "sock",
        "inbuf",
        "outbuf",
        "first_byte",
        "last_activity",
        "exchange",
        "close_after_flush",
    )

    def __init__(self, sock: socket.socket):
        self.sock: Optional[socket.socket] = sock
        self.inbuf = bytearray()
        #: The unsent rest of the one response in progress.  The next
        #: pipelined request is framed only once this is empty, so a
        #: client that stops reading gets no more work done for it.
        self.outbuf: bytes | memoryview = b""
        #: When the request now being received began arriving.
        self.first_byte: Optional[float] = None
        self.last_activity = time.monotonic()
        #: The framed request awaiting its response, if any.
        self.exchange: Optional[Exchange] = None
        self.close_after_flush = False


class Exchange:
    """One framed request on its way to a response."""

    __slots__ = ("conn", "request", "started", "deadline")

    def __init__(self, conn: _Conn, request: Request, started: float,
                 deadline: float):
        self.conn = conn
        self.request = request
        self.started = started
        self.deadline = deadline


class Front:
    """Listener, event loop, framing, admission and pool for one owner.

    ``config`` is the owner's :class:`~repro.net.server.ServerConfig`;
    ``handle(exchange)`` is called on the loop thread for every framed
    and admitted request; telemetry goes to ``metrics`` under
    ``prefix``.
    """

    def __init__(
        self,
        config,
        handle: Callable[[Exchange], None],
        metrics: MetricsRegistry,
        prefix: str,
    ):
        self.config = config
        self._handle = handle
        self.metrics = metrics
        self._prefix = prefix
        self.accepting = False
        self.served = 0
        #: When draining gives up on unfinished requests.
        self._drain_deadline = math.inf
        self._address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._conns: set[_Conn] = set()
        #: Admitted exchanges not yet started, in admission order.  The
        #: loop, the pool and :meth:`claim` share it under ``_lock``.
        self._waiting: dict[Exchange, None] = {}
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._tasks: deque[tuple[Optional[Exchange], Optional[Work]]] = deque()
        #: Responses finished off the loop thread, for the loop to write.
        self._done: deque[tuple[Exchange, int, bytes]] = deque()
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._loop_thread: threading.Thread | None = None
        self._pool: list[threading.Thread] = []
        self._requests = metrics.counter(f"{prefix}.requests")
        self._rejections = metrics.counter(
            f"{prefix}.rejections{{reason=overloaded}}"
        )
        self._expired = metrics.counter(f"{prefix}.deadline_expired")
        self._disconnects = metrics.counter(f"{prefix}.disconnects")
        self._latency_ms = metrics.histogram(
            f"{prefix}.request_ms", buckets=LATENCY_BUCKETS_MS
        )
        metrics.gauge_fn(f"{prefix}.queue_depth", lambda: self.waiting)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind, listen, and start the loop thread and the pool."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(max(64, self.config.queue_limit))
        listener.setblocking(False)
        self._listener = listener
        self._address = listener.getsockname()[:2]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(
            listener, selectors.EVENT_READ, (self._on_accept, None)
        )
        self._selector.register(
            self._wake_r, selectors.EVENT_READ, (self._on_wake, None)
        )
        self.accepting = True
        self._loop_thread = threading.Thread(
            target=self._loop, name=f"{self._prefix}-front", daemon=True
        )
        self._loop_thread.start()
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._pool_loop,
                name=f"{self._prefix}-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._pool.append(thread)

    @property
    def waiting(self) -> int:
        """Admitted requests not yet started."""
        return len(self._waiting)

    def is_waiting(self, exchange: Exchange) -> bool:
        """Whether ``exchange`` is admitted and neither started nor answered."""
        return exchange in self._waiting

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    def drain(self, timeout: float) -> None:
        """Stop admitting, finish every admitted request, stop the threads.

        New connections are refused at once; requests already framed —
        waiting or running — are answered (with ``Connection: close``)
        before the loop exits.  Idempotent; racing callers all wait for
        the same loop thread.
        """
        deadline = time.monotonic() + timeout
        self._drain_deadline = min(self._drain_deadline, deadline)
        self.accepting = False
        self._poke()
        thread = self._loop_thread
        if thread is not None:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
        with self._lock:
            pool, self._pool = self._pool, []
            for _ in pool:
                self._tasks.append((None, None))
            self._work_ready.notify_all()
        for worker in pool:
            worker.join(timeout=max(0.1, deadline - time.monotonic()))

    # ------------------------------------------------------------------
    # The owner's side
    # ------------------------------------------------------------------

    def submit(self, exchange: Exchange, work: Work) -> None:
        """Run ``work(request)`` on the pool; its result is the response.

        A :class:`~repro.net.protocol.NetError` from ``work`` becomes its
        typed envelope, any other exception a 500.
        """
        with self._lock:
            self._tasks.append((exchange, work))
            self._work_ready.notify()

    def claim(self, exchange: Exchange) -> bool:
        """Start a waiting exchange; False if it already expired or left.

        An exchange found past its deadline here is answered 504 and
        must not be started.
        """
        with self._lock:
            return self._claim_locked(exchange)

    def respond(self, exchange: Exchange, status: int, body: bytes) -> None:
        """Answer an exchange (loop thread only)."""
        conn = exchange.conn
        if conn.exchange is not exchange:
            return  # already answered
        with self._lock:
            self._waiting.pop(exchange, None)
        conn.exchange = None
        self._count(status, exchange.started)
        if conn.sock is None:
            return  # the client left; its answer has nowhere to go
        self._write(conn, status, body, exchange.request.wants_keep_alive)
        self._advance(conn)  # it may have pipelined the next request

    def fail(self, exchange: Exchange, error: NetError) -> None:
        """Answer an exchange with a typed error envelope (loop thread)."""
        self.respond(exchange, error.status, canonical_json(error_envelope(error)))

    def register(self, sock: socket.socket, mask: int, callbacks) -> None:
        """Watch an owner socket: ``callbacks`` = (on_event(mask), on_error())."""
        assert self._selector is not None
        self._selector.register(sock, mask, callbacks)

    def set_mask(self, sock: socket.socket, mask: int) -> None:
        if self._selector is None:
            return
        try:
            key = self._selector.get_key(sock)
        except (KeyError, ValueError):
            return
        if key.events != mask:
            self._selector.modify(sock, mask, key.data)

    def unregister(self, sock: socket.socket) -> None:
        if self._selector is None:
            return
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass

    # ------------------------------------------------------------------
    # Pool
    # ------------------------------------------------------------------

    def _pool_loop(self) -> None:
        while True:
            with self._lock:
                while not self._tasks:
                    self._work_ready.wait()
                exchange, work = self._tasks.popleft()
                if exchange is None:
                    return
                if not self._claim_locked(exchange):
                    continue
            try:
                status, body = work(exchange.request)
            except NetError as error:
                status = error.status
                body = canonical_json(error_envelope(error))
            except Exception as error:  # noqa: BLE001 - last-resort 500
                self.metrics.counter(f"{self._prefix}.internal_errors").inc()
                status, body = 500, canonical_json(error_envelope(error))
            self._complete(exchange, status, body)

    def _claim_locked(self, exchange: Exchange) -> bool:
        if exchange not in self._waiting:
            return False
        del self._waiting[exchange]
        if exchange.deadline <= time.monotonic():
            self._expire(exchange, "deadline elapsed before dispatch")
            return False
        return True

    def _expire(self, exchange: Exchange, why: str) -> None:
        self._expired.inc()
        error = DeadlineExceeded(why)
        self._complete(
            exchange, error.status, canonical_json(error_envelope(error))
        )

    def _complete(self, exchange: Exchange, status: int, body: bytes) -> None:
        """Hand a finished response to the loop (any thread)."""
        self._done.append((exchange, status, body))
        self._poke()

    def _poke(self) -> None:
        wake = self._wake_w
        if wake is None:
            return
        try:
            wake.send(b"\0")
        except OSError:
            pass  # buffer full (the loop is waking anyway) or closed

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        selector = self._selector
        assert selector is not None
        last_sweep = time.monotonic()
        try:
            while self.accepting or (
                self._busy() and time.monotonic() < self._drain_deadline
            ):
                if not self.accepting and self._listener is not None:
                    self.unregister(self._listener)
                    self._close(self._listener)
                    self._listener = None
                for key, mask in selector.select(timeout=_TICK):
                    on_event, on_error = key.data
                    try:
                        on_event(mask)
                    except Exception:  # noqa: BLE001 - one socket, not the loop
                        self.metrics.counter(f"{self._prefix}.loop_errors").inc()
                        if on_error is not None:
                            on_error()
                now = time.monotonic()
                if now - last_sweep >= _TICK:
                    last_sweep = now
                    self._sweep(now)
        finally:
            self._shutdown()

    def _busy(self) -> bool:
        """Whether an admitted request is unanswered or a reply unsent."""
        return bool(self._done) or any(
            conn.exchange is not None or conn.outbuf for conn in self._conns
        )

    def _shutdown(self) -> None:
        selector, self._selector = self._selector, None
        assert selector is not None
        for key in list(selector.get_map().values()):
            self._close(key.fileobj)
        selector.close()
        self._listener = None
        self._conns.clear()
        wake, self._wake_w = self._wake_w, None  # late results are dropped
        if wake is not None:
            self._close(wake)

    def _on_wake(self, _mask: int) -> None:
        assert self._wake_r is not None
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass
        while self._done:
            self.respond(*self._done.popleft())

    def _on_accept(self, _mask: int) -> None:
        assert self._listener is not None
        for _ in range(64):
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            if not self.accepting:
                self._close(sock)
                continue
            sock.setblocking(False)
            conn = _Conn(sock)
            self._conns.add(conn)
            self.register(
                sock,
                selectors.EVENT_READ,
                (lambda mask, c=conn: self._on_client(c, mask),
                 lambda c=conn: self._drop(c)),
            )

    def _on_client(self, conn: _Conn, mask: int) -> None:
        conn.last_activity = time.monotonic()
        if mask & selectors.EVENT_WRITE:
            self._flush(conn)
        if conn.sock is not None and mask & selectors.EVENT_READ:
            try:
                chunk = conn.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                chunk = None
            except OSError:
                chunk = b""
            if chunk == b"":
                if conn.exchange is not None or conn.inbuf:
                    self._disconnects.inc()
                return self._drop(conn)
            if chunk:
                conn.inbuf.extend(chunk)
        self._advance(conn)

    def _advance(self, conn: _Conn) -> None:
        """Frame the next buffered request, if complete, and hand it on."""
        if (
            conn.sock is None
            or conn.exchange is not None
            or conn.outbuf
            or not conn.inbuf
        ):
            return
        if conn.first_byte is None:
            conn.first_byte = time.monotonic()
            self._requests.inc()
        head_end, body_start = find_head(conn.inbuf)
        if head_end < 0:
            if len(conn.inbuf) > _MAX_HEAD:
                self._reject(conn, BadRequest("header block too long"))
            return
        try:
            first, headers = parse_head(bytes(conn.inbuf[:head_end]))
            if len(first) != 3 or not first[2].startswith("HTTP/"):
                raise BadRequest(f"malformed request line {' '.join(first)!r}")
            length = content_length(headers, self.config.max_body)
        except NetError as error:
            self._reject(conn, error)
            return
        if len(conn.inbuf) - body_start < length:
            return  # body still in flight
        body = bytes(conn.inbuf[body_start:body_start + length])
        del conn.inbuf[: body_start + length]
        started, conn.first_byte = conn.first_byte, None
        exchange = Exchange(
            conn,
            Request(first[0], first[1], headers, body),
            started,
            started + self.config.request_deadline,
        )
        conn.exchange = exchange
        with self._lock:
            admitted = len(self._waiting) < self.config.queue_limit
            if admitted:
                self._waiting[exchange] = None
        if not admitted:
            self._rejections.inc()
            return self.fail(exchange, ServerOverloaded(
                f"accept queue full ({self.config.queue_limit} waiting); retry"
            ))
        try:
            self._handle(exchange)
        except Exception as error:  # noqa: BLE001 - last-resort 500
            self.metrics.counter(f"{self._prefix}.internal_errors").inc()
            self.respond(exchange, 500, canonical_json(error_envelope(error)))

    def _reject(self, conn: _Conn, error: NetError) -> None:
        """A framing failure: typed envelope, then close (framing is lost)."""
        started = conn.first_byte or time.monotonic()
        conn.first_byte = None
        conn.inbuf.clear()
        self._count(error.status, started)
        self._write(conn, error.status, canonical_json(error_envelope(error)),
                    keep_alive=False)

    def _count(self, status: int, started: float) -> None:
        self.served += 1
        self.metrics.counter(f"{self._prefix}.responses{{status={status}}}").inc()
        self._latency_ms.observe((time.monotonic() - started) * 1000.0)

    def _write(self, conn: _Conn, status: int, body: bytes,
               keep_alive: bool) -> None:
        keep = keep_alive and self.accepting
        reason = STATUS_REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        conn.outbuf = head + body
        conn.close_after_flush = not keep
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        sock = conn.sock
        if sock is None:
            return
        while conn.outbuf:
            try:
                sent = sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                self.set_mask(sock, selectors.EVENT_READ | selectors.EVENT_WRITE)
                return
            except OSError:
                self._disconnects.inc()
                self._drop(conn)
                return
            conn.outbuf = memoryview(conn.outbuf)[sent:]
        conn.outbuf = b""  # drop the view: it pins the whole response
        conn.last_activity = time.monotonic()
        if conn.close_after_flush:
            self._drop(conn)
        else:
            self.set_mask(sock, selectors.EVENT_READ)

    def _drop(self, conn: _Conn) -> None:
        sock, conn.sock = conn.sock, None
        self._conns.discard(conn)
        conn.outbuf = b""
        if conn.exchange is not None:
            with self._lock:
                self._waiting.pop(conn.exchange, None)  # never start it
        if sock is not None:
            self.unregister(sock)
            self._close(sock)

    def _sweep(self, now: float) -> None:
        with self._lock:
            expired = [ex for ex in self._waiting if ex.deadline <= now]
            for exchange in expired:
                del self._waiting[exchange]
                self._expire(exchange, "deadline elapsed while queued")
            if expired:
                self._tasks = deque(
                    task for task in self._tasks
                    if task[0] is None or task[0] in self._waiting
                )
        horizon = now - self.config.keepalive_idle
        for conn in list(self._conns):
            if conn.exchange is not None:
                continue
            if (
                conn.first_byte is not None
                and conn.first_byte + self.config.request_deadline <= now
            ):
                self._expired.inc()
                self._reject(conn, DeadlineExceeded(
                    "deadline elapsed while reading the request"
                ))
            elif not conn.outbuf and not conn.inbuf and conn.last_activity < horizon:
                self._drop(conn)

    @staticmethod
    def _close(sock) -> None:
        try:
            sock.close()
        except OSError:
            pass
