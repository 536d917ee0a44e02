"""The load generator: one ``selectors`` loop, at most two connections.

Each connection belongs to one driver:

* :class:`Reader` — a closed loop: the next request goes out the moment
  the previous response's last byte arrives.  The reader round-robins
  over its session slots; each slot plays one seeded session script at a
  time (:mod:`bench.streams`), deletes the session when the script ends,
  and starts a fresh one, so back-stack depth — and with it response
  size — stays stationary however long the run.
* :class:`Writer` — an open loop: ingest batches fall due on a fixed
  schedule whether or not the server keeps up, and each is timed from
  when it was due.  Between batches the writer polls ``/healthz`` every
  50 ms to see when each batch becomes visible to readers.

While requests are out the loop also times the host probe
(:mod:`bench.host`), from which the end-to-end times are adjusted.

The run has two phases: a warm-up, then the timed window; only ops
that start inside the window count.  Sessions run on across the
boundary: were every slot to open a fresh session at the window start,
the window would begin with a burst of landing panes and the click mix
would drift across it.  Response bodies are checked for the
``{"ok":true`` prefix only (canonical JSON puts ``ok`` first); the few
bodies the writer needs (ingest acks, health) are small, and the bodies
of sampled ops are kept for verification after the window.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .host import HostProbe
from .streams import Op, Request, healthz, ingest, metrics

OK_PREFIX = b'{"ok":true'
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Phases:
    """Absolute ``perf_counter`` times: warm-up start, window, end."""

    start: float
    window_start: float
    window_end: float

    def phase(self, now: float) -> str:
        return "run" if now >= self.window_start else "warm"


@dataclass
class Exchange:
    """One completed request/response."""

    request: Request
    due: float
    sent: float
    done: float
    status: int
    ok: bool
    size: int
    body: bytes | None = None
    error: str | None = None


@dataclass
class OpRecord:
    """One completed op with its timing and (if sampled) its bodies."""

    op: Op
    phase: str
    slot: int
    generation: int
    index: int
    start: float
    end: float
    ok: bool
    exchanges: list[Exchange] = field(default_factory=list)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


class Slot:
    """One concurrent session position in a reader's round-robin."""

    def __init__(self, index: int, script: Callable[[int, int], Iterator[Op]]):
        self.index = index
        self._script = script
        self.generation = -1
        #: 1-based position of the last op handed out in this session
        self.position = 0
        self._ops: Iterator[Op] | None = None

    def next_op(self) -> Op:
        op = next(self._ops, None) if self._ops is not None else None
        if op is None:
            self.generation += 1
            self.position = 0
            self._ops = self._script(self.index, self.generation)
            op = next(self._ops)
        self.position += 1
        return op


class Sampler:
    """Picks the sessions whose response bodies are kept for verification.

    For each chosen slot, the first session that starts inside the
    window is kept whole (so the replay can start from its create), up
    to ``budget`` ops over all slots.
    """

    def __init__(self, slots: set[int], budget: int):
        self.slots = slots
        self.budget = budget
        #: slot -> the generation being kept
        self.chosen: dict[int, int] = {}

    def keep(self, slot: Slot, in_window: bool) -> bool:
        if slot.index not in self.slots:
            return False
        if slot.index not in self.chosen:
            if not (in_window and slot.position == 1):
                return False
            self.chosen[slot.index] = slot.generation
        if self.chosen[slot.index] != slot.generation or self.budget <= 0:
            return False
        self.budget -= 1
        return True


class Reader:
    """A closed-loop driver over session slots."""

    def __init__(self, slots: list[Slot], phases: Phases, sampler: Sampler):
        self.slots = slots
        self.phases = phases
        self.sampler = sampler
        self.ops: list[OpRecord] = []
        self.failures: dict[str, int] = {}
        #: The ``/metrics`` snapshot fetched once as the window opens, so
        #: the traced run can take deltas over the window.
        self.metrics_at_start: dict | None = None
        self._cursor = 0
        self._op: Op | None = None
        self._record: OpRecord | None = None
        self._keep = False
        self._next = 0
        self.finished = False

    def wake_at(self) -> float:
        return float("inf")

    def next_request(self, now: float) -> tuple[Request, float] | None:
        if self._op is not None and self._next < len(self._op.requests):
            return self._op.requests[self._next], now
        if now >= self.phases.window_end:
            self.finished = True
            return None
        phase = self.phases.phase(now)
        if phase == "run" and self.metrics_at_start is None:
            self._begin(Op("probe", "", [metrics()]), phase, None)
        else:
            slot = self.slots[self._cursor]
            self._cursor = (self._cursor + 1) % len(self.slots)
            self._begin(slot.next_op(), phase, slot)
        return self._op.requests[0], now

    def _begin(self, op: Op, phase: str, slot: Slot | None) -> None:
        self._op = op
        self._next = 0
        self._keep = (
            slot is not None
            and op.kind != "cleanup"
            and self.sampler.keep(slot, phase == "run")
        )
        self._record = OpRecord(
            op, phase,
            slot.index if slot else -1,
            slot.generation if slot else -1,
            slot.position - 1 if slot else -1,
            0.0, 0.0, True,
        )

    def on_response(self, exchange: Exchange) -> None:
        record = self._record
        if self._next == 0:
            record.start = exchange.sent
        self._next += 1
        record.ok = record.ok and exchange.ok
        if not exchange.ok:
            key = exchange.error or f"HTTP{exchange.status}"
            self.failures[key] = self.failures.get(key, 0) + 1
        if not (self._keep or record.op.kind == "probe"):
            exchange.body = None
        record.exchanges.append(exchange)
        if self._next < len(record.op.requests):
            return
        record.end = exchange.done
        if record.op.kind == "probe":
            self.metrics_at_start = (
                json.loads(exchange.body)["result"] if exchange.ok else {}
            )
        else:
            self.ops.append(record)
        self._op = None


@dataclass
class Batch:
    """One ingest batch as the writer saw it (``perf_counter`` times)."""

    due: float
    #: the transaction the server acknowledged, None if the ingest failed
    tx: int | None
    acked: float
    #: the first /healthz reply that showed the batch published
    visible: float | None = None


class Writer:
    """The open-loop ingest driver, polling health between batches."""

    POLL_S = 0.05
    METRICS_S = 1.0
    DRAIN_S = 10.0

    def __init__(self, batches: list[str], rate: float, phases: Phases):
        self.phases = phases
        self.schedule = []
        due = phases.start
        for text in batches:
            if due >= phases.window_end:
                break
            self.schedule.append((due, text))
            due += 1.0 / rate
        self._cursor = 0
        self._next_poll = phases.start
        self._next_metrics = phases.start
        self.head_tx = 0
        self.batches: list[Batch] = []
        self.health: list[tuple[float, int, int]] = []  # (time, lag, epoch)
        self.live_max = 0
        self.failures: dict[str, int] = {}
        self.finished = False
        self._sent_head = 0

    def wake_at(self) -> float:
        wake = min(self._next_poll, self._next_metrics)
        if self._cursor < len(self.schedule):
            wake = min(wake, self.schedule[self._cursor][0])
        return wake

    def _all_visible(self) -> bool:
        return all(b.visible is not None for b in self.batches if b.tx is not None)

    def next_request(self, now: float) -> tuple[Request, float] | None:
        if self._cursor < len(self.schedule):
            due, text = self.schedule[self._cursor]
            if due <= now:
                self._cursor += 1
                return ingest(text), due
        elif now >= self.phases.window_end and (
            self._all_visible() or now >= self.phases.window_end + self.DRAIN_S
        ):
            self.finished = True
            return None
        if self._next_metrics <= now:
            self._next_metrics = now + self.METRICS_S
            return metrics(), now
        if self._next_poll <= now:
            self._next_poll = now + self.POLL_S
            self._sent_head = self.head_tx
            return healthz(), now
        return None

    def on_response(self, exchange: Exchange) -> None:
        kind = exchange.request.kind
        if not exchange.ok:
            key = exchange.error or f"HTTP{exchange.status}"
            self.failures[key] = self.failures.get(key, 0) + 1
            if kind == "ingest":
                self.batches.append(Batch(exchange.due, None, exchange.done))
            return
        result = json.loads(exchange.body)["result"]
        if kind == "ingest":
            self.head_tx = max(self.head_tx, int(result["tx"]))
            self.batches.append(Batch(exchange.due, int(result["tx"]), exchange.done))
        elif kind == "healthz":
            lag = int(result.get("epoch_lag_tx", 0))
            self.health.append((exchange.done, lag, int(result.get("epoch", 0))))
            watermark = self._sent_head - lag
            for batch in self.batches:
                if (batch.visible is None and batch.tx is not None
                        and batch.tx <= watermark):
                    batch.visible = exchange.done
        elif kind == "metrics":
            gauges = result.get("gauges", {})
            self.live_max = max(self.live_max, int(gauges.get("epochs.live", 0)))
        exchange.body = None


# ----------------------------------------------------------------------
# The event loop
# ----------------------------------------------------------------------


class _Connection:
    __slots__ = (
        "driver", "sock", "out", "inbuf", "request", "due", "sent",
        "connected",
    )

    def __init__(self, driver):
        self.driver = driver
        self.sock: socket.socket | None = None
        self.out = bytearray()
        self.inbuf = bytearray()
        self.request: Request | None = None
        self.due = 0.0
        self.sent = 0.0
        self.connected = False


def _head(host: str, request: Request, body: bytes) -> bytes:
    lines = [
        f"{request.method} {request.path} HTTP/1.1",
        f"Host: {host}",
        "Connection: keep-alive",
        f"Content-Length: {len(body)}",
    ]
    if body:
        lines.append(f"Content-Type: {request.content_type}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class LoadLoop:
    """Runs drivers (one connection each) until every driver finishes."""

    def __init__(self, host: str, port: int, drivers: list, probe: HostProbe):
        if len(drivers) > 2:
            raise ValueError("the benchmark host budget is two connections")
        self.host = host
        self.port = port
        self.conns = [_Connection(d) for d in drivers]
        self.selector = selectors.DefaultSelector()
        #: Max over requests of (send time - due time), seconds.
        self.late_max = 0.0
        self.probe = probe

    def run(self) -> None:
        try:
            while True:
                now = time.perf_counter()
                active = False
                for conn in self.conns:
                    if conn.request is None and not conn.driver.finished:
                        nxt = conn.driver.next_request(now)
                        if nxt is not None:
                            self._send(conn, *nxt)
                    if conn.request is not None or not conn.driver.finished:
                        active = True
                if not active:
                    return
                self.probe.run(time.perf_counter())
                wake = min(
                    [c.driver.wake_at() for c in self.conns
                     if c.request is None and not c.driver.finished]
                    + [self.probe.next_at]
                )
                timeout = max(0.0, min(wake - time.perf_counter(), 0.05))
                for key, mask in self.selector.select(timeout):
                    self._on_event(key.data, mask)
                self._check_timeouts()
        finally:
            for conn in self.conns:
                self._close(conn)
            self.selector.close()

    # -- sending --------------------------------------------------------

    def _send(self, conn: _Connection, request: Request, due: float) -> None:
        body = request.body()
        conn.request = request
        conn.due = due
        conn.out = bytearray(_head(self.host, request, body) + body)
        conn.inbuf.clear()
        conn.sent = time.perf_counter()
        self.late_max = max(self.late_max, conn.sent - due)
        if conn.sock is None:
            self._connect(conn)
        else:
            self._flush(conn)

    def _connect(self, conn: _Connection) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            sock.connect((self.host, self.port))
        except BlockingIOError:
            pass
        conn.sock = sock
        conn.connected = False
        self.selector.register(
            sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
        )

    def _close(self, conn: _Connection) -> None:
        sock, conn.sock = conn.sock, None
        if sock is None:
            return
        try:
            self.selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _flush(self, conn: _Connection) -> None:
        while conn.out:
            try:
                sent = conn.sock.send(conn.out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as error:
                self._fail(conn, f"SendError:{type(error).__name__}")
                return
            del conn.out[:sent]
        events = selectors.EVENT_READ
        if conn.out:
            events |= selectors.EVENT_WRITE
        self.selector.modify(conn.sock, events, conn)

    # -- receiving ------------------------------------------------------

    def _on_event(self, conn: _Connection, mask: int) -> None:
        if conn.sock is None:
            return
        if mask & selectors.EVENT_WRITE:
            if not conn.connected:
                code = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if code:
                    self._fail(conn, "ConnectError")
                    return
                conn.connected = True
            self._flush(conn)
        if conn.sock is None or not mask & selectors.EVENT_READ:
            return
        try:
            chunk = conn.sock.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as error:
            self._fail(conn, f"RecvError:{type(error).__name__}")
            return
        if not chunk:
            self._fail(conn, "Disconnect")
            return
        conn.inbuf.extend(chunk)
        self._parse(conn)

    def _parse(self, conn: _Connection) -> None:
        end = conn.inbuf.find(b"\r\n\r\n")
        if end < 0:
            return
        head = bytes(conn.inbuf[:end]).decode("latin-1").split("\r\n")
        try:
            status = int(head[0].split()[1])
        except (IndexError, ValueError):
            self._fail(conn, "BadResponse")
            return
        headers = {}
        for line in head[1:]:
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if len(conn.inbuf) < end + 4 + length:
            return
        done = time.perf_counter()
        body = bytes(conn.inbuf[end + 4:end + 4 + length])
        del conn.inbuf[:end + 4 + length]
        ok = status == 200 and body.startswith(OK_PREFIX)
        exchange = Exchange(
            conn.request, conn.due, conn.sent, done, status, ok, len(body),
            body=body,
        )
        if headers.get("connection", "").lower() != "keep-alive":
            self._close(conn)
        conn.request = None
        conn.driver.on_response(exchange)

    def _fail(self, conn: _Connection, error: str) -> None:
        request = conn.request
        self._close(conn)
        if request is None:
            return
        now = time.perf_counter()
        conn.request = None
        conn.driver.on_response(
            Exchange(request, conn.due, conn.sent, now, 0, False, 0, error=error)
        )

    def _check_timeouts(self) -> None:
        now = time.perf_counter()
        for conn in self.conns:
            if conn.request is not None and now - conn.sent > REQUEST_TIMEOUT_S:
                self._fail(conn, "Timeout")
