"""The sharded serving tier: session-affinity routing over workers.

:class:`ShardedServer` is the multi-process answer to the GIL: it owns
``procs`` worker processes (:mod:`repro.net.worker`), each a complete
single-process :class:`~repro.net.server.NavigationServer` over its own
frozen workspace replica, and routes every session-scoped request to
the worker that owns the session::

    shard(name) = crc32(name) % procs

The hash is :func:`zlib.crc32` — stable across processes and runs
(``hash()`` is salted by ``PYTHONHASHSEED`` and must never leak into
routing) — so a session's commands always land on the same worker and
the per-session lock and telemetry semantics of the single-process
server carry over unchanged.

The front door is the same :class:`~repro.net.front.Front` the
single-process server uses — one event loop, framing, per-request
deadlines, bounded admission (typed ``ServerOverloaded``), keep-alive
and the "stop admitting, finish in-flight" half of drain — under the
``router.*`` metric prefix.  The router plugs in one handler:

* **session routes** are forwarded over persistent keep-alive upstream
  connections whose sockets sit on the front's own selector (at most
  one per worker thread, so a worker is never oversubscribed).
  Responses are copied back **byte for byte** — both sides build
  payloads with :mod:`repro.net.protocol`, so the differential wire
  check passes against a sharded server exactly as it does against a
  single process.  A dead worker yields an immediate typed
  ``WorkerUnavailable`` 503, never a hang;
* **control routes** — ``/healthz``, ``/metrics`` and ``GET /sessions``
  (which query and merge every worker, via
  :func:`repro.obs.merge_snapshots` for metrics) and ``/ingest`` (a
  write-all fan-out) — block on workers, so they run on the front's
  pool, never on the loop: a slow worker delays them, not navigation on
  the other shards.

Graceful drain stops admitting, lets waiting and in-flight requests
finish, then sends each worker exactly one drain message; each session
lives on exactly one worker and each worker saves exactly once, so
every session file is written atomically exactly once.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import threading
import time
import zlib
from collections import deque
from typing import Any, Optional

from ..obs import MetricsRegistry, merge_snapshots
from .front import Exchange, Front
from .httpio import Request, content_length, find_head, parse_head
from .protocol import (
    BadRequest,
    MethodNotAllowed,
    NetError,
    NotFound,
    WorkerUnavailable,
    canonical_json,
    error_envelope,
    ok_envelope,
)
from .server import DrainReport, ServerConfig
from .worker import DatasetSpec, WorkerHandle

__all__ = ["ShardedServer", "shard_for"]

_READ = selectors.EVENT_READ
_READ_WRITE = selectors.EVENT_READ | selectors.EVENT_WRITE


def shard_for(name: str, procs: int) -> int:
    """The worker index that owns session ``name`` (stable everywhere)."""
    return zlib.crc32(name.encode("utf-8")) % procs


# ----------------------------------------------------------------------
# Upstream connection state
# ----------------------------------------------------------------------


class _Upstream:
    """One persistent keep-alive connection to a worker process."""

    __slots__ = ("sock", "shard", "state", "outbuf", "inbuf", "exchange")

    CONNECTING = 0
    BUSY = 1
    IDLE = 2

    def __init__(self, sock: socket.socket, shard: "_Shard"):
        self.sock = sock
        self.shard = shard
        self.state = _Upstream.CONNECTING
        self.outbuf = bytearray()
        self.inbuf = bytearray()
        self.exchange: Optional[Exchange] = None


class _Shard:
    """A worker process plus its upstream pool and wait queue."""

    __slots__ = ("index", "handle", "port", "idle", "conns", "pending")

    def __init__(self, index: int, handle: WorkerHandle, port: int):
        self.index = index
        self.handle = handle
        self.port = port
        self.idle: list[_Upstream] = []
        #: Live upstream connections (all states) — capped at the
        #: worker's thread count so the worker is never oversubscribed.
        self.conns = 0
        #: (exchange, forward_bytes) waiting for a slot.
        self.pending: deque[tuple[Exchange, bytes]] = deque()


# ----------------------------------------------------------------------
# The sharded server
# ----------------------------------------------------------------------


class ShardedServer:
    """``procs`` worker processes behind one session-affinity router."""

    def __init__(
        self,
        spec: DatasetSpec,
        config: ServerConfig | None = None,
        procs: int = 2,
        start_method: str | None = None,
    ):
        if procs < 1:
            raise ValueError("procs must be >= 1")
        self.spec = spec
        self.config = config if config is not None else ServerConfig()
        self.procs = procs
        self.start_method = start_method
        self.metrics = MetricsRegistry()
        self._front = Front(self.config, self._route, self.metrics, "router")
        self._forwarded = self.metrics.counter("router.forwarded")
        self._worker_errors = self.metrics.counter("router.worker_errors")
        self._shards: list[_Shard] = []
        self._started = False
        #: Serializes ingest fan-outs so every replica applies batches
        #: in the same order.
        self._ingest_lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self._final_report: DrainReport | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardedServer":
        if self._started:
            raise RuntimeError("server already started")
        # Workers fork/spawn BEFORE the front's threads exist, so a fork
        # never duplicates a running event loop.
        manager = None
        method = self.start_method
        if method is None:
            import multiprocessing

            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else methods[0]
        if method == "fork":
            # Build the dataset once; every fork inherits it COW.
            from ..service.manager import SessionManager

            manager = SessionManager(self.spec.build_workspace())
        handles = [
            WorkerHandle(
                index,
                self._worker_config(),
                spec=self.spec,
                manager=manager,
                start_method=method,
            )
            for index in range(self.procs)
        ]
        try:
            self._shards = [
                _Shard(index, handle, handle.wait_ready())
                for index, handle in enumerate(handles)
            ]
        except Exception:
            for handle in handles:
                handle.terminate()
            raise
        self._front.start()
        self._started = True
        return self

    def _worker_config(self) -> ServerConfig:
        # Workers listen on ephemeral localhost ports; every other knob
        # (pool size, deadline, body cap) carries over so one worker
        # behaves exactly like the single-process server.
        return ServerConfig(
            host="127.0.0.1",
            port=0,
            workers=self.config.workers,
            queue_limit=self.config.queue_limit,
            request_deadline=self.config.request_deadline,
            max_body=self.config.max_body,
            keepalive_idle=max(30.0, self.config.keepalive_idle),
            ingest=self.config.ingest,
            publish_sync=self.config.publish_sync,
        )

    @property
    def address(self) -> tuple[str, int]:
        return self._front.address

    @property
    def worker_ports(self) -> list[int]:
        return [shard.port for shard in self._shards]

    def __enter__(self) -> "ShardedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.drain()

    def drain(
        self,
        save_dir: str | os.PathLike | None = None,
        timeout: float = 30.0,
    ) -> DrainReport:
        """Stop admitting, finish in-flight work, drain every worker once."""
        deadline = time.monotonic() + timeout
        self._front.drain(timeout)
        with self._drain_lock:
            if self._final_report is not None:
                return self._final_report
            # ``served`` is the front's own count: workers also count the
            # forwarded requests, so summing both would double-count.
            served = self._front.served
            saved: list[str] = []
            dropped: list[str] = []
            for shard in self._shards:
                report = shard.handle.drain(
                    save_dir, timeout=max(1.0, deadline - time.monotonic())
                )
                saved.extend(report.get("saved", []))
                dropped.extend(report.get("dropped", []))
            self._final_report = DrainReport(
                served=served, saved=sorted(saved), dropped=sorted(dropped)
            )
        return self._final_report

    close = drain

    # ------------------------------------------------------------------
    # The front's handler (runs on the loop thread; never blocks)
    # ------------------------------------------------------------------

    def _route(self, exchange: Exchange) -> None:
        request = exchange.request
        method, path = request.method, request.path
        normalized = path.rstrip("/") or "/"
        if normalized in ("/healthz", "/metrics", "/ingest") or (
            normalized == "/sessions" and method == "GET"
        ):
            return self._front.submit(exchange, self._control)
        if normalized == "/sessions":
            if method != "POST":
                return self._front.fail(exchange, MethodNotAllowed("use POST"))
            # Route creation by the requested name; a malformed body goes
            # to shard 0, whose error reply is byte-identical to the
            # single-process server's.
            shard_index = 0
            try:
                parsed = json.loads(request.body.decode("utf-8"))
                name = parsed.get("name") if isinstance(parsed, dict) else None
                if isinstance(name, str) and name:
                    shard_index = shard_for(name, self.procs)
            except (ValueError, UnicodeDecodeError):
                shard_index = 0
            return self._forward(exchange, shard_index)
        parts = [p for p in normalized.split("/") if p]
        if len(parts) >= 2 and parts[0] == "sessions" and len(parts) <= 3:
            return self._forward(exchange, shard_for(parts[1], self.procs))
        self._front.fail(exchange, NotFound(f"no route for {method} {path}"))

    # -- forwarding -----------------------------------------------------

    def _forward(self, exchange: Exchange, shard_index: int) -> None:
        shard = self._shards[shard_index]
        request = exchange.request
        head = (
            f"{request.method} {request.path} HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(request.body)}\r\n"
            f"Connection: keep-alive\r\n"
            f"\r\n"
        ).encode("latin-1")
        # Requests that expired or lost their client while queued behind
        # a stuck worker are already answered; forget them.
        while shard.pending and not self._front.is_waiting(shard.pending[0][0]):
            shard.pending.popleft()
        shard.pending.append((exchange, head + request.body))
        self._forwarded.inc()
        self._pump_shard(shard)

    def _pump_shard(self, shard: _Shard) -> None:
        while shard.pending:
            upstream = self._acquire_upstream(shard)
            if upstream is None:
                return
            exchange, wire = shard.pending.popleft()
            if not self._front.claim(exchange):
                self._release_upstream(upstream)
                continue
            upstream.exchange = exchange
            upstream.state = _Upstream.BUSY
            upstream.outbuf.extend(wire)
            self._flush_upstream(upstream)

    def _acquire_upstream(self, shard: _Shard) -> Optional[_Upstream]:
        while shard.idle:
            upstream = shard.idle.pop()
            if upstream.sock.fileno() >= 0:
                return upstream
        if shard.conns >= self.config.workers:
            return None
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        upstream = _Upstream(sock, shard)
        try:
            sock.connect(("127.0.0.1", shard.port))
        except BlockingIOError:
            pass
        except OSError:
            _close(sock)
            self._fail_shard_head(shard)
            return None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        shard.conns += 1
        self._front.register(
            sock,
            _READ_WRITE,
            (lambda mask: self._on_upstream_event(upstream, mask),
             lambda: self._fail_upstream(upstream)),
        )
        return upstream

    def _fail_shard_head(self, shard: _Shard) -> None:
        """Connection to the worker refused: fail the oldest queued request."""
        if not shard.pending:
            return
        exchange, _wire = shard.pending.popleft()
        self._worker_errors.inc()
        self._front.fail(exchange, WorkerUnavailable(
            f"worker {shard.index} is not responding; session shard offline"
        ))

    def _release_upstream(self, upstream: _Upstream) -> None:
        upstream.exchange = None
        upstream.state = _Upstream.IDLE
        upstream.shard.idle.append(upstream)

    def _on_upstream_event(self, upstream: _Upstream, mask: int) -> None:
        if upstream.state == _Upstream.CONNECTING:
            error_code = upstream.sock.getsockopt(
                socket.SOL_SOCKET, socket.SO_ERROR
            )
            if error_code != 0:
                self._fail_upstream(upstream)
                return
            upstream.state = (
                _Upstream.BUSY if upstream.exchange is not None else _Upstream.IDLE
            )
        if mask & selectors.EVENT_WRITE:
            self._flush_upstream(upstream)
        if mask & _READ:
            try:
                chunk = upstream.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._fail_upstream(upstream)
                return
            if chunk == b"":
                self._fail_upstream(upstream)
                return
            upstream.inbuf.extend(chunk)
            self._advance_upstream(upstream)

    def _flush_upstream(self, upstream: _Upstream) -> None:
        if upstream.state == _Upstream.CONNECTING:
            return
        while upstream.outbuf:
            try:
                sent = upstream.sock.send(upstream.outbuf)
            except (BlockingIOError, InterruptedError):
                self._front.set_mask(upstream.sock, _READ_WRITE)
                return
            except OSError:
                self._fail_upstream(upstream)
                return
            del upstream.outbuf[:sent]
        self._front.set_mask(upstream.sock, _READ)

    def _advance_upstream(self, upstream: _Upstream) -> None:
        head_end, body_start = find_head(upstream.inbuf)
        if head_end < 0:
            return
        try:
            first, headers = parse_head(bytes(upstream.inbuf[:head_end]))
            status = int(first[1])
            length = content_length(headers, 1 << 30)
        except (NetError, ValueError, IndexError):
            self._fail_upstream(upstream)
            return
        if len(upstream.inbuf) - body_start < length:
            return
        body = bytes(upstream.inbuf[body_start:body_start + length])
        del upstream.inbuf[: body_start + length]
        worker_keeps = headers.get("connection", "").lower() == "keep-alive"
        exchange, upstream.exchange = upstream.exchange, None
        shard = upstream.shard
        if worker_keeps:
            self._release_upstream(upstream)
        else:
            self._discard_upstream(upstream)
        if exchange is not None:
            self._front.respond(exchange, status, body)
        self._pump_shard(shard)

    def _fail_upstream(self, upstream: _Upstream) -> None:
        """The worker connection died; answer its request with a typed 503."""
        exchange, upstream.exchange = upstream.exchange, None
        was_busy = upstream.state == _Upstream.BUSY or exchange is not None
        shard = upstream.shard
        self._discard_upstream(upstream)
        if was_busy:
            self._worker_errors.inc()
        if exchange is not None:
            self._front.fail(exchange, WorkerUnavailable(
                f"worker {shard.index} dropped the connection mid-request"
            ))
        # If the worker is gone entirely, fail queued requests fast
        # instead of retrying a dead port once per loop tick.
        if not shard.handle.alive:
            while shard.pending:
                self._fail_shard_head(shard)

    def _discard_upstream(self, upstream: _Upstream) -> None:
        self._front.unregister(upstream.sock)
        _close(upstream.sock)
        upstream.state = _Upstream.IDLE
        shard = upstream.shard
        shard.conns = max(0, shard.conns - 1)
        if upstream in shard.idle:
            shard.idle.remove(upstream)

    # ------------------------------------------------------------------
    # Control plane (runs on the front's pool; may block on workers)
    # ------------------------------------------------------------------

    def _control(self, request: Request) -> tuple[int, bytes]:
        method, path = request.method, request.path.rstrip("/")
        if path == "/sessions":
            status, payload = 200, ok_envelope(self._merged_sessions())
        elif path == "/ingest":
            if method != "POST":
                raise MethodNotAllowed("use POST")
            with self._ingest_lock:
                status, payload = self._ingest_fanout(request.body)
        else:
            if method != "GET":
                raise MethodNotAllowed("use GET")
            result = self._health() if path == "/healthz" else self._merged_metrics()
            status, payload = 200, ok_envelope(result)
        return status, canonical_json(payload)

    def _worker_call(self, shard: _Shard, path: str) -> Any | None:
        from .client import NavigationClient, ServerError

        if not shard.handle.alive:
            return None
        try:
            client = NavigationClient("127.0.0.1", shard.port, timeout=5.0)
            return client.request("GET", path)
        except (ServerError, OSError) as error:
            self.metrics.counter("router.control_errors").inc()
            del error
            return None

    def _ingest_fanout(self, body: bytes) -> tuple[int, dict[str, Any]]:
        """Replicate one N-Triples batch to every worker, in order.

        Each worker holds a full replica, so ingestion is a write-all
        fan-out, not a shard pick.  The caller holds ``_ingest_lock``,
        so batches are serialized: every worker applies them in the
        same order from the same starting log, and all replicas mint
        the same tx — checked here: a tx mismatch means a diverged
        replica and is reported as a 503 rather than papered over.
        """
        from .client import NavigationClient, ServerError

        if not self.config.ingest:
            error = NotFound("this server was not started with --ingest")
            return error.status, error_envelope(error)
        if not body:
            error = BadRequest("an N-Triples body is required")
            return error.status, error_envelope(error)
        summaries: list[dict[str, Any]] = []
        for shard in self._shards:
            if not shard.handle.alive:
                self._worker_errors.inc()
                error = WorkerUnavailable(
                    f"worker {shard.index} is down; ingest not replicated"
                )
                return error.status, error_envelope(error)
            try:
                client = NavigationClient("127.0.0.1", shard.port, timeout=30.0)
                status, raw = client.request_raw(
                    "POST",
                    "/ingest",
                    raw=body,
                    content_type="application/n-triples",
                )
                summary = client._unwrap(status, raw)
            except ServerError as error:
                if error.status == 400 and not summaries:
                    # A malformed body fails on the first worker before
                    # any replica applied it: relay the client error.
                    bad = BadRequest(error.message)
                    return bad.status, error_envelope(bad)
                self._worker_errors.inc()
                failed = WorkerUnavailable(
                    f"worker {shard.index} rejected ingest: {error}"
                )
                return failed.status, error_envelope(failed)
            except OSError as error:
                self._worker_errors.inc()
                failed = WorkerUnavailable(
                    f"worker {shard.index} unreachable during ingest: {error}"
                )
                return failed.status, error_envelope(failed)
            summaries.append(summary)
        txs = {s.get("tx") for s in summaries}
        if len(txs) > 1:
            self.metrics.counter("router.ingest_divergence").inc()
            error = WorkerUnavailable(
                f"replicas diverged on ingest tx: {sorted(txs)}"
            )
            return error.status, error_envelope(error)
        merged = dict(summaries[0])
        merged["replicas"] = len(summaries)
        merged["epoch"] = min(s.get("epoch", 0) for s in summaries)
        merged["lag_tx"] = max(s.get("lag_tx", 0) for s in summaries)
        self.metrics.counter("router.ingests").inc()
        return 200, ok_envelope(merged)

    def _health(self) -> dict[str, Any]:
        workers = []
        sessions = 0
        for shard in self._shards:
            health = self._worker_call(shard, "/healthz")
            alive = health is not None
            if alive:
                sessions += int(health.get("sessions", 0))
            workers.append(
                {"shard": shard.index, "alive": alive, "port": shard.port}
            )
        return {
            "status": "serving" if self._front.accepting else "draining",
            "procs": self.procs,
            "sessions": sessions,
            "workers": self.config.workers,
            "queue_depth": self._front.waiting,
            "queue_limit": self.config.queue_limit,
            "shards": workers,
        }

    def _merged_metrics(self) -> dict[str, Any]:
        snapshots = [self.metrics.snapshot()]
        for shard in self._shards:
            snapshot = self._worker_call(shard, "/metrics")
            if snapshot is not None:
                snapshots.append(snapshot)
        return merge_snapshots(snapshots)

    def _merged_sessions(self) -> dict[str, Any]:
        names: list[str] = []
        for shard in self._shards:
            listing = self._worker_call(shard, "/sessions")
            if listing is not None:
                names.extend(listing.get("sessions", []))
        return {"sessions": sorted(names), "active": None}

    def __repr__(self) -> str:
        state = "serving" if self._front.accepting else "stopped"
        return f"<ShardedServer {state} procs={self.procs}>"


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass
