"""The single-process JSON-over-HTTP server for the session manager.

The ROADMAP's serving posture made concrete: one process holds ONE
frozen :class:`~repro.core.workspace.Workspace` and a
:class:`~repro.service.manager.SessionManager` of light per-user
sessions; this server puts that stack behind a network boundary.

The front door — listener, event loop, framing, per-request deadlines,
bounded admission (typed ``ServerOverloaded``), keep-alive and the
worker pool — is the shared :class:`~repro.net.front.Front`.  This
module plugs in one handler: every framed request runs
:meth:`NavigationServer._dispatch` on a pool thread and is encoded
there; per-session mutation is serialized by a per-session lock, and
the shared substrate's telemetry is lock-guarded (PR-3).
:meth:`NavigationServer.drain` stops admitting, finishes every waiting
and in-flight transition, then saves every session atomically through
the PR-4 :data:`~repro.service.manager.StateWriter` seam.

Every request is traced (``net.request`` spans) and counted (the
front's ``net.*`` request/rejection/disconnect counters, queue-depth
gauge and latency histogram) through the workspace's :mod:`repro.obs`
bundle.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any

from ..check.codec import command_from_dict
from ..service.manager import SessionManager
from ..service.serialize import (
    StateSerializationError,
    predicate_from_dict,
)
from .front import Exchange, Front
from .httpio import Request
from .protocol import (
    BadRequest,
    MethodNotAllowed,
    NetError,
    NotFound,
    canonical_json,
    error_envelope,
    ok_envelope,
    session_payload,
    status_for,
    suggestions_payload,
    transition_payload,
)

__all__ = ["ServerConfig", "DrainReport", "NavigationServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Capacity knobs; the defaults suit tests and small deployments."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick an ephemeral port
    workers: int = 4
    #: Complete requests admitted but not yet started; beyond this the
    #: front answers ServerOverloaded.
    queue_limit: int = 32
    #: Seconds from a request's first byte to the start of its work.
    request_deadline: float = 10.0
    max_body: int = 1 << 20
    #: Seconds a kept-alive connection may sit idle before it is closed.
    keepalive_idle: float = 10.0
    #: Accept live ingestion: attach an EpochManager to the manager so
    #: ``POST /ingest`` works.  Workers in the sharded tier read this to
    #: build their epoch manager post-fork.
    ingest: bool = False
    #: How often (seconds) the background reindexer folds ingested
    #: datoms into a new epoch.  Only meaningful when the manager has an
    #: EpochManager attached.
    publish_interval: float = 0.2
    #: Publish synchronously inside each ``POST /ingest`` instead of in
    #: the background thread — deterministic for tests, higher ingest
    #: latency in production.
    publish_sync: bool = False


@dataclass
class DrainReport:
    """What a graceful shutdown accomplished."""

    served: int
    saved: list[str]
    dropped: list[str]

    @property
    def ok(self) -> bool:
        return not self.dropped


class NavigationServer:
    """Serves one SessionManager over HTTP with bounded concurrency."""

    def __init__(self, manager: SessionManager, config: ServerConfig | None = None):
        self.manager = manager
        self.config = config if config is not None else ServerConfig()
        self.obs = manager.workspace.obs
        self._front = Front(self.config, self._handle, self.obs.metrics, "net")
        self._started = False
        #: Serializes manager-level mutation (create/remove/save).
        self._manager_lock = threading.Lock()
        #: name -> per-session lock; commands on one session serialize,
        #: different sessions proceed in parallel.
        self._session_locks: dict[str, threading.RLock] = {}
        self._locks_guard = threading.Lock()
        #: Guards the one-shot parts of drain (pool stop, session saves).
        self._drain_lock = threading.Lock()
        self._saves_done = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "NavigationServer":
        """Bind, listen, and start the front's loop and worker pool."""
        if self._started:
            raise RuntimeError("server already started")
        self._front.start()
        self._started = True
        epochs = self.manager.epochs
        if epochs is not None and not self.config.publish_sync:
            # Started here, not at construction: reindexer threads must
            # be born in the serving process (threads don't survive a
            # fork into a worker).
            epochs.start_reindexer(self.config.publish_interval)
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — read after :meth:`start`."""
        return self._front.address

    def __enter__(self) -> "NavigationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.drain()

    def drain(
        self,
        save_dir: str | os.PathLike | None = None,
        timeout: float = 30.0,
    ) -> DrainReport:
        """Graceful shutdown: stop admitting, finish, persist.

        Already-admitted requests (waiting or in flight) are completed —
        their transitions land and their responses are delivered — then
        the front's threads exit and, when ``save_dir`` is given, every
        named session's state is written atomically (temp file + rename
        via the StateWriter seam).  Idempotent; safe to call on a server
        that never started.
        """
        with self._drain_lock:
            if self._started:
                epochs = self.manager.epochs
                if epochs is not None:
                    # Stop folding; already-durable datoms replay on the
                    # next start, so nothing is lost by not publishing.
                    epochs.stop_reindexer(drain=False)
                self._front.drain(timeout)
                self._started = False

            saved: list[str] = []
            dropped: list[str] = []
            # Exactly-once: racing drains (a signal handler and an
            # atexit hook, say) must not both write session files — the
            # first caller holding a save_dir performs every save.
            if save_dir is not None and not self._saves_done:
                self._saves_done = True
                os.makedirs(save_dir, exist_ok=True)
                with self._manager_lock:
                    for name in self.manager.names():
                        target = os.path.join(
                            os.fspath(save_dir), f"{name}.json"
                        )
                        try:
                            self.manager.save(name, target)
                            saved.append(name)
                        except Exception:  # noqa: BLE001 - reported, not raised
                            dropped.append(name)
                            self.obs.metrics.counter("net.save_failures").inc()
        return DrainReport(served=self._front.served, saved=saved, dropped=dropped)

    close = drain

    # ------------------------------------------------------------------
    # The front's handler: dispatch and encode on a pool thread
    # ------------------------------------------------------------------

    def _handle(self, exchange: Exchange) -> None:
        self._front.submit(exchange, self._serve)

    def _serve(self, request: Request) -> tuple[int, bytes]:
        try:
            status, payload = self._dispatch(request)
        except NetError as error:
            status, payload = error.status, error_envelope(error)
        return status, canonical_json(payload)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _dispatch(self, request: Request) -> tuple[int, dict[str, Any]]:
        method, path = request.method, request.path.rstrip("/") or "/"
        with self.obs.tracer.span("net.request", method=method, path=path):
            if path == "/healthz":
                self._require(method, "GET")
                return 200, ok_envelope(self._health())
            if path == "/metrics":
                self._require(method, "GET")
                return 200, ok_envelope(self.obs.metrics.snapshot())
            if path == "/ingest":
                self._require(method, "POST")
                return self._ingest(request)
            if path == "/sessions":
                if method == "GET":
                    return 200, ok_envelope(self._list_sessions())
                self._require(method, "POST")
                return self._create_session(self._json_body(request))
            parts = [p for p in path.split("/") if p]
            if len(parts) >= 2 and parts[0] == "sessions":
                name = parts[1]
                if len(parts) == 2:
                    self._require(method, "DELETE")
                    return self._delete_session(name)
                if len(parts) == 3:
                    action = parts[2]
                    self._require(method, "POST")
                    if action == "apply":
                        return self._apply(name, self._json_body(request))
                    if action == "suggest":
                        return self._suggest(name)
                    if action == "preview":
                        return self._preview(name, self._json_body(request))
            raise NotFound(f"no route for {method} {request.path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise MethodNotAllowed(f"use {expected}")

    @staticmethod
    def _json_body(request: Request) -> dict[str, Any]:
        if not request.body:
            raise BadRequest("a JSON body is required")
        try:
            body = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise BadRequest(f"malformed JSON body: {error}") from None
        if not isinstance(body, dict):
            raise BadRequest("the JSON body must be an object")
        return body

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _health(self) -> dict[str, Any]:
        health = {
            "status": "serving" if self._front.accepting else "draining",
            "sessions": len(self.manager),
            "workers": self.config.workers,
            "queue_depth": self._front.waiting,
            "queue_limit": self.config.queue_limit,
        }
        epochs = self.manager.epochs
        if epochs is not None:
            health["epoch"] = epochs.current.number
            health["epoch_lag_tx"] = epochs.lag
        return health

    def _list_sessions(self) -> dict[str, Any]:
        with self._manager_lock:
            return {
                "sessions": self.manager.names(),
                "active": self.manager.active_name,
            }

    def _create_session(self, body: dict[str, Any]) -> tuple[int, dict]:
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise BadRequest("'name' must be a non-empty string")
        as_of = body.get("as_of")
        if as_of is not None and (
            not isinstance(as_of, int) or isinstance(as_of, bool) or as_of < 0
        ):
            raise BadRequest("'as_of' must be a non-negative integer tx id")
        try:
            with self._manager_lock:
                session = self.manager.create(name, as_of=as_of)
        except ValueError as error:
            return status_for(error), error_envelope(error)
        self.obs.metrics.counter("net.sessions_created").inc()
        if as_of is not None:
            self.obs.metrics.counter("net.sessions_as_of").inc()
        return 200, ok_envelope(session_payload(name, session.state))

    def _delete_session(self, name: str) -> tuple[int, dict]:
        with self._manager_lock:
            removed = self.manager.remove(name)
        return 200, ok_envelope({"removed": removed})

    def _ingest(self, request: Request) -> tuple[int, dict]:
        """Stream N-Triples into the head graph as one transaction.

        The body is raw N-Triples, not JSON.  Writers return as soon as
        the transaction is committed (and durable, when a store is
        attached); readers keep their pinned epochs until the reindexer
        publishes — zero reader disruption by construction.
        """
        epochs = self.manager.epochs
        if epochs is None:
            raise NotFound("this server was not started with --ingest")
        if not request.body:
            raise BadRequest("an N-Triples body is required")
        try:
            text = request.body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise BadRequest(f"body is not valid UTF-8: {error}") from None
        with self.obs.tracer.span("net.ingest", bytes=len(request.body)):
            try:
                summary = epochs.ingest_ntriples(text)
            except ValueError as error:
                raise BadRequest(f"malformed N-Triples: {error}") from None
        if self.config.publish_sync:
            epoch = epochs.publish()
            if epoch is not None:
                summary["epoch"] = epoch.number
                summary["lag_tx"] = epochs.lag
        self.obs.metrics.counter("net.ingests").inc()
        return 200, ok_envelope(summary)

    def _lock_for(self, name: str) -> threading.RLock:
        with self._locks_guard:
            lock = self._session_locks.get(name)
            if lock is None:
                lock = self._session_locks[name] = threading.RLock()
            return lock

    def _session(self, name: str):
        """The named session, migrated to the current epoch first.

        Callers hold the per-session lock, so the migration (a pure
        state re-materialization over the new snapshot) never races a
        command on the same session; different sessions migrate
        independently.
        """
        try:
            session = self.manager.get(name)
        except KeyError:
            raise NotFound(f"no session named {name!r}") from None
        if self.manager.epochs is not None:
            session = self.manager.sync_session(name)
        return session

    def _apply(self, name: str, body: dict[str, Any]) -> tuple[int, dict]:
        command_dict = body.get("command")
        if not isinstance(command_dict, dict):
            raise BadRequest("'command' must be a tagged command object")
        with self._lock_for(name):
            session = self._session(name)
            try:
                command = command_from_dict(command_dict)
            except StateSerializationError as error:
                return status_for(error), error_envelope(error)
            kind = type(command).__name__
            self.obs.metrics.counter(f"net.commands{{command={kind}}}").inc()
            with self.obs.tracer.span("net.apply", command=kind, session=name):
                try:
                    transition = session.apply(command)
                except Exception as error:  # noqa: BLE001 - typed envelope
                    self.obs.metrics.counter(
                        f"net.command_errors{{type={type(error).__name__}}}"
                    ).inc()
                    return status_for(error), error_envelope(error)
            return 200, ok_envelope(transition_payload(transition))

    def _suggest(self, name: str) -> tuple[int, dict]:
        with self._lock_for(name):
            session = self._session(name)
            with self.obs.tracer.span("net.suggest", session=name):
                result = session.suggestions()
            return 200, ok_envelope(suggestions_payload(result))

    def _preview(self, name: str, body: dict[str, Any]) -> tuple[int, dict]:
        predicate_dict = body.get("predicate")
        if not isinstance(predicate_dict, dict):
            raise BadRequest("'predicate' must be a tagged predicate object")
        mode = body.get("mode", "filter")
        with self._lock_for(name):
            session = self._session(name)
            try:
                predicate = predicate_from_dict(predicate_dict)
                count = session.preview_count(predicate, mode)
            except (StateSerializationError, ValueError) as error:
                return status_for(error), error_envelope(error)
            return 200, ok_envelope({"count": count})

    def __repr__(self) -> str:
        state = "serving" if self._front.accepting else "stopped"
        return f"<NavigationServer {state} sessions={len(self.manager)}>"
