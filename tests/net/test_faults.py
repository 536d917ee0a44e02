"""Fault injection at the socket level: every failure is typed.

Each test speaks raw HTTP through a bare socket so it can misbehave in
ways a well-formed client cannot — vanish mid-request, lie about the
body length, stall past the deadline — and asserts the server answers
with the right typed envelope (or counts the disconnect) while the
session state stays exactly where it was.
"""

import json
import socket
import threading
import time

import pytest

from repro.net import (
    DatasetSpec,
    NavigationClient,
    NavigationServer,
    ServerConfig,
    ShardedServer,
)
from repro.service import commands as cmd
from repro.service.manager import SessionManager

CORPUS_SEED = 20260807
#: Both tiers share one front door, so they share one fault suite.
TIERS = ("single", "sharded")


def _connect(server) -> socket.socket:
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10.0)
    return sock


def _read_response(sock: socket.socket) -> tuple[int, dict]:
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def _serve(tier: str, corpus, config: ServerConfig):
    if tier == "single":
        return NavigationServer(SessionManager(corpus.workspace), config)
    spec = DatasetSpec(kind="check_corpus", seed=CORPUS_SEED)
    return ShardedServer(spec, config, procs=2)


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii")


def _post(path: str, body: bytes, content_length: int | None = None) -> bytes:
    length = len(body) if content_length is None else content_length
    return (
        f"POST {path} HTTP/1.1\r\n"
        f"Content-Length: {length}\r\n"
        f"\r\n"
    ).encode("ascii") + body


class TestMalformedRequests:
    def test_malformed_json_body_is_400(self, server, client):
        client.create_session("s")
        sock = _connect(server)
        sock.sendall(_post("/sessions/s/apply", b"{not json"))
        status, envelope = _read_response(sock)
        sock.close()
        assert status == 400
        assert envelope["error"]["type"] == "BadRequest"
        assert "malformed JSON" in envelope["error"]["message"]

    def test_non_object_body_is_400(self, server, client):
        client.create_session("s")
        sock = _connect(server)
        sock.sendall(_post("/sessions/s/apply", b"[1,2]"))
        status, envelope = _read_response(sock)
        sock.close()
        assert status == 400
        assert envelope["error"]["type"] == "BadRequest"


class TestFraming:
    """Framing faults, answered by the front door of either tier."""

    @pytest.fixture(params=TIERS)
    def front_door(self, request, corpus):
        config = ServerConfig(workers=1, max_body=256, request_deadline=0.4)
        with _serve(request.param, corpus, config) as live:
            yield live

    def test_garbage_request_line_is_400(self, front_door):
        sock = _connect(front_door)
        sock.sendall(b"EHLO there\r\n\r\n")
        status, envelope = _read_response(sock)
        sock.close()
        assert status == 400
        assert envelope["error"]["type"] == "BadRequest"

    def test_declared_oversize_is_413_before_the_body_uploads(self, front_door):
        sock = _connect(front_door)
        # Declare a huge body but send none: the cap must trip on the
        # declaration, not after buffering a gigabyte.
        sock.sendall(_post("/sessions", b"", content_length=10_000_000))
        status, envelope = _read_response(sock)
        sock.close()
        assert status == 413
        assert envelope["error"]["type"] == "PayloadTooLarge"

    def test_stalled_body_is_504(self, front_door):
        sock = _connect(front_door)
        # Declare a body and never finish sending it; the per-request
        # deadline (0.4 s) must convert the stall into a typed 504, not
        # a hang.
        sock.sendall(_post("/sessions", b'{"na', 64))
        sock.settimeout(3.0)
        status, envelope = _read_response(sock)
        sock.close()
        assert status == 504
        assert envelope["error"]["type"] == "DeadlineExceeded"


class TestClientDisconnect:
    def test_disconnect_mid_body_is_counted_not_crashed(
        self, server, client, manager
    ):
        client.create_session("s")
        before = client.apply("s", cmd.Search("corn"))["state"]

        sock = _connect(server)
        # Promise 500 bytes, deliver 20, vanish.
        sock.sendall(_post("/sessions/s/apply", b'{"command": {"c": ', 500))
        time.sleep(0.1)
        sock.close()
        deadline = time.monotonic() + 5.0
        metrics = manager.workspace.obs.metrics
        while time.monotonic() < deadline:
            if metrics.counter("net.disconnects").value >= 1:
                break
            time.sleep(0.02)
        assert metrics.counter("net.disconnects").value >= 1

        # The half-request touched nothing: the next command builds on
        # the pre-disconnect state exactly.
        after = client.apply("s", cmd.SearchWithin("corn"))["state"]
        assert len(after["trail"]) == len(before["trail"]) + 1


class TestSilentSockets:
    @pytest.mark.parametrize("tier", TIERS)
    def test_silent_connections_do_not_delay_a_real_request(self, tier, corpus):
        # More connections that never send a byte than there are worker
        # threads and queue slots together: they must cost the front a
        # selector entry each, not a worker or an admission slot.
        config = ServerConfig(workers=2, queue_limit=4, request_deadline=3.0)
        with _serve(tier, corpus, config) as server:
            silent = [
                _connect(server)
                for _ in range(config.workers + config.queue_limit + 1)
            ]
            try:
                time.sleep(0.2)  # every silent socket is accepted
                sock = _connect(server)
                started = time.monotonic()
                sock.sendall(_get("/healthz"))
                status, envelope = _read_response(sock)
                elapsed = time.monotonic() - started
                sock.close()
            finally:
                for quiet in silent:
                    quiet.close()
        assert status == 200 and envelope["ok"]
        assert elapsed < 1.0  # well under the 3 s request deadline


class TestOverload:
    def test_queue_overflow_is_typed_503(self, corpus):
        manager = SessionManager(corpus.workspace)
        config = ServerConfig(workers=1, queue_limit=1, request_deadline=5.0)
        server = NavigationServer(manager, config)
        entered, release = threading.Event(), threading.Event()
        dispatch = server._dispatch

        def gated(request):
            entered.set()
            release.wait(10.0)
            return dispatch(request)

        server._dispatch = gated
        server.start()
        metrics = manager.workspace.obs.metrics
        held = []
        try:
            # A complete request holds the lone worker inside dispatch,
            # a second one fills the lone queue slot, and a third knocks.
            held.append(_connect(server))
            held[0].sendall(_get("/healthz"))
            assert entered.wait(5.0)
            held.append(_connect(server))
            held[1].sendall(_get("/healthz"))
            deadline = time.monotonic() + 5.0
            while metrics.snapshot()["gauges"]["net.queue_depth"] < 1:
                assert time.monotonic() < deadline, "request never queued"
                time.sleep(0.01)
            sock = _connect(server)
            sock.sendall(_get("/healthz"))
            status, envelope = _read_response(sock)
            sock.close()
            assert status == 503
            assert envelope["error"]["type"] == "ServerOverloaded"
            assert (
                metrics.counter("net.rejections{reason=overloaded}").value >= 1
            )
            # The admitted requests still complete once dispatch resumes.
            release.set()
            assert [_read_response(sock)[0] for sock in held] == [200, 200]
        finally:
            release.set()
            for sock in held:
                sock.close()
            server.drain(timeout=10.0)
