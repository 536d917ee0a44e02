"""Connection reuse: the keep-alive opt-in, idle sockets, drain-once."""

import socket
import time

import pytest

from repro.net import NavigationClient, NavigationServer, ServerConfig
from repro.service.manager import SessionManager


def _raw_roundtrip(sock: socket.socket, path: str, keep_alive: bool) -> bytes:
    connection = "keep-alive" if keep_alive else "close"
    sock.sendall(
        (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: test\r\n"
            f"Connection: {connection}\r\n"
            f"\r\n"
        ).encode("latin-1")
    )
    chunks = bytearray()
    while b"\r\n\r\n" not in chunks:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.extend(chunk)
    head = bytes(chunks).split(b"\r\n\r\n", 1)[0]
    length = 0
    for line in head.split(b"\r\n")[1:]:
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"content-length":
            length = int(value.strip())
    body_start = len(head) + 4
    while len(chunks) < body_start + length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.extend(chunk)
    return bytes(chunks)


class TestKeepAlive:
    def test_connection_is_reused_across_requests(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            for _ in range(5):
                raw = _raw_roundtrip(sock, "/healthz", keep_alive=True)
                assert raw.startswith(b"HTTP/1.1 200")
                assert b"Connection: keep-alive" in raw
        # Five requests, one TCP connection, zero disconnect telemetry.
        counters = server.obs.metrics.snapshot()["counters"]
        assert counters["net.requests"] >= 5
        assert counters.get("net.disconnects", 0) == 0

    def test_close_is_the_default_without_the_header(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
            )
            raw = bytearray()
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # the server closed: HTTP/1.1 default not honored
                raw.extend(chunk)
        assert b"Connection: close" in bytes(raw)

    def test_parked_connection_survives_a_quiet_gap(self, server):
        # Between requests the socket sits on the front's selector, not on a
        # worker thread; a later request must still be served.
        host, port = server.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            first = _raw_roundtrip(sock, "/healthz", keep_alive=True)
            assert first.startswith(b"HTTP/1.1 200")
            time.sleep(0.3)
            second = _raw_roundtrip(sock, "/metrics", keep_alive=True)
            assert second.startswith(b"HTTP/1.1 200")

    def test_parked_connections_do_not_pin_workers(self, manager):
        # More idle kept-alive connections than worker threads: if idle
        # sockets pinned workers, the final request would deadlock.
        config = ServerConfig(workers=2)
        with NavigationServer(manager, config) as server:
            host, port = server.address
            idle = [
                socket.create_connection((host, port), timeout=10.0)
                for _ in range(4)
            ]
            try:
                for sock in idle:
                    raw = _raw_roundtrip(sock, "/healthz", keep_alive=True)
                    assert raw.startswith(b"HTTP/1.1 200")
                # All four connections idle on the selector; a fresh one
                # must still get a worker immediately.
                with socket.create_connection((host, port), timeout=10.0) as extra:
                    raw = _raw_roundtrip(extra, "/healthz", keep_alive=True)
                    assert raw.startswith(b"HTTP/1.1 200")
            finally:
                for sock in idle:
                    sock.close()

    def test_client_keep_alive_mode_recovers_from_server_close(self, corpus):
        # The keep-alive client retries once on a fresh connection when
        # the server restarts (stale pooled socket).
        manager = SessionManager(corpus.workspace)
        config = ServerConfig(workers=2)
        server = NavigationServer(manager, config).start()
        host, port = server.address
        client = NavigationClient(host, port, timeout=10.0, keep_alive=True)
        try:
            assert client.healthz()["status"] == "serving"
            server.drain()
            server = NavigationServer(
                manager, ServerConfig(workers=2, port=port)
            ).start()
            # The pooled socket is dead; the retry path reconnects.
            assert client.healthz()["status"] == "serving"
        finally:
            client.close()
            server.drain()


class TestDrainOnce:
    def test_double_drain_saves_sessions_once(self, tmp_path, manager):
        with NavigationServer(manager, ServerConfig(workers=2)) as server:
            host, port = server.address
            client = NavigationClient(host, port, timeout=10.0)
            client.create_session("once")
            client.apply("once", {"c": "Search", "text": "salad"})

            first = server.drain(save_dir=tmp_path)
            assert first.saved == ["once"]
            stamp = (tmp_path / "once.json").stat().st_mtime_ns
            second = server.drain(save_dir=tmp_path)
            assert second.saved == []  # already written by the first call
            assert (tmp_path / "once.json").stat().st_mtime_ns == stamp

    def test_drain_closes_parked_connections(self, manager):
        with NavigationServer(manager, ServerConfig(workers=2)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=10.0)
            raw = _raw_roundtrip(sock, "/healthz", keep_alive=True)
            assert raw.startswith(b"HTTP/1.1 200")
            server.drain()
            # The idle socket is closed by the drain, not leaked.
            sock.settimeout(5.0)
            assert sock.recv(1) == b""
            sock.close()
