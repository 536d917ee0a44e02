"""The shared front door: one answer per request, under thread
interleavings, and every byte of it, however the body was handed over
and however slowly the client reads."""

import random
import socket
import sys
import threading
import time

import pytest

from repro.net import front as front_module
from repro.net.front import Front
from repro.net.protocol import Spliced, canonical_json, canonical_parts
from repro.net.server import ServerConfig
from repro.obs import MetricsRegistry

CLIENTS = 8
REQUESTS = 30


def _read_one(sock: socket.socket, buffer: bytearray) -> tuple[int, bytes]:
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, "the front closed a kept-alive connection"
        buffer.extend(chunk)
    head, _, rest = bytes(buffer).partition(b"\r\n\r\n")
    length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "the front closed mid-response"
        rest += chunk
    buffer[:] = rest[length:]
    return int(head.split(b" ", 2)[1]), rest[:length]


def test_every_pipelined_request_gets_exactly_one_answer_in_order():
    # More pool threads than cores, a tiny switch interval, and a
    # deadline short enough that the sweep expires requests while pool
    # threads race to claim them: a lost or doubled answer shows up as
    # a client reading the wrong body or hanging.
    config = ServerConfig(workers=3, queue_limit=1000, request_deadline=0.01)
    metrics = MetricsRegistry()
    front: Front

    def echo(request):
        # Mostly quick, sometimes slow enough that requests queued
        # behind it outlive their deadline and the sweep answers them.
        time.sleep(0.1 if random.random() < 0.3 else 0.001)
        return 200, request.body

    front = Front(config, lambda exchange: front.submit(exchange, echo),
                  metrics, "t")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    outcomes: dict[int, list] = {}
    try:
        front.start()

        def client(index: int) -> None:
            sock = socket.create_connection(front.address, timeout=10.0)
            wire = b"".join(
                (
                    f"POST /echo HTTP/1.1\r\nConnection: keep-alive\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("ascii") + body
                for body in (f"{index}:{n}".encode() for n in range(REQUESTS))
            )
            sock.sendall(wire)  # all pipelined at once
            buffer = bytearray()
            outcomes[index] = [_read_one(sock, buffer) for _ in range(REQUESTS)]
            sock.close()

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        front.drain(timeout=10.0)

    assert sorted(outcomes) == list(range(CLIENTS))
    for index, answers in outcomes.items():
        for n, (status, body) in enumerate(answers):
            assert status in (200, 504)
            if status == 200:
                assert body == f"{index}:{n}".encode()
    snapshot = metrics.snapshot()
    counters = snapshot["counters"]
    answered = counters.get("t.responses{status=200}", 0) + counters.get(
        "t.responses{status=504}", 0
    )
    assert answered == counters["t.requests"] == CLIENTS * REQUESTS
    # Each expiry answered exactly one request, never one that also ran.
    assert counters.get("t.deadline_expired", 0) == counters.get(
        "t.responses{status=504}", 0
    )
    assert front.served == CLIENTS * REQUESTS
    assert snapshot["gauges"]["t.queue_depth"] == 0


# ----------------------------------------------------------------------
# Gathered writes: a body handed over as pieces reaches the client whole
# ----------------------------------------------------------------------


def _pieces(count: int, size: int) -> list[bytes]:
    """Distinct pieces, so a lost, doubled or reordered one shows."""
    return [
        (b"%08d" % index) * (size // 8) for index in range(count)
    ]


class _Stub:
    """A front whose handler answers each path with a fixed body."""

    def __init__(self, bodies: dict):
        self.metrics = MetricsRegistry()
        self.front = Front(
            ServerConfig(workers=1),
            lambda exchange: self.front.submit(
                exchange, lambda request: (200, bodies[request.path])
            ),
            self.metrics,
            "t",
        )

    def __enter__(self):
        self.front.start()
        return self

    def __exit__(self, *exc_info):
        self.front.drain(timeout=10.0)

    def connect(self, rcvbuf: int | None = None) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.settimeout(10.0)
        sock.connect(self.front.address)
        return sock


def _get(path: str) -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nConnection: keep-alive\r\n"
        f"Content-Length: 0\r\n\r\n"
    ).encode("ascii")


def _count_flushes(monkeypatch) -> list:
    calls = []
    original = Front._flush

    def counting(self, conn):
        calls.append(conn)
        return original(self, conn)

    monkeypatch.setattr(Front, "_flush", counting)
    return calls


def test_a_slow_reader_gets_the_canonical_bytes(monkeypatch):
    # A 6 MB body of large and small pieces cannot fit the kernel's
    # buffers while the client is not reading, so the front writes it
    # in several partial gathers, resuming mid-piece.
    big = _pieces(600, 10_000)
    payload = {"ok": True, "result": {
        "state": Spliced([b'{"items":[', b",".join(
            b'"' + piece + b'"' for piece in big
        ), b"]}"]),
        "small": list(range(50)),
    }}
    parts = canonical_parts(payload)
    expected = canonical_json(payload)
    assert len(expected) > 6_000_000
    flushes = _count_flushes(monkeypatch)
    with _Stub({"/big": parts}) as stub:
        sock = stub.connect(rcvbuf=4096)
        sock.sendall(_get("/big"))
        time.sleep(0.3)  # let the front fill every buffer and wait
        status, body = _read_one(sock, bytearray())
        sock.close()
    assert status == 200
    assert body == expected
    assert len(flushes) > 1, "the body went out in one write"


def test_a_body_of_more_pieces_than_one_gather_takes_arrives_intact():
    pieces = _pieces(front_module._IOV_MAX + 50, front_module._SMALL_PIECE)
    with _Stub({"/many": pieces}) as stub:
        sock = stub.connect()
        sock.sendall(_get("/many"))
        status, body = _read_one(sock, bytearray())
        sock.close()
    assert status == 200
    assert body == b"".join(pieces)


def test_a_request_pipelined_behind_a_partial_write_is_answered_in_order(
    monkeypatch,
):
    big = _pieces(700, 10_000)
    flushes = _count_flushes(monkeypatch)
    with _Stub({"/big": big, "/small": [b"{", b'"x":1', b"}"]}) as stub:
        sock = stub.connect(rcvbuf=4096)
        sock.sendall(_get("/big") + _get("/small") + _get("/big"))
        time.sleep(0.3)
        buffer = bytearray()
        answers = [_read_one(sock, buffer) for _ in range(3)]
        sock.close()
    assert answers == [
        (200, b"".join(big)), (200, b'{"x":1}'), (200, b"".join(big))
    ]
    assert len(flushes) > 3, "no response was written in parts"


@pytest.mark.parametrize("how", ["reset", "end_of_stream"])
def test_a_client_gone_mid_write_is_one_disconnect_and_freed(how):
    # A close with unread bytes resets the connection, which the next
    # write meets; an end of stream while the front's buffers are full
    # reaches it as a read with no write possible.
    big = _pieces(700, 10_000)
    with _Stub({"/big": big}) as stub:
        sock = stub.connect(rcvbuf=4096)
        sock.sendall(_get("/big"))
        assert sock.recv(1024)  # the response has started
        time.sleep(0.1)
        if how == "end_of_stream":
            sock.shutdown(socket.SHUT_WR)
            time.sleep(0.2)
        sock.close()
        deadline = time.monotonic() + 10.0
        while stub.front._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not stub.front._conns
        assert not stub.front._busy()
        counters = stub.metrics.snapshot()["counters"]
    assert counters["t.disconnects"] == 1
    assert counters["t.responses{status=200}"] == 1
