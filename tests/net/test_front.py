"""The shared front door under thread interleavings: one answer per request."""

import random
import socket
import sys
import threading
import time

from repro.net.front import Front
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
