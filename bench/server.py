"""Starting, measuring and stopping the served program.

The server is always a separate process (``python -m repro serve``, or
the traced launcher), so it never shares an interpreter lock with the
load generator.  Set-up time is measured from ``Popen`` to the
``serving on`` banner, with the host probe (bench/host.py) timed
meanwhile; memory is the kernel's high-water mark (``VmHWM``) for the
server process.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

from .host import HostProbe
from .paths import OUT, ROOT, SRC

BANNER = re.compile(rb"serving on http://([0-9.]+):(\d+)")
BANNER_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 60.0


class ServerFailed(RuntimeError):
    """The server did not come up, or did not shut down cleanly."""


@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int
    #: measured spawn -> banner time, and the host factor over it
    setup_s: float
    setup_factor: float
    log_path: str

    def vm_hwm_mb(self) -> float:
        """Peak resident set size so far, from /proc (MB)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerFailed("no VmHWM in /proc status")

    def get_json(self, path: str) -> dict:
        """One blocking GET on its own connection (outside the window)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read())["result"]
        finally:
            conn.close()

    def terminate(self) -> None:
        """Stop a server that was started only to time its start-up.

        ``repro serve`` prints its banner before it starts handling
        SIGINT, so a drain requested right after the banner can kill it
        with a traceback instead; SIGTERM needs no handler.
        """
        self.process.terminate()
        try:
            self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise ServerFailed(f"server ignored SIGTERM; see {self.log_path}")

    def stop(self) -> str:
        """Graceful drain (SIGINT), then the output it printed."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            out, _err = process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            out, _err = process.communicate()
            raise ServerFailed(f"server did not drain; see {self.log_path}")
        if process.returncode != 0:
            raise ServerFailed(
                f"server exited {process.returncode}; see {self.log_path}"
            )
        return out.decode("utf-8", "replace")


def spawn(argv: list[str], label: str, probe: HostProbe) -> Server:
    """Start a server process and wait for its banner, timing ``probe`` meanwhile.

    ``argv`` is everything after the interpreter (``-m repro serve
    ...`` or the traced launcher's path and arguments).
    """
    OUT.mkdir(parents=True, exist_ok=True)
    log_path = OUT / f"{label}.server.log"
    env = dict(
        os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1", PYTHONHASHSEED="0"
    )
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
        )
    seen = bytearray()
    deadline = started + BANNER_TIMEOUT_S
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        while True:
            match = BANNER.search(seen)
            if match and seen.find(b"\n", match.start()) >= 0:
                setup_s = time.perf_counter() - started
                break
            now = time.perf_counter()
            remaining = deadline - now
            if remaining <= 0 or process.poll() is not None:
                process.kill()
                process.communicate()
                raise ServerFailed(
                    f"no banner from the server; see {log_path}"
                )
            probe.run(now)
            wait = max(0.0, min(remaining, probe.next_at - time.perf_counter()))
            if selector.select(wait):
                chunk = os.read(process.stdout.fileno(), 4096)
                if not chunk:
                    process.wait(timeout=5)
                    continue
                seen.extend(chunk)
    return Server(
        process, match.group(1).decode(), int(match.group(2)), setup_s,
        probe.factor(started, started + setup_s, around=0.0), str(log_path),
    )
