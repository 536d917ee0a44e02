"""End-to-end smoke: a mixed batch under concurrency, then drain."""

import os

import pytest

from repro.net import NavigationClient, NavigationServer, ServerConfig
from repro.net.loadgen import run_load
from repro.service.manager import SessionManager


class TestServeSmoke:
    def test_mixed_load_then_drain_drops_nothing(self, corpus, tmp_path):
        manager = SessionManager(corpus.workspace)
        server = NavigationServer(manager, ServerConfig(workers=4)).start()
        host, port = server.address

        report = run_load(
            host, port, clients=4, requests_per_client=25, sessions=5, seed=3
        )
        assert report.requests == 100
        assert report.ok > 0
        # Typed service errors are legitimate traffic; transport-level
        # failures (BadEnvelope, disconnects) are not.
        assert "BadEnvelope" not in report.errors
        assert report.p99_ms >= report.p50_ms > 0

        drain = server.drain(save_dir=tmp_path)
        assert drain.ok
        assert sorted(drain.saved) == [f"load-{i}" for i in range(5)]
        assert drain.dropped == []
        for name in drain.saved:
            assert os.path.getsize(os.path.join(tmp_path, f"{name}.json")) > 0

    def test_selftest_entry_point(self, monkeypatch, corpus):
        # The CI smoke path, minus the argparse layer: build a server
        # over a tiny corpus and run the same 50-command selftest.
        from repro.net.cli import _selftest

        manager = SessionManager(corpus.workspace)
        server = NavigationServer(manager, ServerConfig(workers=2)).start()
        assert _selftest(server) == 0

    def test_sigint_right_after_the_banner_still_drains(self, monkeypatch):
        # A SIGINT delivered the moment `repro serve` prints its banner
        # must drain and exit 0, not escape as a traceback.
        from repro.net import cli

        printed = []

        def interrupting_print(*args, **kwargs):
            text = " ".join(str(arg) for arg in args)
            printed.append(text)
            if text.startswith("serving on"):
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "print", interrupting_print, raising=False)
        try:
            code = cli.serve_main(
                ["recipes", "--size", "60", "--port", "0", "--workers", "1"]
            )
        except KeyboardInterrupt:
            pytest.fail("the SIGINT after the banner escaped serve_main")
        assert code == 0
        assert printed[-1].startswith("drained:")
