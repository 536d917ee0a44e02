"""End-to-end smoke: a mixed batch under concurrency, then drain."""

import os
import random
import threading

import pytest

from repro.net import NavigationClient, NavigationServer, ServerConfig, ServerError
from repro.net.cli import _smoke_command
from repro.service.manager import SessionManager


class TestServeSmoke:
    def test_mixed_load_then_drain_drops_nothing(self, corpus, tmp_path):
        manager = SessionManager(corpus.workspace)
        server = NavigationServer(manager, ServerConfig(workers=4)).start()
        host, port = server.address

        names = [f"load-{i}" for i in range(5)]
        setup = NavigationClient(host, port, timeout=10.0)
        for name in names:
            setup.create_session(name)

        # One answer per request: None for ok, the ServerError otherwise.
        # A transport failure kills its thread and shows as a short count.
        answers: list = []

        def drive(index: int) -> None:
            rng = random.Random(index)
            owned = names[index::4]
            with NavigationClient(
                host, port, timeout=10.0, keep_alive=True
            ) as client:
                for step in range(25):
                    try:
                        client.apply(owned[step % len(owned)], _smoke_command(rng))
                        answers.append(None)
                    except ServerError as error:
                        answers.append(error)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)

        assert len(answers) == 100
        assert None in answers
        # Typed service errors are legitimate traffic; a response that
        # is not an envelope at all is not.
        errors = [answer for answer in answers if answer is not None]
        assert all(error.error_type != "BadEnvelope" for error in errors)

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
