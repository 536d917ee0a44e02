"""Routes, typed service errors, metrics, and graceful drain."""

import json
import os

import pytest

from repro.net import NavigationClient, NavigationServer, ServerConfig
from repro.net.client import ServerError
from repro.service import commands as cmd
from repro.service.manager import SessionManager
from repro.service.serialize import StateSerializationError
from repro.service.state import SessionState


class TestRoutes:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "serving"
        assert health["workers"] == 2

    def test_create_list_delete(self, client):
        client.create_session("a")
        client.create_session("b")
        assert client.sessions()["sessions"] == ["a", "b"]
        assert client.delete_session("a") is True
        assert client.delete_session("a") is False
        assert client.sessions()["sessions"] == ["b"]

    def test_duplicate_create_is_a_typed_value_error(self, client):
        client.create_session("dup")
        with pytest.raises(ServerError) as excinfo:
            client.create_session("dup")
        assert excinfo.value.status == 422
        assert excinfo.value.error_type == "ValueError"

    def test_apply_returns_full_state(self, client, manager):
        client.create_session("s")
        result = client.apply("s", cmd.Search("corn"))
        # The wire state is the response form: the current view with
        # every item, the back stack as headers.  Saves keep the items.
        state = manager.get("s").state
        assert result["state"] == state.wire_dict()
        assert len(result["state"]["view"]["items"]) == len(state.view.items)
        [landing] = result["state"]["back_stack"]
        assert "items" not in landing
        assert landing["size"] == len(state.back_stack[0].items) > 0
        assert SessionState.from_dict(state.to_dict()) == state
        with pytest.raises(StateSerializationError):
            SessionState.from_dict(result["state"])  # not a save file

    def test_apply_unknown_session_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.apply("ghost", cmd.Search("x"))
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "NotFound"

    def test_service_exception_is_typed_422(self, client):
        client.create_session("s")
        with pytest.raises(ServerError) as excinfo:
            client.apply("s", cmd.RemoveConstraint(3))
        assert excinfo.value.status == 422
        assert excinfo.value.error_type == "IndexError"

    def test_failed_command_leaves_state_untouched(self, client):
        client.create_session("s")
        before = client.apply("s", cmd.Search("corn"))["state"]
        with pytest.raises(ServerError):
            client.apply("s", cmd.RemoveConstraint(99))
        after = client.apply("s", cmd.SearchWithin("corn"))["state"]
        # The failed command contributed nothing: the trail grew only
        # by the SearchWithin, on top of the original search.
        assert len(after["trail"]) == len(before["trail"]) + 1

    def test_unknown_route_is_404(self, client):
        status, body = client.request_raw("GET", "/nope")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "NotFound"

    def test_wrong_method_is_405(self, client):
        status, body = client.request_raw("GET", "/sessions/x/apply")
        assert status == 405
        assert json.loads(body)["error"]["type"] == "MethodNotAllowed"

    def test_preview_counts_without_applying(self, client, corpus):
        from repro.service.serialize import predicate_to_dict
        from repro.query.ast import TextMatch

        client.create_session("s")
        shown = client.apply("s", cmd.Search("corn"))["state"]
        count = client.preview("s", predicate_to_dict(TextMatch("corn")), "filter")
        assert count == len(shown["view"]["items"])


class TestMetrics:
    def test_request_and_command_counters_move(self, client):
        client.create_session("m")
        client.apply("m", cmd.Search("corn"))
        client.apply("m", cmd.Back())
        counters = client.metrics()["counters"]
        assert counters["net.requests"] >= 3
        assert counters["net.commands{command=Search}"] == 1
        assert counters["net.commands{command=Back}"] == 1
        assert counters["net.responses{status=200}"] >= 3

    def test_analysis_memo_gauges_after_two_landings(self, client):
        client.create_session("m1")
        first = client.suggest("m1")
        client.create_session("m2")
        assert client.suggest("m2") == first
        gauges = client.metrics()["gauges"]
        # The second landing is served from the memo, analyst for analyst.
        assert gauges["nav.analysis_memo.hits"] > 0
        assert gauges["nav.analysis_memo.hits"] == gauges["nav.analysis_memo.misses"]
        assert gauges["nav.analysis_memo.evictions"] == 0

    def test_latency_histogram_fills(self, client):
        client.healthz()
        snapshot = client.metrics()
        histogram = snapshot["histograms"]["net.request_ms"]
        assert histogram["count"] >= 1


class TestDrain:
    def test_drain_saves_every_session_atomically(self, corpus, tmp_path):
        manager = SessionManager(corpus.workspace)
        server = NavigationServer(manager, ServerConfig(workers=2)).start()
        host, port = server.address
        client = NavigationClient(host, port)
        for name in ("a", "b", "c"):
            client.create_session(name)
            client.apply(name, cmd.Search("corn"))
        report = server.drain(save_dir=tmp_path)
        assert report.ok
        assert sorted(report.saved) == ["a", "b", "c"]
        assert report.dropped == []
        # Every file is a loadable state, not a truncated fragment.
        fresh = SessionManager(corpus.workspace)
        for name in ("a", "b", "c"):
            path = os.path.join(tmp_path, f"{name}.json")
            session = fresh.load(name, path)
            assert session.state.view.is_collection

    def test_drain_is_idempotent_and_server_stops_answering(self, corpus):
        server = NavigationServer(
            SessionManager(corpus.workspace), ServerConfig(workers=1)
        ).start()
        host, port = server.address
        first = server.drain()
        second = server.drain()
        assert first.ok and second.ok
        client = NavigationClient(host, port, timeout=1.0)
        with pytest.raises(OSError):
            client.healthz()
