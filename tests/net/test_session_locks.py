"""Per-session locks live exactly as long as their sessions.

The server serializes commands on one session under a lock kept per
session name.  A deleted session's lock must go with it, or a server
whose clients name sessions afresh (``s{slot}-{generation}``) grows
one lock per session it ever served; and a name that is deleted and
created again must never run commands under two locks at once.
"""

import json
import sys
import threading
import time

from repro.browser.session import Session
from repro.check.codec import command_to_dict
from repro.net.httpio import Request
from repro.net.server import NavigationServer
from repro.service import commands as cmd


def _call(server, method, path, body=None) -> int:
    raw = json.dumps(body).encode() if body is not None else b""
    status, _body = server._serve(Request(method, path, {}, raw))
    return status


#: Cheap to apply: on a fresh session it is a typed 422 (no chips),
#: taken under the session's lock like any other command.
_REMOVE = {"command": command_to_dict(cmd.RemoveConstraint(0))}


def test_the_lock_map_holds_only_live_sessions(manager):
    server = NavigationServer(manager)
    assert _call(server, "POST", "/sessions", {"name": "live"}) == 200
    assert _call(server, "POST", "/sessions/live/apply", _REMOVE) == 422
    for generation in range(1000):
        name = f"s0-{generation}"
        assert _call(server, "POST", "/sessions", {"name": name}) == 200
        assert _call(server, "POST", f"/sessions/{name}/apply", _REMOVE) == 422
        assert _call(server, "DELETE", f"/sessions/{name}") == 200
    # A command on a name no session holds leaves no lock behind either.
    assert _call(server, "POST", "/sessions/ghost/apply", _REMOVE) == 404
    assert set(server._session_locks) == {"live"}
    assert manager.names() == ["live"]


def test_a_recreated_name_never_runs_under_two_locks(manager, monkeypatch):
    # Threads delete, re-create and command a few names at once, with a
    # tiny switch interval: a request that waited on a dropped lock and
    # ran anyway would overlap a command on the re-created session.
    server = NavigationServer(manager)
    running: dict[str, int] = {}
    overlaps = []
    guard = threading.Lock()
    original = Session.apply

    def watched(session, command):
        name = session.state.session_id
        with guard:
            running[name] = running.get(name, 0) + 1
            if running[name] > 1:
                overlaps.append(name)
        try:
            time.sleep(0.0005)
            return original(session, command)
        finally:
            with guard:
                running[name] -= 1

    monkeypatch.setattr(Session, "apply", watched)
    names = ["a", "b"]
    stop = time.monotonic() + 2.0

    def churn(index: int) -> None:
        step = 0
        while time.monotonic() < stop:
            name = names[(index + step) % len(names)]
            roll = (index * 7 + step) % 5
            if roll == 0:
                _call(server, "DELETE", f"/sessions/{name}")
            elif roll == 1:
                _call(server, "POST", "/sessions", {"name": name})
            else:
                _call(server, "POST", f"/sessions/{name}/apply", _REMOVE)
            step += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert overlaps == []
    assert set(server._session_locks) <= set(manager.names())
