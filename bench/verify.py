"""The correctness gate, run after the window and outside its timing.

* **browse** — each sampled session's command prefix is replayed
  in process through a ``SessionManager`` over the same corpus the
  server built; every kept response must equal, byte for byte, the
  canonical JSON the replay produces (state, suggestions, preview
  counts).
* **facets** — kept preview counts and view sizes must equal the
  generator's naive set evaluation over its own copy of the data (the
  expectations travel with each op; the server's engine is not used).
* **ingest** — ``repro store verify`` must pass on the drained store,
  its ``last_tx`` must equal the last acknowledged transaction, and
  the final ``/healthz`` must show lag 0.

Every kept state body must also match the chip count and back-stack
depth the generator tracked.  Each function returns a list of mismatch
messages; each mismatch is one failed op.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from .paths import OUT, ROOT, SRC


def _state_counts(state: dict) -> tuple[int, int]:
    """(chips, back depth) as a state body reports them."""
    query = state["view"]["query"]
    if query is None:
        chips = 0
    elif query.get("t") == "and":
        chips = len(query["parts"])
    else:
        chips = 1
    return chips, len(state["back_stack"])


def check_tracking(records) -> list[str]:
    """Tracked chips/back against every kept state-returning body."""
    problems = []
    for record in records:
        expect = record.op.expect
        for exchange in record.exchanges:
            if exchange.body is None or exchange.request.kind not in (
                "create", "apply"
            ):
                continue
            state = json.loads(exchange.body)["result"]["state"]
            got = _state_counts(state)
            want = (expect["chips"], expect["back"])
            if got != want:
                problems.append(
                    f"{record.op.session} op {record.index}: tracked "
                    f"chips/back {want}, body says {got}"
                )
    return problems


def check_facets(records) -> list[str]:
    problems = []
    for record in records:
        expect = record.op.expect
        for exchange in record.exchanges:
            if exchange.body is None:
                continue
            result = json.loads(exchange.body)["result"]
            kind = exchange.request.kind
            if kind == "preview":
                got, want = result["count"], expect["count"]
            elif kind in ("create", "apply"):
                got, want = len(result["state"]["view"]["items"]), expect["size"]
            else:
                continue
            if got != want:
                problems.append(
                    f"{record.op.session} op {record.index} ({kind}): "
                    f"server says {got}, naive evaluation {want}"
                )
    return problems


def check_browse(records, corpus) -> list[str]:
    """Replay each sampled session in process and compare bytes."""
    from repro.check.codec import command_from_dict
    from repro.core.workspace import Workspace
    from repro.net.protocol import (
        canonical_json,
        ok_envelope,
        suggestions_payload,
        transition_payload,
    )
    from repro.service.manager import SessionManager
    from repro.service.serialize import predicate_from_dict

    workspace = Workspace(
        corpus.graph, schema=corpus.schema, items=corpus.items
    ).freeze()
    manager = SessionManager(workspace)
    problems = []
    sessions: dict[str, list] = {}
    for record in records:
        sessions.setdefault(record.op.session, []).append(record)
    for name, session_records in sessions.items():
        session = None
        for record in sorted(session_records, key=lambda r: r.index):
            bodies = [e.body for e in record.exchanges]
            for request, body in zip(record.op.requests, bodies):
                payload = request.payload
                try:
                    if request.kind == "create":
                        session = manager.create(name)
                        result = {"name": name, "state": session.state.to_dict()}
                    elif request.kind == "apply":
                        command = command_from_dict(payload["command"])
                        result = transition_payload(session.apply(command))
                    elif request.kind == "suggest":
                        result = suggestions_payload(session.suggestions())
                    elif request.kind == "preview":
                        predicate = predicate_from_dict(payload["predicate"])
                        result = {"count": session.preview_count(
                            predicate, payload["mode"]
                        )}
                    else:
                        continue
                except Exception as error:  # noqa: BLE001 - reported as a mismatch
                    problems.append(
                        f"{name} op {record.index} ({request.kind}): replay "
                        f"raised {type(error).__name__}: {error}"
                    )
                    break
                if body is None:
                    continue
                expected = canonical_json(ok_envelope(result))
                if expected != body:
                    where = _keep_mismatch(
                        f"{name}-{record.index}-{request.kind}", expected, body
                    )
                    problems.append(
                        f"{name} op {record.index} ({request.kind}): response "
                        f"differs from the in-process replay (both in {where})"
                    )
    return problems


def _keep_mismatch(stem: str, expected: bytes, got: bytes) -> str:
    """Write both sides of a mismatch under bench/out/mismatches/."""
    folder = OUT / "mismatches"
    folder.mkdir(parents=True, exist_ok=True)
    (folder / f"{stem}.expected.json").write_bytes(expected)
    (folder / f"{stem}.got.json").write_bytes(got)
    return str(folder / stem) + ".*"


def check_store(store_dir, last_acked_tx: int, final_lag: int) -> list[str]:
    """``repro store verify`` on the drained store, plus tx and lag."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "store", "verify", str(store_dir)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        timeout=120,
    )
    if completed.returncode != 0:
        return [f"repro store verify failed: {completed.stderr.decode()[-500:]}"]
    result = json.loads(completed.stdout)
    problems = []
    if not result.get("ok"):
        problems.append("repro store verify did not report ok")
    if result.get("last_tx") != last_acked_tx:
        problems.append(
            f"store last_tx {result.get('last_tx')} != last acked tx "
            f"{last_acked_tx}"
        )
    if final_lag != 0:
        problems.append(f"final /healthz lag is {final_lag}, not 0")
    return problems
