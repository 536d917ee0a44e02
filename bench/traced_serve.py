"""``repro serve`` with timing shims around each layer's entry points.

Usage::

    PYTHONPATH=src python bench/traced_serve.py TRACE.json -- <serve args>

The launcher replaces a fixed list of public callables (plus the
server's request dispatcher) with shims that record a span — name,
start, end, the span that was open on the same thread when it started,
the thread, and an optional tag — then runs
:func:`repro.net.cli.serve_main`.  Spans stay in memory; when the
server drains (SIGINT) they are written to ``TRACE.json``, together
with the measured cost of one shim call so the benchmark can report the
tracing overhead.  Nothing inside the program changes: spans sit
around the calls into each layer, which is what the benchmark can
attribute without editing the code it measures.
"""

from __future__ import annotations

import json
import sys
import threading
import time

clock = time.perf_counter


class Recorder:
    """Spans from every thread, kept as mutable lists until the dump."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def shim(self, original, name, tag=None):
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            record = [
                name(args) if callable(name) else name,
                clock(),
                0.0,
                stack[-1] if stack else None,
                threading.get_ident(),
                None,
            ]
            spans.append(record)
            stack.append(record)
            try:
                result = original(*args, **kwargs)
                if tag is not None:
                    record[5] = tag(args, result)
                return result
            finally:
                stack.pop()
                record[2] = clock()

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", "traced")
        return traced

    def wrap(self, owner, attr, name, tag=None):
        if isinstance(owner, type):
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, self.shim(original, name, tag))

    def dump(self, path: str, overhead_s: float) -> None:
        index = {id(record): i for i, record in enumerate(self.spans)}
        threads: dict[int, int] = {}
        rows = []
        for name, start, end, parent, thread, tag in self.spans:
            rows.append([
                name, start, end,
                index[id(parent)] if parent is not None else -1,
                threads.setdefault(thread, len(threads)),
                tag,
            ])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"clock": "perf_counter", "shim_overhead_s": overhead_s,
                 "spans": rows},
                handle,
            )


def calibrate() -> float:
    """Seconds one shim adds to a call (median of five timings)."""
    probe = Recorder()

    def noop(*_args):
        return None

    traced = probe.shim(noop, "calibration")
    samples = []
    for _ in range(5):
        start = clock()
        for _ in range(20_000):
            noop(1)
        raw = clock() - start
        start = clock()
        for _ in range(20_000):
            traced(1)
        samples.append((clock() - start - raw) / 20_000)
        probe.spans.clear()
    samples.sort()
    return max(samples[2], 0.0)


def install(recorder: Recorder) -> None:
    """Wrap each layer's entry points (see bench/README.md's layer map)."""
    from repro.browser.session import Session
    from repro.core.advisors import Advisor
    from repro.core.analysts import standard_analysts
    from repro.core.engine import NavigationEngine
    from repro.core.epochs import EpochManager
    from repro.core.workspace import Workspace
    from repro.datasets import recipes
    from repro.index.store import VectorStore
    from repro.index.textindex import TextIndex
    from repro.net import server as net_server
    from repro.query.engine import QueryEngine
    from repro.service.manager import SessionManager
    from repro.service.navigation import NavigationService
    from repro.store.segments import LogStore

    wrap = recorder.wrap
    wrap(net_server.NavigationServer, "_dispatch", "server.dispatch",
         tag=lambda args, _r: f"{args[1].method} {args[1].path}")
    wrap(net_server, "canonical_json", "encode.json",
         tag=lambda _a, result: len(result))
    wrap(net_server, "transition_payload", "encode.payload")
    wrap(net_server, "suggestions_payload", "encode.payload")
    wrap(SessionManager, "create", "session.create")
    wrap(SessionManager, "sync_session", "epochs.sync")
    wrap(Session, "apply", "session.apply")
    wrap(Session, "rebind", "epochs.migrate")
    wrap(Session, "preview_count", "service.preview")
    wrap(NavigationService, "apply", "service.apply")
    wrap(QueryEngine, "evaluate", "query.evaluate")
    wrap(QueryEngine, "count", "query.count")
    wrap(NavigationEngine, "suggest", "analysts.suggest",
         tag=lambda _a, r: [len(r.blackboard), len(r.all_suggestions())])
    for analyst_class in {type(a) for a in standard_analysts()}:
        for method in ("analyze", "on_posted"):
            if method in vars(analyst_class):
                wrap(analyst_class, method,
                     lambda args: f"analyst.{args[0].name}")
    wrap(Advisor, "select", "advisors.select")
    wrap(Workspace, "facet_profile", "facets.profile")
    wrap(Workspace, "__init__", "setup.workspace")
    wrap(VectorStore, "search", "index.vector_search")
    wrap(VectorStore, "search_text", "index.vector_search")
    wrap(TextIndex, "search", "index.text_search")
    wrap(EpochManager, "ingest", "epochs.ingest")
    wrap(EpochManager, "publish", "epochs.publish",
         tag=lambda _a, epoch: epoch is not None)
    wrap(LogStore, "replay_graph", "setup.corpus")
    wrap(LogStore, "append", "store.append")
    wrap(recipes, "build_corpus", "setup.corpus")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_serve.py TRACE.json -- <serve args>", file=sys.stderr)
        return 2
    trace_path, serve_args = argv[0], argv[2:]
    overhead_s = calibrate()
    recorder = Recorder()
    install(recorder)
    from repro.net.cli import serve_main

    try:
        return serve_main(serve_args)
    finally:
        recorder.dump(trace_path, overhead_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
