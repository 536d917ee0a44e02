"""Durable-store timings on the shared 64k scaled corpus.

Ingest and cold-start (segment decode + log replay into fresh indexes)
land as the ``store_cold_start`` row of ``BENCH_perf_core.json``.  A
store keeps the segments ingest wrote; nothing merges them, since
replay time does not depend on the segment count.  The non-regression
teeth: warm navigation over the replayed graph — the
facet profile of the full collection — must be bit-identical to the
in-memory build's, or the timing is meaningless.  Marked ``slow`` like
the other scaled benches; CI's perf job runs them with ``-m slow``.
"""

import gc
import json
import pathlib
import time

import pytest

from repro.check.storecheck import _index_snapshot
from repro.core.analysts.common import collection_profile
from repro.datasets import scaled
from repro.rdf import Schema
from repro.store import LogStore

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf_core.json"


def _record_bench(corpus_size: int, op: str, payload: dict) -> None:
    """Merge one operation's timings into BENCH_perf_core.json."""
    data: dict = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (OSError, ValueError):
            data = {}
    payload = dict(payload, corpus_size=corpus_size)
    data.setdefault("ops", {})[op] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


N_ITEMS = 65_536

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def corpus():
    return scaled.build_corpus(N_ITEMS, freeze=False)


@pytest.fixture(scope="module")
def store_root(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("bench-store") / "store"
    store = LogStore.init(root)
    gc.collect()
    start = time.perf_counter()
    store.append_log(corpus.graph.log, batch=100_000)
    ingest_s = time.perf_counter() - start
    return root, ingest_s


def _timed(fn):
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, result


def test_store_cold_start_replay(corpus, store_root):
    root, ingest_s = store_root
    store = LogStore.open(root)

    replay_s, replayed = _timed(lambda: store.replay_graph())

    # Non-regression: the replayed graph IS the in-memory graph — same
    # three indexes bit for bit, and identical warm navigation (the
    # full-collection facet profile every arrival view renders).
    assert _index_snapshot(replayed) == _index_snapshot(corpus.graph)
    mem_profile = collection_profile(
        corpus.graph, corpus.schema, corpus.items
    )
    replay_profile = collection_profile(
        replayed, Schema(replayed), corpus.items
    )
    assert list(replay_profile.properties.keys()) == list(
        mem_profile.properties.keys()
    )
    for prop, expected in mem_profile.properties.items():
        actual = replay_profile.properties[prop]
        assert actual.coverage == expected.coverage
        assert list(actual.counts.items()) == list(expected.counts.items())

    _record_bench(
        N_ITEMS,
        "store_cold_start",
        {
            "ingest_s": round(ingest_s, 4),
            "replay_s": round(replay_s, 4),
            "datoms": store.datom_count,
            "datoms_per_s": round(store.datom_count / replay_s),
        },
    )
