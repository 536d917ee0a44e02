"""Path-predicate benchmark on the 64k linked corpus.

Pins the perf claim: evaluating multi-hop path predicates via the
served query engine's backward pre-image walk beats the naive per-item
forward BFS — the reference model's evaluation order — by at least
``PATH_SPEEDUP_FLOOR`` on a corpus where items are actually linked (:mod:`repro.datasets.linked`,
citation + affiliation layers, cyclic by construction).

Also times a transitive ``cites+`` closure, checked against a direct
reverse-BFS oracle (per-item naive closure over 64k items would take
hours — exactly why the backward walk exists).  Timings land as the
``path_query`` row in ``BENCH_perf_core.json``.  Marked ``slow``;
CI's perf job runs it with ``-m slow``.
"""

import gc
import json
import os
import pathlib
import platform
import time
from collections import deque

import pytest

from repro.datasets import linked
from repro.query import Path, PathStep, QueryContext, QueryEngine

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

#: Acceptance floor: cold engine path evaluation vs the naive walk.
PATH_SPEEDUP_FLOOR = 3.0

#: The row before the compiled-plan engine was removed, when this bench
#: timed ``mode="compiled"`` (a 2-core x86_64 host, CPython 3.11.7).
PATH_BEFORE = {
    "engine": "compiled",
    "cold_s": 0.2874,
    "naive_s": 1.9801,
    "speedup": 6.89,
}

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def corpus():
    return linked.build_corpus(N_ITEMS)


def _path_queries(corpus):
    """Multi-hop queries cheap enough to also evaluate naively."""
    x = corpus.extras
    graph = corpus.graph
    # The densest institution, so the 2-hop extent is non-trivial.
    dense = max(
        x["institutions"],
        key=lambda inst: (sum(1 for _ in graph.subjects(x["p_affiliation"], inst)), inst.uri),
    )
    return [
        # author/affiliation: <dense institution>
        Path((PathStep(x["p_author"]), PathStep(x["p_affiliation"])), dense),
        # author/affiliation/locatedIn: <country>
        Path(
            (
                PathStep(x["p_author"]),
                PathStep(x["p_affiliation"]),
                PathStep(x["p_located_in"]),
            ),
            x["countries"][0],
        ),
        # ^cites/author: <author> — papers with a citer by that author
        Path(
            (PathStep(x["p_cites"], inverse=True), PathStep(x["p_author"])),
            x["authors"][0],
        ),
        # author/affiliation+ — closure machinery on the entity layer
        Path(
            (PathStep(x["p_author"]), PathStep(x["p_affiliation"], closure="+")),
            dense,
        ),
    ]


def test_path_query_speedup(corpus):
    queries = _path_queries(corpus)

    def run_naive():
        # The reference model's evaluation order: forward BFS per item.
        context = QueryContext(corpus.graph, schema=corpus.schema)
        total = 0
        for query in queries:
            total += sum(
                1 for item in corpus.items if query.matches(item, context)
            )
        return total

    # A fresh context for the timed engine run, so the extent cache and
    # the path-extent memo start empty (cold).  The universe bitmask is
    # one-time index build (a frozen workspace pre-warms it), warmed
    # outside the timing like the other scaled benches.
    cold_context = QueryContext(corpus.graph, schema=corpus.schema)
    cold_context.universe_bits()

    def run_engine():
        engine = QueryEngine(cold_context)
        return sum(len(engine.evaluate(query)) for query in queries)

    # The speed claim is only meaningful if the answers agree.
    context = QueryContext(corpus.graph, schema=corpus.schema)
    engine = QueryEngine(context)
    for query in queries:
        naive = {
            item for item in corpus.items if query.matches(item, context)
        }
        assert set(engine.evaluate(query)) == naive

    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        naive_total = run_naive()
        naive_s = time.perf_counter() - start
        start = time.perf_counter()
        engine_total = run_engine()
        engine_s = time.perf_counter() - start
    finally:
        gc.enable()
    assert naive_total == engine_total

    # A transitive closure over the (cyclic) citation graph: engine
    # only, against a direct reverse-BFS oracle — the per-item naive
    # walk is quadratic in reachability and unusable at this scale.
    # Paper 0 is in every later paper's backward-citation range, so it
    # is the most-cited node and the closure walks a deep frontier.
    x = corpus.extras
    target = corpus.items[0]
    closure = Path((PathStep(x["p_cites"], closure="+"),), target)
    start = time.perf_counter()
    closure_extent = set(engine.evaluate(closure))
    closure_s = time.perf_counter() - start
    expected: set = set()
    queue = deque(corpus.graph.subjects(x["p_cites"], target))
    expected.update(queue)
    while queue:
        node = queue.popleft()
        for citer in corpus.graph.subjects(x["p_cites"], node):
            if citer not in expected:
                expected.add(citer)
                queue.append(citer)
    assert closure_extent == expected & set(corpus.items)

    speedup = naive_s / engine_s
    _record_bench(
        N_ITEMS,
        "path_query",
        {
            "naive_s": round(naive_s, 4),
            "engine_cold_s": round(engine_s, 4),
            "speedup": round(speedup, 2),
            "floor": PATH_SPEEDUP_FLOOR,
            "queries": len(queries),
            "closure_engine_s": round(closure_s, 4),
            "closure_extent": len(closure_extent),
            "before": PATH_BEFORE,
            "host": f"{platform.machine()} x{os.cpu_count()}, "
            f"CPython {platform.python_version()}",
        },
    )
    assert speedup >= PATH_SPEEDUP_FLOOR, (
        f"engine path evaluation only {speedup:.2f}x faster "
        f"(naive {naive_s * 1000:.0f}ms, engine {engine_s * 1000:.0f}ms)"
    )
