"""Scaled-corpus (64k items) regressions for the facet postings and
the range index.

The paper's corpora top out at 6,444 items; the ROADMAP targets
interactive navigation at 10–100× that.  This module pins two claims on
the shared 64k synthetic corpus (:mod:`repro.datasets.scaled`):

* a cold profile replayed from the precomputed facet postings is ≥5×
  faster than the single-sweep graph profile, bit-identically
  (``compiled_facet_overview`` row);
* a cold ``Range`` extent read from the sorted range index is ≥20×
  faster than the triple scan it replaced, bit-identically
  (``range_leaf_miss`` row, also measured at 8,192 items).

The timings land in ``BENCH_perf_core.json``.  The tests are marked
``slow`` and excluded from tier-1; CI's perf job runs them with
``-m slow``.
"""

import gc
import json
import math
import os
import pathlib
import platform
import random
import time

import pytest

from repro.check.reference import naive_extent
from repro.core.analysts.common import collection_profile
from repro.datasets import scaled
from repro.query import QueryContext, Range
from repro.rdf.terms import Literal

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf_core.json"


def _record_bench(corpus_size: int, op: str, payload: dict) -> None:
    """Merge one operation's timings into BENCH_perf_core.json.

    Same merge discipline as test_perf_core; the scaled rows carry
    their own corpus size since the file-level one describes the
    recipe benches.
    """
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

#: The acceptance floor for the postings facet overview at 64k.
FACET_SPEEDUP_FLOOR = 5.0

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def corpus():
    return scaled.build_corpus(N_ITEMS)


def _best_of(fn, rounds=3):
    # The module keeps several 64k corpora alive; collector pauses in a
    # timed region would be noise, not signal.
    best = None
    result = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
    finally:
        gc.enable()
    return best, result


def test_compiled_facet_overview_speedup(corpus):
    context = QueryContext(corpus.graph, schema=corpus.schema)
    items = corpus.items
    # Postings build is index construction — amortized across every
    # profile of the same graph version — so it warms outside the
    # timed region, like the vector store's refresh().
    postings = context.facet_postings()

    legacy_s, legacy_profile = _best_of(
        lambda: collection_profile(corpus.graph, corpus.schema, items)
    )
    compiled_s, compiled_profile = _best_of(lambda: postings.profile(items))

    # The speed claim is only meaningful if the outputs are identical.
    assert compiled_profile is not None
    assert list(compiled_profile.properties.keys()) == list(
        legacy_profile.properties.keys()
    )
    for prop, expected in legacy_profile.properties.items():
        actual = compiled_profile.properties[prop]
        assert actual.coverage == expected.coverage
        assert list(actual.counts.items()) == list(expected.counts.items())

    speedup = legacy_s / compiled_s
    _record_bench(
        N_ITEMS,
        "compiled_facet_overview",
        {
            "legacy_s": round(legacy_s, 4),
            "compiled_s": round(compiled_s, 4),
            "speedup": round(speedup, 2),
            "floor": FACET_SPEEDUP_FLOOR,
        },
    )
    assert speedup >= FACET_SPEEDUP_FLOOR, (
        f"compiled facet overview only {speedup:.2f}x faster "
        f"(legacy {legacy_s * 1000:.0f}ms, compiled {compiled_s * 1000:.0f}ms)"
    )


#: The acceptance floor for a cold ``Range`` extent at 64k: the sorted
#: range index against the per-property triple scan it replaced.
RANGE_SPEEDUP_FLOOR = 20.0


def _scan_range_bits(context, predicate):
    """The pre-index ``Range`` extent, kept here as the baseline: scan
    every triple of the property, parse each reading, intern the hits."""
    found = set()
    for subject, _p, value in context.graph.triples(None, predicate.prop, None):
        if not isinstance(value, Literal):
            continue
        number = value.as_number()
        if number is None or math.isnan(number):
            continue
        if predicate.low is not None and number < predicate.low:
            continue
        if predicate.high is not None and number > predicate.high:
            continue
        found.add(subject)
    return context.bits_of(found)


def _slider_ranges(corpus, count, seed):
    """Distinct year/weight ranges, like the preview stream a slider makes."""
    rng = random.Random(seed)
    year, weight = corpus.extras["p_year"], corpus.extras["p_weight"]
    ranges = []
    for i in range(count):
        if i % 2:
            low = 1900 + rng.randrange(120)
            ranges.append(Range(year, low=low, high=low + rng.randrange(1, 30)))
        else:
            low = rng.uniform(0.0, 900.0)
            ranges.append(Range(weight, low=low, high=low + rng.uniform(1.0, 100.0)))
    return ranges


def _range_leaf_miss(corpus, count=20):
    """Per-extent seconds (scan, index) and the one-time index build."""
    context = QueryContext(corpus.graph, schema=corpus.schema)
    ranges = _slider_ranges(corpus, count, seed=len(corpus.items))
    start = time.perf_counter()
    for prop in {predicate.prop for predicate in ranges}:
        context.range_index(prop)
    build_s = time.perf_counter() - start

    scan_s, scanned = _best_of(
        lambda: [_scan_range_bits(context, p) for p in ranges]
    )
    index_s, indexed = _best_of(lambda: [p.extent_bits(context) for p in ranges])
    assert indexed == scanned
    universe = context.universe
    for predicate, bits in list(zip(ranges, indexed))[:4]:
        want = naive_extent(predicate, universe, context)
        assert context.nodes_of(bits) & universe == want
    return scan_s / count, index_s / count, build_s


def test_range_leaf_miss(corpus):
    """A cold ``Range`` leaf: two bisections into the range index
    instead of a triple scan per preview, extents identical."""
    rows = {}
    for size, sized in ((8_192, scaled.build_corpus(8_192)), (N_ITEMS, corpus)):
        scan_s, index_s, build_s = _range_leaf_miss(sized)
        rows[str(size)] = {
            "before_ms": round(scan_s * 1000, 3),
            "after_ms": round(index_s * 1000, 3),
            "speedup": round(scan_s / index_s, 1),
            "index_build_ms": round(build_s * 1000, 1),
        }
    speedup = rows[str(N_ITEMS)]["speedup"]
    _record_bench(
        N_ITEMS,
        "range_leaf_miss",
        {
            "sizes": rows,
            "floor": RANGE_SPEEDUP_FLOOR,
            "host": f"{platform.machine()} x{os.cpu_count()}, "
            f"CPython {platform.python_version()}",
        },
    )
    assert speedup >= RANGE_SPEEDUP_FLOOR, (
        f"range index only {speedup:.1f}x faster than the triple scan: {rows}"
    )
