"""Turning one run's records into metrics, and checking they can be trusted.

End-to-end metrics come from the client's wall clock, adjusted to a
reference host speed (bench/host.py); per-layer metrics from the traced
server's spans, the client's op records and ``/metrics`` deltas, as
measured.  The names and units printed are exactly those of
``BENCHMARK.json``; this module computes a value for every name there.

Guards.  A run fails when

* a reported percentile has fewer than ten samples beyond it, or
* on the ingest workload, the epoch lag over the window's last 10 s
  exceeds that over its first 10 s by more than one batch (a growing
  backlog makes visibility latency meaningless).

A timing metric whose first-half and second-half p50 differ by more
than its bound is reported as drift but does not fail the run: on a
shared two-core host the halves of a 25 s window can differ by that
much from sampling noise and neighbours' load alone (see
bench/README.md).
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

#: End-to-end timing metrics: op kind -> ((metric, quantile), ...).
TIMED = {
    "landing": (("landing_p50_ms", 0.50),),
    "click": (("click_p50_ms", 0.50), ("click_p95_ms", 0.95)),
    "preview": (("preview_p50_ms", 0.50), ("preview_p95_ms", 0.95)),
}
READER_KINDS = tuple(TIMED)

ANALYSTS = (
    "refine-by-property-value", "refine-by-path", "refine-by-text",
    "keyword-search-within", "refine-by-range", "similar-by-content-item",
    "similar-by-content-collection", "sharing-a-property",
    "contrary-constraints", "related-collections", "history-previous",
    "history-refinement", "similar-by-visit",
)


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Exact nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return math.nan, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def window_ops(ops, window: tuple[float, float]) -> list:
    start, end = window
    return [
        op for op in ops
        if op.phase == "run" and op.op.kind in READER_KINDS
        and start <= op.start < end
    ]


@dataclass
class Timing:
    values: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    #: guard failures: percentiles without ten samples beyond them
    problems: list = field(default_factory=list)
    #: drift warnings: halves whose p50 differ by more than the bound
    drift: list = field(default_factory=list)


def timing(ops, window, bounds: dict, factor=None) -> Timing:
    """p50/p95 per op kind, with the sample and drift checks.

    With ``factor`` (op -> host factor, bench/host.py) each op's time is
    first divided by its factor.  Only the end-to-end metrics (those
    with a bound) are checked; the preview and p95 percentiles are
    per-layer metrics, reported by traced runs.
    """
    result = Timing()
    middle = (window[0] + window[1]) / 2
    ms = {id(op): op.ms / factor(op) if factor else op.ms for op in ops}
    for kind, metrics in TIMED.items():
        chosen = [op for op in ops if op.op.kind == kind]
        samples = [ms[id(op)] for op in chosen]
        for name, q in metrics:
            value, beyond = percentile(samples, q)
            result.values[name], result.counts[name] = value, len(samples)
            if name not in bounds:
                continue
            if beyond < 10:
                result.problems.append(
                    f"{name}: {beyond} sample(s) beyond the percentile "
                    f"(n={len(samples)}); 10 are needed"
                )
            if q != 0.5 or beyond < 10:
                continue
            first, _ = percentile([ms[id(o)] for o in chosen if o.start < middle], q)
            second, _ = percentile([ms[id(o)] for o in chosen if o.start >= middle], q)
            drift = abs(first - second) / value
            if drift > bounds[name]:
                result.drift.append(
                    f"drift {name}: first-half p50 {first:.2f} ms vs "
                    f"second-half {second:.2f} ms differ by {drift:.0%} "
                    f"(bound {bounds[name]:.0%})"
                )
    return result


@dataclass
class WriterStats:
    #: ``ingest_p50_ms`` etc. -> (value, sample count)
    values: dict
    attempted: int
    #: batches due in the window that never became visible
    failed: int
    problems: list


def writer_stats(writer, window) -> WriterStats:
    """Ingest ack and visibility latency for batches due in the window.

    Both are timed from when the batch was due.  They are printed for
    the ingest workload but are not in BENCHMARK.json, whose end-to-end
    metrics must exist on every workload.  The median is printed with
    its sample count however few batches fell due; a p95 only with ten
    samples beyond it.
    """
    start, end = window
    due = [b for b in writer.batches if start <= b.due < end]
    acked = [b for b in due if b.tx is not None]
    visible = [b for b in acked if b.visible is not None]
    values = {}
    for name, samples in (
        ("ingest", [(b.acked - b.due) * 1000 for b in acked]),
        ("visible", [(b.visible - b.due) * 1000 for b in visible]),
    ):
        for q in (0.50, 0.95):
            value, beyond = percentile(samples, q)
            if samples and (q == 0.50 or beyond >= 10):
                values[f"{name}_p{round(q * 100)}_ms"] = (value, len(samples))
    problems = []
    lag = [(t, lag) for t, lag, _epoch in writer.health if start <= t < end]
    span = min(10.0, (end - start) / 2)
    head = [l for t, l in lag if t < start + span]
    tail = [l for t, l in lag if t >= end - span]
    if head and tail and statistics.mean(tail) > statistics.mean(head) + 1:
        problems.append(
            f"epochs.lag_tx grew from {statistics.mean(head):.2f} to "
            f"{statistics.mean(tail):.2f} over the window: ingest backlog"
        )
    return WriterStats(values, len(due), len(due) - len(visible), problems)


# ----------------------------------------------------------------------
# Per-layer attribution from the traced run
# ----------------------------------------------------------------------


class Trace:
    """Spans written by bench/traced_serve.py, indexed for attribution."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        self.overhead_s = data["shim_overhead_s"]
        #: [name, start, end, parent index or -1, thread, tag]
        self.rows = data["spans"]
        #: span index -> summed duration of its direct children (s)
        self.child_s: dict[int, float] = defaultdict(float)
        #: (span index, child name) -> summed duration of those children
        self.named_child_s: dict[tuple[int, str], float] = defaultdict(float)
        for name, start, end, parent, _thread, _tag in self.rows:
            if parent >= 0:
                self.child_s[parent] += end - start
                self.named_child_s[parent, name] += end - start

    def outermost(self, i: int) -> bool:
        """No enclosing span has the same name (no double counting)."""
        name = self.rows[i][0]
        parent = self.rows[i][3]
        while parent >= 0:
            if self.rows[parent][0] == name:
                return False
            parent = self.rows[parent][3]
        return True


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layers(trace: Trace, ops, window, gauges: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json that the trace gives, by name.

    ``_ms`` metrics are means per call of a layer every workload
    reaches.  A layer some workload never reaches is reported as its
    share of the window's wall time (``_pct``) and in counts, which
    read 0 there; a time that is 0 on every run would say nothing.
    """
    start, end = window
    rows = trace.rows
    inside = [i for i, row in enumerate(rows) if start <= row[1] < end]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in inside:
        if trace.outermost(i):
            by_name[rows[i][0]].append(i)

    def total_ms(i: int) -> float:
        return (rows[i][2] - rows[i][1]) * 1000

    def self_ms(i: int) -> float:
        return total_ms(i) - trace.child_s[i] * 1000

    def per_call(name: str) -> float:
        return _mean(total_ms(i) for i in by_name[name])

    window_ms = (end - start) * 1000

    def share(name: str, of=total_ms) -> float:
        return 100.0 * sum(of(i) for i in by_name[name]) / window_ms

    out: dict[str, float] = _net_self(trace, ops)
    out["service.apply_ms"] = per_call("service.apply")
    out["session.materialize_ms"] = _mean(
        total_ms(i) - trace.named_child_s[i, "service.apply"] * 1000
        for i in by_name["session.apply"]
    )
    out["service.preview_ms"] = per_call("service.preview")
    out["query.evaluate_ms"] = per_call("query.evaluate")
    out["query.count_ms"] = per_call("query.count")
    out["encode.payload_ms"] = per_call("encode.payload")
    out["encode.json_ms"] = per_call("encode.json")

    first_dispatch = min(
        (row[1] for row in rows if row[0] == "server.dispatch"), default=math.inf
    )
    for name in ("setup.corpus", "setup.workspace"):
        out[f"{name}_ms"] = sum(
            (row[2] - row[1]) * 1000 for row in rows
            if row[0] == name and row[1] < first_dispatch and row[3] < 0
        )

    out["query.calls_per_op"] = (
        len(by_name["query.evaluate"]) + len(by_name["query.count"])
    ) / max(1, len(ops))
    for kind in READER_KINDS:
        sizes = [sum(e.size for e in op.exchanges) for op in ops
                 if op.op.kind == kind]
        out[f"encode.kb.{kind}"] = _mean(sizes) / 1000.0

    out["analysts.suggest_pct"] = share("analysts.suggest")
    for analyst in ANALYSTS:
        out[f"analysts.{analyst}_pct"] = share(f"analyst.{analyst}", self_ms)
    out["advisors.select_pct"] = share("advisors.select")
    # A cycle that raised has no (posted, presented) tag.
    tags = [rows[i][5] for i in by_name["analysts.suggest"] if rows[i][5]]
    posted = sum(t[0] for t in tags)
    out["analysts.posted_per_cycle"] = posted / len(tags) if tags else 0.0
    out["analysts.presented_ratio"] = (
        sum(t[1] for t in tags) / posted if posted else 0.0
    )
    out["facets.profile_pct"] = share("facets.profile")
    out["index.vector_search_pct"] = share("index.vector_search")
    out["index.text_search_pct"] = share("index.text_search")
    out["epochs.sync_pct"] = share("epochs.sync")
    out["epochs.ingest_pct"] = share("epochs.ingest")
    out["store.append_pct"] = share("store.append")
    publishes = [i for i in by_name["epochs.publish"] if rows[i][5]]
    out["epochs.publish_pct"] = 100.0 * sum(map(total_ms, publishes)) / window_ms
    out["epochs.publishes"] = float(len(publishes))
    out["epochs.migrations"] = float(len(by_name["epochs.migrate"]))

    out["query.extent_cache_hit_rate"] = _rate(
        gauges, "query.extent_cache.hits", "query.extent_cache.misses"
    )
    out["facets.memo_hit_rate"] = _rate(
        gauges, "facets.profile_memo.hits", "facets.profile_memo.misses"
    )
    searches = len(by_name["index.vector_search"])
    out["index.postings_touched_per_search"] = (
        gauges.get("index.postings_touched", 0.0) / searches if searches else 0.0
    )
    out["epochs.datoms_per_publish"] = (
        gauges.get("epochs.datoms_ingested", 0.0) / len(publishes)
        if publishes else 0.0
    )
    busy_ms = sum(
        total_ms(i) for i in inside
        if rows[i][3] < 0 and rows[i][0] in ("server.dispatch", "encode.json")
    )
    out["trace.overhead_pct"] = (
        100.0 * len(inside) * trace.overhead_s * 1000 / busy_ms if busy_ms else 0.0
    )
    return out


def _rate(gauges: dict, hits: str, misses: str) -> float:
    h, m = gauges.get(hits, 0.0), gauges.get(misses, 0.0)
    return h / (h + m) if h + m > 0 else 0.0


def gauge_deltas(before: dict | None, after: dict) -> dict:
    """Window deltas of the cumulative ``/metrics`` gauges.

    An epoch publish builds a new workspace whose cache counters start
    from zero; when a delta comes out negative the end value (the
    current epoch's count) is used instead.
    """
    b, a = (before or {}).get("gauges", {}), after.get("gauges", {})
    deltas = {}
    for name, value in a.items():
        if not isinstance(value, (int, float)):
            continue
        delta = value - b.get(name, 0)
        deltas[name] = float(delta if delta >= 0 else value)
    return deltas


def _net_self(trace: Trace, ops) -> dict:
    """Client round trip minus the server's own top-level spans, per op.

    Each request is matched to the ``server.dispatch`` span with its
    method and path that started while the request was outstanding;
    the server's time for it is that span plus the response encoding
    that followed on the same thread.
    """
    rows = trace.rows
    dispatch: dict[str, list] = defaultdict(list)
    top: dict[int, list] = defaultdict(list)
    for name, start, end, parent, thread, tag in rows:
        if parent >= 0:
            continue
        top[thread].append((start, end))
        if name == "server.dispatch":
            dispatch[tag].append((start, end, thread))
    for spans in dispatch.values():
        spans.sort()
    for spans in top.values():
        spans.sort()
    top_starts = {t: [s for s, _e in spans] for t, spans in top.items()}

    def server_s(exchange) -> float | None:
        spans = dispatch.get(
            f"{exchange.request.method} {exchange.request.path}", []
        )
        at = bisect.bisect_left(spans, (exchange.sent,))
        if at >= len(spans) or spans[at][0] > exchange.done:
            return None
        start, _end, thread = spans[at]
        lo = bisect.bisect_left(top_starts[thread], start)
        hi = bisect.bisect_right(top_starts[thread], exchange.done)
        return sum(e - s for s, e in top[thread][lo:hi])

    totals: dict[str, list[float]] = defaultdict(list)
    for op in ops:
        server = [server_s(e) for e in op.exchanges]
        if op.exchanges and None not in server:
            totals[op.op.kind].append(op.ms - sum(server) * 1000)
    return {f"net.self_ms.{kind}": _mean(totals[kind]) for kind in READER_KINDS}
