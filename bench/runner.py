"""One run of one workload: start the server, drive it, verify, measure."""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from . import corpora, report, streams, verify
from .driver import LoadLoop, Phases, Reader, Sampler, Slot, Writer
from .host import REFERENCE_S, HostProbe
from .paths import OUT, ROOT
from .server import spawn
from .workloads import SAMPLE_OPS, SETUP_SPAWNS, Workload


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    #: name -> (value, unit, sample count or None), in BENCHMARK.json order
    metrics: dict
    attempted: int
    failed: int
    #: verification mismatches (each also counted in ``failed``)
    mismatches: list[str] = field(default_factory=list)
    #: guard findings; they fail the run when ``enforce_guards``
    guards: list[str] = field(default_factory=list)
    enforce_guards: bool = True
    #: lines printed with the run: drift warnings, the realized mix,
    #: ingest latencies, failure tallies
    notes: list[str] = field(default_factory=list)
    #: timings of this run as measured (not host-adjusted), traced or not
    timings: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not (self.enforce_guards and self.guards)

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _n) in self.metrics.items()
            },
        }


def _store_bytes(path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _inputs(workload: Workload, rng: random.Random):
    """(session script factory, browse corpus or None, ingest batches).

    The factory takes (rng, name, steps, opener); ``opener`` marks a
    slot's first session, which starts during the warm-up.
    """
    corpus, batches = None, []
    if workload.mix == "facets":
        data = streams.FacetData(corpora.load_facts(workload.size))

        def session(srng, name, steps, opener):
            return streams.facets_session(srng, data, name, steps)
    else:
        from repro.datasets import recipes

        corpus = recipes.build_corpus(
            n_recipes=workload.size, seed=corpora.RECIPE_SEED
        )
        vocab = streams.recipe_vocabulary(corpus)

        def session(srng, name, steps, opener):
            return streams.browse_session(
                srng, vocab, name, steps, paint_landing=not opener,
                repaint=workload.repaint,
            )
    if workload.ingest:
        texts = corpora.load_recipe_extras(workload.size)
        rng.shuffle(texts)
        size = workload.ingest_batch
        batches = ["".join(texts[i:i + size]) for i in range(0, len(texts), size)]
    return session, corpus, batches


def _realized_mix(name: str, ops) -> str:
    """One line counting the ops and requests the window actually sent."""
    op_mix: Counter = Counter()
    request_mix: Counter = Counter()
    for op in ops:
        op_mix[op.op.kind] += 1
        request_mix.update(request.kind for request in op.op.requests)
        if op.op.kind in ("click", "landing") and op.op.requests[0].kind == "apply":
            request_mix[f"apply:{op.op.requests[0].payload['command']['c']}"] += 1
    return (
        f"{name} realized mix: ops "
        + ", ".join(f"{k}={v}" for k, v in sorted(op_mix.items()))
        + "; requests "
        + ", ".join(f"{k}={v}" for k, v in sorted(request_mix.items()))
    )


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    warmup: float,
    traced: bool,
    spec: dict,
    enforce_guards: bool = True,
) -> RunResult:
    label = f"{workload.name}{'.traced' if traced else ''}"
    rng = random.Random(f"{seed}:{workload.name}")
    session, corpus, batches = _inputs(workload, rng)

    def script(slot: int, generation: int):
        srng = random.Random(f"{seed}:{workload.name}:{slot}:{generation}")
        name = f"s{slot}-{generation}"
        if generation:
            return session(srng, name, workload.steps, False)
        # First sessions get staggered lengths, so the slots' landings
        # spread evenly over a session's lifetime from the start.
        steps = max(1, round((slot + 1) * workload.steps / workload.slots))
        return session(srng, name, steps, True)

    sampler = Sampler(
        set(rng.sample(range(workload.slots), workload.sampled_sessions)),
        SAMPLE_OPS,
    )

    store_dir = None
    if workload.ingest:
        # Ingest appends to the store: serve a fresh copy every run.
        store_dir = OUT / f"{workload.name}.store"
        shutil.rmtree(store_dir, ignore_errors=True)
        shutil.copytree(workload.store_dir(), store_dir)
    bytes_before = _store_bytes(store_dir) if store_dir else 0

    trace_path = OUT / f"{workload.name}.trace.json"
    serve_args = workload.serve_args(store_dir)
    probe = HostProbe()
    setups = []
    if traced:
        server = spawn(
            [str(ROOT / "bench" / "traced_serve.py"), str(trace_path), "--",
             *serve_args],
            label, probe,
        )
    else:
        for attempt in range(SETUP_SPAWNS):
            server = spawn(["-m", "repro", "serve", *serve_args], label, probe)
            setups.append(server)
            if attempt < SETUP_SPAWNS - 1:
                server.terminate()

    try:
        start = time.perf_counter() + 0.01
        phases = Phases(start, start + warmup, start + warmup + seconds)
        reader = Reader(
            [Slot(i, script) for i in range(workload.slots)], phases, sampler
        )
        writer = Writer(batches, workload.ingest_rate, phases) if batches else None
        drivers = [reader, writer] if writer else [reader]
        loop = LoadLoop(server.host, server.port, drivers, probe)
        gc.collect()
        gc.freeze()
        cpu = time.process_time()
        wall = time.perf_counter()
        loop.run()
        cpu_pct = 100.0 * (time.process_time() - cpu) / (time.perf_counter() - wall)
        gc.unfreeze()
        metrics_end = server.get_json("/metrics")
        health = server.get_json("/healthz")
        rss_mb = server.vm_hwm_mb()
    finally:
        server.stop()

    window = (phases.window_start, phases.window_end)
    window_s = phases.window_end - phases.window_start
    ops = report.window_ops(reader.ops, window)
    attempted = len(ops)
    failed_ops = sum(1 for op in ops if not op.ok)
    guards: list[str] = []
    notes = [f"{workload.name} reader failures: {key} x{count}"
             for key, count in reader.failures.items()]

    # -- correctness gate (after the window, outside its timing) ----------
    kept = [op for op in reader.ops if op.phase == "run"
            and any(e.body is not None for e in op.exchanges)]
    mismatches = verify.check_tracking(kept)
    if workload.mix == "facets":
        mismatches += verify.check_facets(kept)
    elif not workload.ingest:
        # Ingest moves sessions onto new epochs mid-session, which an
        # in-process replay over the initial corpus cannot follow; the
        # store check below covers that workload.
        sampled = [op for op in reader.ops
                   if sampler.chosen.get(op.slot) == op.generation]
        mismatches += verify.check_browse(sampled, corpus)
    ingest_values: dict = {}
    if writer is not None:
        stats = report.writer_stats(writer, window)
        ingest_values = stats.values
        attempted += stats.attempted
        failed_ops += stats.failed
        guards += stats.problems
        notes += [f"{workload.name} writer failures: {key} x{count}"
                  for key, count in writer.failures.items()]
        mismatches += verify.check_store(
            store_dir, writer.head_tx, int(health.get("epoch_lag_tx", 0))
        )
    failed = min(attempted, failed_ops + len(mismatches))

    # -- metrics -----------------------------------------------------------
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    measured = report.timing(ops, window, bounds)
    for name, (value, n) in ingest_values.items():
        notes.append(f"{workload.name} {name} {value:.4f} ms (n={n})")
    notes.append(_realized_mix(workload.name, ops))

    per_layer_timings = ("preview_p50_ms", "preview_p95_ms", "click_p95_ms")
    if traced:
        source = report.layers(
            report.Trace(trace_path), ops, window,
            report.gauge_deltas(reader.metrics_at_start, metrics_end),
        )
        for name in per_layer_timings:
            source[name] = measured.values[name]
        source["gen.late_ms_max"] = loop.late_max * 1000
        source["gen.cpu_pct"] = cpu_pct
        source["epochs.live_max"] = float(writer.live_max if writer else 0)
        source["epochs.lag_tx_max"] = float(
            max((lag for _t, lag, _e in writer.health), default=0) if writer else 0
        )
        source["store.bytes_appended"] = float(
            _store_bytes(store_dir) - bytes_before if store_dir else 0
        )
        chosen = spec["per_layer"]
        counts = {name: measured.counts[name] for name in per_layer_timings}
    else:
        # End-to-end times at the reference host speed (bench/host.py).
        # A traced run's timings carry the shims' cost; its per-layer
        # numbers need no percentile support.
        adjusted = report.timing(
            ops, window, bounds, factor=lambda op: probe.factor(op.start, op.end)
        )
        guards += adjusted.problems
        notes += adjusted.drift
        source = dict(adjusted.values)
        source["setup_s"] = statistics.median(
            server.setup_s / server.setup_factor for server in setups
        )
        source["rss_mb"] = rss_mb
        source["ops_per_s"] = len(ops) / probe.reference_seconds(*window)
        counts = dict(adjusted.counts, setup_s=len(setups), ops_per_s=len(ops))
        chosen = spec["end_to_end"]
        notes.append(
            f"{workload.name} measured: setup_s "
            f"{statistics.median(server.setup_s for server in setups):.4f} s, "
            f"ops_per_s {len(ops) / window_s:.4f} ops/s, "
            + ", ".join(f"{name} {measured.values[name]:.4f}"
                        for name in ("landing_p50_ms", "click_p50_ms",
                                     "click_p95_ms"))
            + f" ms; host factor {probe.factor(*window, around=0.0):.3f} "
            f"(reference computation {REFERENCE_S * 1000:g} ms when calm)"
        )
    metrics = {}
    for entry in chosen:
        value = source[entry["name"]]
        if value != value:  # NaN: no samples at all; the guards already failed
            value = 0.0
        metrics[entry["name"]] = (value, entry["unit"], counts.get(entry["name"]))
    return RunResult(
        workload.name, seed, traced, metrics, attempted, failed,
        mismatches, guards, enforce_guards, notes, measured.values,
    )
