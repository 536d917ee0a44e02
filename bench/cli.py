"""``python -m bench run`` — the benchmark's one command.

    python -m bench run --seed 1                   # every workload, both modes
    python -m bench run --workload facets_8k --seed 3 --seconds 20 --trace 0
    python -m bench run --smoke                    # small corpora, 2 s windows
    python -m bench compare --parent A/ --change B/

Each run prints ``workload metric value unit (n=samples)`` lines, the
guard and verification findings, and as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json for an untraced run (``--trace
0``), its per-layer metrics for a traced one (``--trace 1``).  With
several runs the last line merges them, keying metrics
``<workload>.<metric>``.  The exit code is 0 only when every output
verified and every guard held.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run", help="run workloads and print metrics")
    run.add_argument("--workload", action="append",
                     help="workload name (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=1,
                     help="seeds the command and ingest streams only")
    run.add_argument("--seconds", type=float, default=None,
                     help="timed window per run (default: run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: end-to-end metrics, 1: per-layer metrics "
                     "(default: both, untraced first)")
    run.add_argument("--smoke", action="store_true",
                     help="small corpora and 2 s windows; guards reported, "
                     "not enforced")
    compare = sub.add_parser("compare", help="paired parent/change comparison")
    compare.add_argument("--parent", nargs="+", required=True)
    compare.add_argument("--change", nargs="+", required=True)
    return parser


def _print_run(result) -> None:
    mode = "traced" if result.traced else "untraced"
    print(f"== {result.workload} seed {result.seed} ({mode})")
    for name, (value, unit, n) in result.metrics.items():
        count = f" (n={n})" if n is not None else ""
        print(f"{result.workload} {name} {value:.4f} {unit}{count}")
    rate = result.failed / result.attempted if result.attempted else 0.0
    print(f"{result.workload} error_rate {rate:.4f} ratio "
          f"(n={result.attempted}, failed={result.failed})")
    for note in result.notes:
        print(note)
    for mismatch in result.mismatches:
        print(f"FAILED {result.workload} verification: {mismatch}")
    for guard in result.guards:
        verdict = "FAILED" if result.enforce_guards else "guard (not enforced)"
        print(f"{verdict} {result.workload}: {guard}")


def _save(result) -> None:
    out = paths.OUT / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{result.workload}-seed{result.seed}-trace{int(result.traced)}-{stamp}"
    record = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": int(result.traced),
        "result": result.summary(),
    }
    (out / f"{name}.json").write_text(json.dumps(record, indent=1))


def run(args) -> int:
    from .workloads import (
        SMOKE_SIZES, SMOKE_WARMUP_S, SMOKE_WINDOW_S, WARMUP_S, WORKLOADS,
    )

    spec = paths.load_spec()
    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    workloads = dict(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    warmup = WARMUP_S
    if args.smoke:
        workloads = {
            n: w.sized(SMOKE_SIZES[w.corpus]) for n, w in workloads.items()
        }
        seconds, warmup = SMOKE_WINDOW_S, SMOKE_WARMUP_S
    # The first run in a checkout builds every workload's corpus, so no
    # later run (of any workload) pays for it.
    for workload in workloads.values():
        workload.prepare()

    from .runner import run_workload

    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = []
    for name in names:
        for traced in modes:
            result = run_workload(
                workloads[name], args.seed, seconds, warmup, traced, spec,
                enforce_guards=not args.smoke,
            )
            _print_run(result)
            if not args.smoke:
                # Smoke results are of other corpus sizes: kept apart
                # from the runs `compare` pairs.
                _save(result)
            results.append(result)
    by_key = {(r.workload, r.traced): r for r in results}
    for name in names:
        plain, traced = by_key.get((name, False)), by_key.get((name, True))
        if plain and traced and plain.timings.get("click_p50_ms"):
            delta = traced.timings["click_p50_ms"] / plain.timings["click_p50_ms"] - 1
            print(f"{name} traced-vs-untraced click_p50_ms {100 * delta:+.1f} %")
    if len(results) == 1:
        summary = results[0].summary()
    else:
        summary = {
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {
                f"{r.workload}.{metric}": entry
                for r in results
                for metric, entry in r.summary()["metrics"].items()
            },
        }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.action == "compare":
        from .compare import compare_main

        return compare_main(args.parent, args.change)
    try:
        paths.use_program()
    except paths.MissingProgram as error:
        print(f"bench: {error}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run(args)
