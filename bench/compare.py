"""Paired parent-vs-change comparison of end-to-end metrics.

    python -m bench compare --parent P/bench/out/results --change C/bench/out/results

Each side is a list of result files (or directories of them) that
``python -m bench run`` saved under ``bench/out/results/``.  Runs of the
two sides at the same workload and seed form a pair; run them
alternately, each side first in half of the pairs, with identical
benchmark code and settings.  Only untraced runs count.

For every workload and end-to-end metric of BENCHMARK.json the
comparer prints each side's median and quartiles, the pair wins, and a
verdict:

* ``improved`` — the change wins at least nine tenths of the pairs
  (ties count for neither), its median is better by more than the
  parent's interquartile range, and it failed no more operations;
* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — neither, and one side's spread (interquartile range
  over median) exceeds the bound, unless every change run reads better
  than every parent run;
* ``unchanged`` — otherwise.

A workload with fewer than ten pairs gets no verdicts.  The exit code
is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import pathlib
import statistics

from . import paths

MIN_PAIRS = 10


def _files(args: list[str]) -> list[pathlib.Path]:
    found = []
    for arg in args:
        path = pathlib.Path(arg)
        found += sorted(path.glob("*.json")) if path.is_dir() else [path]
    return found


def load_side(args: list[str]) -> dict:
    """(workload, seed) -> result summary of the untraced runs given.

    When a seed was run more than once the last file (by name, which
    ends in a timestamp) wins.
    """
    runs = {}
    for path in _files(args):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace"):
            continue
        runs[record["workload"], record["seed"]] = record["result"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float,
    more_failures: bool,
) -> tuple[str, int]:
    """(verdict, change wins) for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    if (
        not more_failures
        and wins >= 0.9 * len(parent)
        and gain > p3 - p1
    ):
        return "improved", wins
    if -gain > bound * abs(pm):
        return "regressed", wins
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> list[str]:
    """The report lines; a line ending in ``regressed`` marks a regression."""
    lines = []
    workloads = sorted({w for w, _s in parent_runs} | {w for w, _s in change_runs})
    for workload in workloads:
        seeds = sorted(
            s for w, s in parent_runs
            if w == workload and (w, s) in change_runs
        )
        lines.append(f"== {workload}: {len(seeds)} pair(s)")
        if len(seeds) < MIN_PAIRS:
            lines.append(
                f"   needs at least {MIN_PAIRS} pairs of untraced runs at "
                f"matching seeds; no verdicts"
            )
            continue
        pairs = [(parent_runs[workload, s], change_runs[workload, s]) for s in seeds]
        failed_p = sum(p["failed"] for p, _c in pairs)
        failed_c = sum(c["failed"] for _p, c in pairs)
        if failed_p or failed_c:
            lines.append(f"   failed ops: parent {failed_p}, change {failed_c}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for p, _c in pairs]
            change = [c["metrics"][name]["value"] for _p, c in pairs]
            word, wins = verdict(
                parent, change, metric["better"], metric["bound"],
                failed_c > failed_p,
            )
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            lines.append(
                f"   {name:<16} {metric['unit']:<5} "
                f"parent {pm:10.4f} [{p1:.4f}, {p3:.4f}]  "
                f"change {cm:10.4f} [{c1:.4f}, {c3:.4f}]  "
                f"wins {wins}/{len(pairs)}  {word}"
            )
    return lines


def compare_main(parent_args: list[str], change_args: list[str]) -> int:
    lines = compare(load_side(parent_args), load_side(change_args), paths.load_spec())
    for line in lines:
        print(line)
    return 1 if any(line.endswith("regressed") for line in lines) else 0
