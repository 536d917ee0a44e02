"""Smoke test of the benchmark's one command.

Runs ``python -m bench run --smoke`` (small corpora, 2 s windows, every
workload, verification and the traced launcher) and checks what it
prints.  Not part of the tier-1 suite; run it with

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
LINE = re.compile(r"^(\S+) (\S+) (-?[0-9.]+|nan) (\S+)(?: \(n=.*\))?$")


def test_smoke_run_prints_every_metric_and_verifies():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = time.time()
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    output = completed.stdout[-3000:] + completed.stderr[-3000:]
    assert completed.returncode == 0, output

    printed = {}
    for line in completed.stdout.splitlines():
        match = LINE.match(line)
        if match:
            workload, name, value, unit = match.groups()
            printed.setdefault(workload, {})[name] = (float(value), unit)
    workloads = [w["name"] for w in spec["workloads"]]
    assert sorted(printed) == sorted(workloads)
    for workload in workloads:
        metrics = printed[workload]
        for entry in spec["end_to_end"] + spec["per_layer"]:
            assert entry["name"] in metrics, (workload, entry["name"])
            assert metrics[entry["name"]][1] == entry["unit"], (workload, entry)
        assert metrics["error_rate"][0] == 0.0, workload
        trace = ROOT / "bench" / "out" / f"{workload}.trace.json"
        assert trace.stat().st_mtime >= started
        assert json.loads(trace.read_text(encoding="utf-8"))["spans"]

    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
