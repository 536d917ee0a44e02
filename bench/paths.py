"""Where the benchmark finds the program and keeps its files.

Everything lives inside the checkout the benchmark runs from: the
program under ``src/``, corpora built once under ``bench/.cache/``, and
run outputs (server logs, traces, result files) under ``bench/out/``.
Both directories are ignored by git.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / "bench" / ".cache"
OUT = ROOT / "bench" / "out"
SPEC = ROOT / "BENCHMARK.json"


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def use_program() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` (or refuse to run)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The benchmark's own contract: workloads, metrics, bounds."""
    return json.loads(SPEC.read_text(encoding="utf-8"))
