"""The served-click benchmark.

``python -m bench run`` starts ``repro serve`` in a subprocess for each
workload, drives it over HTTP from one single-threaded ``selectors``
loop with at most two connections, verifies a sample of the responses,
and prints every end-to-end metric (untraced run) or per-layer metric
(traced run).  See ``bench/README.md`` for the workloads and metrics.

The package imports nothing from the program at import time: the
program lives in ``src/`` of the checkout, which :mod:`bench.paths`
locates and puts on ``sys.path`` only when a run starts.
"""
