"""The bundle a workspace threads through its substrates.

One :class:`Observability` holds the tracer and the metrics registry
every instrumented component shares.  The default is *disabled* tracing
— a shared :data:`~repro.obs.tracer.NULL_TRACER` whose ``enabled`` flag
hot paths check before doing any span work — with a live (but idle,
pull-based) metrics registry, so cache telemetry is always available
while the trace machinery costs nothing until switched on.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .tracer import NULL_TRACER, Tracer

__all__ = ["Observability", "NULL_OBS"]


class Observability:
    """Tracer + metrics registry, shared by one workspace's substrates."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracing: bool = False, clock=None,
                 metrics: MetricsRegistry | None = None):
        self.tracer = Tracer(clock) if tracing else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def __repr__(self) -> str:
        return f"<Observability tracing={self.tracing} {self.metrics!r}>"


#: Default for components constructed without a workspace (e.g. a bare
#: ``QueryEngine`` in a benchmark): no tracing, and a registry nobody
#: reads.  Shared process-wide — instruments registered here by
#: unattached components are intentionally inconsequential.
NULL_OBS = Observability(tracing=False)
