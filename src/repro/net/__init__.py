"""The network layer: navigation sessions over JSON/HTTP.

One frozen workspace, many light sessions — served with a bounded
worker pool, explicit backpressure, per-request deadlines, a typed
error envelope, and graceful drain.  :class:`NavigationServer` is the
single-process tier; :class:`ShardedServer` scales past the GIL by
running one such server per worker process behind a session-affinity
router (:mod:`repro.net.router`).  Both tiers share one front door
(:mod:`repro.net.front`): a single event-loop thread for every client
socket, framing, deadlines, admission, keep-alive and the worker pool;
each tier plugs in only its handler.  The wire format is canonical JSON
over the existing :mod:`repro.check` command codec and
:mod:`repro.service.serialize` state codec, which is what makes the
byte-level differential wire check (:mod:`repro.net.wirecheck`)
possible — against either tier.
"""

from ..datasets.spec import DatasetSpec
from .client import NavigationClient, ServerError
from .protocol import (
    BadRequest,
    ClientDisconnect,
    DeadlineExceeded,
    MethodNotAllowed,
    NetError,
    NotFound,
    PayloadTooLarge,
    ServerDraining,
    ServerOverloaded,
    WorkerUnavailable,
    canonical_json,
    error_envelope,
    ok_envelope,
    status_for,
    suggestions_payload,
    transition_payload,
)
from .router import ShardedServer, shard_for
from .server import DrainReport, NavigationServer, ServerConfig
from .wirecheck import WireDivergence, WireReport, run_wire_check
from .worker import WorkerHandle

__all__ = [
    "NavigationClient",
    "ServerError",
    "NetError",
    "BadRequest",
    "NotFound",
    "MethodNotAllowed",
    "PayloadTooLarge",
    "DeadlineExceeded",
    "ServerOverloaded",
    "ServerDraining",
    "WorkerUnavailable",
    "ClientDisconnect",
    "canonical_json",
    "ok_envelope",
    "error_envelope",
    "status_for",
    "transition_payload",
    "suggestions_payload",
    "NavigationServer",
    "ServerConfig",
    "DrainReport",
    "ShardedServer",
    "shard_for",
    "DatasetSpec",
    "WorkerHandle",
    "WireDivergence",
    "WireReport",
    "run_wire_check",
]
