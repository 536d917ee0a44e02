"""The wire schema of the navigation service: envelopes and errors.

Everything the server says is canonical JSON — keys sorted, minimal
separators, UTF-8 — so a response is a *deterministic function of the
transition it reports*.  That is what lets the differential wire check
assert byte-level parity between an HTTP round-trip and an in-process
:meth:`~repro.service.navigation.NavigationService.apply`: both sides
build their payload with the functions in this module and compare raw
bytes.

Envelopes::

    {"ok": true,  "result": ...}
    {"ok": false, "error": {"type": "...", "message": "..."}}

Commands travel in the :mod:`repro.check.codec` tagged-dict format (the
same format repro files use), so a recorded fuzz sequence IS a valid
request stream.  Session state, terms, and predicates reuse the
:mod:`repro.service.serialize` codecs.

A session state is most of an ``apply`` or create response: every item
of the current view and of every view on the back stack.  Those
payloads carry the state as :class:`Spliced` bytes built by
:meth:`SessionState.json_parts`: each view's body is encoded once, from
memoized term fragments, and kept on the view, so a response joins the
back stack's bodies as they are.  :func:`canonical_json` splices them
into the envelope verbatim.  The bytes are exactly those of encoding
:meth:`SessionState.to_dict` — the dict form stays the oracle that the
wire check and the fuzzer compare with.
"""

from __future__ import annotations

import json
from typing import Any

from ..service.navigation import Transition
from ..service.serialize import Parts, array_parts, object_parts, value_json
from ..service.state import SessionState

__all__ = [
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
    "Spliced",
    "canonical_json",
    "ok_envelope",
    "error_envelope",
    "error_payload",
    "status_for",
    "transition_payload",
    "session_payload",
    "suggestions_payload",
]


# ----------------------------------------------------------------------
# Typed transport/server errors
# ----------------------------------------------------------------------


class NetError(Exception):
    """Base for errors minted by the network layer itself.

    Each subclass carries the HTTP status it maps to; the error type on
    the wire is simply the class name, mirroring how service exceptions
    are reported.
    """

    status = 500


class BadRequest(NetError):
    """Malformed request: bad request line, bad JSON, missing fields."""

    status = 400


class NotFound(NetError):
    """Unknown route or unknown session name."""

    status = 404


class MethodNotAllowed(NetError):
    """The route exists but not for this HTTP method."""

    status = 405


class PayloadTooLarge(NetError):
    """Declared or actual body size above the configured cap."""

    status = 413


class DeadlineExceeded(NetError):
    """The per-request deadline elapsed before a response was ready."""

    status = 504


class ServerOverloaded(NetError):
    """The bounded accept queue is full; the request was never admitted."""

    status = 503


class ServerDraining(NetError):
    """The server is shutting down and no longer admits requests."""

    status = 503


class WorkerUnavailable(NetError):
    """The shard that owns this session has no live worker process."""

    status = 503


class ClientDisconnect(NetError):
    """The peer vanished mid-request; no response can be delivered."""

    status = 0  # never serialized — there is nobody to send it to


# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------


class Spliced:
    """Canonical JSON bytes, in pieces, that :func:`canonical_json`
    inserts verbatim."""

    __slots__ = ("parts",)

    def __init__(self, parts: Parts):
        self.parts = parts


class _HasSpliced(Exception):
    pass


def _refuse(value: Any) -> Any:
    if isinstance(value, Spliced):
        raise _HasSpliced
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


#: :func:`~repro.service.serialize.value_json`'s settings, stopping at
#: the first spliced value.
_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, default=_refuse
).encode


def canonical_json(payload: Any) -> bytes:
    """The one true byte encoding of a wire payload.

    A payload holding :class:`Spliced` values (inside string-keyed
    dicts and lists) is encoded piecewise and joined once; anything
    else is one ``json`` call.
    """
    try:
        return _encode(payload).encode("ascii")
    except _HasSpliced:
        return b"".join(_parts(payload))


def _parts(value: Any) -> Parts:
    if isinstance(value, Spliced):
        return value.parts
    if isinstance(value, dict):
        return object_parts({key: _parts(item) for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return array_parts(_parts(item) for item in value)
    return [value_json(value)]


def ok_envelope(result: Any) -> dict[str, Any]:
    return {"ok": True, "result": result}


def error_payload(error: BaseException) -> dict[str, Any]:
    """The typed error descriptor for any exception.

    ``KeyError`` needs its argument unwrapped (``str(KeyError("x"))`` is
    ``"'x'"``); every other exception reports ``str(error)``.  The type
    is the exception class name — the service's exception vocabulary
    (IndexError, RuntimeError, ValueError, KeyError, TypeError,
    StateSerializationError, StateLoadError) is closed and documented,
    so the name is a stable contract.
    """
    if isinstance(error, KeyError) and error.args:
        message = str(error.args[0])
    else:
        message = str(error)
    return {"type": type(error).__name__, "message": message}


def error_envelope(error: BaseException) -> dict[str, Any]:
    return {"ok": False, "error": error_payload(error)}


def status_for(error: BaseException) -> int:
    """The HTTP status an exception maps to.

    Network-layer errors carry their own status; everything raised by
    the service while interpreting a syntactically valid request is a
    422 — the request was understood, the command could not be applied.
    """
    if isinstance(error, NetError):
        return error.status
    return 422


# ----------------------------------------------------------------------
# Result payloads (shared by the server and the in-process parity side)
# ----------------------------------------------------------------------


def transition_payload(transition: Transition) -> dict[str, Any]:
    """What an ``apply`` responds with: the full new state + outcome.

    The state is the lossless :meth:`SessionState.to_dict` wire form
    (pre-encoded, see the module docstring), so a client holds
    everything needed to render the view (its extension, description,
    and query), the chips, the trail, and the back stack — and the
    parity check compares entire states, not summaries.
    """
    outcome = transition.outcome
    if outcome is not None and not isinstance(outcome, (bool, int, float, str)):
        outcome = repr(outcome)
    return {"state": Spliced(transition.state.json_parts()), "outcome": outcome}


def session_payload(name: str, state: SessionState) -> dict[str, Any]:
    """What creating a session responds with: its name and first state."""
    return {"name": name, "state": Spliced(state.json_parts())}


def suggestions_payload(result) -> dict[str, Any]:
    """What ``suggest`` responds with: ordered presented suggestions.

    Actions are not serialized (they may hold callbacks); a client
    re-issues the suggestion as a typed command.  The
    (advisor, title, group, weight) quadruple is exactly what the
    fuzzer's determinism probe compares, so wire parity here means the
    suggestion cycle survives the network boundary.
    """
    return {
        "suggestions": [
            {
                "advisor": s.advisor,
                "title": s.title,
                "group": s.group,
                "weight": s.weight,
            }
            for s in result.all_suggestions()
        ]
    }
