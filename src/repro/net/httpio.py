"""Minimal HTTP/1.1 framing helpers (stdlib-only).

The serving layer speaks plain HTTP so any client works, but it needs
tighter control than ``http.server`` offers: incremental framing on an
event loop, a hard body cap enforced from the declared length before
any body byte is read, and a typed error for every way a request can
be malformed.  This module is that thin layer: :class:`Request`, plus
:func:`find_head`, :func:`parse_head` and :func:`content_length`, which
the shared front door (:mod:`repro.net.front`) and the router's
upstream connections use to frame bytes they have buffered themselves.
"""

from __future__ import annotations

from .protocol import BadRequest, PayloadTooLarge

__all__ = [
    "Request",
    "find_head",
    "parse_head",
    "content_length",
    "STATUS_REASONS",
]

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class Request:
    """One parsed request: method, path, headers, raw body."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    @property
    def wants_keep_alive(self) -> bool:
        """Whether the client explicitly asked to reuse the connection."""
        return self.headers.get("connection", "").lower() == "keep-alive"

    def __repr__(self) -> str:
        return f"<Request {self.method} {self.path} body={len(self.body)}B>"


# ----------------------------------------------------------------------
# Incremental parsing (event-loop callers: front, router)
# ----------------------------------------------------------------------


def find_head(buffer: bytearray) -> tuple[int, int]:
    """Locate the header terminator: (end_of_head, body_start) or (-1, -1).

    Event-loop code never blocks on a socket; it accumulates bytes and
    asks this: is a complete header block buffered yet?
    """
    end = buffer.find(b"\r\n\r\n")
    if end >= 0:
        return end, end + 4
    end = buffer.find(b"\n\n")
    if end >= 0:
        return end, end + 2
    return -1, -1


def parse_head(head: bytes) -> tuple[list[str], dict[str, str]]:
    """Split a header block into (first-line words, lowercased headers)."""
    lines = head.decode("latin-1").splitlines()
    if not lines or not lines[0].strip():
        raise BadRequest("empty request line")
    first = lines[0].strip().split(None, 2)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(f"malformed header line {line.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    return first, headers


def content_length(headers: dict[str, str], cap: int) -> int:
    """The validated Content-Length, or a typed framing error."""
    text = headers.get("content-length", "0")
    try:
        length = int(text)
    except ValueError:
        raise BadRequest(f"bad Content-Length {text!r}") from None
    if length < 0:
        raise BadRequest(f"bad Content-Length {text!r}")
    if length > cap:
        raise PayloadTooLarge(
            f"declared body of {length} bytes exceeds the {cap} byte cap"
        )
    return length
