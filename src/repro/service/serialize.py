"""JSON codecs for RDF terms and predicate trees.

:class:`~repro.service.state.SessionState` must travel between
processes (session migration, save/load, a future server frontend), so
everything it references — terms and predicate ASTs — needs a stable,
dependency-free wire form.  The codecs below are total over the built-in
term and predicate types and raise :class:`StateSerializationError` for
anything else (custom predicate subclasses must register nothing here;
sessions using them simply are not portable).

The format is versioned dict-of-plain-values JSON: terms are tagged by
kind (``uri``/``bnode``/``lit``), predicates by a short type tag.
``ValueIn``'s value set is emitted sorted by N-Triples form so the same
predicate always serializes to the same bytes.

:func:`value_json` is the one JSON byte encoding (sorted keys,
minimal separators, ASCII).  :func:`node_json` memoizes a term's
canonical bytes on the immutable term itself, so a view that lists
thousands of items is assembled by joining fragments instead of
re-encoding every term.  The view then keeps the joined body
(:meth:`ViewState.json_bytes`) and its back-stack header
(:meth:`ViewState.header_json`), and :meth:`SessionState.json_parts`
splices both whole into the response form.  These pieces travel as
they are down to the socket (:func:`repro.net.protocol.canonical_parts`).
:func:`object_parts` memoizes the encoded member names, so a response
encodes no key.  Saves do not use the pieces: they write
:meth:`SessionState.to_dict` through ``json``.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Any, Iterable, Mapping, Sequence

from ..query.ast import (
    And,
    Cardinality,
    HasProperty,
    HasValue,
    Not,
    Or,
    Path,
    PathStep,
    PathValue,
    Predicate,
    Range,
    TextMatch,
    TypeIs,
    ValueIn,
)
from ..rdf.terms import BlankNode, Literal, Node, Resource

__all__ = [
    "StateSerializationError",
    "StateLoadError",
    "node_to_dict",
    "node_from_dict",
    "value_json",
    "node_json",
    "nodes_json",
    "Parts",
    "object_parts",
    "array_parts",
    "path_step_to_dict",
    "path_step_from_dict",
    "predicate_to_dict",
    "predicate_from_dict",
]


class StateSerializationError(ValueError):
    """A term or predicate has no JSON representation."""


class StateLoadError(StateSerializationError):
    """A persisted session state cannot be resumed.

    Raised for every way a saved state can fail to load — unreadable
    file, truncated/corrupt JSON, unknown ``STATE_FORMAT_VERSION``,
    missing or ill-typed fields — so callers handle one exception type
    and are guaranteed the failure left no half-resumed session behind.
    """


# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------


def node_to_dict(node: Node) -> dict[str, Any]:
    """Encode a term as a plain dict."""
    if isinstance(node, Resource):
        return {"t": "uri", "v": node.uri}
    if isinstance(node, BlankNode):
        return {"t": "bnode", "v": node.node_id}
    if isinstance(node, Literal):
        encoded: dict[str, Any] = {"t": "lit", "v": node.lexical}
        if node.datatype is not None:
            encoded["dt"] = node.datatype
        if node.language is not None:
            encoded["lang"] = node.language
        return encoded
    raise StateSerializationError(f"cannot serialize term {node!r}")


_canonical_text = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True
).encode


def value_json(value: Any) -> bytes:
    """The canonical JSON bytes of a JSON-safe value: sorted keys,
    minimal separators, only ASCII (the wire encoding of
    :mod:`repro.net.protocol`)."""
    return _canonical_text(value).encode("ascii")


#: Canonical JSON bytes as a list of pieces to be joined once.  A large
#: payload is assembled this way so that each piece is copied only by
#: the final join, not once per nesting level.
Parts = list[bytes]

_memoized = attrgetter("_json")


def node_json(node: Node) -> bytes:
    """The canonical bytes of ``node_to_dict(node)``, memoized on the term.

    Terms are immutable, so the bytes are computed once per term object
    (like its cached hash) and reused by every state that names it.
    """
    try:
        return node._json
    except AttributeError:
        return _fragment_of(node)


def nodes_json(nodes: Sequence[Node]) -> Parts:
    """The canonical JSON array of ``node_to_dict`` of each node."""
    try:
        joined = b",".join(map(_memoized, nodes))
    except AttributeError:
        joined = b",".join(map(node_json, nodes))
    return [b"[", joined, b"]"]


def _fragment_of(node: Node) -> bytes:
    data = value_json(node_to_dict(node))
    object.__setattr__(node, "_json", data)
    return data


#: ``"key":`` as bytes, per member name.  The objects assembled from
#: parts are the session state, its views and the response envelopes,
#: whose member names are fixed, so this holds a few dozen entries.
_member_keys: dict[str, bytes] = {}


def object_parts(members: Mapping[str, bytes | Parts]) -> Parts:
    """A JSON object from already-encoded member values, keys sorted."""
    parts = [b"{"]
    for key in sorted(members):
        if len(parts) > 1:
            parts.append(b",")
        prefix = _member_keys.get(key)
        if prefix is None:
            prefix = _member_keys[key] = value_json(key) + b":"
        parts.append(prefix)
        value = members[key]
        if isinstance(value, bytes):
            parts.append(value)
        else:
            parts += value
    parts.append(b"}")
    return parts


def array_parts(elements: Iterable[Parts]) -> Parts:
    """A JSON array from already-encoded elements."""
    parts = [b"["]
    for element in elements:
        if len(parts) > 1:
            parts.append(b",")
        parts += element
    parts.append(b"]")
    return parts


def node_from_dict(data: dict[str, Any]) -> Node:
    """Decode a term encoded by :func:`node_to_dict`."""
    kind = data.get("t")
    if kind == "uri":
        return Resource(data["v"])
    if kind == "bnode":
        return BlankNode(data["v"])
    if kind == "lit":
        return Literal(
            data["v"], datatype=data.get("dt"), language=data.get("lang")
        )
    raise StateSerializationError(f"unknown term tag {kind!r}")


# ----------------------------------------------------------------------
# Path steps
# ----------------------------------------------------------------------


def path_step_to_dict(step: PathStep) -> dict[str, Any]:
    """Encode one hop of a property path (shared with the wire codec)."""
    encoded: dict[str, Any] = {"prop": node_to_dict(step.prop)}
    if step.inverse:
        encoded["inverse"] = True
    if step.closure:
        encoded["closure"] = step.closure
    return encoded


def path_step_from_dict(data: dict[str, Any]) -> PathStep:
    """Decode a hop encoded by :func:`path_step_to_dict`."""
    prop = node_from_dict(data["prop"])
    if not isinstance(prop, Resource):
        raise StateSerializationError(
            f"path step property must be a resource, got {prop!r}"
        )
    try:
        return PathStep(
            prop,
            inverse=bool(data.get("inverse", False)),
            closure=data.get("closure", ""),
        )
    except ValueError as error:
        raise StateSerializationError(str(error)) from error


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------


def predicate_to_dict(predicate: Predicate) -> dict[str, Any]:
    """Encode a predicate tree as a plain dict.

    ``TypeIs`` is checked before its base ``HasValue`` so the sugar
    round-trips to the same type (and keeps its chip description).
    """
    if isinstance(predicate, TypeIs):
        return {"t": "type_is", "type": node_to_dict(predicate.value)}
    if isinstance(predicate, HasValue):
        return {
            "t": "has_value",
            "prop": node_to_dict(predicate.prop),
            "value": node_to_dict(predicate.value),
        }
    if isinstance(predicate, HasProperty):
        return {"t": "has_property", "prop": node_to_dict(predicate.prop)}
    if isinstance(predicate, TextMatch):
        encoded: dict[str, Any] = {"t": "text", "text": predicate.text}
        if predicate.within is not None:
            encoded["within"] = node_to_dict(predicate.within)
        return encoded
    if isinstance(predicate, Range):
        return {
            "t": "range",
            "prop": node_to_dict(predicate.prop),
            "low": predicate.low,
            "high": predicate.high,
        }
    if isinstance(predicate, Path):
        encoded = {
            "t": "path",
            "steps": [path_step_to_dict(s) for s in predicate.steps],
        }
        if predicate.value is not None:
            encoded["value"] = node_to_dict(predicate.value)
        return encoded
    if isinstance(predicate, PathValue):
        return {
            "t": "path_value",
            "chain": [node_to_dict(p) for p in predicate.chain],
            "value": node_to_dict(predicate.value),
        }
    if isinstance(predicate, ValueIn):
        return {
            "t": "value_in",
            "prop": node_to_dict(predicate.prop),
            "values": [
                node_to_dict(v)
                for v in sorted(predicate.values, key=lambda n: n.n3())
            ],
            "quantifier": predicate.quantifier,
        }
    if isinstance(predicate, Cardinality):
        return {
            "t": "cardinality",
            "prop": node_to_dict(predicate.prop),
            "at_least": predicate.at_least,
            "at_most": predicate.at_most,
        }
    if isinstance(predicate, And):
        return {"t": "and", "parts": [predicate_to_dict(p) for p in predicate.parts]}
    if isinstance(predicate, Or):
        return {"t": "or", "parts": [predicate_to_dict(p) for p in predicate.parts]}
    if isinstance(predicate, Not):
        return {"t": "not", "part": predicate_to_dict(predicate.part)}
    raise StateSerializationError(
        f"cannot serialize predicate type {type(predicate).__name__}"
    )


def predicate_from_dict(data: dict[str, Any]) -> Predicate:
    """Decode a predicate encoded by :func:`predicate_to_dict`."""
    kind = data.get("t")
    if kind == "type_is":
        return TypeIs(node_from_dict(data["type"]))
    if kind == "has_value":
        return HasValue(node_from_dict(data["prop"]), node_from_dict(data["value"]))
    if kind == "has_property":
        return HasProperty(node_from_dict(data["prop"]))
    if kind == "text":
        within = data.get("within")
        return TextMatch(
            data["text"],
            within=node_from_dict(within) if within is not None else None,
        )
    if kind == "range":
        return Range(node_from_dict(data["prop"]), low=data["low"], high=data["high"])
    if kind == "path":
        value = data.get("value")
        return Path(
            [path_step_from_dict(s) for s in data["steps"]],
            node_from_dict(value) if value is not None else None,
        )
    if kind == "path_value":
        return PathValue(
            [node_from_dict(p) for p in data["chain"]],
            node_from_dict(data["value"]),
        )
    if kind == "value_in":
        return ValueIn(
            node_from_dict(data["prop"]),
            [node_from_dict(v) for v in data["values"]],
            quantifier=data["quantifier"],
        )
    if kind == "cardinality":
        return Cardinality(
            node_from_dict(data["prop"]),
            at_least=data["at_least"],
            at_most=data["at_most"],
        )
    if kind == "and":
        return And([predicate_from_dict(p) for p in data["parts"]])
    if kind == "or":
        return Or([predicate_from_dict(p) for p in data["parts"]])
    if kind == "not":
        return Not(predicate_from_dict(data["part"]))
    raise StateSerializationError(f"unknown predicate tag {kind!r}")
