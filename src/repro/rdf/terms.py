"""RDF term types: the nodes and arc labels of a semantic network.

The paper's data model (§2, §5) is RDF: a directed graph whose nodes are
*resources* (complex information objects) or *literals* (primitive
values — strings, numbers, dates), connected by *property* arcs that are
themselves resources.  This module defines the immutable term types used
throughout the repository.

Terms are hashable value objects so they can be used directly as
dictionary keys in the triple store's indexes and as coordinates in the
vector space model.
"""

from __future__ import annotations

import datetime as _dt
from typing import Union

__all__ = [
    "Term",
    "Resource",
    "BlankNode",
    "Literal",
    "Node",
    "coerce_literal",
]


class Term:
    """Base class for every RDF term.

    Subclasses are immutable: equality and hashing are value-based, which
    lets terms serve as index keys and vector coordinates.
    """

    __slots__ = ()

    def n3(self) -> str:
        """Return the N-Triples surface form of this term."""
        raise NotImplementedError


class Resource(Term):
    """A named node (URI reference) in the graph.

    Resources identify complex information objects — a recipe, an e-mail,
    a person — as well as the properties connecting them.
    """

    # ``_json`` holds the term's canonical JSON bytes once a state
    # that names it is encoded (``repro.service.serialize.node_json``);
    # it stays unset until then, so building a term costs nothing extra.
    __slots__ = ("uri", "_hash", "_json")
    _json: bytes

    def __init__(self, uri: str):
        if not uri:
            raise ValueError("Resource URI must be a non-empty string")
        object.__setattr__(self, "uri", uri)
        # Terms are dict keys on every hot path (triple indexes, facet
        # tallies, vector coordinates); immutability makes the hash
        # cacheable at construction.
        object.__setattr__(self, "_hash", hash(("Resource", uri)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Resource is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Resource) and self.uri == other.uri

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Resource({self.uri!r})"

    def __lt__(self, other: "Resource") -> bool:
        if not isinstance(other, Resource):
            return NotImplemented
        return self.uri < other.uri

    def n3(self) -> str:
        return f"<{self.uri}>"

    @property
    def local_name(self) -> str:
        """The fragment after the last '#' or '/' — a readable short name."""
        for sep in ("#", "/"):
            if sep in self.uri:
                tail = self.uri.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return self.uri


class BlankNode(Term):
    """An anonymous node, identified only within one graph."""

    __slots__ = ("node_id", "_hash", "_json")
    _json: bytes

    def __init__(self, node_id: str):
        if not node_id:
            raise ValueError("BlankNode id must be a non-empty string")
        object.__setattr__(self, "node_id", node_id)
        object.__setattr__(self, "_hash", hash(("BlankNode", node_id)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("BlankNode is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlankNode) and self.node_id == other.node_id

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BlankNode({self.node_id!r})"

    def n3(self) -> str:
        return f"_:{self.node_id}"


#: XSD datatype URIs used for typed literals.
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"
XSD_DATE = "http://www.w3.org/2001/XMLSchema#date"
XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"


class Literal(Term):
    """A primitive value: string, number, boolean, or date.

    A literal carries its lexical form plus an optional datatype URI.
    ``value`` converts the lexical form to the natural Python type, which
    the query engine's typed extensions (§4.2) and the vector space
    model's numeric encoding (§5.4) rely on.
    """

    __slots__ = ("lexical", "datatype", "language", "_hash", "_json")
    _json: bytes

    def __init__(self, lexical, datatype: str | None = None,
                 language: str | None = None):
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot have both datatype and language")
        if datatype is None and language is None and not isinstance(lexical, str):
            lexical, datatype = _infer_lexical(lexical)
        lexical = str(lexical)
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)
        object.__setattr__(
            self, "_hash", hash(("Literal", lexical, datatype, language))
        )

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Literal is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        extra = ""
        if self.datatype:
            extra = f", datatype={self.datatype!r}"
        elif self.language:
            extra = f", language={self.language!r}"
        return f"Literal({self.lexical!r}{extra})"

    def __lt__(self, other: "Literal") -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        """A key that orders numeric literals numerically, others lexically."""
        if self.is_numeric:
            return (0, float(self.value), "")
        return (1, 0.0, self.lexical)

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.datatype:
            return f'"{escaped}"^^<{self.datatype}>'
        if self.language:
            return f'"{escaped}"@{self.language}'
        return f'"{escaped}"'

    @property
    def is_numeric(self) -> bool:
        return self.datatype in (XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE)

    @property
    def is_temporal(self) -> bool:
        return self.datatype in (XSD_DATE, XSD_DATETIME)

    @property
    def value(self):
        """The literal as a natural Python value (str/int/float/bool/date)."""
        if self.datatype == XSD_INTEGER:
            return int(self.lexical)
        if self.datatype in (XSD_DECIMAL, XSD_DOUBLE):
            return float(self.lexical)
        if self.datatype == XSD_BOOLEAN:
            return self.lexical.strip().lower() in ("true", "1")
        if self.datatype == XSD_DATE:
            return _dt.date.fromisoformat(self.lexical)
        if self.datatype == XSD_DATETIME:
            return _dt.datetime.fromisoformat(self.lexical)
        return self.lexical

    def as_number(self) -> float | None:
        """The literal mapped onto the real line, or None when impossible.

        Temporal values map to ordinal days / POSIX-like seconds so that
        'a day apart' is numerically close (§5.4).
        """
        if self.is_numeric:
            return float(self.value)
        if self.datatype == XSD_DATE:
            return float(self.value.toordinal())
        if self.datatype == XSD_DATETIME:
            stamp = self.value
            return float(stamp.toordinal()) + (
                stamp.hour * 3600 + stamp.minute * 60 + stamp.second
            ) / 86400.0
        try:
            return float(self.lexical)
        except ValueError:
            return None


#: Anything that may appear as the object of a triple.
Node = Union[Resource, BlankNode, Literal]


def _infer_lexical(value) -> tuple[str, str]:
    """Map a native Python value to (lexical form, datatype URI)."""
    if isinstance(value, bool):
        return ("true" if value else "false", XSD_BOOLEAN)
    if isinstance(value, int):
        return (str(value), XSD_INTEGER)
    if isinstance(value, float):
        return (repr(value), XSD_DOUBLE)
    if isinstance(value, _dt.datetime):
        return (value.isoformat(), XSD_DATETIME)
    if isinstance(value, _dt.date):
        return (value.isoformat(), XSD_DATE)
    raise TypeError(f"cannot build a Literal from {type(value).__name__}")


def coerce_literal(value) -> Literal:
    """Coerce a Python value (or existing Literal) to a Literal."""
    if isinstance(value, Literal):
        return value
    if isinstance(value, str):
        return Literal(value)
    return Literal(value)
