"""The datom: one immutable fact about the repository.

A datom is a 5-tuple ``(s, p, o, tx, op)``: the triple, the transaction
that recorded it, and whether the transaction asserted (``+``) or
retracted (``-``) it.  Datoms are never updated or deleted — the log
only accumulates — so the current graph is a pure fold over the datom
sequence, and the graph *as of* any transaction is a fold over a
prefix.

The JSON wire form reuses the term codecs of
:mod:`repro.service.serialize`, so a datom serializes to the same tagged
dicts session states use and the segment files need no new vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..rdf.terms import BlankNode, Node, Resource

# NOTE: the term codecs live in repro.service.serialize, a layer above
# the rdf package this module feeds (Graph owns a DatomLog).  They are
# imported lazily inside the codec functions so rdf -> store keeps a
# downward-only import graph at module-load time.

__all__ = [
    "OP_ASSERT",
    "OP_RETRACT",
    "Datom",
    "datom_to_dict",
    "datom_from_dict",
    "term_decoder",
]

#: Operation tags.  Single characters: they appear once per line in
#: segment files, and the log can hold millions of datoms.
OP_ASSERT = "+"
OP_RETRACT = "-"


@dataclass(frozen=True)
class Datom:
    """One logged fact: triple + transaction id + assert/retract."""

    s: Resource | BlankNode
    p: Resource
    o: Node
    tx: int
    op: str

    def __post_init__(self) -> None:
        if self.op not in (OP_ASSERT, OP_RETRACT):
            raise ValueError(f"datom op must be '+' or '-', got {self.op!r}")
        if self.tx < 1:
            raise ValueError(f"datom tx must be >= 1, got {self.tx!r}")

    @property
    def asserts(self) -> bool:
        return self.op == OP_ASSERT

    @property
    def triple(self) -> tuple:
        return (self.s, self.p, self.o)

    def __repr__(self) -> str:
        return (
            f"<Datom {self.op}({self.s.n3()} {self.p.n3()} {self.o.n3()}) "
            f"tx={self.tx}>"
        )


def datom_to_dict(datom: Datom) -> dict[str, Any]:
    """The JSON-safe wire form of one datom."""
    from ..service.serialize import node_to_dict

    return {
        "s": node_to_dict(datom.s),
        "p": node_to_dict(datom.p),
        "o": node_to_dict(datom.o),
        "tx": datom.tx,
        "op": datom.op,
    }


def term_decoder() -> Callable[[Any], Node]:
    """A term decoder that returns one object per distinct term.

    A log names each subject, property and common value many times; a
    replay that decodes through one decoder builds each term once, and
    the graph then holds one object per term.  Terms are keyed on their
    wire fields ``(t, v, dt, lang)``, not on term equality, and only
    string-valued fields are keyed, so ``1``, ``True`` and ``1.0`` never
    share an entry.  Everything else, malformed input included, goes to
    ``node_from_dict`` as before.
    """
    from ..service.serialize import node_from_dict

    terms: dict[tuple, Node] = {}

    def decode(data: Any) -> Node:
        if type(data) is dict:
            kind, value = data.get("t"), data.get("v")
            datatype, language = data.get("dt"), data.get("lang")
            if (
                type(kind) is str
                and type(value) is str
                and (datatype is None or type(datatype) is str)
                and (language is None or type(language) is str)
            ):
                key = (kind, value, datatype, language)
                node = terms.get(key)
                if node is None:
                    node = terms[key] = node_from_dict(data)
                return node
        return node_from_dict(data)

    return decode


def datom_from_dict(
    data: dict[str, Any], decode: Callable[[Any], Node] | None = None
) -> Datom:
    """Decode a datom; malformed input raises StateSerializationError.

    ``decode`` decodes the three terms (``node_from_dict`` by default;
    a log replay passes one :func:`term_decoder`).
    """
    from ..service.serialize import StateSerializationError, node_from_dict

    if decode is None:
        decode = node_from_dict
    try:
        return Datom(
            s=decode(data["s"]),  # type: ignore[arg-type]
            p=decode(data["p"]),  # type: ignore[arg-type]
            o=decode(data["o"]),
            tx=data["tx"],
            op=data["op"],
        )
    except StateSerializationError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise StateSerializationError(f"malformed datom: {error!r}") from error
