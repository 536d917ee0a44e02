"""Immutable, serializable per-user session state.

Query-by-navigation browsing is a state machine: every interaction is a
pure transition over (query, focus, trail).  :class:`SessionState`
captures everything one user's browsing amounts to — the current view,
the refinement trail, the visit log, the back stack, bookmarks, and
relevance-feedback marks — as frozen tuples, so a transition produces a
*new* state and the old one stays valid (undo, replay, migration, and
concurrent serving all fall out of this shape).

The state deliberately holds no workspace references: terms and
predicates are value objects, so a state built against one workspace can
be replayed against any workspace holding the same corpus.
``to_dict``/``from_dict`` give the JSON wire form used by session
save/load and the :class:`~repro.service.manager.SessionManager`.
``json_bytes`` is that form's canonical JSON, assembled from memoized
term fragments; ``to_dict`` stays the oracle it must equal byte for
byte.

A view caches two things derived from its items.  One is their
bitmask over one intern table (:meth:`ViewState.bits`), so a preview
against it is one AND and one popcount.  The other is its encoded body
(:meth:`ViewState.json_bytes`), so a view is encoded once, when a
response first carries it, and every later state that holds it on its
back stack splices the same bytes.  Neither cache is part of the value:
equality, hashing and the wire form ignore them.  The bodies cost
memory in proportion to the distinct collection views that live
sessions hold; the landing view, the largest, is one object per
workspace (:func:`~repro.service.navigation.landing_view`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Iterable

from ..perf.intern import InternTable
from ..query.ast import And, Predicate
from ..rdf.terms import Node
from .serialize import (
    Parts,
    StateSerializationError,
    array_parts,
    node_from_dict,
    node_json,
    node_to_dict,
    nodes_json,
    object_parts,
    predicate_from_dict,
    predicate_to_dict,
    value_json,
)

__all__ = ["ViewState", "SessionState", "STATE_FORMAT_VERSION"]

#: Bumped whenever the serialized layout changes incompatibly.
STATE_FORMAT_VERSION = 1

#: Default back-stack depth, matching the pre-refactor hardcoded bound.
DEFAULT_BACK_LIMIT = 100


@dataclass(frozen=True)
class ViewState:
    """The value-object core of a :class:`~repro.core.view.View`.

    ``kind`` is ``"item"`` or ``"collection"``; exactly the fields the
    kind needs are populated, mirroring ``View``'s invariants.
    """

    kind: str
    item: Node | None = None
    items: tuple[Node, ...] = ()
    query: Predicate | None = None
    description: str | None = None

    KIND_ITEM = "item"
    KIND_COLLECTION = "collection"

    @property
    def is_item(self) -> bool:
        return self.kind == self.KIND_ITEM

    @property
    def is_collection(self) -> bool:
        return self.kind == self.KIND_COLLECTION

    def bits(self, table: InternTable) -> int:
        """The items as a bitmask over ``table``, derived once per table.

        The view remembers one ``(table, mask)`` pair and holds the table
        weakly, so a retired epoch's table is not kept alive by the
        views that outlive it.  A mask is never read against any other
        table: a session migrated to a new epoch keeps its items, and
        their mask is derived again, once, against the new table.
        """
        cached = self.__dict__.get("_bits")
        if cached is not None and cached[0]() is table:
            return cached[1]
        mask = table.bits_of(self.items)
        self.keep_bits(table, mask)
        return mask

    def keep_bits(self, table: InternTable, mask: int) -> None:
        """Record ``mask`` as the items' bitmask over ``table``.

        For callers that already hold it (a refinement's result mask,
        the universe mask of a landing view); it must equal
        ``table.bits_of(self.items)``.
        """
        object.__setattr__(self, "_bits", (weakref.ref(table), mask))

    def constraints(self) -> list[Predicate]:
        """The query's top-level conjuncts (the constraint chips)."""
        if self.query is None:
            return []
        if isinstance(self.query, And):
            return list(self.query.parts)
        return [self.query]

    @classmethod
    def of_item(cls, item: Node) -> "ViewState":
        return cls(kind=cls.KIND_ITEM, item=item)

    @classmethod
    def of_collection(
        cls,
        items: Iterable[Node],
        query: Predicate | None = None,
        description: str | None = None,
    ) -> "ViewState":
        return cls(
            kind=cls.KIND_COLLECTION,
            items=tuple(items),
            query=query,
            description=description,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "item": node_to_dict(self.item) if self.item is not None else None,
            "items": [node_to_dict(n) for n in self.items],
            "query": (
                predicate_to_dict(self.query) if self.query is not None else None
            ),
            "description": self.description,
        }

    def json_bytes(self) -> bytes:
        """The canonical JSON of :meth:`to_dict`, encoded once per view.

        A view is encoded when a response first carries it and its bytes
        are kept, so an apply encodes only the view it arrives at and
        splices the back stack's bodies as they are.  Like the mask, the
        memo is not part of the value: equality, hashing and the wire
        form ignore it, and :func:`dataclasses.replace` makes a new view
        with none.
        """
        try:
            return self.__dict__["_json"]
        except KeyError:
            data = b"".join(self._encode())
            object.__setattr__(self, "_json", data)
            return data

    def _encode(self) -> Parts:
        return object_parts({
            "kind": value_json(self.kind),
            "item": b"null" if self.item is None else node_json(self.item),
            "items": nodes_json(self.items),
            "query": value_json(
                predicate_to_dict(self.query) if self.query is not None else None
            ),
            "description": value_json(self.description),
        })

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ViewState":
        kind = data["kind"]
        if kind not in (cls.KIND_ITEM, cls.KIND_COLLECTION):
            raise StateSerializationError(f"unknown view kind {kind!r}")
        if kind == cls.KIND_ITEM and data["item"] is None:
            raise StateSerializationError("item view without an item")
        return cls(
            kind=kind,
            item=node_from_dict(data["item"]) if data["item"] is not None else None,
            items=tuple(node_from_dict(n) for n in data["items"]),
            query=(
                predicate_from_dict(data["query"])
                if data["query"] is not None
                else None
            ),
            description=data["description"],
        )


@dataclass(frozen=True)
class SessionState:
    """One user's complete browsing state, as an immutable value.

    Transitions live in :class:`~repro.service.navigation.NavigationService`;
    this class only holds data plus the JSON round-trip.  ``visits`` is
    the raw visit sequence — transition statistics (the "intelligent
    history") are a pure function of it and are rebuilt on demand.
    """

    view: ViewState
    trail: tuple[tuple[Predicate | None, str], ...] = ()
    visits: tuple[Node, ...] = ()
    back_stack: tuple[ViewState, ...] = ()
    bookmarks: tuple[Node, ...] = ()
    feedback_relevant: tuple[Node, ...] = ()
    feedback_non_relevant: tuple[Node, ...] = ()
    feedback_seed: Predicate | None = None
    feedback_active: bool = False
    fuzzy_on_empty: bool = False
    fuzzy_k: int = 10
    last_was_fuzzy: bool = False
    back_limit: int = DEFAULT_BACK_LIMIT
    session_id: str | None = None
    #: When set, the session browses a historical ``as_of`` view of the
    #: workspace pinned at this transaction id (time-travel navigation).
    as_of_tx: int | None = None
    #: The epoch this session is pinned to when the server runs live
    #: ingestion.  None means "not epoch-managed" (static corpus); the
    #: key is omitted from the wire form in that case so pre-epoch
    #: payloads stay byte-identical.
    epoch: int | None = None

    @classmethod
    def initial(
        cls,
        landing: ViewState,
        fuzzy_on_empty: bool = False,
        fuzzy_k: int = 10,
        back_limit: int = DEFAULT_BACK_LIMIT,
        session_id: str | None = None,
    ) -> "SessionState":
        """The fresh-session state: at ``landing``, empty memories.

        ``landing`` is the view of every item, described "everything";
        the sessions of one workspace share one such view, so its body
        and mask are derived once.
        """
        if back_limit < 1:
            raise ValueError("back_limit must be at least 1")
        return cls(
            view=landing,
            fuzzy_on_empty=fuzzy_on_empty,
            fuzzy_k=fuzzy_k,
            back_limit=back_limit,
            session_id=session_id,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The JSON-safe wire form (lossless; see ``from_dict``)."""
        data = self._small_fields()
        data.update(
            view=self.view.to_dict(),
            visits=[node_to_dict(n) for n in self.visits],
            back_stack=[view.to_dict() for view in self.back_stack],
            bookmarks=[node_to_dict(n) for n in self.bookmarks],
        )
        return data

    def json_bytes(self) -> bytes:
        """The canonical JSON of :meth:`to_dict`, byte for byte."""
        return b"".join(self.json_parts())

    def json_parts(self) -> Parts:
        """:meth:`json_bytes` as pieces, for splicing into a response.

        The views are where a state's size lies (every item of every
        view on the back stack).  Each is one piece, the body the view
        memoized when it was first encoded, so a new state encodes only
        the view it arrived at.  The visit log and the bookmarks are
        joined from :func:`~repro.service.serialize.node_json`
        fragments.  Everything else is small and is encoded whole.
        """
        members: dict[str, bytes | Parts] = {
            key: value_json(value) for key, value in self._small_fields().items()
        }
        members.update(
            view=self.view.json_bytes(),
            visits=nodes_json(self.visits),
            back_stack=array_parts(
                [view.json_bytes()] for view in self.back_stack
            ),
            bookmarks=nodes_json(self.bookmarks),
        )
        return object_parts(members)

    def _small_fields(self) -> dict[str, Any]:
        """The wire form minus the views, visits and bookmarks."""
        data = {
            "format": STATE_FORMAT_VERSION,
            "session_id": self.session_id,
            "trail": [
                [
                    predicate_to_dict(query) if query is not None else None,
                    description,
                ]
                for query, description in self.trail
            ],
            "feedback": {
                "active": self.feedback_active,
                "seed": (
                    predicate_to_dict(self.feedback_seed)
                    if self.feedback_seed is not None
                    else None
                ),
                "relevant": [node_to_dict(n) for n in self.feedback_relevant],
                "non_relevant": [
                    node_to_dict(n) for n in self.feedback_non_relevant
                ],
            },
            "fuzzy_on_empty": self.fuzzy_on_empty,
            "fuzzy_k": self.fuzzy_k,
            "last_was_fuzzy": self.last_was_fuzzy,
            "back_limit": self.back_limit,
            "as_of": self.as_of_tx,
        }
        if self.epoch is not None:
            data["epoch"] = self.epoch
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SessionState":
        """Rebuild a state from :meth:`to_dict` output.

        Every malformed payload — wrong version, missing keys, ill-typed
        fields — raises :class:`StateSerializationError` (never a raw
        ``KeyError``/``TypeError``), so persistence callers can promise
        "resumed losslessly or failed with a typed error".
        """
        if not isinstance(data, dict):
            raise StateSerializationError(
                f"session state must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("format")
        if version != STATE_FORMAT_VERSION:
            raise StateSerializationError(
                f"unsupported session state format {version!r} "
                f"(this build reads {STATE_FORMAT_VERSION})"
            )
        try:
            return cls._from_dict_checked(data)
        except StateSerializationError:
            raise
        except (KeyError, IndexError, TypeError, AttributeError, ValueError) as error:
            raise StateSerializationError(
                f"malformed session state: {error!r}"
            ) from error

    @classmethod
    def _from_dict_checked(cls, data: dict[str, Any]) -> "SessionState":
        feedback = data["feedback"]
        back_limit = data["back_limit"]
        if not isinstance(back_limit, int) or back_limit < 1:
            raise StateSerializationError(
                f"back_limit must be a positive integer, got {back_limit!r}"
            )
        # States written before the store refactor lack the key: absent
        # means "live head", same as an explicit null.
        as_of_tx = data.get("as_of")
        if as_of_tx is not None and (
            not isinstance(as_of_tx, int)
            or isinstance(as_of_tx, bool)
            or as_of_tx < 0
        ):
            raise StateSerializationError(
                f"as_of must be a non-negative integer or null, got {as_of_tx!r}"
            )
        # Absent for static-corpus sessions and payloads written before
        # live ingestion existed.
        epoch = data.get("epoch")
        if epoch is not None and (
            not isinstance(epoch, int)
            or isinstance(epoch, bool)
            or epoch < 0
        ):
            raise StateSerializationError(
                f"epoch must be a non-negative integer or null, got {epoch!r}"
            )
        return cls(
            view=ViewState.from_dict(data["view"]),
            trail=tuple(
                (
                    predicate_from_dict(query) if query is not None else None,
                    description,
                )
                for query, description in data["trail"]
            ),
            visits=tuple(node_from_dict(n) for n in data["visits"]),
            back_stack=tuple(
                ViewState.from_dict(view) for view in data["back_stack"]
            ),
            bookmarks=tuple(node_from_dict(n) for n in data["bookmarks"]),
            feedback_relevant=tuple(
                node_from_dict(n) for n in feedback["relevant"]
            ),
            feedback_non_relevant=tuple(
                node_from_dict(n) for n in feedback["non_relevant"]
            ),
            feedback_seed=(
                predicate_from_dict(feedback["seed"])
                if feedback["seed"] is not None
                else None
            ),
            feedback_active=feedback["active"],
            fuzzy_on_empty=data["fuzzy_on_empty"],
            fuzzy_k=data["fuzzy_k"],
            last_was_fuzzy=data["last_was_fuzzy"],
            back_limit=back_limit,
            session_id=data["session_id"],
            as_of_tx=as_of_tx,
            epoch=epoch,
        )
