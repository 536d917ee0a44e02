"""An RDF triple store: a datom log with three-way materialized views.

This is the semistructured repository Magnet browses (§2, §5).  The
implementation keeps the classic SPO / POS / OSP index trio so that every
triple pattern with at least one bound position resolves without a scan,
which the navigation analysts rely on heavily (facet counting touches the
POS index thousands of times per view).

Since the durable-store refactor the *source of truth* is the Datomic
information model: an accumulate-only :class:`~repro.store.log.DatomLog`
of ``(s, p, o, tx, op)`` 5-tuples.  Every effective mutation appends a
datom and applies it to the indexes, so the indexes are materialized
views of the log — :meth:`Graph.from_datoms` rebuilds them
bit-identically from a replay, and :meth:`Graph.as_of` folds a prefix
of the log into the graph *as it was* at any recorded transaction.
The mutation API is a byte-identical facade over that model: ``add``
and ``remove`` behave exactly as they always did.

The store is deliberately simple — set semantics, no inference — because
the paper treats the repository as a dumb graph and layers all smarts
(vector model, analysts) above it.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Iterable, Iterator

from ..perf.intern import InternTable
from ..store.datom import OP_ASSERT, OP_RETRACT, Datom
from ..store.log import DatomLog
from .terms import BlankNode, Literal, Node, Resource, Term, coerce_literal
from .vocab import RDF, RDFS

__all__ = ["Triple", "Graph"]

#: A triple is (subject, property, object).
Triple = tuple[Resource | BlankNode, Resource, Node]


def _check_subject(subject) -> Resource | BlankNode:
    if not isinstance(subject, (Resource, BlankNode)):
        raise TypeError(f"triple subject must be Resource/BlankNode, got {subject!r}")
    return subject


def _check_predicate(predicate) -> Resource:
    if not isinstance(predicate, Resource):
        raise TypeError(f"triple predicate must be Resource, got {predicate!r}")
    return predicate


def _check_object(obj) -> Node:
    if isinstance(obj, (Resource, BlankNode, Literal)):
        return obj
    return coerce_literal(obj)


class Graph:
    """A set of triples with SPO, POS, and OSP indexes.

    The three nested-dict indexes give O(1) access for any pattern with a
    bound position.  All query methods return iterators; callers that
    need stable order should sort (term types define total orders within
    their kind).
    """

    def __init__(self, triples: Iterable[Triple] | None = None):
        # index[s][p] -> set of o, and the two rotations.
        self._spo: dict[Node, dict[Node, set[Node]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._pos: dict[Node, dict[Node, set[Node]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._osp: dict[Node, dict[Node, set[Node]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._size = 0
        self._version = 0
        self._frozen = False
        self._historical_tx: int | None = None
        # Copy-on-write bookkeeping for forked graphs (see fork()).
        # A plain graph owns all of its structure outright.
        self._cow = False
        self._owned_spo: tuple[set, set] | None = None
        self._owned_pos: tuple[set, set] | None = None
        self._owned_osp: tuple[set, set] | None = None
        self._interner = InternTable()
        self._blank_counter = itertools.count(1)
        self._log = DatomLog()
        if triples:
            for s, p, o in triples:
                self.add(s, p, o)

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps on every effective add/remove.

        A fork carries it over, so a fork that replays a delta ends at
        the version a cold replay of the whole log reaches.
        """
        return self._version

    @property
    def log(self) -> DatomLog:
        """The accumulate-only datom log the indexes materialize."""
        return self._log

    @property
    def last_tx(self) -> int:
        """The highest transaction id recorded (0 for a fresh graph)."""
        return self._log.last_tx

    @property
    def interner(self) -> InternTable:
        """The graph's node ↔ int intern table (ids are never reused)."""
        return self._interner

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has sealed the graph."""
        return self._frozen

    def freeze(self) -> "Graph":
        """Seal the graph: any further add/remove raises.

        Freezing is what makes lock-free concurrent reads sound — the
        nested-dict indexes never change shape again, so the caches a
        query context derives from them never go stale.  Building a
        ``QueryContext`` (hence a ``Workspace``) seals its graph.
        Idempotent; returns ``self``.
        """
        self._frozen = True
        return self

    def _check_mutable(self, operation: str) -> None:
        if self._frozen:
            from ..core.workspace import (
                FrozenWorkspaceError,
                HistoricalWorkspaceError,
            )

            if self._historical_tx is not None:
                raise HistoricalWorkspaceError(
                    f"graph is a historical as-of view at tx "
                    f"{self._historical_tx}; cannot {operation}",
                    operation=operation,
                    tx=self._historical_tx,
                )
            raise FrozenWorkspaceError(
                f"graph is frozen; cannot {operation}", operation=operation
            )

    # -- index maintenance (the materialized-view side of the log) ------

    def _apply_assert(self, s, p, o) -> None:
        if self._cow:
            self._cow_own(s, p, o)
        self._spo[s][p].add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        self._size += 1
        self._version += 1

    def _apply_retract(self, s, p, o) -> None:
        if self._cow:
            self._cow_own(s, p, o)
        self._spo[s][p].remove(o)
        self._pos[p][o].discard(s)
        self._osp[o][s].discard(p)
        self._prune(self._spo, s, p)
        self._prune(self._pos, p, o)
        self._prune(self._osp, o, s)
        self._size -= 1
        self._version += 1

    def add(self, subject, predicate, obj) -> bool:
        """Add a triple; return True if it was not already present.

        The object may be a plain Python value (str/int/float/date/...),
        which is coerced to a :class:`Literal`.  An effective add is an
        auto-commit transaction: it appends one assert datom to the log.
        """
        self._check_mutable("add")
        s = _check_subject(subject)
        p = _check_predicate(predicate)
        o = _check_object(obj)
        if o in self._spo[s][p]:
            return False
        self._log.commit(
            (Datom(s, p, o, self._log.begin(), OP_ASSERT),)
        )
        self._apply_assert(s, p, o)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return the number actually inserted."""
        return sum(1 for s, p, o in triples if self.add(s, p, o))

    def remove(self, subject, predicate, obj) -> bool:
        """Remove one triple; return True if it was present.

        An effective remove appends one retract datom to the log.
        """
        self._check_mutable("remove")
        s = _check_subject(subject)
        p = _check_predicate(predicate)
        o = _check_object(obj)
        if o not in self._spo.get(s, {}).get(p, ()):
            return False
        self._log.commit(
            (Datom(s, p, o, self._log.begin(), OP_RETRACT),)
        )
        self._apply_retract(s, p, o)
        return True

    def remove_matching(self, subject=None, predicate=None, obj=None) -> int:
        """Remove every triple matching the pattern; return the count."""
        doomed = list(self.triples(subject, predicate, obj))
        for s, p, o in doomed:
            self.remove(s, p, o)
        return len(doomed)

    def transact(self, ops: Iterable[tuple]) -> int | None:
        """Apply many asserts/retracts atomically under ONE transaction.

        ``ops`` is an iterable of ``(op, subject, predicate, object)``
        tuples with ``op`` one of :data:`~repro.store.datom.OP_ASSERT` /
        :data:`~repro.store.datom.OP_RETRACT`.  Operations are validated
        up front (any bad term or unknown op raises before the graph is
        touched), then applied in order; ineffective operations (assert
        of a present triple, retract of an absent one — judged against
        the state *within* the transaction) are skipped and not logged.
        Returns the minted tx id, or ``None`` when nothing was
        effective.
        """
        self._check_mutable("transact")
        checked = []
        for entry in ops:
            try:
                op, subject, predicate, obj = entry
            except (TypeError, ValueError):
                raise ValueError(
                    f"transact op must be (op, s, p, o), got {entry!r}"
                ) from None
            if op not in (OP_ASSERT, OP_RETRACT):
                raise ValueError(f"unknown transact op {op!r}")
            checked.append(
                (op, _check_subject(subject), _check_predicate(predicate),
                 _check_object(obj))
            )
        tx = self._log.begin()
        datoms: list[Datom] = []
        for op, s, p, o in checked:
            present = o in self._spo.get(s, {}).get(p, ())
            if op == OP_ASSERT:
                if present:
                    continue
                self._apply_assert(s, p, o)
            else:
                if not present:
                    continue
                self._apply_retract(s, p, o)
            datoms.append(Datom(s, p, o, tx, op))
        if not datoms:
            return None
        self._log.commit(datoms)
        return tx

    @staticmethod
    def _prune(index, outer, inner) -> None:
        if not index[outer][inner]:
            del index[outer][inner]
            if not index[outer]:
                del index[outer]

    def new_blank_node(self) -> BlankNode:
        """Mint a blank node unique within this graph."""
        return BlankNode(f"b{next(self._blank_counter)}")

    # ------------------------------------------------------------------
    # Pattern matching
    # ------------------------------------------------------------------

    def triples(self, subject=None, predicate=None, obj=None) -> Iterator[Triple]:
        """Yield triples matching a pattern; None matches anything.

        Iteration is snapshot-stable at the index-bucket level: every
        dict or set is materialized the moment the walk reaches it, so
        mutating the graph mid-iteration (live ingestion folding a
        delta while a path BFS walks) never raises ``RuntimeError:
        dictionary changed size``.  Buckets are atomic — a concurrent
        writer is either fully visible in a bucket or not at all —
        but a multi-bucket walk does not freeze the whole graph.
        """
        if obj is not None and not isinstance(obj, Term):
            obj = coerce_literal(obj)
        if subject is not None:
            by_pred = self._spo.get(subject)
            if not by_pred:
                return
            if predicate is not None:
                objs = by_pred.get(predicate)
                if not objs:
                    return
                if obj is not None:
                    if obj in objs:
                        yield (subject, predicate, obj)
                    return
                for o in tuple(objs):
                    yield (subject, predicate, o)
                return
            for p, objs in list(by_pred.items()):
                if obj is not None:
                    if obj in objs:
                        yield (subject, p, obj)
                    continue
                for o in tuple(objs):
                    yield (subject, p, o)
            return
        if predicate is not None:
            by_obj = self._pos.get(predicate)
            if not by_obj:
                return
            if obj is not None:
                for s in tuple(by_obj.get(obj, ())):
                    yield (s, predicate, obj)
                return
            for o, subs in list(by_obj.items()):
                for s in tuple(subs):
                    yield (s, predicate, o)
            return
        if obj is not None:
            by_subj = self._osp.get(obj)
            if not by_subj:
                return
            for s, preds in list(by_subj.items()):
                for p in tuple(preds):
                    yield (s, p, obj)
            return
        for s, by_pred in list(self._spo.items()):
            for p, objs in list(by_pred.items()):
                for o in tuple(objs):
                    yield (s, p, o)

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple
        if not isinstance(o, Term):
            o = coerce_literal(o)
        return o in self._spo.get(s, {}).get(p, set())

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def subjects(self, predicate=None, obj=None) -> Iterator[Node]:
        """Yield distinct subjects matching (*, predicate, obj).

        Snapshot-stable: the matched bucket is materialized before any
        subject is yielded (see :meth:`triples`).
        """
        if predicate is not None and obj is not None:
            if not isinstance(obj, Term):
                obj = coerce_literal(obj)
            yield from tuple(self._pos.get(predicate, {}).get(obj, ()))
            return
        seen: set[Node] = set()
        for s, _p, _o in self.triples(None, predicate, obj):
            if s not in seen:
                seen.add(s)
                yield s

    def objects(self, subject=None, predicate=None) -> Iterator[Node]:
        """Yield distinct objects matching (subject, predicate, *).

        Snapshot-stable: the matched bucket is materialized before any
        object is yielded (see :meth:`triples`).
        """
        if subject is not None and predicate is not None:
            yield from tuple(self._spo.get(subject, {}).get(predicate, ()))
            return
        seen: set[Node] = set()
        for _s, _p, o in self.triples(subject, predicate, None):
            if o not in seen:
                seen.add(o)
                yield o

    def predicates(self, subject=None, obj=None) -> Iterator[Resource]:
        """Yield distinct predicates matching (subject, *, obj).

        Snapshot-stable: the matched bucket is materialized before any
        predicate is yielded (see :meth:`triples`).
        """
        if subject is not None and obj is not None:
            if not isinstance(obj, Term):
                obj = coerce_literal(obj)
            yield from tuple(self._osp.get(obj, {}).get(subject, ()))
            return
        seen: set[Resource] = set()
        for _s, p, _o in self.triples(subject, None, obj):
            if p not in seen:
                seen.add(p)
                yield p

    def value(self, subject, predicate, default=None) -> Node | None:
        """A single object for (subject, predicate), or ``default``.

        When several values exist an arbitrary-but-deterministic one
        (the minimum) is returned.
        """
        objs = self._spo.get(subject, {}).get(predicate)
        if not objs:
            return default
        return min(objs, key=_term_sort_key)

    def properties_of(self, subject) -> dict[Resource, set[Node]]:
        """All property → value-set pairs of a subject (copied)."""
        return {p: set(objs) for p, objs in self._spo.get(subject, {}).items()}

    def count_subjects(self, predicate, obj) -> int:
        """Number of distinct subjects of (*, predicate, obj) in O(1).

        Equivalent to ``sum(1 for _ in subjects(predicate, obj))`` but
        reads the POS bucket's size directly — the document-frequency
        lookup facet weighting performs once per suggestion.
        """
        if obj is not None and not isinstance(obj, Term):
            obj = coerce_literal(obj)
        return len(self._pos.get(predicate, {}).get(obj, ()))

    def items_of_type(self, rdf_type: Resource) -> Iterator[Node]:
        """Subjects with ``rdf:type rdf_type``."""
        return self.subjects(RDF.type, rdf_type)

    def label(self, node: Node) -> str:
        """A human-readable name for a node.

        Uses ``rdfs:label`` when present; otherwise the resource's local
        name or the literal's lexical form.  §6.1 observes that adding
        labels makes the interface markedly friendlier — this helper is
        where that annotation takes effect.
        """
        if isinstance(node, Literal):
            return node.lexical
        lab = self.value(node, RDFS.label)
        if isinstance(lab, Literal):
            return lab.lexical
        if isinstance(node, Resource):
            return node.local_name
        return node.node_id

    def subject_count(self) -> int:
        """Number of distinct subjects in the graph."""
        return len(self._spo)

    # ------------------------------------------------------------------
    # Whole-graph operations
    # ------------------------------------------------------------------

    def copy(self) -> "Graph":
        """A shallow structural copy (terms are immutable and shared).

        The copy starts a fresh log (its history is "created whole", one
        assert per triple); use :meth:`as_of`/:meth:`from_datoms` to
        preserve history.
        """
        clone = Graph()
        for s, p, o in self.triples():
            clone.add(s, p, o)
        return clone

    # ------------------------------------------------------------------
    # Copy-on-write forks (epoch snapshots)
    # ------------------------------------------------------------------

    def fork(self) -> "Graph":
        """A mutable copy-on-write successor of this (typically frozen) graph.

        The fork shares the middle dicts and leaf sets of all three
        indexes with its parent; the first mutation that would touch a
        shared structure copies it first, so the parent — usually a
        published epoch snapshot with pinned readers — is never aliased.
        The datom log is copied, so the fork continues the parent's tx
        sequence and keeps ``as_of`` working over the combined history.
        The version counter carries over: a fork that replays ``n``
        delta datoms ends at exactly the version a cold full-log replay
        would reach.
        """
        clone = Graph.__new__(Graph)
        clone._spo = defaultdict(lambda: defaultdict(set), self._spo)
        clone._pos = defaultdict(lambda: defaultdict(set), self._pos)
        clone._osp = defaultdict(lambda: defaultdict(set), self._osp)
        clone._size = self._size
        clone._version = self._version
        clone._frozen = False
        clone._historical_tx = None
        clone._interner = InternTable()
        clone._blank_counter = self._blank_counter
        clone._log = self._log.fork()
        clone._cow = True
        clone._owned_spo = (set(), set())
        clone._owned_osp = (set(), set())
        clone._owned_pos = (set(), set())
        return clone

    @staticmethod
    def _own_leaf(index, owned, outer, inner) -> None:
        """Ensure ``index[outer]`` and ``index[outer][inner]`` are unshared."""
        mids, leaves = owned
        if outer not in mids:
            mids.add(outer)
            mid = index.get(outer)
            if mid is not None:
                index[outer] = defaultdict(set, mid)
        key = (outer, inner)
        if key not in leaves:
            leaves.add(key)
            mid = index.get(outer)
            if mid is not None:
                leaf = mid.get(inner)
                if leaf is not None:
                    mid[inner] = set(leaf)

    def _cow_own(self, s, p, o) -> None:
        self._own_leaf(self._spo, self._owned_spo, s, p)
        self._own_leaf(self._pos, self._owned_pos, p, o)
        self._own_leaf(self._osp, self._owned_osp, o, s)

    def _preown_for_replay(self, datoms) -> None:
        """Faithfully rebuild the index leaves a delta replay will touch.

        ``set(leaf)`` preserves membership but not CPython's internal
        hash-table layout, and leaf-set iteration order leaks into
        downstream float summation (item profiles → sparse vectors →
        scores).  To keep a forked epoch *bit-identical* to a cold
        replay of the full log, every leaf the delta touches is rebuilt
        here by replaying that leaf's full op history from this fork's
        own log — including the prune-and-remint on emptying that
        ``_apply_retract``/``defaultdict`` perform — which reproduces
        the cold layout exactly.  Untouched leaves stay shared with the
        parent.  ``datoms`` must be a sequence.

        One walk of the log serves all three indexes, testing each
        datom against the SPO, POS and OSP leaves the delta touches.
        The walk is still O(history), whatever the delta's size.
        """
        if not self._cow:
            return
        spo_touched = {(d.s, d.p) for d in datoms}
        pos_touched = {(d.p, d.o) for d in datoms}
        osp_touched = {(d.o, d.s) for d in datoms}
        # Single-node prefilters: most datoms share no subject and no
        # object with the delta, and a Node hashes cheaper than a pair.
        subjects = {d.s for d in datoms}
        objects = {d.o for d in datoms}
        spo_leaves: dict[tuple, set] = {}
        pos_leaves: dict[tuple, set] = {}
        osp_leaves: dict[tuple, set] = {}
        for datom in self._log:
            s, o = datom.s, datom.o
            if s in subjects:
                p = datom.p
                if (s, p) in spo_touched:
                    _replay_leaf_op(spo_leaves, (s, p), o, datom.asserts)
                if (o, s) in osp_touched:
                    _replay_leaf_op(osp_leaves, (o, s), p, datom.asserts)
            if o in objects and (datom.p, o) in pos_touched:
                _replay_leaf_op(pos_leaves, (datom.p, o), s, datom.asserts)
        for index, (mids, leaves), touched, rebuilt in (
            (self._spo, self._owned_spo, spo_touched, spo_leaves),
            (self._pos, self._owned_pos, pos_touched, pos_leaves),
            (self._osp, self._owned_osp, osp_touched, osp_leaves),
        ):
            for outer, inner in touched:
                if outer not in mids:
                    mids.add(outer)
                    mid = index.get(outer)
                    if mid is not None:
                        index[outer] = defaultdict(set, mid)
                leaves.add((outer, inner))
            for (outer, inner), leaf in rebuilt.items():
                index[outer][inner] = leaf

    # ------------------------------------------------------------------
    # Log replay and time travel
    # ------------------------------------------------------------------

    def _replay(self, datoms: Iterable[Datom]) -> int:
        """Apply already-transacted datoms, preserving their tx ids.

        Every logged datom was effective when recorded, so one that is a
        no-op here (asserting a present triple, retracting an absent
        one) means the replayed log is corrupt or out of order — that
        raises ``ValueError`` rather than silently skewing the size and
        version bookkeeping.  Returns the number of datoms applied.
        """
        if self._frozen:
            self._check_mutable("replay")
        max_blank = 0

        def note_blank(node) -> None:
            # Keep new_blank_node() collision-free after a replay that
            # carried graph-minted b<N> ids.
            nonlocal max_blank
            if isinstance(node, BlankNode):
                tail = node.node_id[1:]
                if node.node_id.startswith("b") and tail.isdigit():
                    max_blank = max(max_blank, int(tail))

        def apply_checked(datom: Datom) -> Datom:
            s, p, o = datom.s, datom.p, datom.o
            note_blank(s)
            note_blank(o)
            present = o in self._spo.get(s, {}).get(p, ())
            if datom.asserts:
                if present:
                    raise ValueError(
                        f"log replay: assert of already-present triple "
                        f"at tx {datom.tx}: {datom!r}"
                    )
                self._apply_assert(s, p, o)
            else:
                if not present:
                    raise ValueError(
                        f"log replay: retract of absent triple "
                        f"at tx {datom.tx}: {datom!r}"
                    )
                self._apply_retract(s, p, o)
            return datom

        count = self._log.replay_append(
            apply_checked(datom) for datom in datoms
        )
        if max_blank:
            self._blank_counter = itertools.count(max_blank + 1)
        return count

    @classmethod
    def from_datoms(cls, datoms: Iterable[Datom]) -> "Graph":
        """Rebuild a graph (indexes AND log) by replaying a datom log.

        The result is bit-identical to the graph that produced the log:
        same triples, same index structure, same version counter, same
        transaction ids.  This is the cold-start path for the durable
        store and the oracle the differential harness replays against.
        """
        graph = cls()
        graph._replay(datoms)
        return graph

    def as_of(self, tx: int) -> "Graph":
        """The graph as it was just after transaction ``tx``, frozen.

        Folds the log prefix ``tx' <= tx`` into a fresh graph and seals
        it: historical views are immutable (mutation raises
        :class:`~repro.core.workspace.HistoricalWorkspaceError` naming
        the operation and the pinned tx).  ``as_of(0)`` is the empty
        graph; ``as_of(last_tx)`` equals the current graph.
        """
        if not isinstance(tx, int) or isinstance(tx, bool):
            raise ValueError(f"as_of tx must be an integer, got {tx!r}")
        if tx < 0 or tx > self._log.last_tx:
            raise ValueError(
                f"as_of tx {tx} out of range 0..{self._log.last_tx}"
            )
        past = Graph.from_datoms(self._log.datoms_through(tx))
        past._historical_tx = tx
        past.freeze()
        return past

    def update(self, other: "Graph") -> int:
        """Merge another graph into this one; return inserted count."""
        return self.add_all(other.triples())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(t in other for t in self.triples())

    def __repr__(self) -> str:
        return f"<Graph with {self._size} triples over {self.subject_count()} subjects>"


def _term_sort_key(term: Node):
    """Total order across term kinds for deterministic tie-breaking."""
    if isinstance(term, Resource):
        return (0, term.uri)
    if isinstance(term, BlankNode):
        return (1, term.node_id)
    return (2, term.n3())


def _replay_leaf_op(rebuilt: dict, key: tuple, member, asserts: bool) -> None:
    """Apply one logged op to a leaf :meth:`Graph._preown_for_replay`
    is rebuilding."""
    leaf = rebuilt.get(key)
    if asserts:
        if leaf is None:
            leaf = rebuilt[key] = set()
        leaf.add(member)
    elif leaf is not None:
        leaf.discard(member)
        if not leaf:
            # Mirror _prune: the next assert mints a fresh set.
            del rebuilt[key]
