"""Predicate AST: the set concepts the query engine resolves (§4.2).

Navigation suggestions *are* predicates ("The query engine lets users
take the various navigation suggestions (which are predicates) and
combine them").  By default combination is conjunctive; the context menu
adds disjunction and negation.  Typed extensions contribute new leaf
predicates: full-text matching against the external index, and numeric
range comparison for continuous attributes.

Every predicate can

* test one item (:meth:`Predicate.matches`),
* as a leaf, optionally produce its full extent from an index
  (:meth:`Predicate.candidates`, returning None when only per-item
  testing is available; the engine asks through
  :meth:`Predicate.extent_bits`, which ``Range`` answers from the
  context's sorted :class:`RangeIndex`) — the compounds ``And``, ``Or``
  and ``Not`` have no extent of their own: the engine combines their
  parts' bitmasks, and
* describe itself for the constraint chips at the top of the navigation
  pane (:meth:`Predicate.describe`).
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict, deque
from dataclasses import dataclass
from operator import itemgetter, methodcaller
from typing import Iterable, Optional, Sequence

from ..index.textindex import TextIndex
from ..perf.bitset import bits_from_ids
from ..perf.stats import CacheStats
from ..rdf.graph import Graph
from ..rdf.schema import Schema
from ..rdf.terms import Literal, Node, Resource
from ..rdf.vocab import RDF
from ..vsm.composition import compose_values

__all__ = [
    "EXTENT_CACHE_CAP",
    "QueryContext",
    "RangeIndex",
    "Predicate",
    "HasValue",
    "HasProperty",
    "TypeIs",
    "TextMatch",
    "Range",
    "PathStep",
    "Path",
    "PathValue",
    "ValueIn",
    "Cardinality",
    "And",
    "Or",
    "Not",
]


#: Sentinel distinguishing "cache miss" from a cached None extent.
_MISS = object()

#: The order a collection view lists its items in.  One shared object,
#: so every intern table builds its rank for it once.
_N3_KEY = methodcaller("n3")

#: Most predicate extents one context keeps; past it the least recently
#: used entry is evicted.  Range bounds follow a slider, so without a
#: cap every distinct preview would stay cached for the context's life.
EXTENT_CACHE_CAP = 1024


class QueryContext:
    """Everything a predicate may consult during evaluation.

    A context is built over one unchanging graph: construction seals
    it (:meth:`~repro.rdf.graph.Graph.freeze`), so a later ``add`` or
    ``remove`` raises instead of leaving a cache stale.  New data
    reaches a serving process as a new epoch, with a context of its
    own.

    The context also owns the **extent cache** of the performance layer:
    predicate extents are stored as bitmasks over the graph's intern
    table, keyed on the predicate (hashable by construction), so
    repeated query previews stop re-deriving the same extents.  The
    cache is an LRU capped at :data:`EXTENT_CACHE_CAP` entries.

    ``Range`` leaves read a per-property :class:`RangeIndex`, built on
    first use for that property (:meth:`range_index`).
    """

    def __init__(
        self,
        graph: Graph,
        schema: Schema | None = None,
        text_index: TextIndex | None = None,
        universe: Optional[set[Node]] = None,
    ):
        graph.freeze()
        self.graph = graph
        self.schema = schema if schema is not None else Schema(graph)
        self.text_index = text_index
        self._universe = universe
        #: predicate -> bitmask | None, least recently used first.
        self._extent_cache: OrderedDict[Predicate, int | None] = OrderedDict()
        self._extent_lock = threading.Lock()
        #: property -> RangeIndex
        self._range_indexes: dict[Resource, RangeIndex] = {}
        self._range_lock = threading.Lock()
        self._universe_bits: int | None = None
        self.cache_stats = CacheStats()
        #: Path predicate -> frozen extent.  Path extents are the product
        #: of a whole reachability walk, so they get their own memo
        #: beneath the extent cache.
        self._path_cache: dict[Predicate, frozenset[Node]] = {}
        self.path_stats = CacheStats()

    @property
    def universe(self) -> set[Node]:
        """The item population queries range over.

        Defaults to every subject carrying an ``rdf:type`` — the graph's
        "information objects", as opposed to annotation nodes.
        """
        if self._universe is None:
            self._universe = {
                s
                for s, _p, _o in self.graph.triples(None, RDF.type, None)
            }
        return self._universe

    # ------------------------------------------------------------------
    # Bitset extents (performance layer)
    # ------------------------------------------------------------------

    def bits_of(self, nodes: Iterable[Node]) -> int:
        """A bitmask over item nodes (interning new ones as needed)."""
        return self.graph.interner.bits_of(nodes)

    def nodes_of(self, mask: int) -> set[Node]:
        """The node set a bitmask denotes."""
        return self.graph.interner.nodes_of(mask)

    def ordered_nodes(self, mask: int) -> list[Node]:
        """The nodes of a bitmask in view order: ``sorted(..., key=n3)``."""
        return self.graph.interner.ordered(mask, _N3_KEY)

    def universe_bits(self) -> int:
        """The universe as a bitmask, built on first use."""
        bits = self._universe_bits
        if bits is None:
            bits = self._universe_bits = self.bits_of(self.universe)
        return bits

    def cached_extent_bits(self, predicate: "Predicate"):
        """A cached extent bitmask, ``None`` (cached no-extent), or _MISS."""
        try:
            with self._extent_lock:
                bits = self._extent_cache.get(predicate, _MISS)
                if bits is not _MISS:
                    self._extent_cache.move_to_end(predicate)
        except (TypeError, NotImplementedError):
            # Unhashable custom predicate: evaluable, just not cacheable.
            return _MISS
        if bits is _MISS:
            self.cache_stats.record_miss()
        else:
            self.cache_stats.record_hit()
        return bits

    def store_extent_bits(self, predicate: "Predicate", bits: int | None) -> None:
        """Record a predicate's extent bitmask."""
        cache = self._extent_cache
        try:
            with self._extent_lock:
                cache[predicate] = bits
                cache.move_to_end(predicate)
                evict = len(cache) > EXTENT_CACHE_CAP
                if evict:
                    cache.popitem(last=False)
        except (TypeError, NotImplementedError):
            return
        if evict:
            self.cache_stats.record_eviction()

    def range_index(self, prop: Resource) -> "RangeIndex":
        """The sorted numeric readings of ``prop``, built on first use.

        Only properties a ``Range`` is evaluated on are indexed.  Builds
        run under a lock, so concurrent readers build a property once.
        """
        index = self._range_indexes.get(prop)
        if index is not None:
            return index
        with self._range_lock:
            index = self._range_indexes.get(prop)
            if index is None:
                index = self._range_indexes[prop] = RangeIndex.build(
                    self.graph, prop
                )
        return index

    def path_extent(self, path: "Path") -> set[Node]:
        """The exact extent of a :class:`Path`, memoized per predicate.

        Returns a fresh set; the memo itself is immutable.
        """
        extent = self._path_cache.get(path)
        if extent is not None:
            self.path_stats.record_hit()
            return set(extent)
        self.path_stats.record_miss()
        extent = path._compute_extent(self)
        self._path_cache[path] = frozenset(extent)
        return extent


class Predicate:
    """Base class for all query predicates."""

    def matches(self, item: Node, context: QueryContext) -> bool:
        """True when the item satisfies the predicate."""
        raise NotImplementedError

    def candidates(self, context: QueryContext) -> Optional[set[Node]]:
        """The predicate's extent from an index, or None if unknown.

        A non-None return must be exact (it is intersected, not
        re-checked).
        """
        return None

    def extent_bits(self, context: QueryContext) -> Optional[int]:
        """The extent as a bitmask over the intern table, or None.

        The engine's leaf hook on an extent-cache miss.  By default it
        interns :meth:`candidates`; a predicate with a cheaper way to a
        bitmask overrides it.
        """
        extent = self.candidates(context)
        return None if extent is None else context.bits_of(extent)

    def describe(self, context: QueryContext) -> str:
        """Human-readable rendering for the constraint chips (§3.2)."""
        raise NotImplementedError

    # Compact combinator sugar so analysts can compose predicates.

    def __and__(self, other: "Predicate") -> "And":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Or":
        return Or([self, other])

    def __invert__(self) -> "Predicate":
        return self.negated()

    def negated(self) -> "Predicate":
        """The predicate's negation (double negation collapses)."""
        return Not(self)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._key()!r})"


class HasValue(Predicate):
    """item has (property, value) — the basic metadata constraint."""

    def __init__(self, prop: Resource, value: Node):
        self.prop = prop
        self.value = value

    def _key(self):
        return (self.prop, self.value)

    def matches(self, item: Node, context: QueryContext) -> bool:
        return (item, self.prop, self.value) in context.graph

    def candidates(self, context: QueryContext) -> set[Node]:
        return set(context.graph.subjects(self.prop, self.value))

    def describe(self, context: QueryContext) -> str:
        prop = context.schema.label(self.prop)
        value = context.schema.label(self.value)
        return f"{prop}: {value}"


class HasProperty(Predicate):
    """item carries the property at all (any value)."""

    def __init__(self, prop: Resource):
        self.prop = prop

    def _key(self):
        return (self.prop,)

    def matches(self, item: Node, context: QueryContext) -> bool:
        return any(True for _ in context.graph.objects(item, self.prop))

    def candidates(self, context: QueryContext) -> set[Node]:
        return set(context.graph.subjects(self.prop))

    def describe(self, context: QueryContext) -> str:
        return f"has {context.schema.label(self.prop)}"


class TypeIs(HasValue):
    """item is of an rdf:type — sugar over :class:`HasValue`."""

    def __init__(self, rdf_type: Resource):
        super().__init__(RDF.type, rdf_type)

    def describe(self, context: QueryContext) -> str:
        return f"type: {context.schema.label(self.value)}"


class TextMatch(Predicate):
    """Full-text constraint resolved by the external index (§4.2).

    ``within`` restricts the match to one property's values ("words in
    the title" vs "words in the body", §3.2/§4.1).
    """

    def __init__(self, text: str, within: Resource | None = None):
        self.text = text
        self.within = within

    def _key(self):
        return (self.text, self.within)

    def matches(self, item: Node, context: QueryContext) -> bool:
        return item in self._extent(context)

    def candidates(self, context: QueryContext) -> set[Node]:
        return self._extent(context)

    def _extent(self, context: QueryContext) -> set[Node]:
        if context.text_index is None:
            raise RuntimeError(
                "TextMatch requires a text index on the query context"
            )
        return context.text_index.search(self.text, within=self.within)

    def describe(self, context: QueryContext) -> str:
        if self.within is not None:
            return f"{context.schema.label(self.within)} contains: {self.text!r}"
        return f"contains: {self.text!r}"


class RangeIndex:
    """One property's numeric readings, sorted, beside their items.

    ``values`` holds every reading in ascending order and ``ids[i]`` the
    intern id of the item carrying ``values[i]``: 16 bytes per reading
    in two flat arrays.  ``blocks[b]`` is the bitmask of the ids of
    readings ``b * BLOCK .. (b + 1) * BLOCK - 1``.  A ``Range`` extent is
    then two bisections, an OR over the whole blocks between them and at
    most two short id slices at the ends.  Readings follow
    :meth:`Range.matches` exactly (see :meth:`reading`); an item with
    several readings appears once per reading.
    """

    __slots__ = ("values", "ids", "blocks")

    #: Readings per block mask.
    BLOCK = 64

    def __init__(self, values: array, ids: array):
        self.values = values
        self.ids = ids
        step = self.BLOCK
        self.blocks = [
            bits_from_ids(ids[start:start + step])
            for start in range(0, len(ids) - step + 1, step)
        ]

    @staticmethod
    def reading(value: Node) -> float | None:
        """A value's place on the real line, or None when it has none.

        Literals only; unparseable and NaN readings are skipped (NaN is
        unordered, so it would satisfy every range and break the sort);
        ±inf is kept, since it compares like any other number.
        """
        if not isinstance(value, Literal):
            return None
        number = value.as_number()
        if number is None or math.isnan(number):
            return None
        return number

    @classmethod
    def build(cls, graph: Graph, prop: Resource) -> "RangeIndex":
        """Index ``prop``'s readings over the whole graph.

        Each distinct value is read and sorted once; the per-reading
        arrays are then filled in order, so no transient list of
        (reading, item) pairs is ever held.
        """
        reading = cls.reading
        numbered = []
        for value in graph.objects(None, prop):
            number = reading(value)
            if number is not None:
                numbered.append((number, value))
        numbered.sort(key=itemgetter(0))
        values = array("d")
        ids = array("q")
        intern = graph.interner.intern
        for number, value in numbered:
            for subject in graph.subjects(prop, value):
                values.append(number)
                ids.append(intern(subject))
        return cls(values, ids)

    def bits(self, low: float | None, high: float | None) -> int:
        """Bitmask of the items with a reading in [low, high].

        None leaves that side open.  A NaN bound compares False like in
        :meth:`Range.matches`, so it too leaves its side open.
        """
        values = self.values
        start = 0 if low is None else bisect_left(values, low)
        end = len(values) if high is None else bisect_right(values, high)
        if start >= end:
            return 0
        step = self.BLOCK
        first = -(-start // step)  # the first block starting at or after start
        last = end // step  # the blocks before it end at or before end
        if first >= last:
            return bits_from_ids(self.ids[start:end])
        bits = bits_from_ids(self.ids[start:first * step])
        for block in self.blocks[first:last]:
            bits |= block
        if end > last * step:
            bits |= bits_from_ids(self.ids[last * step:end])
        return bits


class Range(Predicate):
    """Numeric/temporal range comparison (§4.2, §5.4; Figure 5).

    Bounds are inclusive; either may be None for a one-sided comparison
    (the "greater than and less than predicates" extension).
    """

    def __init__(
        self,
        prop: Resource,
        low: float | None = None,
        high: float | None = None,
    ):
        if low is None and high is None:
            raise ValueError("Range needs at least one bound")
        if low is not None and high is not None and low > high:
            raise ValueError(f"empty range: low {low} > high {high}")
        self.prop = prop
        self.low = low
        self.high = high

    def _key(self):
        return (self.prop, self.low, self.high)

    def matches(self, item: Node, context: QueryContext) -> bool:
        for value in context.graph.objects(item, self.prop):
            if not isinstance(value, Literal):
                continue
            number = value.as_number()
            # NaN readings compare False against both bounds, so without
            # this guard a NaN value would satisfy *every* range.
            if number is None or math.isnan(number):
                continue
            if self.low is not None and number < self.low:
                continue
            if self.high is not None and number > self.high:
                continue
            return True
        return False

    def extent_bits(self, context: QueryContext) -> int:
        return context.range_index(self.prop).bits(self.low, self.high)

    def candidates(self, context: QueryContext) -> set[Node]:
        return context.nodes_of(self.extent_bits(context))

    def describe(self, context: QueryContext) -> str:
        prop = context.schema.label(self.prop)
        if self.low is None:
            return f"{prop} ≤ {self.high:g}"
        if self.high is None:
            return f"{prop} ≥ {self.low:g}"
        return f"{prop} in [{self.low:g}, {self.high:g}]"


@dataclass(frozen=True)
class PathStep:
    """One hop of a property path.

    ``inverse`` walks the property backwards (object → subject);
    ``closure`` is ``""`` for exactly one application, ``"+"`` for one
    or more, ``"*"`` for zero or more.
    """

    prop: Resource
    inverse: bool = False
    closure: str = ""

    CLOSURES = ("", "+", "*")

    def __post_init__(self):
        if self.closure not in self.CLOSURES:
            raise ValueError(
                f"closure must be one of {self.CLOSURES}, got {self.closure!r}"
            )


def _path_step_once(graph: Graph, nodes: Iterable[Node], step: PathStep):
    """Image of ``nodes`` under a single application of ``step.prop``."""
    out: set[Node] = set()
    if step.inverse:
        for node in nodes:
            out.update(graph.subjects(step.prop, node))
    else:
        for node in nodes:
            out.update(graph.objects(node, step.prop))
    return out


def _path_advance(graph: Graph, frontier: set[Node], step: PathStep):
    """Image of ``frontier`` under a full step, closure included.

    Closures run a breadth-first walk with a visited set, so cyclic
    graphs (including self-loops) terminate: a node is expanded at most
    once no matter how many cycles reach it.
    """
    if step.closure == "":
        return _path_step_once(graph, frontier, step)
    if step.closure == "*":
        reached = set(frontier)
    else:  # "+": at least one application before the closure
        reached = _path_step_once(graph, frontier, step)
    queue = deque(reached)
    while queue:
        node = queue.popleft()
        for nxt in _path_step_once(graph, (node,), step):
            if nxt not in reached:
                reached.add(nxt)
                queue.append(nxt)
    return reached


class Path(Predicate):
    """Multi-hop reachability over the graph — a property path (§4.2).

    A sequence of :class:`PathStep` hops applied left to right:
    ``author/affiliation`` reaches the item's authors' affiliations,
    ``^cites`` walks citations backwards (who cites me), ``cites+`` is
    transitive closure.  With ``value`` set the path must reach that
    node; with ``value=None`` it must merely be non-empty.

    ``matches`` walks forward from the item; ``candidates`` evaluates
    the *pre-image* backward from the value over the POS/SPO indexes —
    one walk for the whole extent instead of one per item — and is
    memoized on the context via :meth:`QueryContext.path_extent`, so
    repeated evaluation answers from the cached walk once warmed.
    """

    def __init__(
        self, steps: Sequence[PathStep | Resource], value: Node | None = None
    ):
        converted = tuple(
            step if isinstance(step, PathStep) else PathStep(step)
            for step in steps
        )
        if not converted:
            raise ValueError("Path needs at least one step")
        self.steps = converted
        self.value = value

    def _key(self):
        return (self.steps, self.value)

    def matches(self, item: Node, context: QueryContext) -> bool:
        graph = context.graph
        frontier = {item}
        for step in self.steps:
            frontier = _path_advance(graph, frontier, step)
            if not frontier:
                return False
        if self.value is None:
            return True
        return self.value in frontier

    def candidates(self, context: QueryContext) -> set[Node]:
        return context.path_extent(self)

    def _compute_extent(self, context: QueryContext) -> set[Node]:
        """Backward pre-image evaluation (the cache-miss work).

        Walks the steps right to left: each hop's pre-image is its
        forward image with ``inverse`` flipped (closures commute with
        reversal), cycle-safe by the same BFS.  ``targets=None`` is the
        symbolic "any node" an unconstrained tail denotes — a ``*`` hop
        keeps it (zero applications reach anything from anywhere), a
        concrete hop collapses it to the nodes with at least one edge.
        """
        graph = context.graph
        targets: set[Node] | None = (
            None if self.value is None else {self.value}
        )
        for step in reversed(self.steps):
            if targets is None:
                if step.closure == "*":
                    continue
                if step.inverse:
                    targets = set(graph.objects(None, step.prop))
                else:
                    targets = set(graph.subjects(step.prop))
            else:
                back = PathStep(step.prop, not step.inverse, step.closure)
                targets = _path_advance(graph, targets, back)
            if not targets:
                return set()
        if targets is None:
            return set(context.universe)
        return targets & context.universe

    def describe(self, context: QueryContext) -> str:
        rendered = []
        for step in self.steps:
            text = context.schema.label(step.prop)
            if step.inverse:
                text = "^" + text
            rendered.append(text + step.closure)
        path = "/".join(rendered)
        if self.value is None:
            return f"has {path}"
        return f"{path}: {context.schema.label(self.value)}"


class PathValue(Predicate):
    """A value reached through a property chain (composed attribute).

    Supports the CAS-style structural queries of §6.2 — e.g. INEX's
    "vitae of graduate students researching Information Retrieval" needs
    constraints several steps into the structure.
    """

    def __init__(self, chain: Sequence[Resource], value: Node):
        if not chain:
            raise ValueError("PathValue needs a non-empty chain")
        self.chain = tuple(chain)
        self.value = value

    def _key(self):
        return (self.chain, self.value)

    def matches(self, item: Node, context: QueryContext) -> bool:
        return self.value in compose_values(context.graph, item, self.chain)

    def describe(self, context: QueryContext) -> str:
        path = " → ".join(context.schema.label(p) for p in self.chain)
        return f"{path}: {context.schema.label(self.value)}"


class ValueIn(Predicate):
    """Quantified membership in a browsed value set (§3.3).

    The browse-and-apply flow — refine the collection of ingredients,
    then keep recipes whose ingredients fall in the refined set — needs
    a predicate over a *set* of values with an any/all quantifier:

    * ``any`` — the item has at least one value of ``prop`` in the set;
    * ``all`` — the item has values for ``prop`` and every one is in
      the set.
    """

    QUANTIFIERS = ("any", "all")

    def __init__(self, prop: Resource, values, quantifier: str = "any"):
        if quantifier not in self.QUANTIFIERS:
            raise ValueError(f"quantifier must be one of {self.QUANTIFIERS}")
        self.prop = prop
        self.values = frozenset(values)
        self.quantifier = quantifier

    def _key(self):
        return (self.prop, self.values, self.quantifier)

    def matches(self, item: Node, context: QueryContext) -> bool:
        item_values = set(context.graph.objects(item, self.prop))
        if not item_values:
            return False
        if self.quantifier == "any":
            return bool(item_values & self.values)
        return item_values <= self.values

    def candidates(self, context: QueryContext) -> set[Node]:
        if self.quantifier == "any":
            found: set[Node] = set()
            for value in self.values:
                found.update(context.graph.subjects(self.prop, value))
            return found
        return {
            item
            for item in context.graph.subjects(self.prop)
            if self.matches(item, context)
        }

    def describe(self, context: QueryContext) -> str:
        prop = context.schema.label(self.prop)
        word = "an" if self.quantifier == "any" else "every"
        return f"{word} {prop} in a set of {len(self.values)}"


class Cardinality(Predicate):
    """Bound on how many values an item has for a property.

    §6.2 names "all recipes having 5 or fewer ingredients" as a query
    Magnet's default interface could not express; this extension
    predicate supplies it.
    """

    def __init__(
        self,
        prop: Resource,
        at_least: int | None = None,
        at_most: int | None = None,
    ):
        if at_least is None and at_most is None:
            raise ValueError("Cardinality needs at least one bound")
        self.prop = prop
        self.at_least = at_least
        self.at_most = at_most

    def _key(self):
        return (self.prop, self.at_least, self.at_most)

    def matches(self, item: Node, context: QueryContext) -> bool:
        count = sum(1 for _ in context.graph.objects(item, self.prop))
        if self.at_least is not None and count < self.at_least:
            return False
        if self.at_most is not None and count > self.at_most:
            return False
        return True

    def describe(self, context: QueryContext) -> str:
        prop = context.schema.label(self.prop)
        if self.at_least is None:
            return f"≤ {self.at_most} {prop}"
        if self.at_most is None:
            return f"≥ {self.at_least} {prop}"
        return f"{self.at_least}–{self.at_most} {prop}"


class And(Predicate):
    """Conjunction — the default combination of suggestions (§4.2)."""

    def __init__(self, parts: Sequence[Predicate]):
        self.parts = tuple(parts)

    def _key(self):
        return self.parts

    def matches(self, item: Node, context: QueryContext) -> bool:
        return all(part.matches(item, context) for part in self.parts)

    def describe(self, context: QueryContext) -> str:
        if not self.parts:
            return "everything"
        return " AND ".join(
            _parenthesize(part, context) for part in self.parts
        )


class Or(Predicate):
    """Disjunction, reachable via the context menu (§3.3)."""

    def __init__(self, parts: Sequence[Predicate]):
        self.parts = tuple(parts)

    def _key(self):
        return self.parts

    def matches(self, item: Node, context: QueryContext) -> bool:
        return any(part.matches(item, context) for part in self.parts)

    def describe(self, context: QueryContext) -> str:
        if not self.parts:
            return "nothing"
        return " OR ".join(_parenthesize(part, context) for part in self.parts)


class Not(Predicate):
    """Negation of a constraint (§3.2's context-menu negation)."""

    def __init__(self, part: Predicate):
        self.part = part

    def _key(self):
        return (self.part,)

    def negated(self) -> Predicate:
        return self.part

    def matches(self, item: Node, context: QueryContext) -> bool:
        return not self.part.matches(item, context)

    def describe(self, context: QueryContext) -> str:
        return f"NOT {_parenthesize(self.part, context)}"


def _parenthesize(part: Predicate, context: QueryContext) -> str:
    text = part.describe(context)
    if isinstance(part, (And, Or)) and len(part.parts) > 1:
        return f"({text})"
    return text
