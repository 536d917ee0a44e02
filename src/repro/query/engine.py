"""Query evaluation with the typed-extension mechanism of §4.2.

The engine resolves predicates to item sets.  Leaf predicates that can
enumerate their extent from an index do so; everything else is filtered
against the context's universe.  ``register_extension`` lets analysts
plug in evaluators for new predicate types without touching the engine —
the paper's mechanism for "a uniform interface to query both metadata
... and other attribute value types".

Evaluation runs over **bitset extents**: leaf extents are interned into
Python-int bitmasks and cached on the context keyed by predicate (a
context's graph is sealed, so an entry never goes stale), so And/Or/Not
combine as single bitwise operations and repeated refinement clicks
reuse prior work instead of re-deriving the same sets.  ``Path``
leaves enumerate exactly — their backward reachability walk is memoized
on the context (:meth:`QueryContext.path_extent`) and lands in the same
bitmask cache as any other leaf.  Predicates that cannot enumerate an extent
(extension-only predicates such as ``PathValue``/``Cardinality``, or
trees containing them) fall back to per-item filtering; results are the
same either way, only the time to produce them changes.

A base collection (``within``) is given either as nodes, which are
interned on every call, or as their bitmask over the context's intern
table.  The navigation service passes the current view's cached mask
(:meth:`~repro.service.state.ViewState.bits`), so a preview is one AND
and one popcount, and a refinement takes its result as a mask
(:meth:`QueryEngine.select`) that the new view keeps: neither ever
re-interns the view.
``repro.check.reference.naive_extent`` is the oracle the test suites
and the differential fuzzer compare this engine against.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from ..obs import NULL_OBS, Observability
from ..perf.bitset import popcount
from ..rdf.terms import Node
from .ast import _MISS, And, Not, Or, Predicate, QueryContext

__all__ = ["QueryEngine"]

#: An extension evaluator returns the predicate's exact extent, or None
#: to fall back to per-item matching.
ExtensionEvaluator = Callable[[Predicate, QueryContext], Optional[set[Node]]]

#: A base collection: its nodes, or their bitmask over the intern table.
Collection = Union[Iterable[Node], int]


class QueryEngine:
    """Resolves predicates against a :class:`QueryContext`."""

    def __init__(
        self, context: QueryContext, obs: Observability | None = None
    ):
        self.context = context
        self.obs = obs if obs is not None else NULL_OBS
        self._extensions: dict[type, ExtensionEvaluator] = {}

    def register_extension(
        self, predicate_type: type, evaluator: ExtensionEvaluator
    ) -> None:
        """Install an extension evaluator for a predicate type.

        The evaluator is consulted before the predicate's own
        ``extent_bits``; returning None defers to the default strategy.
        """
        if not issubclass(predicate_type, Predicate):
            raise TypeError("extensions must target Predicate subclasses")
        self._extensions[predicate_type] = evaluator

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self, predicate: Predicate, within: Collection | None = None
    ) -> set[Node]:
        """The set of items satisfying ``predicate``.

        ``within`` restricts evaluation to a base collection (used when
        refining the current result set), given as nodes or as a
        bitmask over the context's intern table; None means the full
        universe.
        """
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._evaluate(predicate, within)
        with tracer.span(
            "query.evaluate", root=type(predicate).__name__
        ) as span:
            result = self._evaluate(predicate, within)
            span.set_tag("results", len(result))
            return result

    def select(
        self, predicate: Predicate, within: Collection | None = None
    ) -> int:
        """:meth:`evaluate`'s result as a bitmask over the intern table.

        What a refinement keeps as its new view's mask: with a known
        extent it is one AND, and the items are never collected into a
        set.  Traced under the same span name as :meth:`evaluate`.
        """
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._select(predicate, within)
        with tracer.span(
            "query.evaluate", root=type(predicate).__name__
        ) as span:
            result = self._select(predicate, within)
            span.set_tag("results", popcount(result))
            return result

    def _evaluate(
        self, predicate: Predicate, within: Collection | None
    ) -> set[Node]:
        bits = self._root_bits(predicate)
        if bits is not None:
            return self.context.nodes_of(bits & self._base_bits(within))
        return self._filter(predicate, within)

    def _select(self, predicate: Predicate, within: Collection | None) -> int:
        bits = self._root_bits(predicate)
        if bits is not None:
            return bits & self._base_bits(within)
        return self.context.bits_of(self._filter(predicate, within))

    def count(self, predicate: Predicate, within: Collection | None = None) -> int:
        """Size of the predicate's result set (used for query previews).

        When the extent is known the count is a popcount — no item set is
        materialized, which is what makes §3.2's per-click previews
        near-free once extents are cached.  Given the view's own mask as
        ``within``, a preview is one AND and one popcount.
        """
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._count(predicate, within)
        with tracer.span(
            "query.count", root=type(predicate).__name__
        ) as span:
            count = self._count(predicate, within)
            span.set_tag("results", count)
            return count

    def _count(self, predicate: Predicate, within: Collection | None) -> int:
        bits = self._root_bits(predicate)
        if bits is not None:
            return popcount(bits & self._base_bits(within))
        return len(self._filter(predicate, within))

    def _base_bits(self, within: Collection | None) -> int:
        """The base collection as a bitmask (the universe for None)."""
        if within is None:
            return self.context.universe_bits()
        if isinstance(within, int):
            return within
        return self.context.bits_of(within)

    def _filter(self, predicate: Predicate, within: Collection | None) -> set[Node]:
        """Per-item matching over the base collection (no known extent)."""
        context = self.context
        if within is None:
            population = context.universe
        elif isinstance(within, int):
            population = context.nodes_of(within)
        else:
            population = set(within)
        return {
            item
            for item in population
            if predicate.matches(item, context)
        }

    def matches(self, predicate: Predicate, item: Node) -> bool:
        """Test a single item."""
        return predicate.matches(item, self.context)

    # ------------------------------------------------------------------
    # Extent resolution
    # ------------------------------------------------------------------

    def _root_bits(self, predicate: Predicate) -> int | None:
        """Extent bitmask of the query root, or None when unknown.

        Extension evaluators are consulted only for the root predicate,
        and their results are never cached — extension closures may
        depend on state the context cannot see.
        """
        evaluator = self._extensions.get(type(predicate))
        if evaluator is not None:
            extent = evaluator(predicate, self.context)
            if extent is not None:
                return self.context.bits_of(extent)
        return self._tree_bits(predicate)

    def _tree_bits(self, predicate: Predicate) -> int | None:
        """Recursive bitset extent; None propagates from unknown leaves.

        With tracing on, every node resolution gets a ``query.node``
        span tagged with the predicate kind and whether the extent cache
        answered — the per-click cache behaviour the performance layer
        lives on, made visible.
        """
        context = self.context
        tracer = self.obs.tracer
        if not tracer.enabled:
            cached = context.cached_extent_bits(predicate)
            if cached is not _MISS:
                return cached
            bits = self._derive_bits(predicate)
            context.store_extent_bits(predicate, bits)
            return bits
        with tracer.span("query.node", kind=type(predicate).__name__) as span:
            cached = context.cached_extent_bits(predicate)
            if cached is not _MISS:
                span.set_tag("cache", "hit")
                return cached
            span.set_tag("cache", "miss")
            bits = self._derive_bits(predicate)
            context.store_extent_bits(predicate, bits)
            return bits

    def _derive_bits(self, predicate: Predicate) -> int | None:
        """Compute a node's extent bitmask (the cache-miss work)."""
        context = self.context
        if isinstance(predicate, And):
            if not predicate.parts:
                bits = context.universe_bits()
            else:
                # No early exit on an empty intersection: every part is
                # still resolved so errors (e.g. TextMatch without a
                # text index) surface whatever the other parts hold.
                parts = [self._tree_bits(part) for part in predicate.parts]
                if any(part is None for part in parts):
                    bits = None
                else:
                    bits = parts[0]
                    for part in parts[1:]:
                        bits &= part
        elif isinstance(predicate, Or):
            bits = 0
            for part in predicate.parts:
                part_bits = self._tree_bits(part)
                if part_bits is None:
                    bits = None
                    break
                bits |= part_bits
        elif isinstance(predicate, Not):
            part_bits = self._tree_bits(predicate.part)
            bits = (
                None
                if part_bits is None
                else context.universe_bits() & ~part_bits
            )
        else:
            bits = predicate.extent_bits(context)
        return bits

    def __repr__(self) -> str:
        return (
            f"<QueryEngine universe={len(self.context.universe)} "
            f"extensions={sorted(t.__name__ for t in self._extensions)}>"
        )
