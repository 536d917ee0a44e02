"""A headless browsing session: the single-window interface of §3.

:class:`Session` is the stand-in for Haystack's browser window.  Since
the service refactor it is a thin facade: all browsing state lives in an
immutable :class:`~repro.service.state.SessionState` and every mutator
dispatches a typed command to the stateless
:class:`~repro.service.navigation.NavigationService`.  The facade's job
is ergonomics and continuity — it keeps a live :class:`View`, a live
:class:`NavigationHistory` that advisors can watch, and the exact
public surface (methods, exceptions, telemetry) of the pre-refactor
monolithic class.

It also implements the §6.3.1 future-work behaviour behind a flag:
"since users find it difficult to work with zero results, it may be
worth modifying the queries to perform more fuzzily in the case when
zero results would have been returned otherwise" —
``fuzzy_on_empty=True`` replaces an empty boolean result with the
top-ranked fuzzy matches.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..core.engine import NavigationEngine, NavigationResult
from ..core.history import NavigationHistory
from ..core.suggestions import (
    GoToCollection,
    GoToItem,
    Invoke,
    NewQuery,
    OpenRangeWidget,
    Refine,
    RefineMode,
    Suggestion,
)
from ..core.view import View
from ..core.workspace import Workspace
from ..query.ast import Predicate
from ..rdf.terms import Node, Resource
from ..service import commands as cmd
from ..service.navigation import NavigationService
from ..service.state import DEFAULT_BACK_LIMIT, SessionState, ViewState
from .compound import CompoundBuilder

__all__ = ["Session"]


class Session:
    """One user's browsing state over a workspace (facade form)."""

    def __init__(
        self,
        workspace: Workspace,
        engine: NavigationEngine | None = None,
        fuzzy_on_empty: bool = False,
        fuzzy_k: int = 10,
        back_limit: int = DEFAULT_BACK_LIMIT,
        session_id: str | None = None,
    ):
        self.workspace = workspace
        self.service = NavigationService(engine)
        self.history = NavigationHistory()
        self._state = self.service.initial_state(
            workspace,
            fuzzy_on_empty=fuzzy_on_empty,
            fuzzy_k=fuzzy_k,
            back_limit=back_limit,
            session_id=session_id,
        )
        self.current: View = self.service.materialize(
            workspace, self._state, self.history
        )
        self._suggestion_cache: tuple[View, NavigationResult] | None = None

    # ------------------------------------------------------------------
    # State plumbing
    # ------------------------------------------------------------------

    @property
    def engine(self) -> NavigationEngine:
        """The suggestion engine (shared with the service)."""
        return self.service.engine

    @property
    def state(self) -> SessionState:
        """The current immutable session state (safe to hold or ship)."""
        return self._state

    @classmethod
    def from_state(
        cls,
        workspace: Workspace,
        state: SessionState,
        engine: NavigationEngine | None = None,
    ) -> "Session":
        """Resume a (possibly deserialized) state over a workspace."""
        session = cls(
            workspace,
            engine=engine,
            fuzzy_on_empty=state.fuzzy_on_empty,
            fuzzy_k=state.fuzzy_k,
            back_limit=state.back_limit,
            session_id=state.session_id,
        )
        session.restore(state)
        return session

    def rebind(self, workspace: Workspace, epoch: int | None = None) -> None:
        """Migrate this session forward onto a newer epoch's workspace.

        The state is a pure value (terms, not workspace references), so
        re-materializing it over the new snapshot is the whole
        migration.  A migrated collection view keeps its items as they
        were: its query is not re-run, so items the new epoch retracted
        stay and new matches do not join.  Previews and refines evaluate
        against the new epoch, within those items.  ``epoch`` stamps the
        state so the pin survives serialization.
        """
        self.workspace = workspace
        self.restore(replace(self._state, epoch=epoch))

    def restore(self, state: SessionState) -> None:
        """Adopt a state wholesale, rebuilding the live view and history."""
        self._state = state
        self.history.restore(state.visits, state.trail)
        self.current = self.service.materialize(
            self.workspace, state, self.history
        )
        self._suggestion_cache = None

    def _apply(self, command: cmd.Command):
        """Dispatch one command and sync the live objects to the result."""
        transition = self.service.apply(self.workspace, self._state, command)
        self._adopt(transition.state)
        return transition

    def apply(self, command: cmd.Command):
        """Dispatch one typed command and return the full transition.

        The generic entry point used by the network layer: any of the
        23 commands, one :class:`~repro.service.navigation.Transition`
        back.  The convenience methods below remain the ergonomic
        surface for direct use.
        """
        return self._apply(command)

    def _adopt(self, state: SessionState) -> None:
        old = self._state
        self._state = state
        if state.visits is not old.visits or state.trail is not old.trail:
            self.history.restore(state.visits, state.trail)
        if state.view is not old.view:
            self.current = self.service.materialize(
                self.workspace, state, self.history
            )
            self._suggestion_cache = None

    @property
    def fuzzy_on_empty(self) -> bool:
        return self._state.fuzzy_on_empty

    @fuzzy_on_empty.setter
    def fuzzy_on_empty(self, value: bool) -> None:
        self._state = replace(self._state, fuzzy_on_empty=bool(value))

    @property
    def fuzzy_k(self) -> int:
        return self._state.fuzzy_k

    @fuzzy_k.setter
    def fuzzy_k(self, value: int) -> None:
        self._state = replace(self._state, fuzzy_k=int(value))

    @property
    def last_was_fuzzy(self) -> bool:
        """True when the current collection came from the fuzzy fallback."""
        return self._state.last_was_fuzzy

    @property
    def _back_stack(self) -> list[ViewState]:
        """The back stack's view states (read-only; sized like the old list)."""
        return list(self._state.back_stack)

    @property
    def metrics(self):
        """The workspace's metrics registry (``.snapshot()`` to read).

        Cache telemetry — extent-cache hit rates, facet-memo reuse,
        store maintenance decisions — is always collected; this is the
        operator's window onto it regardless of whether tracing is on.
        """
        return self.workspace.obs.metrics

    # ------------------------------------------------------------------
    # Starting searches (§3.1)
    # ------------------------------------------------------------------

    def search(self, text: str) -> View:
        """Toolbar keyword search: a brand-new query."""
        self._apply(cmd.Search(text))
        return self.current

    def search_within(self, text: str) -> View:
        """Keyword search restricted to the current collection (§4.3)."""
        self._apply(cmd.SearchWithin(text))
        return self.current

    def run_query(self, predicate: Predicate, description: str | None = None) -> View:
        """Execute a query against the whole universe."""
        self._apply(cmd.RunQuery(predicate, description))
        return self.current

    def refine(self, predicate: Predicate, mode: str = RefineMode.FILTER) -> View:
        """Apply a predicate to the current collection directly.

        This is the programmatic form of clicking a refinement
        suggestion; ``mode`` selects filter/exclude/expand (§4.1).
        """
        self._apply(cmd.Refine(predicate, mode))
        return self.current

    def preview_count(
        self, predicate: Predicate, mode: str = RefineMode.FILTER
    ) -> int:
        """How many items a refinement would keep, without applying it.

        The §3.2-style query preview for hover/context-menu display:
        on the bitset engine this is a popcount over cached extents, so
        probing every visible suggestion costs no set materialization
        and the current view is left untouched.
        """
        return self.service.preview_count(
            self.workspace, self._state, predicate, mode
        )

    def search_ranked(self, text: str, k: int = 20) -> View:
        """Ranked keyword search — the §6.2 document-reordering extension.

        Unlike :meth:`search` (boolean, unordered), results are ordered
        by vector-space similarity, and ``k`` bounds the view.
        """
        self._apply(cmd.SearchRanked(text, k))
        return self.current

    def rank_current(self, text: str | None = None) -> View:
        """Reorder the current collection by similarity.

        With ``text`` the ordering is against that keyword query;
        without, against the collection's own centroid (most typical
        first).  The query and constraint chips are preserved.
        """
        self._apply(cmd.RankCurrent(text))
        return self.current

    # ------------------------------------------------------------------
    # Bookmarks and starting points (§3's Haystack side panes)
    # ------------------------------------------------------------------

    def bookmark(self, item: Node | None = None) -> None:
        """Add an item (default: the currently viewed one) to bookmarks."""
        self._apply(cmd.AddBookmark(item))

    def unbookmark(self, item: Node) -> bool:
        """Drop a bookmark; returns whether it was present."""
        return bool(self._apply(cmd.RemoveBookmark(item)).outcome)

    @property
    def bookmarks(self) -> list[Node]:
        """The bookmark pane's contents (copied, in marking order)."""
        return list(self._state.bookmarks)

    def go_bookmarks(self) -> View:
        """Open the bookmarks as a browsable collection."""
        self._apply(cmd.GoBookmarks())
        return self.current

    def starting_points(self) -> list[tuple[Node, int]]:
        """Type-based entry points: (rdf:type, instance count), largest first.

        The Haystack window offers "starting points" for a fresh
        session; with no domain knowledge the natural ones are the
        repository's types.
        """
        from ..rdf.vocab import RDF

        counts: dict[Node, int] = {}
        universe = self.workspace.query_context.universe
        for subject, _p, rdf_type in self.workspace.graph.triples(
            None, RDF.type, None
        ):
            if subject in universe:
                counts[rdf_type] = counts.get(rdf_type, 0) + 1
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].n3()))

    def go_starting_point(self, rdf_type: Node) -> View:
        """Open every instance of a type as the working collection."""
        from ..query.ast import TypeIs

        return self.run_query(TypeIs(rdf_type))

    # ------------------------------------------------------------------
    # Relevance feedback (§5.3's text-IR lineage, via Rocchio)
    # ------------------------------------------------------------------

    def mark_relevant(self, item: Node) -> None:
        """'More like this' — add positive relevance feedback."""
        self._activate_feedback()
        self._apply(cmd.MarkRelevant(item))

    def mark_non_relevant(self, item: Node) -> None:
        """'Less like this' — add negative relevance feedback."""
        self._activate_feedback()
        self._apply(cmd.MarkNonRelevant(item))

    def more_like_marked(self, k: int = 10) -> View:
        """Navigate to items matching the accumulated judgments.

        Runs the Rocchio-updated query against the vector store,
        excluding already-judged items.
        """
        self._activate_feedback()
        self._apply(cmd.MoreLikeMarked(k))
        return self.current

    def clear_feedback(self) -> None:
        """Forget all relevance judgments."""
        self._apply(cmd.ClearFeedback())

    def _activate_feedback(self) -> None:
        # Seeding is committed before the command runs so that — as in
        # the pre-refactor lazy ``_feedback()`` — the captured query
        # survives even when the command itself raises.
        self._state = self.service._seed_feedback(self._state)

    def _feedback(self):
        self._activate_feedback()
        return self.service.feedback_session(self.workspace, self._state)

    # ------------------------------------------------------------------
    # Direct navigation
    # ------------------------------------------------------------------

    def go_item(self, item: Node) -> View:
        """View a single item."""
        self._apply(cmd.GoItem(item))
        return self.current

    def go_collection(
        self, items: Sequence[Node], description: str | None = None
    ) -> View:
        """View a fixed collection (no backing query)."""
        self._apply(cmd.GoCollection(tuple(items), description))
        return self.current

    # ------------------------------------------------------------------
    # Suggestions
    # ------------------------------------------------------------------

    def suggestions(self) -> NavigationResult:
        """Run (or reuse) the suggestion cycle for the current view."""
        cached = self._suggestion_cache
        if cached is not None and cached[0] is self.current:
            return cached[1]
        result = self.engine.suggest(self.current)
        self._suggestion_cache = (self.current, result)
        return result

    def expand_group(self, advisor_id: str, group: str) -> list[Suggestion]:
        """Click a group's '...' marker: every option, weight-ordered.

        §3.2: users "wanting more choices for a given refinement can ask
        the user interface to present them with more options (by
        clicking on the '...')".
        """
        advisor = self.engine.advisors.get(advisor_id)
        if advisor is None:
            raise KeyError(f"unknown advisor {advisor_id!r}")
        return advisor.all_in_group(self.suggestions().blackboard, group)

    def select(
        self, suggestion: Suggestion, mode: str | None = None
    ) -> View | OpenRangeWidget | object:
        """Execute a suggestion's action.

        For refinements, ``mode`` overrides the suggestion's default
        (the context-menu filter/exclude/expand choice of §4.1).  Range
        widgets are returned to the caller, who inspects the preview and
        calls :meth:`apply_range`.  ``Invoke`` actions run their callback
        and return its result.
        """
        action = suggestion.action
        if isinstance(action, Refine):
            self._apply(cmd.SelectRefine(action.predicate, mode or action.mode))
            return self.current
        if isinstance(action, GoToItem):
            return self.go_item(action.item)
        if isinstance(action, GoToCollection):
            return self.go_collection(action.items, action.description)
        if isinstance(action, NewQuery):
            return self.run_query(action.predicate)
        if isinstance(action, OpenRangeWidget):
            return action
        if isinstance(action, Invoke):
            return action.callback()
        raise TypeError(f"unknown action {action!r}")

    def apply_range(
        self, prop: Resource, low: float | None, high: float | None
    ) -> View:
        """Commit a range-widget selection as a filter refinement."""
        self._apply(cmd.ApplyRange(prop, low, high))
        return self.current

    # ------------------------------------------------------------------
    # Constraint chips (§3.2)
    # ------------------------------------------------------------------

    def constraints(self) -> list[Predicate]:
        """The current query's top-level conjuncts."""
        return self.current.constraints()

    def describe_constraints(self) -> list[str]:
        """Display strings for the chips."""
        context = self.workspace.query_context
        return [c.describe(context) for c in self.constraints()]

    def remove_constraint(self, index: int) -> View:
        """Click the 'X' by a constraint: drop it and re-run."""
        self._apply(cmd.RemoveConstraint(index))
        return self.current

    def negate_constraint(self, index: int) -> View:
        """Context-menu negation of one constraint."""
        self._apply(cmd.NegateConstraint(index))
        return self.current

    # ------------------------------------------------------------------
    # Power-user features (§3.3)
    # ------------------------------------------------------------------

    def start_compound(self, mode: str) -> CompoundBuilder:
        """Begin a compound ('and'/'or') refinement via the context menu."""
        return CompoundBuilder(mode)

    def apply_compound(self, builder: CompoundBuilder) -> View:
        """Apply a compound refinement to the current collection."""
        self._apply(cmd.ApplyCompound(tuple(builder.parts), builder.mode))
        return self.current

    def apply_subcollection(
        self,
        prop: Resource,
        values: Sequence[Node],
        quantifier: str = "any",
    ) -> View:
        """Apply a browsed sub-collection back to the current items.

        §3.3's example: refine the collection of ingredients down to
        those found in North America, then keep recipes having *an*
        ingredient in the set (``any``/or) or having *all* their
        ingredients in the set (``all``/and).
        """
        self._apply(cmd.ApplySubcollection(prop, tuple(values), quantifier))
        return self.current

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def export_collection(self, path, format: str = "nt") -> int:
        """Write the current collection's induced subgraph to a file.

        The subgraph holds every triple whose subject is in the
        collection, plus ``rdfs:label`` annotations of referenced values
        so the export stays readable elsewhere.  ``format`` is ``nt``
        (N-Triples) or ``ttl`` (Turtle).  Returns the triple count.
        """
        from ..rdf.graph import Graph
        from ..rdf.terms import Literal as _Literal
        from ..rdf.vocab import RDFS

        if not self.current.is_collection:
            raise RuntimeError("not viewing a collection")
        subgraph = Graph()
        referenced: set[Node] = set()
        for item in self.current.items:
            for s, p, o in self.workspace.graph.triples(item, None, None):
                subgraph.add(s, p, o)
                if not isinstance(o, _Literal):
                    referenced.add(o)
        for node in referenced:
            label = self.workspace.graph.value(node, RDFS.label)
            if label is not None:
                subgraph.add(node, RDFS.label, label)
        if format == "nt":
            from ..rdf.ntriples import serialize_ntriples

            text = serialize_ntriples(subgraph.triples())
        elif format == "ttl":
            from ..rdf.turtle import serialize_turtle

            text = serialize_turtle(subgraph)
        else:
            raise ValueError(f"unknown export format {format!r}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return len(subgraph)

    # ------------------------------------------------------------------
    # History
    # ------------------------------------------------------------------

    def back(self) -> View:
        """The browser-style back button: return to the previous view.

        Unlike :meth:`undo_refinement` (which pops the *query* trail),
        ``back`` restores the exact previous view — item or collection —
        as a single-window browser would.
        """
        self._apply(cmd.Back())
        return self.current

    def undo_refinement(self) -> View:
        """Step back along the refinement trail."""
        self._apply(cmd.UndoRefinement())
        return self.current

    def _predicate_vector(self, predicate: Predicate):
        """Fuzzy rendering of a boolean query (delegated to the service)."""
        return self.service._predicate_vector(self.workspace, predicate)

    def __repr__(self) -> str:
        return f"<Session at {self.current!r}>"
