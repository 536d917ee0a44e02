"""The stateless navigation service: pure transitions over SessionState.

Every method here is a function of ``(workspace, state, command)`` —
the workspace is a shared read-mostly artifact, the state is an
immutable value, and the return is a fresh state plus the transition's
outcome.  Nothing is stored on the service between calls (the only
attribute is the suggestion engine, itself stateless per user), so one
service instance can serve any number of concurrent sessions over one
frozen workspace.

The transition semantics are ported verbatim from the pre-refactor
mutable ``browser.Session``; that class survives as a thin facade over
this service, and the original browser test suite is the behavioural
oracle.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import Sequence

from ..core.engine import NavigationEngine, NavigationResult
from ..core.history import NavigationHistory
from ..core.suggestions import RefineMode
from ..core.view import View
from ..core.workspace import Workspace
from ..query.ast import And, Not, Or, Path, Predicate, Range, TextMatch
from ..rdf.terms import Node
from ..vsm.vector import SparseVector
from . import commands as cmd
from .state import SessionState, ViewState

__all__ = ["Transition", "NavigationService"]

#: Each workspace's landing view, shared by all of its sessions.  A
#: workspace is sealed, so the view never goes stale; it is dropped
#: with the workspace.
_landings: "weakref.WeakKeyDictionary[Workspace, ViewState]" = (
    weakref.WeakKeyDictionary()
)


def landing_view(workspace: Workspace) -> ViewState:
    """The view of everything in ``workspace``, built once.

    Every session of the workspace starts at this one object, so its
    intern mask and its encoded body are derived once per workspace
    (once per epoch under live ingestion), not once per session.
    """
    view = _landings.get(workspace)
    if view is None:
        view = ViewState.of_collection(workspace.items, description="everything")
        view.keep_bits(workspace.graph.interner, workspace.landing_bits())
        _landings[workspace] = view
    return view


class Transition:
    """The result of applying one command: the new state plus an outcome.

    ``outcome`` is command-specific extra data (e.g. whether a
    ``RemoveBookmark`` actually removed anything); for view-changing
    commands it is None and callers read ``state.view``.
    """

    __slots__ = ("state", "outcome")

    def __init__(self, state: SessionState, outcome: object = None):
        self.state = state
        self.outcome = outcome

    def __iter__(self):
        return iter((self.state, self.outcome))

    def __repr__(self) -> str:
        return f"<Transition to {self.state.view!r}>"


class NavigationService:
    """Executes commands against (workspace, state) pairs.

    Holds only the suggestion engine (advisors + analysts), which is
    per-deployment configuration, not per-user state.
    """

    def __init__(self, engine: NavigationEngine | None = None):
        self.engine = engine if engine is not None else NavigationEngine()

    # ------------------------------------------------------------------
    # State construction and materialization
    # ------------------------------------------------------------------

    def initial_state(
        self,
        workspace: Workspace,
        fuzzy_on_empty: bool = False,
        fuzzy_k: int = 10,
        back_limit: int = 100,
        session_id: str | None = None,
    ) -> SessionState:
        """A fresh session over the workspace: viewing everything."""
        return SessionState.initial(
            landing_view(workspace),
            fuzzy_on_empty=fuzzy_on_empty,
            fuzzy_k=fuzzy_k,
            back_limit=back_limit,
            session_id=session_id,
        )

    def history_of(self, state: SessionState) -> NavigationHistory:
        """A NavigationHistory rebuilt from the state's raw sequences."""
        history = NavigationHistory()
        history.restore(state.visits, state.trail)
        return history

    def materialize(
        self,
        workspace: Workspace,
        state: SessionState,
        history: NavigationHistory | None = None,
    ) -> View:
        """The analyst-facing :class:`View` for the state's focus.

        ``history`` lets a caller thread its own (already synchronized)
        history object into the view; by default one is rebuilt from the
        state.
        """
        if history is None:
            history = self.history_of(state)
        return self._view_of(workspace, state.view, history)

    def suggest(self, workspace: Workspace, state: SessionState) -> NavigationResult:
        """Run the suggestion cycle for the state's current view."""
        return self.engine.suggest(self.materialize(workspace, state))

    @staticmethod
    def _view_of(
        workspace: Workspace, view: ViewState, history: NavigationHistory
    ) -> View:
        if view.is_item:
            return View.of_item(workspace, view.item, history=history)
        return View.of_collection(
            workspace,
            list(view.items),
            query=view.query,
            history=history,
            description=view.description,
        )

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------

    def apply(
        self, workspace: Workspace, state: SessionState, command: cmd.Command
    ) -> Transition:
        """Execute one command: ``(workspace, state, command) → Transition``.

        Raises exactly what the equivalent ``Session`` method raised
        (``IndexError`` for bad chip indexes, ``RuntimeError`` for an
        empty back stack, ...), leaving the input state untouched.
        """
        handler = self._HANDLERS.get(type(command))
        if handler is None:
            raise TypeError(f"unknown command {command!r}")
        transition = handler(self, workspace, state, command)
        self._count_transition(workspace, state)
        return transition

    def _count_transition(self, workspace: Workspace, state: SessionState) -> None:
        """Per-session transition telemetry (only for named sessions)."""
        if state.session_id is not None:
            workspace.obs.metrics.counter(
                f"session.transitions{{session={state.session_id}}}"
            ).inc()

    def _session_tags(self, state: SessionState, **tags) -> dict:
        """Span tags, with the session id attached for named sessions."""
        if state.session_id is not None:
            tags["session"] = state.session_id
        return tags

    # ------------------------------------------------------------------
    # Searches and queries
    # ------------------------------------------------------------------

    def _do_search(self, workspace, state, command: cmd.Search) -> Transition:
        return self._run_query(
            workspace, state, TextMatch(command.text),
            description=f"search {command.text!r}",
        )

    def _do_search_within(
        self, workspace, state, command: cmd.SearchWithin
    ) -> Transition:
        return self._refine_with(
            workspace, state, TextMatch(command.text), RefineMode.FILTER
        )

    def _do_run_query(self, workspace, state, command: cmd.RunQuery) -> Transition:
        return self._run_query(
            workspace, state, command.predicate, command.description
        )

    def _run_query(
        self,
        workspace: Workspace,
        state: SessionState,
        predicate: Predicate,
        description: str | None = None,
    ) -> Transition:
        obs = workspace.obs
        with obs.tracer.span(
            "session.query", **self._session_tags(state)
        ) as span:
            bits = workspace.query_engine.select(predicate)
            transition = self._arrive_collection(
                workspace, state, predicate, bits, description
            )
            span.set_tag("items", len(transition.state.view.items))
            return transition

    def _do_refine(self, workspace, state, command: cmd.Refine) -> Transition:
        obs = workspace.obs
        obs.metrics.counter("session.refinements").inc()
        if state.session_id is not None:
            obs.metrics.counter(
                f"session.refinements{{session={state.session_id}}}"
            ).inc()
        with obs.tracer.span(
            "session.refine", **self._session_tags(state, mode=command.mode)
        ) as span:
            transition = self._refine_with(
                workspace, state, command.predicate, command.mode
            )
            span.set_tag("items", len(transition.state.view.items))
            return transition

    def _do_select_refine(
        self, workspace, state, command: cmd.SelectRefine
    ) -> Transition:
        return self._refine_with(workspace, state, command.predicate, command.mode)

    def _do_apply_range(self, workspace, state, command: cmd.ApplyRange) -> Transition:
        predicate = Range(command.prop, low=command.low, high=command.high)
        return self._refine_with(workspace, state, predicate, RefineMode.FILTER)

    def _do_apply_path(self, workspace, state, command: cmd.ApplyPath) -> Transition:
        predicate = Path(command.steps, command.value)
        return self._refine_with(workspace, state, predicate, RefineMode.FILTER)

    def _do_apply_compound(
        self, workspace, state, command: cmd.ApplyCompound
    ) -> Transition:
        from ..browser.compound import CompoundBuilder

        builder = CompoundBuilder(command.mode)
        for part in command.parts:
            builder.drag(part)
        return self._refine_with(
            workspace, state, builder.build(), RefineMode.FILTER
        )

    def _do_apply_subcollection(
        self, workspace, state, command: cmd.ApplySubcollection
    ) -> Transition:
        from ..query.ast import ValueIn

        predicate = ValueIn(
            command.prop, command.values, quantifier=command.quantifier
        )
        return self._refine_with(workspace, state, predicate, RefineMode.FILTER)

    def _do_search_ranked(
        self, workspace, state, command: cmd.SearchRanked
    ) -> Transition:
        hits = workspace.vector_store.search_text(command.text, command.k)
        items = tuple(hit.item for hit in hits if hit.score > 0.0)
        view = ViewState.of_collection(
            items,
            query=TextMatch(command.text),
            description=f"ranked search {command.text!r}",
        )
        new_state = replace(
            state,
            view=view,
            back_stack=self._push_back(state),
            trail=state.trail + ((view.query, view.description),),
            last_was_fuzzy=False,
        )
        return Transition(new_state)

    def _do_rank_current(
        self, workspace, state, command: cmd.RankCurrent
    ) -> Transition:
        from ..index.ranking import Ranker

        current = state.view
        ranker = Ranker(workspace.model)
        items = list(current.items)
        if command.text is not None:
            hits = ranker.rank_for_text(items, command.text)
        else:
            centroid = workspace.model.centroid(items)
            hits = ranker.rank(items, centroid)
        view = ViewState.of_collection(
            tuple(hit.item for hit in hits),
            query=current.query,
            description=current.description,
        )
        new_state = replace(
            state, view=view, back_stack=self._push_back(state)
        )
        return Transition(new_state)

    # ------------------------------------------------------------------
    # Constraint chips (§3.2)
    # ------------------------------------------------------------------

    def _do_remove_constraint(
        self, workspace, state, command: cmd.RemoveConstraint
    ) -> Transition:
        parts = state.view.constraints()
        if not (0 <= command.index < len(parts)):
            raise IndexError(f"no constraint at {command.index}")
        remaining = [c for i, c in enumerate(parts) if i != command.index]
        if not remaining:
            return self._go_collection(state, landing_view(workspace))
        query = remaining[0] if len(remaining) == 1 else And(remaining)
        return self._run_query(workspace, state, query)

    def _do_negate_constraint(
        self, workspace, state, command: cmd.NegateConstraint
    ) -> Transition:
        parts = state.view.constraints()
        if not (0 <= command.index < len(parts)):
            raise IndexError(f"no constraint at {command.index}")
        parts[command.index] = parts[command.index].negated()
        query = parts[0] if len(parts) == 1 else And(parts)
        return self._run_query(workspace, state, query)

    # ------------------------------------------------------------------
    # Direct navigation
    # ------------------------------------------------------------------

    def _do_go_item(self, workspace, state, command: cmd.GoItem) -> Transition:
        new_state = replace(
            state,
            visits=state.visits + (command.item,),
            back_stack=self._push_back(state),
            view=ViewState.of_item(command.item),
            last_was_fuzzy=False,
        )
        return Transition(new_state)

    def _do_go_collection(
        self, workspace, state, command: cmd.GoCollection
    ) -> Transition:
        return self._go_collection(
            state,
            ViewState.of_collection(
                command.items, description=command.description
            ),
        )

    def _go_collection(self, state: SessionState, view: ViewState) -> Transition:
        new_state = replace(
            state,
            view=view,
            back_stack=self._push_back(state),
            trail=state.trail + ((None, view.description or "collection"),),
            last_was_fuzzy=False,
        )
        return Transition(new_state)

    def _do_go_bookmarks(
        self, workspace, state, command: cmd.GoBookmarks
    ) -> Transition:
        return self._go_collection(
            state, ViewState.of_collection(state.bookmarks, description="bookmarks")
        )

    # ------------------------------------------------------------------
    # Bookmarks
    # ------------------------------------------------------------------

    def _do_add_bookmark(
        self, workspace, state, command: cmd.AddBookmark
    ) -> Transition:
        item = command.item
        if item is None:
            if not state.view.is_item:
                raise RuntimeError("no item in view to bookmark")
            item = state.view.item
        if item in state.bookmarks:
            return Transition(state)
        return Transition(replace(state, bookmarks=state.bookmarks + (item,)))

    def _do_remove_bookmark(
        self, workspace, state, command: cmd.RemoveBookmark
    ) -> Transition:
        if command.item not in state.bookmarks:
            return Transition(state, outcome=False)
        bookmarks = tuple(b for b in state.bookmarks if b != command.item)
        return Transition(replace(state, bookmarks=bookmarks), outcome=True)

    # ------------------------------------------------------------------
    # Relevance feedback (§5.3)
    # ------------------------------------------------------------------

    def _seed_feedback(self, state: SessionState) -> SessionState:
        """Activate feedback, capturing the current query as the seed."""
        if state.feedback_active:
            return state
        return replace(
            state, feedback_active=True, feedback_seed=state.view.query
        )

    def feedback_session(self, workspace: Workspace, state: SessionState):
        """A live FeedbackSession reconstructed from the state's marks."""
        from ..vsm.feedback import FeedbackSession

        initial = (
            self._predicate_vector(workspace, state.feedback_seed)
            if state.feedback_seed is not None
            else None
        )
        session = FeedbackSession(workspace.model, initial)
        for item in state.feedback_relevant:
            session.mark_relevant(item)
        for item in state.feedback_non_relevant:
            session.mark_non_relevant(item)
        return session

    def _do_mark_relevant(
        self, workspace, state, command: cmd.MarkRelevant
    ) -> Transition:
        state = self._seed_feedback(state)
        if command.item not in workspace.model:
            raise KeyError(f"item not indexed: {command.item!r}")
        relevant = state.feedback_relevant
        if command.item not in relevant:
            relevant = relevant + (command.item,)
        non_relevant = tuple(
            n for n in state.feedback_non_relevant if n != command.item
        )
        return Transition(
            replace(
                state,
                feedback_relevant=relevant,
                feedback_non_relevant=non_relevant,
            )
        )

    def _do_mark_non_relevant(
        self, workspace, state, command: cmd.MarkNonRelevant
    ) -> Transition:
        state = self._seed_feedback(state)
        if command.item not in workspace.model:
            raise KeyError(f"item not indexed: {command.item!r}")
        non_relevant = state.feedback_non_relevant
        if command.item not in non_relevant:
            non_relevant = non_relevant + (command.item,)
        relevant = tuple(n for n in state.feedback_relevant if n != command.item)
        return Transition(
            replace(
                state,
                feedback_relevant=relevant,
                feedback_non_relevant=non_relevant,
            )
        )

    def _do_clear_feedback(
        self, workspace, state, command: cmd.ClearFeedback
    ) -> Transition:
        return Transition(
            replace(
                state,
                feedback_relevant=(),
                feedback_non_relevant=(),
                feedback_seed=None,
                feedback_active=False,
            )
        )

    def _do_more_like_marked(
        self, workspace, state, command: cmd.MoreLikeMarked
    ) -> Transition:
        state = self._seed_feedback(state)
        if not state.feedback_relevant and not state.feedback_non_relevant:
            raise RuntimeError("no relevance judgments yet")
        feedback = self.feedback_session(workspace, state)
        hits = workspace.vector_store.search(
            feedback.query_vector(), command.k, exclude=feedback.judged()
        )
        return self._go_collection(
            state,
            ViewState.of_collection(
                (hit.item for hit in hits if hit.score > 0.0),
                description="more like the marked items",
            ),
        )

    # ------------------------------------------------------------------
    # History
    # ------------------------------------------------------------------

    def _do_back(self, workspace, state, command: cmd.Back) -> Transition:
        if not state.back_stack:
            raise RuntimeError("no earlier view to go back to")
        view = state.back_stack[-1]
        new_state = replace(
            state,
            view=view,
            back_stack=state.back_stack[:-1],
            last_was_fuzzy=False,
        )
        return Transition(new_state)

    def _do_undo(self, workspace, state, command: cmd.UndoRefinement) -> Transition:
        trail = list(state.trail)
        if trail:
            trail.pop()  # discard the step that produced the current view
        previous = trail.pop() if trail else None
        state = replace(state, trail=tuple(trail))
        if previous is None or previous == (None, "everything"):
            return self._go_collection(state, landing_view(workspace))
        query, description = previous
        if query is None:
            return self._go_collection(
                state,
                ViewState.of_collection(workspace.items, description=description),
            )
        return self._run_query(workspace, state, query, description)

    # ------------------------------------------------------------------
    # Read-only probes (no transition)
    # ------------------------------------------------------------------

    def preview_count(
        self,
        workspace: Workspace,
        state: SessionState,
        predicate: Predicate,
        mode: str = RefineMode.FILTER,
    ) -> int:
        """How many items a refinement would keep, without applying it."""
        obs = workspace.obs
        obs.metrics.counter("session.preview_counts").inc()
        with obs.tracer.span(
            "session.preview_count", **self._session_tags(state, mode=mode)
        ) as span:
            count = self._preview_count(workspace, state, predicate, mode)
            span.set_tag("results", count)
            return count

    def _preview_count(
        self,
        workspace: Workspace,
        state: SessionState,
        predicate: Predicate,
        mode: str,
    ) -> int:
        engine = workspace.query_engine
        current = state.view
        if mode == RefineMode.FILTER:
            within = current.bits(workspace.graph.interner)
            return engine.count(predicate, within=within)
        if mode == RefineMode.EXCLUDE:
            within = current.bits(workspace.graph.interner)
            return engine.count(predicate.negated(), within=within)
        if mode == RefineMode.EXPAND:
            query = (
                predicate
                if current.query is None
                else Or([current.query, predicate])
            )
            return engine.count(query)
        raise ValueError(f"unknown refine mode {mode!r}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _push_back(self, state: SessionState) -> tuple[ViewState, ...]:
        """The back stack with the current view pushed, oldest dropped."""
        stack = state.back_stack + (state.view,)
        if len(stack) > state.back_limit:
            stack = stack[len(stack) - state.back_limit:]
        return stack

    def _refine_with(
        self,
        workspace: Workspace,
        state: SessionState,
        predicate: Predicate,
        mode: str,
    ) -> Transition:
        current = state.view
        engine = workspace.query_engine
        if mode == RefineMode.FILTER:
            query = self._conjoin(current.query, predicate)
            within = current.bits(workspace.graph.interner)
            bits = engine.select(predicate, within=within)
        elif mode == RefineMode.EXCLUDE:
            negated = predicate.negated()
            query = self._conjoin(current.query, negated)
            within = current.bits(workspace.graph.interner)
            bits = engine.select(negated, within=within)
        elif mode == RefineMode.EXPAND:
            query = (
                predicate
                if current.query is None
                else Or([current.query, predicate])
            )
            bits = engine.select(query)
        else:
            raise ValueError(f"unknown refine mode {mode!r}")
        return self._arrive_collection(workspace, state, query, bits)

    @staticmethod
    def _conjoin(query: Predicate | None, predicate: Predicate) -> Predicate:
        from ..query.simplify import simplify

        if query is None:
            return predicate
        if isinstance(query, And):
            combined = And(list(query.parts) + [predicate])
        else:
            combined = And([query, predicate])
        # Keep the chips tidy: clicking the same facet twice must not
        # grow the conjunction, and ¬¬p collapses.
        return simplify(combined)

    def _arrive_collection(
        self,
        workspace: Workspace,
        state: SessionState,
        query: Predicate | None,
        bits: int,
        description: str | None = None,
    ) -> Transition:
        """Arrive at the collection ``bits`` denotes (listed in n3 order).

        The new view keeps ``bits`` as its mask, so its previews and
        refinements never intern its items; a fuzzy fallback's ranked
        list interns lazily on first use instead.
        """
        context = workspace.query_context
        item_list = context.ordered_nodes(bits)
        was_fuzzy = False
        if not item_list and state.fuzzy_on_empty and query is not None:
            fuzzy = self._fuzzy_results(workspace, state, query)
            if fuzzy:
                item_list = fuzzy
                was_fuzzy = True
        description = description or (
            query.describe(context) if query is not None else "collection"
        )
        view = ViewState.of_collection(
            tuple(item_list), query=query, description=description
        )
        if not was_fuzzy:
            view.keep_bits(workspace.graph.interner, bits)
        new_state = replace(
            state,
            view=view,
            back_stack=self._push_back(state),
            trail=state.trail + ((query, description),),
            last_was_fuzzy=was_fuzzy,
        )
        return Transition(new_state)

    def _fuzzy_results(
        self, workspace: Workspace, state: SessionState, query: Predicate
    ) -> list[Node]:
        vector = self._predicate_vector(workspace, query)
        if len(vector) == 0:
            return []
        hits = workspace.vector_store.search(vector, state.fuzzy_k)
        return [hit.item for hit in hits if hit.score > 0.0]

    def _predicate_vector(
        self, workspace: Workspace, predicate: Predicate
    ) -> SparseVector:
        """A best-effort fuzzy rendering of a boolean query (§6.3.1).

        Positive constraints contribute their vectors; negations are
        ignored (a fuzzy 'not' would need relevance feedback).
        """
        model = workspace.model
        from ..query.ast import HasValue

        if isinstance(predicate, HasValue):
            return model.pair_vector([(predicate.prop, predicate.value)])
        if isinstance(predicate, TextMatch):
            return model.text_vector(predicate.text)
        if isinstance(predicate, (And, Or)):
            total = SparseVector()
            for part in predicate.parts:
                total = total + self._predicate_vector(workspace, part)
            return total.normalized()
        if isinstance(predicate, Not):
            return SparseVector()
        return SparseVector()

    _HANDLERS = {
        cmd.Search: _do_search,
        cmd.SearchWithin: _do_search_within,
        cmd.SearchRanked: _do_search_ranked,
        cmd.RankCurrent: _do_rank_current,
        cmd.RunQuery: _do_run_query,
        cmd.Refine: _do_refine,
        cmd.SelectRefine: _do_select_refine,
        cmd.ApplyRange: _do_apply_range,
        cmd.ApplyPath: _do_apply_path,
        cmd.ApplyCompound: _do_apply_compound,
        cmd.ApplySubcollection: _do_apply_subcollection,
        cmd.RemoveConstraint: _do_remove_constraint,
        cmd.NegateConstraint: _do_negate_constraint,
        cmd.GoItem: _do_go_item,
        cmd.GoCollection: _do_go_collection,
        cmd.GoBookmarks: _do_go_bookmarks,
        cmd.AddBookmark: _do_add_bookmark,
        cmd.RemoveBookmark: _do_remove_bookmark,
        cmd.MarkRelevant: _do_mark_relevant,
        cmd.MarkNonRelevant: _do_mark_non_relevant,
        cmd.ClearFeedback: _do_clear_feedback,
        cmd.MoreLikeMarked: _do_more_like_marked,
        cmd.Back: _do_back,
        cmd.UndoRefinement: _do_undo,
    }

    def __repr__(self) -> str:
        return f"<NavigationService engine={self.engine!r}>"
