"""A view's encoded body and header: encoded once per view, spliced ever after.

A served state lists every item of its current view and a header
(kind, item, query, description, size) for each view on its back
stack.  Each :class:`ViewState` keeps its canonical JSON body once a
response has arrived at it, and its header once a response has carried
it on the back stack, so an apply encodes only the view it arrives at.
The memos are not part of the value, they survive epoch migration with
the view, and the landing view, the largest, is one object per
workspace.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.epochs import EpochManager
from repro.core.workspace import Workspace
from repro.net.protocol import canonical_json, ok_envelope, transition_payload
from repro.query import HasValue, Range
from repro.rdf import RDF, Graph, Literal, Namespace
from repro.service import NavigationService, commands as cmd
from repro.service import state as state_module
from repro.service.manager import SessionManager
from repro.service.navigation import landing_view
from repro.service.serialize import value_json
from repro.service.state import ViewState
from repro.store.datom import OP_ASSERT

EX = Namespace("http://vbody.example/")
COLORS = (EX.red, EX.blue, EX.green)


def _graph(n: int = 30) -> Graph:
    g = Graph()
    for i in range(n):
        item = EX[f"it{i:02d}"]
        g.add(item, RDF.type, EX.Doc)
        g.add(item, EX.color, COLORS[i % 3])
        g.add(item, EX.size, EX.big if i % 2 else EX.small)
        g.add(item, EX.weight, Literal(i))
    return g


def _red_view() -> ViewState:
    return ViewState.of_collection(
        [EX.it00, EX.it03], query=HasValue(EX.color, EX.red), description="red"
    )


class TestTheMemoIsNotPartOfTheValue:
    def test_a_filled_memo_keeps_equality_and_hash(self):
        cached = _red_view()
        body = cached.json_bytes()
        assert cached.__dict__["_json"] is body
        plain = _red_view()
        assert cached == plain
        assert hash(cached) == hash(plain)
        assert cached.to_dict() == plain.to_dict()
        assert body == value_json(plain.to_dict()) == plain.json_bytes()
        head = cached.header_json()
        assert cached.__dict__["_head"] is head
        assert cached == plain and hash(cached) == hash(plain)
        header = {**plain.to_dict(), "size": 2}
        del header["items"]
        assert head == value_json(header) == plain.header_json()

    def test_replace_makes_a_view_without_a_memo(self):
        view = _red_view()
        view.json_bytes()
        view.header_json()
        renamed = dataclasses.replace(view, description="crimson")
        assert "_json" not in renamed.__dict__
        assert "_head" not in renamed.__dict__
        assert renamed.json_bytes() == value_json(renamed.to_dict())
        assert b"crimson" in renamed.json_bytes()
        assert b"crimson" not in view.json_bytes()
        assert b"crimson" in renamed.header_json()
        assert b"crimson" not in view.header_json()


class TestEachViewIsEncodedOnce:
    def test_an_apply_encodes_only_the_view_it_arrives_at(self, monkeypatch):
        workspace = Workspace(_graph())
        service = NavigationService()
        encoded = Counter()
        original = state_module.nodes_json

        def counting(nodes):
            encoded[id(nodes)] += 1
            return original(nodes)

        monkeypatch.setattr(state_module, "nodes_json", counting)
        state = service.initial_state(workspace)
        commands = [
            cmd.Refine(HasValue(EX.size, EX.big)),
            cmd.Refine(HasValue(EX.color, EX.red)),
            cmd.NegateConstraint(1),
            cmd.RemoveConstraint(1),
            cmd.Refine(Range(EX.weight, low=3, high=20)),
            cmd.RemoveConstraint(1),
            cmd.RemoveConstraint(0),  # back to the landing view
            cmd.Refine(HasValue(EX.color, EX.blue)),
        ]
        heads = {}
        for command in commands:
            transition = service.apply(workspace, state, command)
            state = transition.state
            body = canonical_json(ok_envelope(transition_payload(transition)))
            assert body == value_json(
                {"ok": True, "result": {"state": state.wire_dict(), "outcome": None}}
            )
            for view in state.back_stack:
                # A view's header is encoded once, then spliced.
                head = view.__dict__["_head"]
                assert heads.setdefault(id(view), head) is head
        views = {id(view): view for view in (state.view, *state.back_stack)}
        assert len(state.back_stack) == len(commands)
        assert landing_view(workspace) in state.back_stack
        for view in views.values():
            assert view.items, "an empty view's tuple is shared"
            assert encoded[id(view.items)] == 1, view.description


class TestOneLandingViewPerWorkspace:
    def test_sessions_share_it_and_a_new_epoch_builds_another(self):
        epochs = EpochManager(Workspace(_graph()))
        manager = SessionManager(epochs.current.workspace)
        manager.attach_epochs(epochs)
        first = manager.create("a").state.view
        second = manager.create("b").state.view
        assert first is second
        assert first is landing_view(epochs.current.workspace)
        epochs.ingest([
            (OP_ASSERT, EX.it99, RDF.type, EX.Doc),
            (OP_ASSERT, EX.it99, EX.color, EX.red),
        ])
        epochs.publish()
        later = manager.create("c").state.view
        assert later is not first
        assert EX.it99 in later.items and EX.it99 not in first.items
        table = epochs.current.workspace.graph.interner
        assert later.bits(table) == table.bits_of(later.items)

    def test_removing_the_last_chip_returns_to_the_shared_view(self):
        workspace = Workspace(_graph())
        service = NavigationService()
        red = cmd.Refine(HasValue(EX.color, EX.red))
        start = service.initial_state(workspace)
        refined = service.apply(workspace, start, red).state
        for back in (cmd.RemoveConstraint(0), cmd.UndoRefinement()):
            state = service.apply(workspace, refined, back).state
            assert state.view is start.view
        # Undo back to a step that removed the last chip.
        state = service.apply(workspace, state, red).state
        state = service.apply(workspace, state, cmd.RemoveConstraint(0)).state
        state = service.apply(workspace, state, red).state
        state = service.apply(workspace, state, cmd.UndoRefinement()).state
        assert state.view is start.view


class TestMigration:
    @pytest.fixture()
    def managed(self):
        epochs = EpochManager(Workspace(_graph()))
        manager = SessionManager(epochs.current.workspace)
        manager.attach_epochs(epochs)
        return manager, epochs

    def test_a_migrated_state_encodes_its_dict_form(self, managed):
        manager, epochs = managed
        session = manager.create("a")
        session.apply(cmd.Refine(HasValue(EX.size, EX.big)))
        session.apply(cmd.Refine(HasValue(EX.color, EX.red)))
        before = session.state
        before.json_parts()  # fills the view's body and the headers
        epochs.ingest([
            (OP_ASSERT, EX.it99, RDF.type, EX.Doc),
            (OP_ASSERT, EX.it99, EX.size, EX.big),
        ])
        epochs.publish()
        state = manager.sync_session("a").state
        assert state.epoch != before.epoch
        assert state.view is before.view  # the memo migrates with the view
        assert "_json" in state.view.__dict__
        assert all("_head" in view.__dict__ for view in state.back_stack)
        assert b"".join(state.json_parts()) == value_json(state.wire_dict())
        state = session.apply(cmd.RemoveConstraint(1)).state
        assert b"".join(state.json_parts()) == value_json(state.wire_dict())
