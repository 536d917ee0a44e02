"""Time travel: ``Workspace.as_of`` views and pinned sessions."""

from dataclasses import replace

import pytest

from repro.check.corpus import random_corpus
from repro.core.workspace import (
    FrozenWorkspaceError,
    HistoricalWorkspaceError,
    Workspace,
)
from repro.net.protocol import canonical_json, suggestions_payload
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Resource
from repro.service.manager import SessionManager
from repro.service.serialize import StateLoadError
from repro.store import OP_RETRACT


@pytest.fixture(scope="module")
def corpus():
    corpus = random_corpus(424242)
    # The corpus workspace sealed its graph: write the history onto a
    # fork, and build the workspace under test over that.
    graph = corpus.workspace.graph.fork()
    # Retract a few triples so history is not append-only.
    victims = sorted(graph.triples(), key=repr)[:6]
    for s, p, o in victims[:3]:
        graph.remove(s, p, o)
    graph.transact([(OP_RETRACT, s, p, o) for s, p, o in victims[3:]])
    return replace(corpus, workspace=Workspace(graph))


def _suggestions(workspace: Workspace) -> str:
    from repro.browser.session import Session

    session = Session(workspace, session_id="asof-test")
    return canonical_json(suggestions_payload(session.suggestions()))


def test_as_of_equals_a_fresh_build_at_that_tx(corpus):
    workspace = corpus.workspace
    tx = workspace.graph.last_tx // 2
    view = workspace.as_of(tx)
    assert view.as_of_tx == tx
    assert view.graph.last_tx == tx

    prefix = [d for d in workspace.graph.log if d.tx <= tx]
    fresh = Workspace(Graph.from_datoms(prefix))
    assert _suggestions(view) == _suggestions(fresh)
    # determinism: asking twice yields identical bytes
    assert _suggestions(view) == _suggestions(view)


def test_as_of_views_are_memoized_per_tx(corpus):
    workspace = corpus.workspace
    tx = workspace.graph.last_tx // 3
    assert workspace.as_of(tx) is workspace.as_of(tx)
    assert workspace.as_of(tx) is not workspace.as_of(tx + 1)


def test_as_of_validates_the_tx(corpus):
    workspace = corpus.workspace
    with pytest.raises(ValueError, match="out of range"):
        workspace.as_of(-1)
    with pytest.raises(ValueError, match="out of range"):
        workspace.as_of(workspace.graph.last_tx + 1)
    with pytest.raises(ValueError, match="integer"):
        workspace.as_of(True)
    with pytest.raises(ValueError, match="integer"):
        workspace.as_of("3")


def test_as_of_zero_is_the_empty_graph(corpus):
    view = corpus.workspace.as_of(0)
    assert len(view.graph) == 0
    assert view.items == []


def test_writes_against_a_view_raise_historical_error(corpus):
    view = corpus.workspace.as_of(corpus.workspace.graph.last_tx // 2)
    item = Resource("urn:new-item")
    s, p, o = next(iter(view.graph.triples()))
    with pytest.raises(HistoricalWorkspaceError) as info:
        view.graph.remove(s, p, o)
    assert info.value.operation == "remove"
    assert info.value.tx == view.as_of_tx
    with pytest.raises(HistoricalWorkspaceError) as info:
        view.graph.add(item, Resource("urn:p"), Literal("x"))
    assert info.value.operation == "add"
    assert info.value.tx == view.as_of_tx
    # a historical view is still a frozen workspace to old handlers
    assert isinstance(info.value, FrozenWorkspaceError)


def test_manager_creates_and_round_trips_pinned_sessions(corpus, tmp_path):
    manager = SessionManager(corpus.workspace)
    tx = corpus.workspace.graph.last_tx // 2
    session = manager.create("past", as_of=tx)
    assert session.state.as_of_tx == tx
    assert session.state.to_dict()["as_of"] == tx

    path = tmp_path / "past.json"
    manager.save("past", path)
    resumed = manager.load("resumed", path)
    assert resumed.state.as_of_tx == tx
    assert resumed.workspace.as_of_tx == tx
    assert _suggestions(resumed.workspace) == _suggestions(
        corpus.workspace.as_of(tx)
    )


def test_manager_rejects_out_of_range_pins(corpus, tmp_path):
    manager = SessionManager(corpus.workspace)
    with pytest.raises(ValueError, match="out of range"):
        manager.create("future", as_of=corpus.workspace.graph.last_tx + 99)

    # A saved pin beyond this log's head is a load failure, not a
    # silent unpin.
    manager.create("past", as_of=1)
    path = tmp_path / "past.json"
    manager.save("past", path)
    short = SessionManager(Workspace(Graph().freeze()).freeze())
    with pytest.raises(StateLoadError, match="as-of"):
        short.load("resumed", path)
