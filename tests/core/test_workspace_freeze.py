"""Workspace/Graph sealing: the read-mostly serving contract.

A workspace is sealed from construction: its query context freezes the
graph, so every later write raises :class:`FrozenWorkspaceError`
naming the refused operation, and no cache over the graph can go stale.
"""

import pytest

from repro.core import Workspace
from repro.core.workspace import FrozenWorkspaceError
from repro.query import QueryContext
from repro.rdf import Graph, Literal, Namespace, RDF

EX = Namespace("http://fz.example/")


def _graph():
    g = Graph()
    for i in range(4):
        item = EX[f"d{i}"]
        g.add(item, RDF.type, EX.Doc)
        g.add(item, EX.color, EX.red if i < 2 else EX.blue)
        g.add(item, EX.title, Literal(f"doc number {i}"))
    return g


@pytest.fixture()
def workspace():
    return Workspace(_graph())


def _assert_writes_refused(g):
    cases = [
        (lambda: g.add(EX.d0, EX.color, EX.green), "add"),
        (lambda: g.remove(EX.d0, EX.color, EX.red), "remove"),
        (lambda: g.transact([("+", EX.d0, EX.color, EX.green)]), "transact"),
    ]
    for attempt, operation in cases:
        with pytest.raises(FrozenWorkspaceError) as info:
            attempt()
        assert info.value.operation == operation
        assert str(info.value) == f"graph is frozen; cannot {operation}"


class TestFreeze:
    def test_workspace_seals_its_graph(self):
        g = _graph()
        assert not g.frozen
        Workspace(g)
        assert g.frozen
        _assert_writes_refused(g)

    def test_query_context_seals_its_graph(self):
        g = _graph()
        QueryContext(g)
        assert g.frozen
        _assert_writes_refused(g)

    def test_freeze_seals_workspace_and_graph(self, workspace):
        assert workspace.graph.frozen
        assert workspace.freeze() is workspace
        assert workspace.graph.frozen

    def test_freeze_is_idempotent(self, workspace):
        assert workspace.freeze() is workspace
        assert workspace.freeze() is workspace

    def test_graph_add_raises_after_freeze(self, workspace):
        workspace.freeze()
        with pytest.raises(FrozenWorkspaceError):
            workspace.graph.add(EX.d0, EX.color, EX.green)

    def test_graph_remove_raises_after_freeze(self, workspace):
        workspace.freeze()
        with pytest.raises(FrozenWorkspaceError):
            workspace.graph.remove(EX.d0, EX.color, EX.red)
        with pytest.raises(FrozenWorkspaceError):
            workspace.graph.remove_matching(EX.d0, None, None)

    def test_version_pinned_after_freeze(self, workspace):
        workspace.freeze()
        version = workspace.graph.version
        with pytest.raises(FrozenWorkspaceError):
            workspace.graph.add(EX.d0, EX.color, EX.green)
        assert workspace.graph.version == version

    def test_reads_still_work_after_freeze(self, workspace):
        from repro.browser import Session
        from repro.query import HasValue

        workspace.freeze()
        session = Session(workspace)
        view = session.run_query(HasValue(EX.color, EX.red))
        assert set(view.items) == {EX.d0, EX.d1}
        assert session.suggestions() is not None

    def test_freeze_warms_universe_bits(self, workspace):
        workspace.freeze()
        bits = workspace.query_context.universe_bits()
        assert bin(bits).count("1") == len(workspace.items)

    def test_mutation_works_until_frozen(self):
        g = _graph()
        g.add(EX.d9, RDF.type, EX.Doc)
        workspace = Workspace(g)
        assert EX.d9 in workspace.query_context.universe
        with pytest.raises(FrozenWorkspaceError):
            g.add(EX.d8, RDF.type, EX.Doc)
        assert EX.d8 not in workspace.query_context.universe

    def test_a_fork_takes_the_writes(self, workspace):
        grown = workspace.graph.fork()
        grown.add(EX.d9, RDF.type, EX.Doc)
        assert EX.d9 in Workspace(grown).items
        assert EX.d9 not in workspace.items

    def test_bare_graph_freeze(self):
        g = Graph()
        g.add(EX.a, EX.p, EX.b)
        g.freeze()
        with pytest.raises(FrozenWorkspaceError):
            g.add(EX.a, EX.p, EX.c)
        assert list(g.triples(EX.a, None, None))
