"""Pinned messages for frozen/historical mutation errors.

These are regression pins: the errors carry the attempted operation
name (and, for historical views, the pinned tx) in both the message and
structured attributes, so handlers and logs can say *what* was refused.
"""

import pytest

from repro.core.workspace import (
    FrozenWorkspaceError,
    HistoricalWorkspaceError,
    Workspace,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Resource

S = Resource("urn:s")
P = Resource("urn:p")


def _workspace_with_history() -> Workspace:
    g = Graph()
    g.add(S, P, Literal("a"))
    g.add(S, P, Literal("b"))
    return Workspace(g)


def test_frozen_graph_messages_name_the_operation():
    g = Graph()
    g.add(S, P, Literal("a"))
    g.freeze()
    cases = [
        (lambda: g.add(S, P, Literal("b")), "add"),
        (lambda: g.remove(S, P, Literal("a")), "remove"),
        (lambda: g.transact([("+", S, P, Literal("b"))]), "transact"),
    ]
    for attempt, operation in cases:
        with pytest.raises(FrozenWorkspaceError) as info:
            attempt()
        assert str(info.value) == f"graph is frozen; cannot {operation}"
        assert info.value.operation == operation
        assert info.value.tx is None


def test_historical_graph_messages_carry_operation_and_tx():
    workspace = _workspace_with_history()
    view = workspace.as_of(1)
    with pytest.raises(HistoricalWorkspaceError) as info:
        view.graph.add(S, P, Literal("z"))
    assert str(info.value) == (
        "graph is a historical as-of view at tx 1; cannot add"
    )
    assert info.value.operation == "add"
    assert info.value.tx == 1


def test_historical_error_is_a_frozen_error():
    assert issubclass(HistoricalWorkspaceError, FrozenWorkspaceError)
    assert issubclass(FrozenWorkspaceError, RuntimeError)
