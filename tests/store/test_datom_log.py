"""The datom value type and the in-memory accumulate-only log."""

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import BlankNode, Literal, Resource
from repro.store import (
    OP_ASSERT,
    OP_RETRACT,
    Datom,
    DatomLog,
)
from repro.store.datom import datom_from_dict, datom_to_dict

S = Resource("urn:s")
P = Resource("urn:p")


def test_datom_validates_op_and_tx():
    Datom(S, P, Literal("x"), 1, OP_ASSERT)  # fine
    with pytest.raises(ValueError, match="op"):
        Datom(S, P, Literal("x"), 1, "!")
    with pytest.raises(ValueError, match="tx"):
        Datom(S, P, Literal("x"), 0, OP_ASSERT)


def test_datom_round_trips_through_dict():
    for obj in (Literal("x"), Literal(3.5), Resource("urn:o"), BlankNode("b7")):
        datom = Datom(S, P, obj, 9, OP_RETRACT)
        again = datom_from_dict(datom_to_dict(datom))
        assert again == datom


def test_commit_requires_matching_tx():
    log = DatomLog()
    tx = log.begin()
    assert tx == 1
    with pytest.raises(ValueError, match="does not match"):
        log.commit((Datom(S, P, Literal("x"), 5, OP_ASSERT),))
    log.commit((Datom(S, P, Literal("x"), 1, OP_ASSERT),))
    assert log.last_tx == 1


def test_commit_of_many_datoms_mints_one_tx():
    log = DatomLog()
    datoms = [
        Datom(S, P, Literal(str(i)), 1, OP_ASSERT) for i in range(3)
    ]
    assert log.commit(datoms) == 1
    assert log.last_tx == 1
    assert len(log) == 3


def test_replay_append_keeps_ids_and_rejects_regression():
    log = DatomLog()
    log.replay_append(
        [
            Datom(S, P, Literal("a"), 3, OP_ASSERT),
            Datom(S, P, Literal("b"), 3, OP_ASSERT),
            Datom(S, P, Literal("c"), 7, OP_ASSERT),
        ]
    )
    assert log.last_tx == 7
    with pytest.raises(ValueError, match="backwards"):
        log.replay_append([Datom(S, P, Literal("d"), 6, OP_ASSERT)])


def test_datoms_through_is_a_prefix():
    log = DatomLog()
    for tx in (1, 2, 3):
        log.commit((Datom(S, P, Literal(str(tx)), tx, OP_ASSERT),))
    prefix = list(log.datoms_through(2))
    assert [d.tx for d in prefix] == [1, 2]


def test_graph_add_and_remove_log_effective_ops_only():
    g = Graph()
    g.add(S, P, Literal("a"))
    g.add(S, P, Literal("a"))  # duplicate: not logged, no tx minted
    assert g.last_tx == 1
    assert len(g.log) == 1
    assert not g.remove(S, P, Literal("zzz"))  # absent: not logged
    assert g.last_tx == 1
    g.remove(S, P, Literal("a"))
    assert g.last_tx == 2
    assert [d.op for d in g.log] == [OP_ASSERT, OP_RETRACT]


def test_transact_is_atomic_and_mints_one_tx():
    g = Graph()
    g.add(S, P, Literal("a"))
    tx = g.transact(
        [
            (OP_RETRACT, S, P, Literal("a")),
            (OP_ASSERT, S, P, Literal("b")),
            (OP_ASSERT, S, P, Literal("c")),
        ]
    )
    assert tx == 2
    assert g.last_tx == 2
    assert sorted(d.op for d in g.log if d.tx == 2) == ["+", "+", "-"]


def test_transact_validates_before_mutating():
    g = Graph()
    g.add(S, P, Literal("a"))
    before = len(g.log)
    with pytest.raises(ValueError):
        g.transact(
            [(OP_ASSERT, S, P, Literal("b")), ("boom", S, P, Literal("c"))]
        )
    assert len(g.log) == before
    assert (S, P, Literal("b")) not in set(g.triples())


def test_transact_with_no_effective_ops_returns_none():
    g = Graph()
    g.add(S, P, Literal("a"))
    assert g.transact([(OP_ASSERT, S, P, Literal("a"))]) is None
    assert g.last_tx == 1


def test_from_datoms_reproduces_graph_exactly():
    g = Graph()
    g.add(S, P, Literal("a"))
    g.add(S, P, Literal("b"))
    g.transact([(OP_RETRACT, S, P, Literal("a")), (OP_ASSERT, S, P, Literal("c"))])
    again = Graph.from_datoms(g.log)
    assert sorted(map(repr, again.triples())) == sorted(map(repr, g.triples()))
    assert again.last_tx == g.last_tx
    assert again.version == g.version
    assert len(again.log) == len(g.log)


def test_replay_rejects_noop_datoms_as_corruption():
    g = Graph()
    g.add(S, P, Literal("a"))
    bad = list(g.log) + [Datom(S, P, Literal("a"), 2, OP_ASSERT)]
    with pytest.raises(ValueError, match="already-present"):
        Graph.from_datoms(bad)
    bad = list(g.log) + [Datom(S, P, Literal("x"), 2, OP_RETRACT)]
    with pytest.raises(ValueError, match="absent"):
        Graph.from_datoms(bad)


def test_blank_node_counter_reseeds_after_replay():
    g = Graph()
    b = g.new_blank_node()
    g.add(b, P, Literal("a"))
    again = Graph.from_datoms(g.log)
    fresh = again.new_blank_node()
    assert fresh != b
    again.add(fresh, P, Literal("b"))
    assert len(again) == 2
