"""The durable layer: segments, manifest, checksums, orphan sweeps."""

import gzip
import hashlib
import json

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Resource
from repro.store import (
    OP_ASSERT,
    OP_RETRACT,
    Datom,
    LogStore,
    MANIFEST_NAME,
    StoreCorruptError,
    StoreError,
)

S = Resource("urn:s")
P = Resource("urn:p")


def _sample_graph() -> Graph:
    g = Graph()
    g.add(S, P, Literal("a"))
    g.add(S, P, Literal("b"))
    g.transact([(OP_RETRACT, S, P, Literal("a")), (OP_ASSERT, S, P, Literal("c"))])
    return g


def test_init_refuses_an_existing_store(tmp_path):
    root = tmp_path / "store"
    LogStore.init(root)
    with pytest.raises(StoreError, match="already initialized"):
        LogStore.init(root)


def test_open_requires_a_manifest(tmp_path):
    with pytest.raises(StoreError, match="cannot open"):
        LogStore.open(tmp_path / "nowhere")


def test_append_and_replay_round_trip(tmp_path):
    g = _sample_graph()
    store = LogStore.init(tmp_path / "store")
    store.append_log(g.log)
    replayed = LogStore.open(tmp_path / "store").replay_graph()
    assert sorted(map(repr, replayed.triples())) == sorted(map(repr, g.triples()))
    assert replayed.last_tx == g.last_tx
    assert replayed.version == g.version


def test_segment_bytes_are_deterministic(tmp_path):
    g = _sample_graph()
    for name in ("a", "b"):
        store = LogStore.init(tmp_path / name)
        store.append_log(g.log)
    seg_a = (tmp_path / "a" / store.segments[0].name).read_bytes()
    seg_b = (tmp_path / "b" / store.segments[0].name).read_bytes()
    assert seg_a == seg_b


def test_append_rejects_stale_or_backwards_tx(tmp_path):
    g = _sample_graph()
    store = LogStore.init(tmp_path / "store")
    store.append_log(g.log)
    with pytest.raises(StoreError, match="not newer"):
        store.append([Datom(S, P, Literal("z"), 1, OP_ASSERT)])
    with pytest.raises(StoreError, match="backwards"):
        store.append(
            [
                Datom(S, P, Literal("z"), g.last_tx + 2, OP_ASSERT),
                Datom(S, P, Literal("y"), g.last_tx + 1, OP_ASSERT),
            ]
        )


def test_batching_never_splits_a_transaction(tmp_path):
    g = Graph()
    g.add(S, P, Literal("one"))
    g.transact(
        [(OP_ASSERT, S, P, Literal(f"v{i}")) for i in range(5)]
    )
    store = LogStore.init(tmp_path / "store")
    store.append_log(g.log, batch=1)
    # tx 2's five datoms exceed the batch but stay in one segment
    assert [(info.first_tx, info.last_tx) for info in store.segments] == [
        (1, 1),
        (2, 2),
    ]
    assert store.segments[1].count == 5


def test_checksum_mismatch_is_detected(tmp_path):
    g = _sample_graph()
    store = LogStore.init(tmp_path / "store")
    store.append_log(g.log)
    seg = tmp_path / "store" / store.segments[0].name
    with gzip.open(seg, "wb") as handle:
        handle.write(b'{"tampered": true}\n')
    with pytest.raises(StoreCorruptError, match="checksum"):
        list(LogStore.open(tmp_path / "store").datoms())


def test_manifest_tampering_is_detected(tmp_path):
    g = _sample_graph()
    store = LogStore.init(tmp_path / "store")
    store.append_log(g.log)
    manifest = tmp_path / "store" / MANIFEST_NAME
    data = json.loads(manifest.read_text())
    data["last_tx"] = 999
    manifest.write_text(json.dumps(data))
    with pytest.raises(StoreCorruptError, match="disagrees"):
        LogStore.open(tmp_path / "store")


def test_unsupported_format_is_refused(tmp_path):
    LogStore.init(tmp_path / "store")
    manifest = tmp_path / "store" / MANIFEST_NAME
    data = json.loads(manifest.read_text())
    data["format"] = 99
    manifest.write_text(json.dumps(data))
    with pytest.raises(StoreCorruptError, match="format"):
        LogStore.open(tmp_path / "store")


def test_verify_runs_the_strict_replay(tmp_path):
    g = _sample_graph()
    store = LogStore.init(tmp_path / "store")
    store.append_log(g.log)
    result = LogStore.open(tmp_path / "store").verify()
    assert result["ok"] is True
    assert result["replayed_datoms"] == len(g.log)
    assert result["triples"] == len(g)


def _store_left_by_compaction(root) -> LogStore:
    """The sample history as one high-indexed segment.

    Earlier builds merged a store's segments into one file named past
    the highest index in use (three batch-1 appends, then a merge, left
    ``seg-00000004``).  Stores written that way still exist.
    """
    g = _sample_graph()
    store = LogStore.init(root)
    store.append_log(g.log)
    (root / store.segments[0].name).rename(root / "seg-00000004.jsonl.gz")
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    manifest["segments"][0]["name"] = "seg-00000004.jsonl.gz"
    (root / MANIFEST_NAME).write_text(json.dumps(manifest))
    store = LogStore.open(root)
    assert [info.name for info in store.segments] == ["seg-00000004.jsonl.gz"]
    return store


def test_append_after_compact_never_reuses_a_live_segment_name(tmp_path):
    # Regression: append() once named segments seg-{len(segments)+1}, so
    # on a compacted store (merged file at index N+1, list length 1) the
    # (N-1)th subsequent append replaced the live compacted segment's
    # bytes and corrupted the store.
    store = _store_left_by_compaction(tmp_path / "store")
    tx = store.last_tx
    for i in range(4):
        tx += 1
        store.append([Datom(S, P, Literal(f"post-{i}"), tx, OP_ASSERT)])
    names = [info.name for info in store.segments]
    assert len(names) == len(set(names))
    reopened = LogStore.open(tmp_path / "store")
    assert reopened.verify()["ok"] is True
    replayed = reopened.replay_graph()
    assert replayed.last_tx == tx
    # pre-compaction history is still navigable
    assert len(replayed.as_of(2)) == 2


def test_append_after_compact_survives_a_reopen(tmp_path):
    _store_left_by_compaction(tmp_path / "store")
    reopened = LogStore.open(tmp_path / "store")
    tx = reopened.last_tx
    for i in range(4):
        tx += 1
        reopened.append([Datom(S, P, Literal(f"re-{i}"), tx, OP_ASSERT)])
    assert LogStore.open(tmp_path / "store").verify()["ok"] is True


def test_orphan_segments_are_ignored_and_reported(tmp_path):
    g = _sample_graph()
    store = LogStore.init(tmp_path / "store")
    store.append_log(g.log)
    orphan = tmp_path / "store" / "seg-99999999.jsonl.gz"
    orphan.write_bytes(b"garbage")
    reopened = LogStore.open(tmp_path / "store")
    assert reopened.orphans() == ["seg-99999999.jsonl.gz"]
    assert reopened.verify()["ok"] is True  # orphan never read
    # the first append through the reopened handle sweeps it
    tx = reopened.last_tx + 1
    reopened.append([Datom(S, P, Literal("after"), tx, OP_ASSERT)])
    assert not orphan.exists()
    assert reopened.orphans() == []
    assert LogStore.open(tmp_path / "store").verify()["ok"] is True


def test_readers_never_delete_orphans(tmp_path):
    g = _sample_graph()
    root = tmp_path / "store"
    store = LogStore.init(root)
    store.append_log(g.log)
    orphan = root / "seg-99999999.jsonl.gz"
    orphan.write_bytes(b"garbage")
    torn = root / "seg-00000002.jsonl.gz.tmp.12345"
    torn.write_bytes(b"torn")
    reopened = LogStore.open(root)
    assert reopened.stats()["orphans"] == [torn.name, orphan.name]
    assert reopened.verify()["ok"] is True
    assert len(reopened.replay_graph()) == len(g)
    assert orphan.exists() and torn.exists()


def test_failed_segment_write_leaves_store_untouched(tmp_path):
    g = _sample_graph()
    store = LogStore.init(tmp_path / "store")

    def exploding_writer(handle, payload):
        handle.write(payload[: len(payload) // 2])
        raise OSError("disk full")

    with pytest.raises(OSError):
        store.append_log(g.log, segment_writer=exploding_writer)
    reopened = LogStore.open(tmp_path / "store")
    assert reopened.last_tx == 0
    assert reopened.verify()["ok"] is True


def _rewrite_segment(root, store, lines: list[bytes]) -> None:
    """Replace the first segment's datoms, keeping its manifest entry valid."""
    name = store.segments[0].name
    payload = b"".join(line + b"\n" for line in lines)
    with gzip.open(root / name, "wb") as handle:
        handle.write(payload)
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    entry = manifest["segments"][0]
    entry["sha256"] = hashlib.sha256(payload).hexdigest()
    entry["count"] = len(lines)
    (root / MANIFEST_NAME).write_text(json.dumps(manifest))


def _parent_error_text(data) -> str:
    """What decoding ``data`` without a term decoder raises."""
    from repro.service.serialize import StateSerializationError
    from repro.store.datom import datom_from_dict

    try:
        datom_from_dict(data)
    except (ValueError, StateSerializationError) as error:
        return str(error)
    raise AssertionError(f"{data!r} decoded")


class TestReplayInterning:
    """A replay decodes each distinct term once, keyed on its wire fields."""

    def test_replay_shares_one_object_per_term(self, tmp_path):
        g = Graph()
        for i in range(5):
            g.add(Resource(f"urn:i{i}"), P, Literal("shared"))
            g.add(Resource(f"urn:i{i}"), Resource("urn:q"), S)
        store = LogStore.init(tmp_path / "store")
        store.append_log(g.log)
        datoms = list(LogStore.open(tmp_path / "store").datoms())
        assert len({id(d.p) for d in datoms if d.p == P}) == 1
        assert len({id(d.o) for d in datoms if d.o == Literal("shared")}) == 1
        assert len({id(d.o) for d in datoms if d.o == S}) == 1

    def test_values_that_compare_equal_never_collide(self):
        from repro.service.serialize import node_from_dict
        from repro.store.datom import term_decoder

        decode = term_decoder()
        wire = [
            {"t": "lit", "v": 1},
            {"t": "lit", "v": True},
            {"t": "lit", "v": 1.0},
            {"t": "lit", "v": "1"},
            {"t": "lit", "v": "1", "dt": "http://www.w3.org/2001/XMLSchema#integer"},
            {"t": "lit", "v": "1", "lang": "en"},
            {"t": "uri", "v": "1"},
            {"t": "bnode", "v": "1"},
        ]
        for _round in range(2):
            for data in wire:
                node = decode(data)
                plain = node_from_dict(data)
                assert (type(node), repr(node), node.n3()) == (
                    type(plain), repr(plain), plain.n3()
                ), data

    @pytest.mark.parametrize(
        "bad",
        [
            {"s": {"t": "uri", "v": "urn:s"}, "p": {"t": "uri", "v": "urn:p"},
             "o": {"t": "what", "v": "x"}, "tx": 1, "op": "+"},
            {"s": {"t": "uri", "v": "urn:s"}, "p": {"t": "uri", "v": "urn:p"},
             "o": {"t": ["lit"], "v": "x"}, "tx": 1, "op": "+"},
            {"s": {"t": "uri", "v": "urn:s"}, "p": {"t": "uri", "v": "urn:p"},
             "o": {"t": "lit", "v": "x", "dt": ["x"]}, "tx": 1, "op": "+"},
            {"s": {"t": "uri", "v": "urn:s"}, "p": {"t": "uri"},
             "o": {"t": "lit", "v": "x"}, "tx": 1, "op": "+"},
            {"s": {"t": "uri", "v": "urn:s"}, "p": {"t": "uri", "v": "urn:p"},
             "tx": 1, "op": "+"},
            {"s": {"t": "uri", "v": "urn:s"}, "p": {"t": "uri", "v": "urn:p"},
             "o": {"t": "lit", "v": "x"}, "tx": 1, "op": "?"},
        ],
    )
    def test_malformed_datoms_keep_their_error_text(self, tmp_path, bad):
        g = _sample_graph()
        root = tmp_path / "store"
        store = LogStore.init(root)
        store.append_log(g.log)
        good = json.dumps({
            "s": {"t": "uri", "v": "urn:s"}, "p": {"t": "uri", "v": "urn:p"},
            "o": {"t": "lit", "v": "x"}, "tx": 1, "op": "+",
        }).encode()
        _rewrite_segment(root, store, [good, json.dumps(bad).encode()])
        expected = (
            f"segment {store.segments[0].name} holds a malformed datom: "
            f"{_parent_error_text(bad)}"
        )
        with pytest.raises(StoreCorruptError) as caught:
            list(LogStore.open(root).datoms())
        assert str(caught.value) == expected
