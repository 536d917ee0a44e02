"""The ``repro store`` management CLI."""

import json

import pytest

from repro.cli import main as repro_main
from repro.store.cli import store_main


def test_init_then_stats(tmp_path, capsys):
    root = str(tmp_path / "store")
    assert store_main(["init", root]) == 0
    assert store_main(["stats", root]) == 0
    out = capsys.readouterr().out
    stats = json.loads(out[out.index("{"):])
    assert stats["segments"] == []
    assert stats["last_tx"] == 0


def test_ingest_is_idempotent(tmp_path, capsys):
    root = str(tmp_path / "store")
    store_main(["init", root])
    assert store_main(
        ["ingest", root, "recipes", "--size", "30", "--seed", "5"]
    ) == 0
    first = capsys.readouterr().out
    assert "ingested " in first
    count = int(first.split("ingested ")[1].split(" ")[0])
    assert count > 0
    # same corpus again: replay + dedup makes it a no-op
    assert store_main(
        ["ingest", root, "recipes", "--size", "30", "--seed", "5"]
    ) == 0
    assert "ingested 0 datom(s)" in capsys.readouterr().out


def test_ingest_from_ntriples_and_verify(tmp_path, capsys):
    doc = tmp_path / "data.nt"
    doc.write_text(
        '<urn:a> <urn:p> "one" .\n'
        '<urn:a> <urn:p> "two" .\n'
    )
    root = str(tmp_path / "store")
    store_main(["init", root])
    assert store_main(["ingest", root, "--ntriples", str(doc)]) == 0
    capsys.readouterr()
    assert store_main(["verify", root]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["triples"] == 2


def test_there_is_no_compact_verb(tmp_path, capsys):
    root = str(tmp_path / "store")
    store_main(["init", root])
    with pytest.raises(SystemExit) as exit_info:
        store_main(["compact", root])
    assert exit_info.value.code == 2
    assert "invalid choice: 'compact'" in capsys.readouterr().err


def test_errors_exit_nonzero(tmp_path, capsys):
    root = str(tmp_path / "store")
    assert store_main(["stats", root]) == 1
    assert "error:" in capsys.readouterr().err
    store_main(["init", root])
    assert store_main(["init", root]) == 1
    assert "already initialized" in capsys.readouterr().err


def test_top_level_cli_dispatches_store(tmp_path, capsys):
    root = str(tmp_path / "store")
    assert repro_main(["store", "init", root]) == 0
    assert "initialized empty store" in capsys.readouterr().out


def test_unknown_dataset_is_rejected(tmp_path):
    root = str(tmp_path / "store")
    store_main(["init", root])
    with pytest.raises(SystemExit):
        store_main(["ingest", root, "nope"])
