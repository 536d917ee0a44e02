"""Crash-recovery: a killed ingest never leaves a store that fails verify.

Uses the hidden ``--crash-after N`` ingest flag, which ``os._exit``\\ s
midway through the N-th segment write, so the subprocess dies with the
tmp file half-written — exactly the torn-write window the atomic
segment-then-manifest protocol is built for.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _repro(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_crash_mid_segment_leaves_a_verifiable_store(tmp_path):
    root = str(tmp_path / "store")
    assert _repro("store", "init", root).returncode == 0

    crashed = _repro(
        "store", "ingest", root, "recipes", "--size", "60",
        "--batch", "50", "--crash-after", "2",
    )
    assert crashed.returncode == 17  # died mid-write, by design

    # The torn write is a tmp orphan; the manifest only covers segment 1.
    files = os.listdir(root)
    assert any(".tmp." in name for name in files)
    manifest = json.loads(
        open(os.path.join(root, "manifest.json"), encoding="utf-8").read()
    )
    assert len(manifest["segments"]) == 1

    verified = _repro("store", "verify", root)
    assert verified.returncode == 0, verified.stderr
    assert json.loads(verified.stdout)["ok"] is True

    # Resume: the same ingest completes the history, and its first
    # append sweeps the torn tmp file...
    resumed = _repro(
        "store", "ingest", root, "recipes", "--size", "60", "--batch", "50"
    )
    assert resumed.returncode == 0, resumed.stderr
    assert not any(".tmp." in name for name in os.listdir(root))

    # ...and the recovered store equals a never-crashed ingest.
    clean_root = str(tmp_path / "clean")
    assert _repro("store", "init", clean_root).returncode == 0
    assert _repro(
        "store", "ingest", clean_root, "recipes", "--size", "60",
        "--batch", "50",
    ).returncode == 0
    recovered = json.loads(_repro("store", "verify", root).stdout)
    clean = json.loads(_repro("store", "verify", clean_root).stdout)
    assert recovered["triples"] == clean["triples"]
    assert recovered["last_tx"] == clean["last_tx"]
