"""Golden byte pins for the suggestion cycle.

The landing pane (the whole corpus) and a fixed ten-click script are
run on the 1,000-recipe corpus and on the inbox corpus; every
suggestions payload and every new state is hashed as the canonical
JSON the server would send.  Suggestion weights are float sums over
hash-ordered sets, so the script runs in a ``PYTHONHASHSEED=0``
subprocess, as the served-click benchmark's replay does.

Run ``python tests/core/test_suggest_golden.py recipes`` (with
``PYTHONPATH=src`` and ``PYTHONHASHSEED=0``) to print a digest.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

#: sha256 of the script's payload stream, per corpus.
GOLDEN = {
    "recipes": "4390515e7519266f44ad7fefcf16c5acd3515d51f4c1e1872c316edd75e2405f",
    "inbox": "aaffd554ea73e68575a330652d6e62731fbb1cee30b3947d9dcf47249a6c0446",
}

#: Which analyst's first presented suggestion each click follows.
SCRIPT = (
    "refine-by-text",
    "refine-by-path",
    "back",
    "refine-by-path",
    "refine-by-property-value",
    "back",
    "back",
    "related-collections",
    "back",
    "refine-by-text",
)


def _corpus(name: str):
    from repro.datasets import inbox, recipes

    if name == "recipes":
        return recipes.build_corpus(1000, seed=7)
    return inbox.build_corpus()


def _command_for(suggestion):
    from repro.core.suggestions import GoToCollection, Refine
    from repro.service import commands as cmd

    action = suggestion.action
    if isinstance(action, Refine):
        return cmd.Refine(action.predicate, action.mode)
    if isinstance(action, GoToCollection):
        return cmd.GoCollection(tuple(action.items), action.description)
    return None


def golden_digest(name: str) -> str:
    """Hash the landing plus the ten clicks of :data:`SCRIPT`."""
    from repro.core.workspace import Workspace
    from repro.net.protocol import (
        canonical_json,
        suggestions_payload,
        transition_payload,
    )
    from repro.service import commands as cmd
    from repro.service.navigation import NavigationService

    corpus = _corpus(name)
    workspace = Workspace(
        corpus.graph, schema=corpus.schema, items=corpus.items
    ).freeze()
    service = NavigationService()
    state = service.initial_state(workspace)
    digest = hashlib.sha256()
    result = service.suggest(workspace, state)
    digest.update(canonical_json(suggestions_payload(result)))
    for target in SCRIPT:
        command = cmd.Back() if target == "back" else None
        if command is None:
            presented = result.all_suggestions()
            for suggestion in [s for s in presented if s.analyst == target] + [
                s for s in presented if s.analyst != target
            ]:
                command = _command_for(suggestion)
                if command is not None:
                    break
        transition = service.apply(workspace, state, command)
        state = transition.state
        digest.update(canonical_json(transition_payload(transition)))
        result = service.suggest(workspace, state)
        digest.update(canonical_json(suggestions_payload(result)))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_suggestion_payloads_are_byte_pinned(name):
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, __file__, name],
        env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == GOLDEN[name]


if __name__ == "__main__":
    print(golden_digest(sys.argv[1]))
