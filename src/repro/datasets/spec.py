"""One switch from a dataset name to a corpus: :class:`DatasetSpec`.

The browser, ``repro serve`` (in process and in every spawned worker)
and ``repro store ingest`` all load their corpus through this spec, and
all declare its command-line arguments through
:func:`add_dataset_arguments`.  A spec is a small picklable recipe
(builder kind + seed + flags), so the sharded tier hands it to child
processes that cannot inherit a workspace; building twice from the same
spec yields workspaces that serve identical bytes, because every
builder is deterministic in its seed.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["DatasetSpec", "add_dataset_arguments"]


def add_dataset_arguments(parser: argparse.ArgumentParser, verb: str) -> None:
    """Declare the dataset arguments ``DatasetSpec.from_args`` reads.

    ``verb`` ("browse", "serve", "ingest") only words the help text.
    """
    parser.add_argument(
        "dataset",
        nargs="?",
        default="recipes",
        choices=["recipes", "inbox", "states", "factbook"],
        help=f"bundled dataset to {verb}",
    )
    parser.add_argument("--size", type=int, default=800,
                        help="recipe corpus size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--annotated", action="store_true",
                        help="apply schema annotations (states/factbook)")
    parser.add_argument("--ntriples", help=f"{verb} an N-Triples file")
    parser.add_argument("--turtle", help=f"{verb} a Turtle file")


@dataclass(frozen=True)
class DatasetSpec:
    """A picklable recipe for one corpus.

    ``kind`` is one of the bundled dataset builders (``recipes``,
    ``inbox``, ``states``, ``factbook``), an RDF file (``ntriples``,
    ``turtle`` with ``path``), a durable datom-log store directory
    (``store`` with ``path`` — built by log replay), or
    ``check_corpus`` — the fuzz-harness corpus the differential wire
    check runs against.
    """

    kind: str
    path: Optional[str] = None
    size: int = 800
    seed: int = 7
    annotated: bool = False

    @classmethod
    def from_args(cls, args: Any) -> "DatasetSpec":
        """The spec named by parsed :func:`add_dataset_arguments` (and,
        where the parser declares it, ``--store``)."""
        if getattr(args, "store", None):
            return cls(kind="store", path=args.store)
        if args.ntriples:
            return cls(kind="ntriples", path=args.ntriples)
        if args.turtle:
            return cls(kind="turtle", path=args.turtle)
        return cls(
            kind=args.dataset,
            size=args.size,
            seed=args.seed,
            annotated=args.annotated,
        )

    def build_source(self, obs=None):
        """``(graph, schema, items)``; schema and items are None for
        sources that carry none (RDF files and stores)."""
        if self.kind == "store":
            from ..store.segments import LogStore

            graph = LogStore.open(str(self.path)).replay_graph(obs=obs)
            return graph, None, None
        if self.kind == "ntriples":
            from ..rdf.ntriples import parse_ntriples

            with open(str(self.path), encoding="utf-8") as handle:
                return parse_ntriples(handle.read()), None, None
        if self.kind == "turtle":
            from ..rdf.turtle import parse_turtle

            with open(str(self.path), encoding="utf-8") as handle:
                return parse_turtle(handle.read()), None, None
        if self.kind == "recipes":
            from . import recipes

            corpus = recipes.build_corpus(n_recipes=self.size, seed=self.seed)
        elif self.kind == "inbox":
            from . import inbox

            corpus = inbox.build_corpus(seed=self.seed)
        elif self.kind == "states":
            from . import states

            corpus = states.build_corpus(annotated=self.annotated)
        elif self.kind == "factbook":
            from . import factbook

            corpus = factbook.build_corpus(annotated=self.annotated)
        else:
            raise ValueError(f"unknown dataset spec kind {self.kind!r}")
        return corpus.graph, corpus.schema, corpus.items

    def build_workspace(self, obs=None):
        """Build the (sealed) workspace this spec describes.

        ``obs`` receives the replay and workspace telemetry (and spans,
        when it traces); a fresh untraced one is used when omitted.
        """
        from ..core.workspace import Workspace
        from ..obs import Observability

        if self.kind == "check_corpus":
            from ..check.corpus import random_corpus

            return random_corpus(self.seed).workspace
        obs = obs if obs is not None else Observability(tracing=False)
        graph, schema, items = self.build_source(obs)
        return Workspace(graph, schema=schema, items=items, obs=obs)
