"""The three workloads: corpus, server command line, and load shape.

Corpus sizes are set by the run budget, not by the paper: a run may
spend about 45 s in all (three server start-ups, a 5 s warm-up, the
window, verification), and each timed percentile needs at least ten
samples beyond it in one window.  At the paper's 6,444 recipes one
landing pane costs 1.7-2.5 s and a click 0.3 s, so a window could not
hold the 20 landings a median needs; 1,000 recipes keeps the same
analyst/advisor mix at a sixth of the cost.  The scaled corpus is sized
the same way (a 64k-item apply costs ~250 ms and a 64k start-up ~19 s).

Every workload drives its sessions from one closed-loop connection.  A
second browsing connection would make each click wait for whatever the
other connection's request holds of the interpreter lock, and whether a
click overlapped a 250 ms landing pane is a coin flip per click: the
click median moved by 30% between seeds.  The ingest workload's writer
is the second connection, which is where contention is the point.
bench/README.md records the sizes and the reasons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import corpora

WARMUP_S = 5.0
#: Server start-ups per untraced run; ``setup_s`` is the median of
#: their host-adjusted times and the last one serves the window.
SETUP_SPAWNS = 3
#: At most this many ops per run have their bodies kept and verified.
SAMPLE_OPS = 64

SMOKE_SIZES = {"recipes": 300, "scaled": 2048}
SMOKE_WARMUP_S = 1.0
SMOKE_WINDOW_S = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``browse`` (apply + suggest clicks, hover previews) or ``facets``
    #: (previews + applies, no suggest); see bench/streams.py.
    mix: str
    #: ``recipes`` or ``scaled``.
    corpus: str
    size: int
    #: Serve a cached datom-log store instead of building in memory.
    store: bool
    #: Concurrent sessions the reader round-robins over.
    slots: int
    #: Clicks (browse) or steps (facets) per session before it is
    #: deleted and a fresh one starts.
    steps: int
    #: Whole sessions whose bodies are kept for verification.
    sampled_sessions: int
    #: Open-loop ingest batches per second on a second connection
    #: (0: no writer), and the new recipes each batch carries.
    ingest_rate: float = 0.0
    ingest_batch: int = 0
    #: Browse clicks repaint the pane (``suggest``).  The ingest reader
    #: does not: a suggest that memoizes a facet profile while an epoch
    #: fold iterates the same memo kills the program's reindexer thread
    #: (``RuntimeError: dictionary keys changed during iteration`` in
    #: ``EpochManager._fold``), after which nothing ingested is ever
    #: published.  Without a suggest no reader writes what a fold reads.
    repaint: bool = True

    @property
    def ingest(self) -> bool:
        return self.ingest_rate > 0

    def sized(self, size: int) -> "Workload":
        return replace(self, size=size)

    def prepare(self) -> None:
        """Build this workload's cached corpus if it is missing."""
        if self.corpus == "scaled":
            corpora.ensure_scaled(self.size)
        elif self.store:
            corpora.ensure_recipes(self.size)

    def store_dir(self):
        if self.corpus == "scaled":
            return corpora.scaled_store(self.size)
        return corpora.recipe_store(self.size)

    def serve_args(self, store_dir=None) -> list[str]:
        """``repro serve`` arguments (after ``serve``) for this workload."""
        args = ["--port", "0"]
        if self.store:
            args += ["--store", str(store_dir or self.store_dir())]
        else:
            args = [self.corpus, "--size", str(self.size),
                    "--seed", str(corpora.RECIPE_SEED)] + args
        if self.ingest:
            args.append("--ingest")
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="browse_recipes", mix="browse", corpus="recipes",
            size=1000, store=False, slots=24, steps=20, sampled_sessions=2,
        ),
        Workload(
            name="facets_8k", mix="facets", corpus="scaled",
            size=8192, store=True, slots=16, steps=8, sampled_sessions=1,
        ),
        Workload(
            name="ingest_recipes", mix="browse", corpus="recipes",
            size=1000, store=True, slots=12, steps=12, sampled_sessions=2,
            ingest_rate=0.5, ingest_batch=2, repaint=False,
        ),
    )
}
