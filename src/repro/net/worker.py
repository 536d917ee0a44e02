"""Worker processes for the sharded serving tier.

Each worker is one full :class:`~repro.net.server.NavigationServer` —
frozen workspace, session manager, bounded pool, telemetry — running in
its own process with its own GIL, listening on an ephemeral local port.
The router (:mod:`repro.net.router`) owns a set of these and forwards
requests by session affinity.

Two ways a child gets its workspace:

* **fork** (the Linux default): the parent builds the sealed
  workspace once, forks, and every child inherits the frozen replica
  copy-on-write — zero rebuild cost, identical data by construction.
* **spawn / forkserver**: nothing is inherited, so the parent hands the
  child a :class:`DatasetSpec` — a small picklable recipe (builder name
  + seed + flags) — and the child rebuilds an identical dataset from
  scratch.  Both paths serve the same bytes because every builder here
  is deterministic in its seed.

The parent talks to each child over a ``multiprocessing.Pipe``:

* child → parent: ``("ready", port)`` once the server is listening, or
  ``("failed", message)`` if startup blew up;
* parent → child: ``("drain", save_dir_or_None)``;
* child → parent: ``("drained", report_dict)`` and the child exits.

Session saves honor exactly-once end-to-end: the router sends each
worker one drain message, and the worker's own
:meth:`~repro.net.server.NavigationServer.drain` guards its saves, so a
session file is written by exactly one process exactly once.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Optional

from ..service.manager import SessionManager
from .server import DrainReport, NavigationServer, ServerConfig

__all__ = ["DatasetSpec", "WorkerHandle", "worker_main"]


@dataclass(frozen=True)
class DatasetSpec:
    """A picklable recipe for rebuilding one workspace in a child.

    ``kind`` is one of the bundled dataset builders (``recipes``,
    ``inbox``, ``states``, ``factbook``), an RDF file (``ntriples``,
    ``turtle`` with ``path``), a durable datom-log store directory
    (``store`` with ``path`` — the child cold-starts by log replay),
    or ``check_corpus`` — the fuzz-harness corpus the differential
    wire check runs against.  Building twice from the same spec yields
    workspaces that serve identical bytes.
    """

    kind: str
    path: Optional[str] = None
    size: int = 800
    seed: int = 7
    annotated: bool = False

    def build_workspace(self):
        """Build the (sealed) workspace this spec describes."""
        from ..core.workspace import Workspace
        from ..obs import Observability

        obs = Observability(tracing=False)
        if self.kind == "check_corpus":
            from ..check.corpus import random_corpus

            return random_corpus(self.seed).workspace
        if self.kind == "ntriples":
            from ..rdf.ntriples import parse_ntriples

            with open(str(self.path), encoding="utf-8") as handle:
                graph = parse_ntriples(handle.read())
            return Workspace(graph, obs=obs)
        if self.kind == "turtle":
            from ..rdf.turtle import parse_turtle

            with open(str(self.path), encoding="utf-8") as handle:
                graph = parse_turtle(handle.read())
            return Workspace(graph, obs=obs)
        if self.kind == "store":
            from ..store.segments import LogStore

            graph = LogStore.open(str(self.path)).replay_graph(obs=obs)
            return Workspace(graph, obs=obs)
        if self.kind == "recipes":
            from ..datasets import recipes

            corpus = recipes.build_corpus(n_recipes=self.size, seed=self.seed)
        elif self.kind == "inbox":
            from ..datasets import inbox

            corpus = inbox.build_corpus(seed=self.seed)
        elif self.kind == "states":
            from ..datasets import states

            corpus = states.build_corpus(annotated=self.annotated)
        elif self.kind == "factbook":
            from ..datasets import factbook

            corpus = factbook.build_corpus(annotated=self.annotated)
        else:
            raise ValueError(f"unknown dataset spec kind {self.kind!r}")
        return Workspace(
            corpus.graph, schema=corpus.schema, items=corpus.items, obs=obs
        )

    @classmethod
    def from_args(cls, args: Any) -> "DatasetSpec":
        """The spec equivalent of ``repro.cli._load_workspace(args)``."""
        if getattr(args, "store", None):
            return cls(kind="store", path=args.store)
        if getattr(args, "ntriples", None):
            return cls(kind="ntriples", path=args.ntriples)
        if getattr(args, "turtle", None):
            return cls(kind="turtle", path=args.turtle)
        return cls(
            kind=args.dataset,
            size=args.size,
            seed=args.seed,
            annotated=args.annotated,
        )


def worker_main(
    spec: DatasetSpec | None,
    manager: SessionManager | None,
    pipe,
    config: ServerConfig,
) -> None:
    """Child-process entry: serve one shard until told to drain.

    Exactly one of ``spec``/``manager`` is set: fork passes the
    inherited ``manager`` (each child still uses its own copy after
    COW), spawn passes the ``spec`` to rebuild from.
    """
    try:
        if manager is None:
            if spec is None:
                raise ValueError("worker needs a manager or a spec")
            manager = SessionManager(spec.build_workspace())
        if config.ingest and manager.epochs is None:
            # Built post-fork: the epoch manager owns locks and (once
            # the server starts) a reindexer thread, neither of which
            # survives a fork.  Every worker folds the same delta stream
            # in the same tx order, so replicas stay aligned.
            from ..core.epochs import EpochManager

            manager.attach_epochs(EpochManager(manager.workspace))
        server = NavigationServer(manager, config)
        server.start()
        _host, port = server.address
    except Exception as error:  # noqa: BLE001 - reported over the pipe
        try:
            pipe.send(("failed", f"{type(error).__name__}: {error}"))
        except (OSError, ValueError):
            pass
        return
    pipe.send(("ready", port))
    save_dir = None
    try:
        while True:
            try:
                message = pipe.recv()
            except (EOFError, OSError):
                break  # parent vanished: drain without saving
            if not isinstance(message, tuple) or not message:
                continue
            if message[0] == "drain":
                save_dir = message[1] if len(message) > 1 else None
                break
    finally:
        report = server.drain(save_dir=save_dir)
        try:
            pipe.send(("drained", _report_dict(report)))
        except (OSError, ValueError, BrokenPipeError):
            pass


def _report_dict(report: DrainReport) -> dict[str, Any]:
    return {
        "served": report.served,
        "saved": list(report.saved),
        "dropped": list(report.dropped),
    }


class WorkerHandle:
    """The parent's view of one worker: process, pipe, port, liveness."""

    def __init__(
        self,
        index: int,
        config: ServerConfig,
        spec: DatasetSpec | None,
        manager: SessionManager | None,
        start_method: str,
    ):
        context = multiprocessing.get_context(start_method)
        if start_method != "fork":
            if spec is None:
                raise ValueError(
                    f"start method {start_method!r} cannot inherit a "
                    f"manager; a DatasetSpec is required"
                )
            manager = None  # children rebuild; never pickle a workspace
        self.index = index
        self.start_method = start_method
        self.pipe, child_pipe = context.Pipe()
        self.port: int | None = None
        self.process = context.Process(
            target=worker_main,
            args=(spec if manager is None else None, manager, child_pipe, config),
            name=f"net-shard-{index}",
            daemon=True,
        )
        self.process.start()
        child_pipe.close()

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until the child reports its port; raise on failure."""
        if self.port is not None:
            return self.port
        if not self.pipe.poll(timeout):
            self.terminate()
            raise RuntimeError(
                f"worker {self.index} did not come up within {timeout}s"
            )
        message = self.pipe.recv()
        if message[0] != "ready":
            self.terminate()
            raise RuntimeError(
                f"worker {self.index} failed to start: {message[1:]}"
            )
        self.port = int(message[1])
        return self.port

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def drain(
        self, save_dir: str | os.PathLike | None, timeout: float = 30.0
    ) -> dict[str, Any]:
        """Ask the child to drain; returns its report dict."""
        report: dict[str, Any] = {"served": 0, "saved": [], "dropped": []}
        try:
            self.pipe.send(
                ("drain", os.fspath(save_dir) if save_dir is not None else None)
            )
        except (OSError, ValueError, BrokenPipeError):
            pass  # already dead: nothing to save, nothing served
        else:
            if self.pipe.poll(timeout):
                try:
                    message = self.pipe.recv()
                    if message[0] == "drained":
                        report = message[1]
                except (EOFError, OSError):
                    pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.terminate()
        try:
            self.pipe.close()
        except OSError:
            pass
        return report

    def terminate(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<WorkerHandle {self.index} port={self.port} {state}>"
