"""``python -m repro serve``.

``serve`` loads a corpus exactly like the interactive browser (bundled
datasets, --ntriples/--turtle or a --store directory, through one
:class:`~repro.datasets.spec.DatasetSpec`) into a workspace, which is
sealed for concurrent reads when built, and runs a
:class:`~repro.net.server.NavigationServer` until interrupted,
draining gracefully (and saving every session when ``--save-dir`` is
given).  With ``--procs N`` (N > 1) it instead runs
the multi-process tier — N worker processes, each with its own GIL and
workspace replica, behind a :class:`~repro.net.router.ShardedServer`
session-affinity front.  ``--selftest`` is the CI smoke mode: start,
drive a mixed command batch through a real client, drain, and exit
nonzero if anything — including the drain's session saves — fails.
"""

from __future__ import annotations

import argparse
import sys

from ..datasets.spec import DatasetSpec, add_dataset_arguments


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve navigation sessions over JSON/HTTP.",
    )
    # The browser's dataset arguments, so `repro serve recipes --size
    # 200` loads what `repro recipes --size 200` browses.
    add_dataset_arguments(parser, "serve")
    parser.add_argument(
        "--store",
        help="serve a durable datom-log store directory "
        "(cold start by log replay; see `repro store`)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="listen port (0 picks an ephemeral one)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--procs",
        type=int,
        default=1,
        help="worker processes; >1 runs the sharded multi-process tier "
        "with session-affinity routing",
    )
    parser.add_argument(
        "--start-method",
        default=None,
        choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method for --procs>1 "
        "(default: fork where available)",
    )
    parser.add_argument("--queue-limit", type=int, default=32,
                        help="admitted-but-unserved connection cap")
    parser.add_argument("--deadline", type=float, default=10.0,
                        help="per-request deadline in seconds")
    parser.add_argument("--max-body", type=int, default=1 << 20,
                        help="request body cap in bytes")
    parser.add_argument("--save-dir", default=None,
                        help="save every session here on drain")
    parser.add_argument(
        "--ingest",
        action="store_true",
        help="accept live N-Triples ingestion on POST /ingest; readers "
        "pin immutable epoch snapshots and migrate forward as the "
        "background reindexer publishes",
    )
    parser.add_argument(
        "--publish-sync",
        action="store_true",
        help="publish a new epoch inside each POST /ingest instead of in "
        "the background (deterministic; higher ingest latency)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="start, run a smoke batch through a client, drain, exit",
    )
    return parser


def _build_server(args: argparse.Namespace):
    from .server import NavigationServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        request_deadline=args.deadline,
        max_body=args.max_body,
        ingest=getattr(args, "ingest", False),
        publish_sync=getattr(args, "publish_sync", False),
    )
    spec = DatasetSpec.from_args(args)
    procs = getattr(args, "procs", 1)
    if procs > 1:
        from .router import ShardedServer

        return ShardedServer(
            spec, config, procs=procs, start_method=args.start_method
        )
    from ..obs import Observability
    from ..service.manager import SessionManager

    obs = Observability(tracing=False)
    workspace = spec.build_workspace(obs)
    manager = SessionManager(workspace)
    if config.ingest:
        from ..core.epochs import EpochManager

        store = None
        if getattr(args, "store", None):
            # Serving straight from a durable store: ingested datoms are
            # sealed into segments as they arrive, so a crash restarts
            # on the last durable transaction.
            from ..store.segments import LogStore

            store = LogStore.open(args.store)
        manager.attach_epochs(EpochManager(workspace, obs=obs, store=store))
    return NavigationServer(manager, config)


#: Keyword vocabulary for the smoke batch; datasets need not match
#: these — empty results are legitimate navigation outcomes.
_WORDS = [
    "salad", "pepper", "corn", "olive", "magnet", "query",
    "navigation", "graph", "empty",
]


def _smoke_command(rng):
    """One command of the blind smoke mix.

    Blind on purpose: a ``RemoveConstraint(0)`` on an empty chip row or
    a ``Back`` with nothing to go back to comes back as a typed 422,
    which the smoke counts as expected traffic.
    """
    from ..query.ast import TextMatch
    from ..service import commands as cmd

    roll = rng.random()
    if roll < 0.30:
        return cmd.Search(rng.choice(_WORDS))
    if roll < 0.45:
        return cmd.SearchWithin(rng.choice(_WORDS))
    if roll < 0.65:
        return cmd.Refine(TextMatch(rng.choice(_WORDS)), "filter")
    if roll < 0.75:
        return cmd.RemoveConstraint(0)
    if roll < 0.85:
        return cmd.UndoRefinement()
    if roll < 0.95:
        return cmd.Back()
    return cmd.GoBookmarks()


def _selftest(server) -> int:
    """The blocking CI smoke: 50 mixed commands, drain, zero drops.

    It also checks both JSON forms of a state: every ``apply`` response
    carries its back stack as headers only, and every drained save file
    restores with each back-stack view's items, as many as the last
    response's header said.
    """
    import json
    import os
    import random
    import tempfile

    from ..service.state import SessionState
    from .client import NavigationClient, ServerError

    host, port = server.address
    client = NavigationClient(host, port)
    rng = random.Random(20260807)
    names = [f"smoke-{i}" for i in range(5)]
    last = {name: client.create_session(name)["state"] for name in names}
    ok = typed_errors = 0
    problems: list[str] = []
    for step in range(50):
        name = names[step % len(names)]
        try:
            state = client.apply(name, _smoke_command(rng))["state"]
            ok += 1
        except ServerError:
            typed_errors += 1  # typed service errors are expected traffic
            continue
        last[name] = state
        if any(
            "items" in view or not isinstance(view.get("size"), int)
            for view in state["back_stack"]
        ):
            problems.append(f"{name}: an apply response's back stack lists items")
    health = client.healthz()
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        report = server.drain(save_dir=tmp)
        for name in report.saved:
            path = os.path.join(tmp, f"{name}.json")
            try:
                with open(path, encoding="utf-8") as handle:
                    saved = SessionState.from_dict(json.load(handle))
            except (OSError, ValueError) as error:
                problems.append(f"{name}: the save does not load: {error}")
                continue
            sizes = [len(view.items) for view in saved.back_stack]
            if sizes != [view["size"] for view in last[name]["back_stack"]]:
                problems.append(f"{name}: the save's back stack lost items")
    print(
        f"selftest: {ok} ok, {typed_errors} typed error(s), "
        f"{health['sessions']} session(s), saved {len(report.saved)}, "
        f"dropped {len(report.dropped)}"
    )
    for problem in problems:
        print(f"selftest: {problem}")
    if (
        ok == 0
        or sorted(report.saved) != sorted(names)
        or report.dropped
        or problems
    ):
        print("selftest: FAILED")
        return 1
    print("selftest: OK")
    return 0


def serve_main(argv=None) -> int:
    args = build_serve_parser().parse_args(argv)
    server = _build_server(args)
    server.start()
    host, port = server.address
    if args.selftest:
        return _selftest(server)
    try:
        # The banner is inside the try: a SIGINT that lands right after
        # it must still drain, not escape as a traceback.
        print(f"serving on http://{host}:{port} "
              f"({args.procs} proc(s) x {args.workers} workers, "
              f"queue {args.queue_limit})")
        import time

        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    report = server.drain(save_dir=args.save_dir)
    print(
        f"drained: {report.served} request(s) served, "
        f"{len(report.saved)} session(s) saved, "
        f"{len(report.dropped)} dropped"
    )
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli
    sys.exit(serve_main())
