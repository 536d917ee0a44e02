"""An interactive terminal browser over any corpus.

The closest runnable analogue of Haystack's single-window interface
(Figure 1): a read-eval loop where the left pane is printed after each
navigation step and suggestions are selected by number.

Run with a bundled dataset::

    python -m repro recipes --size 800
    python -m repro inbox
    python -m repro states --annotated

or against your own data::

    python -m repro --ntriples data.nt
    python -m repro --turtle data.ttl

Commands (also shown by ``help``):

    search <words>        toolbar keyword search
    ranked <words>        ranked search (§6.2 extension)
    pick <n>              select suggestion number n
    chips                 list constraint chips
    drop <n> / neg <n>    remove / negate a chip
    overview              the Figure-2 facet overview
    describe              Dataguides-style structural summary
    item <n>              open the n-th item of the collection
    like <n> / unlike <n> relevance feedback on the n-th item
    more                  more like the marked items
    export <path>         save the collection as N-Triples/Turtle
    metrics               print the cache/telemetry snapshot
    back                  return to the previous view
    undo                  undo the last query refinement
    session list          list the named sessions (* marks active)
    session new <name>    start a fresh named session
    session switch <name> make a named session active
    session save <name> <path>   write a session's state as JSON
    session load <name> <path>   resume a saved state under a name
    quit

With ``--trace``, every command is followed by its span tree (what the
engine did and how long each stage took); ``--metrics`` prints the
telemetry snapshot when the session ends.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from .browser.facets import FacetSummary
from .browser.render import (
    render_item,
    render_navigation_pane,
    render_overview,
    render_range_widget,
)
from .browser.session import Session
from .core.suggestions import OpenRangeWidget
from .datasets.spec import DatasetSpec, add_dataset_arguments
from .obs import Observability, render_metrics, render_trace_forest
from .service import SessionManager

__all__ = ["main", "Shell"]


class Shell:
    """The command loop, separated from IO for testability."""

    def __init__(self, session: Session, out: IO[str] = sys.stdout):
        #: All named sessions share the workspace; the seeded one is "main".
        self.manager = SessionManager(session.workspace, engine=session.engine)
        self.manager.adopt("main", session)
        self.out = out
        self._numbered = []

    @property
    def session(self) -> Session:
        """The active session (the one every command operates on)."""
        return self.manager.active

    def write(self, text: str = "") -> None:
        print(text, file=self.out)

    def show_pane(self) -> None:
        result = self.session.suggestions()
        self._numbered = result.all_suggestions()
        self.write(render_navigation_pane(self.session))
        if self._numbered:
            self.write("suggestions:")
            for index, suggestion in enumerate(self._numbered, start=1):
                self.write(f"  {index:3d}. {suggestion.title}")

    # -- commands ----------------------------------------------------------

    def do_search(self, argument: str) -> None:
        view = self.session.search(argument)
        self.write(f"{len(view.items)} items")
        self.show_pane()

    def do_ranked(self, argument: str) -> None:
        view = self.session.search_ranked(argument)
        self.write(f"{len(view.items)} items (ranked)")
        self.show_pane()

    def do_pick(self, argument: str) -> None:
        suggestion = self._nth_suggestion(argument)
        if suggestion is None:
            return
        outcome = self.session.select(suggestion)
        if isinstance(outcome, OpenRangeWidget):
            self.write(render_range_widget(outcome.preview, suggestion.title))
            self.write("use: range <low> <high> to apply")
            self._pending_range = outcome
            return
        self.show_pane()

    def do_range(self, argument: str) -> None:
        widget = getattr(self, "_pending_range", None)
        if widget is None:
            self.write("no range widget open")
            return
        try:
            low_text, high_text = argument.split()
            low, high = float(low_text), float(high_text)
        except ValueError:
            self.write("usage: range <low> <high>")
            return
        view = self.session.apply_range(widget.prop, low, high)
        self._pending_range = None
        self.write(f"{len(view.items)} items")
        self.show_pane()

    def do_chips(self, argument: str) -> None:
        chips = self.session.describe_constraints()
        if not chips:
            self.write("(no constraints)")
        for index, chip in enumerate(chips):
            self.write(f"  [{index}] {chip}")

    def do_drop(self, argument: str) -> None:
        index = self._int(argument)
        if index is None:
            return
        view = self.session.remove_constraint(index)
        self.write(f"{len(view.items)} items")
        self.show_pane()

    def do_neg(self, argument: str) -> None:
        index = self._int(argument)
        if index is None:
            return
        view = self.session.negate_constraint(index)
        self.write(f"{len(view.items)} items")
        self.show_pane()

    def do_describe(self, argument: str) -> None:
        from .rdf.summary import StructuralSummary

        summary = StructuralSummary(self.session.workspace.graph)
        self.write(summary.render())

    def do_overview(self, argument: str) -> None:
        view = self.session.current
        if not view.is_collection:
            self.write("not viewing a collection")
            return
        summary = FacetSummary.of_collection(self.session.workspace, view.items)
        self.write(render_overview(summary))

    def do_item(self, argument: str) -> None:
        index = self._int(argument)
        if index is None:
            return
        items = self.session.current.items
        if not (1 <= index <= len(items)):
            self.write(f"item number out of range 1..{len(items)}")
            return
        item = items[index - 1]
        self.session.go_item(item)
        self.write(render_item(self.session.workspace, item))
        self.show_pane()

    def do_like(self, argument: str) -> None:
        self._judge(argument, relevant=True)

    def do_unlike(self, argument: str) -> None:
        self._judge(argument, relevant=False)

    def do_more(self, argument: str) -> None:
        try:
            view = self.session.more_like_marked()
        except RuntimeError as error:
            self.write(str(error))
            return
        self.write(f"{len(view.items)} items")
        self.show_pane()

    def do_back(self, argument: str) -> None:
        try:
            view = self.session.back()
        except RuntimeError:
            view = self.session.undo_refinement()
        if view.is_collection:
            self.write(f"{len(view.items)} items")
        self.show_pane()

    def do_export(self, argument: str) -> None:
        if not argument:
            self.write("usage: export <path> (.nt or .ttl)")
            return
        fmt = "ttl" if argument.endswith(".ttl") else "nt"
        try:
            count = self.session.export_collection(argument, format=fmt)
        except RuntimeError as error:
            self.write(str(error))
            return
        self.write(f"wrote {count} triples to {argument}")

    def do_undo(self, argument: str) -> None:
        view = self.session.undo_refinement()
        self.write(f"{len(view.items)} items")
        self.show_pane()

    def do_metrics(self, argument: str) -> None:
        self.write(render_metrics(self.session.metrics.snapshot()))

    def do_session(self, argument: str) -> None:
        words = argument.split()
        action = words[0] if words else "list"
        if action == "list":
            if not len(self.manager):
                self.write("(no sessions)")
                return
            for name in self.manager.names():
                marker = "*" if name == self.manager.active_name else " "
                state = self.manager.get(name).state
                self.write(
                    f"{marker} {name}: {state.view.description or 'an item'} "
                    f"({len(state.trail)} refinement step(s))"
                )
            return
        if action == "new" and len(words) == 2:
            try:
                self.manager.create(words[1])
            except ValueError as error:
                self.write(str(error))
                return
            self._numbered = []
            self.show_pane()
            return
        if action == "switch" and len(words) == 2:
            try:
                self.manager.switch(words[1])
            except KeyError as error:
                self.write(str(error.args[0]))
                return
            self._numbered = []
            self.show_pane()
            return
        if action == "save" and len(words) == 3:
            try:
                self.manager.save(words[1], words[2])
            except KeyError as error:
                self.write(str(error.args[0]))
                return
            self.write(f"saved session {words[1]!r} to {words[2]}")
            return
        if action == "load" and len(words) == 3:
            from .service import StateLoadError

            try:
                self.manager.load(words[1], words[2])
            except StateLoadError as error:
                self.write(str(error))
                return
            self._numbered = []
            self.write(f"loaded session {words[1]!r} from {words[2]}")
            self.show_pane()
            return
        self.write(
            "usage: session list | new <name> | switch <name> | "
            "save <name> <path> | load <name> <path>"
        )

    def do_help(self, argument: str) -> None:
        self.write(__doc__.split("Commands", 1)[1])

    # -- helpers -----------------------------------------------------------

    def _judge(self, argument: str, relevant: bool) -> None:
        index = self._int(argument)
        if index is None:
            return
        items = self.session.current.items
        if not (1 <= index <= len(items)):
            self.write(f"item number out of range 1..{len(items)}")
            return
        item = items[index - 1]
        if relevant:
            self.session.mark_relevant(item)
        else:
            self.session.mark_non_relevant(item)
        self.write(
            f"marked {self.session.workspace.label(item)} "
            f"{'relevant' if relevant else 'non-relevant'}"
        )

    def _int(self, argument: str) -> int | None:
        try:
            return int(argument.strip())
        except ValueError:
            self.write(f"expected a number, got {argument!r}")
            return None

    def _nth_suggestion(self, argument: str):
        index = self._int(argument)
        if index is None:
            return None
        if not self._numbered:
            self.session.suggestions()
            self._numbered = self.session.suggestions().all_suggestions()
        if not (1 <= index <= len(self._numbered)):
            self.write(f"suggestion number out of range 1..{len(self._numbered)}")
            return None
        return self._numbered[index - 1]

    def _flush_trace(self) -> None:
        """Print and drop spans gathered since the last command."""
        tracer = self.session.workspace.obs.tracer
        if tracer.enabled and tracer.roots:
            self.write(render_trace_forest(tracer.roots))
            tracer.clear()

    def run(self, stdin: IO[str] = sys.stdin, interactive: bool = True) -> int:
        """Read commands until quit/EOF; returns an exit code."""
        self.write(f"{self.session.workspace!r}")
        self.show_pane()
        self._flush_trace()
        while True:
            if interactive:
                self.out.write("magnet> ")
                self.out.flush()
            line = stdin.readline()
            if not line:
                return 0
            line = line.strip()
            if not line:
                continue
            command, _sep, argument = line.partition(" ")
            command = command.lower()
            if command in ("quit", "exit", "q"):
                return 0
            handler = getattr(self, f"do_{command}", None)
            if handler is None:
                self.write(f"unknown command {command!r} (try: help)")
                continue
            try:
                handler(argument.strip())
            except Exception as error:  # surface, keep the loop alive
                self.write(f"error: {error}")
            self._flush_trace()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Browse a corpus with Magnet."
    )
    add_dataset_arguments(parser, "browse")
    parser.add_argument(
        "--store",
        help="browse a durable datom-log store directory (log replay)",
    )
    parser.add_argument(
        "--commands",
        help="read commands from a file instead of stdin (non-interactive)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print a span tree after every command",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the telemetry snapshot when the session ends",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        # `python -m repro check ...` — the correctness-harness soak
        # mode; a separate parser so its flags don't collide with the
        # browser's dataset arguments.
        from .check.cli import main as check_main

        return check_main(argv[1:])
    if argv and argv[0] == "serve":
        # `python -m repro serve ...` — the JSON/HTTP session server.
        from .net.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "store":
        # `python -m repro store ...` — manage durable datom-log stores.
        from .store.cli import store_main

        return store_main(argv[1:])
    args = build_parser().parse_args(argv)
    obs = Observability(tracing=args.trace)
    workspace = DatasetSpec.from_args(args).build_workspace(obs)
    shell = Shell(Session(workspace))
    if args.commands:
        with open(args.commands, encoding="utf-8") as handle:
            code = shell.run(handle, interactive=False)
    else:
        interactive = sys.stdin.isatty()
        code = shell.run(sys.stdin, interactive=interactive)
    if args.metrics:
        shell.do_metrics("")
    return code
